//! # sns-netlist
//!
//! A self-contained Verilog-subset front-end for SNS ("SNS's not a
//! Synthesizer", ISCA 2022). This crate stands in for the Yosys flow the
//! paper uses: it parses synthesizable Verilog source text and elaborates it
//! into a flat, coarse-grained functional [`Netlist`] whose cells match the
//! vocabulary of the paper's Table 1 (adders, multipliers, multiplexers,
//! D-flip-flops, ...).
//!
//! The pipeline is:
//!
//! ```text
//! Verilog source --lexer--> tokens --parser--> AST --elaborator--> Netlist
//! ```
//!
//! # Example
//!
//! ```rust
//! use sns_netlist::parse_and_elaborate;
//!
//! # fn main() -> Result<(), sns_netlist::NetlistError> {
//! let src = r#"
//!     module mac (input clk, input [7:0] a, input [7:0] b, output [15:0] y);
//!         reg [15:0] acc;
//!         always @(posedge clk) acc <= acc + a * b;
//!         assign y = acc;
//!     endmodule
//! "#;
//! let netlist = parse_and_elaborate(src, "mac")?;
//! assert!(netlist.cells().any(|c| c.kind == sns_netlist::CellKind::Mul));
//! assert!(netlist.cells().any(|c| c.kind == sns_netlist::CellKind::Dff));
//! # Ok(())
//! # }
//! ```
//!
//! The supported language subset is documented on [`parser`]; it is rich
//! enough to express every design generator in `sns-designs` (hierarchical
//! modules with parameters, clocked and combinational `always` blocks,
//! memories, case statements, concatenation/replication, the full
//! synthesizable operator set).
//!
//! # Untrusted input
//!
//! The whole front-end is *total* on arbitrary byte strings: every input
//! returns `Ok` or a structured [`NetlistError`] — it never panics,
//! overflows the stack, or allocates unboundedly. Nesting is capped at
//! [`parser::MAX_DEPTH`] ([`NetlistError::TooDeep`]), and elaboration
//! enforces configurable resource budgets ([`elaborate::ElabLimits`];
//! `SNS_MAX_CELLS`, `SNS_MAX_NET_BITS`, `SNS_MAX_REPLICATION`) that
//! reject amplifying constructs such as `{100000000{x}}` with
//! [`NetlistError::TooLarge`] *before* allocating
//! (`crates/netlist/tests/adversarial.rs` is the enforcing fuzz suite).

#![forbid(unsafe_code)]

pub mod ast;
pub mod elaborate;
pub mod error;
pub mod hash;
pub mod incremental;
pub mod lexer;
pub mod netlist;
pub mod parser;
pub mod sim;

pub use elaborate::{elaborate, elaborate_with_limits, ElabLimits};
pub use error::NetlistError;
pub use hash::{design_hashes, instantiated_modules, module_hash, ModHash};
pub use incremental::{elaborate_incremental, elaborate_incremental_with_limits, ModuleElabCache};
pub use lexer::{Lexer, Token, TokenKind};
pub use netlist::{Cell, CellId, CellKind, Net, NetId, Netlist, Port, PortDir};
pub use parser::parse_source;
pub use sim::Simulator;

/// Parses Verilog source text and elaborates the module named `top` (and the
/// full hierarchy below it) into a flat [`Netlist`].
///
/// This is the main entry point of the crate and is the direct analogue of
/// running `yosys -p "read_verilog; hierarchy -top <top>"` in the paper's
/// flow.
///
/// # Errors
///
/// Returns a [`NetlistError`] if the source fails to lex/parse, if `top` is
/// not defined, or if elaboration finds a semantic problem (unknown
/// identifiers, width mismatches in contexts that require exact widths,
/// multiply-driven nets, ...).
///
/// # Example
///
/// ```rust
/// # use sns_netlist::parse_and_elaborate;
/// # fn main() -> Result<(), sns_netlist::NetlistError> {
/// let src = "module buf8 (input [7:0] a, output [7:0] y); assign y = a; endmodule";
/// let nl = parse_and_elaborate(src, "buf8")?;
/// assert_eq!(nl.name(), "buf8");
/// # Ok(())
/// # }
/// ```
pub fn parse_and_elaborate(source: &str, top: &str) -> Result<Netlist, NetlistError> {
    let design = parse_source(source)?;
    elaborate(&design, top)
}
