//! # sns-graphir
//!
//! The GraphIR circuit representation from SNS (§3.1 of the paper): a
//! directed graph whose vertices are functional units typed by a
//! `(type, width)` vocabulary (Table 1) and whose edges are wiring
//! connections.
//!
//! Key behaviours reproduced from the paper:
//!
//! * the 79-entry vocabulary of Table 1 ([`Vocab`]),
//! * width rounding to the closest power of two (ties round up), clamped to
//!   each type's allowed range, using the *maximum* connection width of the
//!   unit,
//! * wiring pseudo-cells (slices, concatenations, constants) are collapsed
//!   into edges, so the graph contains only functional units and ports,
//! * per-design graph statistics (vocabulary histograms) consumed by the
//!   Aggregation MLP.
//!
//! # Example
//!
//! ```rust
//! use sns_netlist::parse_and_elaborate;
//! use sns_graphir::GraphIr;
//!
//! # fn main() -> Result<(), sns_netlist::NetlistError> {
//! let nl = parse_and_elaborate(
//!     "module mac (input clk, input [7:0] a, b, output [15:0] y);
//!          reg [15:0] acc;
//!          always @(posedge clk) acc <= acc + a * b;
//!          assign y = acc;
//!      endmodule",
//!     "mac",
//! )?;
//! let g = GraphIr::from_netlist(&nl);
//! // io8 ports, a mul16, an add16, a dff16 and an io16 — as in Figure 2.
//! assert!(g.vertices().any(|v| v.vertex.token_name() == "mul16"));
//! assert!(g.vertices().any(|v| v.vertex.token_name() == "dff16"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod graph;
pub mod vocab;

pub use graph::{GraphIr, GraphStats, VertexId, VertexInfo};
pub use vocab::{Vertex, Vocab, VocabType};
