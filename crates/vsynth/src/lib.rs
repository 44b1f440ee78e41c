//! # sns-vsynth
//!
//! A "virtual synthesizer": the stand-in for Synopsys Design Compiler +
//! FreePDK-15 in this reproduction of SNS (ISCA 2022).
//!
//! The paper uses a commercial synthesis flow for two things:
//!
//! 1. **Ground-truth labels** — area / power / timing for whole designs
//!    (Table 4) and for individual circuit paths (Table 5), and
//! 2. **The runtime baseline** — the slow tool SNS is compared against
//!    (Figure 7).
//!
//! This crate provides both. It is not a logic optimizer, but it does real,
//! physically-grounded work proportional to design size:
//!
//! * every coarse functional cell is expanded into an explicit **bit-level
//!   gate graph** using textbook implementations (Sklansky prefix adders,
//!   Wallace-tree multipliers, barrel shifters, restoring array dividers,
//!   balanced reduction trees) over a characterized 15 nm-class cell
//!   library ([`library`]),
//! * **static timing analysis** propagates arrival times over the full gate
//!   graph (flip-flop to flip-flop, with clk→Q and setup),
//! * an iterative **gate-sizing loop** upsizes gates near the critical path
//!   (this is what makes the baseline's runtime scale super-linearly with
//!   design size, like a real synthesis tool),
//! * **power analysis** propagates switching activity through the graph and
//!   sums dynamic + leakage power at the achieved frequency; per-register
//!   activity coefficients can be supplied for the paper's power-gating
//!   mode (§3.4.4),
//! * [`scaling`] implements Stillmaker–Baas-style technology scaling used
//!   for the DianNao 65 nm → 15 nm comparison (Table 12).
//!
//! # Example
//!
//! ```rust
//! use sns_netlist::parse_and_elaborate;
//! use sns_vsynth::{SynthOptions, VirtualSynthesizer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = parse_and_elaborate(
//!     "module mac (input clk, input [7:0] a, b, output [15:0] y);
//!          reg [15:0] acc;
//!          always @(posedge clk) acc <= acc + a * b;
//!          assign y = acc;
//!      endmodule",
//!     "mac",
//! )?;
//! let report = VirtualSynthesizer::new(SynthOptions::default()).synthesize(&nl);
//! assert!(report.area_um2 > 0.0);
//! assert!(report.timing_ps > 0.0);
//! assert!(report.power_mw > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod expand;
pub mod gates;
pub mod geval;
pub mod library;
pub mod paths;
pub mod scaling;
pub mod synth;

pub use gates::{GateGraph, GateKind, NodeId};
pub use geval::GateSim;
pub use library::{CellLibrary, GateParams};
pub use paths::{path_physical, unit_physical, PathPhysical, UnitCache, UnitPhysical};
pub use scaling::{scale_area, scale_delay, scale_power, TechNode};
pub use synth::{AnalyzeBreakdown, GateLevel, SynthOptions, SynthReport, VirtualSynthesizer};
