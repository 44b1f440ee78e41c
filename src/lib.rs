//! # SNS — *SNS's not a Synthesizer*
//!
//! A from-scratch Rust reproduction of the ISCA 2022 paper
//! *"SNS's not a Synthesizer: A Deep-Learning-Based Synthesis Predictor"*
//! (Xu, Kjellqvist, Wills).
//!
//! SNS predicts the **area, power and timing** of an RTL design orders of
//! magnitude faster than running synthesis, by sampling *complete circuit
//! paths* from a typed circuit graph and regressing their physical
//! characteristics with a lightweight Transformer (the *Circuitformer*),
//! then aggregating path predictions into design-level numbers.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`rt`] | `sns-rt` | runtime substrate: JSON, RNG, thread pool, GEMM |
//! | [`netlist`] | `sns-netlist` | Verilog-subset front-end (the Yosys stand-in) |
//! | [`graphir`] | `sns-graphir` | the GraphIR circuit graph + Table 1 vocabulary |
//! | [`sampler`] | `sns-sampler` | Algorithm 1 complete-circuit-path sampling |
//! | [`vsynth`] | `sns-vsynth` | the virtual synthesizer (labels + runtime baseline) |
//! | [`nn`] | `sns-nn` | the from-scratch neural-network substrate |
//! | [`circuitformer`] | `sns-circuitformer` | the path regressor (Table 2) |
//! | [`genmodel`] | `sns-genmodel` | Markov chain + SeqGAN path augmentation |
//! | [`designs`] | `sns-designs` | the 41-design hardware dataset (Table 3) |
//! | [`core`] | `sns-core` | the end-to-end predictor and training flow |
//! | [`casestudies`] | `sns-casestudies` | BOOM DSE (§5.6) and DianNao (§5.7) |
//! | [`serve`] | `sns-serve` | HTTP inference daemon: one model slot, one shared path cache |
//! | [`conformance`] | `sns-conformance` | differential conformance harness (random RTL + oracles) |
//! | [`train`] | `sns-train` | self-training label factory + versioned model zoo |
//!
//! # Quickstart
//!
//! ```rust,no_run
//! use sns::core::{train_sns, SnsTrainConfig};
//!
//! // Train on a slice of the 41-design dataset...
//! let designs = sns::designs::catalog();
//! let (model, _report) = train_sns(&designs[..20], &SnsTrainConfig::fast());
//!
//! // ...then predict any Verilog design in milliseconds-to-seconds.
//! let pred = model
//!     .predict_verilog(
//!         "module mac (input clk, input [7:0] a, b, output [15:0] y);
//!              reg [15:0] acc;
//!              always @(posedge clk) acc <= acc + a * b;
//!              assign y = acc;
//!          endmodule",
//!         "mac",
//!     )
//!     .expect("valid Verilog");
//! println!(
//!     "timing {:.0} ps, area {:.1} um2, power {:.3} mW (critical path: {:?})",
//!     pred.timing_ps, pred.area_um2, pred.power_mw, pred.critical_path
//! );
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the per-table/figure reproduction harnesses.

pub use sns_casestudies as casestudies;
pub use sns_circuitformer as circuitformer;
pub use sns_conformance as conformance;
pub use sns_core as core;
pub use sns_designs as designs;
pub use sns_genmodel as genmodel;
pub use sns_graphir as graphir;
pub use sns_netlist as netlist;
pub use sns_nn as nn;
pub use sns_rt as rt;
pub use sns_sampler as sampler;
pub use sns_serve as serve;
pub use sns_train as train;
pub use sns_vsynth as vsynth;
