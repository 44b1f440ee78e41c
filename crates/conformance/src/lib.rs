//! # sns-conformance
//!
//! A differential conformance harness for the whole SNS workspace:
//! seeded random-RTL generation, cross-layer oracles, a shrinker, and a
//! replayed-forever regression corpus.
//!
//! The SNS reproduction has four layers that must agree about what a
//! Verilog design *means*: the elaborator + coarse-cell simulator
//! (`sns-netlist`), the gate-level expansion that prices the labels
//! (`sns-vsynth`), the trained predictor (`sns-core`), and the HTTP
//! daemon (`sns-serve`). Each layer has its own tests; this crate tests
//! the *seams* between them:
//!
//! * [`generator`] — a seeded generator of well-formed, always-
//!   elaboratable Verilog spanning the Table-1 cell vocabulary (nested
//!   always blocks, memories, replication, parameterized instances).
//!   Same seed → same design, on any machine and any thread count.
//! * [`oracle`] — the five differential oracles: netlist-sim ≡ gate-level
//!   eval under random stimulus; synthesis-label invariants (finite,
//!   deterministic, monotone under widening); bit-identical predictions
//!   across thread/batch/cache-capacity sweeps; HTTP ≡ direct prediction
//!   through a live `sns-serve`; incremental ≡ from-scratch prediction
//!   under K random module edits (the ECO session pipeline).
//! * [`shrink`](mod@shrink) — minimizes a failing design to a few lines while
//!   preserving the failure.
//! * [`corpus`] — checked-in minimized cases with blessed behavioral
//!   sidecars, replayed by the test suite forever (`SNS_BLESS=1`
//!   re-pins them after intentional changes).
//!
//! The `conformance_soak` binary runs the full oracle stack over many
//! seeds and writes a `BENCH_conformance.json` throughput report; the
//! test suite runs a smaller fixed-seed smoke (see `tests/conformance.rs`
//! at the crate root).

pub mod corpus;
pub mod generator;
pub mod oracle;
pub mod shrink;

pub use corpus::{bless, load_corpus, replay, CorpusCase};
pub use generator::{edit, generate, DesignSpec, GenConfig};
pub use oracle::{
    check_sim_vs_gates, check_vsynth_invariants, Disagreement, IncrementalHarness,
    IncrementalStats, OracleKind, PredictorHarness, ServeHarness,
};
pub use shrink::shrink;
