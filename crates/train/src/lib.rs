//! # sns-train
//!
//! The **self-training label factory**: the paper's premise is that a
//! learned predictor can stand in for a synthesizer, which only holds
//! while the model keeps tracking the oracle. This crate closes that
//! loop with a training daemon built from parts the workspace already
//! owns:
//!
//! * **Generate** — the conformance generator (`sns-conformance`) mints
//!   unlimited valid RTL, seeded and byte-deterministic;
//! * **Label** — the virtual synthesizer (`sns-vsynth`) prices
//!   every design bit-exactly, with Stillmaker–Baas scaling to the
//!   configured technology corner;
//! * **Filter** — an active-learning top-q filter ([`select_top_q`])
//!   spends the gradient budget on the designs where the model disagrees
//!   most with the oracle;
//! * **Fine-tune** — `sns_core::FineTuner` takes one clipped Adam step
//!   per batch on the selected designs' path labels, plus a second
//!   generator arm of synthetic paths from an online Markov model
//!   (`sns_genmodel::MarkovArm`). It is the batch trainer's own step, in
//!   fixed 8-example gradient chunks, so the thread count moves no bit;
//! * **Checkpoint** — snapshots land in a **versioned model zoo**
//!   (`sns_core::model_io`): a manifest of model id, corner, train-step
//!   provenance, and FNV-128 weight hash, written atomically so
//!   `sns-serve` can hot-swap from it at any moment.
//!
//! The whole loop is deterministic end to end: same seed + same step
//! count ⇒ bit-identical model, at any `SNS_THREADS` / `SNS_BATCH` (see
//! `tests/train_determinism.rs`).
//!
//! The `train_soak` binary runs the daemon over hundreds of designs and
//! writes `BENCH_train.json` (labeling/step throughput, disagreement
//! trend by quartile); `scripts/train_soak.sh` drives it and a ~100
//! design smoke rides in `scripts/tier1.sh`.
//!
//! Environment knobs (see [`DaemonConfig::from_env`]): `SNS_ZOO_DIR`,
//! `SNS_TRAIN_SEED`, `SNS_TRAIN_DESIGNS_PER_STEP`, `SNS_TRAIN_TOP_Q`,
//! `SNS_TRAIN_MARKOV`, `SNS_TRAIN_BOOTSTRAP`,
//! `SNS_TRAIN_CHECKPOINT_EVERY`, `SNS_TRAIN_REFIT_EVERY`,
//! `SNS_TRAIN_TECH_NM`, `SNS_TRAIN_PREFIX`.

pub mod daemon;
pub mod filter;

pub use daemon::{DaemonConfig, StepStats, TrainDaemon};
pub use filter::select_top_q;
