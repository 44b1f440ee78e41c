//! # sns-core
//!
//! The end-to-end SNS synthesis predictor: the paper's primary
//! contribution, assembled from the workspace substrates.
//!
//! The prediction flow (§3, Figure 1) is:
//!
//! 1. **Preprocess** — compile Verilog into a netlist (`sns-netlist`) and
//!    build the GraphIR (`sns-graphir`),
//! 2. **Sample** — extract complete circuit paths (`sns-sampler`,
//!    Algorithm 1),
//! 3. **Circuitformer** — predict each path's timing/area/power
//!    (`sns-circuitformer`),
//! 4. **Aggregate** — reduce path predictions (max for timing, sum for
//!    area and power, activity-scaled sums for power gating) and refine
//!    with per-target Aggregation MLPs fed by the graph statistics.
//!
//! Flat, session and ECO predictions all run these as the [`Stage`]s of
//! one [`pipeline`], under [`Hooks`] that can time, stop or re-route it.
//!
//! The training flow (§4, Figure 4) lives in [`train`]: ground-truth
//! labels come from the virtual synthesizer (`sns-vsynth`), scarce path
//! data is augmented with a Markov chain and a SeqGAN (`sns-genmodel`),
//! and everything is tied together with the metrics of §5.1 (RRSE, MAEP).
//!
//! # Example
//!
//! ```rust,no_run
//! use sns_core::{train_sns, SnsTrainConfig};
//!
//! let designs = sns_designs::catalog();
//! let (model, report) = train_sns(&designs[..8], &SnsTrainConfig::fast());
//! println!("trained on {} paths", report.path_dataset_size);
//! let pred = model
//!     .predict_verilog(&designs[8].verilog, &designs[8].top)
//!     .expect("valid Verilog");
//! println!("area = {} um2", pred.area_um2);
//! ```

pub mod aggmlp;
pub mod cache;
pub mod dataset;
pub mod eval;
pub mod metrics;
pub mod model_io;
pub mod pipeline;
pub mod predictor;
pub mod session;
pub mod train;

pub use aggmlp::AggMlp;
pub use cache::{CacheStats, PathPredictionCache};
pub use dataset::{CircuitPathDataset, HardwareDesignDataset, LabeledDesign};
pub use eval::{cross_validate, CrossValidation, ScatterPoint};
pub use metrics::{maep, rrse};
pub use model_io::{
    load_from_zoo, load_model, model_weight_hash, save_model, save_to_zoo, ZooCheckpointMeta,
    ZooEntry, ZooError, ZooManifest, ZOO_MANIFEST,
};
pub use pipeline::{Hooks, Inline, Input, Output, PipelineError, Stage};
pub use predictor::{DesignPrediction, SnsModel};
pub use session::{DesignSession, SessionError, SessionOutcome, SessionStore};
pub use train::{
    refit_correction, refit_correction_on, train_sns, train_sns_on_labeled, FineTuneConfig,
    FineTuner, RefitDesign, SnsTrainConfig, TrainReport,
};
