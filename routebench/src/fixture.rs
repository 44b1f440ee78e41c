//! The model fixture: a Circuitformer of paper shape, trained on a short
//! fixed schedule and written to a model zoo in the benchmark's work
//! directory before any timing starts.
//!
//! Prediction cost depends on the model's shape (Table 2 widths, the
//! paper's k = 5 sampling), not on how well it was trained, so a few
//! small designs and one epoch suffice. The schedule is seeded and
//! single-threaded, so every run loads byte-identical weights.

use std::path::Path;

use sns_circuitformer::{CircuitformerConfig, TrainConfig};
use sns_core::aggmlp::MlpTrainConfig;
use sns_core::dataset::{AugmentConfig, HardwareDesignDataset, LabeledDesign};
use sns_core::{save_to_zoo, train_sns_on_labeled, SnsTrainConfig, ZooCheckpointMeta};
use sns_designs::{dsp, nonlinear, vector};
use sns_sampler::SampleConfig;
use sns_vsynth::{SynthOptions, TechNode};

/// Zoo id of the pinned fixture model.
pub const MODEL_ID: &str = "routebench-paper";

const SEED: u64 = 0x535E5;

/// Trains the fixture and saves it into the zoo at `zoo`, which must not
/// already hold it. Returns the weight hash recorded in the manifest.
pub fn build(zoo: &Path) -> Result<String, String> {
    let designs = vec![
        vector::simd_alu(2, 8),
        nonlinear::piecewise(4, 8),
        dsp::fir(4, 8),
        nonlinear::lut(16, 8),
    ];
    let config = SnsTrainConfig {
        sample: SampleConfig::paper_default(),
        augment: AugmentConfig::none(),
        circuitformer: CircuitformerConfig::paper(),
        cf_train: TrainConfig {
            epochs: 1,
            batch_size: 32,
            lr: 1e-3,
            seed: SEED,
            threads: 1,
            clip: 1.0,
        },
        mlp_train: MlpTrainConfig {
            epochs: 100,
            ..MlpTrainConfig::fast()
        },
        synth: SynthOptions::default(),
        cf_path_cap: 256,
        val_frac: 0.1,
        seed: SEED,
    };
    let labeled = HardwareDesignDataset::generate(&designs, &config.synth);
    let refs: Vec<&LabeledDesign> = labeled.entries.iter().collect();
    let (model, _) = train_sns_on_labeled(&refs, &config);
    let meta = ZooCheckpointMeta {
        id: MODEL_ID.to_string(),
        tech: TechNode::N15,
        train_steps: 0,
        labeled_designs: designs.len() as u64,
        seed: SEED,
    };
    let entry = save_to_zoo(&model, zoo, &meta).map_err(|e| format!("fixture: {e}"))?;
    Ok(entry.weight_hash)
}
