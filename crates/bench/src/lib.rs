//! Shared infrastructure for the paper-reproduction bench harnesses.
//!
//! Every bench target regenerates one table or figure from the SNS paper
//! and prints the same rows/series the paper reports, additionally writing
//! CSV artifacts under `target/paper/`.
//!
//! Two scales are supported:
//!
//! * the default **fast** schedule, sized for a single-core CI box (same
//!   pipeline and architecture, reduced epochs/path counts), and
//! * `SNS_PAPER=1`, which switches every knob to the paper's Tables 2/6
//!   values (hours of compute).
//!
//! `EXPERIMENTS.md` records which schedule produced the archived numbers.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use sns_circuitformer::{CircuitformerConfig, TrainConfig};
use sns_core::aggmlp::MlpTrainConfig;
use sns_core::dataset::{AugmentConfig, HardwareDesignDataset};
use sns_core::{load_model, save_model, train_sns_on_labeled, SnsModel, SnsTrainConfig};
use sns_designs::catalog;
use sns_genmodel::SeqGanConfig;
use sns_sampler::SampleConfig;
use sns_vsynth::SynthOptions;

pub use sns_core::train::train_sns_on_labeled as train_on_labeled;

/// Whether the full paper-scale schedule was requested.
pub fn paper_scale() -> bool {
    std::env::var("SNS_PAPER").map(|v| v == "1").unwrap_or(false)
}

/// The artifact directory (`target/paper`), created on demand.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper");
    fs::create_dir_all(&dir).expect("create target/paper");
    dir
}

/// The repository root (two levels above the bench crate).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Writes a machine-readable JSON artifact at the **repo root** (e.g.
/// `BENCH_kernels.json`), so the perf trajectory is tracked across PRs
/// alongside the code, and reports its path.
pub fn write_root_json(name: &str, doc: &sns_rt::json::Json) {
    let path = repo_root().join(name);
    fs::write(&path, doc.print() + "\n").expect("write bench json");
    println!("  [artifact] {}", path.display());
}

/// Writes a CSV artifact and reports its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = out_dir().join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    println!("  [artifact] {}", path.display());
}

/// The training configuration for the active scale.
pub fn bench_train_config() -> SnsTrainConfig {
    if paper_scale() {
        SnsTrainConfig::paper()
    } else {
        SnsTrainConfig {
            sample: SampleConfig::paper_default().with_max_paths(4000),
            augment: AugmentConfig {
                markov_count: 150,
                seqgan_count: 150,
                seqgan: SeqGanConfig::fast(),
                ..AugmentConfig::fast()
            },
            circuitformer: CircuitformerConfig::fast(),
            cf_train: TrainConfig { epochs: 12, batch_size: 64, ..TrainConfig::fast() },
            mlp_train: MlpTrainConfig { epochs: 2500, ..MlpTrainConfig::fast() },
            synth: SynthOptions::default(),
            cf_path_cap: 1800,
            val_frac: 0.1,
            seed: 0x535E5,
        }
    }
}

/// Labels the full 41-design catalog (cached in-process only; labeling is
/// cheap relative to training).
pub fn labeled_catalog() -> HardwareDesignDataset {
    let designs = catalog();
    HardwareDesignDataset::generate(&designs, &SynthOptions::default())
}

/// Returns the standard shared model: trained on a 50 % base-respecting
/// split of the catalog, cached at `target/paper/model.bin` so the DSE
/// and runtime benches don't retrain.
pub fn standard_model() -> (SnsModel, HardwareDesignDataset) {
    let dataset = labeled_catalog();
    let cache = out_dir().join(if paper_scale() { "model_paper.bin" } else { "model.bin" });
    if let Ok(model) = load_model(&cache) {
        println!("  [model] loaded cached {}", cache.display());
        return (model, dataset);
    }
    let config = bench_train_config();
    let (train_idx, _) = dataset.split(0.5, 42);
    let entries = dataset.select(&train_idx);
    println!("  [model] training on {} designs (cache miss)...", entries.len());
    let (model, report) = train_sns_on_labeled(&entries, &config);
    println!(
        "  [model] {} paths ({} direct / {} markov / {} seqgan), final val loss {:.4}",
        report.path_dataset_size,
        report.direct_paths,
        report.markov_paths,
        report.seqgan_paths,
        report.cf_history.last().map(|e| e.val_loss).unwrap_or(f32::NAN)
    );
    if let Err(e) = save_model(&model, &cache) {
        println!("  [model] cache write failed: {e}");
    }
    (model, dataset)
}

pub mod timing;

/// Pretty-prints a separator headline.
pub fn headline(title: &str) {
    println!("\n================================================================");
    println!("  {title}");
    println!("  scale: {}", if paper_scale() { "PAPER (SNS_PAPER=1)" } else { "fast (set SNS_PAPER=1 for Table 6 schedules)" });
    println!("================================================================");
}
