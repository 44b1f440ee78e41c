//! The label-factory daemon: generate → vsynth-label → fine-tune, with a
//! versioned model zoo as the output artifact.
//!
//! ## Determinism contract
//!
//! Same [`DaemonConfig`] + same step count ⇒ **bit-identical model**, at
//! any `SNS_THREADS` / `SNS_BATCH`. Every stage holds the invariant
//! independently: the conformance generator is a pure function of its
//! seed, vsynth runs on one thread, model predictions are bit-identical at any thread/batch
//! setting, [`FineTuner`] sums gradients in fixed 8-example chunks,
//! the Markov arm consumes its own seeded RNG, and the bootstrap
//! trainer's thread knob is pinned to 1 in the config (the batch
//! trainer cuts ⌈batch / threads⌉-example chunks, the one place the
//! thread count reaches the weights). `tests/train_determinism.rs`
//! sweeps the env knobs and compares zoo weight hashes.
//!
//! ## Replay entries carry their front-end
//!
//! Each minted design is parsed and elaborated once. That one netlist
//! feeds the vsynth label, and its GraphIR, sampled paths, token
//! sequences and graph statistics feed the prequential prediction
//! ([`SnsModel::prime_path_cache`] + [`SnsModel::predict_primed`],
//! bit-identical to [`SnsModel::predict_verilog`]). The replay buffer
//! keeps each design as a [`RefitDesign`]: its report plus those
//! weight-independent products. The fine-tune step reads the stored
//! sequences of the selected designs, and a correction refit
//! ([`refit_correction_on`]) redoes only what depends on the weights —
//! one cache prime over the buffer, the reductions and the MLP fits.
//!
//! ## Technology corners
//!
//! Path-level physics (Circuitformer labels) stay at the cell library's
//! native 15 nm node; the Stillmaker–Baas scaling hooks are applied to
//! the *design-level* labels the aggregation-correction layer is fitted
//! against, so one path regressor serves any corner and the corner lives
//! in the correction MLPs — and in the zoo manifest (`tech_nm`).

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use sns_circuitformer::{CircuitformerConfig, TrainConfig};
use sns_conformance::{generate, GenConfig};
use sns_core::aggmlp::MlpTrainConfig;
use sns_core::dataset::{label_path_tokens, AugmentConfig, LabeledDesign};
use sns_core::{
    refit_correction_on, save_to_zoo, train_sns_on_labeled, DesignPrediction, FineTuneConfig,
    FineTuner, RefitDesign, SnsModel, SnsTrainConfig, ZooCheckpointMeta, ZooEntry,
};
use sns_designs::Design;
use sns_genmodel::{MarkovArm, PathValidator};
use sns_graphir::{GraphIr, Vocab};
use sns_netlist::parse_and_elaborate;
use sns_rt::env_knob;
use sns_rt::rng::StdRng;
use sns_sampler::{CircuitPath, PathSampler, SampleConfig};
use sns_vsynth::{
    scale_area, scale_delay, scale_power, SynthReport, TechNode, UnitCache,
    VirtualSynthesizer,
};

use crate::filter::select_top_q;

/// Configuration of the label-factory daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Master seed: design minting, bootstrap training, and the Markov
    /// arm all derive from it.
    pub seed: u64,
    /// Designs minted and labeled per step.
    pub designs_per_step: usize,
    /// Active-learning fraction: the top-q designs by model-vs-vsynth
    /// relative error feed the fine-tune batch.
    pub top_q: f64,
    /// Synthetic Markov-arm paths appended to each fine-tune batch
    /// (0 disables the second generator arm).
    pub markov_per_step: usize,
    /// Cap on fine-tune path examples taken from one design.
    pub max_paths_per_design: usize,
    /// Designs minted for the from-scratch bootstrap training run.
    pub bootstrap_designs: usize,
    /// Write a zoo checkpoint every N steps (0 = only the final one).
    pub checkpoint_every: usize,
    /// Refit the correction scaler + MLPs on the replay buffer every N
    /// steps (0 = never).
    pub refit_every: usize,
    /// Labeled-design replay buffer capacity (newest kept).
    pub replay_cap: usize,
    /// Zoo directory; `None` disables checkpointing.
    pub zoo_dir: Option<PathBuf>,
    /// Checkpoint id prefix (ids are `{prefix}-{steps:06}`).
    pub model_prefix: String,
    /// Technology corner design labels are scaled to.
    pub tech: TechNode,
    /// Random-RTL generator bounds.
    pub gen: GenConfig,
    /// Online fine-tune schedule.
    pub fine_tune: FineTuneConfig,
    /// Bootstrap (from-scratch) training configuration. Its
    /// `cf_train.threads` **must stay 1** for the determinism contract.
    pub bootstrap: SnsTrainConfig,
}

impl DaemonConfig {
    /// A small, fast default: tiny Circuitformer, modest batches —
    /// suitable for CI smokes and the soak benchmark. Deterministic: no
    /// field depends on the environment.
    pub fn fast() -> Self {
        let mut bootstrap = SnsTrainConfig::fast();
        bootstrap.circuitformer = CircuitformerConfig {
            dim: 32,
            ffn_dim: 64,
            max_len: 64,
            ..CircuitformerConfig::fast()
        };
        // threads is pinned to 1: the batch trainer sums each minibatch's
        // gradient in ⌈batch / threads⌉-example chunks, so its weights are
        // bit-identical only at a fixed thread count.
        bootstrap.cf_train =
            TrainConfig { epochs: 8, batch_size: 32, threads: 1, ..TrainConfig::fast() };
        bootstrap.mlp_train = MlpTrainConfig { epochs: 200, ..MlpTrainConfig::fast() };
        bootstrap.augment = AugmentConfig::none();
        bootstrap.sample = SampleConfig::paper_default().with_max_paths(250);
        DaemonConfig {
            seed: 0x5E1F_7A11,
            designs_per_step: 8,
            top_q: 0.5,
            markov_per_step: 16,
            max_paths_per_design: 64,
            bootstrap_designs: 12,
            checkpoint_every: 0,
            refit_every: 4,
            replay_cap: 64,
            zoo_dir: None,
            model_prefix: "sns".into(),
            tech: TechNode::N15,
            gen: GenConfig::default(),
            fine_tune: FineTuneConfig::daemon(),
            bootstrap,
        }
    }

    /// [`DaemonConfig::fast`] with `SNS_ZOO_DIR` / `SNS_TRAIN_*`
    /// environment overrides applied:
    ///
    /// | variable | field |
    /// |---|---|
    /// | `SNS_ZOO_DIR` | `zoo_dir` |
    /// | `SNS_TRAIN_SEED` | `seed` |
    /// | `SNS_TRAIN_DESIGNS_PER_STEP` | `designs_per_step` |
    /// | `SNS_TRAIN_TOP_Q` | `top_q` |
    /// | `SNS_TRAIN_MARKOV` | `markov_per_step` |
    /// | `SNS_TRAIN_BOOTSTRAP` | `bootstrap_designs` |
    /// | `SNS_TRAIN_CHECKPOINT_EVERY` | `checkpoint_every` |
    /// | `SNS_TRAIN_REFIT_EVERY` | `refit_every` |
    /// | `SNS_TRAIN_TECH_NM` | `tech` (nearest-none: must name a node) |
    /// | `SNS_TRAIN_PREFIX` | `model_prefix` |
    pub fn from_env() -> Self {
        let mut cfg = DaemonConfig::fast();
        if let Ok(v) = std::env::var("SNS_ZOO_DIR") {
            if !v.trim().is_empty() {
                cfg.zoo_dir = Some(PathBuf::from(v.trim()));
            }
        }
        if let Some(v) = env_knob::<u64>("SNS_TRAIN_SEED") {
            cfg.seed = v;
        }
        if let Some(v) = env_knob::<usize>("SNS_TRAIN_DESIGNS_PER_STEP") {
            cfg.designs_per_step = v.max(1);
        }
        if let Some(v) = env_knob::<f64>("SNS_TRAIN_TOP_Q") {
            cfg.top_q = v.clamp(0.0, 1.0);
        }
        if let Some(v) = env_knob::<usize>("SNS_TRAIN_MARKOV") {
            cfg.markov_per_step = v;
        }
        if let Some(v) = env_knob::<usize>("SNS_TRAIN_BOOTSTRAP") {
            cfg.bootstrap_designs = v.max(1);
        }
        if let Some(v) = env_knob::<usize>("SNS_TRAIN_CHECKPOINT_EVERY") {
            cfg.checkpoint_every = v;
        }
        if let Some(v) = env_knob::<usize>("SNS_TRAIN_REFIT_EVERY") {
            cfg.refit_every = v;
        }
        if let Some(nm) = env_knob::<usize>("SNS_TRAIN_TECH_NM") {
            if let Some(t) = TechNode::ALL.into_iter().find(|t| t.nanometres() as usize == nm) {
                cfg.tech = t;
            }
        }
        if let Ok(v) = std::env::var("SNS_TRAIN_PREFIX") {
            if !v.trim().is_empty() {
                cfg.model_prefix = v.trim().to_string();
            }
        }
        cfg
    }
}

/// Diagnostics for one daemon step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// 0-based step index.
    pub step: usize,
    /// Designs minted and labeled this step.
    pub designs: usize,
    /// Designs selected by the active-learning filter.
    pub selected: usize,
    /// Per-design model-vs-vsynth relative error, in mint order,
    /// measured **before** this step's update (prequential).
    pub per_design_rel_err: Vec<f64>,
    /// Mean of [`StepStats::per_design_rel_err`].
    pub mean_rel_err: f64,
    /// Directly-sampled path examples in the fine-tune batch.
    pub direct_examples: usize,
    /// Markov-arm synthetic examples in the fine-tune batch.
    pub markov_examples: usize,
    /// Mean normalized fine-tune MSE (0.0 when the batch was empty).
    pub fine_tune_loss: f32,
    /// Whether the correction layer was refitted after this step.
    pub refit: bool,
}

/// The daemon: owns the model, the fine-tuner, the Markov arm, the
/// replay buffer, and the zoo-checkpoint lineage.
pub struct TrainDaemon {
    config: DaemonConfig,
    model: SnsModel,
    tuner: FineTuner,
    arm: MarkovArm,
    arm_rng: StdRng,
    /// Labeled designs with their front-end products, oldest first.
    replay: Vec<RefitDesign>,
    synth: VirtualSynthesizer,
    vocab: Vocab,
    validator: PathValidator,
    design_counter: u64,
    labeled_total: u64,
    steps_done: usize,
    checkpoints: Vec<ZooEntry>,
    last_checkpoint_at: Option<usize>,
}

impl TrainDaemon {
    /// Bootstraps the daemon: mints `bootstrap_designs` designs, labels
    /// them, and trains the initial model from scratch.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is degenerate or a minted
    /// design fails to label.
    pub fn new(config: DaemonConfig) -> Result<Self, String> {
        if config.bootstrap_designs == 0 {
            return Err("bootstrap_designs must be >= 1".into());
        }
        if config.designs_per_step == 0 {
            return Err("designs_per_step must be >= 1".into());
        }
        let vocab = Vocab::new();
        let validator = PathValidator::new(&vocab);
        let synth = VirtualSynthesizer::new(config.bootstrap.synth.clone());
        let mut design_counter = 0u64;
        let mut labeled = Vec::with_capacity(config.bootstrap_designs);
        let mut replay = Vec::with_capacity(config.bootstrap_designs);
        for _ in 0..config.bootstrap_designs {
            let design = mint_design(config.seed, &mut design_counter, &config.gen);
            let (entry, _, _) =
                label_design(&synth, &design, config.tech, &config.bootstrap.sample, &vocab)?;
            labeled.push(LabeledDesign { design, report: entry.report.clone() });
            replay.push(entry);
        }
        let refs: Vec<&LabeledDesign> = labeled.iter().collect();
        let (model, _report) = train_sns_on_labeled(&refs, &config.bootstrap);
        let mut daemon = TrainDaemon {
            arm: MarkovArm::new(vocab.len(), config.bootstrap.augment.markov_alpha.max(0.01)),
            arm_rng: StdRng::seed_from_u64(config.seed ^ 0x4D41_524B),
            model,
            tuner: FineTuner::new(config.fine_tune.clone()),
            replay,
            synth,
            vocab,
            validator,
            design_counter,
            labeled_total: config.bootstrap_designs as u64,
            steps_done: 0,
            checkpoints: Vec::new(),
            last_checkpoint_at: None,
            config,
        };
        daemon.trim_replay();
        Ok(daemon)
    }

    /// The current model (fine-tuned up to the last completed step).
    pub fn model(&self) -> &SnsModel {
        &self.model
    }

    /// Completed fine-tune steps.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Designs labeled so far (bootstrap included).
    pub fn labeled_total(&self) -> u64 {
        self.labeled_total
    }

    /// Zoo entries written so far, oldest first.
    pub fn checkpoints(&self) -> &[ZooEntry] {
        &self.checkpoints
    }

    /// One generate → label → filter → fine-tune step.
    ///
    /// # Errors
    ///
    /// Returns an error when labeling, prediction, refit, or a periodic
    /// checkpoint fails; the loop can be resumed after a failed step.
    pub fn step(&mut self) -> Result<StepStats, String> {
        let step_idx = self.steps_done;
        // 1. Mint and label this step's batch; 2. prequential
        // disagreement: model vs oracle, before updating. One front-end
        // per design feeds the label, the prediction and the replay entry.
        let threads = sns_rt::pool::default_threads();
        let batch = sns_rt::pool::default_batch();
        let mut minted = Vec::with_capacity(self.config.designs_per_step);
        let mut errs = Vec::with_capacity(self.config.designs_per_step);
        for _ in 0..self.config.designs_per_step {
            let design = mint_design(self.config.seed, &mut self.design_counter, &self.config.gen);
            let (entry, graph, paths) = label_design(
                &self.synth,
                &design,
                self.config.tech,
                self.model.sample_config(),
                &self.vocab,
            )?;
            self.model.prime_path_cache(&entry.seqs, threads, batch);
            let pred = self.model.predict_primed(&graph, &paths, &entry.seqs, None, Instant::now());
            errs.push(mean_rel_err(&pred, &entry.report));
            minted.push(entry);
        }
        self.labeled_total += minted.len() as u64;

        // 3. Active-learning filter: spend gradients where the model is
        // most wrong.
        let selected = select_top_q(&errs, self.config.top_q);

        // 4. Fine-tune examples: unseen path token sequences from the
        // selected designs, labeled by the vsynth path model.
        let mut examples: Vec<(Vec<usize>, [f64; 3])> = Vec::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut unit_cache = UnitCache::new();
        let library = self.synth.options().library.clone();
        for &i in &selected {
            let mut kept = 0usize;
            for toks in &minted[i].seqs {
                if kept >= self.config.max_paths_per_design {
                    break;
                }
                if !seen.insert(toks.clone()) {
                    continue;
                }
                let label = label_path_tokens(toks, &self.vocab, &library, &mut unit_cache);
                self.arm.observe(toks);
                examples.push((toks.clone(), label));
                kept += 1;
            }
        }
        let direct_examples = examples.len();

        // 5. Second generator arm: synthetic Markov paths biased toward
        // the transition statistics observed so far.
        if self.config.markov_per_step > 0 {
            let max_len = self.model.sample_config().max_len;
            let raw = self.arm.generate_batch(
                &mut self.arm_rng,
                self.config.markov_per_step * 4,
                max_len,
                &seen,
            );
            for toks in self.validator.filter(raw).into_iter().take(self.config.markov_per_step)
            {
                let label = label_path_tokens(&toks, &self.vocab, &library, &mut unit_cache);
                examples.push((toks, label));
            }
        }
        let markov_examples = examples.len() - direct_examples;

        // 6. One fine-tune step (no-op on an empty batch — the loop
        // never stalls).
        let fine_tune_loss = self.tuner.step(&mut self.model, &examples, threads);

        // 7. Replay + periodic design-level correction refit.
        let designs = minted.len();
        self.replay.extend(minted);
        self.trim_replay();
        let mut refit = false;
        if self.config.refit_every > 0
            && (step_idx + 1).is_multiple_of(self.config.refit_every)
            && !self.replay.is_empty()
        {
            refit_correction_on(&mut self.model, &self.replay, &self.config.bootstrap.mlp_train)?;
            refit = true;
        }

        self.steps_done += 1;

        // 8. Periodic zoo checkpoint.
        if self.config.checkpoint_every > 0
            && self.config.zoo_dir.is_some()
            && self.steps_done.is_multiple_of(self.config.checkpoint_every)
        {
            self.checkpoint()?;
        }

        let mean_rel_err = if errs.is_empty() {
            0.0
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        Ok(StepStats {
            step: step_idx,
            designs,
            selected: selected.len(),
            per_design_rel_err: errs,
            mean_rel_err,
            direct_examples,
            markov_examples,
            fine_tune_loss,
            refit,
        })
    }

    /// Runs `steps` steps and writes a final zoo checkpoint (when a zoo
    /// directory is configured and the last step didn't just write one).
    ///
    /// # Errors
    ///
    /// Propagates the first step or checkpoint failure.
    pub fn run(&mut self, steps: usize) -> Result<Vec<StepStats>, String> {
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            out.push(self.step()?);
        }
        if self.config.zoo_dir.is_some() {
            self.checkpoint()?;
        }
        Ok(out)
    }

    /// Writes the current model into the zoo with full provenance.
    /// Idempotent per step count: a second call at the same
    /// `steps_done` returns the existing entry instead of duplicating.
    ///
    /// # Errors
    ///
    /// Returns an error when no zoo directory is configured or the
    /// write fails.
    pub fn checkpoint(&mut self) -> Result<ZooEntry, String> {
        if self.last_checkpoint_at == Some(self.steps_done) {
            if let Some(last) = self.checkpoints.last() {
                return Ok(last.clone());
            }
        }
        let dir = self
            .config
            .zoo_dir
            .clone()
            .ok_or_else(|| "no zoo directory configured".to_string())?;
        let meta = ZooCheckpointMeta {
            id: format!("{}-{:06}", self.config.model_prefix, self.steps_done),
            tech: self.config.tech,
            train_steps: self.tuner.steps(),
            labeled_designs: self.labeled_total,
            seed: self.config.seed,
        };
        let entry = save_to_zoo(&self.model, &dir, &meta).map_err(|e| e.to_string())?;
        self.last_checkpoint_at = Some(self.steps_done);
        self.checkpoints.push(entry.clone());
        Ok(entry)
    }

    fn trim_replay(&mut self) {
        let cap = self.config.replay_cap.max(1);
        if self.replay.len() > cap {
            let excess = self.replay.len() - cap;
            self.replay.drain(..excess);
        }
    }
}

/// Mints design number `*counter` deterministically from the master
/// seed, bumping the counter: the design stream is a pure function of
/// `(seed, counter, gen)`, independent of when in the run it is drawn.
fn mint_design(seed: u64, counter: &mut u64, gen: &GenConfig) -> Design {
    let i = *counter;
    *counter += 1;
    let design_seed = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    generate(design_seed, gen).to_design(format!("gen-{i:06}"))
}

/// Runs one design's front-end once: the netlist is labeled with vsynth
/// (the report scaled from the library's native 15 nm node to the
/// configured corner), and its GraphIR and `sample`d paths become the
/// replay entry's products. The graph and paths are returned too, for
/// the prequential prediction.
fn label_design(
    synth: &VirtualSynthesizer,
    design: &Design,
    tech: TechNode,
    sample: &SampleConfig,
    vocab: &Vocab,
) -> Result<(RefitDesign, GraphIr, Vec<CircuitPath>), String> {
    let nl = parse_and_elaborate(&design.verilog, &design.top)
        .map_err(|e| format!("design `{}`: {e}", design.name))?;
    let mut report = synth.synthesize(&nl);
    scale_report(&mut report, TechNode::N15, tech);
    let graph = GraphIr::from_netlist(&nl);
    let paths = PathSampler::new(sample.clone()).sample(&graph);
    Ok((RefitDesign::new(report, &graph, &paths, vocab), graph, paths))
}

/// Mean relative error across the three metrics, with a floor on the
/// denominators so a degenerate label cannot blow the score up to NaN.
fn mean_rel_err(pred: &DesignPrediction, label: &SynthReport) -> f64 {
    let dims = [
        (pred.timing_ps, label.timing_ps),
        (pred.area_um2, label.area_um2),
        (pred.power_mw, label.power_mw),
    ];
    dims.iter().map(|(p, l)| (p - l).abs() / l.abs().max(1e-9)).sum::<f64>() / dims.len() as f64
}

/// Scales a synthesis report between technology nodes in place
/// (Stillmaker–Baas factors). Not an exact identity when `from == to`:
/// each value is computed as `x * f / f`, which can change its last bit.
fn scale_report(report: &mut SynthReport, from: TechNode, to: TechNode) {
    report.area_um2 = scale_area(report.area_um2, from, to);
    report.timing_ps = scale_delay(report.timing_ps, from, to);
    report.power_mw = scale_power(report.power_mw, from, to);
    report.dynamic_mw = scale_power(report.dynamic_mw, from, to);
    report.leakage_mw = scale_power(report.leakage_mw, from, to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::{load_from_zoo, model_weight_hash};

    fn tiny_daemon_config(zoo: Option<PathBuf>) -> DaemonConfig {
        let mut cfg = DaemonConfig::fast();
        cfg.bootstrap_designs = 6;
        cfg.designs_per_step = 4;
        cfg.markov_per_step = 8;
        cfg.max_paths_per_design = 32;
        cfg.refit_every = 2;
        cfg.gen = GenConfig { max_items: 8, ..GenConfig::default() };
        cfg.bootstrap.cf_train.epochs = 4;
        cfg.bootstrap.mlp_train.epochs = 60;
        cfg.zoo_dir = zoo;
        cfg
    }

    #[test]
    fn daemon_smoke_runs_checkpoints_and_round_trips() {
        let zoo = std::env::temp_dir().join(format!("sns_daemon_zoo_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&zoo);
        let mut daemon = TrainDaemon::new(tiny_daemon_config(Some(zoo.clone()))).unwrap();
        assert_eq!(daemon.labeled_total(), 6);

        let stats = daemon.run(2).unwrap();
        assert_eq!(stats.len(), 2);
        assert_eq!(daemon.steps_done(), 2);
        assert_eq!(daemon.labeled_total(), 6 + 8);
        for s in &stats {
            assert_eq!(s.designs, 4);
            assert_eq!(s.selected, 2, "top-q 0.5 of 4");
            assert_eq!(s.per_design_rel_err.len(), 4);
            assert!(s.mean_rel_err.is_finite() && s.mean_rel_err >= 0.0);
            assert!(s.direct_examples > 0, "selected designs contributed no paths");
        }
        // Step 2 refits (refit_every = 2).
        assert!(stats[1].refit);
        // The Markov arm warmed up by step 2 at the latest.
        assert!(stats[1].markov_examples > 0, "markov arm stayed cold");

        // run() wrote a final checkpoint; it round-trips bit-exactly.
        assert_eq!(daemon.checkpoints().len(), 1);
        let entry = daemon.checkpoints()[0].clone();
        assert_eq!(entry.train_steps, 2);
        assert_eq!(entry.labeled_designs, 14);
        let (loaded, loaded_entry) = load_from_zoo(&zoo, None).unwrap();
        assert_eq!(loaded_entry, entry);
        assert_eq!(model_weight_hash(&loaded), entry.weight_hash);
        assert_eq!(model_weight_hash(daemon.model()), entry.weight_hash);

        // checkpoint() is idempotent at the same step count.
        let again = daemon.checkpoint().unwrap();
        assert_eq!(again, entry);
        assert_eq!(daemon.checkpoints().len(), 1);

        let _ = std::fs::remove_dir_all(&zoo);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut cfg = tiny_daemon_config(None);
        cfg.bootstrap_designs = 0;
        assert!(TrainDaemon::new(cfg).is_err());
        let mut cfg = tiny_daemon_config(None);
        cfg.designs_per_step = 0;
        assert!(TrainDaemon::new(cfg).is_err());
    }

    #[test]
    fn checkpoint_without_zoo_dir_is_an_error_not_a_panic() {
        let mut daemon = TrainDaemon::new(tiny_daemon_config(None)).unwrap();
        assert!(daemon.checkpoint().is_err());
        // And run() without a zoo just runs.
        let stats = daemon.run(1).unwrap();
        assert_eq!(stats.len(), 1);
    }
}
