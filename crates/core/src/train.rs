//! The SNS training flow (§4, Figure 4).
//!
//! 1. Label designs with the virtual synthesizer (Hardware Design
//!    Dataset).
//! 2. Sample complete circuit paths from the training designs, label
//!    them, and augment with Markov-chain and SeqGAN paths (Circuit Path
//!    Dataset).
//! 3. Train the Circuitformer on the path dataset.
//! 4. Run the trained Circuitformer over each training design, aggregate
//!    per-design features, and train the three Aggregation MLPs against
//!    the design labels.

use std::collections::HashSet;

use sns_rt::rng::StdRng;

use sns_circuitformer::{
    train as cf_train, Circuitformer, CircuitformerConfig, LabelScaler, TrainConfig, TrainHistory,
};
use sns_designs::Design;
use sns_graphir::{GraphIr, GraphStats, Vocab};
use sns_netlist::parse_and_elaborate;
use sns_sampler::{CircuitPath, PathSampler, SampleConfig};
use sns_vsynth::{SynthOptions, SynthReport};

use crate::aggmlp::{AggMlp, MlpTrainConfig};
use crate::cache::PathPredictionCache;
use crate::dataset::{AugmentConfig, CircuitPathDataset, HardwareDesignDataset, LabeledDesign};
use crate::pipeline::{Hooks, Inline};
use crate::predictor::SnsModel;

/// Configuration of the full SNS training flow.
#[derive(Debug, Clone)]
pub struct SnsTrainConfig {
    /// Path sampling (Algorithm 1) configuration; the paper uses k = 5.
    pub sample: SampleConfig,
    /// Path-dataset augmentation (§4.2).
    pub augment: AugmentConfig,
    /// Circuitformer architecture (Table 2).
    pub circuitformer: CircuitformerConfig,
    /// Circuitformer optimization (Table 6 row 1).
    pub cf_train: TrainConfig,
    /// Aggregation-MLP optimization (Table 6 row 2).
    pub mlp_train: MlpTrainConfig,
    /// Virtual synthesizer options for label generation.
    pub synth: SynthOptions,
    /// Upper bound on the number of paths used to train the Circuitformer
    /// (a random subsample; the full set still fits the label scaler and
    /// drives feature aggregation). Large designs sample tens of thousands
    /// of unique paths, far more than the regressor needs per epoch.
    pub cf_path_cap: usize,
    /// Validation fraction of the path dataset (for the Figure 5 curves).
    pub val_frac: f64,
    /// Master seed.
    pub seed: u64,
}

impl SnsTrainConfig {
    /// The paper's full-scale configuration (Tables 2 and 6).
    pub fn paper() -> Self {
        SnsTrainConfig {
            sample: SampleConfig::paper_default(),
            augment: AugmentConfig::paper(),
            circuitformer: CircuitformerConfig::paper(),
            cf_train: TrainConfig::paper(),
            mlp_train: MlpTrainConfig::paper(),
            synth: SynthOptions::default(),
            cf_path_cap: usize::MAX,
            val_frac: 0.1,
            seed: 0x535E5,
        }
    }

    /// A reduced configuration for CI and quick experiments: the same
    /// pipeline and model shapes, smaller schedules.
    pub fn fast() -> Self {
        SnsTrainConfig {
            augment: AugmentConfig::fast(),
            circuitformer: CircuitformerConfig::fast(),
            cf_train: TrainConfig::fast(),
            mlp_train: MlpTrainConfig::fast(),
            cf_path_cap: 2000,
            ..SnsTrainConfig::paper()
        }
    }
}

/// Artifacts and diagnostics of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Total labeled paths (direct + generated).
    pub path_dataset_size: usize,
    /// Directly sampled paths (the paper obtained 684).
    pub direct_paths: usize,
    /// Markov-generated paths (~1000 in the paper).
    pub markov_paths: usize,
    /// SeqGAN-generated paths (~3000 in the paper).
    pub seqgan_paths: usize,
    /// Circuitformer loss curves (Figure 5 data).
    pub cf_history: TrainHistory,
    /// Aggregation-MLP loss curves, `[timing, area, power]`.
    pub mlp_curves: [Vec<f32>; 3],
    /// Number of training designs.
    pub design_count: usize,
}

/// Trains SNS end-to-end on `designs` (labels them first). Returns the
/// trained model and the training report.
///
/// # Panics
///
/// Panics if `designs` is empty or any design fails to elaborate.
pub fn train_sns(designs: &[Design], config: &SnsTrainConfig) -> (SnsModel, TrainReport) {
    assert!(!designs.is_empty(), "no training designs");
    let labeled = HardwareDesignDataset::generate(designs, &config.synth);
    let refs: Vec<&LabeledDesign> = labeled.entries.iter().collect();
    train_sns_on_labeled(&refs, config)
}

/// Trains SNS on pre-labeled designs (used by cross-validation, which
/// labels once and trains per fold).
///
/// # Panics
///
/// Panics if `entries` is empty.
pub fn train_sns_on_labeled(
    entries: &[&LabeledDesign],
    config: &SnsTrainConfig,
) -> (SnsModel, TrainReport) {
    assert!(!entries.is_empty(), "no labeled training designs");
    let vocab = Vocab::new();

    // ---- Circuit Path Dataset (§4.2) ----
    let design_refs: Vec<&Design> = entries.iter().map(|e| &e.design).collect();
    let paths = CircuitPathDataset::build(
        &design_refs,
        &config.sample,
        &config.augment,
        &config.synth.library,
    );
    assert!(!paths.is_empty(), "path sampling produced no paths");

    // ---- Circuitformer (§3.3) ----
    let path_scaler = LabelScaler::fit(
        &paths.examples.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
    );
    let examples: Vec<(Vec<usize>, [f32; 3])> = paths
        .examples
        .iter()
        .map(|(ids, l)| (ids.clone(), path_scaler.transform(*l)))
        .collect();
    let (mut train_idx, val_idx) = paths.train_val_split(config.val_frac, config.seed);
    // Cap the regressor's training set (the full set still fits the
    // scaler and the aggregation features).
    if train_idx.len() > config.cf_path_cap {
        use sns_rt::rng::SliceRandom as _;
        let mut cap_rng = StdRng::seed_from_u64(config.seed ^ 0xCAF);
        train_idx.shuffle(&mut cap_rng);
        train_idx.truncate(config.cf_path_cap);
    }
    let train_set: Vec<_> = train_idx.iter().map(|&i| examples[i].clone()).collect();
    let val_set: Vec<_> = val_idx.iter().map(|&i| examples[i].clone()).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut circuitformer = Circuitformer::new(config.circuitformer.clone(), &mut rng);
    let cf_history = cf_train(&mut circuitformer, &train_set, &val_set, &config.cf_train);

    // ---- Aggregation MLPs (§3.4) ----
    let design_labels: Vec<[f64; 3]> = entries
        .iter()
        .map(|e| [e.report.timing_ps, e.report.area_um2, e.report.power_mw])
        .collect();
    let design_scaler = LabelScaler::fit(&design_labels);
    // Correction-ratio scaler is fitted below once aggregates exist; start
    // with a placeholder fitted on unit ratios.
    let corr_scaler = LabelScaler::fit(&[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]);
    let mlps = [
        AggMlp::new(5 + vocab.len(), config.seed ^ 1),
        AggMlp::new(5 + vocab.len(), config.seed ^ 2),
        AggMlp::new(5 + vocab.len(), config.seed ^ 3),
    ];
    let mut model = SnsModel {
        circuitformer,
        path_scaler,
        design_scaler,
        corr_scaler,
        mlps,
        sample: config.sample.clone(),
        vocab,
        cache: PathPredictionCache::new(),
    };

    // Per-design features from the trained Circuitformer (which also
    // primes the model's shared path cache for later inference).
    let mlp_curves =
        fit_correction(&mut model, entries, &config.mlp_train).unwrap_or_else(|e| panic!("{e}"));

    let report = TrainReport {
        path_dataset_size: paths.len(),
        direct_paths: paths.direct_count,
        markov_paths: paths.markov_count,
        seqgan_paths: paths.seqgan_count,
        cf_history,
        mlp_curves,
        design_count: entries.len(),
    };
    (model, report)
}

/// Hyperparameters for online fine-tuning ([`FineTuner`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FineTuneConfig {
    /// Adam learning rate (lower than from-scratch training: the daemon
    /// nudges an already-converged model, it does not retrain it).
    pub lr: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip: f32,
    /// Fixed gradient-accumulation chunk size. Examples are split into
    /// chunks of exactly this many (last chunk ragged), each chunk's
    /// gradients accumulated serially, and chunks merged in index order —
    /// so the summed gradient is a pure function of the example sequence,
    /// **independent of the worker thread count**. (The batch trainer's
    /// chunking depends on `threads`, which is fine at its 1e-4 tolerance
    /// but not for the daemon's bit-identical determinism contract.)
    pub grad_chunk: usize,
}

impl FineTuneConfig {
    /// The label-factory daemon's default schedule.
    pub fn daemon() -> Self {
        FineTuneConfig { lr: 3e-4, clip: 1.0, grad_chunk: 8 }
    }
}

/// Online fine-tuner for a trained [`SnsModel`]'s Circuitformer.
///
/// Owns the Adam state so moment estimates persist across
/// [`step`](Self::step) calls — the daemon's training loop is one long
/// optimization, checkpointed mid-flight into the zoo. Each step
/// consumes raw *physical* path labels (ps / µm² / mW straight from
/// vsynth), normalizes them through the model's own label scaler,
/// takes one clipped Adam step, re-packs the inference kernels and
/// clears the prediction cache (the weights changed; serving stale
/// cached predictions is exactly what the weight-hash cache keying
/// exists to prevent).
#[derive(Debug)]
pub struct FineTuner {
    config: FineTuneConfig,
    opt: sns_nn::Adam,
    steps: u64,
}

impl FineTuner {
    /// Creates a fine-tuner with fresh optimizer state.
    pub fn new(config: FineTuneConfig) -> Self {
        let lr = config.lr;
        FineTuner { config, opt: sns_nn::Adam::new(lr), steps: 0 }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Takes one fine-tune step on `examples` (token sequence, physical
    /// label) and returns the mean normalized MSE over the batch. An
    /// empty batch is a no-op returning 0.0 — the daemon's loop never
    /// stalls on an all-filtered batch.
    ///
    /// Bit-identical at any `threads` ≥ 1 (see [`FineTuneConfig::grad_chunk`]).
    pub fn step(
        &mut self,
        model: &mut SnsModel,
        examples: &[(Vec<usize>, [f64; 3])],
        threads: usize,
    ) -> f32 {
        if examples.is_empty() {
            return 0.0;
        }
        let normalized: Vec<(Vec<usize>, [f32; 3])> = examples
            .iter()
            .map(|(tokens, label)| (tokens.clone(), model.path_scaler.transform(*label)))
            .collect();
        let chunk = self.config.grad_chunk.max(1);
        let chunks: Vec<&[(Vec<usize>, [f32; 3])]> = normalized.chunks(chunk).collect();
        let cf = &model.circuitformer;
        let partials = sns_rt::pool::par_map(&chunks, threads.max(1), |part| {
            let mut grads = sns_nn::Grads::new(cf.registry());
            let mut loss_sum = 0.0f32;
            for (tokens, target) in part.iter() {
                let (out, ctx) = cf.forward(tokens);
                let pred = sns_nn::Mat::from_rows(&[&out]);
                let tgt = sns_nn::Mat::from_rows(&[&target[..]]);
                let (l, dl) = sns_nn::mse_loss(&pred, &tgt);
                loss_sum += l;
                cf.backward(&ctx, [dl.get(0, 0), dl.get(0, 1), dl.get(0, 2)], &mut grads);
            }
            (grads, loss_sum)
        });
        let mut iter = partials.into_iter();
        let (mut grads, mut loss) = match iter.next() {
            Some(first) => first,
            None => return 0.0,
        };
        for (g, l) in iter {
            grads.merge(&g);
            loss += l;
        }
        grads.scale(1.0 / normalized.len() as f32);
        if self.config.clip > 0.0 {
            grads.clip_global_norm(self.config.clip);
        }
        use sns_nn::Optimizer as _;
        // The visit re-packs the inference plan; the weights changed, so
        // every cached path prediction goes too.
        self.opt.step_visit(&grads, |f| model.circuitformer.visit_mut(f));
        model.clear_cache();
        self.steps += 1;
        loss / normalized.len() as f32
    }
}

/// One labeled design as a correction refit reads it: the vsynth report
/// next to the products of its front-end (parse → elaborate → GraphIR →
/// sample → tokenize → stats). None of these depends on the model's
/// weights, so a caller that refits again and again over the same designs
/// (the label-factory daemon's replay buffer) builds them once, at
/// labeling time, and [`refit_correction_on`] redoes only the
/// weight-dependent work: inference, reduction and the MLP fits.
#[derive(Debug, Clone)]
pub struct RefitDesign {
    /// The design's (ground-truth) synthesis report.
    pub report: SynthReport,
    /// The sampled paths' token sequences, in path order.
    pub seqs: Vec<Vec<usize>>,
    /// The design's graph statistics (Figure 2(c)).
    pub stats: GraphStats,
}

impl RefitDesign {
    /// Keeps the products of an already built front-end: `paths` sampled
    /// from `graph` under the model's [`SampleConfig`], tokenized with
    /// `vocab` exactly as [`SnsModel::tokenize_paths`] does.
    pub fn new(report: SynthReport, graph: &GraphIr, paths: &[CircuitPath], vocab: &Vocab) -> Self {
        RefitDesign {
            report,
            seqs: paths.iter().map(|p| p.token_ids(graph, vocab)).collect(),
            stats: graph.stats(vocab),
        }
    }
}

/// Refits the correction-ratio scaler and the three Aggregation MLPs on
/// `entries` against the *current* Circuitformer — the tail of
/// [`train_sns_on_labeled`], split out so the fine-tune daemon can
/// periodically re-align the design-level correction after the path
/// regressor has drifted from its original training distribution.
///
/// Runs every design's front-end, then [`refit_correction_on`].
///
/// # Errors
///
/// Returns an error if `entries` is empty or a design fails to
/// elaborate; the model is left unchanged in either case.
pub fn refit_correction(
    model: &mut SnsModel,
    entries: &[&LabeledDesign],
    mlp_train: &MlpTrainConfig,
) -> Result<(), String> {
    fit_correction(model, entries, mlp_train).map(|_| ())
}

/// [`refit_correction`] over designs whose front-end already ran: one
/// cache prime over every unique sequence of `designs`, then the
/// reductions and the MLP fits. Bit-identical to [`refit_correction`] on
/// the same designs.
///
/// # Errors
///
/// Returns an error if `designs` is empty; the model is left unchanged.
pub fn refit_correction_on(
    model: &mut SnsModel,
    designs: &[RefitDesign],
    mlp_train: &MlpTrainConfig,
) -> Result<(), String> {
    fit_correction_on(model, designs, mlp_train).map(|_| ())
}

/// [`refit_correction`], returning the three MLPs' loss curves.
fn fit_correction(
    model: &mut SnsModel,
    entries: &[&LabeledDesign],
    mlp_train: &MlpTrainConfig,
) -> Result<[Vec<f32>; 3], String> {
    let sampler = PathSampler::new(model.sample_config().clone());
    let designs = entries
        .iter()
        .map(|e| {
            let nl = parse_and_elaborate(&e.design.verilog, &e.design.top)
                .map_err(|err| format!("design `{}`: {err}", e.design.name))?;
            let graph = GraphIr::from_netlist(&nl);
            Ok(RefitDesign::new(e.report.clone(), &graph, &sampler.sample(&graph), &model.vocab))
        })
        .collect::<Result<Vec<_>, String>>()?;
    fit_correction_on(model, &designs, mlp_train)
}

/// [`refit_correction_on`], returning the three MLPs' loss curves.
fn fit_correction_on(
    model: &mut SnsModel,
    designs: &[RefitDesign],
    mlp_train: &MlpTrainConfig,
) -> Result<[Vec<f32>; 3], String> {
    if designs.is_empty() {
        return Err("refit_correction: no labeled designs".into());
    }
    let mut seen: HashSet<&[usize]> = HashSet::new();
    let unique: Vec<Vec<usize>> = designs
        .iter()
        .flat_map(|d| &d.seqs)
        .filter(|s| seen.insert(s))
        .cloned()
        .collect();
    Inline::default().prime(model, &unique);
    // No activity map: every path's power counts in full, and the
    // critical path's names are not needed.
    let aggregates: Vec<[f64; 3]> = designs
        .iter()
        .map(|d| model.reduce(&d.seqs, d.seqs.iter().map(|_| (1.0, Vec::new))).0)
        .collect();
    let ratios: Vec<[f64; 3]> = designs
        .iter()
        .zip(&aggregates)
        .map(|(d, aggs)| {
            [
                d.report.timing_ps / aggs[0],
                d.report.area_um2 / aggs[1],
                d.report.power_mw / aggs[2],
            ]
        })
        .collect();
    model.corr_scaler = LabelScaler::fit(&ratios);
    let mut feature_sets: [Vec<(Vec<f32>, f32)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for ((d, aggs), ratio) in designs.iter().zip(&aggregates).zip(&ratios) {
        for dim in 0..3 {
            let f = model.features(dim, *aggs, d.seqs.len(), &d.stats);
            let target = model.corr_scaler.transform_dim(dim, ratio[dim]);
            feature_sets[dim].push((f, target));
        }
    }
    let mut curves: [Vec<f32>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for ((mlp, set), curve) in model.mlps.iter_mut().zip(&feature_sets).zip(&mut curves) {
        *curve = mlp.fit(set, mlp_train);
    }
    Ok(curves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_designs::{dsp, nonlinear, vector};

    fn tiny_config() -> SnsTrainConfig {
        let mut c = SnsTrainConfig::fast();
        c.circuitformer =
            CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 64, ..CircuitformerConfig::fast() };
        c.cf_train = TrainConfig { epochs: 4, batch_size: 32, threads: 2, ..TrainConfig::fast() };
        c.mlp_train = MlpTrainConfig { epochs: 50, ..MlpTrainConfig::fast() };
        c.augment = AugmentConfig::none();
        c.sample = SampleConfig::paper_default().with_max_paths(300);
        c
    }

    fn tiny_designs() -> Vec<Design> {
        vec![
            vector::simd_alu(2, 8),
            nonlinear::piecewise(4, 8),
            dsp::fir(4, 8),
            nonlinear::lut(16, 8),
        ]
    }

    #[test]
    fn end_to_end_training_produces_a_usable_model() {
        let designs = tiny_designs();
        let (model, report) = train_sns(&designs, &tiny_config());
        assert_eq!(report.design_count, 4);
        assert!(report.direct_paths > 0);
        assert_eq!(report.cf_history.epochs.len(), 4);
        // Predictions are positive, finite, and come with a critical path.
        let pred = model.predict_verilog(&designs[0].verilog, &designs[0].top).unwrap();
        assert!(pred.timing_ps.is_finite() && pred.timing_ps > 0.0);
        assert!(pred.area_um2.is_finite() && pred.area_um2 > 0.0);
        assert!(pred.power_mw.is_finite() && pred.power_mw > 0.0);
        assert!(pred.path_count > 0);
        assert!(!pred.critical_path.is_empty());
        assert!(pred.runtime.as_nanos() > 0);
    }

    #[test]
    fn training_loss_decreases() {
        let designs = tiny_designs();
        let (_, report) = train_sns(&designs, &tiny_config());
        let first = report.cf_history.epochs.first().unwrap().train_loss;
        let last = report.cf_history.epochs.last().unwrap().train_loss;
        assert!(last < first, "Circuitformer loss {first} -> {last}");
    }

    #[test]
    fn fine_tune_is_thread_count_invariant_and_reduces_loss() {
        let designs = tiny_designs();
        let (model, _) = train_sns(&designs[..2], &tiny_config());
        // Path examples from the held-out designs, labeled physically.
        let lib = sns_vsynth::CellLibrary::freepdk15();
        let mut cache = sns_vsynth::UnitCache::new();
        let vocab = Vocab::new();
        let mut examples: Vec<(Vec<usize>, [f64; 3])> = Vec::new();
        for d in &designs[2..] {
            let nl = parse_and_elaborate(&d.verilog, &d.top).unwrap();
            let graph = GraphIr::from_netlist(&nl);
            let paths = PathSampler::new(model.sample_config().clone()).sample(&graph);
            for toks in model.tokenize_paths(&graph, &paths) {
                let label = crate::dataset::label_path_tokens(&toks, &vocab, &lib, &mut cache);
                examples.push((toks, label));
            }
        }
        examples.truncate(40);
        assert!(examples.len() >= 8);

        // Identical steps at 1 and 4 threads produce bit-identical weights.
        let mut runs: Vec<(Vec<u32>, Vec<f32>)> = Vec::new();
        for threads in [1usize, 4] {
            let mut m = model.fork_replica();
            let mut tuner = FineTuner::new(FineTuneConfig::daemon());
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(tuner.step(&mut m, &examples, threads));
            }
            let mut bits = Vec::new();
            m.circuitformer().visit(&mut |p| {
                bits.extend(p.value.as_slice().iter().map(|v| v.to_bits()));
            });
            runs.push((bits, losses));
        }
        assert_eq!(runs[0].0, runs[1].0, "fine-tuned weights differ across thread counts");
        assert_eq!(runs[0].1, runs[1].1, "losses differ across thread counts");
        // Loss moves down over the three steps on this batch.
        let losses = &runs[0].1;
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "fine-tune loss {losses:?} did not decrease"
        );
    }

    #[test]
    fn fine_tune_empty_batch_is_a_no_op() {
        let designs = tiny_designs();
        let (model, _) = train_sns(&designs[..2], &tiny_config());
        let mut m = model.fork_replica();
        let before = crate::model_io::model_weight_hash(&m);
        let mut tuner = FineTuner::new(FineTuneConfig::daemon());
        assert_eq!(tuner.step(&mut m, &[], 4), 0.0);
        assert_eq!(tuner.steps(), 0);
        assert_eq!(crate::model_io::model_weight_hash(&m), before);
    }

    #[test]
    fn refit_correction_rejects_empty_and_accepts_labeled() {
        let designs = tiny_designs();
        let (mut model, _) = train_sns(&designs[..2], &tiny_config());
        assert!(refit_correction(&mut model, &[], &MlpTrainConfig::fast()).is_err());
        let labeled = HardwareDesignDataset::generate(&designs[..2], &SynthOptions::default());
        let refs: Vec<&LabeledDesign> = labeled.entries.iter().collect();
        let cfg = MlpTrainConfig { epochs: 10, ..MlpTrainConfig::fast() };
        refit_correction(&mut model, &refs, &cfg).unwrap();
        let pred = model.predict_verilog(&designs[0].verilog, &designs[0].top).unwrap();
        assert!(pred.timing_ps.is_finite() && pred.timing_ps > 0.0);
    }

    /// Refitting from front-end products built once (the daemon's way:
    /// from the graph and paths that fed the label) lands on the same
    /// weights as `refit_correction`'s own front-end, cold cache or warm.
    #[test]
    fn refit_from_stored_products_matches_refit_correction() {
        let designs = tiny_designs();
        let (model, _) = train_sns(&designs[..2], &tiny_config());
        let labeled = HardwareDesignDataset::generate(&designs, &SynthOptions::default());
        let refs: Vec<&LabeledDesign> = labeled.entries.iter().collect();
        let cfg = MlpTrainConfig { epochs: 20, ..MlpTrainConfig::fast() };
        let vocab = Vocab::new();
        let sampler = PathSampler::new(model.sample_config().clone());
        let stored: Vec<RefitDesign> = labeled
            .entries
            .iter()
            .map(|e| {
                let nl = parse_and_elaborate(&e.design.verilog, &e.design.top).unwrap();
                let graph = GraphIr::from_netlist(&nl);
                RefitDesign::new(e.report.clone(), &graph, &sampler.sample(&graph), &vocab)
            })
            .collect();

        let mut want = model.fork_replica();
        refit_correction(&mut want, &refs, &cfg).unwrap();
        let want_hash = crate::model_io::model_weight_hash(&want);
        assert_ne!(want_hash, crate::model_io::model_weight_hash(&model), "refit moved nothing");
        let warm = model.fork_replica();
        warm.prime_path_cache(&stored[0].seqs, 1, 4);
        for mut got in [model.fork_replica(), warm] {
            refit_correction_on(&mut got, &stored, &cfg).unwrap();
            assert_eq!(crate::model_io::model_weight_hash(&got), want_hash);
            let (a, b) = (
                got.predict_verilog(&designs[3].verilog, &designs[3].top).unwrap(),
                want.predict_verilog(&designs[3].verilog, &designs[3].top).unwrap(),
            );
            assert_eq!(
                [a.timing_ps, a.area_um2, a.power_mw].map(f64::to_bits),
                [b.timing_ps, b.area_um2, b.power_mw].map(f64::to_bits)
            );
        }
        assert!(refit_correction_on(&mut model.fork_replica(), &[], &cfg).is_err());
    }

    /// The documented error contract: a buffer holding one design that
    /// does not parse fails the refit and leaves the model as it was.
    #[test]
    fn failed_refit_leaves_the_model_unchanged() {
        let designs = tiny_designs();
        let (mut model, _) = train_sns(&designs[..2], &tiny_config());
        let mut labeled =
            HardwareDesignDataset::generate(&designs[..2], &SynthOptions::default()).entries;
        let mut broken = labeled[0].clone();
        broken.design.name = "broken".into();
        broken.design.verilog = "module broken (input a; endmodule".into();
        labeled.insert(1, broken);
        let refs: Vec<&LabeledDesign> = labeled.iter().collect();
        let before_hash = crate::model_io::model_weight_hash(&model);
        let before = model.predict_verilog(&designs[3].verilog, &designs[3].top).unwrap();
        let cfg = MlpTrainConfig { epochs: 10, ..MlpTrainConfig::fast() };
        let err = refit_correction(&mut model, &refs, &cfg).unwrap_err();
        assert!(err.contains("broken"), "{err}");
        assert_eq!(crate::model_io::model_weight_hash(&model), before_hash);
        model.clear_cache();
        let after = model.predict_verilog(&designs[3].verilog, &designs[3].top).unwrap();
        assert_eq!(
            [after.timing_ps, after.area_um2, after.power_mw].map(f64::to_bits),
            [before.timing_ps, before.area_um2, before.power_mw].map(f64::to_bits)
        );
    }

    #[test]
    fn activity_coefficients_reduce_aggregated_power() {
        let designs = tiny_designs();
        let (model, _) = train_sns(&designs, &tiny_config());
        let nl = parse_and_elaborate(&designs[2].verilog, &designs[2].top).unwrap();
        // All registers nearly idle.
        let mut act = std::collections::HashMap::new();
        for c in nl.cells() {
            if c.kind == sns_netlist::CellKind::Dff {
                act.insert(c.name.clone(), 0.01f32);
            }
        }
        let graph = sns_graphir::GraphIr::from_netlist(&nl);
        let paths = sns_sampler::PathSampler::new(model.sample_config().clone()).sample(&graph);
        let (base, _) = model.path_aggregates(&graph, &paths, None);
        let (gated, _) = model.path_aggregates(&graph, &paths, Some(&act));
        // §3.4.4: power scales with the coefficients; timing/area do not.
        assert!(gated[2] < base[2] * 0.6, "gated {} !<< base {}", gated[2], base[2]);
        assert_eq!(gated[0], base[0]);
        assert_eq!(gated[1], base[1]);
        // And the end-to-end prediction stays finite with activity given.
        // (Area may shift slightly: the MLPs see all three aggregates, and
        // activity changes the power aggregate.)
        let pred = model.predict_netlist(&nl, Some(&act));
        assert!(pred.power_mw.is_finite() && pred.power_mw > 0.0);
        let base_pred = model.predict_netlist(&nl, None);
        let rel = (pred.area_um2 - base_pred.area_um2).abs() / base_pred.area_um2;
        assert!(rel < 0.5, "area shifted {rel:.2}x under power gating");
    }
}
