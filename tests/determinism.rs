//! Scheduling determinism: the parallel path-inference stage must give
//! bit-identical predictions at any thread count × batch size (the
//! `SNS_THREADS` × `SNS_BATCH` knobs, passed here explicitly as the
//! pipeline's `Inline { threads, batch }` hooks). Only pure Circuitformer
//! calls run in parallel, the packed batched forward is per-path exact
//! (row-wise layers + per-span attention), and the aggregation reduction
//! stays serial in path order — so neither the thread count nor the batch
//! size may change a single output bit.

use std::sync::OnceLock;
use std::time::Instant;

use sns::circuitformer::{CircuitformerConfig, TrainConfig};
use sns::core::aggmlp::MlpTrainConfig;
use sns::core::dataset::AugmentConfig;
use sns::core::{train_sns, DesignPrediction, Inline, Input, Output, SnsModel, SnsTrainConfig};
use sns::designs::{nonlinear, vector, Design};
use sns::graphir::GraphIr;
use sns::netlist::parse_and_elaborate;
use sns::sampler::{PathSampler, SampleConfig};

fn designs() -> Vec<Design> {
    vec![vector::simd_alu(2, 8), nonlinear::piecewise(4, 8)]
}

/// One tiny model for both tests; each test predicts on its own
/// [`SnsModel::fork_replica`] so their cache clears stay independent.
fn model() -> &'static SnsModel {
    static MODEL: OnceLock<SnsModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut cfg = SnsTrainConfig::fast();
        cfg.circuitformer = CircuitformerConfig {
            dim: 32,
            ffn_dim: 64,
            max_len: 64,
            ..CircuitformerConfig::fast()
        };
        cfg.cf_train = TrainConfig { epochs: 2, batch_size: 32, threads: 1, ..TrainConfig::fast() };
        cfg.mlp_train = MlpTrainConfig { epochs: 20, ..MlpTrainConfig::fast() };
        cfg.augment = AugmentConfig::none();
        cfg.sample = SampleConfig::paper_default().with_max_paths(300);
        train_sns(&designs(), &cfg).0
    })
}

/// Everything except the wall-clock runtime must match exactly (not
/// approximately).
fn assert_identical(base: &DesignPrediction, pred: &DesignPrediction, tag: &str) {
    assert_eq!(base.timing_ps, pred.timing_ps, "{tag}");
    assert_eq!(base.area_um2, pred.area_um2, "{tag}");
    assert_eq!(base.power_mw, pred.power_mw, "{tag}");
    assert_eq!(base.path_count, pred.path_count, "{tag}");
    assert_eq!(base.critical_path, pred.critical_path, "{tag}");
}

#[test]
fn predictions_are_identical_across_thread_counts_and_batch_sizes() {
    let model = model().fork_replica();
    let d = &designs()[0];
    let input = Input::Flat { verilog: &d.verilog, top: &d.top, activity: None };
    let mut baseline = None;
    for threads in [1, 2, 8] {
        for batch in [1, 4, 32] {
            // Start cold each time so the batched fan-out actually runs.
            model.clear_cache();
            let Ok(Output::Flat(pred)) =
                model.predict_with(input, &Inline { threads, batch }, Instant::now())
            else {
                panic!("flat input must give a flat prediction");
            };
            assert!(!model.cache().is_empty(), "priming should fill the cache");
            match &baseline {
                None => baseline = Some(pred),
                Some(base) => assert_identical(base, &pred, &format!("threads={threads} batch={batch}")),
            }
        }
    }
    let base = baseline.unwrap();
    // The one-call route at the process's resolved knobs, cold and then
    // warm (no recompute), must give the same answer.
    model.clear_cache();
    for _ in 0..2 {
        let pred = model.predict_verilog(&d.verilog, &d.top).unwrap();
        assert_identical(&base, &pred, "predict_verilog");
    }
}

/// The staged public calls — sample, `tokenize_paths`,
/// `prime_path_cache`, `predict_primed` — reproduce `predict_netlist`
/// exactly, so tools that time the stages from outside measure the real
/// prediction.
#[test]
fn primed_reduction_matches_predict_netlist() {
    let model = model().fork_replica();
    let d = &designs()[1];
    let nl = parse_and_elaborate(&d.verilog, &d.top).unwrap();
    let graph = GraphIr::from_netlist(&nl);
    let paths = PathSampler::new(model.sample_config().clone()).sample(&graph);
    let seqs = model.tokenize_paths(&graph, &paths);
    model.prime_path_cache(&seqs, 2, 4);
    let primed = model.predict_primed(&graph, &paths, &seqs, None, Instant::now());
    model.clear_cache();
    assert_identical(&primed, &model.predict_netlist(&nl, None), "primed vs predict_netlist");
}
