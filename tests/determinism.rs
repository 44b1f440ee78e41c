//! Scheduling determinism: the parallel path-inference stage must give
//! bit-identical predictions at any thread count × batch size (the
//! `SNS_THREADS` × `SNS_BATCH` knobs, passed here explicitly through
//! `prime_path_cache`). Only pure Circuitformer calls run in parallel,
//! the packed batched forward is per-path exact (row-wise layers +
//! per-span attention), and the aggregation reduction stays serial in
//! path order — so neither the thread count nor the batch size may change
//! a single output bit.

use std::time::Instant;

use sns::circuitformer::{CircuitformerConfig, TrainConfig};
use sns::core::aggmlp::MlpTrainConfig;
use sns::core::dataset::AugmentConfig;
use sns::core::{train_sns, SnsTrainConfig};
use sns::designs::{nonlinear, vector};
use sns::graphir::GraphIr;
use sns::netlist::parse_and_elaborate;
use sns::sampler::{PathSampler, SampleConfig};

#[test]
fn predictions_are_identical_across_thread_counts_and_batch_sizes() {
    let designs = vec![vector::simd_alu(2, 8), nonlinear::piecewise(4, 8)];
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
    let (model, _) = train_sns(&designs, &cfg);

    let nl = parse_and_elaborate(&designs[0].verilog, &designs[0].top).unwrap();
    let graph = GraphIr::from_netlist(&nl);
    let paths = PathSampler::new(model.sample_config().clone()).sample(&graph);
    let seqs = model.tokenize_paths(&graph, &paths);
    let mut baseline = None;
    for threads in [1, 2, 8] {
        for batch in [1, 4, 32] {
            // Start cold each time so the batched fan-out actually runs.
            model.clear_cache();
            model.prime_path_cache(&seqs, threads, batch);
            assert!(model.cached_paths() > 0, "priming should fill the cache");
            let pred = model.predict_primed(&graph, &paths, &seqs, None, Instant::now());
            match &baseline {
                None => baseline = Some(pred),
                Some(base) => {
                    // Everything except the wall-clock runtime must match
                    // exactly (not approximately).
                    assert_eq!(base.timing_ps, pred.timing_ps, "threads={threads} batch={batch}");
                    assert_eq!(base.area_um2, pred.area_um2, "threads={threads} batch={batch}");
                    assert_eq!(base.power_mw, pred.power_mw, "threads={threads} batch={batch}");
                    assert_eq!(base.path_count, pred.path_count, "threads={threads} batch={batch}");
                    assert_eq!(
                        base.critical_path, pred.critical_path,
                        "threads={threads} batch={batch}"
                    );
                }
            }
        }
    }
    let base = baseline.unwrap();
    // The one-call route at the process's resolved knobs, cold and then
    // warm (no recompute), must give the same answer.
    model.clear_cache();
    for pred in [model.predict_netlist(&nl, None), model.predict_netlist(&nl, None)] {
        assert_eq!(base.timing_ps, pred.timing_ps);
        assert_eq!(base.area_um2, pred.area_um2);
        assert_eq!(base.power_mw, pred.power_mw);
        assert_eq!(base.critical_path, pred.critical_path);
    }
}
