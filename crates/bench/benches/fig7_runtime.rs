//! **Figure 7** — SNS runtime vs. synthesizer runtime per design.
//!
//! The baseline is the virtual synthesizer at "DC effort" (a long
//! timing-closure loop); SNS is the trained model's full prediction flow
//! (parse → GraphIR → sample → Circuitformer → aggregate). The paper's
//! absolute 760× does not transfer — our baseline is orders of magnitude
//! faster than Synopsys DC — so the bench reports the median speedup
//! next to the mean, how many designs SNS wins, and each design's row
//! (name, gates, both runtimes) in `BENCH_runtime.json`. See
//! EXPERIMENTS.md.

use std::collections::HashSet;
use std::time::Instant;

use sns_bench::{headline, standard_model, write_csv, write_root_json};
use sns_rt::json::Json;
use sns_designs::{misc, mlaccel, nonlinear, Design};
use sns_graphir::GraphIr;
use sns_netlist::parse_and_elaborate;
use sns_sampler::{PathSampler, SampleConfig};
use sns_vsynth::{SynthOptions, VirtualSynthesizer};

fn dc_effort() -> SynthOptions {
    SynthOptions { sizing_iterations: 50, ..SynthOptions::default() }
}

fn main() {
    headline("Figure 7: SNS runtime vs synthesizer runtime");
    // SNS's side of every row depends on the kernels' ISA level.
    let host = sns_nn::Isa::host();
    let isa = format!("{}+{}", host.name(), host.int_name());
    println!("  kernel ISA levels: {isa}");
    let (model, dataset) = standard_model();

    // The paper highlights: a small lookup table, an in-order core, and a
    // large 16-core FP stencil accelerator. Use the catalog plus those
    // highlights (the large ones are extra, not in the training set).
    let mut designs: Vec<Design> = dataset.entries.iter().map(|e| e.design.clone()).collect();
    designs.push(mlaccel::systolic_array(12, 16));
    designs.push(misc::stencil2d(8, 32));
    designs.push(misc::stencil2d(16, 32));
    let highlights = [
        nonlinear::lut(128, 8).name,
        "sodor_32".to_string(),
        misc::stencil2d(16, 32).name,
    ];

    let synth = VirtualSynthesizer::new(dc_effort());
    println!(
        "\n{:<26} {:>10} {:>12} {:>12} {:>9}",
        "design", "gates", "synth ms", "sns ms", "speedup"
    );
    let mut rows = Vec::new();
    // (design, gates, synth ms, sns ms, speedup) per design.
    let mut sized: Vec<(String, u64, f64, f64, f64)> = Vec::new();
    for d in &designs {
        let nl = parse_and_elaborate(&d.verilog, &d.top).expect("catalog design");
        let report = synth.synthesize(&nl);
        // Every design starts from a cold path cache, so no design is
        // timed on sequences an earlier one already inferred.
        model.clear_cache();
        let t0 = Instant::now();
        let _pred = model.predict_netlist(&nl, None);
        let sns_ms = t0.elapsed().as_secs_f64() * 1e3;
        let synth_ms = report.runtime.as_secs_f64() * 1e3;
        let speedup = synth_ms / sns_ms;
        sized.push((d.name.clone(), report.gate_count, synth_ms, sns_ms, speedup));
        let mark = if highlights.contains(&d.name) { "  <-- paper highlight" } else { "" };
        println!(
            "{:<26} {:>10} {:>12.2} {:>12.2} {:>8.2}x{mark}",
            d.name, report.gate_count, synth_ms, sns_ms, speedup
        );
        rows.push(format!("{},{},{synth_ms},{sns_ms},{speedup}", d.name, report.gate_count));
    }
    let mut speedups: Vec<f64> = sized.iter().map(|r| r.4).collect();
    speedups.sort_by(f64::total_cmp);
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let mid = speedups.len() / 2;
    let median = if speedups.len().is_multiple_of(2) {
        0.5 * (speedups[mid - 1] + speedups[mid])
    } else {
        speedups[mid]
    };
    let sns_faster = speedups.iter().filter(|&&s| s > 1.0).count();
    println!(
        "\nspeedup: median {median:.2}x, mean {avg:.2}x; SNS faster on {sns_faster} of {} designs \
         (paper, vs Synopsys DC: 760x)",
        speedups.len()
    );

    // Shape check: speedup should grow with design size.
    sized.sort_by_key(|r| r.1);
    let third_mean = |rows: &[(String, u64, f64, f64, f64)]| {
        rows.iter().map(|r| r.4).sum::<f64>() / rows.len() as f64
    };
    let small_avg = third_mean(&sized[..sized.len() / 3]);
    let large_avg = third_mean(&sized[2 * sized.len() / 3..]);
    println!(
        "shape: mean speedup small third {small_avg:.2}x vs large third {large_avg:.2}x — {}",
        if large_avg > small_avg {
            "larger designs benefit more (matches the paper)"
        } else {
            "no size trend at this scale"
        }
    );
    write_csv("fig7_runtime.csv", "design,gates,synth_ms,sns_ms,speedup", &rows);

    // ---- Thread scaling of the parallel path-inference stage ----
    // Unique token sequences fan out across the `sns_rt::pool` workers
    // (the `SNS_THREADS` knob, passed explicitly here through
    // `prime_path_cache`); the reduction is serial, so results are
    // bit-identical at every thread count. The BOOM-like core is the
    // least regular design in the suite (>1k unique sequences), so it
    // exercises the fan-out rather than the cache.
    let d = sns_designs::boomlike::boom_like(&Default::default());
    let nl = parse_and_elaborate(&d.verilog, &d.top).expect("boom design");
    let graph = GraphIr::from_netlist(&nl);
    let paths =
        PathSampler::new(SampleConfig::paper_default().with_max_paths(30_000)).sample(&graph);
    let unique: HashSet<Vec<usize>> = paths
        .iter()
        .map(|p| p.token_ids(&graph, &sns_graphir::Vocab::new()))
        .collect();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "\nthread scaling on {}: {} paths, {} unique token sequences, {} core(s)",
        d.name,
        paths.len(),
        unique.len(),
        cores
    );
    if cores < 2 {
        println!("  (single-core machine: speedups are bounded at ~1x here;");
        println!("   the pool still runs and results stay bit-identical)");
    }
    // Cold-cache tokenize → prime → reduce → refine at explicit knobs:
    // the work `predict_netlist` does after sampling.
    let predict_at = |threads: usize, batch: usize| {
        model.clear_cache();
        let t0 = Instant::now();
        let seqs = model.tokenize_paths(&graph, &paths);
        model.prime_path_cache(&seqs, threads, batch);
        let pred = model.predict_primed(&graph, &paths, &seqs, None, t0);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ((pred.timing_ps, pred.area_um2, pred.power_mw, pred.critical_path), ms)
    };
    let batch = sns_rt::pool::default_batch();
    let mut scale_rows = Vec::new();
    let mut baseline_ms = 0.0f64;
    let mut baseline_pred = None;
    for threads in [1usize, 2, 4, 8] {
        let (pred, ms) = predict_at(threads, batch);
        match &baseline_pred {
            None => {
                baseline_ms = ms;
                baseline_pred = Some(pred);
            }
            Some(base) => assert_eq!(*base, pred, "thread count changed the prediction"),
        }
        println!(
            "  SNS_THREADS={threads}: {ms:>9.1} ms  ({:.2}x vs 1 thread)",
            baseline_ms / ms
        );
        scale_rows.push(format!("{threads},{ms},{}", baseline_ms / ms));
    }
    write_csv("fig7_thread_scaling.csv", "threads,path_aggregates_ms,speedup", &scale_rows);

    // ---- Batch scaling of the packed Circuitformer forward ----
    // `SNS_BATCH` controls how many same-length sequences share one packed
    // forward pass (one set of tall GEMMs instead of many short ones).
    // Predictions are bit-identical at every batch size — asserted below —
    // so batching is purely a throughput knob, even on one thread.
    println!("\nbatch scaling on {} (SNS_THREADS=1):", d.name);
    let mut batch_rows = Vec::new();
    let mut batch_json = Vec::new();
    let mut batch1_ms = 0.0f64;
    let mut batch_base = None;
    for batch in [1usize, 4, 32] {
        let (pred, ms) = predict_at(1, batch);
        match &batch_base {
            None => {
                batch1_ms = ms;
                batch_base = Some(pred);
            }
            Some(base) => assert_eq!(*base, pred, "batch size changed the prediction"),
        }
        let paths_per_s = unique.len() as f64 / (ms / 1e3);
        println!(
            "  SNS_BATCH={batch:<3}: {ms:>9.1} ms  {paths_per_s:>9.0} unique paths/s  ({:.2}x vs batch 1)",
            batch1_ms / ms
        );
        batch_rows.push(format!("{batch},{ms},{paths_per_s},{}", batch1_ms / ms));
        batch_json.push(Json::obj(vec![
            ("batch", Json::Int(batch as i64)),
            ("path_aggregates_ms", Json::Num(ms)),
            ("unique_paths_per_s", Json::Num(paths_per_s)),
            ("speedup_vs_batch1", Json::Num(batch1_ms / ms)),
        ]));
    }
    write_csv("fig7_batch_scaling.csv", "batch,path_aggregates_ms,paths_per_s,speedup", &batch_rows);

    let design_json: Vec<Json> = sized
        .iter()
        .map(|(name, gates, synth_ms, sns_ms, speedup)| {
            Json::obj(vec![
                ("design", Json::Str(name.clone())),
                ("gates", Json::UInt(*gates)),
                ("synth_ms", Json::Num(*synth_ms)),
                ("sns_ms", Json::Num(*sns_ms)),
                ("speedup_vs_synth", Json::Num(*speedup)),
            ])
        })
        .collect();
    write_root_json(
        "BENCH_runtime.json",
        &Json::obj(vec![
            ("suite", Json::Str("fig7_runtime".to_string())),
            ("isa", Json::Str(isa.clone())),
            ("designs", Json::Int(designs.len() as i64)),
            ("median_speedup_vs_synth", Json::Num(median)),
            ("avg_speedup_vs_synth", Json::Num(avg)),
            ("sns_faster", Json::Int(sns_faster as i64)),
            ("per_design", Json::Arr(design_json)),
            ("batch_scaling", Json::Arr(batch_json)),
        ]),
    );
}
