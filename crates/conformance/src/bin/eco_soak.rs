//! ECO soak: the incremental oracle at scale, plus a catalog speedup
//! measurement.
//!
//! ```text
//! SNS_ECO_N=500 SNS_ECO_EDITS=4 cargo run --release -p sns-conformance --bin eco_soak
//! ```
//!
//! Part 1 runs oracle 5 over `SNS_ECO_N` seeded designs with
//! `SNS_ECO_EDITS` random module edits each: every step's incremental
//! re-prediction (`predict_patch` over a live session) must be
//! bit-identical to a from-scratch run of the merged source — tokens,
//! predictions, per-terminal path samples — and the incremental netlist
//! must equal the flat reference. Failures are shrunk, persisted under
//! `tests/corpus/pending/`, and fail the run.
//!
//! Part 2 measures the point of the whole exercise on a real catalog
//! design: a single-module edit to the `ariane_64` branch unit (the
//! frontend, ALU cluster, mul/div and commit units stay untouched)
//! re-predicted through a warm session versus from scratch on a cold
//! model. The timing model uses the paper's Table 2 Circuitformer
//! architecture (dim 128, FFN 2304) so that per-path inference — the
//! cost the warm path's caches avoid — carries its production weight;
//! the bit-identity soak of part 1 keeps the tiny fast model. Part 2
//! runs before the soak, on one inference thread, best of 15 trials per
//! side, so the ratio counts the work the warm path saves, not host
//! noise or idle cores. The run fails unless the warm path is at least
//! 5x faster.
//!
//! Writes `BENCH_incremental.json` at the repo root.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sns_circuitformer::{CircuitformerConfig, TrainConfig};
use sns_conformance::generator::{generate, GenConfig};
use sns_conformance::oracle::{IncrementalHarness, IncrementalStats, PredictorHarness};
use sns_conformance::{corpus, shrink};
use sns_core::aggmlp::MlpTrainConfig;
use sns_core::dataset::AugmentConfig;
use sns_core::{
    train_sns, Inline, Input, Output, PipelineError, SessionOutcome, SessionStore, SnsModel,
    SnsTrainConfig,
};
use sns_rt::env_knob;
use sns_rt::json::Json;
use sns_sampler::SampleConfig;

const EDIT_SEED_SALT: u64 = 0xEC0_5EED;
/// The acceptance floor for the catalog warm-vs-cold speedup.
const MIN_SPEEDUP: f64 = 5.0;

/// A model with the paper's Table 2 Circuitformer architecture (dim
/// 128, FFN 2304, ≈1.4 M parameters) on a minimal training schedule:
/// the warm-vs-cold measurement times the *pipeline*, not accuracy, but
/// per-path inference must cost what it costs in production — the tiny
/// dim-32 soak model makes inference nearly free and so hides exactly
/// the work the session caches save.
fn timing_model() -> Arc<SnsModel> {
    let mut c = SnsTrainConfig::fast();
    c.circuitformer = CircuitformerConfig::paper();
    c.cf_train = TrainConfig { epochs: 1, batch_size: 32, threads: 1, ..TrainConfig::fast() };
    c.mlp_train = MlpTrainConfig { epochs: 20, ..MlpTrainConfig::fast() };
    c.augment = AugmentConfig::none();
    c.sample = SampleConfig::paper_default();
    let train = vec![sns_designs::vector::simd_alu(2, 8), sns_designs::nonlinear::piecewise(4, 8)];
    Arc::new(train_sns(&train, &c).0)
}

/// A session-layer prediction on one inference thread: the cold run is
/// mostly parallel path inference, so more threads would time idle cores.
fn predict_serial(model: &SnsModel, input: Input<'_>) -> Result<SessionOutcome, String> {
    let hooks = Inline { threads: 1, ..Inline::default() };
    match model.predict_with(input, &hooks, Instant::now()) {
        Ok(Output::Session(outcome)) => Ok(outcome),
        Ok(Output::Flat(_)) => Err("a session input answered with a flat prediction".into()),
        Err(PipelineError::Rejected(e)) => Err(e.to_string()),
        Err(PipelineError::Stopped(never)) => match never {},
    }
}

/// Warm-vs-cold ECO timing on the catalog hierarchical Ariane-like
/// core: patch only the branch unit (tighten the taken-branch compare),
/// leaving the frontend, ALU cluster, mul/div and commit units — the
/// bulk of the design's cells and path inference — untouched. Because
/// every unit latches its own operands, the edit's sampling region is
/// confined to the branch module, so the warm pass re-predicts a
/// handful of short paths while the cold pass pays for the whole core.
fn catalog_eco(model: &Arc<SnsModel>) -> Result<(String, f64, f64), String> {
    let design = sns_designs::catalog()
        .into_iter()
        .find(|d| d.name == "ariane_64")
        .ok_or("catalog design ariane_64 not found")?;
    let marker = "    wire take = (br_op == 7'd11) && (br_a >= br_b);";
    if !design.verilog.contains(marker) {
        return Err("ariane branch unit no longer has the expected compare line".into());
    }
    let edited = design
        .verilog
        .replace(marker, "    wire take = (br_op == 7'd11) && (br_a > br_b);");

    // Min over independent trials: single-shot millisecond timings are
    // dominated by scheduler noise on a small box. Every trial starts
    // from a fresh model clone with an empty path cache, so each warm
    // number is a true first-patch against a just-registered base and
    // each cold number a true from-scratch run.
    const TRIALS: usize = 15;
    let (mut warm_seconds, mut cold_seconds) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..TRIALS {
        let warm_model = (**model).clone();
        warm_model.clear_cache();
        let store = SessionStore::default();
        let input = Input::Session { store: &store, verilog: &design.verilog, top: &design.top };
        let base = predict_serial(&warm_model, input)
            .map_err(|e| format!("base catalog prediction failed: {e}"))?;

        let t_warm = Instant::now();
        let input = Input::Patch { store: &store, base: &base.token, patch: &edited };
        let warm = predict_serial(&warm_model, input)
            .map_err(|e| format!("catalog patch prediction failed: {e}"))?;
        warm_seconds = warm_seconds.min(t_warm.elapsed().as_secs_f64());
        // A branch-unit edit invalidates that unit plus (transitively)
        // the top that instantiates it — and nothing else.
        if warm.reelaborated != vec!["ar_branch64".to_string(), design.top.clone()] {
            return Err(format!(
                "a branch-unit edit should re-elaborate only the branch unit and the top, \
                 got {:?}",
                warm.reelaborated
            ));
        }

        let cold_model = (**model).clone();
        cold_model.clear_cache();
        let t_cold = Instant::now();
        let input =
            Input::Session { store: &SessionStore::default(), verilog: &edited, top: &design.top };
        let cold = predict_serial(&cold_model, input)
            .map_err(|e| format!("cold catalog prediction failed: {e}"))?;
        cold_seconds = cold_seconds.min(t_cold.elapsed().as_secs_f64());

        if warm.token != cold.token {
            return Err(format!("warm/cold tokens diverge: {} vs {}", warm.token, cold.token));
        }
        let (w, c) = (&warm.prediction, &cold.prediction);
        if w.timing_ps.to_bits() != c.timing_ps.to_bits()
            || w.area_um2.to_bits() != c.area_um2.to_bits()
            || w.power_mw.to_bits() != c.power_mw.to_bits()
            || w.path_count != c.path_count
            || w.critical_path != c.critical_path
        {
            return Err("warm/cold catalog predictions diverge".into());
        }
    }
    Ok((design.name, warm_seconds, cold_seconds))
}

fn main() {
    let n = env_knob::<u64>("SNS_ECO_N").unwrap_or(500) as usize;
    let k = env_knob::<u64>("SNS_ECO_EDITS").unwrap_or(4) as usize;
    let seed0 = env_knob::<u64>("SNS_ECO_SEED").unwrap_or(1);
    let cfg = GenConfig::default();

    // Part 2 first, so the timing does not see the soak's heap.
    let mut failures = 0usize;
    eprintln!("training the paper-architecture timing model...");
    let t_timing = Instant::now();
    let eco_model = timing_model();
    let timing_model_train_seconds = t_timing.elapsed().as_secs_f64();
    eprintln!("timing model trained in {timing_model_train_seconds:.1}s");

    let (eco_design, warm_seconds, cold_seconds) = match catalog_eco(&eco_model) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL [catalog_eco]: {e}");
            failures += 1;
            ("ariane_64".into(), f64::NAN, f64::NAN)
        }
    };
    let speedup = cold_seconds / warm_seconds.max(1e-12);
    eprintln!(
        "catalog ECO on {eco_design}: warm {warm_seconds:.4}s, cold {cold_seconds:.4}s \
         ({speedup:.1}x)"
    );

    eprintln!("eco soak: {n} designs x {k} edits, seeds {seed0}..{}", seed0 + n as u64);
    let t_train = Instant::now();
    let harness = PredictorHarness::train();
    let inc = IncrementalHarness::from_model(Arc::clone(harness.model()));
    let train_seconds = t_train.elapsed().as_secs_f64();
    eprintln!("model trained in {train_seconds:.1}s");

    let mut totals = IncrementalStats::default();
    let t0 = Instant::now();
    for i in 0..n {
        let seed = seed0 + i as u64;
        let spec = generate(seed, &cfg);
        let edit_seed = seed ^ EDIT_SEED_SALT;
        match inc.check(&spec, edit_seed, k) {
            Ok(stats) => {
                totals.edits += stats.edits;
                totals.reelaborated_modules += stats.reelaborated_modules;
                totals.design_modules += stats.design_modules;
                totals.reused_terminals += stats.reused_terminals;
                totals.resampled_terminals += stats.resampled_terminals;
            }
            Err(detail) => {
                failures += 1;
                eprintln!("FAIL [incremental] seed {seed}: {detail}");
                let min = shrink(&spec, &mut |s| inc.check(s, edit_seed, k).is_err(), 200);
                match corpus::write_pending(&min, &format!("incremental_{seed}")) {
                    Ok(path) => eprintln!("  minimized reproducer: {}", path.display()),
                    Err(e) => eprintln!("  could not persist reproducer: {e}"),
                }
            }
        }
        if (i + 1) % 100 == 0 {
            eprintln!(
                "  {}/{n} designs, {:.1} edits/s",
                i + 1,
                totals.edits as f64 / t0.elapsed().as_secs_f64()
            );
        }
    }
    let seconds = t0.elapsed().as_secs_f64();

    let reelab_fraction =
        totals.reelaborated_modules as f64 / (totals.design_modules as f64).max(1.0);
    let report = Json::obj(vec![
        ("bench", Json::Str("eco_soak".into())),
        ("designs", Json::Num(n as f64)),
        ("edits_per_design", Json::Num(k as f64)),
        ("seed0", Json::Num(seed0 as f64)),
        ("seconds", Json::Num(seconds)),
        ("edits_per_sec", Json::Num(totals.edits as f64 / seconds.max(1e-9))),
        ("train_seconds", Json::Num(train_seconds)),
        ("failures", Json::Num(failures as f64)),
        ("reelab_fraction", Json::Num(reelab_fraction)),
        ("reused_terminals", Json::Num(totals.reused_terminals as f64)),
        ("resampled_terminals", Json::Num(totals.resampled_terminals as f64)),
        (
            "catalog_eco",
            Json::obj(vec![
                ("design", Json::Str(eco_design)),
                ("timing_model_train_seconds", Json::Num(timing_model_train_seconds)),
                ("warm_seconds", Json::Num(warm_seconds)),
                ("cold_seconds", Json::Num(cold_seconds)),
                ("speedup", Json::Num(speedup)),
                ("min_speedup", Json::Num(MIN_SPEEDUP)),
            ]),
        ),
    ]);
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_incremental.json");
    match std::fs::write(&out, report.pretty() + "\n") {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    println!("{}", report.print());
    if failures > 0 {
        eprintln!("{failures} incremental failure(s)");
        std::process::exit(1);
    }
    if speedup < MIN_SPEEDUP || speedup.is_nan() {
        eprintln!("catalog ECO speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor");
        std::process::exit(1);
    }
}
