//! `ladder`: the direct-call route over the Fig. 7 design ladder.
//!
//! Every op is `SnsModel::predict_verilog` (parse → GraphIR → sample →
//! Circuitformer → aggregate) on one ladder design with the path cache
//! cleared first, so every pass does identical work and each design is
//! a new design-space point. The seed only orders the designs within a
//! pass.

use std::time::Instant;

use sns_core::{load_from_zoo, model_weight_hash, DesignPrediction, SnsModel};
use sns_designs::{misc, mlaccel, Design};
use sns_rt::rng::{SliceRandom, StdRng};
use sns_vsynth::{SynthOptions, VirtualSynthesizer};

use crate::measure::{chase_ns, mean, median, ms_since, same_prediction, Fnv};
use crate::stages::{self, Staged};
use crate::{fixture, Ctx, Outcome, SETUP_REPEATS};

/// Wall seconds one pass over the ladder takes on the reference host
/// (2 vCPU); `--seconds` is turned into a fixed pass count with it.
const PASS_SECONDS: f64 = 1.65;

/// The Fig. 7 ladder: the 41-design catalog plus the paper's large
/// highlights.
pub fn designs() -> Vec<Design> {
    let mut d = sns_designs::catalog();
    d.push(mlaccel::systolic_array(12, 16));
    d.push(misc::stencil2d(8, 32));
    d.push(misc::stencil2d(16, 32));
    d
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: loading the pinned model until it can serve its first op.
    let mut model = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (m, _) = load_from_zoo(&ctx.zoo, Some(fixture::MODEL_ID))
            .map_err(|e| format!("load_from_zoo: {e}"))?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        model = Some(m);
    }
    let model = model.ok_or("no set-up repeat ran")?;

    // Untimed warm-up: the reference prediction of every design.
    let designs = designs();
    let mut reference: Vec<DesignPrediction> = Vec::with_capacity(designs.len());
    for d in &designs {
        model.clear_cache();
        let p = model
            .predict_verilog(&d.verilog, &d.top)
            .map_err(|e| format!("{}: {e}", d.name))?;
        reference.push(p);
    }
    let mut digest = Fnv::new();
    for (d, p) in designs.iter().zip(&reference) {
        digest.str(&d.name);
        digest.prediction(p);
    }
    digest.str(&model_weight_hash(&model));
    out.digest = digest.hex();

    let passes = ((ctx.seconds as f64 / PASS_SECONDS).round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let orders: Vec<Vec<usize>> = (0..passes)
        .map(|_| {
            let mut order: Vec<usize> = (0..designs.len()).collect();
            order.shuffle(&mut rng);
            order
        })
        .collect();

    out.chase_ns = chase_ns();
    let start = Instant::now();
    for order in &orders {
        for &i in order {
            let d = &designs[i];
            model.clear_cache();
            let t = Instant::now();
            let p = model.predict_verilog(&d.verilog, &d.top);
            let ms = ms_since(t);
            out.latencies_ms.push(ms);
            let ok = matches!(&p, Ok(p) if same_prediction(p, &reference[i]));
            out.check(ok, || {
                format!("ladder {}: prediction differs from warm-up", d.name)
            });
        }
    }
    out.timed_s = start.elapsed().as_secs_f64();

    if ctx.trace {
        trace(ctx, &model, &designs, &reference, &orders[0], &mut out)?;
    }
    Ok(out)
}

/// The traced pass: every design once more as a plain `predict_verilog`
/// (the untraced run, timed right next to its traced twin so host drift
/// cancels) and through the staged functions, plus its Fig. 7 row
/// against the virtual synthesizer.
fn trace(
    ctx: &Ctx,
    model: &SnsModel,
    designs: &[Design],
    reference: &[DesignPrediction],
    order: &[usize],
    out: &mut Outcome,
) -> Result<(), String> {
    let k = ctx.knobs;
    let mut untraced = 0.0;
    let mut staged: Vec<Staged> = Vec::with_capacity(order.len());
    for (n, &i) in order.iter().enumerate() {
        let d = &designs[i];
        // Alternate which twin runs first, so neither always finds the
        // design's data warm in the CPU caches.
        for twin in [n % 2, 1 - n % 2] {
            model.clear_cache();
            if twin == 0 {
                let t = Instant::now();
                model
                    .predict_verilog(&d.verilog, &d.top)
                    .map_err(|e| format!("{}: {e}", d.name))?;
                untraced += ms_since(t);
            } else {
                let (p, s) = stages::predict(model, &d.verilog, &d.top, k.threads, k.batch)?;
                out.check(same_prediction(&p, &reference[i]), || {
                    format!(
                        "ladder {}: staged predict_primed differs from predict_netlist",
                        d.name
                    )
                });
                staged.push(s);
            }
        }
    }
    stages::record(&staged, &mut out.layers);
    let sum = |f: fn(&Staged) -> f64| staged.iter().map(f).sum::<f64>();
    let l = &mut out.layers;
    l.insert(
        "ladder.stage_sum_gap",
        sum(|s| s.stage_sum_ms()) / untraced - 1.0,
    );
    l.insert("trace.overhead_frac", sum(|s| s.wall_ms) / untraced - 1.0);

    // Fig. 7 rows: vsynth at the figure's `sizing_iterations: 50`.
    let synth = VirtualSynthesizer::new(SynthOptions {
        sizing_iterations: 50,
        ..SynthOptions::default()
    });
    println!(
        "# fig7 {:<24} {:>8} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "design", "gates", "paths", "unique", "parse", "graphir", "sample", "tokenize", "infer",
        "reduce", "v.elab", "v.sta", "v.sizing", "v.power", "speedup"
    );
    let mut speedups = Vec::with_capacity(staged.len());
    let (mut elab, mut sta, mut sizing, mut power, mut gates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (&i, s) in order.iter().zip(&staged) {
        let d = &designs[i];
        let nl = sns_netlist::parse_and_elaborate(&d.verilog, &d.top)
            .map_err(|e| format!("{}: {e}", d.name))?;
        let t = Instant::now();
        let gl = synth.elaborate_gates(&nl);
        let elab_ms = ms_since(t);
        let (report, bd) = synth.analyze_with_breakdown(&gl, true);
        let v = [elab_ms, bd.sta_s * 1e3, bd.sizing_s * 1e3, bd.power_s * 1e3];
        let speedup = v.iter().sum::<f64>() / s.stage_sum_ms();
        println!(
            "# fig7 {:<24} {:>8} {:>7} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>7.2}x",
            d.name, report.gate_count, s.paths, s.unique, s.parse_ms, s.graphir_ms, s.sample_ms,
            s.tokenize_ms, s.infer_ms, s.reduce_ms, v[0], v[1], v[2], v[3], speedup
        );
        speedups.push(speedup);
        elab.push(v[0]);
        sta.push(v[1]);
        sizing.push(v[2]);
        power.push(v[3]);
        gates.push(report.gate_count as f64);
    }
    let l = &mut out.layers;
    l.insert("vsynth.elaborate_ms", mean(&elab));
    l.insert("vsynth.sta_ms", mean(&sta));
    l.insert("vsynth.sizing_ms", mean(&sizing));
    l.insert("vsynth.power_ms", mean(&power));
    l.insert("vsynth.gates", mean(&gates));
    l.insert("fig7.speedup_median", median(&speedups));
    l.insert(
        "fig7.sns_faster",
        speedups.iter().filter(|&&x| x > 1.0).count() as f64,
    );
    Ok(())
}
