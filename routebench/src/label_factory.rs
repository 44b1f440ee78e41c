//! `label_factory`: the label-factory route.
//!
//! Every op is one `TrainDaemon::step` (mint → vsynth-label → predict →
//! filter → fine-tune, plus a correction refit every `refit_every`th
//! step) on `DaemonConfig::fast()`. A run drives [`DAEMONS`] daemons,
//! the first seeded with the benchmark's seed and the others with seeds
//! derived from it, stepping them in turn: one daemon's cost follows the
//! sizes of the designs its seed mints, and spreading a run over several
//! seeds keeps that from moving the run's medians (see `README.md`).
//! Each daemon takes a whole number of refit periods, so refit steps are
//! a fixed share of the ops.

use std::time::Instant;

use sns_conformance::generator::generate;
use sns_core::dataset::LabeledDesign;
use sns_core::{model_weight_hash, refit_correction, DesignPrediction};
use sns_train::{DaemonConfig, StepStats, TrainDaemon};
use sns_vsynth::{scale_area, scale_delay, scale_power, SynthReport, TechNode, VirtualSynthesizer};

use crate::measure::{chase_ns, mean, median, ms_since, Fnv};
use crate::{Ctx, Outcome, SETUP_REPEATS};

/// Daemons per run; constructing each is one set-up repeat.
const DAEMONS: usize = SETUP_REPEATS;
/// Wall seconds one step takes on the reference host, on average over
/// a refit period.
const STEP_SECONDS: f64 = 0.085;
/// Steps the traced run re-enacts stage by stage.
const TRACE_STEPS: usize = 16;

fn config(seed: u64, daemon: usize) -> DaemonConfig {
    DaemonConfig {
        seed: seed.wrapping_add((daemon as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
        ..DaemonConfig::fast()
    }
}

/// The seed the daemon mints its `i`th design from.
fn design_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The daemon's disagreement score: mean relative error over timing,
/// area and power, denominators floored at 1e-9.
fn rel_err(p: &DesignPrediction, l: &SynthReport) -> f64 {
    let dims = [
        (p.timing_ps, l.timing_ps),
        (p.area_um2, l.area_um2),
        (p.power_mw, l.power_mw),
    ];
    dims.iter()
        .map(|(p, l)| (p - l).abs() / l.abs().max(1e-9))
        .sum::<f64>()
        / dims.len() as f64
}

fn check_step(out: &mut Outcome, cfg: &DaemonConfig, step: usize, s: &StepStats) {
    let n = cfg.designs_per_step;
    let want_selected = ((cfg.top_q * n as f64).ceil() as usize).clamp(1, n);
    let finite = s.per_design_rel_err.iter().all(|e| e.is_finite())
        && s.mean_rel_err.is_finite()
        && s.fine_tune_loss.is_finite();
    out.check(finite, || {
        format!("label_factory step {step}: non-finite error or loss")
    });
    out.check(s.designs == n && s.per_design_rel_err.len() == n, || {
        format!(
            "label_factory step {step}: {} designs labeled, {n} expected",
            s.designs
        )
    });
    out.check(s.selected == want_selected, || {
        format!(
            "label_factory step {step}: selected {} of {n}, expected {want_selected}",
            s.selected
        )
    });
    out.check(
        s.refit == (step + 1).is_multiple_of(cfg.refit_every),
        || format!("label_factory step {step}: refit flag out of period"),
    );
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let configs: Vec<DaemonConfig> = (0..DAEMONS).map(|d| config(ctx.seed, d)).collect();

    // Set-up: what a user pays before the first step — minting,
    // labeling and training the bootstrap model.
    let mut daemons = Vec::with_capacity(DAEMONS);
    for cfg in &configs {
        let t = Instant::now();
        daemons.push(TrainDaemon::new(cfg.clone())?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }

    let period = configs[0].refit_every.max(1);
    let per_daemon = (ctx.seconds as f64 / STEP_SECONDS / (DAEMONS * period) as f64)
        .round()
        .max(1.0) as usize
        * period;
    out.chase_ns = chase_ns();
    // Per daemon: (stats, latency ms) of every step.
    let mut steps: Vec<Vec<(StepStats, f64)>> = (0..DAEMONS)
        .map(|_| Vec::with_capacity(per_daemon))
        .collect();
    let start = Instant::now();
    for _ in 0..per_daemon {
        for (daemon, log) in daemons.iter_mut().zip(&mut steps) {
            let t = Instant::now();
            let s = daemon.step()?;
            let ms = ms_since(t);
            out.latencies_ms.push(ms);
            log.push((s, ms));
        }
    }
    out.timed_s = start.elapsed().as_secs_f64();

    let mut digest = Fnv::new();
    for ((cfg, daemon), log) in configs.iter().zip(&daemons).zip(&steps) {
        for (i, (s, _)) in log.iter().enumerate() {
            check_step(&mut out, cfg, i, s);
            for e in &s.per_design_rel_err {
                digest.u64(e.to_bits());
            }
            for x in [
                s.selected,
                s.direct_examples,
                s.markov_examples,
                usize::from(s.refit),
            ] {
                digest.u64(x as u64);
            }
            digest.u64(s.fine_tune_loss.to_bits() as u64);
        }
        digest.str(&model_weight_hash(daemon.model()));
    }
    out.digest = digest.hex();

    if ctx.trace {
        let all: Vec<&(StepStats, f64)> = steps.iter().flatten().collect();
        let split = |refit: bool| -> Vec<f64> {
            all.iter()
                .filter(|(s, _)| s.refit == refit)
                .map(|(_, ms)| *ms)
                .collect()
        };
        let per_step = |f: fn(&StepStats) -> usize| {
            all.iter().map(|(s, _)| f(s) as f64).sum::<f64>() / all.len() as f64
        };
        let designs = per_step(|s| s.designs);
        let l = &mut out.layers;
        l.insert("train.plain_step_ms", median(&split(false)));
        l.insert("train.refit_step_ms", median(&split(true)));
        l.insert("train.selected_frac", per_step(|s| s.selected) / designs);
        l.insert("train.direct_examples", per_step(|s| s.direct_examples));
        l.insert("train.markov_examples", per_step(|s| s.markov_examples));
        let traced = per_daemon.min(TRACE_STEPS);
        let untraced: f64 = steps[0].iter().take(traced).map(|(_, ms)| ms).sum();
        trace(&configs[0], untraced, traced, &mut out)?;
    }
    Ok(out)
}

/// Re-enacts the first steps on a fresh daemon: before each step, the
/// designs it is about to mint are generated, labeled and predicted
/// stage by stage (the step repeats that work itself), and after each
/// refit step the refit is repeated on a copy of the model over a mirror
/// of the daemon's replay buffer.
fn trace(
    cfg: &DaemonConfig,
    untraced_ms: f64,
    steps: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut daemon = TrainDaemon::new(cfg.clone())?;
    let synth = VirtualSynthesizer::new(cfg.bootstrap.synth.clone());
    let label = |counter: u64| -> Result<(LabeledDesign, [f64; 6], u64), String> {
        let t = Instant::now();
        let spec = generate(design_seed(cfg.seed, counter), &cfg.gen);
        let design = spec.to_design(format!("gen-{counter:06}"));
        let gen_ms = ms_since(t);
        let t = Instant::now();
        let nl = sns_netlist::parse_and_elaborate(&design.verilog, &design.top)
            .map_err(|e| format!("{}: {e}", design.name))?;
        let parse_ms = ms_since(t);
        let t = Instant::now();
        let gl = synth.elaborate_gates(&nl);
        let elab_ms = ms_since(t);
        let (mut report, bd) = synth.analyze_with_breakdown(&gl, true);
        // The daemon scales labels from the library's 15 nm node to its
        // corner; `x * f / f` is not always `x`, so repeat it exactly.
        let (from, to) = (TechNode::N15, cfg.tech);
        report.timing_ps = scale_delay(report.timing_ps, from, to);
        report.area_um2 = scale_area(report.area_um2, from, to);
        report.power_mw = scale_power(report.power_mw, from, to);
        let gates = report.gate_count;
        let times = [
            gen_ms,
            parse_ms,
            elab_ms,
            bd.sta_s * 1e3,
            bd.sizing_s * 1e3,
            bd.power_s * 1e3,
        ];
        Ok((LabeledDesign { design, report }, times, gates))
    };

    let mut replay = Vec::new();
    let mut counter = 0u64;
    for _ in 0..cfg.bootstrap_designs {
        replay.push(label(counter)?.0);
        counter += 1;
    }

    let (mut stage, mut predict, mut gates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut update, mut refits) = (Vec::new(), Vec::new());
    let mut traced_ms = 0.0;
    for step in 0..steps {
        let t_step = Instant::now();
        let mut minted = Vec::with_capacity(cfg.designs_per_step);
        let mut errs = Vec::with_capacity(cfg.designs_per_step);
        let mut staged_ms = 0.0;
        for _ in 0..cfg.designs_per_step {
            let (ld, times, g) = label(counter)?;
            counter += 1;
            let t = Instant::now();
            let p = daemon
                .model()
                .predict_verilog(&ld.design.verilog, &ld.design.top)
                .map_err(|e| format!("{}: {e}", ld.design.name))?;
            let predict_ms = ms_since(t);
            errs.push(rel_err(&p, &ld.report));
            staged_ms += times.iter().sum::<f64>() + predict_ms;
            stage.push(times);
            predict.push(predict_ms);
            gates.push(g as f64);
            minted.push(ld);
        }
        let t = Instant::now();
        let s = daemon.step()?;
        let step_ms = ms_since(t);
        update.push(step_ms - staged_ms);
        let same = s.per_design_rel_err.len() == errs.len()
            && s.per_design_rel_err
                .iter()
                .zip(&errs)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        out.check(same, || {
            format!("label_factory traced step {step}: re-enacted errors differ")
        });
        replay.extend(minted);
        let excess = replay.len().saturating_sub(cfg.replay_cap.max(1));
        replay.drain(..excess);
        if s.refit {
            let mut model = daemon.model().clone();
            let refs: Vec<&LabeledDesign> = replay.iter().collect();
            let t = Instant::now();
            refit_correction(&mut model, &refs, &cfg.bootstrap.mlp_train)?;
            refits.push(ms_since(t));
        }
        traced_ms += ms_since(t_step);
    }

    let col = |i: usize| mean(&stage.iter().map(|t| t[i]).collect::<Vec<_>>());
    let l = &mut out.layers;
    l.insert("conformance.generate_ms", col(0));
    l.insert("netlist.parse_elab_ms", col(1));
    l.insert("vsynth.elaborate_ms", col(2));
    l.insert("vsynth.sta_ms", col(3));
    l.insert("vsynth.sizing_ms", col(4));
    l.insert("vsynth.power_ms", col(5));
    l.insert("vsynth.gates", mean(&gates));
    l.insert("core.predict_ms", mean(&predict));
    l.insert("core.refit_ms", mean(&refits));
    l.insert("train.update_ms", mean(&update));
    l.insert("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    Ok(())
}
