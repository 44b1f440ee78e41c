//! `vsynth_bench` — times the synthesis flow (memoized elaboration, then
//! the analysis) against the same analysis over the unmemoized reference
//! elaboration on a catalog suite, and writes `BENCH_vsynth.json` at the
//! repo root.
//!
//! ```text
//! cargo run --release -p sns-bench --bin vsynth_bench
//! SNS_VSYNTH_BENCH_REPS=5 cargo run --release -p sns-bench --bin vsynth_bench
//! ```
//!
//! Per design it reports the reference and flow seconds, the per-stage
//! breakdown (elaborate / STA / sizing / power), and the resulting
//! speedup; the label bit-identity itself is enforced by the conformance
//! oracle and the `bit_identity` test suite, but the bench double-checks
//! gate counts so a broken build cannot publish a bogus speedup.

use std::time::Instant;

use sns_bench::write_root_json;
use sns_designs::{crypto, dsp, extra, vector, Design};
use sns_netlist::{parse_and_elaborate, Netlist};
use sns_rt::env_knob;
use sns_rt::json::Json;
use sns_vsynth::{SynthOptions, SynthReport, VirtualSynthesizer};

/// Mid-to-large catalog designs: wide datapaths (memoizable expanders)
/// and register files.
fn suite() -> Vec<Design> {
    vec![
        vector::simd_alu(4, 16),
        dsp::fir(16, 16),
        dsp::conv2d(3, 16),
        extra::cordic(12, 24),
        extra::dct4(16),
        crypto::aes_round(),
    ]
}

struct FlowSample {
    elaborate_s: f64,
    sta_s: f64,
    sizing_s: f64,
    power_s: f64,
    total_s: f64,
    report: SynthReport,
}

/// Times one flow end to end, best of `reps` (per-stage numbers come from
/// the best total, so the stages sum to the reported time).
fn time_flow(nl: &Netlist, reference: bool, reps: usize) -> FlowSample {
    let vs = VirtualSynthesizer::new(SynthOptions::default());
    let mut best: Option<FlowSample> = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let gl =
            if reference { vs.elaborate_gates_reference(nl) } else { vs.elaborate_gates(nl) };
        let elaborate_s = t0.elapsed().as_secs_f64();
        let (report, bd) = vs.analyze_with_breakdown(&gl, false);
        let total_s = t0.elapsed().as_secs_f64();
        let sample = FlowSample {
            elaborate_s,
            sta_s: bd.sta_s,
            sizing_s: bd.sizing_s,
            power_s: bd.power_s,
            total_s,
            report,
        };
        if best.as_ref().is_none_or(|b| sample.total_s < b.total_s) {
            best = Some(sample);
        }
    }
    best.expect("reps >= 1")
}

fn stage_json(s: &FlowSample) -> Json {
    Json::obj(vec![
        ("elaborate_s", Json::Num(s.elaborate_s)),
        ("sta_s", Json::Num(s.sta_s)),
        ("sizing_s", Json::Num(s.sizing_s)),
        ("power_s", Json::Num(s.power_s)),
        ("total_s", Json::Num(s.total_s)),
    ])
}

fn main() {
    let reps = env_knob::<usize>("SNS_VSYNTH_BENCH_REPS").unwrap_or(3);
    println!("vsynth bench: {} designs, best of {reps}", suite().len());

    let mut rows = Vec::new();
    let mut ref_total = 0.0f64;
    let mut flow_total = 0.0f64;
    let t_all = Instant::now();
    for d in suite() {
        let nl = parse_and_elaborate(&d.verilog, &d.top)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let reference = time_flow(&nl, true, reps);
        let flow = time_flow(&nl, false, reps);
        assert_eq!(
            reference.report.gate_count, flow.report.gate_count,
            "{}: flow gate count diverged from reference",
            d.name
        );
        ref_total += reference.total_s;
        flow_total += flow.total_s;
        let speedup = reference.total_s / flow.total_s.max(1e-12);
        println!(
            "  {:<28} {:>8} gates   ref {:>8.2} ms   flow {:>7.2} ms ({speedup:>5.2}x)",
            d.name,
            reference.report.gate_count,
            reference.total_s * 1e3,
            flow.total_s * 1e3,
        );
        rows.push(Json::obj(vec![
            ("name", Json::Str(d.name.clone())),
            ("gate_count", Json::UInt(reference.report.gate_count)),
            ("reference", stage_json(&reference)),
            ("flow", stage_json(&flow)),
            ("speedup", Json::Num(speedup)),
        ]));
    }
    let wall_s = t_all.elapsed().as_secs_f64();

    let n = rows.len();
    let report = Json::obj(vec![
        ("bench", Json::Str("vsynth".into())),
        ("designs", Json::UInt(n as u64)),
        ("reps", Json::UInt(reps as u64)),
        ("reference_total_s", Json::Num(ref_total)),
        ("flow_total_s", Json::Num(flow_total)),
        ("overall_speedup", Json::Num(ref_total / flow_total.max(1e-12))),
        ("flow_designs_per_sec", Json::Num(n as f64 / flow_total.max(1e-12))),
        ("reference_designs_per_sec", Json::Num(n as f64 / ref_total.max(1e-12))),
        ("wall_s", Json::Num(wall_s)),
        ("results", Json::Arr(rows)),
    ]);
    println!(
        "overall: ref {:.2} s vs flow {:.2} s  ({:.2}x)",
        ref_total,
        flow_total,
        ref_total / flow_total.max(1e-12)
    );
    write_root_json("BENCH_vsynth.json", &report);
}
