//! Golden snapshot tests for the virtual synthesizer's labels.
//!
//! The Circuitformer is trained on `sns-vsynth` outputs, so any drift in
//! those labels silently invalidates every trained model and benchmark
//! number in the repo. This test pins the exact (bit-for-bit, via the
//! shortest-round-trip JSON printer) area/timing/power labels of a
//! design suite to `tests/golden/vsynth_labels.json`.
//!
//! After an *intentional* label change, regenerate the snapshot with:
//!
//! ```text
//! SNS_BLESS=1 cargo test --test vsynth_golden
//! ```
//!
//! and commit the diff — the point is that label changes show up in
//! review as data, never as silent drift.

use std::path::PathBuf;

use sns::designs::{cores, dsp, nonlinear, sort, vector, Design};
use sns::netlist::parse_and_elaborate;
use sns::rt::json::{parse as parse_json, Json};
use sns::vsynth::{SynthOptions, VirtualSynthesizer};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/vsynth_labels.json")
}

/// The pinned suite: small, fast, and spanning every design family the
/// catalog exercises (vector, DSP, nonlinear, sort, cores). `fir(8, 16)`
/// and `rocket_like(32)` were blessed on a synthesizer that ran them
/// through a parallel elaborator and a sparse sizing-loop STA, so they
/// pin that the serial dense flow gives the labels those paths gave.
fn suite() -> Vec<Design> {
    vec![
        vector::simd_alu(2, 8),
        vector::simd_alu(4, 16),
        dsp::fir(8, 8),
        dsp::fir(8, 16),
        dsp::conv2d(2, 8),
        nonlinear::piecewise(4, 8),
        nonlinear::lut(32, 8),
        sort::radix_sort_stage(4, 8),
        cores::rocket_like(32),
    ]
}

/// Synthesizes one design into its label object. Every field that feeds
/// training or evaluation is pinned; runtime (wall-clock) is not.
fn labels(d: &Design) -> Json {
    let nl = parse_and_elaborate(&d.verilog, &d.top).unwrap_or_else(|e| panic!("{}: {e}", d.name));
    let r = VirtualSynthesizer::new(SynthOptions::default()).synthesize(&nl);
    Json::obj(vec![
        ("area_um2", Json::Num(r.area_um2)),
        ("timing_ps", Json::Num(r.timing_ps)),
        ("power_mw", Json::Num(r.power_mw)),
        ("dynamic_mw", Json::Num(r.dynamic_mw)),
        ("leakage_mw", Json::Num(r.leakage_mw)),
        ("gate_count", Json::UInt(r.gate_count)),
        ("transistor_count", Json::UInt(r.transistor_count)),
    ])
}

fn current_snapshot() -> Json {
    Json::Obj(suite().iter().map(|d| (d.name.clone(), labels(d))).collect())
}

#[test]
fn vsynth_labels_match_the_golden_snapshot() {
    let current = current_snapshot();
    let path = golden_path();

    if std::env::var("SNS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current.pretty()).unwrap();
        eprintln!("blessed {} designs into {}", suite().len(), path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(first run? bless it: SNS_BLESS=1 cargo test --test vsynth_golden)",
            path.display()
        )
    });
    let golden = parse_json(&text).expect("golden snapshot is valid JSON");

    // Compare per design and per field so a drift names exactly what
    // moved instead of dumping two opaque blobs.
    let golden_names: Vec<&String> = match &golden {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k).collect(),
        other => panic!("golden snapshot must be an object, got {}", other.print()),
    };
    let suite = suite();
    assert_eq!(
        golden_names,
        suite.iter().map(|d| &d.name).collect::<Vec<_>>(),
        "design suite changed — rebless the snapshot (SNS_BLESS=1) and review the diff"
    );
    for d in &suite {
        let got = current.get(&d.name).unwrap();
        let want = golden.get(&d.name).unwrap();
        for field in [
            "area_um2",
            "timing_ps",
            "power_mw",
            "dynamic_mw",
            "leakage_mw",
            "gate_count",
            "transistor_count",
        ] {
            let g = got.get(field).unwrap();
            let w = want.get(field).unwrap();
            assert_eq!(
                g.print(),
                w.print(),
                "{}.{field} drifted from the golden label — if intentional, \
                 rebless with SNS_BLESS=1 and commit the diff",
                d.name
            );
        }
    }
}

#[test]
fn labels_are_reproducible_within_a_run() {
    // The snapshot is only meaningful if synthesis is deterministic.
    let d = vector::simd_alu(2, 8);
    assert_eq!(labels(&d).print(), labels(&d).print());
}
