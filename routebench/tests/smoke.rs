//! Smoke test of the benchmark itself: every workload at a tiny size,
//! with its output checks on, must pass them and emit exactly the
//! metrics `BENCHMARK.json` names, with the units it names.
//!
//! ```text
//! cargo test --release --offline --manifest-path routebench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use sns_rt::json::{self, Json};

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = doc
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("metric name");
            let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
            (name.to_string(), unit.to_string())
        })
        .collect();
    out.sort();
    out
}

/// Runs one workload at the smallest size and returns its stdout.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_routebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .output()
        .expect("run routebench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_metric() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("read BENCHMARK.json");
    let spec = json::parse(&spec).expect("parse BENCHMARK.json");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["ladder", "serve_mix", "label_factory"]);

    // Per-layer metrics some workload measured (a bypassed layer reads 0).
    let mut measured = std::collections::BTreeSet::new();
    for workload in &workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let stdout = run(workload, trace);
            assert!(stdout.contains("digest="), "{workload}: no output digest");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool).ok(),
                Some(true),
                "{workload}: {last}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64).ok(),
                Some(0),
                "{workload}: {last}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_u64)
                    .expect("attempted")
                    >= 1
            );
            let Json::Obj(metrics) = result.get("metrics").expect("metrics") else {
                panic!("{workload}: metrics is not an object");
            };
            let mut emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m
                        .get("value")
                        .and_then(Json::as_f64)
                        .expect("numeric value");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            emitted.sort();
            assert_eq!(emitted, declared(&spec, list), "{workload} --trace {trace}");
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(
                    trace == 1 || value > 0.0,
                    "{workload} {name} = {value}: end-to-end metrics are never 0"
                );
                if value != 0.0 {
                    measured.insert(name.clone());
                }
            }
        }
    }
    // `serve.non200` counts failed requests, so 0 is the healthy reading;
    // `serve.coalesced_frac` is 0 whenever no two requests met in one
    // batch round, which is common at this size.
    let may_be_zero = ["serve.non200", "serve.coalesced_frac"];
    for (name, _) in declared(&spec, "per_layer") {
        assert!(
            may_be_zero.contains(&name.as_str()) || measured.contains(&name),
            "no workload measured {name}"
        );
    }
}
