//! `bench_diff` — compares two `BENCH_*.json` snapshots and prints the
//! per-benchmark timing deltas, so a PR's kernel-perf trajectory is
//! visible at review time.
//!
//! ```text
//! bench_diff <old.json> <new.json>
//! ```
//!
//! Informational by design: the exit code is nonzero only for unreadable
//! or malformed inputs, never for a regression — the acceptance gates on
//! absolute numbers live with the benches themselves, and the tier-1
//! wiring (`scripts/bench_diff.sh`) tolerates a missing baseline.

use std::collections::BTreeMap;
use std::process::ExitCode;

use sns_rt::json::{parse, Json};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `results` as a name → min_ns map.
fn result_map(doc: &Json) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    if let Ok(results) = doc.get("results").and_then(|r| r.as_arr()) {
        for r in results {
            if let (Ok(name), Ok(min)) = (
                r.get("name").and_then(|v| v.as_str().map(str::to_string)),
                r.get("min_ns").and_then(|v| v.as_u64()),
            ) {
                map.insert(name, min);
            }
        }
    }
    map
}

fn run(old_path: &str, new_path: &str) -> Result<(), String> {
    let old = load(old_path)?;
    let new = load(new_path)?;

    let old_results = result_map(&old);
    let new_results = result_map(&new);
    println!("benchmarks (min ns; old -> new):");
    for (name, new_ns) in &new_results {
        match old_results.get(name) {
            Some(&old_ns) if old_ns > 0 => {
                let ratio = old_ns as f64 / *new_ns as f64;
                println!("  {name:<36} {old_ns:>12} -> {new_ns:>12}  ({ratio:.2}x)");
            }
            _ => println!("  {name:<36} {:>12} -> {new_ns:>12}  (new)", "-"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [old_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <old.json> <new.json>");
        return ExitCode::from(2);
    };
    match run(old_path, new_path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::FAILURE
        }
    }
}
