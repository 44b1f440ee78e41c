//! Vsynth identity soak: every blessed corpus case plus thousands of
//! random designs through the fast-vs-reference bit-identity oracle.
//!
//! ```text
//! SNS_VSYNTH_SOAK_N=2000 SNS_VSYNTH_SOAK_SEED=1 \
//!     cargo run --release -p sns-conformance --bin vsynth_soak
//! ```
//!
//! Unlike `conformance_soak` (which runs this oracle on a stride to keep
//! the full stack affordable), the vsynth soak runs it on **every**
//! design: the fast flow — parallel elaboration, expansion memoization,
//! sparse STA — must produce the same gate graph node for node and the
//! same labels bit for bit as the single-threaded dense reference, at
//! 1 and 4 threads. Failing generated designs are shrunk and persisted
//! under `tests/corpus/pending/`; any failure exits non-zero.

use std::time::Instant;

use sns_conformance::generator::{generate, GenConfig};
use sns_conformance::oracle::{
    check_vsynth_matches_reference, check_vsynth_matches_reference_netlist,
};
use sns_conformance::{corpus, shrink};
use sns_netlist::parse_and_elaborate;
use sns_rt::env_knob;

fn main() {
    let n = env_knob::<u64>("SNS_VSYNTH_SOAK_N").unwrap_or(2000) as usize;
    let seed0 = env_knob::<u64>("SNS_VSYNTH_SOAK_SEED").unwrap_or(1);
    let mut failures = 0usize;

    // Blessed corpus first: regressions promoted from past soak failures.
    let cases = match corpus::load_corpus(&corpus::corpus_dir()) {
        Ok(cases) => cases,
        Err(e) => {
            eprintln!("cannot load blessed corpus: {e}");
            std::process::exit(1);
        }
    };
    for case in &cases {
        let result = parse_and_elaborate(&case.verilog, &case.top)
            .map_err(|e| format!("corpus case no longer elaborates: {e}"))
            .and_then(|nl| check_vsynth_matches_reference_netlist(&nl));
        if let Err(detail) = result {
            failures += 1;
            eprintln!("FAIL [vsynth_reference] corpus case {}: {detail}", case.name);
        }
    }
    eprintln!("corpus replay: {} cases, {failures} failure(s)", cases.len());

    let t0 = Instant::now();
    let cfg = GenConfig::default();
    for i in 0..n {
        let seed = seed0 + i as u64;
        let spec = generate(seed, &cfg);
        if let Err(detail) = check_vsynth_matches_reference(&spec) {
            failures += 1;
            eprintln!("FAIL [vsynth_reference] seed {seed}: {detail}");
            let min = shrink(&spec, &mut |s| check_vsynth_matches_reference(s).is_err(), 400);
            match corpus::write_pending(&min, &format!("vsynth_reference_{seed}")) {
                Ok(path) => eprintln!("  minimized reproducer: {}", path.display()),
                Err(e) => eprintln!("  could not persist reproducer: {e}"),
            }
        }
        if (i + 1) % 500 == 0 {
            eprintln!(
                "  {}/{n} designs, {:.1} designs/s",
                i + 1,
                (i + 1) as f64 / t0.elapsed().as_secs_f64()
            );
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    println!(
        "vsynth soak: {} corpus cases + {n} generated designs in {seconds:.1}s \
         ({:.1} designs/s), {failures} failure(s)",
        cases.len(),
        n as f64 / seconds.max(1e-9)
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
