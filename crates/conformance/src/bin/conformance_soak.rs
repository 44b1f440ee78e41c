//! Long-running conformance soak: many random designs through the full
//! oracle stack, with a throughput report.
//!
//! ```text
//! SNS_SOAK_N=2000 SNS_SOAK_SEED=1 cargo run --release -p sns-conformance --bin conformance_soak
//! ```
//!
//! Oracles 1 (sim ≡ gates) and 2 (synthesis invariants) run on every
//! design; the model-level oracles 3 (thread/batch/cache determinism) and
//! 4 (HTTP ≡ direct) run on an interleaved subset, since each check costs
//! several full predictions. Failures are shrunk, persisted under
//! `tests/corpus/pending/`, and fail the run with a non-zero exit.
//!
//! Writes `BENCH_conformance.json` at the repo root: designs/second plus
//! a per-oracle breakdown.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sns_conformance::generator::{generate, GenConfig};
use sns_conformance::oracle::{
    check_sim_vs_gates, check_vsynth_invariants, check_vsynth_matches_reference, OracleKind,
    PredictorHarness, ServeHarness,
};
use sns_conformance::{corpus, shrink};
use sns_rt::env_knob;
use sns_rt::json::Json;

const STIM_SEED_SALT: u64 = 0x5EED_5717;
const SIM_CYCLES: usize = 6;
/// Every how-many designs the model-level oracles run.
const MODEL_STRIDE: usize = 20;
/// Every how-many designs the memo-vs-reference synthesis identity oracle
/// runs (it elaborates and analyzes each design twice more, so it
/// dominates when run on every design).
const VSYNTH_REF_STRIDE: usize = 10;

struct OracleStat {
    kind: OracleKind,
    checked: usize,
    failed: usize,
    seconds: f64,
}

impl OracleStat {
    fn new(kind: OracleKind) -> Self {
        OracleStat { kind, checked: 0, failed: 0, seconds: 0.0 }
    }

    fn run(
        &mut self,
        seed: u64,
        spec: &sns_conformance::DesignSpec,
        check: &mut dyn FnMut(&sns_conformance::DesignSpec) -> Result<(), String>,
    ) {
        let t = Instant::now();
        let result = check(spec);
        self.seconds += t.elapsed().as_secs_f64();
        self.checked += 1;
        if let Err(detail) = result {
            self.failed += 1;
            eprintln!("FAIL [{}] seed {seed}: {detail}", self.kind.name());
            // Shrink against the same oracle and persist the minimized
            // reproducer for promotion into the corpus.
            let min = shrink(spec, &mut |s| check(s).is_err(), 400);
            match corpus::write_pending(&min, &format!("{}_{seed}", self.kind.name())) {
                Ok(path) => eprintln!("  minimized reproducer: {}", path.display()),
                Err(e) => eprintln!("  could not persist reproducer: {e}"),
            }
        }
    }

    fn json(&self) -> (&'static str, Json) {
        (
            self.kind.name(),
            Json::obj(vec![
                ("checked", Json::Num(self.checked as f64)),
                ("failed", Json::Num(self.failed as f64)),
                ("seconds", Json::Num(self.seconds)),
            ]),
        )
    }
}

fn main() {
    let n = env_knob::<u64>("SNS_SOAK_N").unwrap_or(2000) as usize;
    let seed0 = env_knob::<u64>("SNS_SOAK_SEED").unwrap_or(1);
    let cfg = GenConfig::default();

    eprintln!("conformance soak: {n} designs, seeds {seed0}..{}", seed0 + n as u64);
    let mut sim = OracleStat::new(OracleKind::SimVsGates);
    let mut vsynth = OracleStat::new(OracleKind::VsynthInvariants);
    let mut vsynth_ref = OracleStat::new(OracleKind::VsynthReference);
    let mut predictor = OracleStat::new(OracleKind::PredictorDeterminism);
    let mut serve = OracleStat::new(OracleKind::ServeIdentity);

    let t_train = Instant::now();
    let harness = PredictorHarness::train();
    let serve_harness = match ServeHarness::start(Arc::clone(harness.model()), None) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start sns-serve: {e}");
            std::process::exit(1);
        }
    };
    let train_seconds = t_train.elapsed().as_secs_f64();
    eprintln!("model trained + daemon up in {train_seconds:.1}s");

    let t0 = Instant::now();
    for i in 0..n {
        let seed = seed0 + i as u64;
        let spec = generate(seed, &cfg);
        let stim_seed = seed ^ STIM_SEED_SALT;
        sim.run(seed, &spec, &mut |s| check_sim_vs_gates(s, stim_seed, SIM_CYCLES));
        vsynth.run(seed, &spec, &mut check_vsynth_invariants);
        if i % VSYNTH_REF_STRIDE == 0 {
            vsynth_ref.run(seed, &spec, &mut check_vsynth_matches_reference);
        }
        if i % MODEL_STRIDE == 0 {
            predictor.run(seed, &spec, &mut |s| harness.check(s));
            serve.run(seed, &spec, &mut |s| serve_harness.check(s));
        }
        if (i + 1) % 200 == 0 {
            eprintln!(
                "  {}/{n} designs, {:.1} designs/s",
                i + 1,
                (i + 1) as f64 / t0.elapsed().as_secs_f64()
            );
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    serve_harness.shutdown();

    let failures =
        sim.failed + vsynth.failed + vsynth_ref.failed + predictor.failed + serve.failed;
    let report = Json::obj(vec![
        ("bench", Json::Str("conformance_soak".into())),
        ("designs", Json::Num(n as f64)),
        ("seed0", Json::Num(seed0 as f64)),
        ("seconds", Json::Num(seconds)),
        ("designs_per_sec", Json::Num(n as f64 / seconds.max(1e-9))),
        ("train_seconds", Json::Num(train_seconds)),
        ("failures", Json::Num(failures as f64)),
        (
            "oracles",
            Json::obj(vec![
                sim.json(),
                vsynth.json(),
                vsynth_ref.json(),
                predictor.json(),
                serve.json(),
            ]),
        ),
    ]);
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_conformance.json");
    match std::fs::write(&out, report.pretty() + "\n") {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    println!("{}", report.print());
    if failures > 0 {
        eprintln!("{failures} oracle failure(s)");
        std::process::exit(1);
    }
}
