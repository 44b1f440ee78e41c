//! `routebench` — the route-level benchmark of the SNS predictor.
//!
//! ```text
//! routebench --workload <ladder|serve_mix|label_factory> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives one route of the system through the public API
//! of the workspace crates, from outside the program:
//!
//! * `ladder` — direct `SnsModel` predictions of the Fig. 7 design
//!   ladder from Verilog, path cache cleared before every op;
//! * `serve_mix` — two closed-loop HTTP clients against an in-process
//!   `sns-serve`, mixing flat `/predict` (first-seen and repeated
//!   designs), ECO session bases and ECO patches;
//! * `label_factory` — `TrainDaemon::step` on `DaemonConfig::fast()`.
//!
//! Every run first builds the paper-shape model fixture (untimed), then
//! times set-up and a fixed op sequence derived from `--seed` and
//! `--seconds` (never a time budget), checks every output, and prints
//! one JSON result as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Lines before it start with `#` and carry the pinned knobs, the output
//! digest and, in traced ladder runs, the Fig. 7 rows.

mod fixture;
mod label_factory;
mod ladder;
mod measure;
mod serve_mix;
mod stages;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use sns_rt::json::Json;

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload never calls reports 0 (see `README.md` for which workload
/// fills which metric).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_elab_ms", "ms"),
    ("netlist.cells", "count"),
    ("graphir.build_ms", "ms"),
    ("graphir.vertices", "count"),
    ("sampler.sample_ms", "ms"),
    ("sampler.paths", "count"),
    ("core.tokenize_ms", "ms"),
    ("core.unique_seqs", "count"),
    ("core.unique_frac", "ratio"),
    ("circuitformer.infer_ms", "ms"),
    ("circuitformer.gflop", "GFLOP"),
    ("circuitformer.gflop_per_s", "GFLOP/s"),
    ("core.reduce_refine_ms", "ms"),
    ("ladder.stage_sum_gap", "ratio"),
    ("serve.first_ms", "ms"),
    ("serve.repeat_ms", "ms"),
    ("serve.session_ms", "ms"),
    ("serve.patch_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("serve.batch_rounds", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.loop_ms", "ms"),
    ("serve.stage_parse_ms", "ms"),
    ("serve.stage_sample_ms", "ms"),
    ("serve.stage_infer_ms", "ms"),
    ("serve.stage_aggregate_ms", "ms"),
    ("serve.non200", "count"),
    ("netlist.elab_cache_hit_ratio", "ratio"),
    ("netlist.modules_reelaborated", "count"),
    ("sampler.terminals_reused_frac", "ratio"),
    ("train.plain_step_ms", "ms"),
    ("train.refit_step_ms", "ms"),
    ("conformance.generate_ms", "ms"),
    ("vsynth.elaborate_ms", "ms"),
    ("vsynth.sta_ms", "ms"),
    ("vsynth.sizing_ms", "ms"),
    ("vsynth.power_ms", "ms"),
    ("vsynth.gates", "count"),
    ("core.predict_ms", "ms"),
    ("core.refit_ms", "ms"),
    ("train.update_ms", "ms"),
    ("train.selected_frac", "ratio"),
    ("train.direct_examples", "count"),
    ("train.markov_examples", "count"),
    ("fig7.speedup_median", "ratio"),
    ("fig7.sns_faster", "count"),
    ("host.chase_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, as `--workload` names them.
const WORKLOADS: [&str; 3] = ["ladder", "serve_mix", "label_factory"];

/// How many times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Knobs the program reads at its call sites, pinned once at start.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// `SNS_THREADS`: inference pool threads.
    pub threads: usize,
    /// `SNS_SYNTH_THREADS`: virtual-synthesizer threads.
    pub synth_threads: usize,
    /// `SNS_BATCH`: sequences per packed Circuitformer forward.
    pub batch: usize,
    /// Serving worker threads and concurrent clients.
    pub workers: usize,
}

/// What a workload run returns to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks made, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Set-up time of each repeat, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every timed op, in ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole timed phase, in seconds.
    pub timed_s: f64,
    /// Digest of every output of the run.
    pub digest: String,
    /// The host probe taken just before the timed phase, in ns.
    pub chase_ns: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("routebench: check failed: {}", what());
            }
        }
    }
}

/// Everything a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub zoo: PathBuf,
    pub knobs: Knobs,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pins every knob the program reads from the environment. Runs before
/// any thread exists; nothing mutates the environment afterwards.
fn pin_knobs() -> Knobs {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let knobs = Knobs {
        threads: 1,
        synth_threads: 1,
        batch: 32,
        workers: cores.min(2),
    };
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SNS_"))
        .collect();
    for k in stray {
        std::env::remove_var(k);
    }
    std::env::set_var("SNS_THREADS", knobs.threads.to_string());
    std::env::set_var("SNS_SYNTH_THREADS", knobs.synth_threads.to_string());
    std::env::set_var("SNS_BATCH", knobs.batch.to_string());
    println!(
        "# knobs: SNS_THREADS={} SNS_SYNTH_THREADS={} SNS_BATCH={} serve.workers={} serve.threads={} \
         serve.batch={} serve.replicas=1 clients={} nproc={cores}",
        knobs.threads, knobs.synth_threads, knobs.batch, knobs.workers, knobs.threads, knobs.batch,
        knobs.workers
    );
    knobs
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

fn run(args: &Args, knobs: Knobs) -> Result<Outcome, String> {
    // The work directory lives in the checkout the benchmark runs from;
    // one per process so concurrent runs never share a zoo.
    let work =
        PathBuf::from(".routebench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let zoo = work.join("zoo");
    // The label factory trains its own models; the other routes serve
    // the fixture.
    if args.workload != "label_factory" {
        let hash = fixture::build(&zoo)?;
        println!("# fixture: {} weight_hash={hash}", fixture::MODEL_ID);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        zoo,
        knobs,
    };
    let out = match args.workload.as_str() {
        "ladder" => ladder::run(&ctx),
        "serve_mix" => serve_mix::run(&ctx),
        "label_factory" => label_factory::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".routebench_work");
    out
}

fn main() -> ExitCode {
    let knobs = pin_knobs();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("routebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args, knobs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("routebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if out.latencies_ms.is_empty() || out.timed_s <= 0.0 {
        eprintln!("routebench: the timed phase ran no ops");
        return ExitCode::FAILURE;
    }
    let (pct, beyond, tail_ms) = measure::tail(&out.latencies_ms);
    println!(
        "# {}: seed={} ops={} tail=p{pct} ({beyond} samples beyond it) host.chase_ns={:.2} digest={}",
        args.workload,
        args.seed,
        out.latencies_ms.len(),
        out.chase_ns,
        out.digest
    );
    println!(
        "# setup_s samples: {}",
        out.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut layers = out.layers;
    layers.insert("host.chase_ns", out.chase_ns);
    let metrics: Vec<(String, Json)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    metric(layers.get(name).copied().unwrap_or(0.0), unit),
                )
            })
            .collect()
    } else {
        vec![
            ("setup_s".into(), metric(measure::median(&out.setup_s), "s")),
            (
                "ops_per_s".into(),
                metric(out.latencies_ms.len() as f64 / out.timed_s, "1/s"),
            ),
            (
                "p50_ms".into(),
                metric(measure::median(&out.latencies_ms), "ms"),
            ),
            ("tail_ms".into(), metric(tail_ms, "ms")),
            ("peak_rss_mb".into(), metric(measure::peak_rss_mb(), "MB")),
        ]
    };
    let result = Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.print());
    ExitCode::SUCCESS
}
