//! **Serve load** — throughput and latency of the `sns-serve` HTTP
//! daemon under K concurrent clients.
//!
//! Each level drives the same total number of `/predict` requests (over
//! the same design pool) at a different concurrency, against a freshly
//! started server with cold caches, so the K = 1 level *is* the
//! sequential baseline: any req/s gain at K ≥ 4 comes from the
//! event-driven connection core pipelining requests and from workers
//! running inference side by side, each request priming the shared
//! path cache on its own worker. One request in every [`HEAVY_EVERY`]
//! is a [`heavy_design`] tail anchor, and each level keeps the better
//! of [`ATTEMPTS`] fresh-server runs (closed-loop numbers on a shared
//! box are noisy). Repeats of a pool design are answered from the
//! server's design memo; each heavy request carries its own trailing
//! comment, so it misses the memo and still runs elaboration and
//! sampling (its paths hit the warm path cache).
//!
//! Artifact: `BENCH_serve.json` at the repo root (req/s, client-side
//! p50/mean/p99, shed (503) counts, design-memo hits and their share of
//! the level's requests, and per-level inference counters: primes that
//! computed anything and the sequences they computed).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sns_bench::{headline, write_root_json};
use sns_circuitformer::{CircuitformerConfig, TrainConfig};
use sns_core::dataset::AugmentConfig;
use sns_core::{train_sns, SnsModel, SnsTrainConfig};
use sns_designs::{cores, crypto, dsp, extra, nonlinear, sort, vector, Design};
use sns_rt::json::{parse as parse_json, Json};
use sns_sampler::SampleConfig;
use sns_serve::{ServeConfig, Server};

const CONCURRENCY: &[usize] = &[1, 4, 16, 64];
const TOTAL_REQUESTS: usize = 576; // divisible by every level above
/// One request in every `HEAVY_EVERY` is the [`heavy_design`] tail
/// anchor (12 per level — comfortably more than the 6 samples above the
/// p99 of 576).
const HEAVY_EVERY: usize = 48;
/// Closed-loop runs on a shared box are noisy; each level keeps the
/// better of this many fresh-server attempts.
const ATTEMPTS: usize = 2;

fn serving_model_config() -> SnsTrainConfig {
    let mut c = SnsTrainConfig::fast();
    c.circuitformer =
        CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 64, ..CircuitformerConfig::fast() };
    c.cf_train = TrainConfig { epochs: 8, batch_size: 32, threads: 1, ..TrainConfig::fast() };
    c.augment = AugmentConfig::none();
    c.sample = SampleConfig::paper_default().with_max_paths(250);
    c
}

/// A pool of distinct parameterized designs: enough variety that levels
/// start cold, enough repeats (TOTAL_REQUESTS > pool) that the path
/// cache sees realistic traffic.
fn design_pool() -> Vec<Design> {
    let mut pool = Vec::new();
    for lanes in [2u32, 4, 8] {
        for width in [8u32, 12, 16] {
            pool.push(vector::simd_alu(lanes, width));
        }
    }
    for taps in [4u32, 8, 16] {
        for width in [8u32, 16] {
            pool.push(dsp::fir(taps, width));
        }
    }
    for width in [8u32, 12] {
        pool.push(dsp::conv2d(2, width));
    }
    for segments in [2u32, 4, 8] {
        pool.push(nonlinear::piecewise(segments, 8));
    }
    for entries in [16u32, 32, 64] {
        pool.push(nonlinear::lut(entries, 8));
    }
    for lanes in [2u32, 4, 8] {
        pool.push(sort::radix_sort_stage(lanes, 8));
    }
    // A few mid-size blocks for variety; still cheap enough that the
    // event-driven core's request pipelining (not raw compute) decides
    // throughput.
    pool.push(cores::sodor_like(32));
    pool.push(cores::rocket_like(32));
    pool.push(crypto::sha3_like(2));
    pool.push(dsp::fft_stage(8, 16));
    pool.push(extra::crossbar(8, 16));
    pool.push(extra::dct4(16));
    pool
}

/// The tail anchor: a design whose per-request cost (5–7 ms of
/// elaboration + path sampling on a 2-vCPU host, barely any batchable
/// inference) dwarfs the light pool. Real request mixes are not all toy blocks, and a
/// serving fleet's p99 is set by its biggest designs — splicing this in
/// sparsely (1 in 48 requests) makes every level's p99 measure the same
/// concurrency-invariant work plus that level's queueing, instead of
/// whatever convoy the scheduler happened to form.
fn heavy_design() -> Design {
    nonlinear::lut(2048, 16)
}

/// The raw `/predict` request for `verilog` with top module `top`.
fn predict_request(addr: SocketAddr, verilog: &str, top: &str) -> String {
    let body = Json::obj(vec![
        ("verilog", Json::Str(verilog.to_string())),
        ("top", Json::Str(top.to_string())),
    ])
    .print();
    format!(
        "POST /predict HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// One blocking request; returns the response and its latency in
/// microseconds.
fn timed_request(addr: SocketAddr, raw: &str) -> (String, u64) {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "bad response: {}",
        &response[..response.len().min(200)]
    );
    (response, u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX))
}

/// Requests the server answered from its design memo, read from
/// `/metrics` (0 from a server without one).
fn memo_hits(addr: SocketAddr) -> u64 {
    let raw = format!("GET /metrics HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    let (response, _) = timed_request(addr, &raw);
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    let metrics = parse_json(body).expect("metrics JSON");
    metrics.get("design_memo").and_then(|m| m.get("hits")).and_then(Json::as_u64).unwrap_or(0)
}

fn mean_ms(us: &[u64]) -> f64 {
    if us.is_empty() {
        return 0.0;
    }
    us.iter().sum::<u64>() as f64 / us.len() as f64 / 1000.0
}

fn quantile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1] as f64 / 1000.0
}

/// Runs the full concurrency sweep, returning one artifact row per level.
fn run_sweep(model: &Arc<SnsModel>, pool: &[Design], heavy: &Design) -> Vec<Json> {
    // Connection handling is the reactor's and costs no worker, so the
    // worker pool only needs to cover the inference pipeline — a small
    // pool avoids pure context-switch overhead at high K on few cores.
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_cap: 256,
        cache_cap: None,
        ..ServeConfig::default()
    };
    println!(
        "  [serve] {} workers, inference threads={}, batch={}",
        config.workers, config.threads, config.batch
    );

    let mut rows = Vec::new();
    let mut baseline_rps = 0.0f64;
    for &k in CONCURRENCY {
        let mut best: Option<(f64, f64, Vec<u64>, [u64; 4])> = None;
        for _attempt in 0..ATTEMPTS {
            // Same cold start for every level: a fresh server (with an
            // empty design memo) and a cleared path cache (shared with
            // our `model` handle across restarts).
            model.cache().clear();
            let server = Server::start_shared(Arc::clone(model), config.clone()).expect("bind");
            let addr = server.addr();
            let metrics = server.metrics();
            let requests: Vec<String> = (0..TOTAL_REQUESTS)
                .map(|i| {
                    if i % HEAVY_EVERY == HEAVY_EVERY / 2 {
                        // A distinct source per heavy request: a memo
                        // miss with the same netlist and paths.
                        let verilog = format!("{}// heavy request {i}\n", heavy.verilog);
                        predict_request(addr, &verilog, &heavy.top)
                    } else {
                        let d = &pool[i % pool.len()];
                        predict_request(addr, &d.verilog, &d.top)
                    }
                })
                .collect();

            let wall = Instant::now();
            let per_client = TOTAL_REQUESTS / k;
            let handles: Vec<_> = (0..k)
                .map(|c| {
                    let slice: Vec<String> =
                        requests[c * per_client..(c + 1) * per_client].to_vec();
                    std::thread::spawn(move || {
                        slice.iter().map(|r| timed_request(addr, r).1).collect::<Vec<u64>>()
                    })
                })
                .collect();
            let mut lat_us: Vec<u64> =
                handles.into_iter().flat_map(|h| h.join().expect("client")).collect();
            let wall_s = wall.elapsed().as_secs_f64();
            lat_us.sort_unstable();

            let rps = TOTAL_REQUESTS as f64 / wall_s;
            let counters = [
                metrics.batch_rounds.load(Ordering::Relaxed),
                metrics.batched_seqs.load(Ordering::Relaxed),
                metrics.rejected_503.load(Ordering::Relaxed),
                memo_hits(addr),
            ];
            server.join();
            if best.as_ref().is_none_or(|(r, ..)| rps > *r) {
                best = Some((rps, wall_s, lat_us, counters));
            }
        }
        let Some((rps, wall_s, lat_us, [rounds, seqs, shed, hits])) = best else {
            unreachable!("ATTEMPTS >= 1");
        };
        if k == 1 {
            baseline_rps = rps;
        }
        let memo_share = hits as f64 / TOTAL_REQUESTS as f64;
        println!(
            "  [k={k:>2}] {rps:7.2} req/s ({:.2}x vs k=1) | p50 {:7.2} ms  mean {:7.2} ms  p99 {:7.1} ms | {seqs} seqs in {rounds} primes | {hits} memo hits ({:.0}%) | shed {shed}",
            rps / baseline_rps,
            quantile(&lat_us, 0.50),
            mean_ms(&lat_us),
            quantile(&lat_us, 0.99),
            memo_share * 100.0,
        );
        rows.push(Json::obj(vec![
            ("concurrency", Json::UInt(k as u64)),
            ("requests", Json::UInt(TOTAL_REQUESTS as u64)),
            ("wall_s", Json::Num(wall_s)),
            ("req_per_s", Json::Num(rps)),
            ("speedup_vs_sequential", Json::Num(rps / baseline_rps)),
            ("p50_ms", Json::Num(quantile(&lat_us, 0.50))),
            ("mean_ms", Json::Num(mean_ms(&lat_us))),
            ("p99_ms", Json::Num(quantile(&lat_us, 0.99))),
            ("batch_rounds", Json::UInt(rounds)),
            ("batched_seqs", Json::UInt(seqs)),
            ("memo_hits", Json::UInt(hits)),
            ("memo_hit_share", Json::Num(memo_share)),
            ("shed_503", Json::UInt(shed)),
        ]));
    }
    rows
}

fn main() {
    headline("sns-serve: throughput vs concurrency (event-driven core, inference on the request's worker)");

    let pool = design_pool();
    println!("  [model] training a small serving model ({} pool designs)...", pool.len());
    let (model, _) = train_sns(
        &[
            vector::simd_alu(2, 8),
            vector::simd_alu(8, 16),
            nonlinear::piecewise(4, 8),
            dsp::fir(4, 8),
            sort::radix_sort_stage(4, 8),
            nonlinear::lut(32, 8),
        ],
        &serving_model_config(),
    );
    let model = Arc::new(model);
    let heavy = heavy_design();

    let levels = run_sweep(&model, &pool, &heavy);

    let defaults = ServeConfig::default();
    let fields = vec![
        ("bench", Json::Str("serve_load".into())),
        ("total_requests_per_level", Json::UInt(TOTAL_REQUESTS as u64)),
        ("attempts_per_level", Json::UInt(ATTEMPTS as u64)),
        ("heavy_every", Json::UInt(HEAVY_EVERY as u64)),
        ("design_pool", Json::UInt(pool.len() as u64)),
        ("inference_threads", Json::UInt(defaults.threads as u64)),
        ("batch", Json::UInt(defaults.batch as u64)),
        ("levels", Json::Arr(levels)),
    ];
    write_root_json("BENCH_serve.json", &Json::obj(fields));
}
