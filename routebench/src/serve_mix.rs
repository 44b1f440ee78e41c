//! `serve_mix`: the HTTP route, ECO patches included.
//!
//! Closed-loop clients (one per serving worker, at most two) send a
//! seeded request mix to an in-process `sns-serve`, one connection per
//! request:
//!
//! * flat `/predict` of generated designs — the first request for a
//!   design is `first`, the later ones are `repeat`s, which hit the
//!   path cache;
//! * `{"session": true}` bases of hierarchical generated designs;
//! * `{"base", "patch"}` ECO edits of those bases
//!   (`sns_conformance::generator::edit`), which write to the session
//!   store and the module-elaboration cache.
//!
//! The designs, bases and edits come from a fixed pool, dealt to the
//! clients in a fixed balanced split; the seed orders each client's
//! requests. Every seed therefore sends the same work, and only the
//! interleaving (which requests overlap, which design warms the path
//! cache for which) moves with it: with the pool itself drawn from the
//! seed, the tail swung with the sizes of a few generated designs (see
//! `README.md`). Each client owns whole designs and whole sessions, so a
//! design's first request and a base's registration always precede its
//! repeats and patches. Every response is compared bit for bit with the
//! same call made in-process before the timed phase.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_conformance::generator::{edit, generate, DesignSpec, GenConfig};
use sns_core::{
    load_from_zoo, model_weight_hash, DesignPrediction, SessionOutcome, SessionStore, SnsModel,
};
use sns_netlist::ModuleElabCache;
use sns_rt::json::{self, Json};
use sns_rt::rng::{SliceRandom, StdRng};
use sns_serve::{ServeConfig, Server};

use crate::measure::{chase_ns, median, ms_since, same_prediction, Fnv};
use crate::stages;
use crate::{fixture, Ctx, Outcome, SETUP_REPEATS};

/// Wall seconds one block of requests takes on the reference host.
const BLOCK_SECONDS: f64 = 0.2;
/// Seed of the design pool.
const POOL_SEED: u64 = 0x5E7E_B00C;
/// Flat designs per block, and requests per flat design.
const FLAT_DESIGNS: usize = 4;
const FLAT_REQUESTS: usize = 12;
/// Session bases per block, and ECO patches per base.
const BASES: usize = 2;
const PATCHES: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    First,
    Repeat,
    Session,
    Patch,
}

/// Every kind with its name, in discriminant order.
const KINDS: [(Kind, &str); 4] = [
    (Kind::First, "first"),
    (Kind::Repeat, "repeat"),
    (Kind::Session, "session"),
    (Kind::Patch, "patch"),
];

/// One request with the response it must produce.
struct Op {
    kind: Kind,
    body: String,
    expect: Expect,
}

enum Expect {
    Flat(usize),
    Session(SessionOutcome),
}

struct Inputs {
    /// Flat designs: (verilog, top).
    flat: Vec<(String, String)>,
    /// Reference prediction per flat design.
    flat_ref: Vec<DesignPrediction>,
    /// Per client, its requests in send order.
    queues: Vec<Vec<Op>>,
}

/// Flat designs `(verilog, top)` and their reference predictions.
type FlatPool = (Vec<(String, String)>, Vec<DesignPrediction>);

fn spec_seed(seed: u64, stream: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ i
}

/// The flat designs of the pool with their reference predictions, made
/// on `reference` in pool order.
fn flat_pool(blocks: usize, reference: &SnsModel) -> Result<FlatPool, String> {
    let cfg = GenConfig::default();
    let mut flat = Vec::new();
    let mut flat_ref = Vec::new();
    for i in 0..blocks * FLAT_DESIGNS {
        let spec = generate(spec_seed(POOL_SEED, 1, i as u64), &cfg);
        let (verilog, top) = (spec.verilog(), spec.top().to_string());
        let p = reference
            .predict_verilog(&verilog, &top)
            .map_err(|e| format!("flat design {i}: {e}"))?;
        flat_ref.push(p);
        flat.push((verilog, top));
    }
    Ok((flat, flat_ref))
}

/// The session groups of the pool: per hierarchical base (a generated
/// spec that instantiates the helper hierarchy, so patches re-elaborate
/// some modules and reuse others), its registration followed by its
/// patches, each with the outcome `reference` gives.
fn session_pool(blocks: usize, reference: &SnsModel) -> Result<Vec<Vec<Op>>, String> {
    let cfg = GenConfig::default();
    let store = SessionStore::new(usize::MAX, ModuleElabCache::DEFAULT_CAPACITY);
    let mut sessions: Vec<Vec<Op>> = Vec::new();
    let mut attempt = 0u64;
    while sessions.len() < blocks * BASES {
        let spec: DesignSpec = generate(spec_seed(POOL_SEED, 2, attempt), &cfg);
        attempt += 1;
        let verilog = spec.verilog();
        if !verilog.contains("module cfm_") {
            continue;
        }
        let base = reference
            .predict_session(&store, &verilog, spec.top())
            .map_err(|e| format!("session base: {e}"))?;
        let body = Json::obj(vec![
            ("verilog", Json::Str(verilog)),
            ("top", Json::Str(spec.top().to_string())),
            ("session", Json::Bool(true)),
        ])
        .print();
        let mut group = Vec::with_capacity(1 + PATCHES);
        group.push(Op {
            kind: Kind::Session,
            body,
            expect: Expect::Session(base.clone()),
        });
        for k in 0..PATCHES {
            let patch = edit(
                &spec,
                spec_seed(POOL_SEED, 3, attempt * 64 + k as u64),
                &cfg,
            )
            .verilog();
            let outcome = reference
                .predict_patch(&store, &base.token, &patch)
                .map_err(|e| format!("session patch: {e}"))?;
            let body = Json::obj(vec![
                ("base", Json::Str(base.token.clone())),
                ("patch", Json::Str(patch)),
            ])
            .print();
            group.push(Op {
                kind: Kind::Patch,
                body,
                expect: Expect::Session(outcome),
            });
        }
        sessions.push(group);
    }
    Ok(sessions)
}

/// Builds the seeded request mix and every expected response. The flat
/// and session references are independent, so they are made on two
/// forks of the model in parallel.
fn inputs(ctx: &Ctx, model: &SnsModel, clients: usize) -> Result<Inputs, String> {
    let blocks = ((ctx.seconds as f64 / BLOCK_SECONDS).round() as usize).max(1);
    let (flat_fork, session_fork) = (model.fork_replica(), model.fork_replica());
    let (flat, sessions) = std::thread::scope(|s| {
        let flat = s.spawn(|| flat_pool(blocks, &flat_fork));
        let sessions = session_pool(blocks, &session_fork);
        let flat = flat
            .join()
            .unwrap_or_else(|_| Err("flat reference thread panicked".into()));
        (flat, sessions)
    });
    let ((flat, flat_ref), sessions) = (flat?, sessions?);

    // Client c owns every request of flat designs and sessions c, c +
    // clients, ...; a seeded shuffle interleaves them while keeping each
    // design's and each session's own order.
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut owned: Vec<Vec<Vec<Op>>> = (0..clients).map(|_| Vec::new()).collect();
    for (g, group) in sessions.into_iter().enumerate() {
        owned[g % clients].push(group);
    }
    let mut queues = Vec::with_capacity(clients);
    for (c, own) in owned.into_iter().enumerate() {
        // Streams: a flat design's requests, or a session's requests.
        let mut streams: Vec<Vec<Op>> = Vec::new();
        for (i, (verilog, top)) in flat.iter().enumerate().filter(|(i, _)| i % clients == c) {
            let body = Json::obj(vec![
                ("verilog", Json::Str(verilog.clone())),
                ("top", Json::Str(top.clone())),
            ])
            .print();
            streams.push(
                (0..FLAT_REQUESTS)
                    .map(|r| Op {
                        kind: if r == 0 { Kind::First } else { Kind::Repeat },
                        body: body.clone(),
                        expect: Expect::Flat(i),
                    })
                    .collect(),
            );
        }
        streams.extend(own);
        let mut slots: Vec<usize> = streams
            .iter()
            .enumerate()
            .flat_map(|(s, ops)| std::iter::repeat_n(s, ops.len()))
            .collect();
        slots.shuffle(&mut rng);
        let mut iters: Vec<_> = streams.into_iter().map(|s| s.into_iter()).collect();
        queues.push(slots.into_iter().filter_map(|s| iters[s].next()).collect());
    }
    Ok(Inputs {
        flat,
        flat_ref,
        queues,
    })
}

fn config(ctx: &Ctx) -> ServeConfig {
    let k = ctx.knobs;
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: k.workers,
        queue_cap: 64,
        max_body: 1 << 20,
        deadline: None,
        cache_cap: Some(1 << 18),
        threads: k.threads,
        batch: k.batch,
        read_timeout: Duration::from_secs(10),
        session_cap: 4096,
        elab_cache_cap: ModuleElabCache::DEFAULT_CAPACITY,
        replicas: 1,
        max_conns: 64,
        debug_hooks: false,
        zoo_dir: None,
    }
}

/// A timed exchange: latency (ms) and the status and body, or the
/// transport error.
type Reply = (f64, Result<(u16, String), String>);

/// One HTTP/1.1 exchange on a fresh connection: (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)
        .map_err(|e| format!("read: {e}"))?;
    let (head, payload) = resp.split_once("\r\n\r\n").ok_or("malformed response")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    Ok((status, payload.to_string()))
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let (status, body) = http(addr, "GET", path, "")?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}"));
    }
    json::parse(&body).map_err(|e| format!("GET {path}: {e}"))
}

/// The string array at `key` of a response body.
fn strings(v: &Json, key: &str) -> Option<Vec<String>> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok()?
        .iter()
        .map(|s| s.as_str().map(str::to_string).ok())
        .collect()
}

/// Whether a response body carries exactly the expected prediction.
fn same_fields(v: &Json, p: &DesignPrediction) -> bool {
    let num = |k: &str| v.get(k).and_then(Json::as_f64).map(f64::to_bits).ok();
    num("timing_ps") == Some(p.timing_ps.to_bits())
        && num("area_um2") == Some(p.area_um2.to_bits())
        && num("power_mw") == Some(p.power_mw.to_bits())
        && v.get("path_count").and_then(Json::as_usize).ok() == Some(p.path_count)
        && strings(v, "critical_path").as_deref() == Some(p.critical_path.as_slice())
}

/// Whether a session or patch response carries exactly the expected
/// outcome.
fn same_session(v: &Json, o: &SessionOutcome) -> bool {
    let count = |k: &str| v.get(k).and_then(Json::as_usize).ok();
    same_fields(v, &o.prediction)
        && v.get("base").and_then(Json::as_str).ok() == Some(o.token.as_str())
        && strings(v, "reelaborated").as_deref() == Some(o.reelaborated.as_slice())
        && count("reused_terminals") == Some(o.reused_terminals)
        && count("resampled_terminals") == Some(o.resampled_terminals)
}

/// Starts a server on a freshly loaded model and waits until `/healthz`
/// answers.
fn boot(ctx: &Ctx) -> Result<(Arc<SnsModel>, Server), String> {
    let (model, _) = load_from_zoo(&ctx.zoo, Some(fixture::MODEL_ID))
        .map_err(|e| format!("load_from_zoo: {e}"))?;
    let model = Arc::new(model);
    let server =
        Server::start_shared(Arc::clone(&model), config(ctx)).map_err(|e| format!("start: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while !matches!(http(server.addr(), "GET", "/healthz", ""), Ok((200, _))) {
        if Instant::now() > deadline {
            return Err("server never became healthy".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((model, server))
}

/// A counter of a `/metrics` document at a dotted path, 0 when absent.
fn counter(m: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(m, |v, k| v.get(k).ok())
        .and_then(|v| v.as_f64().ok())
        .unwrap_or(0.0)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let clients = ctx.knobs.workers;

    // Set-up: load the pinned model and start serving it.
    let mut booted = None;
    for r in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (model, server) = boot(ctx)?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        if r + 1 < SETUP_REPEATS {
            server.join();
        } else {
            booted = Some((model, server));
        }
    }
    let (model, server) = booted.ok_or("no set-up repeat ran")?;
    let addr = server.addr();

    let inputs = inputs(ctx, &model, clients)?;
    let before = get_json(addr, "/metrics")?;
    out.chase_ns = chase_ns();

    // Timed phase: closed-loop clients, one request in flight each.
    let start = Instant::now();
    let results: Vec<Vec<Reply>> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .queues
            .iter()
            .map(|queue| {
                s.spawn(move || {
                    queue
                        .iter()
                        .map(|op| {
                            let t = Instant::now();
                            let r = http(addr, "POST", "/predict", &op.body);
                            (ms_since(t), r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    out.timed_s = start.elapsed().as_secs_f64();
    let after = get_json(addr, "/metrics")?;

    // Output checks, in each client's send order.
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let (mut reelab, mut reused, mut resampled, mut patches) = (0usize, 0usize, 0usize, 0usize);
    let mut digest = Fnv::new();
    let mut non200 = 0u64;
    for (queue, res) in inputs.queues.iter().zip(&results) {
        out.check(queue.len() == res.len(), || "a client thread died".into());
        for (op, (ms, r)) in queue.iter().zip(res) {
            out.latencies_ms.push(*ms);
            by_kind[op.kind as usize].push(*ms);
            let v = match r {
                Ok((200, body)) => json::parse(body).ok(),
                Ok((status, body)) => {
                    non200 += 1;
                    eprintln!("routebench: status {status}: {body}");
                    None
                }
                Err(e) => {
                    non200 += 1;
                    eprintln!("routebench: request failed: {e}");
                    None
                }
            };
            let ok = match (&v, &op.expect) {
                (Some(v), Expect::Flat(i)) => same_fields(v, &inputs.flat_ref[*i]),
                (Some(v), Expect::Session(o)) => same_session(v, o),
                (None, _) => false,
            };
            out.check(ok, || {
                format!(
                    "serve_mix {:?} response differs from the direct call",
                    op.kind
                )
            });
            match &op.expect {
                Expect::Flat(i) => digest.prediction(&inputs.flat_ref[*i]),
                Expect::Session(o) => {
                    digest.str(&o.token);
                    digest.prediction(&o.prediction);
                    if op.kind == Kind::Patch {
                        patches += 1;
                        reelab += o.reelaborated.len();
                        reused += o.reused_terminals;
                        resampled += o.resampled_terminals;
                    }
                }
            }
        }
    }
    digest.str(&model_weight_hash(&model));
    out.digest = digest.hex();

    // The server's own ledgers must reconcile with what was sent.
    let d = |path: &str| counter(&after, path) - counter(&before, path);
    let sent = out.latencies_ms.len() as f64;
    let sessions =
        (by_kind[Kind::Session as usize].len() + by_kind[Kind::Patch as usize].len()) as f64;
    out.check(counter(&after, "panics_total") == 0.0, || {
        "panics_total != 0".into()
    });
    out.check(d("predict_requests") == sent, || {
        format!(
            "predict_requests moved {} for {sent} sent",
            d("predict_requests")
        )
    });
    out.check(d("predict_ok") == sent, || {
        format!("predict_ok moved {} for {sent} sent", d("predict_ok"))
    });
    out.check(d("session_predicts") == sessions, || {
        "session_predicts does not reconcile".into()
    });
    out.check(
        d("eco_requests") == by_kind[Kind::Patch as usize].len() as f64,
        || "eco_requests does not reconcile".into(),
    );
    out.check(d("responses.4xx") + d("responses.5xx") == 0.0, || {
        "the server answered non-2xx".into()
    });

    for (kind, name) in KINDS {
        let ms = &by_kind[kind as usize];
        println!(
            "# serve_mix kind={name} n={} share={:.3} p10={:.2} p50={:.2} p90={:.2} max={:.2} ms",
            ms.len(),
            ms.len() as f64 / sent,
            quantile(ms, 0.10),
            quantile(ms, 0.50),
            quantile(ms, 0.90),
            quantile(ms, 1.0),
        );
    }

    if ctx.trace {
        let l = &mut out.layers;
        for (i, key) in [
            "serve.first_ms",
            "serve.repeat_ms",
            "serve.session_ms",
            "serve.patch_ms",
        ]
        .into_iter()
        .enumerate()
        {
            l.insert(key, median(&by_kind[i]));
        }
        l.insert(
            "serve.non200",
            non200 as f64 + d("responses.4xx") + d("responses.5xx"),
        );
        let (hits, misses) = (d("cache.hits"), d("cache.misses"));
        l.insert("core.cache_hit_ratio", hits / (hits + misses).max(1.0));
        let (rounds, jobs) = (d("batcher.rounds"), d("batcher.coalesced_jobs"));
        l.insert("serve.batch_rounds", rounds);
        l.insert(
            "serve.coalesced_frac",
            if jobs > 0.0 { 1.0 - rounds / jobs } else { 0.0 },
        );
        let per = |h: &str| d(&format!("{h}.sum_us")) / 1e3 / d(&format!("{h}.count")).max(1.0);
        l.insert("serve.loop_ms", per("reactor_loop_us"));
        for (key, stage) in [
            ("serve.stage_parse_ms", "stages_us.parse"),
            ("serve.stage_sample_ms", "stages_us.sample"),
            ("serve.stage_infer_ms", "stages_us.infer"),
            ("serve.stage_aggregate_ms", "stages_us.aggregate"),
        ] {
            l.insert(key, per(stage));
        }
        let (eh, em) = (d("elab_cache.hits"), d("elab_cache.misses"));
        l.insert("netlist.elab_cache_hit_ratio", eh / (eh + em).max(1.0));
        l.insert(
            "netlist.modules_reelaborated",
            reelab as f64 / patches.max(1) as f64,
        );
        l.insert(
            "sampler.terminals_reused_frac",
            reused as f64 / (reused + resampled).max(1) as f64,
        );
        trace(ctx, &model, &inputs, &mut out)?;
    }
    server.join();
    Ok(out)
}

fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// Re-enacts the flat requests in-process on two cold forks of the
/// served model, design by design in flat-design order: a plain direct
/// call on one fork (the untraced run) and the staged call on the other.
/// The warm direct fork then answers every repeat, against which the
/// HTTP cost is measured.
fn trace(ctx: &Ctx, model: &SnsModel, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let k = ctx.knobs;
    let (direct, fresh) = (model.fork_replica(), model.fork_replica());
    let mut untraced = 0.0;
    let mut staged = Vec::with_capacity(inputs.flat.len());
    for ((verilog, top), want) in inputs.flat.iter().zip(&inputs.flat_ref) {
        let t = Instant::now();
        direct
            .predict_verilog(verilog, top)
            .map_err(|e| format!("{top}: {e}"))?;
        untraced += ms_since(t);
        let (p, s) = stages::predict(&fresh, verilog, top, k.threads, k.batch)?;
        out.check(same_prediction(&p, want), || {
            "serve_mix: staged prediction differs from the direct call".into()
        });
        staged.push(s);
    }
    let mut direct_repeat = Vec::new();
    for (verilog, top) in &inputs.flat {
        for _ in 1..FLAT_REQUESTS {
            let t = Instant::now();
            direct
                .predict_verilog(verilog, top)
                .map_err(|e| format!("{top}: {e}"))?;
            direct_repeat.push(ms_since(t));
        }
    }
    let traced: f64 = staged.iter().map(|s| s.wall_ms).sum();
    let repeat_ms = out.layers.get("serve.repeat_ms").copied().unwrap_or(0.0);
    stages::record(&staged, &mut out.layers);
    let l = &mut out.layers;
    l.insert("serve.overhead_ms", repeat_ms - median(&direct_repeat));
    l.insert("trace.overhead_frac", traced / untraced - 1.0);
    Ok(())
}
