//! Server assembly: the reactor thread, the worker pool, the serving
//! model slot, and the `/predict` hooks.
//!
//! ```text
//! reactor ──► dispatch queue ──► workers ──► model slot, pinned generation
//!    ▲  (full → 503 + Retry-After)  │            │
//!    │                              │            ▼
//!    └── completions + waker ◄──────┘   flat body: design memo (exact verilog + top)
//!                                            │ hit ─────────────────► answer
//!                                            ▼ miss, session, patch, activity
//!                                       SnsModel::predict_with(body, ServeHooks)
//!                                        parse ► sample ► infer ► aggregate
//!                                                           │
//!                                                  prime: path cache
//! ```
//!
//! Connection I/O lives entirely on the reactor thread
//! (`crate::reactor`); workers only ever see complete requests, so
//! inference latency and socket behaviour cannot interfere. One model
//! slot serves every request: all workers share its path cache, so a
//! path computed for one request is a hit for every later one.
//!
//! Every `/predict` body kind (flat, session, ECO patch) runs the core
//! pipeline under `ServeHooks`, which check the per-request deadline at
//! every stage boundary — a request that has blown `SNS_DEADLINE_MS`
//! never starts sampling or inference — and fill the path cache on the
//! request's own worker. A flat
//! body without an activity map first consults the pinned generation's
//! design memo (`memo.rs`): an exact repeat is answered without
//! running any stage, and a fresh answer is stored for the next repeat.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sns_core::{
    load_from_zoo, model_weight_hash, DesignPrediction, Hooks, Input, Output, PipelineError,
    SessionError, SessionStore, SnsModel, Stage, ZooError,
};
use sns_netlist::ModuleElabCache;
use sns_rt::json::{parse as parse_json, Json};
use sns_rt::net::Waker;

use crate::http::{build_response, Request};
use crate::memo::{memo_key, DesignMemo, DESIGN_MEMO_BYTES};
use crate::metrics::{ElabCacheStats, Metrics, ModelTally};
use crate::reactor::reactor_loop;

/// Locks a mutex, recovering the guard from a poisoned lock. Every lock
/// in this crate guards a slot, registry or queue whose updates are a
/// single store, push or pop, so a panicked writer leaves it consistent,
/// and the serve front-end is required to be panic-free anyway.
pub(crate) fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything tunable about the daemon. `Default` is suitable for tests;
/// [`from_env`](Self::from_env) layers the documented `SNS_*` knobs on
/// top for production use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Request worker threads (routing + inference; socket I/O is the
    /// reactor's, never theirs).
    pub workers: usize,
    /// Bounded dispatch-queue length; beyond it requests get `503`.
    pub queue_cap: usize,
    /// Request body byte limit (`413` beyond it).
    pub max_body: usize,
    /// Per-request deadline; stages are never started past it (`504`).
    pub deadline: Option<Duration>,
    /// Entry cap installed on the serving model's path cache (`None` =
    /// unbounded).
    pub cache_cap: Option<usize>,
    /// Inference pool threads per batch round (`SNS_THREADS`).
    pub threads: usize,
    /// Sequences per packed Circuitformer forward (`SNS_BATCH`).
    pub batch: usize,
    /// Per-connection framing deadline: a complete request must arrive
    /// within this budget of the accept (fixed at accept time — trickling
    /// bytes does not extend it), else `408`.
    pub read_timeout: Duration,
    /// Live design sessions retained as ECO bases (`SNS_SESSION_CAP`).
    pub session_cap: usize,
    /// Module-elaboration-unit cache entries (`SNS_ELAB_CACHE_CAP`).
    pub elab_cache_cap: usize,
    /// Kept only so existing struct literals (routebench's) still
    /// compile: the server runs exactly one model slot, and
    /// [`Server::start`] refuses any value other than 1.
    pub replicas: usize,
    /// Connection-count cap; accepts beyond it are shed with `503`
    /// (`SNS_MAX_CONNS`).
    pub max_conns: usize,
    /// Test-only hooks (`x-sns-sleep-ms` header, `GET /debug/blob`).
    /// Never enabled from the environment — deterministic concurrency
    /// tests set it explicitly.
    pub debug_hooks: bool,
    /// Model-zoo directory (`SNS_ZOO_DIR`) backing `POST /admin/reload`
    /// and SIGHUP hot-swaps. `None` disables reloading (`409`).
    pub zoo_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            max_body: 1 << 20,
            deadline: None,
            // A long-lived server bounds the cache so memory stays flat
            // under unbounded design diversity; the CLI stays unbounded.
            cache_cap: Some(1 << 18),
            threads: sns_rt::pool::default_threads(),
            batch: sns_rt::pool::default_batch(),
            read_timeout: Duration::from_secs(10),
            session_cap: sns_core::session::DEFAULT_SESSION_CAP,
            elab_cache_cap: ModuleElabCache::DEFAULT_CAPACITY,
            replicas: 1,
            max_conns: 1024,
            debug_hooks: false,
            zoo_dir: None,
        }
    }
}

impl ServeConfig {
    /// The default configuration with every `SNS_*` environment knob
    /// applied: `SNS_WORKERS`,
    /// `SNS_QUEUE_CAP`, `SNS_MAX_BODY`, `SNS_DEADLINE_MS`,
    /// `SNS_CACHE_CAP` (0 = unbounded), `SNS_THREADS`, `SNS_BATCH`,
    /// `SNS_SESSION_CAP`, `SNS_ELAB_CACHE_CAP`, `SNS_MAX_CONNS`,
    /// `SNS_ZOO_DIR`.
    pub fn from_env() -> Self {
        let mut c = ServeConfig::default();
        let env_usize = |name| sns_rt::env_knob::<usize>(name).filter(|&n| n >= 1);
        if let Some(n) = env_usize("SNS_WORKERS") {
            c.workers = n;
        }
        if let Some(n) = env_usize("SNS_QUEUE_CAP") {
            c.queue_cap = n;
        }
        if let Some(n) = env_usize("SNS_MAX_BODY") {
            c.max_body = n;
        }
        if let Some(ms) = env_usize("SNS_DEADLINE_MS") {
            c.deadline = Some(Duration::from_millis(ms as u64));
        }
        if let Some(n) = sns_rt::env_knob::<usize>("SNS_CACHE_CAP") {
            c.cache_cap = (n > 0).then_some(n);
        }
        if let Some(n) = env_usize("SNS_SESSION_CAP") {
            c.session_cap = n;
        }
        if let Some(n) = env_usize("SNS_ELAB_CACHE_CAP") {
            c.elab_cache_cap = n;
        }
        if let Some(n) = env_usize("SNS_MAX_CONNS") {
            c.max_conns = n;
        }
        if let Ok(dir) = std::env::var("SNS_ZOO_DIR") {
            let dir = dir.trim();
            if !dir.is_empty() {
                c.zoo_dir = Some(PathBuf::from(dir));
            }
        }
        c
    }
}

/// A complete request handed from the reactor to the worker pool.
pub(crate) struct Job {
    pub conn_id: u64,
    pub request: Request,
}

/// Rendered response bytes handed back from a worker to the reactor.
pub(crate) struct Completion {
    pub conn_id: u64,
    pub bytes: Vec<u8>,
}

/// One generation of the serving model: the model with its path cache,
/// its design memo, and the zoo identity
/// the server reports for every prediction it makes. Hot-swapping
/// installs a new `Arc<ModelEntry>` in the slot; requests already
/// holding the old `Arc` finish on the model they started with
/// (bit-identical to a direct call on it), and the old generation is
/// freed when the last in-flight holder drops it. The memo belongs here,
/// not on `SnsModel`: the served model is never mutated, so a memoized
/// answer stays exact for exactly as long as its generation serves.
pub(crate) struct ModelEntry {
    pub model: Arc<SnsModel>,
    pub model_id: String,
    pub weight_hash: String,
    pub tally: Arc<ModelTally>,
    pub memo: DesignMemo,
}

/// A model known to the `/metrics` registry: identity plus its tally.
/// Re-installing weights served earlier resumes the existing tally.
pub(crate) struct ModelInfo {
    pub id: String,
    pub weight_hash: String,
    pub tally: Arc<ModelTally>,
}

pub(crate) struct Shared {
    pub config: ServeConfig,
    pub metrics: Arc<Metrics>,
    /// The serving model generation. A hot-swap installs a new entry;
    /// the lock is held only for the store or an `Arc` clone.
    pub entry: Mutex<Arc<ModelEntry>>,
    pub sessions: SessionStore,
    /// Every model this server has served, for per-model metrics.
    pub models: Mutex<Vec<ModelInfo>>,
    /// Serializes hot-swaps (`/admin/reload`, SIGHUP) so two concurrent
    /// reloads cannot interleave their check and install.
    pub reload_lock: Mutex<()>,
    pub dispatch: Mutex<VecDeque<Job>>,
    pub dispatch_cv: Condvar,
    pub completions: Mutex<Vec<Completion>>,
    pub waker: Waker,
    pub shutdown: AtomicBool,
}

impl Shared {
    /// The current model generation; handlers pin one per request.
    pub(crate) fn entry(&self) -> Arc<ModelEntry> {
        Arc::clone(&lock_or_recover(&self.entry))
    }
}

/// A running inference daemon. Dropping it without calling
/// [`join`](Self::join) aborts less gracefully (threads are detached);
/// prefer `request_shutdown` + `join`.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. The model's path cache is bounded to
    /// `config.cache_cap` entries.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidInput`](std::io::ErrorKind::InvalidInput) when
    /// `config.replicas` is not 1, the bind error if the address is
    /// unavailable, or the OS error if a thread or the waker pipe cannot
    /// be created.
    pub fn start(model: SnsModel, config: ServeConfig) -> std::io::Result<Server> {
        Self::start_shared(Arc::new(model), config)
    }

    /// [`start`](Self::start) for callers that keep their own handle to
    /// the model (benchmarks clearing the cache between rounds, tests).
    /// The model is served under the id `"boot"` until a hot-swap
    /// installs a zoo checkpoint.
    pub fn start_shared(model: Arc<SnsModel>, config: ServeConfig) -> std::io::Result<Server> {
        Self::start_named(model, "boot", config)
    }

    /// [`start_shared`](Self::start_shared) with an explicit model id —
    /// the identity `/metrics` and the `x-sns-model-id` response header
    /// report (e.g. the zoo entry id the model was loaded from).
    pub fn start_named(
        model: Arc<SnsModel>,
        model_id: &str,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        if config.replicas != 1 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "ServeConfig::replicas must be 1 (the server runs one model slot), got {}",
                    config.replicas
                ),
            ));
        }
        model.cache().set_capacity(config.cache_cap);
        let metrics = Arc::new(Metrics::default());
        let weight_hash = model_weight_hash(&model);
        let tally = Arc::new(ModelTally::default());
        let entry = new_entry(model, model_id, &weight_hash, &tally);
        let models = vec![ModelInfo {
            id: model_id.to_string(),
            weight_hash,
            tally,
        }];

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let waker = Waker::new()?;
        let sessions = SessionStore::new(config.session_cap, config.elab_cache_cap);
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            metrics,
            entry: Mutex::new(entry),
            sessions,
            models: Mutex::new(models),
            reload_lock: Mutex::new(()),
            dispatch: Mutex::new(VecDeque::new()),
            dispatch_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker,
            shutdown: AtomicBool::new(false),
        });

        let spawn_all = || -> std::io::Result<(JoinHandle<()>, Vec<JoinHandle<()>>)> {
            let reactor = {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("sns-reactor".into())
                    .spawn(move || reactor_loop(listener, &shared))?
            };
            let mut workers = Vec::with_capacity(worker_count);
            for i in 0..worker_count {
                let shared = Arc::clone(&shared);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("sns-worker-{i}"))
                        .spawn(move || worker_loop(&shared))?,
                );
            }
            Ok((reactor, workers))
        };
        match spawn_all() {
            Ok((reactor, workers)) => {
                Ok(Server { addr, shared, reactor: Some(reactor), workers })
            }
            Err(e) => {
                // Whatever did spawn must not linger headless.
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.waker.wake();
                shared.dispatch_cv.notify_all();
                Err(e)
            }
        }
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The design-session store backing the ECO endpoint.
    pub fn sessions(&self) -> &SessionStore {
        &self.shared.sessions
    }

    /// The id and weight hash of the currently serving model generation.
    pub fn current_model(&self) -> (String, String) {
        let entry = self.shared.entry();
        (entry.model_id.clone(), entry.weight_hash.clone())
    }

    /// Atomically hot-swaps the serving model from the configured zoo
    /// (`id = None` loads the latest checkpoint). No in-flight request is
    /// dropped: each request pins the model generation it started on and
    /// finishes there bit-identically; new requests see the new model.
    /// Swapping is keyed by weight hash — reloading weights already
    /// serving is a no-op that keeps every cache warm. Safe from any
    /// thread (the `/admin/reload` endpoint and the SIGHUP watcher both
    /// funnel here); concurrent reloads serialize.
    ///
    /// # Errors
    ///
    /// [`ReloadError::NoZoo`] when no zoo directory is configured;
    /// [`ReloadError::Zoo`] for zoo failures (unknown id, corrupt
    /// manifest or weights) — the serving model is untouched.
    pub fn reload_from_zoo(&self, id: Option<&str>) -> Result<ReloadOutcome, ReloadError> {
        reload_from_zoo(&self.shared, id)
    }

    /// Begins a graceful shutdown: stop accepting, let queued and
    /// in-flight requests finish. Idempotent; safe from a signal-watcher
    /// thread.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.dispatch_cv.notify_all();
        self.shared.waker.wake();
    }

    /// Drains in-flight work and joins every thread (reactor, workers).
    /// Implies [`request_shutdown`](Self::request_shutdown).
    pub fn join(mut self) {
        self.request_shutdown();
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_shutdown();
    }
}

/// Why a hot-swap attempt failed. The serving model is never touched by
/// a failed reload.
#[derive(Debug)]
pub enum ReloadError {
    /// The server was started without a zoo directory (`SNS_ZOO_DIR` /
    /// `ServeConfig::zoo_dir`).
    NoZoo,
    /// The zoo rejected the load (missing/corrupt manifest or weights,
    /// unknown model id, hash mismatch).
    Zoo(ZooError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::NoZoo => {
                write!(f, "no model zoo configured (start with SNS_ZOO_DIR or --zoo)")
            }
            ReloadError::Zoo(e) => write!(f, "{e}"),
        }
    }
}

/// What a [`Server::reload_from_zoo`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// Whether a new model generation was installed (`false` when the
    /// requested checkpoint's weight hash already matched the serving
    /// model — caches stay warm, nothing changes).
    pub swapped: bool,
    /// The now-serving model id.
    pub model_id: String,
    /// The now-serving weight hash.
    pub weight_hash: String,
    /// The previously serving model id.
    pub previous_id: String,
    /// The previously serving weight hash.
    pub previous_hash: String,
}

/// A fresh [`ModelEntry`] generation for `model`, starting with an empty
/// design memo.
fn new_entry(
    model: Arc<SnsModel>,
    model_id: &str,
    weight_hash: &str,
    tally: &Arc<ModelTally>,
) -> Arc<ModelEntry> {
    Arc::new(ModelEntry {
        model,
        model_id: model_id.to_string(),
        weight_hash: weight_hash.to_string(),
        tally: Arc::clone(tally),
        memo: DesignMemo::new(DESIGN_MEMO_BYTES),
    })
}

/// The tally for (`id`, `weight_hash`) in the model registry, appending
/// a fresh entry if this model has not served here before.
fn tally_for(shared: &Shared, id: &str, weight_hash: &str) -> Arc<ModelTally> {
    let mut models = lock_or_recover(&shared.models);
    if let Some(info) =
        models.iter().find(|m| m.id == id && m.weight_hash == weight_hash)
    {
        return Arc::clone(&info.tally);
    }
    let tally = Arc::new(ModelTally::default());
    models.push(ModelInfo {
        id: id.to_string(),
        weight_hash: weight_hash.to_string(),
        tally: Arc::clone(&tally),
    });
    tally
}

/// The hot-swap implementation behind [`Server::reload_from_zoo`] and
/// `POST /admin/reload` (workers hold `Shared`, not `Server`).
pub(crate) fn reload_from_zoo(
    shared: &Shared,
    id: Option<&str>,
) -> Result<ReloadOutcome, ReloadError> {
    let Some(dir) = shared.config.zoo_dir.as_deref() else {
        return Err(ReloadError::NoZoo);
    };
    let _guard = lock_or_recover(&shared.reload_lock);
    let current = shared.entry();
    let (model, zoo_entry) = load_from_zoo(dir, id).map_err(ReloadError::Zoo)?;
    if zoo_entry.weight_hash == current.weight_hash {
        // Cache invalidation is keyed by weight hash: identical weights
        // mean every cached path prediction and memoized answer is still
        // exact, so the swap is skipped and the caches and memos stay
        // warm.
        return Ok(ReloadOutcome {
            swapped: false,
            model_id: current.model_id.clone(),
            weight_hash: current.weight_hash.clone(),
            previous_id: current.model_id.clone(),
            previous_hash: current.weight_hash.clone(),
        });
    }
    model.cache().set_capacity(shared.config.cache_cap);
    let sample_config_changed = model.sample_config() != current.model.sample_config();
    let tally = tally_for(shared, &zoo_entry.id, &zoo_entry.weight_hash);
    *lock_or_recover(&shared.entry) =
        new_entry(Arc::new(model), &zoo_entry.id, &zoo_entry.weight_hash, &tally);
    // Live ECO sessions hold terminal samples, which depend only on the
    // sample config, not the weights — they stay bit-exact across a
    // weight swap. A changed sample config invalidates them.
    if sample_config_changed {
        shared.sessions.clear();
    }
    shared.metrics.model_swaps.fetch_add(1, Ordering::Relaxed);
    Ok(ReloadOutcome {
        swapped: true,
        model_id: zoo_entry.id,
        weight_hash: zoo_entry.weight_hash,
        previous_id: current.model_id.clone(),
        previous_hash: current.weight_hash.clone(),
    })
}

pub(crate) fn error_body(message: &str, kind: &str) -> Json {
    Json::obj(vec![
        ("error", Json::Str(message.to_string())),
        ("kind", Json::Str(kind.to_string())),
    ])
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock_or_recover(&shared.dispatch);
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.metrics.queue_depth.store(queue.len() as u64, Ordering::Relaxed);
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // queue drained, shutting down
                }
                queue = shared.dispatch_cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        // The pipeline is designed to be panic-free on arbitrary input
        // (see the adversarial suites), but a residual bug must cost one
        // 500, not the worker thread and every queued request behind it.
        // `AssertUnwindSafe` is sound: `shared` holds no lock across this
        // call and all its state is atomics or recover-on-poison mutexes.
        let (status, extra, body) = match std::panic::catch_unwind(
            std::panic::AssertUnwindSafe(|| route(&job.request, shared)),
        ) {
            Ok(reply) => reply,
            Err(_) => {
                shared.metrics.panics_total.fetch_add(1, Ordering::Relaxed);
                (500, Vec::new(), error_body("internal error while handling the request", "panic"))
            }
        };
        shared.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &shared.metrics.responses_2xx,
            400..=499 => &shared.metrics.responses_4xx,
            _ => &shared.metrics.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
        let bytes = build_response(status, &extra, &body.print());
        lock_or_recover(&shared.completions).push(Completion { conn_id: job.conn_id, bytes });
        shared.waker.wake();
    }
}

type Reply = (u16, Vec<(&'static str, String)>, Json);

fn route(request: &Request, shared: &Shared) -> Reply {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/predict") => handle_predict(request, shared),
        ("POST", "/admin/reload") => handle_reload(request, shared),
        ("GET", "/metrics") => {
            let serving = shared.entry();
            let elab = shared.sessions.elab_cache();
            let units = elab.stats();
            let elab_stats = ElabCacheStats {
                entries: units.len,
                capacity: units.budget,
                hits: elab.hits(),
                misses: units.inserts,
                evictions: units.evictions,
                invalidations: elab.invalidations(),
                sessions: shared.sessions.session_count(),
            };
            let models: Vec<Json> = lock_or_recover(&shared.models)
                .iter()
                .map(|info| {
                    let mut obj = vec![
                        ("id".to_string(), Json::Str(info.id.clone())),
                        ("weight_hash".to_string(), Json::Str(info.weight_hash.clone())),
                        (
                            "serving".to_string(),
                            Json::Bool(info.weight_hash == serving.weight_hash),
                        ),
                    ];
                    if let Json::Obj(tally) = info.tally.to_json() {
                        obj.extend(tally);
                    }
                    Json::Obj(obj)
                })
                .collect();
            let json = shared.metrics.to_json(
                serving.model.cache().stats(),
                serving.memo.stats(),
                elab_stats,
                serving.model.prepack_bytes(),
                models,
            );
            (200, Vec::new(), json)
        }
        ("GET", "/healthz") => (200, Vec::new(), Json::obj(vec![("status", Json::Str("ok".into()))])),
        ("GET", target)
            if shared.config.debug_hooks && target.starts_with("/debug/blob") =>
        {
            // Test hook: a response big enough to overflow the socket
            // send buffer, for exercising partial-write handling.
            let kb = target
                .split_once("kb=")
                .and_then(|(_, v)| v.parse::<usize>().ok())
                .unwrap_or(64)
                .min(16 * 1024);
            (200, Vec::new(), Json::obj(vec![("blob", Json::Str("x".repeat(kb * 1024)))]))
        }
        (_, "/predict") | (_, "/metrics") | (_, "/healthz") | (_, "/admin/reload") => (
            405,
            Vec::new(),
            error_body(&format!("method {} not allowed here", request.method), "http"),
        ),
        (_, target) => (404, Vec::new(), error_body(&format!("no such endpoint {target}"), "http")),
    }
}

/// `POST /admin/reload` — hot-swap the serving model from the zoo. Body
/// `{}`/empty loads the latest checkpoint, `{"model": id}` a specific
/// one. `200` with the swap outcome; `409` when no zoo is configured;
/// `404` for an unknown model id; `500` for a zoo that cannot be read.
fn handle_reload(request: &Request, shared: &Shared) -> Reply {
    let id = match request.body.is_empty() {
        true => None,
        false => {
            let v = match json_body(request) {
                Ok(v) => v,
                Err(reply) => return reply,
            };
            match v.get("model") {
                Err(_) => None,
                Ok(m) => match m.as_str() {
                    Ok(s) => Some(s.to_string()),
                    Err(e) => {
                        return (400, Vec::new(), error_body(&format!("model: {e}"), "json"))
                    }
                },
            }
        }
    };
    match reload_from_zoo(shared, id.as_deref()) {
        Ok(outcome) => (
            200,
            vec![
                ("x-sns-model-id", outcome.model_id.clone()),
                ("x-sns-weight-hash", outcome.weight_hash.clone()),
            ],
            Json::obj(vec![
                ("swapped", Json::Bool(outcome.swapped)),
                ("model_id", Json::Str(outcome.model_id)),
                ("weight_hash", Json::Str(outcome.weight_hash)),
                ("previous_id", Json::Str(outcome.previous_id)),
                ("previous_hash", Json::Str(outcome.previous_hash)),
            ]),
        ),
        Err(ReloadError::NoZoo) => {
            (409, Vec::new(), error_body(&ReloadError::NoZoo.to_string(), "reload"))
        }
        Err(ReloadError::Zoo(e @ ZooError::UnknownModel(_))) => {
            shared.metrics.reload_errors.fetch_add(1, Ordering::Relaxed);
            (404, Vec::new(), error_body(&e.to_string(), "zoo"))
        }
        Err(ReloadError::Zoo(e)) => {
            shared.metrics.reload_errors.fetch_add(1, Ordering::Relaxed);
            (500, Vec::new(), error_body(&e.to_string(), "zoo"))
        }
    }
}

/// The request body as JSON, or the `400` reply for a body that is not.
fn json_body(request: &Request) -> Result<Json, Reply> {
    std::str::from_utf8(&request.body)
        .map_err(|_| "body is not valid UTF-8".to_string())
        .and_then(|text| parse_json(text).map_err(|e| e.to_string()))
        .map_err(|msg| (400, Vec::new(), error_body(&msg, "json")))
}

fn parse_clock_ps(v: &Json) -> Result<Option<f64>, String> {
    match v.get("clock_ps") {
        Err(_) => Ok(None),
        Ok(c) => {
            let ps = c.as_f64().map_err(|e| e.to_string())?;
            if !(ps.is_finite() && ps > 0.0) {
                return Err(format!("clock_ps must be a positive number, got {ps}"));
            }
            Ok(Some(ps))
        }
    }
}

/// Validates a `/predict` body `v` into the pipeline input — a classic
/// one-shot prediction (its activity map parsed into `activity`), a
/// session-registering prediction, or an ECO patch — and its optional
/// `clock_ps` target.
fn parse_predict_body<'a>(
    v: &'a Json,
    store: &'a SessionStore,
    activity: &'a mut Option<HashMap<String, f32>>,
) -> Result<(Input<'a>, Option<f64>), String> {
    let clock_ps = parse_clock_ps(v)?;
    // Session and patch predictions carry no per-register activity, so a
    // map there is rejected rather than silently dropped.
    let no_activity = |form: &str| match v.get("activity") {
        Ok(_) => Err(format!("{form} predictions do not take an activity map")),
        Err(_) => Ok(()),
    };

    // ECO form: {"base": token, "patch": module sources}.
    if let Ok(base) = v.get("base") {
        let base = base.as_str().map_err(|e| format!("base: {e}"))?;
        let patch = v.get("patch").and_then(Json::as_str).map_err(|e| format!("patch: {e}"))?;
        if v.get("verilog").is_ok() {
            return Err("give either {verilog, top} or {base, patch}, not both".to_string());
        }
        no_activity("patch")?;
        return Ok((Input::Patch { store, base, patch }, clock_ps));
    }

    let verilog = v.get("verilog").and_then(Json::as_str).map_err(|e| e.to_string())?;
    let top = v.get("top").and_then(Json::as_str).map_err(|e| e.to_string())?;

    // Session form: {"verilog", "top", "session": true} registers the
    // design as an ECO base and predicts through the incremental pipeline.
    let session = match v.get("session") {
        Err(_) => false,
        Ok(s) => s.as_bool().map_err(|e| format!("session: {e}"))?,
    };
    if session {
        no_activity("session")?;
        return Ok((Input::Session { store, verilog, top }, clock_ps));
    }

    *activity = match v.get("activity") {
        Err(_) => None,
        Ok(Json::Obj(fields)) => {
            let mut map = HashMap::with_capacity(fields.len());
            for (name, value) in fields {
                let a = value.as_f32().map_err(|e| format!("activity[{name:?}]: {e}"))?;
                if !(0.0..=1.0).contains(&a) {
                    return Err(format!("activity[{name:?}] must be in [0, 1], got {a}"));
                }
                map.insert(name.clone(), a);
            }
            Some(map)
        }
        Ok(other) => {
            return Err(format!("activity must be an object of register→coefficient, got {}", other.print()))
        }
    };
    Ok((Input::Flat { verilog, top, activity: activity.as_ref() }, clock_ps))
}

/// The deadline passed before the named stage (`504`): why
/// [`ServeHooks`] stopped a prediction.
struct DeadlinePassed(&'static str);

/// The daemon's pipeline hooks for one request: stage histograms, the
/// per-request deadline, and inference on the request's own worker.
struct ServeHooks<'a> {
    shared: &'a Shared,
    deadline: Option<Instant>,
}

impl Hooks for ServeHooks<'_> {
    type Stop = DeadlinePassed;

    fn after(&self, stage: Stage, took: Duration) -> Result<(), DeadlinePassed> {
        let m = &self.shared.metrics;
        let (histogram, next) = match stage {
            Stage::Parse => (&m.stage_parse, Some("sampling")),
            Stage::Sample => (&m.stage_sample, Some("inference")),
            Stage::Infer => (&m.stage_infer, Some("aggregation")),
            Stage::Aggregate => (&m.stage_aggregate, None),
        };
        histogram.record(took);
        match next {
            Some(next) if self.deadline.is_some_and(|d| Instant::now() >= d) => {
                Err(DeadlinePassed(next))
            }
            _ => Ok(()),
        }
    }

    /// Fills the pinned generation's cache on this worker. A prime that
    /// inserted anything counts as one `batcher` round of that many
    /// sequences, so `batched_seqs` reconciles with the cache's misses.
    fn prime(&self, model: &SnsModel, seqs: &[Vec<usize>]) {
        let c = &self.shared.config;
        let computed = model.prime_path_cache(seqs, c.threads, c.batch) as u64;
        if computed > 0 {
            let m = &self.shared.metrics;
            m.batch_rounds.fetch_add(1, Ordering::Relaxed);
            m.batched_seqs.fetch_add(computed, Ordering::Relaxed);
        }
    }
}

/// Parses the request body and runs it on the serving model generation.
fn handle_predict(request: &Request, shared: &Shared) -> Reply {
    let start = Instant::now();
    shared.metrics.predict_requests.fetch_add(1, Ordering::Relaxed);

    let v = match json_body(request) {
        Ok(v) => v,
        Err(reply) => return reply,
    };
    let mut activity = None;
    let (input, clock_ps) = match parse_predict_body(&v, &shared.sessions, &mut activity) {
        Ok(parsed) => parsed,
        Err(msg) => return (400, Vec::new(), error_body(&msg, "json")),
    };

    // Pin one model generation for the whole request: model and cache
    // both come from this entry, so a concurrent hot-swap can
    // never mix generations mid-pipeline — the response is bit-identical
    // to a direct call on the model the request started with, and the
    // headers below say which one that was.
    let entry = shared.entry();
    entry.tally.requests.fetch_add(1, Ordering::Relaxed);

    // Deterministic test hook: holds a request in flight on its pinned
    // generation (e.g. to hot-swap underneath it, or to fill the queue).
    if shared.config.debug_hooks {
        if let Some(ms) = request.header("x-sns-sleep-ms").and_then(|v| v.parse::<u64>().ok()) {
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        }
    }

    let mut reply = predict_on(shared, &entry, input, clock_ps, start);
    if reply.0 == 200 {
        entry.tally.ok.fetch_add(1, Ordering::Relaxed);
    }
    entry.tally.latency.record(start.elapsed());
    reply.1.push(("x-sns-model-id", entry.model_id.clone()));
    reply.1.push(("x-sns-weight-hash", entry.weight_hash.clone()));
    reply
}

/// Runs one parsed `/predict` body on the pinned generation `entry`:
/// answers an exact repeat of a flat body from the generation's design
/// memo, and runs anything else through the core pipeline
/// ([`SnsModel::predict_with`]) under [`ServeHooks`], then maps the
/// outcome onto a reply. Responses are
/// bit-identical to the direct call on the pinned model: the hooks fill
/// the same cache with the same pure function, and the memo returns
/// what that function returned for the same source.
fn predict_on(
    shared: &Shared,
    entry: &ModelEntry,
    input: Input<'_>,
    clock_ps: Option<f64>,
    start: Instant,
) -> Reply {
    let deadline = shared.config.deadline.map(|d| start + d);
    let hooks = ServeHooks { shared, deadline };
    if matches!(input, Input::Patch { .. }) {
        shared.metrics.eco_requests.fetch_add(1, Ordering::Relaxed);
    }
    // Sessions and patches register state, and an activity map changes
    // the answer, so only plain flat bodies go through the memo. A hit
    // runs no stage; its runtime is this request's own.
    let key = match input {
        Input::Flat { verilog, top, activity: None } => Some(memo_key(verilog, top)),
        _ => None,
    };
    let hit = key.as_deref().and_then(|k| entry.memo.get(k));
    let result = match &hit {
        Some(pred) => {
            Ok(Output::Flat(DesignPrediction { runtime: start.elapsed(), ..(**pred).clone() }))
        }
        None => entry.model.predict_with(input, &hooks, start),
    };
    let fields = match result {
        Ok(Output::Flat(pred)) => {
            let fields = prediction_fields(&pred, clock_ps);
            if let Some(key) = key.filter(|_| hit.is_none()) {
                entry.memo.insert(key, pred);
            }
            fields
        }
        Ok(Output::Session(outcome)) => {
            shared.metrics.session_predicts.fetch_add(1, Ordering::Relaxed);
            let mut fields = prediction_fields(&outcome.prediction, clock_ps);
            fields.push(("base", Json::Str(outcome.token)));
            fields.push((
                "reelaborated",
                Json::Arr(outcome.reelaborated.into_iter().map(Json::Str).collect()),
            ));
            fields.push(("reused_terminals", Json::UInt(outcome.reused_terminals as u64)));
            fields.push(("resampled_terminals", Json::UInt(outcome.resampled_terminals as u64)));
            fields
        }
        Err(PipelineError::Stopped(DeadlinePassed(next))) => {
            shared.metrics.deadline_504.fetch_add(1, Ordering::Relaxed);
            let msg = format!("deadline exceeded before {next} stage (SNS_DEADLINE_MS)");
            return (504, Vec::new(), error_body(&msg, "deadline"));
        }
        Err(PipelineError::Rejected(e)) => {
            let (status, kind) = match &e {
                SessionError::UnknownBase(_) => (404, "session"),
                // Budget rejections (SNS_MAX_CELLS / SNS_MAX_NET_BITS /
                // SNS_MAX_REPLICATION) are 422: the Verilog may be perfectly
                // well-formed, the deployment just refuses to elaborate
                // something that large. Malformed source stays 400.
                SessionError::Front(f) if f.is_budget() => (422, "budget"),
                SessionError::Front(_) => (400, "verilog"),
            };
            return (status, Vec::new(), error_body(&e.to_string(), kind));
        }
    };
    shared.metrics.predict_ok.fetch_add(1, Ordering::Relaxed);
    shared.metrics.stage_total.record(start.elapsed());
    (200, Vec::new(), Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()))
}

/// The `DesignPrediction` fields every successful `/predict` reply shares.
fn prediction_fields(
    pred: &DesignPrediction,
    clock_ps: Option<f64>,
) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("timing_ps", Json::Num(pred.timing_ps)),
        ("area_um2", Json::Num(pred.area_um2)),
        ("power_mw", Json::Num(pred.power_mw)),
        ("path_count", Json::UInt(pred.path_count as u64)),
        (
            "critical_path",
            Json::Arr(pred.critical_path.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("runtime_us", Json::UInt(u64::try_from(pred.runtime.as_micros()).unwrap_or(u64::MAX))),
    ];
    if let Some(clock_ps) = clock_ps {
        fields.push(("slack_ps", Json::Num(clock_ps - pred.timing_ps)));
        fields.push(("meets_clock", Json::Bool(pred.timing_ps <= clock_ps)));
    }
    fields
}
