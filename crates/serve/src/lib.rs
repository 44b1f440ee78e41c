//! # sns-serve
//!
//! A hermetic HTTP/1.1 inference daemon for the SNS synthesis predictor,
//! built on `std::net::TcpListener` alone — no async runtime, no HTTP
//! framework, no serde. JSON comes from `sns_rt::json`, parallelism from
//! `sns_rt::pool`, and the model from `sns-core`.
//!
//! The paper's whole value proposition is interactive-speed PPA
//! estimation; this crate is the network-facing layer that turns a
//! loaded [`SnsModel`](sns_core::SnsModel) into a service:
//!
//! * **`POST /predict`** — body `{"verilog": "...", "top": "...",
//!   "clock_ps"?: f64, "activity"?: {reg: coeff}}`; replies with the
//!   [`DesignPrediction`](sns_core::DesignPrediction) fields as JSON
//!   (`timing_ps`, `area_um2`, `power_mw`, `path_count`,
//!   `critical_path`, `runtime_us`, plus `slack_ps`/`meets_clock` when a
//!   target clock was given). Responses are **bit-identical** to a
//!   direct `SnsModel::predict_verilog` call. Two incremental body
//!   forms serve ECO workflows: `{"verilog", "top", "session": true}`
//!   registers the design as a session and returns a content-addressed
//!   `base` token, and `{"base": token, "patch": "<module sources>"}`
//!   re-predicts through the warm session — only modules whose content
//!   hash (or a transitively instantiated module's hash) changed are
//!   re-elaborated, only terminals crossing them re-sampled, and the
//!   answer is bit-identical to a from-scratch run (unknown/expired
//!   base ⇒ `404`, `kind: "session"`).
//! * **`GET /metrics`** — counters, queue/in-flight gauges, cache
//!   hit/miss statistics, design-memo statistics, module-elab-cache and
//!   session counters, inference (`batcher`) counters, and per-stage
//!   log2 latency histograms, all maintained on plain atomics.
//! * **`GET /healthz`** — liveness.
//!
//! Every body kind runs sns-core's staged pipeline
//! ([`SnsModel::predict_with`](sns_core::SnsModel::predict_with)); this
//! crate only supplies its hooks: stage histograms, deadline checks, and
//! inference on the request's own worker. The one
//! exception is an exact repeat of a flat body (same `verilog` and
//! `top`, no `activity` map), which is answered from the serving model
//! generation's byte-bounded design memo without running any stage.
//!
//! ## Event-driven connection core
//!
//! Socket I/O is readiness-based: a single `reactor` thread owns every
//! connection, framing requests incrementally over non-blocking reads
//! (`poll(2)` via `sns_rt::net` — still zero dependencies) and writing
//! responses as `POLLOUT` allows. Workers only ever see complete
//! requests through a bounded dispatch queue, so a slow or hostile peer
//! (slow-loris headers, stalled reads, half-closed sockets) costs one
//! connection-table entry, never a thread, and cannot head-of-line-block
//! other requests.
//!
//! ## One model slot
//!
//! The server serves from exactly one model slot: every worker shares
//! its path cache, so a path computed for one request is a hit for every
//! later request, whichever worker takes it. A hot-swap installs a new
//! generation in the slot; each request pins the generation it started
//! on.
//!
//! ## Throughput under concurrency
//!
//! Every body kind runs inference on the worker that took the request:
//! the hook computes the request's *uncached* unique path sequences in
//! length-bucketed packed forwards of at most `SNS_BATCH` sequences over
//! `SNS_THREADS` pool threads, and inserts them into the model's shared
//! cache, where later requests for the same paths hit. Concurrent
//! workers keep every core busy; a request's latency tracks its own
//! missing work and never waits behind another request's round
//! (DESIGN.md §2d has the measurements behind this choice).
//!
//! ## Robustness
//!
//! Bounded dispatch queue and connection cap with `503 + Retry-After`
//! shedding, a fixed per-connection framing deadline (`408` for
//! slow-loris peers), a per-request deadline (`SNS_DEADLINE_MS`) checked
//! at every stage boundary of every body kind (`504`), a request body
//! limit (`413`),
//! structured JSON error bodies for malformed HTTP or JSON (`400`), and
//! graceful shutdown that drains queued and in-flight requests (SIGTERM
//! / ctrl-C in the `sns-serve` binary).
//!
//! The Verilog body is *untrusted*: the `sns-netlist` front-end is total
//! on arbitrary bytes (depth-bounded parsing, budget-checked
//! elaboration), so malformed source is a structured `400` and source
//! that exceeds the deployment's elaboration budgets (`SNS_MAX_CELLS`,
//! `SNS_MAX_NET_BITS`, `SNS_MAX_REPLICATION`) is a `422`. As defense in
//! depth, each handler wraps the pipeline in `catch_unwind`: a residual
//! panic costs one `500` (and bumps the `panics_total` metric) rather
//! than the worker thread.
//!
//! Environment knobs: `SNS_WORKERS`, `SNS_QUEUE_CAP`, `SNS_MAX_CONNS`,
//! `SNS_MAX_BODY`, `SNS_DEADLINE_MS`, `SNS_CACHE_CAP` (0 = unbounded),
//! `SNS_SESSION_CAP`, `SNS_ELAB_CACHE_CAP`, `SNS_ZOO_DIR`, plus the
//! model-level `SNS_THREADS` / `SNS_BATCH` and the elaboration budgets
//! above.

pub mod http;
pub(crate) mod memo;
pub mod metrics;
pub(crate) mod reactor;
pub mod server;

pub use http::{HttpError, Request};
pub use metrics::{CacheStats, DesignMemoStats, ElabCacheStats, Histogram, Metrics, ModelTally};
pub use server::{ReloadError, ReloadOutcome, ServeConfig, Server};
