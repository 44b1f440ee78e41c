//! Service counters and per-stage latency histograms on plain atomics —
//! no locks anywhere on the metrics path, so instrumented stages cost a
//! handful of relaxed atomic adds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sns_rt::json::Json;

/// Number of histogram buckets: bucket `i < NB-1` counts latencies in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is the overflow
/// (≥ ~0.5 h — nothing legitimate lands there).
const NB: usize = 32;

/// A lock-free log2-bucketed latency histogram (microseconds).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; NB],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = if us == 0 { 0 } else { (63 - us.leading_zeros() as usize).min(NB - 1) };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// An upper bound (bucket boundary) for quantile `q` in microseconds,
    /// or 0 with no samples.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return 1u64 << (i + 1); // upper edge of bucket i
            }
        }
        u64::MAX
    }

    /// The JSON export: count, sum, approximate p50/p99, and the sparse
    /// bucket list as `[floor_us, count]` pairs.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| {
                    Json::Arr(vec![Json::UInt(1u64 << i), Json::UInt(n)])
                })
            })
            .collect();
        Json::obj(vec![
            ("count", Json::UInt(self.count())),
            ("sum_us", Json::UInt(self.sum_us.load(Ordering::Relaxed))),
            ("p50_us", Json::UInt(self.quantile_us(0.50))),
            ("p99_us", Json::UInt(self.quantile_us(0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// All counters exported by `GET /metrics`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Every request that was successfully read off a socket.
    pub requests_total: AtomicU64,
    /// `POST /predict` requests accepted for processing.
    pub predict_requests: AtomicU64,
    /// Predictions that completed with a 200.
    pub predict_ok: AtomicU64,
    /// `/predict` requests that registered a design session
    /// (`"session": true` or an ECO patch).
    pub session_predicts: AtomicU64,
    /// ECO requests (`{"base", "patch"}`) accepted for processing.
    pub eco_requests: AtomicU64,
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (bad requests, not-found, oversized bodies).
    pub responses_4xx: AtomicU64,
    /// 5xx responses (overload rejections, deadline timeouts).
    pub responses_5xx: AtomicU64,
    /// Connections rejected with `503 + Retry-After` because the bounded
    /// accept queue was full.
    pub rejected_503: AtomicU64,
    /// Requests aborted with 504 because `SNS_DEADLINE_MS` elapsed.
    pub deadline_504: AtomicU64,
    /// Connections that died before a response could be written.
    pub conn_errors: AtomicU64,
    /// Connections closed with 408 because the peer did not deliver a
    /// complete request within the read deadline (slow-loris defence).
    pub read_timeouts: AtomicU64,
    /// Completed model hot-swaps (`POST /admin/reload` or SIGHUP) that
    /// actually installed a new model. A reload that found the serving
    /// weights already current is not a swap.
    pub model_swaps: AtomicU64,
    /// Reload attempts that failed (zoo unreadable, corrupt weights,
    /// unknown model id). The serving model is untouched by a failure.
    pub reload_errors: AtomicU64,
    /// Requests whose handler panicked and was caught at the connection
    /// boundary (returned as a 500 instead of killing the worker). The
    /// front-end is supposed to be panic-free, so anything non-zero here
    /// is a bug worth paging on.
    pub panics_total: AtomicU64,
    /// Current depth of the bounded dispatch queue.
    pub queue_depth: AtomicU64,
    /// Requests currently being handled by workers.
    pub in_flight: AtomicU64,
    /// Path-cache primes that inserted at least one sequence (exported
    /// as `batcher.rounds`).
    pub batch_rounds: AtomicU64,
    /// Sequences those primes computed and inserted
    /// (`batcher.batched_seqs`), each one a path-cache miss the prime
    /// counted.
    pub batched_seqs: AtomicU64,
    /// Verilog parse + elaborate latency.
    pub stage_parse: Histogram,
    /// GraphIR construction + path sampling latency.
    pub stage_sample: Histogram,
    /// Circuitformer inference latency: the path-cache prime, computed
    /// on the request's worker.
    pub stage_infer: Histogram,
    /// Reduction + MLP refinement latency.
    pub stage_aggregate: Histogram,
    /// Whole-request latency of successful predictions, design-memo
    /// hits included (a hit records no other stage).
    pub stage_total: Histogram,
    /// Reactor event-loop iteration busy time (time spent handling
    /// readiness after `poll` returns — *not* the blocked wait). A fat
    /// tail here means some connection handler is stalling the loop.
    pub reactor_loop: Histogram,
}

/// Per-model service tallies, keyed by (model id, weight hash) in the
/// server's model registry. A hot-swap that brings in new weights gets a
/// fresh tally; swapping back to weights served before resumes the old
/// one, so `/metrics` keeps an accurate per-model ledger across swaps.
#[derive(Debug, Default)]
pub struct ModelTally {
    /// `/predict` requests routed while this model was serving.
    pub requests: AtomicU64,
    /// Of those, predictions that completed with a 200.
    pub ok: AtomicU64,
    /// Whole-request latency while this model was serving.
    pub latency: Histogram,
}

impl ModelTally {
    /// The per-model `/metrics` fragment (joined with id/hash by the
    /// server, which owns the registry).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::UInt(self.requests.load(Ordering::Relaxed))),
            ("ok", Json::UInt(self.ok.load(Ordering::Relaxed))),
            ("latency_us", self.latency.to_json()),
        ])
    }
}

/// Path-cache statistics snapshot merged into the export by the server
/// (the cache itself lives on the model).
pub use sns_core::CacheStats;

/// Design-memo statistics snapshot for the serving model generation (the
/// memo itself lives on the generation's model entry, so a hot-swap
/// starts every count at zero).
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignMemoStats {
    /// Flat bodies currently memoized.
    pub entries: usize,
    /// Bytes charged for them: keys, critical paths and records.
    pub bytes: usize,
    /// The byte budget `bytes` never exceeds.
    pub budget: usize,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the pipeline.
    pub misses: u64,
    /// Answers stored (a miss that failed stores nothing).
    pub inserts: u64,
    /// Entries evicted by the budget.
    pub evictions: u64,
}

/// Module-elaboration-cache statistics snapshot merged into the export
/// by the server (the cache itself lives on the session store).
#[derive(Debug, Clone, Copy, Default)]
pub struct ElabCacheStats {
    /// Elaboration units currently cached.
    pub entries: usize,
    /// Unit cap, if bounded.
    pub capacity: Option<usize>,
    /// Unit-key lookup hits.
    pub hits: u64,
    /// Unit-key lookup misses (each one elaborated a module body).
    pub misses: u64,
    /// Units evicted by the bound.
    pub evictions: u64,
    /// Modules invalidated by ECO patches (content hash changed, so the
    /// old units became unreachable).
    pub invalidations: u64,
    /// Live design sessions available as ECO bases.
    pub sessions: usize,
}

impl Metrics {
    fn g(v: &AtomicU64) -> Json {
        Json::UInt(v.load(Ordering::Relaxed))
    }

    /// The full `/metrics` document.
    ///
    /// `cache` is the serving model's path cache (`entries == misses −
    /// evictions`) and `memo` its generation's design memo (`entries ==
    /// inserts − evictions`).
    ///
    /// `prepack_bytes` is the serving model's resident inference plan
    /// ([`SnsModel::prepack_bytes`](sns_core::SnsModel::prepack_bytes)):
    /// attention's prepacked panels and the FFN's quantized weights.
    ///
    /// `models` carries one pre-assembled object per model the server
    /// has ever served (id, weight hash, [`ModelTally`] counters); it is
    /// exported verbatim under `"models"` alongside the swap counters.
    pub fn to_json(
        &self,
        cache: CacheStats,
        memo: DesignMemoStats,
        elab: ElabCacheStats,
        prepack_bytes: usize,
        models: Vec<Json>,
    ) -> Json {
        let lookups = cache.hits + cache.misses;
        let hit_rate =
            if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 };
        let elab_lookups = elab.hits + elab.misses;
        let elab_hit_rate =
            if elab_lookups == 0 { 0.0 } else { elab.hits as f64 / elab_lookups as f64 };
        Json::obj(vec![
            ("requests_total", Self::g(&self.requests_total)),
            ("predict_requests", Self::g(&self.predict_requests)),
            ("predict_ok", Self::g(&self.predict_ok)),
            ("session_predicts", Self::g(&self.session_predicts)),
            ("eco_requests", Self::g(&self.eco_requests)),
            ("sessions", Json::UInt(elab.sessions as u64)),
            (
                "responses",
                Json::obj(vec![
                    ("2xx", Self::g(&self.responses_2xx)),
                    ("4xx", Self::g(&self.responses_4xx)),
                    ("5xx", Self::g(&self.responses_5xx)),
                ]),
            ),
            ("rejected_503", Self::g(&self.rejected_503)),
            ("deadline_504", Self::g(&self.deadline_504)),
            ("conn_errors", Self::g(&self.conn_errors)),
            ("read_timeouts", Self::g(&self.read_timeouts)),
            ("panics_total", Self::g(&self.panics_total)),
            ("queue_depth", Self::g(&self.queue_depth)),
            ("in_flight", Self::g(&self.in_flight)),
            (
                "cache",
                Json::obj(vec![
                    ("entries", Json::UInt(cache.entries as u64)),
                    (
                        "capacity",
                        cache.capacity.map_or(Json::Null, |c| Json::UInt(c as u64)),
                    ),
                    ("hits", Json::UInt(cache.hits)),
                    ("misses", Json::UInt(cache.misses)),
                    ("evictions", Json::UInt(cache.evictions)),
                    ("hit_rate", Json::Num(hit_rate)),
                ]),
            ),
            (
                "elab_cache",
                Json::obj(vec![
                    ("entries", Json::UInt(elab.entries as u64)),
                    (
                        "capacity",
                        elab.capacity.map_or(Json::Null, |c| Json::UInt(c as u64)),
                    ),
                    ("hits", Json::UInt(elab.hits)),
                    ("misses", Json::UInt(elab.misses)),
                    ("evictions", Json::UInt(elab.evictions)),
                    ("invalidations", Json::UInt(elab.invalidations)),
                    ("hit_rate", Json::Num(elab_hit_rate)),
                ]),
            ),
            (
                "design_memo",
                Json::obj(vec![
                    ("entries", Json::UInt(memo.entries as u64)),
                    ("bytes", Json::UInt(memo.bytes as u64)),
                    ("budget_bytes", Json::UInt(memo.budget as u64)),
                    ("hits", Json::UInt(memo.hits)),
                    ("misses", Json::UInt(memo.misses)),
                    ("inserts", Json::UInt(memo.inserts)),
                    ("evictions", Json::UInt(memo.evictions)),
                ]),
            ),
            (
                "kernels",
                Json::obj(vec![("prepack_bytes", Json::UInt(prepack_bytes as u64))]),
            ),
            (
                "batcher",
                Json::obj(vec![
                    ("rounds", Self::g(&self.batch_rounds)),
                    ("batched_seqs", Self::g(&self.batched_seqs)),
                ]),
            ),
            ("model_swaps", Self::g(&self.model_swaps)),
            ("reload_errors", Self::g(&self.reload_errors)),
            ("models", Json::Arr(models)),
            (
                "stages_us",
                Json::obj(vec![
                    ("parse", self.stage_parse.to_json()),
                    ("sample", self.stage_sample.to_json()),
                    ("infer", self.stage_infer.to_json()),
                    ("aggregate", self.stage_aggregate.to_json()),
                    ("total", self.stage_total.to_json()),
                ]),
            ),
            ("reactor_loop_us", self.reactor_loop.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for us in [1u64, 3, 3, 100, 100, 100, 100, 5000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 8);
        // p50 falls in the 64..128 bucket → upper edge 128.
        assert_eq!(h.quantile_us(0.5), 128);
        // p99 falls in the 4096..8192 bucket → upper edge 8192.
        assert_eq!(h.quantile_us(0.99), 8192);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_u64().unwrap(), 8);
        assert_eq!(j.get("sum_us").unwrap().as_u64().unwrap(), 1 + 6 + 400 + 5000);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.99), 0);
        assert!(h.to_json().get("buckets").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn zero_and_huge_durations_do_not_panic() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(1 << 40));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn metrics_export_has_the_documented_shape() {
        let m = Metrics::default();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.stage_total.record(Duration::from_millis(2));
        let j = m.to_json(
            CacheStats { entries: 7, capacity: Some(100), hits: 3, misses: 1, evictions: 0 },
            DesignMemoStats {
                entries: 2,
                bytes: 900,
                budget: 4096,
                hits: 5,
                misses: 3,
                inserts: 3,
                evictions: 1,
            },
            ElabCacheStats {
                entries: 5,
                capacity: Some(1024),
                hits: 6,
                misses: 7,
                evictions: 2,
                invalidations: 4,
                sessions: 3,
            },
            4096,
            vec![Json::obj(vec![("id", Json::Str("m-000001".into()))])],
        );
        assert_eq!(j.get("requests_total").unwrap().as_u64().unwrap(), 3);
        let cache = j.get("cache").unwrap();
        assert_eq!(cache.get("capacity").unwrap().as_u64().unwrap(), 100);
        assert!((cache.get("hit_rate").unwrap().as_f64().unwrap() - 0.75).abs() < 1e-12);
        let elab = j.get("elab_cache").unwrap();
        assert_eq!(elab.get("entries").unwrap().as_u64().unwrap(), 5);
        assert_eq!(elab.get("invalidations").unwrap().as_u64().unwrap(), 4);
        assert!((elab.get("hit_rate").unwrap().as_f64().unwrap() - 6.0 / 13.0).abs() < 1e-12);
        assert_eq!(j.get("sessions").unwrap().as_u64().unwrap(), 3);
        let memo = j.get("design_memo").unwrap();
        for (field, want) in [
            ("entries", 2),
            ("bytes", 900),
            ("budget_bytes", 4096),
            ("hits", 5),
            ("misses", 3),
            ("inserts", 3),
            ("evictions", 1),
        ] {
            assert_eq!(memo.get(field).unwrap().as_u64().unwrap(), want, "design_memo.{field}");
        }
        let kernels = j.get("kernels").unwrap();
        assert_eq!(kernels.get("prepack_bytes").unwrap().as_u64().unwrap(), 4096);
        assert!(j.get("stages_us").unwrap().get("total").unwrap().get("count").is_ok());
        // Inference runs on the request's worker: the prime counters
        // carry no job count.
        let batcher = j.get("batcher").unwrap();
        assert!(batcher.get("rounds").is_ok() && batcher.get("coalesced_jobs").is_err());
        assert!(j.get("reactor_loop_us").unwrap().get("count").is_ok());
        assert_eq!(j.get("model_swaps").unwrap().as_u64().unwrap(), 0);
        let models = j.get("models").unwrap().as_arr().unwrap();
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].get("id").unwrap().as_str().unwrap(), "m-000001");
        // The export is valid JSON text.
        sns_rt::json::parse(&j.print()).unwrap();
    }
}
