//! The per-replica micro-batcher.
//!
//! Each `/predict` handler discovers which of its path token sequences
//! are missing from its replica's [`PathPredictionCache`] and submits
//! them here instead of running inference itself. The batcher thread
//! serves submissions **FIFO in bounded fill rounds**: it pops the
//! oldest job, re-filters its sequences against the cache (anything an
//! earlier round already computed is dropped), keeps popping queued
//! jobs the same way until the round holds about one `SNS_BATCH` worth
//! of unique sequences, fills them with one length-bucketed,
//! `SNS_THREADS`-parallel pass — then opens every drained job's gate.
//!
//! ## Why bounded rounds, not drain-everything rounds
//!
//! An earlier design drained the whole queue each round and computed the
//! *unbounded union* of every queued job's missing sequences before
//! opening any gate. That coalesces aggressively, but couples every
//! waiter's latency to the **largest** round: at concurrency 16 on one
//! core, a request that needed 2 sequences would wait behind a union of
//! hundreds, and tail latency collapsed (the measured k=16 p99 was ~7×
//! the k=4 p99 — see `EXPERIMENTS.md`). Bounding each round at one
//! batch keeps the wait of any request proportional to *its own*
//! missing work plus at most one well-packed forward, while
//! cross-request de-duplication still happens two ways: jobs drained
//! into the same round share a deduplicated union, and jobs left queued
//! re-filter against the cache when their turn comes — for a hot design
//! the followers' rounds shrink to nothing and their gates open without
//! any inference at all. The prepacked small-batch GEMM path (PR 7)
//! makes the bounded packs cheap, which is what makes this trade
//! profitable.
//!
//! Because per-sequence predictions are independent of their batch-mates
//! (see `Circuitformer::predict_batch`), round sizing changes throughput
//! only, never a single bit of any response.
//!
//! [`PathPredictionCache`]: sns_core::PathPredictionCache

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use sns_core::SnsModel;

use crate::metrics::{Metrics, ReplicaStats};
use crate::server::lock_or_recover;

/// Completion gate a handler blocks on after submitting.
#[derive(Debug, Default)]
pub struct Gate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    /// Blocks until the submission's fill round completes, or until
    /// `deadline` passes. Returns `true` when the round completed.
    ///
    /// A `false` return does not cancel the round — the cache still gets
    /// filled (useful work for future requests); only this caller stops
    /// waiting.
    pub fn wait(&self, deadline: Option<Instant>) -> bool {
        let mut done = lock_or_recover(&self.done);
        loop {
            if *done {
                return true;
            }
            match deadline {
                None => {
                    done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return false;
                    }
                    done = self
                        .cv
                        .wait_timeout(done, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    fn open(&self) {
        *lock_or_recover(&self.done) = true;
        self.cv.notify_all();
    }
}

struct Job {
    missing: Vec<Vec<usize>>,
    gate: Arc<Gate>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// Owns one replica's batcher thread; dropped by the server on shutdown.
pub struct MicroBatcher {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Starts the batcher thread for `model`, filling the model's cache
    /// with `threads`-parallel, `batch`-packed rounds. Round counters go
    /// to both the global `metrics` and this replica's `stats`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the thread cannot be spawned.
    pub fn start(
        model: Arc<SnsModel>,
        threads: usize,
        batch: usize,
        metrics: Arc<Metrics>,
        stats: Arc<ReplicaStats>,
    ) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("sns-batcher".into())
            .spawn(move || Self::run(&worker_shared, &model, threads, batch, &metrics, &stats))?;
        Ok(MicroBatcher { shared, worker: Some(worker) })
    }

    fn run(
        shared: &Shared,
        model: &SnsModel,
        threads: usize,
        batch: usize,
        metrics: &Metrics,
        stats: &ReplicaStats,
    ) {
        let round_cap = batch.max(1);
        loop {
            let first: Job = {
                let mut queue = lock_or_recover(&shared.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = shared.cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Assemble one bounded round: the oldest job, plus further
            // queued jobs until the round holds about one batch of unique
            // sequences. Each job is re-filtered against the cache first —
            // earlier rounds (often for the same hot design) may have
            // computed its sequences while it sat in the queue — and the
            // union is deduplicated so shared sequences compute once.
            let mut gates = vec![first.gate];
            let mut union: Vec<Vec<usize>> = first
                .missing
                .into_iter()
                .filter(|seq| model.cache().get(seq).is_none())
                .collect();
            let mut seen: HashSet<Vec<usize>> = union.iter().cloned().collect();
            while union.len() < round_cap {
                let Some(job) = lock_or_recover(&shared.queue).pop_front() else { break };
                for seq in job.missing {
                    if model.cache().get(&seq).is_none() && seen.insert(seq.clone()) {
                        union.push(seq);
                    }
                }
                gates.push(job.gate);
            }
            if !union.is_empty() {
                metrics.batch_rounds.fetch_add(1, Ordering::Relaxed);
                metrics.batched_seqs.fetch_add(union.len() as u64, Ordering::Relaxed);
                stats.batch_rounds.fetch_add(1, Ordering::Relaxed);
                stats.batched_seqs.fetch_add(union.len() as u64, Ordering::Relaxed);
                model
                    .cache()
                    .compute_batched(union, threads, batch, |chunk| model.predict_path_batch(chunk));
            }
            metrics.coalesced_jobs.fetch_add(gates.len() as u64, Ordering::Relaxed);
            stats.coalesced_jobs.fetch_add(gates.len() as u64, Ordering::Relaxed);
            for gate in gates {
                gate.open();
            }
        }
    }

    /// Queues `missing` (token sequences absent from the cache, as
    /// reported by `PathPredictionCache::missing_unique`) for a FIFO
    /// fill round. Returns the gate to wait on; an empty submission gets
    /// an already-open gate.
    pub fn submit(&self, missing: Vec<Vec<usize>>) -> Arc<Gate> {
        let gate = Arc::new(Gate::default());
        if missing.is_empty() {
            gate.open();
            return gate;
        }
        lock_or_recover(&self.shared.queue).push_back(Job { missing, gate: Arc::clone(&gate) });
        self.shared.cv.notify_one();
        gate
    }

    /// Jobs currently waiting in the queue (exported per replica as
    /// `queue_depth` in `/metrics`).
    pub fn queue_depth(&self) -> usize {
        lock_or_recover(&self.shared.queue).len()
    }

}

impl Drop for MicroBatcher {
    /// Finishes queued rounds, then stops the batcher thread.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
