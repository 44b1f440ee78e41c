//! A shared memo cache for per-path Circuitformer predictions.
//!
//! Regular designs sample many identical token sequences (every PE of a
//! systolic array yields the same path), and the same sequences recur
//! across designs and across the predictions of a session, so predictions
//! are memoized once on the model and reused across calls.
//!
//! The entries live in an [`sns_rt::fifo::Fifo`], which owns the bound,
//! the eviction order and the insert-time ledger. Eviction only ever
//! changes *recompute cost*, never values — the prediction function is
//! pure, so a re-computed entry is bit-identical to the evicted one. The
//! CLI leaves the cache unbounded; long-lived servers bound it
//! (`SNS_CACHE_CAP`) so memory stays flat under unbounded workload
//! diversity.
//!
//! Fill calls ([`ensure`](PathPredictionCache::ensure) /
//! [`ensure_batched`](PathPredictionCache::ensure_batched)) count over
//! *unique* sequences: one hit per unique sequence found cached, one miss
//! per sequence the fill inserts. A computed sequence that another fill
//! inserted first counts as a hit, so `len == misses − evictions` holds
//! under concurrent fills until the cache is cleared or seeded with
//! [`insert`](PathPredictionCache::insert). Point lookups via
//! [`get`](PathPredictionCache::get) are not counted (the aggregation
//! reduction reads every path through `get`, which would drown the
//! fill-level signal the counters exist to report).

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use sns_rt::fifo::Fifo;

/// A point-in-time view of a [`PathPredictionCache`]: the `cache` object
/// of the serve `/metrics` export.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Entry cap, if bounded.
    pub capacity: Option<usize>,
    /// Unique sequences fill calls found cached (or another fill
    /// inserted first).
    pub hits: u64,
    /// Unique sequences fill calls inserted.
    pub misses: u64,
    /// Entries evicted by the bound.
    pub evictions: u64,
}

/// Maps a path's vocabulary token sequence to its raw
/// `[timing, area, power]` prediction.
///
/// Interior mutability lets `&self` prediction methods fill the cache;
/// the lock is only ever taken briefly (lookups and batched inserts) —
/// the expensive Circuitformer calls happen outside it.
#[derive(Debug)]
pub struct PathPredictionCache {
    fifo: Fifo<[usize], [f64; 3]>,
    hits: AtomicU64,
    /// Fresh inserts made by [`insert`](Self::insert), which the FIFO
    /// counts but fills did not.
    seeded: AtomicU64,
}

impl Default for PathPredictionCache {
    fn default() -> Self {
        PathPredictionCache { fifo: Fifo::new(None), hits: AtomicU64::new(0), seeded: AtomicU64::new(0) }
    }
}

impl Clone for PathPredictionCache {
    fn clone(&self) -> Self {
        PathPredictionCache {
            fifo: self.fifo.clone(),
            hits: AtomicU64::new(self.hits()),
            seeded: AtomicU64::new(self.seeded.load(Ordering::Relaxed)),
        }
    }
}

impl PathPredictionCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to at most `cap` entries (FIFO eviction).
    pub fn with_capacity(cap: usize) -> Self {
        let cache = Self::default();
        cache.set_capacity(Some(cap));
        cache
    }

    /// Installs (or removes, with `None`) an entry-count bound.
    /// Shrinking below the current size evicts the oldest-inserted
    /// entries immediately.
    pub fn set_capacity(&self, cap: Option<usize>) {
        self.fifo.set_budget(cap);
    }

    /// Entries, bound and counters, with the entries, bound, misses and
    /// evictions read under one lock.
    pub fn stats(&self) -> CacheStats {
        let s = self.fifo.stats();
        CacheStats {
            entries: s.len,
            capacity: s.budget,
            hits: self.hits(),
            misses: s.inserts.saturating_sub(self.seeded.load(Ordering::Relaxed)),
            evictions: s.evictions,
        }
    }

    /// The current entry-count bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.fifo.stats().budget
    }

    /// Number of memoized sequences.
    pub fn len(&self) -> usize {
        self.fifo.stats().len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unique sequences fill calls found already cached.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Unique sequences fill calls inserted.
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.fifo.stats().evictions
    }

    /// Drops every entry (e.g. after mutating model weights). Counters
    /// are preserved — they describe lifetime traffic, not contents.
    pub fn clear(&self) {
        self.fifo.clear();
    }

    /// The memoized prediction for `tokens`, if present. Not counted in
    /// hit/miss statistics (see the module docs).
    pub fn get(&self, tokens: &[usize]) -> Option<[f64; 3]> {
        self.fifo.read().get(tokens).copied()
    }

    /// Seeds one prediction outside the fill ledger (neither a hit nor a
    /// miss). A sequence already cached keeps its value.
    pub fn insert(&self, tokens: Vec<usize>, pred: [f64; 3]) {
        if self.fifo.insert_if_absent(tokens, pred).is_none() {
            self.seeded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The unique sequences from `seqs` not currently cached, in first-
    /// occurrence order, counting one hit per unique cached sequence.
    /// The returned sequences count as misses when a fill inserts them.
    pub fn missing_unique(&self, seqs: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let cached = self.fifo.read();
        let mut seen: HashSet<&[usize]> = HashSet::new();
        let mut unique_hits = 0u64;
        let mut out = Vec::new();
        for t in seqs {
            if !seen.insert(t) {
                continue;
            }
            if cached.get(t).is_some() {
                unique_hits += 1;
            } else {
                out.push(t.clone());
            }
        }
        drop(cached);
        self.hits.fetch_add(unique_hits, Ordering::Relaxed);
        out
    }

    /// Inserts one fill's `computed` predictions under one write lock, so
    /// concurrent readers never observe a partial fill; a sequence
    /// another fill inserted first counts as a hit. Returns the misses:
    /// the sequences this call inserted.
    fn publish<'a>(&self, computed: usize, preds: impl Iterator<Item = (&'a [usize], [f64; 3])>) -> usize {
        let fresh = self.fifo.insert_all(preds);
        self.hits.fetch_add(computed.saturating_sub(fresh) as u64, Ordering::Relaxed);
        fresh
    }

    /// Ensures every sequence in `seqs` is cached, computing the missing
    /// *unique* ones with `predict` fanned out over `threads` workers.
    ///
    /// `predict` must be pure; results are inserted in one batch, so
    /// concurrent readers never observe a partially computed sequence.
    pub fn ensure<F>(&self, seqs: &[Vec<usize>], threads: usize, predict: F)
    where
        F: Fn(&[usize]) -> [f64; 3] + Sync,
    {
        let missing = self.missing_unique(seqs);
        if missing.is_empty() {
            return;
        }
        let preds = sns_rt::pool::par_map(&missing, threads, |t| predict(t));
        self.publish(missing.len(), missing.iter().map(Vec::as_slice).zip(preds));
    }

    /// Like [`ensure`](Self::ensure), but hands the missing unique
    /// sequences to `predict_batch` in length-bucketed chunks of at most
    /// `batch` sequences, fanning the chunks over `threads` workers.
    /// Returns the misses it counted: the sequences it computed, less any
    /// a concurrent fill inserted first.
    ///
    /// Sequences are grouped by exact token length (shortest bucket
    /// first, deterministically) so every chunk's packed forward sees
    /// uniform sequence shapes. `predict_batch` must be pure and return
    /// one prediction per input, each independent of its batch-mates —
    /// then the cache contents are identical to the per-sequence
    /// [`ensure`](Self::ensure) path at any `threads` or `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `predict_batch` returns the wrong number of predictions.
    pub fn ensure_batched<F>(
        &self,
        seqs: &[Vec<usize>],
        threads: usize,
        batch: usize,
        predict_batch: F,
    ) -> usize
    where
        F: Fn(&[&[usize]]) -> Vec<[f64; 3]> + Sync,
    {
        let missing = self.missing_unique(seqs);
        if missing.is_empty() {
            return 0;
        }
        let batch = batch.max(1);
        let mut buckets: BTreeMap<usize, Vec<&Vec<usize>>> = BTreeMap::new();
        for t in &missing {
            buckets.entry(t.len()).or_default().push(t);
        }
        let chunks: Vec<Vec<&Vec<usize>>> = buckets
            .into_values()
            .flat_map(|b| b.chunks(batch).map(<[_]>::to_vec).collect::<Vec<_>>())
            .collect();
        let preds = sns_rt::pool::par_map(&chunks, threads, |chunk| {
            let refs: Vec<&[usize]> = chunk.iter().map(|t| t.as_slice()).collect();
            predict_batch(&refs)
        });
        for (chunk, chunk_preds) in chunks.iter().zip(&preds) {
            assert_eq!(chunk.len(), chunk_preds.len(), "predict_batch must return one prediction per sequence");
        }
        let computed = chunks.iter().flatten().map(|t| t.as_slice());
        self.publish(missing.len(), computed.zip(preds.into_iter().flatten()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn get_after_insert() {
        let cache = PathPredictionCache::new();
        assert!(cache.is_empty());
        cache.insert(vec![1, 2, 3], [4.0, 5.0, 6.0]);
        assert_eq!(cache.get(&[1, 2, 3]), Some([4.0, 5.0, 6.0]));
        assert_eq!(cache.get(&[1, 2]), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn ensure_computes_each_unique_sequence_once() {
        let cache = PathPredictionCache::new();
        cache.insert(vec![9], [9.0, 9.0, 9.0]);
        let calls = AtomicUsize::new(0);
        let seqs = vec![vec![1], vec![2], vec![1], vec![9], vec![2], vec![1]];
        for threads in [1, 4] {
            cache.ensure(&seqs, threads, |t| {
                calls.fetch_add(1, Ordering::Relaxed);
                [t[0] as f64, 0.0, 0.0]
            });
        }
        // Only [1] and [2] were missing, and only on the first call.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(cache.get(&[1]), Some([1.0, 0.0, 0.0]));
        assert_eq!(cache.get(&[9]), Some([9.0, 9.0, 9.0]));
    }

    #[test]
    fn hit_and_miss_counters_track_unique_fill_traffic() {
        let cache = PathPredictionCache::new();
        let seqs = vec![vec![1], vec![2], vec![1]];
        cache.ensure(&seqs, 1, |t| [t[0] as f64, 0.0, 0.0]);
        // First fill: two unique sequences, both missing.
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        cache.ensure(&seqs, 1, |_| unreachable!("everything is cached"));
        // Second fill: both unique sequences hit.
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        // Point lookups are not counted.
        let _ = cache.get(&[1]);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn ensure_batched_buckets_by_length_and_respects_batch_size() {
        let cache = PathPredictionCache::new();
        cache.insert(vec![7, 7], [7.0, 7.0, 7.0]);
        // Lengths: five of len 1, two of len 3; one len-2 already cached.
        let seqs = vec![
            vec![1], vec![2], vec![3], vec![4], vec![5],
            vec![7, 7],
            vec![1, 2, 3], vec![4, 5, 6],
            vec![1], // duplicate
        ];
        let max_chunk = AtomicUsize::new(0);
        let computed = cache.ensure_batched(&seqs, 2, 2, |chunk| {
            max_chunk.fetch_max(chunk.len(), Ordering::Relaxed);
            // Every chunk is length-uniform.
            assert!(chunk.iter().all(|t| t.len() == chunk[0].len()), "mixed-length chunk");
            chunk.iter().map(|t| [t[0] as f64, t.len() as f64, 0.0]).collect()
        });
        assert!(max_chunk.load(Ordering::Relaxed) <= 2);
        // The count returned is the unique misses, duplicates and the
        // cached sequence excluded.
        assert_eq!((computed, cache.misses()), (7, 7));
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.get(&[3]), Some([3.0, 1.0, 0.0]));
        assert_eq!(cache.get(&[4, 5, 6]), Some([4.0, 3.0, 0.0]));
        assert_eq!(cache.get(&[7, 7]), Some([7.0, 7.0, 7.0])); // untouched
    }

    #[test]
    fn ensure_batched_matches_ensure_at_any_batch_size() {
        let seqs: Vec<Vec<usize>> =
            (0..20).map(|i| (0..(i % 5 + 1)).map(|j| i + j).collect()).collect();
        let predict = |t: &[usize]| [t.iter().sum::<usize>() as f64, t.len() as f64, 1.0];
        let reference = PathPredictionCache::new();
        reference.ensure(&seqs, 1, predict);
        for batch in [1, 4, 32] {
            for threads in [1, 4] {
                let cache = PathPredictionCache::new();
                cache.ensure_batched(&seqs, threads, batch, |chunk| {
                    chunk.iter().map(|t| predict(t)).collect()
                });
                assert_eq!(cache.len(), reference.len(), "batch={batch} threads={threads}");
                for s in &seqs {
                    assert_eq!(cache.get(s), reference.get(s), "batch={batch} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn capacity_bound_evicts_fifo_deterministically() {
        let cache = PathPredictionCache::with_capacity(3);
        for i in 0..5usize {
            cache.insert(vec![i], [i as f64, 0.0, 0.0]);
        }
        assert_eq!(cache.len(), 3);
        // FIFO: [0] and [1] left first.
        assert_eq!(cache.get(&[0]), None);
        assert_eq!(cache.get(&[1]), None);
        assert_eq!(cache.get(&[2]), Some([2.0, 0.0, 0.0]));
        assert_eq!(cache.get(&[4]), Some([4.0, 0.0, 0.0]));
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let cache = PathPredictionCache::new();
        for i in 0..10usize {
            cache.insert(vec![i], [i as f64, 0.0, 0.0]);
        }
        cache.set_capacity(Some(4));
        assert_eq!(cache.len(), 4);
        // Entries leave in insertion order, so the 4 newest keys remain.
        for i in 6..10usize {
            assert!(cache.get(&[i]).is_some(), "[{i}] should survive");
        }
        assert_eq!(cache.capacity(), Some(4));
        cache.set_capacity(None);
        assert_eq!(cache.capacity(), None);
    }

    #[test]
    fn eviction_changes_recompute_cost_never_values() {
        // The acceptance property of the bounded cache: with a pure
        // prediction function, a tiny cap forces recomputation but every
        // value handed back is bit-identical to the unbounded run.
        let seqs: Vec<Vec<usize>> =
            (0..30).map(|i| (0..(i % 7 + 1)).map(|j| 31 * i + j).collect()).collect();
        let predict = |t: &[usize]| {
            let s = t.iter().map(|&x| (x as f64).sin()).sum::<f64>();
            [s, s * 0.5, s * 0.25]
        };
        let unbounded = PathPredictionCache::new();
        unbounded.ensure(&seqs, 1, predict);
        let reference: Vec<[f64; 3]> = seqs.iter().map(|s| unbounded.get(s).unwrap()).collect();

        for cap in [1, 3, 7] {
            let cache = PathPredictionCache::with_capacity(cap);
            let calls = AtomicUsize::new(0);
            let mut total_calls_prev = 0;
            for round in 0..3 {
                // Feed the sequences in small windows so each window fits
                // in (or overflows) the cap; every returned value must
                // still match the unbounded reference exactly.
                for window in seqs.chunks(5) {
                    cache.ensure_batched(window, 2, 3, |chunk| {
                        calls.fetch_add(chunk.len(), Ordering::Relaxed);
                        chunk.iter().map(|t| predict(t)).collect()
                    });
                    for s in window {
                        if let Some(v) = cache.get(s) {
                            let expect = reference[seqs.iter().position(|x| x == s).unwrap()];
                            assert_eq!(v, expect, "cap={cap} round={round}");
                        }
                    }
                }
                assert!(cache.len() <= cap, "cap={cap} violated: {}", cache.len());
                let total = calls.load(Ordering::Relaxed);
                // Bounded cache recomputes: later rounds still do work.
                assert!(total >= total_calls_prev, "cap={cap}");
                total_calls_prev = total;
            }
            // With cap=1 almost everything is recomputed every round;
            // with an unbounded cache the 2nd and 3rd rounds would cost 0.
            assert!(
                calls.load(Ordering::Relaxed) > seqs.len(),
                "cap={cap}: expected recomputation beyond the first round"
            );
            assert!(cache.evictions() > 0, "cap={cap}");
        }
    }

    #[test]
    fn clone_is_a_snapshot() {
        let cache = PathPredictionCache::new();
        cache.insert(vec![1], [1.0, 1.0, 1.0]);
        let copy = cache.clone();
        cache.insert(vec![2], [2.0, 2.0, 2.0]);
        assert_eq!(copy.len(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = PathPredictionCache::new();
        cache.insert(vec![1], [1.0, 1.0, 1.0]);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn counters_reconcile_under_capacity_pressure() {
        // The /metrics identity: as long as the cache is only filled
        // through counted paths (ensure) and never cleared, every live
        // entry is exactly a miss that has not been evicted.
        let cache = PathPredictionCache::new();
        cache.set_capacity(Some(4));
        let reconcile = |tag: &str| {
            assert_eq!(
                cache.len() as u64,
                cache.misses() - cache.evictions(),
                "{tag}: len {} hits {} misses {} evictions {}",
                cache.len(),
                cache.hits(),
                cache.misses(),
                cache.evictions()
            );
            assert!(cache.len() <= 4, "{tag}: over capacity");
        };
        let predict = |t: &[usize]| [t[0] as f64, 0.0, 0.0];
        // Fill to capacity: 4 misses, nothing evicted yet.
        let first: Vec<Vec<usize>> = (0..4).map(|i| vec![i]).collect();
        cache.ensure(&first, 2, predict);
        reconcile("full");
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (0, 4, 0));
        // Overflow with three fresh sequences: FIFO evicts the oldest.
        let overflow: Vec<Vec<usize>> = (4..7).map(|i| vec![i]).collect();
        cache.ensure(&overflow, 2, predict);
        reconcile("overflow");
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (0, 7, 3));
        assert_eq!(cache.get(&[0]), None, "oldest entries leave first");
        assert_eq!(cache.get(&[6]), Some([6.0, 0.0, 0.0]));
        // Re-ensuring survivors hits without disturbing the identity.
        cache.ensure(&overflow, 1, |_| unreachable!("survivors are cached"));
        reconcile("re-ensure");
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (3, 7, 3));
        // Re-ensuring an evicted sequence is a fresh miss + eviction.
        cache.ensure(&first[..1], 1, predict);
        reconcile("evicted returns");
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (3, 8, 4));
        // Shrinking capacity evicts immediately and stays reconciled.
        cache.set_capacity(Some(2));
        reconcile("shrunk");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 6);
    }

    #[test]
    fn concurrent_duplicate_misses_keep_the_ledger() {
        // Both fills probe before either inserts (the barrier sits in the
        // predict closure), so both compute all 8 sequences. The second
        // insert of each sequence is a hit, not a second miss.
        let cache = PathPredictionCache::new();
        let seqs: Vec<Vec<usize>> = (0..8).map(|i| vec![i, i + 1]).collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    cache.ensure_batched(&seqs, 1, 8, |chunk| {
                        barrier.wait();
                        chunk.iter().map(|t| [t[0] as f64, 0.0, 0.0]).collect()
                    })
                });
            }
        });
        let (hits, misses, evictions) = (cache.hits(), cache.misses(), cache.evictions());
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.len() as u64, misses - evictions, "hits {hits} misses {misses}");
        assert_eq!(hits + misses, 16, "hits {hits} misses {misses}");
    }
}
