//! Scoped data-parallelism on `std::thread` alone.
//!
//! Two order-preserving primitives cover every parallel site in the
//! workspace:
//!
//! * [`par_map`] — map a function over items with dynamic (work-stealing)
//!   scheduling; results come back in input order, so callers observe
//!   exactly the serial semantics.
//! * [`par_map_chunks`] — map over contiguous chunks, for callers that
//!   reduce per-worker state (e.g. private gradient buffers).
//!
//! Thread counts default to [`default_threads`], which honours the
//! `SNS_THREADS` environment variable. The pool knobs (`SNS_THREADS`,
//! `SNS_SYNTH_THREADS`, `SNS_BATCH`) are read from the environment once
//! per process, on first use; callers that need other values pass them
//! explicitly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The pool knobs as resolved from the environment.
struct Knobs {
    threads: usize,
    synth_threads: usize,
    batch: usize,
}

/// Resolves the knobs on first call; every later call returns the same
/// values, whatever the environment holds by then.
fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let positive = |name| crate::env_knob::<usize>(name).filter(|&n| n >= 1);
        let threads = positive("SNS_THREADS").unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
        });
        Knobs {
            threads,
            synth_threads: positive("SNS_SYNTH_THREADS").unwrap_or(threads),
            batch: positive("SNS_BATCH").unwrap_or(32),
        }
    })
}

/// The default worker count: `SNS_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism, capped at 16.
pub fn default_threads() -> usize {
    knobs().threads
}

/// Worker count for the virtual synthesizer's internal parallelism:
/// `SNS_SYNTH_THREADS` if set to a positive integer, otherwise
/// [`default_threads`]. Split out from the inference knob so a serving
/// deployment can give synthesis (label generation, conformance soaks) a
/// different budget than model inference. Synthesis results are
/// bit-identical at any value — this is purely a throughput knob.
pub fn synth_threads() -> usize {
    knobs().synth_threads
}

/// The default inference batch size: `SNS_BATCH` if set to a positive
/// integer, otherwise 32.
///
/// This is the number of sequences packed into one batched Circuitformer
/// forward pass. Predictions are bit-identical at any value (batching is
/// per-row / per-span exact), so it is purely a throughput knob.
pub fn default_batch() -> usize {
    knobs().batch
}

/// Maps `f` over `items` on up to `threads` workers, returning results in
/// input order.
///
/// Items are claimed one at a time from a shared counter, so uneven item
/// costs (long vs. short circuit paths) balance automatically. With
/// `threads <= 1`, runs inline with no thread machinery at all — callers
/// get identical results either way as long as `f` is pure. A panic in
/// `f` resumes on the caller with its own payload, as it would inline.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut got: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        got.push((i, f(&items[i])));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut indexed: Vec<(usize, R)> =
        per_worker.drain(..).flatten().collect();
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Splits `items` into at most `threads` contiguous chunks and maps `f`
/// over each chunk on its own worker, returning per-chunk results in
/// chunk order.
///
/// The chunking is a pure function of `(items.len(), threads)`, so a
/// caller that merges the per-chunk results with an associative,
/// commutative-enough operation (summed gradients, concatenation) gets
/// results independent of scheduling.
pub fn par_map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> =
            items.chunks(chunk).map(|part| s.spawn(|| f(part))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let parallel = par_map(&items, threads, |&x| x * x);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn par_map_balances_uneven_work() {
        // One expensive item among many cheap ones; just assert
        // correctness (scheduling is an implementation detail).
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 4, |&x| {
            if x == 0 {
                (0..200_000u64).fold(0, |a, b| a ^ b) + x
            } else {
                x
            }
        });
        assert_eq!(out[1..], items[1..]);
    }

    #[test]
    fn par_map_chunks_covers_every_item_once() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 5, 16] {
            let sums = par_map_chunks(&items, threads, |part| part.iter().sum::<usize>());
            assert!(sums.len() <= threads.max(1));
            assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
        }
    }

    #[test]
    fn chunk_concatenation_matches_serial() {
        let items: Vec<i32> = (0..57).collect();
        let chunks = par_map_chunks(&items, 4, |part| {
            part.iter().map(|&x| x * 2).collect::<Vec<_>>()
        });
        let flat: Vec<i32> = chunks.into_iter().flatten().collect();
        let serial: Vec<i32> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(flat, serial);
    }

    #[test]
    fn worker_panics_reach_the_caller_with_their_own_payload() {
        let items: Vec<u32> = (0..16).collect();
        let mapped = std::panic::catch_unwind(|| {
            par_map(&items, 4, |&x| if x == 5 { panic!("item 5 is hostile") } else { x })
        });
        let payload = mapped.expect_err("par_map must propagate the worker panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 5 is hostile"));

        let chunked = std::panic::catch_unwind(|| {
            par_map_chunks(&items, 4, |part| {
                if part.contains(&9) {
                    panic!("chunk with 9 is hostile");
                }
                part.len()
            })
        });
        let payload = chunked.expect_err("par_map_chunks must propagate the worker panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk with 9 is hostile"));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn default_batch_is_positive() {
        assert!(default_batch() >= 1);
    }
}
