//! The design memo: one model generation's answers to flat `/predict`
//! bodies, keyed by their exact `(verilog, top)`.
//!
//! A generation's model sits behind an `Arc` and is never mutated, so
//! its answer to a given source is a pure function of that source. A
//! repeat is answered from the memo without parsing, sampling or
//! touching the path cache. The memo lives on the generation's
//! `ModelEntry`: a hot-swap installs new entries with empty memos, so no
//! answer can outlive the weights that computed it.
//!
//! Keys are compared as whole strings in a std `HashMap` with its keyed
//! default hasher. An unkeyed content hash (FNV) is never treated as
//! identity: a crafted collision would otherwise return another design's
//! answer, and colliding keys could flood one bucket.
//!
//! The memo is bounded by bytes, not entries, because one body may carry
//! a source of up to `max_body` bytes: it is an [`sns_rt::fifo::Fifo`]
//! charging each entry its [`entry_bytes`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sns_core::DesignPrediction;
use sns_rt::fifo::Fifo;

use crate::metrics::DesignMemoStats;

/// Bytes the memo may hold for one model generation: room for
/// sixteen sources at the default 1 MiB body limit, or thousands of
/// typical ones.
pub(crate) const DESIGN_MEMO_BYTES: usize = 16 << 20;

/// The exact identity of a flat body: `top`'s byte length, a `:`, `top`,
/// then the source. The length prefix makes the encoding injective, so
/// two bodies share a key only if both strings are equal.
pub(crate) fn memo_key(verilog: &str, top: &str) -> String {
    format!("{}:{top}{verilog}", top.len())
}

/// The bytes an entry is charged against the budget: its key, the
/// critical-path names and the fixed-size prediction record.
fn entry_bytes(key: &str, pred: &DesignPrediction) -> usize {
    let names: usize =
        pred.critical_path.iter().map(|s| s.len() + std::mem::size_of::<String>()).sum();
    key.len() + std::mem::size_of::<DesignPrediction>() + names
}

/// A byte-bounded map from [`memo_key`] to the prediction it got.
#[derive(Debug)]
pub(crate) struct DesignMemo {
    budget: usize,
    fifo: Fifo<str, Arc<DesignPrediction>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DesignMemo {
    /// An empty memo that holds at most `budget` bytes.
    pub(crate) fn new(budget: usize) -> Self {
        DesignMemo {
            budget,
            fifo: Fifo::with_cost(Some(budget), |key, pred| entry_bytes(key, pred)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The stored prediction for `key`, counting one hit or one miss.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<DesignPrediction>> {
        let found = self.fifo.read().get(key).cloned();
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores `pred` under `key`, evicting the oldest entries past the
    /// budget. A key already present (two concurrent misses on one
    /// design computed the same answer) and an entry larger than the
    /// whole budget are not stored.
    pub(crate) fn insert(&self, key: String, pred: DesignPrediction) {
        if entry_bytes(&key, &pred) <= self.budget {
            self.fifo.insert_if_absent(key, Arc::new(pred));
        }
    }

    /// A point-in-time view for `/metrics`.
    pub(crate) fn stats(&self) -> DesignMemoStats {
        let s = self.fifo.stats();
        DesignMemoStats {
            entries: s.len,
            bytes: s.cost,
            budget: self.budget,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: s.inserts,
            evictions: s.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn pred(timing_ps: f64, path: &[&str]) -> DesignPrediction {
        DesignPrediction {
            timing_ps,
            area_um2: 1.0,
            power_mw: 2.0,
            path_count: 3,
            critical_path: path.iter().map(|s| s.to_string()).collect(),
            runtime: Duration::from_micros(5),
        }
    }

    #[test]
    fn keys_are_exact_and_injective() {
        assert_ne!(memo_key("module m; endmodule", "m"), memo_key("module m; endmodule", "n"));
        // Moving bytes between `top` and the source changes the key.
        assert_ne!(memo_key("bc", "a"), memo_key("c", "ab"));
        assert_eq!(memo_key("bc", "a"), "1:abc");
    }

    #[test]
    fn hits_and_misses_are_counted_per_lookup() {
        let memo = DesignMemo::new(1 << 20);
        assert!(memo.get("k").is_none());
        memo.insert("k".into(), pred(7.0, &["a", "b"]));
        let got = memo.get("k").expect("stored");
        assert_eq!(got.timing_ps.to_bits(), 7.0f64.to_bits());
        assert_eq!(got.critical_path, ["a", "b"]);
        // A second insert of a present key keeps the first answer.
        memo.insert("k".into(), pred(9.0, &[]));
        assert_eq!(memo.get("k").expect("stored").timing_ps.to_bits(), 7.0f64.to_bits());
        let s = memo.stats();
        assert_eq!((s.entries, s.hits, s.misses, s.inserts, s.evictions), (1, 2, 1, 1, 0));
        assert_eq!(s.bytes, entry_bytes("k", &pred(7.0, &["a", "b"])));
    }

    #[test]
    fn a_small_budget_evicts_fifo() {
        let one = entry_bytes("k0", &pred(0.0, &["v"]));
        let memo = DesignMemo::new(3 * one);
        for i in 0..5 {
            memo.insert(format!("k{i}"), pred(i as f64, &["v"]));
            let s = memo.stats();
            assert!(s.bytes <= s.budget, "bytes {} over budget {}", s.bytes, s.budget);
            assert_eq!(s.entries as u64, s.inserts - s.evictions);
        }
        // The two oldest went first; the three newest remain, in order.
        assert!(memo.get("k0").is_none() && memo.get("k1").is_none());
        for i in 2..5 {
            assert_eq!(memo.get(&format!("k{i}")).expect("kept").timing_ps, i as f64);
        }
        let s = memo.stats();
        assert_eq!((s.entries, s.inserts, s.evictions, s.bytes), (3, 5, 2, 3 * one));

        // An entry bigger than the whole budget is never stored and
        // evicts nothing.
        memo.insert("x".repeat(4 * one), pred(1.0, &[]));
        let s = memo.stats();
        assert_eq!((s.entries, s.inserts, s.evictions), (3, 5, 2));
    }
}
