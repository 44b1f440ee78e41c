//! One bounded FIFO map: the eviction policy and ledger behind every
//! bounded cache in the workspace (the path-prediction cache, the
//! elaboration-unit cache, the ECO session store and the serve design
//! memo).
//!
//! A [`Fifo`] owns a map, the insertion order of its keys, a running
//! cost against an optional budget, and its counters. Every entry costs
//! one unit unless the owner supplies a cost function (the design memo
//! charges bytes). Each mutation runs to completion under one write lock
//! and ends by evicting the oldest entries until the cost fits the
//! budget, so a newcomer that alone exceeds the budget is evicted too.
//!
//! The ledger counts at insert time: `inserts` counts fresh keys,
//! `evictions` the entries the budget pushed out and `cleared` the
//! entries [`clear`](Fifo::clear) dropped. An insert that finds its key
//! present changes nothing and counts nothing. Every [`FifoStats`]
//! snapshot therefore has `len == inserts − evictions − cleared` and
//! `cost ≤ budget`, also under concurrent inserts of one key.
//!
//! The map and the order share each key through an [`Arc`], so a key is
//! stored once. A panic in a caller's `Hash`, `Eq` or cost function
//! leaves at worst an entry that is never evicted, a cost that stays too
//! high (it evicts sooner) or a size that is stale until the next
//! mutation, so the lock recovers from poisoning.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A point-in-time view of one [`Fifo`], read under one lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoStats {
    /// Entries held.
    pub len: usize,
    /// Their summed cost.
    pub cost: usize,
    /// The cost bound, `None` when unbounded.
    pub budget: Option<usize>,
    /// Fresh keys inserted.
    pub inserts: u64,
    /// Entries the budget evicted.
    pub evictions: u64,
    /// Entries dropped by [`Fifo::clear`].
    pub cleared: u64,
}

#[derive(Debug)]
struct Inner<K: ?Sized, V> {
    map: HashMap<Arc<K>, V>,
    /// Every key in `map`, oldest insert first.
    order: VecDeque<Arc<K>>,
    /// Kept current by [`Inner::settle`], which ends every mutation.
    stats: FifoStats,
}

impl<K: ?Sized + Hash + Eq, V> Inner<K, V> {
    /// Inserts `value` under `key` unless the key is present; returns the
    /// present value, or `None` after a fresh insert and its evictions.
    fn insert_if_absent<Q>(&mut self, key: Q, value: V, cost_of: fn(&K, &V) -> usize) -> Option<&V>
    where
        Q: Borrow<K> + Into<Arc<K>>,
    {
        if self.map.contains_key(key.borrow()) {
            return self.map.get(key.borrow());
        }
        let cost = cost_of(key.borrow(), &value);
        let key: Arc<K> = key.into();
        self.map.insert(Arc::clone(&key), value);
        self.order.push_back(key);
        self.stats.cost = self.stats.cost.saturating_add(cost);
        self.stats.inserts += 1;
        self.settle(cost_of);
        None
    }

    /// Evicts the oldest entries until the cost fits the budget, then
    /// records the size.
    fn settle(&mut self, cost_of: fn(&K, &V) -> usize) {
        let s = &mut self.stats;
        while s.budget.is_some_and(|budget| s.cost > budget) {
            let Some(oldest) = self.order.pop_front() else { break };
            if let Some(value) = self.map.remove(&oldest) {
                s.evictions += 1;
                s.cost = s.cost.saturating_sub(cost_of(&oldest, &value));
            }
        }
        s.len = self.map.len();
    }
}

/// A thread-safe map with FIFO eviction under a cost budget.
///
/// Lookups go through [`read`](Fifo::read); a present value is returned
/// by clone, so values are meant to be cheap handles (`Arc`s or small
/// `Copy` records).
#[derive(Debug)]
pub struct Fifo<K: ?Sized, V> {
    inner: RwLock<Inner<K, V>>,
    cost: fn(&K, &V) -> usize,
}

/// A read lock on a [`Fifo`]: every lookup through it sees one state.
pub struct FifoRead<'a, K: ?Sized, V>(RwLockReadGuard<'a, Inner<K, V>>);

impl<K: ?Sized + Hash + Eq, V> FifoRead<'_, K, V> {
    /// The value under `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.map.get(key)
    }
}

impl<K: ?Sized, V> Fifo<K, V> {
    fn read_inner(&self) -> RwLockReadGuard<'_, Inner<K, V>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_inner(&self) -> RwLockWriteGuard<'_, Inner<K, V>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current size, cost, budget and counters, read under one lock.
    pub fn stats(&self) -> FifoStats {
        self.read_inner().stats
    }
}

impl<K: ?Sized + Hash + Eq, V> Fifo<K, V> {
    /// An empty FIFO in which every entry costs one unit, so `budget` is
    /// an entry count.
    pub fn new(budget: Option<usize>) -> Self {
        Self::with_cost(budget, |_, _| 1)
    }

    /// An empty FIFO charging each entry `cost(key, value)` against
    /// `budget`.
    pub fn with_cost(budget: Option<usize>, cost: fn(&K, &V) -> usize) -> Self {
        let stats = FifoStats { budget, ..FifoStats::default() };
        Fifo { inner: RwLock::new(Inner { map: HashMap::new(), order: VecDeque::new(), stats }), cost }
    }

    /// A read lock for lookups.
    pub fn read(&self) -> FifoRead<'_, K, V> {
        FifoRead(self.read_inner())
    }

    /// Inserts `value` under `key` unless the key is present, then evicts
    /// past the budget. Returns the present value, which is kept; `None`
    /// means this call inserted (and counted) the key.
    pub fn insert_if_absent<Q>(&self, key: Q, value: V) -> Option<V>
    where
        Q: Borrow<K> + Into<Arc<K>>,
        V: Clone,
    {
        self.write_inner().insert_if_absent(key, value, self.cost).cloned()
    }

    /// [`insert_if_absent`](Self::insert_if_absent) for every entry, in
    /// order, under one write lock, so readers see all of them or none.
    /// Returns how many keys this call inserted.
    pub fn insert_all<Q>(&self, entries: impl IntoIterator<Item = (Q, V)>) -> usize
    where
        Q: Borrow<K> + Into<Arc<K>>,
    {
        let mut g = self.write_inner();
        let mut fresh = 0;
        for (key, value) in entries {
            if g.insert_if_absent(key, value, self.cost).is_none() {
                fresh += 1;
            }
        }
        fresh
    }

    /// Stores `value` under `key`. A present key keeps its place in the
    /// eviction order and counts no insert; an absent key is inserted
    /// as by [`insert_if_absent`](Self::insert_if_absent).
    pub fn replace<Q>(&self, key: Q, value: V)
    where
        Q: Borrow<K> + Into<Arc<K>>,
    {
        let mut g = self.write_inner();
        let new_cost = (self.cost)(key.borrow(), &value);
        let Some(slot) = g.map.get_mut(key.borrow()) else {
            g.insert_if_absent(key, value, self.cost);
            return;
        };
        let old_cost = (self.cost)(key.borrow(), slot);
        *slot = value;
        g.stats.cost = g.stats.cost.saturating_sub(old_cost).saturating_add(new_cost);
        g.settle(self.cost);
    }

    /// Installs a new budget (`None` removes it), evicting the oldest
    /// entries at once if the cost no longer fits.
    pub fn set_budget(&self, budget: Option<usize>) {
        let mut g = self.write_inner();
        g.stats.budget = budget;
        g.settle(self.cost);
    }

    /// Drops every entry, counting them in `cleared`. The other counters
    /// and the budget are kept.
    pub fn clear(&self) {
        let mut g = self.write_inner();
        g.stats.cleared += g.map.len() as u64;
        g.stats.cost = 0;
        g.map.clear();
        g.order.clear();
        g.settle(self.cost);
    }
}

impl<K: ?Sized, V: Clone> Clone for Fifo<K, V> {
    /// A snapshot: the entries, order, budget and counters at the time of
    /// the call, sharing the keys.
    fn clone(&self) -> Self {
        let g = self.read_inner();
        let inner = Inner { map: g.map.clone(), order: g.order.clone(), stats: g.stats };
        Fifo { inner: RwLock::new(inner), cost: self.cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    /// The keys oldest first, with their values.
    fn contents<V: Clone>(fifo: &Fifo<str, V>) -> Vec<(String, V)> {
        let g = fifo.read_inner();
        g.order.iter().map(|k| (k.to_string(), g.map[k].clone())).collect()
    }

    fn keys<V: Clone>(fifo: &Fifo<str, V>) -> Vec<String> {
        contents(fifo).into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn an_entry_count_budget_keeps_the_newest() {
        let fifo: Fifo<str, u32> = Fifo::new(Some(3));
        for (i, k) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            assert_eq!(fifo.insert_if_absent(k, i as u32), None);
        }
        assert_eq!(keys(&fifo), ["c", "d", "e"]);
        assert_eq!(fifo.read().get("a"), None);
        assert_eq!(fifo.read().get("d"), Some(&3));
        let s = fifo.stats();
        assert_eq!((s.len, s.cost, s.budget, s.inserts, s.evictions), (3, 3, Some(3), 5, 2));
    }

    #[test]
    fn a_byte_budget_charges_each_entry_its_cost() {
        // Each entry costs its key length plus its value.
        let fifo: Fifo<str, usize> = Fifo::with_cost(Some(10), |k, v| k.len() + v);
        fifo.insert_if_absent("ab", 2); // 4
        fifo.insert_if_absent("c", 4); // 5, total 9
        assert_eq!(fifo.stats().cost, 9);
        fifo.insert_if_absent("d", 0); // 1, total 10: fits exactly
        assert_eq!(keys(&fifo), ["ab", "c", "d"]);
        fifo.insert_if_absent("e", 3); // 4, total 14: "ab" goes
        assert_eq!(keys(&fifo), ["c", "d", "e"]);
        let s = fifo.stats();
        assert_eq!((s.len, s.cost, s.inserts, s.evictions), (3, 10, 4, 1));
        // One entry over the whole budget evicts everything, itself last.
        fifo.insert_if_absent("big", 20);
        let s = fifo.stats();
        assert_eq!((s.len, s.cost, s.inserts, s.evictions), (0, 0, 5, 5));
    }

    #[test]
    fn a_zero_budget_evicts_the_newcomer_and_counts_it() {
        let fifo: Fifo<str, u32> = Fifo::new(Some(0));
        assert_eq!(fifo.insert_if_absent("a", 1), None);
        assert_eq!(fifo.read().get("a"), None);
        let s = fifo.stats();
        assert_eq!((s.len, s.cost, s.inserts, s.evictions), (0, 0, 1, 1));
    }

    #[test]
    fn insert_if_absent_keeps_the_first_value_and_counts_no_insert() {
        let fifo: Fifo<str, u32> = Fifo::new(None);
        assert_eq!(fifo.insert_if_absent("k", 1), None);
        assert_eq!(fifo.insert_if_absent("k", 2), Some(1));
        assert_eq!(fifo.insert_all([("k", 3), ("j", 4), ("j", 5)]), 1);
        assert_eq!(contents(&fifo), [("k".to_string(), 1), ("j".to_string(), 4)]);
        let s = fifo.stats();
        assert_eq!((s.len, s.inserts, s.evictions), (2, 2, 0));
    }

    #[test]
    fn replace_keeps_the_fifo_position() {
        let fifo: Fifo<str, usize> = Fifo::with_cost(Some(3), |_, v| *v);
        fifo.replace("a", 1);
        fifo.replace("b", 1);
        fifo.replace("a", 2); // replaced in place: "a" is still oldest
        assert_eq!(contents(&fifo), [("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(fifo.stats().inserts, 2);
        // "c" pushes the cost to 4: the oldest, "a", goes.
        fifo.replace("c", 1);
        assert_eq!(keys(&fifo), ["b", "c"]);
        // A costlier replacement evicts from the front, not the key.
        fifo.replace("c", 3);
        assert_eq!(contents(&fifo), [("c".to_string(), 3)]);
        let s = fifo.stats();
        assert_eq!((s.len, s.cost, s.inserts, s.evictions), (1, 3, 3, 2));
    }

    #[test]
    fn shrinking_the_budget_evicts_oldest_first() {
        let fifo: Fifo<str, u32> = Fifo::new(None);
        for k in ["d", "a", "c", "b"] {
            fifo.insert_if_absent(k, 0);
        }
        fifo.set_budget(Some(2));
        assert_eq!(keys(&fifo), ["c", "b"]);
        fifo.set_budget(None);
        fifo.insert_if_absent("e", 0);
        assert_eq!(keys(&fifo), ["c", "b", "e"]);
        let s = fifo.stats();
        assert_eq!((s.len, s.budget, s.inserts, s.evictions), (3, None, 5, 2));
    }

    #[test]
    fn clear_keeps_the_counters() {
        let fifo: Fifo<str, u32> = Fifo::new(Some(2));
        for k in ["a", "b", "c"] {
            fifo.insert_if_absent(k, 0);
        }
        fifo.clear();
        let s = fifo.stats();
        assert_eq!((s.len, s.cost, s.budget, s.inserts, s.evictions, s.cleared), (0, 0, Some(2), 3, 1, 2));
        // A cleared key inserts fresh.
        assert_eq!(fifo.insert_if_absent("b", 1), None);
        assert_eq!(fifo.stats().inserts, 4);
    }

    #[test]
    fn clone_is_a_snapshot() {
        let fifo: Fifo<str, u32> = Fifo::new(None);
        fifo.insert_if_absent("a", 1);
        let copy = fifo.clone();
        fifo.insert_if_absent("b", 2);
        assert_eq!(keys(&copy), ["a"]);
        assert_eq!(copy.stats().inserts, 1);
    }

    /// The FIFO against a plain oldest-first list over seeded random
    /// operations: same entries in the same order, same counters, and
    /// the ledger identity and budget after every operation.
    #[test]
    fn random_operations_match_a_reference_list_and_keep_the_ledger() {
        fn cost(k: &str, v: &u64) -> usize {
            (k.len() + *v as usize) % 4
        }
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let fifo: Fifo<str, u64> = Fifo::with_cost(Some(6), cost);
            let mut list: Vec<(String, u64)> = Vec::new();
            let mut budget = Some(6usize);
            let (mut inserts, mut evictions, mut cleared) = (0u64, 0u64, 0u64);
            let total = |list: &[(String, u64)]| list.iter().map(|(k, v)| cost(k, v)).sum::<usize>();
            for step in 0..2000 {
                let key = "k".repeat(rng.gen_range(1..9usize));
                let value = rng.gen_range(0..5u64);
                let mut fresh = |list: &mut Vec<(String, u64)>, key: &str, value: u64| {
                    if list.iter().all(|(k, _)| k != key) {
                        list.push((key.to_string(), value));
                        inserts += 1;
                        return true;
                    }
                    false
                };
                match rng.gen_range(0..100u32) {
                    0..=39 => {
                        let present = list.iter().find(|(k, _)| *k == key).map(|e| e.1);
                        assert_eq!(fifo.insert_if_absent(key.as_str(), value), present);
                        fresh(&mut list, &key, value);
                    }
                    40..=54 => {
                        let batch: Vec<(String, u64)> = (0..rng.gen_range(0..4usize))
                            .map(|i| ("k".repeat(rng.gen_range(1..9usize)), i as u64))
                            .collect();
                        let mut n = 0;
                        for (k, v) in &batch {
                            if fresh(&mut list, k, *v) {
                                n += 1;
                            }
                            while budget.is_some_and(|b| total(&list) > b) {
                                list.remove(0);
                                evictions += 1;
                            }
                        }
                        assert_eq!(fifo.insert_all(batch), n);
                    }
                    55..=74 => {
                        fifo.replace(key.as_str(), value);
                        match list.iter_mut().find(|(k, _)| *k == key) {
                            Some(slot) => slot.1 = value,
                            None => {
                                fresh(&mut list, &key, value);
                            }
                        }
                    }
                    75..=89 => {
                        let want = list.iter().find(|(k, _)| *k == key).map(|e| e.1);
                        assert_eq!(fifo.read().get(&key).copied(), want);
                    }
                    90..=97 => {
                        budget = match rng.gen_range(0..4u32) {
                            0 => None,
                            _ => Some(rng.gen_range(0..12usize)),
                        };
                        fifo.set_budget(budget);
                    }
                    _ => {
                        fifo.clear();
                        cleared += list.len() as u64;
                        list.clear();
                    }
                }
                while budget.is_some_and(|b| total(&list) > b) {
                    list.remove(0);
                    evictions += 1;
                }
                let s = fifo.stats();
                let tag = format!("seed {seed} step {step}");
                assert_eq!(s.len as u64, s.inserts - s.evictions - s.cleared, "{tag}");
                assert!(s.budget.is_none_or(|b| s.cost <= b), "{tag}: {s:?}");
                assert_eq!(contents(&fifo), list, "{tag}");
                assert_eq!(
                    s,
                    FifoStats { len: list.len(), cost: total(&list), budget, inserts, evictions, cleared },
                    "{tag}"
                );
            }
        }
    }
}
