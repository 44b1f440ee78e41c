//! Consistent-hash routing for `sns-shard` mode.
//!
//! With N model replicas — each owning a private
//! [`PathPredictionCache`](sns_core::PathPredictionCache) — the router
//! decides which replica serves a request. The goal is *cache affinity*: repeated
//! requests for the same design must land on the same replica, so the
//! per-path predictions it computed the first time are hits the next
//! time. A round-robin or random router would spray a hot design across
//! all replicas and pay the cold-cache cost N times; the Zipf test at
//! the bottom of this file quantifies exactly that gap.
//!
//! The routing key is *content*, not connection identity: the FNV-128
//! hash (`sns_rt::hash`, the same primitive behind session base
//! tokens and ECO invalidation) of the design source + top module, or of
//! the session base token for ECO patches. Content keys make placement
//! deterministic across server restarts and identical for byte-identical
//! designs regardless of which client sends them.
//!
//! The ring is a classic consistent-hash circle with [`VNODES`] virtual
//! points per replica (smoothing the per-replica load to within a few
//! percent). Failover walks clockwise from the key's home point,
//! skipping replicas marked dead — so when a replica dies, only *its*
//! keys move (to their ring successors), and they move *back* when it
//! rejoins. Nothing else reshuffles, which is the property that keeps
//! the other replicas' caches warm through a failure.

use std::hash::Hasher;

use sns_rt::hash::{fnv128_bytes, Fnv128};

/// Virtual points per replica on the ring. 64 keeps the max/mean load
/// ratio under ~1.25 for small replica counts while the ring stays tiny
/// (N×64 points, binary-searched).
pub const VNODES: usize = 64;

/// Folds a 128-bit FNV digest to the 64-bit ring keyspace, mixing both
/// streams so designs differing only in bytes seen by one stream still
/// get distinct keys.
fn fold(digest: [u64; 2]) -> u64 {
    digest[0] ^ digest[1].rotate_left(23)
}

/// The routing key for a full-design request: content hash of the
/// Verilog source and the top module name (separated by a byte that
/// cannot appear in either, so `("ab","c")` ≠ `("a","bc")`).
pub fn design_key(verilog: &str, top: &str) -> u64 {
    let mut h = Fnv128::new();
    h.write(verilog.as_bytes());
    h.write_u8(0xff);
    h.write(top.as_bytes());
    fold(h.finish128())
}

/// The routing key for an ECO request: hash of the session base token.
/// Base tokens are themselves content-derived, so a patch series against
/// one session keeps hitting the replica that holds its warm paths.
pub fn token_key(base: &str) -> u64 {
    fold(fnv128_bytes(base.as_bytes()))
}

/// Where the ring sent a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteChoice {
    /// The chosen replica index.
    pub replica: u32,
    /// `true` when the key's home replica was dead and the request was
    /// re-homed to a ring successor.
    pub failed_over: bool,
}

/// A consistent-hash ring over `replicas` model replicas.
///
/// Construction is deterministic: the ring depends only on the replica
/// count, so two servers (or one server across restarts) with the same
/// `SNS_REPLICAS` place every key identically.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, replica)` sorted by point; binary-searched per route.
    points: Vec<(u64, u32)>,
    replicas: usize,
}

impl HashRing {
    /// Builds the ring for `replicas` replicas (at least 1 is enforced).
    pub fn new(replicas: usize) -> HashRing {
        let replicas = replicas.max(1);
        let mut points = Vec::with_capacity(replicas * VNODES);
        for r in 0..replicas {
            for v in 0..VNODES {
                // Point id hashed from (replica, vnode) — stable across
                // processes, no RandomState anywhere.
                let mut bytes = [0u8; 17];
                bytes[..8].copy_from_slice(&(r as u64).to_le_bytes());
                bytes[8] = b'#';
                bytes[9..].copy_from_slice(&(v as u64).to_le_bytes());
                points.push((fold(fnv128_bytes(&bytes)), r as u32));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0); // astronomically unlikely, but keep the walk sane
        HashRing { points, replicas }
    }

    /// Number of replicas the ring was built for.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The key's home replica, ignoring liveness. Useful for tests and
    /// for reporting where a key *would* go.
    pub fn home(&self, key: u64) -> u32 {
        let idx = self.points.partition_point(|&(p, _)| p < key) % self.points.len();
        self.points[idx].1
    }

    /// Routes `key` to its home replica, or — when `alive(home)` is
    /// false — walks the ring clockwise to the first live replica.
    /// Returns `None` when every replica is dead.
    pub fn route(&self, key: u64, alive: impl Fn(u32) -> bool) -> Option<RouteChoice> {
        let start = self.points.partition_point(|&(p, _)| p < key) % self.points.len();
        let home = self.points[start].1;
        let mut seen_dead = false;
        // Walk at most the whole ring; vnodes of dead replicas are skipped.
        for off in 0..self.points.len() {
            let (_, replica) = self.points[(start + off) % self.points.len()];
            if alive(replica) {
                return Some(RouteChoice { replica, failed_over: seen_dead && replica != home });
            }
            seen_dead = true;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_rt::StdRng;
    use sns_rt::fifo::Fifo;

    #[test]
    fn ring_construction_is_deterministic_across_instances() {
        // Two independently built rings (≈ a restart) agree point-for-point.
        let a = HashRing::new(4);
        let b = HashRing::new(4);
        assert_eq!(a.points, b.points);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let key = rng.next_u64();
            assert_eq!(a.home(key), b.home(key));
            assert_eq!(a.route(key, |_| true), b.route(key, |_| true));
        }
    }

    #[test]
    fn design_key_is_content_addressed_and_separator_safe() {
        assert_eq!(design_key("module m;", "m"), design_key("module m;", "m"));
        assert_ne!(design_key("module m;", "m"), design_key("module m;", "n"));
        assert_ne!(design_key("ab", "c"), design_key("a", "bc"));
        assert_ne!(token_key("sns-base-1"), token_key("sns-base-2"));
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        let mut rng = StdRng::seed_from_u64(42);
        let n = 40_000;
        for _ in 0..n {
            counts[ring.home(rng.next_u64()) as usize] += 1;
        }
        let mean = n / 4;
        for (r, &c) in counts.iter().enumerate() {
            assert!(
                c > mean / 2 && c < mean * 2,
                "replica {r} got {c} of {n} keys (mean {mean}) — ring badly skewed"
            );
        }
    }

    #[test]
    fn failover_moves_only_the_dead_replicas_keys_and_moves_them_back() {
        let ring = HashRing::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        let keys: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        let healthy: Vec<RouteChoice> = keys
            .iter()
            .map(|&k| ring.route(k, |_| true).unwrap())
            .collect();

        let dead = 2u32;
        for (i, &k) in keys.iter().enumerate() {
            let c = ring.route(k, |r| r != dead).unwrap();
            assert_ne!(c.replica, dead, "routed to a dead replica");
            if healthy[i].replica != dead {
                // Keys homed elsewhere must not move at all.
                assert_eq!(c, healthy[i], "healthy key reshuffled by unrelated failure");
            } else {
                assert!(c.failed_over, "re-homed key not flagged as failover");
            }
            // Revival restores the original placement exactly.
            assert_eq!(ring.route(k, |_| true).unwrap(), healthy[i]);
        }
        // All dead → None, never a panic or a dead pick.
        assert!(ring.route(keys[0], |_| false).is_none());
    }

    /// The satellite-4 experiment: under a Zipf-like request mix over
    /// more designs than one replica's cache can hold, consistent-hash
    /// routing (each design always on its home replica) must beat
    /// random routing (each design sprayed across all replicas) on
    /// aggregate cache hit rate.
    #[test]
    fn zipf_mix_consistent_hash_beats_random_routing_on_hit_rate() {
        const REPLICAS: usize = 4;
        const DESIGNS: usize = 2000;
        const CACHE_CAP: usize = 200; // 4×200 slots < 2000 designs: misses are real
        const REQUESTS: usize = 30_000;

        let ring = HashRing::new(REPLICAS);
        // Stable per-design keys (≈ content hashes of distinct sources).
        let design_keys: Vec<u64> =
            (0..DESIGNS).map(|d| design_key(&format!("module d{d}; endmodule"), "top")).collect();

        // Zipf(s≈1) sampling via inverse-CDF over precomputed weights.
        let weights: Vec<f64> = (1..=DESIGNS).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(DESIGNS);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut rng = StdRng::seed_from_u64(1234);
        let draw = |rng: &mut StdRng| -> usize {
            let u: f64 = rng.gen();
            cdf.partition_point(|&c| c < u).min(DESIGNS - 1)
        };

        // Each replica's private path cache, simulated by the same bounded
        // FIFO; every lookup of an absent key is exactly one fresh insert.
        let replicas = || (0..REPLICAS).map(|_| Fifo::<u64, ()>::new(Some(CACHE_CAP))).collect::<Vec<_>>();
        let (hashed, random) = (replicas(), replicas());
        for _ in 0..REQUESTS {
            let d = draw(&mut rng);
            let key = design_keys[d];
            let home = ring.route(key, |_| true).unwrap().replica as usize;
            hashed[home].insert_if_absent(key, ());
            let spray = rng.gen_range(0..REPLICAS);
            random[spray].insert_if_absent(key, ());
        }

        let rate = |caches: &[Fifo<u64, ()>]| {
            let misses: u64 = caches.iter().map(|c| c.stats().inserts).sum();
            1.0 - misses as f64 / REQUESTS as f64
        };
        let hashed_rate = rate(&hashed);
        let random_rate = rate(&random);
        assert!(
            hashed_rate > random_rate + 0.05,
            "consistent hashing should clearly win: hashed {hashed_rate:.3} vs random {random_rate:.3}"
        );
    }
}
