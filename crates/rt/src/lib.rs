//! # sns-rt
//!
//! The hermetic runtime substrate of the SNS workspace. Everything the
//! other crates used to pull from crates.io lives here, implemented on
//! `std` alone so the whole workspace builds offline:
//!
//! * [`rng`] — a seedable xoshiro256** PRNG with the narrow `StdRng`-style
//!   surface the codebase uses (`seed_from_u64`, `gen_range`, uniform and
//!   normal draws, `shuffle`).
//! * [`json`] — a small JSON value type plus parser and printer, used for
//!   model serialization (`sns-nn`, `sns-circuitformer`, `sns-core`).
//! * [`fifo`] — [`fifo::Fifo`], the bounded FIFO map with an insert-time
//!   ledger behind every cache, memo and session store in the workspace.
//! * [`pool`] — a scoped thread pool with an order-preserving `par_map`,
//!   used by training minibatches, dataset labeling, and the
//!   parallel path-inference hot path. Thread count defaults honour the
//!   `SNS_THREADS` environment variable, read once per process.
//! * [`net`] — readiness-based I/O on `poll(2)` (poll sets, a self-pipe
//!   waker, non-blocking fd control), the substrate under the
//!   `sns-serve` event-driven reactor. Unix-only.
//! * [`fsx`] — atomic file writes (temp + `rename(2)`), the publication
//!   protocol for the on-disk model zoo shared by the training daemon
//!   and serving processes.
//! * [`hash`] — [`hash::Fnv128`], the one FNV-1a content hasher, a
//!   [`std::hash::Hasher`].

pub mod fifo;
pub mod fsx;
pub mod hash;
pub mod json;
pub mod net;
pub mod pool;
pub mod rng;

pub use json::{parse as parse_json, Json, JsonError};
pub use pool::{default_threads, par_map};
pub use rng::{SliceRandom, StdRng};

/// Reads environment knob `name` parsed as `T`, ignoring surrounding
/// whitespace. `None` when it is unset or does not parse; callers apply
/// their own range filter and default.
pub fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}
