//! A small timing harness for the micro-benchmarks: warmup, then a fixed
//! number of timed samples, reported as min/median/mean per-call times.
//!
//! The min is the best estimate of the kernel's intrinsic cost (least
//! scheduler noise); the median shows the typical run, and the mean next
//! to it shows how far slow samples pull. No external
//! dependencies, so the benches build with the rest of the hermetic
//! workspace.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sns_rt::json::Json;

/// Timed samples per benchmark.
const SAMPLES: usize = 30;
/// Target wall time for one sample (sets the per-sample iteration count).
const SAMPLE_TARGET: Duration = Duration::from_millis(2);
/// Warmup budget before any sample is recorded.
const WARMUP: Duration = Duration::from_millis(100);

/// One benchmark's timing summary (per-call durations).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Calls batched into each timed sample.
    pub iters_per_sample: usize,
    /// Fastest sample.
    pub min: Duration,
    /// Median sample.
    pub median: Duration,
    /// Mean over all samples.
    pub mean: Duration,
}

impl BenchResult {
    /// A CSV row matching [`csv_header`].
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.name,
            self.iters_per_sample,
            self.min.as_nanos(),
            self.median.as_nanos(),
            self.mean.as_nanos()
        )
    }

    /// The machine-readable form of this result, for the `BENCH_*.json`
    /// artifacts tracked across PRs.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("iters_per_sample", Json::UInt(self.iters_per_sample as u64)),
            ("min_ns", Json::UInt(self.min.as_nanos() as u64)),
            ("median_ns", Json::UInt(self.median.as_nanos() as u64)),
            ("mean_ns", Json::UInt(self.mean.as_nanos() as u64)),
        ])
    }
}

/// Bundles a slice of results into one JSON report object.
pub fn results_to_json(suite: &str, results: &[BenchResult]) -> Json {
    Json::obj(vec![
        ("suite", Json::Str(suite.to_string())),
        ("results", Json::Arr(results.iter().map(BenchResult::to_json).collect())),
    ])
}

/// The header for [`BenchResult::csv_row`] artifacts.
pub fn csv_header() -> &'static str {
    "bench,iters_per_sample,min_ns,median_ns,mean_ns"
}

/// Formats a per-call duration with an appropriate unit.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Times `f`: warms up for ~100 ms, picks an iteration count so each
/// sample lasts ~2 ms, then records `SAMPLES` (30) samples and reports the
/// min, median and mean per-call time. The result of every call goes
/// through [`black_box`], so the work cannot be optimized away.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> BenchResult {
    // Warmup doubles as calibration: estimate the per-call cost.
    let warm_start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || warm_start.elapsed() < WARMUP {
        black_box(f());
        calls += 1;
        if warm_start.elapsed() >= 4 * WARMUP {
            break;
        }
    }
    let per_call_ns = (warm_start.elapsed().as_nanos() / u128::from(calls)).max(1);
    let iters = usize::try_from((SAMPLE_TARGET.as_nanos() / per_call_ns).clamp(1, 100_000))
        .expect("iteration count fits usize");

    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        samples.push(t.elapsed() / iters as u32);
    }
    samples.sort_unstable();
    let result = BenchResult {
        name: name.to_string(),
        iters_per_sample: iters,
        min: samples[0],
        median: samples[SAMPLES / 2],
        mean: samples.iter().sum::<Duration>() / SAMPLES as u32,
    };
    println!(
        "  {:<32} min {:>12}   median {:>12}   mean {:>12}   ({} iters/sample)",
        result.name,
        fmt_duration(result.min),
        fmt_duration(result.median),
        fmt_duration(result.mean),
        result.iters_per_sample
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_times() {
        // The bound goes through black_box so the fold cannot const-fold
        // to a free call (whose per-call time rounds to 0 ns in release).
        let r = bench("spin", || (0..black_box(100u64)).fold(0, |a, b| a ^ b.wrapping_mul(31)));
        assert!(r.min <= r.median && r.min <= r.mean);
        assert!(r.min.as_nanos() > 0);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn csv_row_matches_header() {
        let r = bench("tiny", || 1 + 1);
        assert_eq!(csv_header().split(',').count(), r.csv_row().split(',').count());
    }

    #[test]
    fn fmt_duration_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(120)), "120 ns");
        assert!(fmt_duration(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(20)).ends_with(" s"));
    }
}
