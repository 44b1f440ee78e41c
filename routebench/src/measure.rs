//! Statistics, digests and host probes shared by every workload.

use std::time::Instant;

use sns_core::DesignPrediction;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentiles the tail metric may report, highest first.
const TAIL_PERCENTILES: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// The tail latency: the highest percentile of [`TAIL_PERCENTILES`] with
/// at least ten samples beyond it (nearest rank). Returns
/// `(percentile, samples beyond it, value)`.
pub fn tail(xs: &[f64]) -> (f64, usize, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (p, n - rank, v[rank - 1]);
        }
    }
    // Fewer than eleven samples: the median is all there is.
    (50.0, n / 2, median(&v))
}

/// 64-bit FNV-1a, fed incrementally.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds in every output field of a prediction except its wall-clock
    /// runtime.
    pub fn prediction(&mut self, p: &DesignPrediction) {
        self.u64(p.timing_ps.to_bits());
        self.u64(p.area_um2.to_bits());
        self.u64(p.power_mw.to_bits());
        self.u64(p.path_count as u64);
        self.u64(p.critical_path.len() as u64);
        for v in &p.critical_path {
            self.str(v);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Whether two predictions agree bit for bit on every output field
/// (the wall-clock `runtime` is not an output).
pub fn same_prediction(a: &DesignPrediction, b: &DesignPrediction) -> bool {
    a.timing_ps.to_bits() == b.timing_ps.to_bits()
        && a.area_um2.to_bits() == b.area_um2.to_bits()
        && a.power_mw.to_bits() == b.power_mw.to_bits()
        && a.path_count == b.path_count
        && a.critical_path == b.critical_path
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host probe: nanoseconds per step of a dependent pointer chase over a
/// 16 MiB single-cycle permutation. It runs no program code; it records
/// how fast this host's memory system was just before a timed phase so
/// that drift between runs can be told apart from program changes. It
/// is a diagnostic and never rescales any metric.
pub fn chase_ns() -> f64 {
    const SLOTS: usize = 1 << 21;
    const STEPS: usize = 1 << 21;
    // Sattolo's shuffle with a fixed LCG: one cycle through all slots.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..SLOTS).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % i;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    let ns = t.elapsed().as_nanos() as f64 / STEPS as f64;
    std::hint::black_box(at);
    ns
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
