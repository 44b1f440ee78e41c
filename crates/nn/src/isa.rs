//! The instruction-set level the GEMM and GELU kernels run at.
//!
//! Each hot kernel has a portable build and, on x86-64, builds compiled
//! under `#[target_feature]` for AVX with FMA and for AVX-512F. [`Isa::host`]
//! picks the widest level the CPU reports through `is_x86_feature_detected!`
//! (std caches the probe, so a call is one atomic load); there is no knob.
//! Both x86 levels require FMA: their GEMM builds issue `vfmadd`, and an
//! AVX host without FMA runs the portable level. Every level performs the
//! same IEEE operations per element in the same order (the FMA contract in
//! [`crate::gemm`]; the portable level's fma is [`crate::fma32`], correctly
//! rounded like the hardware's), so the level changes speed, never bits.

/// A kernel ISA level this CPU can run.
///
/// The field is private to this module: the only ways to obtain an `Isa`
/// are [`Isa::host`] and (in tests) `Isa::supported`, which both probe the
/// CPU first. Holding one is therefore proof that its `#[target_feature]`
/// builds are safe to call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa(Level);

/// The levels, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum Level {
    /// Portable Rust, auto-vectorized for the baseline target.
    Generic,
    /// 256-bit `ymm` builds (`avx` with `fma`).
    Avx,
    /// 512-bit `zmm` builds (`avx512f`; its `fma`-feature builds too).
    Avx512,
}

impl Isa {
    /// The widest level this CPU supports: AVX-512F with FMA, then AVX
    /// with FMA, then the portable build.
    pub fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa(Level::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx") {
                return Isa(Level::Avx);
            }
        }
        Isa(Level::Generic)
    }

    /// Every level this CPU supports, narrowest first, so a test can run
    /// each build directly instead of only the one dispatch would choose.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Isa> {
        let host = Isa::host().0;
        [Level::Generic, Level::Avx, Level::Avx512]
            .into_iter()
            .filter(|&l| l as u8 <= host as u8)
            .map(Isa)
            .collect()
    }

    /// The level, for dispatch inside this crate.
    pub(crate) fn level(self) -> Level {
        self.0
    }

    /// The level's name as bench artifacts record it: `"avx512f"`,
    /// `"avx"` or `"generic"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Generic => "generic",
            Level::Avx => "avx",
            Level::Avx512 => "avx512f",
        }
    }
}
