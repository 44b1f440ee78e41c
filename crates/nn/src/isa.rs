//! The instruction-set levels the GEMM, GELU and integer FFN kernels run
//! at.
//!
//! Each hot f32 kernel has a portable build and, on x86-64, builds compiled
//! under `#[target_feature]` for AVX with FMA and for AVX-512F. The integer
//! kernels of [`crate::qgemm`] have a scalar build and builds for AVX2
//! (`vpmaddwd` on operands widened to i16) and for AVX-512 VNNI with
//! AVX-512BW (`vpdpbusd`). [`Isa::host`] picks the widest level of each
//! kind the CPU reports through `is_x86_feature_detected!` (std caches the
//! probe, so a call is a few atomic loads); there is no knob.
//!
//! Both x86 float levels require FMA: their GEMM builds issue `vfmadd`, and
//! an AVX host without FMA runs the portable level. Every float level
//! performs the same IEEE operations per element in the same order (the
//! FMA contract in [`crate::gemm`]; the portable level's fma is
//! [`crate::fma32`], correctly rounded like the hardware's), and every
//! integer level computes the same exact i32 sums, so a level changes
//! speed, never bits.

/// The kernel ISA levels this CPU can run: one for the f32 kernels, one
/// for the integer kernels.
///
/// The fields are private to this module: the only ways to obtain an
/// `Isa` are [`Isa::host`] and (in tests) `Isa::supported`, which both
/// probe the CPU first. Holding one is therefore proof that its
/// `#[target_feature]` builds are safe to call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    float: Level,
    int: IntLevel,
}

/// The f32 levels, narrowest first.
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

/// The integer (u8 × s8 → i32) levels, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum IntLevel {
    /// The portable scalar loop, which is also the reference.
    Scalar,
    /// `ymm` builds (`avx2`): `vpmaddwd` on i16-widened operands.
    Avx2,
    /// `zmm` builds (`avx512vnni` + `avx512bw`): `vpdpbusd`.
    Vnni,
}

impl Isa {
    /// The widest levels this CPU supports. Float: AVX-512F with FMA, then
    /// AVX with FMA, then the portable build. Integer: AVX-512 VNNI with
    /// AVX-512BW, then AVX2, then the scalar loop.
    pub fn host() -> Isa {
        Isa { float: host_float(), int: host_int() }
    }

    /// Every level this CPU supports, narrowest first, so a test can run
    /// each build directly instead of only the one dispatch would choose.
    /// Entry `i` caps both kinds at their `i`-th level (portable/scalar,
    /// AVX/AVX2, AVX-512F/VNNI), or at the host's level if that is lower;
    /// the last entry is the host's pair.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Isa> {
        let host = Isa::host();
        let mut levels: Vec<Isa> = [
            (Level::Generic, IntLevel::Scalar),
            (Level::Avx, IntLevel::Avx2),
            (Level::Avx512, IntLevel::Vnni),
        ]
        .into_iter()
        .filter(|&(l, _)| l as u8 <= host.float as u8)
        .map(|(float, int)| Isa {
            float,
            int: if int as u8 <= host.int as u8 { int } else { host.int },
        })
        .collect();
        if let Some(last) = levels.last_mut() {
            last.int = host.int;
        }
        levels
    }

    /// The f32 level, for dispatch inside this crate.
    pub(crate) fn level(self) -> Level {
        self.float
    }

    /// The integer level, for dispatch inside this crate.
    pub(crate) fn int_level(self) -> IntLevel {
        self.int
    }

    /// The f32 level's name as bench artifacts record it: `"avx512f"`,
    /// `"avx"` or `"generic"`.
    pub fn name(self) -> &'static str {
        match self.float {
            Level::Generic => "generic",
            Level::Avx => "avx",
            Level::Avx512 => "avx512f",
        }
    }

    /// The integer level's name as bench artifacts record it:
    /// `"avx512vnni"`, `"avx2"` or `"scalar"`.
    pub fn int_name(self) -> &'static str {
        match self.int {
            IntLevel::Scalar => "scalar",
            IntLevel::Avx2 => "avx2",
            IntLevel::Vnni => "avx512vnni",
        }
    }
}

fn host_float() -> Level {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Level::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return Level::Avx;
        }
    }
    Level::Generic
}

fn host_int() -> IntLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            return IntLevel::Vnni;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return IntLevel::Avx2;
        }
    }
    IntLevel::Scalar
}
