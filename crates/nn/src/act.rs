//! Elementwise activations with exact backward passes.
//!
//! Every tanh here — [`Tanh`], [`Gelu`] and the GRU gates — goes through
//! the crate-owned [`tanh`], never the platform libm: it is built from
//! IEEE `+ × ÷` and `clamp` only, so the scalar loop and every SIMD lane
//! round identically (the GEMM's one-contract-per-lane rule applied to
//! activations, without its fused multiply-add) and predictions do not
//! depend on the host's `tanhf`.

use crate::isa::Isa;
#[cfg(target_arch = "x86_64")]
use crate::isa::Level;
use crate::mat::Mat;

/// Rectified linear unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Relu;

/// Hyperbolic tangent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tanh;

/// Logistic sigmoid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sigmoid;

/// GELU (tanh approximation, as used by Transformer FFNs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gelu;

/// Forward context for activations: the saved pre-activation input.
#[derive(Debug, Clone)]
pub struct ActCtx {
    x: Mat,
}

impl Relu {
    /// `max(0, x)`.
    pub fn forward(&self, x: &Mat) -> (Mat, ActCtx) {
        (self.infer(x), ActCtx { x: x.clone() })
    }

    /// Inference-only forward (no saved context).
    pub fn infer(&self, x: &Mat) -> Mat {
        x.map(|v| v.max(0.0))
    }

    /// Backward pass.
    pub fn backward(&self, ctx: &ActCtx, dy: &Mat) -> Mat {
        let mask = ctx.x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        dy.hadamard(&mask)
    }
}

impl Tanh {
    /// `tanh(x)`.
    pub fn forward(&self, x: &Mat) -> (Mat, ActCtx) {
        (self.infer(x), ActCtx { x: x.clone() })
    }

    /// Inference-only forward (no saved context).
    pub fn infer(&self, x: &Mat) -> Mat {
        x.map(tanh)
    }

    /// Backward pass.
    pub fn backward(&self, ctx: &ActCtx, dy: &Mat) -> Mat {
        let d = ctx.x.map(|v| {
            let t = tanh(v);
            1.0 - t * t
        });
        dy.hadamard(&d)
    }
}

impl Sigmoid {
    /// `1 / (1 + e^{-x})`.
    pub fn forward(&self, x: &Mat) -> (Mat, ActCtx) {
        (self.infer(x), ActCtx { x: x.clone() })
    }

    /// Inference-only forward (no saved context).
    pub fn infer(&self, x: &Mat) -> Mat {
        x.map(sigmoid)
    }

    /// Backward pass.
    pub fn backward(&self, ctx: &ActCtx, dy: &Mat) -> Mat {
        let d = ctx.x.map(|v| {
            let s = sigmoid(v);
            s * (1.0 - s)
        });
        dy.hadamard(&d)
    }
}

/// Scalar logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

impl Gelu {
    /// GELU via the tanh approximation.
    pub fn forward(&self, x: &Mat) -> (Mat, ActCtx) {
        (self.infer(x), ActCtx { x: x.clone() })
    }

    /// Inference-only forward (no saved context).
    pub fn infer(&self, x: &Mat) -> Mat {
        let mut y = x.clone();
        gelu_in_place(y.as_mut_slice());
        y
    }

    /// Backward pass (derivative of the tanh approximation).
    pub fn backward(&self, ctx: &ActCtx, dy: &Mat) -> Mat {
        let d = ctx.x.map(gelu_deriv);
        dy.hadamard(&d)
    }
}

/// Where [`tanh`] saturates: the rational form below rounds to exactly
/// `1.0f32` here and rises monotonically up to it.
const TANH_CLAMP: f32 = 9.0;

/// Hyperbolic tangent, owned by this crate.
///
/// Eigen's degree-13/6 float minimax rational `x·P(x²)/Q(x²)` on `x`
/// clamped to ±`TANH_CLAMP` (9), evaluated in f64 from IEEE `+ × ÷` only
/// (no `mul_add`, no libm) and rounded once to f32. The single rounding
/// makes it odd, bounded by 1 and monotone, with max abs error 2.4e-7
/// against the true tanh; an f32 quotient of two separately rounded
/// polynomials wobbles by up to 8 ulp near saturation. NaN stays NaN.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let x = f64::from(x.clamp(-TANH_CLAMP, TANH_CLAMP));
    let x2 = x * x;
    let mut p = x2 * -2.760_768_477_423_55e-16 + 2.000_187_904_824_77e-13;
    p = x2 * p + -8.604_671_522_137_35e-11;
    p = x2 * p + 5.122_297_090_371_14e-8;
    p = x2 * p + 1.485_722_357_179_79e-5;
    p = x2 * p + 6.372_619_288_754_36e-4;
    p = x2 * p + 4.893_524_558_917_86e-3;
    let mut q = x2 * 1.198_258_394_667_02e-6 + 1.185_347_056_866_54e-4;
    q = x2 * q + 2.268_434_632_439e-3;
    q = x2 * q + 4.893_525_185_543_85e-3;
    (x * p / q) as f32
}

/// Scalar GELU (tanh approximation).
#[inline(always)]
pub(crate) fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(GELU_C * (x + 0.044715 * x * x * x)))
}

fn gelu_deriv(x: f32) -> f32 {
    let u = GELU_C * (x + 0.044715 * x * x * x);
    let t = tanh(u);
    let du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// `x[i] = gelu(x[i])`, bit-identical to mapping the scalar GELU. Runs
/// the loop's build for the host's [`Isa`] level, chosen at runtime like
/// the GEMM micro-kernel.
pub fn gelu_in_place(x: &mut [f32]) {
    gelu_rows_at(Isa::host(), x);
}

/// [`gelu_rows`] through its build for `isa`: AVX-512F runs the f64
/// rational on eight f64 lanes per `zmm`, AVX on four per `ymm`, the
/// generic build on the baseline target's lanes. Every build performs the
/// same IEEE operations per element in the same order, so the same bits.
fn gelu_rows_at(isa: Isa, x: &mut [f32]) {
    // SAFETY (both arms): holding `isa` proves the CPU runs its level.
    #[cfg(target_arch = "x86_64")]
    match isa.level() {
        Level::Avx512 => return unsafe { gelu_rows_avx512(x) },
        Level::Avx => return unsafe { gelu_rows_avx(x) },
        Level::Generic => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    gelu_rows(x);
}

/// The same loop as [`gelu_rows`], compiled with AVX-512F enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gelu_rows_avx512(x: &mut [f32]) {
    gelu_rows(x);
}

/// The same loop as [`gelu_rows`], compiled with AVX enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn gelu_rows_avx(x: &mut [f32]) {
    gelu_rows(x);
}

/// GELU over `x`.
#[inline(always)]
fn gelu_rows(x: &mut [f32]) {
    for v in x {
        *v = gelu(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_fd(fwd: impl Fn(&Mat) -> Mat, bwd: impl Fn(&Mat, &Mat) -> Mat) {
        // Avoid x = 0 exactly: ReLU is not differentiable there.
        let x = Mat::from_rows(&[&[-2.0, -0.5, 0.05, 0.7, 3.0]]);
        let dy = Mat::from_rows(&[&[1.0, 1.0, 1.0, 1.0, 1.0]]);
        let dx = bwd(&x, &dy);
        let eps = 1e-3;
        for c in 0..5 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let fd = (fwd(&xp).get(0, c) - fwd(&xm).get(0, c)) / (2.0 * eps);
            assert!((fd - dx.get(0, c)).abs() < 2e-2, "col {c}: fd={fd} got={}", dx.get(0, c));
        }
    }

    #[test]
    fn relu_matches_finite_difference() {
        check_fd(
            |x| Relu.forward(x).0,
            |x, dy| {
                let (_, c) = Relu.forward(x);
                Relu.backward(&c, dy)
            },
        );
    }

    #[test]
    fn tanh_matches_finite_difference() {
        check_fd(
            |x| Tanh.forward(x).0,
            |x, dy| {
                let (_, c) = Tanh.forward(x);
                Tanh.backward(&c, dy)
            },
        );
    }

    #[test]
    fn sigmoid_matches_finite_difference() {
        check_fd(
            |x| Sigmoid.forward(x).0,
            |x, dy| {
                let (_, c) = Sigmoid.forward(x);
                Sigmoid.backward(&c, dy)
            },
        );
    }

    #[test]
    fn gelu_matches_finite_difference() {
        check_fd(
            |x| Gelu.forward(x).0,
            |x, dy| {
                let (_, c) = Gelu.forward(x);
                Gelu.backward(&c, dy)
            },
        );
    }

    /// The grid of the accuracy and monotonicity tests: [-10, 10] in
    /// steps of 1e-4.
    fn grid() -> impl Iterator<Item = f32> {
        (0..=200_000).map(|i| -10.0 + i as f32 * 1e-4)
    }

    #[test]
    fn tanh_is_odd_bounded_and_monotone() {
        let mut prev = f32::NEG_INFINITY;
        for x in grid() {
            let t = tanh(x);
            assert_eq!(tanh(-x).to_bits(), (-t).to_bits(), "odd at {x}");
            assert!(t.abs() <= 1.0, "unbounded at {x}: {t}");
            assert!(t >= prev, "decreasing at {x}: {prev} -> {t}");
            prev = t;
        }
    }

    #[test]
    fn tanh_edge_values() {
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(TANH_CLAMP), 1.0);
        assert_eq!(tanh(-TANH_CLAMP), -1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn tanh_matches_f64_within_1e_6() {
        let worst = grid()
            .map(|x| (f64::from(tanh(x)) - f64::from(x).tanh()).abs())
            .fold(0.0, f64::max);
        assert!(worst <= 1e-6, "max abs error {worst:e}");
    }

    #[test]
    fn gelu_matches_f64_within_2e_6() {
        let c = f64::from(GELU_C);
        let worst = grid()
            .map(|x| {
                let x64 = f64::from(x);
                let want = 0.5 * x64 * (1.0 + (c * (x64 + 0.044715 * x64 * x64 * x64)).tanh());
                (f64::from(gelu(x)) - want).abs()
            })
            .fold(0.0, f64::max);
        assert!(worst <= 2e-6, "max abs error {worst:e}");
    }

    /// Seeded random values plus the awkward ones: signed zeros,
    /// subnormals, and both sides of the clamp point for `x` itself and
    /// for the tanh argument inside GELU.
    fn kernel_inputs() -> Vec<f32> {
        let mut rng = sns_rt::rng::StdRng::seed_from_u64(7);
        let mut xs: Vec<f32> = (0..4099).map(|_| rng.gen_range(-12.0f32..12.0)).collect();
        let tiny = f32::from_bits(1);
        xs.extend([0.0, -0.0, tiny, -tiny, f32::MIN_POSITIVE / 3.0, -f32::MIN_POSITIVE / 3.0]);
        xs.extend([1e-20, -1e-20, 1e30, -1e30, f32::MAX, f32::MIN]);
        // The smallest x whose GELU tanh argument reaches the clamp.
        let (mut lo, mut hi) = (0.0f32, TANH_CLAMP);
        while lo.next_up() < hi {
            let mid = 0.5 * (lo + hi);
            if GELU_C * (mid + 0.044715 * mid * mid * mid) < TANH_CLAMP {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        for edge in [TANH_CLAMP, hi] {
            for e in [edge, -edge] {
                xs.extend([e.next_down(), e, e.next_up()]);
            }
        }
        xs
    }

    /// Every ISA build the host runs, called directly (dispatch alone
    /// would test only the widest), against the scalar GELU.
    #[test]
    fn gelu_kernel_matches_scalar_bitwise() {
        let xs = kernel_inputs();
        let want: Vec<u32> = xs.iter().map(|&v| gelu(v).to_bits()).collect();
        let mut got = xs.clone();
        gelu_in_place(&mut got);
        assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
        for isa in Isa::supported() {
            let mut got = xs.clone();
            gelu_rows_at(isa, &mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{}", isa.name());
        }
    }

    #[test]
    fn gelu_known_values() {
        assert!(gelu(0.0).abs() < 1e-7);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!(gelu(-5.0).abs() < 1e-3);
    }
}
