//! A portable, correctly rounded single-precision fused multiply-add.
//!
//! The GEMM kernels' contract ([`crate::gemm`]) accumulates every output
//! element as `acc = fma(a, b, acc)`: one rounding per step. Hardware
//! builds issue `vfmadd`; a build without the `fma` target feature must
//! produce the same bits without calling the platform libm (`f32::mul_add`
//! lowers to libm's `fmaf` there). [`fma32`] does it with IEEE `f64`
//! arithmetic alone:
//!
//! 1. the product of two `f32` is exact in `f64` (24 + 24 ≤ 53 significand
//!    bits, and its exponent stays inside `f64`'s normal range);
//! 2. `c` is added with round-to-odd: TwoSum yields the round-to-nearest
//!    sum and its exact error, and an inexact sum whose last bit is even
//!    moves one ulp toward the error;
//! 3. one final rounding goes to `f32`.
//!
//! Rounding to odd at 53 ≥ 2·24 + 2 bits and then to nearest at 24 bits
//! equals one rounding to nearest of the exact value (Boldo & Melquiond,
//! "Emulation of FMA and correctly rounded sums: proved algorithms using
//! rounding to odd", IEEE TC 2008), subnormal `f32` results included.

/// `a·b + c` with a single rounding to nearest, ties to even: the value
/// IEEE 754 `fusedMultiplyAdd` returns, built from `f64` `+ − ×` only.
///
/// NaN results carry no payload guarantee (as with every Rust float op).
///
/// # Example
///
/// ```rust
/// use sns_nn::fma32;
///
/// // (1 + 2⁻¹²)² = 1 + 2⁻¹¹ + 2⁻²⁴: unfused, the product rounds to
/// // 1 + 2⁻¹¹ first and the 2⁻²⁴ is lost.
/// let x = 1.0 + f32::powi(2.0, -12);
/// let c = -(1.0 + f32::powi(2.0, -11));
/// assert_eq!(fma32(x, x, c), f32::powi(2.0, -24));
/// assert_eq!(x * x + c, 0.0);
/// ```
#[inline]
pub fn fma32(a: f32, b: f32, c: f32) -> f32 {
    let p = f64::from(a) * f64::from(b);
    let c = f64::from(c);
    let s = p + c;
    if !s.is_finite() {
        // An infinite or NaN operand: finite `p` and `c` cannot overflow
        // `f64`, and `p + c` already holds IEEE's inf or NaN.
        return s as f32;
    }
    // TwoSum: `s + e == p + c` exactly.
    let cv = s - p;
    let pv = s - cv;
    let e = (p - pv) + (c - cv);
    let bits = s.to_bits();
    let odd = if e != 0.0 && bits & 1 == 0 {
        // Inexact with an even last bit: the odd neighbour on the error's
        // side. `s != 0` here, since a sum that rounds to zero is exact.
        if (e > 0.0) == (s > 0.0) {
            f64::from_bits(bits + 1)
        } else {
            f64::from_bits(bits - 1)
        }
    } else {
        s
    };
    odd as f32
}

#[cfg(test)]
mod tests {
    use super::fma32;
    use sns_rt::rng::StdRng;

    /// The host's `vfmadd` on one lane, or `None` when the CPU has no FMA.
    fn hw(a: f32, b: f32, c: f32) -> Option<f32> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("fma") {
            #[target_feature(enable = "fma")]
            unsafe fn fmadd_ss(a: f32, b: f32, c: f32) -> f32 {
                use std::arch::x86_64::*;
                _mm_cvtss_f32(_mm_fmadd_ss(_mm_set_ss(a), _mm_set_ss(b), _mm_set_ss(c)))
            }
            // SAFETY: FMA was just detected.
            return Some(unsafe { fmadd_ss(a, b, c) });
        }
        let _ = (a, b, c);
        None
    }

    fn has_fma() -> bool {
        hw(1.0, 1.0, 1.0).is_some()
    }

    /// `fma32` agrees with the hardware: same bits, or both NaN.
    fn check(a: f32, b: f32, c: f32) {
        let Some(want) = hw(a, b, c) else { return };
        let got = fma32(a, b, c);
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "fma32({a:e} [{:#x}], {b:e} [{:#x}], {c:e} [{:#x}]) = {got:e} [{:#x}], hardware {want:e} [{:#x}]",
            a.to_bits(),
            b.to_bits(),
            c.to_bits(),
            got.to_bits(),
            want.to_bits()
        );
    }

    /// 2^e for a normal exponent, built from its bits.
    fn p2(e: i32) -> f32 {
        assert!((-126..=127).contains(&e));
        f32::from_bits(((e + 127) as u32) << 23)
    }

    #[test]
    fn ties_round_to_even() {
        let x = 1.0 + p2(-12); // x² = 1 + 2⁻¹¹ + 2⁻²⁴: a tie at 1 + 2⁻¹¹
        assert_eq!(fma32(x, x, 0.0), 1.0 + p2(-11), "even neighbour below");
        // One ulp more puts the tie between an odd and the even above.
        assert_eq!(fma32(x, x, p2(-23)), 1.0 + p2(-11) + p2(-22));
        // Just above and below the tie: a double rounding through f64
        // would land on the tie and go to even; one rounding must not.
        assert_eq!(fma32(x, x, p2(-80)), 1.0 + p2(-11) + p2(-23));
        assert_eq!(fma32(x, x, -p2(-80)), 1.0 + p2(-11));
        assert_eq!(fma32(-x, x, -p2(-80)), -(1.0 + p2(-11) + p2(-23)));
        for (a, b, c) in [
            (x, x, 0.0),
            (x, x, p2(-23)),
            (x, x, p2(-80)),
            (x, x, -p2(-80)),
            (-x, x, p2(-80)),
            (x, -x, -f32::from_bits(1)),
            (3.0, 1.0 + p2(-23), -1.0),
            (1.0 + p2(-23), 1.0 + p2(-23), p2(-47)),
        ] {
            check(a, b, c);
        }
    }

    #[test]
    fn subnormal_inputs_and_results() {
        let tiny = f32::from_bits(1); // 2⁻¹⁴⁹
        let sub = f32::from_bits(0x0040_0001);
        // 0.75 · 2⁻¹⁴⁹ rounds up to 2⁻¹⁴⁹; 0.5 · 2⁻¹⁴⁹ is a tie to even 0.
        assert_eq!(fma32(tiny, 0.75, 0.0), tiny);
        assert_eq!(fma32(tiny, 0.5, 0.0).to_bits(), 0);
        assert_eq!(fma32(-tiny, 0.5, 0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(fma32(tiny, 1.5, 0.0), f32::from_bits(2));
        let cases = [
            (tiny, 0.75, 0.0),
            (tiny, 0.5, 0.0),
            (-tiny, 0.5, 0.0),
            (tiny, 1.5, tiny),
            (sub, 0.5, sub),
            (sub, -1.0 - p2(-23), sub),
            (p2(-70), 1.5 * p2(-70), tiny),
            (p2(-75), p2(-75), -tiny),
            (p2(-63), 1.0 + p2(-23), -p2(-126)),
            (f32::MIN_POSITIVE, 0.5, f32::MIN_POSITIVE * 0.25),
            (f32::MIN_POSITIVE, 1.0 - p2(-24), 0.0),
            (sub, 3.0, -f32::MIN_POSITIVE),
            (1e-20, 1e-20, 0.0),
            (-1e-25, 1e-20, tiny),
        ];
        for (a, b, c) in cases {
            check(a, b, c);
            check(b, a, c);
            check(-a, b, -c);
        }
    }

    #[test]
    fn exact_and_catastrophic_cancellation() {
        assert_eq!(fma32(3.0, 5.0, -15.0).to_bits(), 0, "exact cancellation gives +0");
        assert_eq!(fma32(-3.0, 5.0, 15.0).to_bits(), 0);
        let (a, b) = (1.0 + p2(-23), 1.0 - p2(-23));
        // a·b = 1 − 2⁻⁴⁶ exactly; the fused op keeps the residue.
        assert_eq!(fma32(a, b, -1.0), -p2(-46));
        let cases = [
            (3.0, 5.0, -15.0),
            (-3.0, 5.0, 15.0),
            (a, b, -1.0),
            (0.1, 10.0, -1.0),
            (1.0 / 3.0, 3.0, -1.0),
            (f32::MAX, 1.0, -f32::MAX),
            (1e30, 1e-30, -1.0),
            (1.0 + p2(-12), 1.0 + p2(-12), -(1.0 + p2(-11))),
        ];
        for (a, b, c) in cases {
            check(a, b, c);
            check(-a, -b, c);
            check(-a, b, -c);
            // c = −round(a·b): the rounding error of the product.
            check(a, b, -(a * b));
        }
    }

    #[test]
    fn overflow_infinities_and_nan() {
        assert_eq!(fma32(f32::MAX, 2.0, 0.0), f32::INFINITY);
        assert_eq!(fma32(f32::MAX, -2.0, 0.0), f32::NEG_INFINITY);
        assert_eq!(fma32(f32::MAX, 2.0, -f32::MAX), f32::MAX, "no intermediate overflow");
        assert!(fma32(f32::INFINITY, 0.0, 1.0).is_nan());
        assert!(fma32(f32::INFINITY, 1.0, f32::NEG_INFINITY).is_nan());
        assert!(fma32(f32::NAN, 1.0, 1.0).is_nan());
        assert_eq!(fma32(1.0, 1.0, f32::INFINITY), f32::INFINITY);
        // The overflow threshold MAX + ½ulp is a tie; MAX's significand is
        // odd, so it rounds to even: infinity.
        let half_ulp = p2(103);
        let cases = [
            (f32::MAX, 2.0, 0.0),
            (f32::MAX, -2.0, 0.0),
            (f32::MAX, 2.0, -f32::MAX),
            (f32::MAX, 1.0, half_ulp),
            (f32::MAX, 1.0, half_ulp * (1.0 - p2(-24))),
            (f32::MAX, 1.0, f32::MAX),
            (p2(64), p2(64), -f32::MAX),
            (p2(100), p2(100), 0.0),
            (f32::INFINITY, 0.0, 1.0),
            (f32::INFINITY, 1.0, f32::NEG_INFINITY),
            (f32::INFINITY, -1.0, f32::NEG_INFINITY),
            (f32::NAN, 1.0, 1.0),
            (1.0, f32::NAN, f32::INFINITY),
            (1.0, 1.0, f32::NAN),
            (1.0, 1.0, f32::INFINITY),
            (0.0, f32::INFINITY, f32::INFINITY),
        ];
        for (a, b, c) in cases {
            check(a, b, c);
            check(b, a, c);
        }
    }

    #[test]
    fn signed_zeros() {
        let neg0 = (-0.0f32).to_bits();
        assert_eq!(fma32(-0.0, 2.0, 0.0).to_bits(), 0);
        assert_eq!(fma32(0.0, -2.0, -0.0).to_bits(), neg0);
        assert_eq!(fma32(-0.0, -2.0, -0.0).to_bits(), 0);
        assert_eq!(fma32(0.0, 0.0, -0.0).to_bits(), 0);
        assert_eq!(fma32(2.0, -3.0, 6.0).to_bits(), 0);
        assert_eq!(fma32(-0.0, 5.0, -0.0).to_bits(), neg0);
        for z in [0.0f32, -0.0] {
            for x in [2.0f32, -2.0, f32::from_bits(1), f32::MAX, 0.0, -0.0] {
                for c in [0.0f32, -0.0] {
                    check(z, x, c);
                    check(x, z, c);
                }
            }
        }
    }

    /// One random `f32` of either sign with a biased exponent drawn from
    /// `elo..ehi` (0 is zero or subnormal, 255 inf or NaN).
    fn draw(rng: &mut StdRng, elo: u32, ehi: u32) -> f32 {
        let sign = rng.next_u32() & 0x8000_0000;
        let exp = elo + rng.next_u32() % (ehi - elo);
        let mant = rng.next_u32() & 0x007f_ffff;
        f32::from_bits(sign | exp << 23 | mant)
    }

    #[test]
    fn random_triples_match_the_hardware() {
        if !has_fma() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xF3A);
        for i in 0..1_200_000u32 {
            let (a, b, c) = match i % 6 {
                // The whole finite range, subnormals included.
                0 => (draw(&mut rng, 0, 255), draw(&mut rng, 0, 255), draw(&mut rng, 0, 255)),
                // Products and addends of similar size.
                1 => (draw(&mut rng, 100, 154), draw(&mut rng, 100, 154), draw(&mut rng, 70, 184)),
                // Cancellation against the rounded product, a few ulps off.
                2 => {
                    let (a, b) = (draw(&mut rng, 60, 194), draw(&mut rng, 60, 194));
                    let c = -(a * b);
                    let jitter = rng.next_u32() % 9;
                    (a, b, f32::from_bits(c.to_bits().wrapping_add(jitter).wrapping_sub(4)))
                }
                // Subnormal products and addends.
                3 => (draw(&mut rng, 30, 90), draw(&mut rng, 30, 90), draw(&mut rng, 0, 8)),
                // Near overflow.
                4 => (draw(&mut rng, 190, 255), draw(&mut rng, 120, 140), draw(&mut rng, 240, 255)),
                // Raw bit patterns: infinities and NaNs too.
                _ => (
                    f32::from_bits(rng.next_u32()),
                    f32::from_bits(rng.next_u32()),
                    f32::from_bits(rng.next_u32()),
                ),
            };
            check(a, b, c);
        }
    }
}
