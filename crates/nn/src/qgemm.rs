//! Integer GEMM kernels for FFN inference: u8 activations × s8 weights
//! with exact i32 sums.
//!
//! Weights are quantized once, when a model packs its inference plan
//! ([`PackedS8::quantize`]): one symmetric scale per output column maps
//! the column onto `[-127, 127]`, and each column's `Σw` is kept as i32.
//! Activations are quantized per row at run time ([`QuantRows`]): the row's
//! range, widened to include 0, maps onto `[0, 255]` with a zero point
//! `z`, so 0 is exact. Each row's parameters come from that row alone,
//! which keeps a sequence's outputs independent of whatever else shares
//! its batch. The kernels compute `Σ x_u8·w_s8`, and the epilogue
//! subtracts `z·Σw` and dequantizes:
//!
//! ```text
//! acc  = Σ_l x_u8[l]·w_s8[l][j] − z·Σ_l w_s8[l][j]         (i32, exact)
//! y[j] = (f32(acc)·s_x)·s_w[j] + b[j]                       (multiply, then add)
//! ```
//!
//! Every partial sum is bounded by `K·255·127`, so with `K ≤` [`MAX_K`]
//! no i32 operation overflows and the sums are exact. Integer addition is
//! associative, so the kernels may split and order the reduction however
//! suits the hardware: every [`Isa`] integer level gives the same bits.
//! The kernels, chosen per call by [`Isa::host`]:
//!
//! * **AVX-512 VNNI** (`avx512vnni` + `avx512bw`): `vpdpbusd`, the
//!   non-saturating form, on `8 × 32` tiles of sixteen `zmm` accumulators.
//!   Each step broadcasts four bytes of a row against one `[16][4]` weight
//!   group per 16 columns.
//! * **AVX2**: `vpmaddwd` on operands widened to i16 (`u8·s8` pair sums
//!   reach `2·255·127 = 64770`, past i16, so the saturating `vpmaddubsw`
//!   is never used), on `4 × 8` tiles; each column's two pair-sum lanes
//!   are added once the reduction is done.
//! * **Scalar**: a plain loop over the same layout, which is also the
//!   reference the other levels are tested against.
//!
//! Weights are packed in 16-column panels of `[⌈K/4⌉][16][4]` bytes. K is
//! padded to a multiple of four with zero weights and zero activations,
//! so padding contributes exactly 0.

use crate::act::gelu;
use crate::isa::Isa;
#[cfg(target_arch = "x86_64")]
use crate::isa::{IntLevel, Level};
use crate::mat::Mat;

/// The largest reduction depth the integer kernels accept:
/// `K·255·127 < 2³¹`, so no i32 sum can overflow. A model shape is
/// checked against it where the shape is accepted, before anything is
/// packed.
pub const MAX_K: usize = i32::MAX as usize / (255 * 127);

/// Columns per weight panel: sixteen i32 lanes, one `zmm`.
const QNR: usize = 16;
/// Rows per block of the row-block loops and per full VNNI tile.
const QMR: usize = 8;
/// Bytes per panel step: four K rows of sixteen columns.
const STEP: usize = 4 * QNR;

/// Activations quantized per row to u8 with a zero point.
///
/// Row `i` holds `q[i][l] ≈ x[i][l] / s_i + z_i`. Rows are stored `⌈K/4⌉·4`
/// bytes apart with zero padding.
#[derive(Debug, Clone)]
pub struct QuantRows {
    rows: usize,
    k: usize,
    stride: usize,
    data: Vec<u8>,
    zero: Vec<i32>,
    scale: Vec<f32>,
}

impl QuantRows {
    fn zeroed(rows: usize, k: usize) -> QuantRows {
        let stride = k.div_ceil(4) * 4;
        QuantRows {
            rows,
            k,
            stride,
            data: vec![0; rows * stride],
            zero: vec![0; rows],
            scale: vec![0.0; rows],
        }
    }

    /// Quantizes every row of `x` from that row alone, into `q` with
    /// `x[l] ≈ (q[l] − z)·s`.
    ///
    /// The range `[lo, hi]` is the row's, widened to include 0;
    /// `s = (hi − lo)/255`, `z = round(−lo/s)` and
    /// `q[l] = clamp(round(x[l]/s + z), 0, 255)`, with the divisions taken
    /// as one multiply by `255/(hi − lo)` and `round` to the nearest
    /// integer, ties to even. So 0 maps to `z` exactly, and the rounding
    /// error is at most half a step plus one f32 rounding. Edge cases:
    ///
    /// * an empty row, an all-zero row and a row whose range is below
    ///   `2⁻¹¹⁸` give `q = 0`, `z = 0`, `s = 0`: every product it feeds is
    ///   exactly its bias;
    /// * a constant row `c ≠ 0` has range `[min(c, 0), max(c, 0)]`, so it
    ///   maps to `q = 255` (`c > 0`, `z = 0`) or `q = 0` (`c < 0`,
    ///   `z = 255`) and dequantizes to `c` up to one f32 rounding;
    /// * a row holding a NaN or an infinity gives `q = 0`, `z = 0`,
    ///   `s = NaN`: every output of that row is NaN, as in f32 arithmetic.
    pub fn quantize(x: &Mat) -> QuantRows {
        let mut q = QuantRows::zeroed(x.rows(), x.cols());
        q.set_rows_at(Isa::host(), 0, x.as_slice());
        q
    }

    /// Quantizes the row-major `[rows, k]` block `x` into rows `r0..` at
    /// `isa`'s f32 level, one dispatch for the block.
    fn set_rows_at(&mut self, isa: Isa, r0: usize, x: &[f32]) {
        // SAFETY (both arms): holding `isa` proves the CPU runs its level.
        #[cfg(target_arch = "x86_64")]
        match isa.level() {
            Level::Avx512 => return unsafe { set_rows_avx512(self, r0, x) },
            Level::Avx => return unsafe { set_rows_avx(self, r0, x) },
            Level::Generic => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = isa;
        set_rows(self, r0, x);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width (the reduction depth of the product it feeds).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row `i`'s `k` quantized values.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.data[i * self.stride..i * self.stride + self.k]
    }

    /// Row `i`'s zero point.
    pub fn zero_point(&self, i: usize) -> i32 {
        self.zero[i]
    }

    /// Row `i`'s scale.
    pub fn scale(&self, i: usize) -> f32 {
        self.scale[i]
    }
}

/// Ranges below this quantize as a zero row: `255 / range` would leave
/// the normal f32 range.
const MIN_RANGE: f32 = f32::MIN_POSITIVE * 256.0;

/// [`set_rows`] compiled with AVX-512F enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn set_rows_avx512(q: &mut QuantRows, r0: usize, x: &[f32]) {
    set_rows(q, r0, x);
}

/// [`set_rows`] compiled with AVX enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn set_rows_avx(q: &mut QuantRows, r0: usize, x: &[f32]) {
    set_rows(q, r0, x);
}

/// [`QuantRows::quantize`]'s rule over each `k`-wide row of `x`, into
/// rows `r0..` of `q`: integer min/max and IEEE `× +` per element, so the
/// same bits at every level.
#[inline(always)]
fn set_rows(q: &mut QuantRows, r0: usize, x: &[f32]) {
    if q.k == 0 {
        return;
    }
    for (r, row) in x.chunks_exact(q.k).enumerate() {
        let i = r0 + r;
        let (z, s) = quantize_row(row, &mut q.data[i * q.stride..i * q.stride + q.k]);
        q.zero[i] = z;
        q.scale[i] = s;
    }
}

/// `round(y)` to the nearest integer, ties to even, for `|y| < 2²²`: one
/// f32 add moves `y` to where the float spacing is 1, and integer ops read
/// the result. There is no float-to-int conversion (whose saturating
/// semantics keep the loops from vectorizing).
#[inline(always)]
fn round_even(y: f32) -> i32 {
    const MAGIC: f32 = 12_582_912.0; // 1.5·2²³
    (y + MAGIC).to_bits() as i32 - MAGIC.to_bits() as i32
}

/// `v`'s bits as an i32 whose order is `v`'s order (−0.0 just below
/// +0.0), so the range is an integer min/max reduction, which vectorizes
/// and does not depend on the order it is taken in.
#[inline(always)]
fn ordered(v: f32) -> i32 {
    let b = v.to_bits() as i32;
    b ^ ((b >> 31) & i32::MAX)
}

/// The inverse of [`ordered`].
#[inline(always)]
fn from_ordered(o: i32) -> f32 {
    f32::from_bits((o ^ ((o >> 31) & i32::MAX)) as u32)
}

/// Quantizes one row by [`QuantRows::quantize`]'s rule into `q` (as long
/// as `x`) and returns `(z, s)`; inlined into each build.
#[inline(always)]
fn quantize_row(x: &[f32], q: &mut [u8]) -> (i32, f32) {
    const EXP: u32 = 0x7f80_0000;
    let (mut lo, mut hi, mut bad) = (0i32, 0i32, 0u32);
    for &v in x {
        let o = ordered(v);
        lo = lo.min(o);
        hi = hi.max(o);
        bad |= u32::from(v.to_bits() & EXP == EXP);
    }
    if bad != 0 {
        q.fill(0);
        return (0, f32::NAN);
    }
    let (lo, hi) = (from_ordered(lo), from_ordered(hi));
    let range = hi - lo;
    if range < MIN_RANGE {
        q.fill(0);
        return (0, 0.0);
    }
    let inv = 255.0 / range;
    let z = round_even((-lo) * inv).clamp(0, 255);
    let zf = z as f32;
    for (qv, &v) in q.iter_mut().zip(x) {
        *qv = round_even(v * inv + zf).clamp(0, 255) as u8;
    }
    (z, range / 255.0)
}

/// A row-major `[k, n]` f32 weight matrix quantized to s8 with one
/// symmetric scale per column, packed into 16-column panels of
/// `[⌈k/4⌉][16][4]` bytes, plus each column's `Σw` as i32.
#[derive(Debug, Clone)]
pub struct PackedS8 {
    k: usize,
    n: usize,
    k4: usize,
    panels: usize,
    data: Vec<i8>,
    col_sum: Vec<i32>,
    col_scale: Vec<f32>,
}

impl PackedS8 {
    /// Quantizes and packs row-major `w: [k, n]`.
    ///
    /// Column `j`'s scale is `s_j = max_l |w[l][j]| / 127` and its weights
    /// `round(w/s_j)` (ties to even). An all-zero column (or one
    /// whose largest magnitude is below `2⁻¹¹⁸`) has scale 0 and zero
    /// weights; a column holding a NaN or an infinity has scale NaN, so
    /// its outputs are NaN, as in f32 arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != k * n` or `k > MAX_K`; shapes are checked
    /// against [`MAX_K`] where a model's configuration is accepted.
    pub fn quantize(w: &[f32], k: usize, n: usize) -> PackedS8 {
        assert_eq!(w.len(), k * n, "PackedS8 shape/data mismatch");
        assert!(k <= MAX_K, "reduction depth {k} exceeds MAX_K {MAX_K}");
        let mut amax = vec![0.0f32; n];
        let mut bad = vec![false; n];
        for row in w.chunks_exact(n.max(1)) {
            for ((a, b), &v) in amax.iter_mut().zip(&mut bad).zip(row) {
                let m = v.abs();
                *a = if m > *a { m } else { *a };
                *b |= !v.is_finite();
            }
        }
        let mut col_scale = vec![0.0f32; n];
        let mut inv = vec![0.0f32; n];
        for j in 0..n {
            if bad[j] {
                col_scale[j] = f32::NAN;
            } else if amax[j] >= MIN_RANGE {
                col_scale[j] = amax[j] / 127.0;
                inv[j] = 127.0 / amax[j];
            }
        }
        let k4 = k.div_ceil(4);
        let panels = n.div_ceil(QNR);
        let mut data = vec![0i8; panels * k4 * STEP];
        let mut col_sum = vec![0i32; n];
        for (p, panel) in data.chunks_exact_mut((k4 * STEP).max(1)).enumerate() {
            let j0 = p * QNR;
            let cols = QNR.min(n - j0);
            let (inv, sums) = (&inv[j0..j0 + cols], &mut col_sum[j0..j0 + cols]);
            for (l, row) in w.chunks_exact(n).enumerate() {
                let dst = &mut panel[(l / 4) * STEP + l % 4..];
                for (c, ((&v, &iv), sum)) in row[j0..j0 + cols].iter().zip(inv).zip(&mut *sums).enumerate() {
                    let q = round_even(v * iv).clamp(-127, 127);
                    dst[c * 4] = q as i8;
                    *sum += q;
                }
            }
        }
        PackedS8 { k, n, k4, panels, data, col_sum, col_scale }
    }

    /// Reduction depth (rows of the original weight matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (columns of the original weight matrix).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resident bytes: the packed weights, column sums and scales.
    pub fn bytes(&self) -> usize {
        self.data.len() + self.n * (std::mem::size_of::<i32>() + std::mem::size_of::<f32>())
    }

    /// The quantized weight at `(l, j)`.
    #[cfg(test)]
    fn weight(&self, l: usize, j: usize) -> i8 {
        self.data[(j / QNR) * self.k4 * STEP + (l / 4) * STEP + (j % QNR) * 4 + l % 4]
    }
}

/// Raw sums `out[i][j] = Σ_l xq[i][l]·w[l][j]` (before the zero-point
/// correction) for every row of `xq`, `out` row-major `[rows, n]`.
///
/// # Panics
///
/// Panics if `xq.k() != w.k()` or `out.len() != xq.rows() * w.n()`.
pub fn gemm_u8s8(xq: &QuantRows, w: &PackedS8, out: &mut [i32]) {
    sums_at(Isa::host(), xq, 0, xq.rows, w, out);
}

/// Raw sums for rows `r0..r0 + rows` of `xq` into `out: [rows, n]`, at
/// `isa`'s integer level.
fn sums_at(isa: Isa, xq: &QuantRows, r0: usize, rows: usize, w: &PackedS8, out: &mut [i32]) {
    assert_eq!(xq.k, w.k, "integer GEMM depth");
    assert!(r0 + rows <= xq.rows, "integer GEMM rows");
    assert_eq!(out.len(), rows * w.n, "integer GEMM out shape");
    if rows == 0 || w.n == 0 {
        return;
    }
    let a = &xq.data[r0 * xq.stride..(r0 + rows) * xq.stride];
    // SAFETY (both arms): holding `isa` proves the CPU runs its level, and
    // `a`, `w` and `out` hold the `[rows, 4·k4]`, packed and `[rows, n]`
    // operands the kernels index.
    #[cfg(target_arch = "x86_64")]
    match isa.int_level() {
        IntLevel::Vnni => return unsafe { sums_vnni(a, xq.stride, rows, w, out) },
        IntLevel::Avx2 => return unsafe { sums_avx2(a, xq.stride, rows, w, out) },
        IntLevel::Scalar => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    sums_scalar(a, xq.stride, rows, w, out);
}

/// The scalar level and the reference: each output's sum over the panel
/// layout, one row and one 16-column panel at a time.
fn sums_scalar(a: &[u8], a_rs: usize, rows: usize, w: &PackedS8, out: &mut [i32]) {
    let n = w.n;
    for r in 0..rows {
        let x = &a[r * a_rs..r * a_rs + w.k4 * 4];
        for p in 0..w.panels {
            let panel = &w.data[p * w.k4 * STEP..(p + 1) * w.k4 * STEP];
            let mut acc = [0i32; QNR];
            for (x4, b) in x.chunks_exact(4).zip(panel.chunks_exact(STEP)) {
                for (c, s) in acc.iter_mut().enumerate() {
                    for t in 0..4 {
                        *s = s.wrapping_add(i32::from(x4[t]) * i32::from(b[c * 4 + t]));
                    }
                }
            }
            let j0 = p * QNR;
            let cols = QNR.min(n - j0);
            out[r * n + j0..r * n + j0 + cols].copy_from_slice(&acc[..cols]);
        }
    }
}

/// The VNNI level: `R × 16·W` tiles over row blocks of 8 (then 4, 2, 1)
/// and panel pairs (then a single panel).
///
/// # Safety
///
/// AVX-512F, AVX-512BW and AVX-512 VNNI must be available, and the
/// operands shaped as [`sums_at`] passes them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn sums_vnni(a: &[u8], a_rs: usize, rows: usize, w: &PackedS8, out: &mut [i32]) {
    let n = w.n;
    let ps = w.k4 * STEP;
    let mut r = 0;
    while r < rows {
        let rr = match rows - r {
            8.. => 8,
            4..=7 => 4,
            2 | 3 => 2,
            _ => 1,
        };
        let mut p = 0;
        while p < w.panels {
            let pw = if w.panels - p >= 2 { 2 } else { 1 };
            let j0 = p * QNR;
            let cols = (n - j0).min(pw * QNR);
            let masks = [lane_mask(cols), lane_mask(cols.saturating_sub(QNR))];
            let at = (a.as_ptr().add(r * a_rs), a_rs);
            let bt = (w.data.as_ptr().add(p * ps), ps);
            let ot = (out.as_mut_ptr().add(r * n + j0), n);
            match (rr, pw) {
                (8, 2) => tile_vnni::<8, 2>(w.k4, at, bt, ot, masks),
                (8, _) => tile_vnni::<8, 1>(w.k4, at, bt, ot, [masks[0]]),
                (4, 2) => tile_vnni::<4, 2>(w.k4, at, bt, ot, masks),
                (4, _) => tile_vnni::<4, 1>(w.k4, at, bt, ot, [masks[0]]),
                (2, 2) => tile_vnni::<2, 2>(w.k4, at, bt, ot, masks),
                (2, _) => tile_vnni::<2, 1>(w.k4, at, bt, ot, [masks[0]]),
                (_, 2) => tile_vnni::<1, 2>(w.k4, at, bt, ot, masks),
                (_, _) => tile_vnni::<1, 1>(w.k4, at, bt, ot, [masks[0]]),
            }
            p += pw;
        }
        r += rr;
    }
}

/// The lane mask of the first `cols` (capped at 16) lanes of a `zmm`.
#[cfg(target_arch = "x86_64")]
fn lane_mask(cols: usize) -> u16 {
    if cols >= QNR {
        u16::MAX
    } else {
        (1u16 << cols) - 1
    }
}

/// One VNNI tile: `R` rows × `W` panels of sixteen `zmm` i32 accumulators
/// over all `k4` steps. At step `s`, row `r` broadcasts its four bytes
/// `a[r·a_rs + 4s..][..4]` and `vpdpbusd` adds the four u8·s8 products
/// with panel `w`'s `[16][4]` group `b[w·b_ps + 64s..]` into each lane.
/// Lanes in `masks[w]` are stored to `o[r·o_rs + 16w..]`.
///
/// # Safety
///
/// As for [`sums_vnni`]; every pointer must be valid for the reads and
/// writes the strides describe.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[inline]
unsafe fn tile_vnni<const R: usize, const W: usize>(
    k4: usize,
    (a, a_rs): (*const u8, usize),
    (b, b_ps): (*const i8, usize),
    (o, o_rs): (*mut i32, usize),
    masks: [u16; W],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_si512(); W]; R];
    for s in 0..k4 {
        let mut bv = [_mm512_setzero_si512(); W];
        for (w, v) in bv.iter_mut().enumerate() {
            *v = _mm512_loadu_si512(b.add(w * b_ps + s * STEP).cast());
        }
        for (r, accs) in acc.iter_mut().enumerate() {
            let x = _mm512_set1_epi32(a.add(r * a_rs + s * 4).cast::<i32>().read_unaligned());
            for (v, &bw) in accs.iter_mut().zip(&bv) {
                *v = _mm512_dpbusd_epi32(*v, x, bw);
            }
        }
    }
    for (r, accs) in acc.iter().enumerate() {
        for (w, &v) in accs.iter().enumerate() {
            _mm512_mask_storeu_epi32(o.add(r * o_rs + w * QNR), masks[w], v);
        }
    }
}

/// The AVX2 level: `R × 8` tiles (half a panel) over row blocks of 4
/// (then 2, 1).
///
/// # Safety
///
/// AVX2 must be available, and the operands shaped as [`sums_at`] passes
/// them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sums_avx2(a: &[u8], a_rs: usize, rows: usize, w: &PackedS8, out: &mut [i32]) {
    let n = w.n;
    let ps = w.k4 * STEP;
    let mut r = 0;
    while r < rows {
        let rr = match rows - r {
            4.. => 4,
            2 | 3 => 2,
            _ => 1,
        };
        for h in 0..w.panels * 2 {
            let j0 = h * QNR / 2;
            if j0 >= n {
                break;
            }
            let cols = (n - j0).min(QNR / 2);
            let at = (a.as_ptr().add(r * a_rs), a_rs);
            let b = w.data.as_ptr().add((h / 2) * ps + (h % 2) * STEP / 2);
            let ot = (out.as_mut_ptr().add(r * n + j0), n);
            match rr {
                4 => tile_avx2::<4>(w.k4, at, b, ot, cols),
                2 => tile_avx2::<2>(w.k4, at, b, ot, cols),
                _ => tile_avx2::<1>(w.k4, at, b, ot, cols),
            }
        }
        r += rr;
    }
}

/// One AVX2 tile: `R` rows × 8 columns. At step `s` the 8 columns' `[8][4]`
/// weight group (32 bytes at `b + 64s`) is widened to i16 in two halves,
/// each row's four bytes are widened and repeated, and `vpmaddwd` adds
/// `x0·w0 + x1·w1` and `x2·w2 + x3·w3` into two i32 lanes per column.
/// The two lanes are added once, at the store; the first `cols` columns
/// are stored to `o[r·o_rs..]`.
///
/// # Safety
///
/// As for [`sums_avx2`]; every pointer must be valid for the reads and
/// writes the strides describe.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn tile_avx2<const R: usize>(
    k4: usize,
    (a, a_rs): (*const u8, usize),
    b: *const i8,
    (o, o_rs): (*mut i32, usize),
    cols: usize,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_si256(); 2]; R];
    for s in 0..k4 {
        let bv = _mm256_loadu_si256(b.add(s * STEP).cast());
        let lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
        let hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(bv));
        for (r, accs) in acc.iter_mut().enumerate() {
            let x4 = a.add(r * a_rs + s * 4).cast::<i32>().read_unaligned();
            let x = _mm256_cvtepu8_epi16(_mm_set1_epi32(x4));
            accs[0] = _mm256_add_epi32(accs[0], _mm256_madd_epi16(x, lo));
            accs[1] = _mm256_add_epi32(accs[1], _mm256_madd_epi16(x, hi));
        }
    }
    for (r, accs) in acc.iter().enumerate() {
        let mut pairs = [0i32; QNR];
        _mm256_storeu_si256(pairs.as_mut_ptr().cast(), accs[0]);
        _mm256_storeu_si256(pairs.as_mut_ptr().add(8).cast(), accs[1]);
        for (c, pair) in pairs.chunks_exact(2).enumerate().take(cols) {
            *o.add(r * o_rs + c) = pair[0].wrapping_add(pair[1]);
        }
    }
}

/// Runs the integer GEMM over `xq` in row blocks of [`QMR`], handing each
/// block's first row and raw sums (`[rows, n]`, still `Σ x·w`) to `f`
/// while the block is in cache.
fn for_each_block_sums(isa: Isa, xq: &QuantRows, w: &PackedS8, mut f: impl FnMut(usize, &[i32])) {
    let n = w.n;
    let mut buf = vec![0i32; QMR.min(xq.rows) * n];
    let mut r0 = 0;
    while r0 < xq.rows {
        let rows = QMR.min(xq.rows - r0);
        let block = &mut buf[..rows * n];
        sums_at(isa, xq, r0, rows, w, block);
        f(r0, block);
        r0 += rows;
    }
}

/// `y = x·W + b` for quantized `xq`: every row's sums, corrected and
/// dequantized (`(f32(acc)·s_x)·s_w[j] + b[j]`, multiply then add).
///
/// # Panics
///
/// Panics if `xq.k() != w.k()` or `bias.len() != w.n()`.
pub fn dequant_bias(xq: &QuantRows, w: &PackedS8, bias: &[f32]) -> Mat {
    dequant_bias_at(Isa::host(), xq, w, bias)
}

fn dequant_bias_at(isa: Isa, xq: &QuantRows, w: &PackedS8, bias: &[f32]) -> Mat {
    assert_eq!(bias.len(), w.n, "bias width");
    let n = w.n;
    let mut out = Mat::zeros(xq.rows, n);
    let y = out.as_mut_slice();
    for_each_block_sums(isa, xq, w, |r0, sums| {
        let e = Epilogue { r0, xq, w, bias };
        epilogue_at::<false>(isa, sums, &e, &mut y[r0 * n..r0 * n + sums.len()]);
    });
    out
}

/// FF1 of the integer FFN: `gelu(x·W + b)`, requantized per row for the
/// next product. Each row block's sums are dequantized, biased and passed
/// through the crate's GELU, and each of its rows requantized, while the
/// block is in cache; the f32 activation never exists as a matrix.
///
/// # Panics
///
/// Panics if `xq.k() != w.k()` or `bias.len() != w.n()`.
pub fn bias_gelu_requant(xq: &QuantRows, w: &PackedS8, bias: &[f32]) -> QuantRows {
    bias_gelu_requant_at(Isa::host(), xq, w, bias)
}

fn bias_gelu_requant_at(isa: Isa, xq: &QuantRows, w: &PackedS8, bias: &[f32]) -> QuantRows {
    assert_eq!(bias.len(), w.n, "bias width");
    let mut out = QuantRows::zeroed(xq.rows, w.n);
    let mut y = vec![0.0f32; QMR.min(xq.rows) * w.n];
    for_each_block_sums(isa, xq, w, |r0, sums| {
        gelu_requant_block(isa, sums, &Epilogue { r0, xq, w, bias }, &mut y, &mut out);
    });
    out
}

/// [`bias_gelu_requant`]'s epilogue alone, over precomputed raw sums
/// (`[rows, n]`, as [`gemm_u8s8`] writes them): the same per-row
/// arithmetic, so the same bits.
///
/// # Panics
///
/// Panics if `sums.len() != xq.rows() * w.n()` or `bias.len() != w.n()`.
pub fn bias_gelu_requant_sums(sums: &[i32], xq: &QuantRows, w: &PackedS8, bias: &[f32]) -> QuantRows {
    assert_eq!(sums.len(), xq.rows * w.n, "sums shape");
    assert_eq!(bias.len(), w.n, "bias width");
    let isa = Isa::host();
    let mut out = QuantRows::zeroed(xq.rows, w.n);
    let mut y = vec![0.0f32; sums.len()];
    gelu_requant_block(isa, sums, &Epilogue { r0: 0, xq, w, bias }, &mut y, &mut out);
    out
}

/// Dequantizes, biases and GELUs the block of sums `sums` into `y`, then
/// requantizes each of its rows into `out`.
fn gelu_requant_block(isa: Isa, sums: &[i32], e: &Epilogue<'_>, y: &mut [f32], out: &mut QuantRows) {
    let y = &mut y[..sums.len()];
    epilogue_at::<true>(isa, sums, e, y);
    out.set_rows_at(isa, e.r0, y);
}

/// The dequantization parameters of a row block starting at row `r0`.
struct Epilogue<'a> {
    r0: usize,
    xq: &'a QuantRows,
    w: &'a PackedS8,
    bias: &'a [f32],
}

/// [`epilogue`] through its build for `isa`'s f32 level: the same IEEE
/// operations per element at every level (AVX-512F runs GELU's f64
/// rational eight lanes per `zmm`), so the same bits.
fn epilogue_at<const GELU: bool>(isa: Isa, sums: &[i32], e: &Epilogue<'_>, out: &mut [f32]) {
    // SAFETY (both arms): holding `isa` proves the CPU runs its level.
    #[cfg(target_arch = "x86_64")]
    match isa.level() {
        Level::Avx512 => return unsafe { epilogue_avx512::<GELU>(sums, e, out) },
        Level::Avx => return unsafe { epilogue_avx::<GELU>(sums, e, out) },
        Level::Generic => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    epilogue::<GELU>(sums, e, out);
}

/// [`epilogue`] compiled with AVX-512F enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn epilogue_avx512<const GELU: bool>(sums: &[i32], e: &Epilogue<'_>, out: &mut [f32]) {
    epilogue::<GELU>(sums, e, out);
}

/// [`epilogue`] compiled with AVX enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn epilogue_avx<const GELU: bool>(sums: &[i32], e: &Epilogue<'_>, out: &mut [f32]) {
    epilogue::<GELU>(sums, e, out);
}

/// Row `r` of the block: `out[j] = (f32(acc − z·Σw_j)·s_x)·s_w[j] + b[j]`
/// with the row's `z` and `s_x`, then GELU if asked: multiply, round, add,
/// round, never fused.
#[inline(always)]
fn epilogue<const GELU: bool>(sums: &[i32], e: &Epilogue<'_>, out: &mut [f32]) {
    let w = e.w;
    let n = w.n.max(1);
    for (r, (acc_row, out_row)) in sums.chunks_exact(n).zip(out.chunks_exact_mut(n)).enumerate() {
        let (z, sx) = (e.xq.zero[e.r0 + r], e.xq.scale[e.r0 + r]);
        for ((((o, &acc), &cs), &sw), &b) in
            out_row.iter_mut().zip(acc_row).zip(&w.col_sum).zip(&w.col_scale).zip(e.bias)
        {
            let v = (acc.wrapping_sub(z.wrapping_mul(cs)) as f32 * sx) * sw + b;
            *o = if GELU { gelu(v) } else { v };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_rt::rng::StdRng;

    fn rand_mat(rng: &mut StdRng, rows: usize, cols: usize) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.gen_range(-1.0f32..1.0);
        }
        m
    }

    /// The definition: `Σ_l q[i][l]·w[l][j]` straight off the unpacked
    /// quantized values, in i64 so an overflow could not hide.
    fn naive_sums(xq: &QuantRows, w: &PackedS8) -> Vec<i32> {
        let mut out = Vec::with_capacity(xq.rows() * w.n());
        for i in 0..xq.rows() {
            for j in 0..w.n() {
                let s: i64 = (0..w.k())
                    .map(|l| i64::from(xq.row(i)[l]) * i64::from(w.weight(l, j)))
                    .sum();
                out.push(i32::try_from(s).expect("sum fits i32"));
            }
        }
        out
    }

    /// Every integer level the host runs equals the naive definition (and
    /// so the scalar reference) bit for bit: K not a multiple of 4, row
    /// counts around every tile edge, widths around the panel and
    /// panel-pair edges, and constant, zero and extreme rows.
    #[test]
    fn every_integer_level_matches_the_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let levels = Isa::supported();
        assert_eq!(levels.last().map(|i| i.int_name()), Some(Isa::host().int_name()));
        for &k in &[1usize, 3, 4, 5, 7, 33, 128, 257] {
            for &n in &[1usize, 15, 16, 17, 31, 33, 64, 130] {
                for &m in &[1usize, 2, 3, 16, 33, 130] {
                    let mut x = rand_mat(&mut rng, m, k);
                    x.row_mut(0).fill(0.0);
                    if m > 1 {
                        x.row_mut(1).fill(0.75);
                    }
                    if m > 2 {
                        x.row_mut(2).fill(-3.0);
                    }
                    let mut wm = rand_mat(&mut rng, k, n);
                    // Saturated weights and activations: every product at
                    // its extreme, so the bound is exercised.
                    wm.row_mut(0).fill(-1.0);
                    if m > 15 {
                        x.row_mut(15).iter_mut().enumerate().for_each(|(l, v)| {
                            *v = if l % 2 == 0 { 1.0 } else { -1.0 };
                        });
                    }
                    let xq = QuantRows::quantize(&x);
                    let w = PackedS8::quantize(wm.as_slice(), k, n);
                    let want = naive_sums(&xq, &w);
                    let bias = vec![0.5; n];
                    let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let y0 = bits(&dequant_bias_at(levels[0], &xq, &w, &bias));
                    let g0 = bias_gelu_requant_at(levels[0], &xq, &w, &bias);
                    for &isa in &levels {
                        let mut got = vec![7i32; m * n];
                        sums_at(isa, &xq, 0, m, &w, &mut got);
                        assert_eq!(got, want, "{} m={m} k={k} n={n}", isa.int_name());
                        let y = dequant_bias_at(isa, &xq, &w, &bias);
                        assert_eq!(bits(&y), y0, "{} dequant m={m} k={k} n={n}", isa.name());
                        let g = bias_gelu_requant_at(isa, &xq, &w, &bias);
                        for i in 0..m {
                            assert_eq!(g.row(i), g0.row(i), "{} requant row {i}", isa.name());
                            assert_eq!(g.zero_point(i), g0.zero_point(i));
                            assert_eq!(g.scale(i).to_bits(), g0.scale(i).to_bits());
                        }
                    }
                }
            }
        }
    }

    /// A block of rows gives each row the bits it gets alone: quantization
    /// is per row and the sums are exact.
    #[test]
    fn rows_do_not_depend_on_their_neighbours() {
        let mut rng = StdRng::seed_from_u64(6);
        let (k, n) = (37, 45);
        let x = rand_mat(&mut rng, 19, k);
        let w = PackedS8::quantize(rand_mat(&mut rng, k, n).as_slice(), k, n);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.01).collect();
        let all = dequant_bias(&QuantRows::quantize(&x), &w, &bias);
        for i in 0..x.rows() {
            let one = dequant_bias(&QuantRows::quantize(&x.rows_slice(i, i + 1)), &w, &bias);
            let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(one.row(0)), bits(all.row(i)), "row {i}");
        }
    }

    #[test]
    fn quantize_row_edge_cases_are_defined() {
        let mut q = [9u8; 4];
        assert_eq!(quantize_row(&[], &mut []), (0, 0.0));
        assert_eq!(quantize_row(&[0.0, -0.0, 0.0, 0.0], &mut q), (0, 0.0));
        assert_eq!(q, [0; 4]);
        assert_eq!(quantize_row(&[1e-37, 0.0, -1e-37, 0.0], &mut q), (0, 0.0));
        assert_eq!(q, [0; 4]);
        // Constant rows: the range widens to 0, so c lands on an end.
        let (z, s) = quantize_row(&[2.0; 4], &mut q);
        assert_eq!((z, q), (0, [255; 4]));
        assert!(((f32::from(q[0]) - z as f32) * s - 2.0).abs() <= 2.0 * f32::EPSILON);
        let (z, s) = quantize_row(&[-2.0; 4], &mut q);
        assert_eq!((z, q), (255, [0; 4]));
        assert!(((f32::from(q[0]) - z as f32) * s + 2.0).abs() <= 2.0 * f32::EPSILON);
        // Zero is exact; the ends are reached.
        let (z, s) = quantize_row(&[-1.0, 0.0, 3.0, 1.5], &mut q);
        assert_eq!(q[1] as i32, z);
        assert_eq!((q[0], q[2]), (0, 255));
        assert!(((f32::from(q[3]) - z as f32) * s - 1.5).abs() <= s / 2.0 + 1e-6);
        // Non-finite rows poison the scale, so every output is NaN.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let (z, s) = quantize_row(&[1.0, bad, 0.0, 2.0], &mut q);
            assert_eq!((z, q), (0, [0; 4]));
            assert!(s.is_nan());
        }
    }

    #[test]
    fn zero_width_and_degenerate_products_are_bias_or_nan() {
        // K = 0: every output is exactly its bias.
        let x = Mat::zeros(3, 0);
        let w = PackedS8::quantize(&[], 0, 5);
        let bias = [1.0, -2.0, 0.5, 0.0, 3.0];
        let y = dequant_bias(&QuantRows::quantize(&x), &w, &bias);
        for i in 0..3 {
            assert_eq!(y.row(i), &bias);
        }
        // A zero row or a zero column gives the bias, bit for bit.
        let mut rng = StdRng::seed_from_u64(8);
        let mut wm = rand_mat(&mut rng, 6, 5);
        for r in 0..6 {
            wm.set(r, 2, 0.0);
        }
        let w = PackedS8::quantize(wm.as_slice(), 6, 5);
        let mut x = rand_mat(&mut rng, 2, 6);
        x.row_mut(0).fill(0.0);
        let y = dequant_bias(&QuantRows::quantize(&x), &w, &bias);
        assert_eq!(y.row(0), &bias);
        assert_eq!(y.get(1, 2), bias[2]);
        // A NaN weight makes its column NaN; a NaN input its row.
        wm.set(3, 1, f32::NAN);
        let w = PackedS8::quantize(wm.as_slice(), 6, 5);
        let y = dequant_bias(&QuantRows::quantize(&x), &w, &bias);
        assert!(y.get(1, 1).is_nan() && !y.get(1, 0).is_nan());
        x.set(1, 4, f32::NAN);
        let y = dequant_bias(&QuantRows::quantize(&x), &w, &bias);
        assert!(y.row(1).iter().all(|v| v.is_nan()));
    }

    /// The quantized product tracks the f32 one: each output's error is
    /// bounded by half an activation step times `Σ|w|` plus half a weight
    /// step times `Σ|x|`, with slack for the f32 roundings.
    #[test]
    fn quantized_product_is_within_the_rounding_bound_of_f32() {
        let mut rng = StdRng::seed_from_u64(9);
        let (m, k, n) = (9, 128, 40);
        let x = rand_mat(&mut rng, m, k);
        let wm = rand_mat(&mut rng, k, n);
        let w = PackedS8::quantize(wm.as_slice(), k, n);
        let xq = QuantRows::quantize(&x);
        let y = dequant_bias(&xq, &w, &vec![0.0; n]);
        let want = x.matmul_ref(&wm);
        for i in 0..m {
            for j in 0..n {
                let sw = w.col_scale[j];
                let abs_w: f32 = (0..k).map(|l| wm.get(l, j).abs()).sum();
                let abs_x: f32 = x.row(i).iter().map(|v| v.abs()).sum();
                let bound = 0.5 * xq.scale(i) * abs_w + 0.5 * sw * (abs_x + 0.5 * xq.scale(i) * k as f32);
                let err = (y.get(i, j) - want.get(i, j)).abs();
                assert!(err <= bound * 1.01 + 1e-5, "({i},{j}) err {err} bound {bound}");
            }
        }
    }

    #[test]
    fn weights_are_symmetric_per_column_with_exact_column_sums() {
        let wm = Mat::from_rows(&[&[1.0, -0.5, 0.0], &[-2.0, 0.25, 0.0], &[0.5, 0.5, 0.0]]);
        let w = PackedS8::quantize(wm.as_slice(), 3, 3);
        assert_eq!([w.weight(0, 0), w.weight(1, 0), w.weight(2, 0)], [64, -127, 32]);
        assert_eq!([w.weight(0, 1), w.weight(1, 1), w.weight(2, 1)], [-127, 64, 127]);
        assert_eq!(w.col_scale, [2.0 / 127.0, 0.5 / 127.0, 0.0]);
        assert_eq!(w.col_sum, [64 - 127 + 32, -127 + 64 + 127, 0]);
        // K padding holds zeros.
        assert!((3..4).all(|l| (0..3).all(|j| w.weight(l, j) == 0)));
    }
}
