//! Cache-blocked, register-tiled GEMM kernels for the inference hot loop.
//!
//! Three kernels back [`Mat::matmul`](crate::mat::Mat::matmul),
//! [`Mat::matmul_tn`](crate::mat::Mat::matmul_tn) and
//! [`Mat::matmul_nt`](crate::mat::Mat::matmul_nt). All share one packed-panel driver built around an
//! `MR`-row register micro-kernel (GotoBLAS/BLIS structure: pack a
//! `KC × NC` panel of B into `[kc][NR]` micro-panels and an `MC × KC`
//! panel of A into `[kc][MR]` micro-panels, then sweep the micro-kernel
//! over the block).
//!
//! The micro-kernel runs at the widest [`Isa`] level the CPU has, chosen
//! per call by [`Isa::host`]:
//!
//! * **AVX-512F**: an `8 × 32` tile of sixteen `zmm` accumulators that
//!   reads two adjacent `NR`-wide B panels at once (an odd last panel runs
//!   `8 × 16`; a last row panel of at most four real rows runs four-row
//!   tiles). Edge columns are masked loads and stores straight on `out`.
//! * **AVX**: the `8 × 16` tile as two `4 × 16` halves of eight `ymm`
//!   accumulators each (a half with no real rows is skipped).
//! * **Generic**: the same tile in portable Rust, each step through the
//!   crate's correctly rounded [`fma32`].
//!
//! On top of that sit two serving-oriented additions:
//!
//! * **Shape-aware dispatch.** For `m <= SMALL_M` output rows the packing
//!   overhead of the blocked driver is paid on `k·n` elements while the
//!   useful work is only `m·k·n` — at `m = 16` the blocked kernel used to
//!   *lose* to the naive loop on wide B. Small-m products route to an
//!   l-outer "jammed" kernel that streams B exactly
//!   once and keeps a j-tile of the output in L1, with no packing at all.
//!   In [`gemm_nn`] and [`gemm_tn`], products narrower than one `NR`
//!   panel run the narrow kernel, eight row dot products side by side, and
//!   shapes that tile exactly inside one `(jc, lc, ic)` block
//!   (`m % MR_HALF == 0`, `n % NR == 0`, `k <= KC`, `m <= MC`, `n <= NC`)
//!   run a pack-free tile sweep on AVX and AVX-512 hosts: the
//!   micro-kernel's arithmetic, reading A (or Aᵀ) and B in place. At the
//!   Aggregation MLPs' training shapes (64×84×32, and 64×32×1 at the
//!   output layer) the per-call packing otherwise costs as much as the
//!   multiply.
//! * **Prepacked B.** [`PackedB`] stores a weight matrix in exactly the
//!   `[kc][NR]` panel layout the blocked driver would build per call, so
//!   [`gemm_prepacked_nn`] skips `pack_b` entirely and runs the blocked
//!   driver's micro-tiles at every `m`. Attention's fused QKV and output
//!   projections are packed once at model load and reused by every
//!   inference; every other weight product runs [`gemm_nn`].
//!
//! # The FMA contract
//!
//! Every output element is produced by the *same chain of fused
//! multiply-adds as the naive triple loop*: `acc = fma(a(i,l), b(l,j), acc)`
//! for `l` strictly ascending, starting from the value in `out`, each step
//! the exact `a·b + acc` rounded once to `f32`. The blocking machinery only
//! re-tiles the `i`/`j` loops and splits `l` into ascending `KC` chunks
//! (f32 partial sums are stored to the output and reloaded, which is
//! exactly what the naive loop's memory accumulator does), so results are
//! **bit-identical** to the retained references
//! [`Mat::matmul_ref`](crate::mat::Mat::matmul_ref),
//! [`Mat::matmul_tn_ref`](crate::mat::Mat::matmul_tn_ref) and
//! [`Mat::matmul_nt_ref`](crate::mat::Mat::matmul_nt_ref) at every shape
//! and every ISA level: each SIMD lane is one output element doing one
//! `vfmadd` per step, and the portable level calls [`fma32`]. FMA is
//! correctly rounded, so how many elements share an instruction, and
//! whether the fma is hardware or [`fma32`], changes nothing. Every regime
//! below fuses: one multiply-then-add lane would make a path's bits depend
//! on which kernel its batch shape picked. The small-m
//! and prepacked drivers honor the same contract (the jammed kernel is
//! the naive loop with `l` hoisted outward and `j` tiled — each element's
//! reduction order is unchanged; the prepacked driver runs the identical
//! block schedule, it just reads the B panels from the prepacked buffer).
//! Tile edges are handled by zero-padding the packed panels: padded lanes
//! accumulate into accumulator slots that are never written back, so real
//! elements see no extra additions.
//!
//! The old element-level `a == 0.0` skip is gone — on dense embedding
//! activations it was a branch per multiply that blocked vectorization.
//! What remains is a *row*-level sparse fast path: output rows whose
//! entire A row is zero (CLS-only gradient scatters) are detected up
//! front in one cheap scan and skipped as whole micro-tiles.
//! A zero A row's steps are `fma(±0.0, b, acc)`, which keep a running
//! `+0.0` at `+0.0`, so the skip is value-identical too. The pack-free
//! tile sweep computes zero rows, as the references do.

use std::cell::RefCell;

use crate::fma::fma32;
use crate::isa::Isa;
#[cfg(target_arch = "x86_64")]
use crate::isa::Level;

/// Micro-kernel rows (register tile height): eight rows of one or two
/// `zmm` accumulators on AVX-512 hosts.
const MR: usize = 8;
/// Packed panel width: 16 f32 = one AVX-512 vector or two AVX vectors.
/// The AVX-512 micro-kernel reads two adjacent panels as one 32-wide tile,
/// so the panel layout is the same at every ISA level.
const NR: usize = 16;
/// Half a micro-tile's rows: the AVX micro-kernel's tile height, the
/// AVX-512 kernels' short tile for row remainders, and the row step of the
/// pack-free tile sweep.
const MR_HALF: usize = MR / 2;
/// K-dimension block: one packed panel's reduction depth.
const KC: usize = 256;
/// N-dimension block: columns of B packed per panel.
const NC: usize = 512;
/// M-dimension block: rows of A packed per panel.
const MC: usize = 128;

/// Largest `m` routed to the pack-free jammed kernel by [`gemm_nn`].
/// Below this the per-call `pack_b` traffic (`k·n` elements) dominates
/// the `m·k·n` useful work and the blocked driver stops paying for
/// itself (BENCH_kernels.json: 0.93x at 16×128×2304 before dispatch).
const SMALL_M: usize = 16;
/// Minimum output j-tile width of the jammed kernel.
const SMALL_J: usize = 256;
/// Output-tile budget of the jammed kernel, in f32 (16 KiB): the j-tile
/// widens to `OUT_TILE_F32 / m` so a 1-row product walks whole B rows
/// sequentially (the prefetch-friendly naive pattern) while m = 16 keeps
/// the original 256-column tile.
const OUT_TILE_F32: usize = 4096;

thread_local! {
    /// Per-thread packing scratch reused across calls: the blocked driver
    /// used to allocate fresh `ap`/`bp` panel buffers (up to ~0.5 MiB for
    /// bp) on *every* invocation, which at m=16 was measurable allocator
    /// traffic. The buffers only grow; the driver zero-fills exactly the
    /// panel region it packs, so stale contents are never observed.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Borrows the thread-local `(ap, bp)` packing scratch, grown to at least
/// the requested lengths. Not reentrant — the driver never calls user
/// code while holding the borrow.
fn with_pack_scratch<R>(
    ap_len: usize,
    bp_len: usize,
    f: impl FnOnce(&mut [f32], &mut [f32]) -> R,
) -> R {
    PACK_SCRATCH.with(|s| {
        let (ap, bp) = &mut *s.borrow_mut();
        if ap.len() < ap_len {
            ap.resize(ap_len, 0.0);
        }
        if bp.len() < bp_len {
            bp.resize(bp_len, 0.0);
        }
        f(&mut ap[..], &mut bp[..])
    })
}

/// One step of the FMA contract: `a·b + c`, rounded once. A `HW` build
/// must be inlined into a function compiled with the `fma` target feature
/// (`avx512f` implies it), where `mul_add` is one `vfmadd`; without the
/// feature `mul_add` is a libm `fmaf` call, so portable builds take
/// [`fma32`] instead.
#[inline(always)]
fn fma<const HW: bool>(a: f32, b: f32, c: f32) -> f32 {
    if HW {
        a.mul_add(b, c)
    } else {
        fma32(a, b, c)
    }
}

/// The portable register micro-kernel:
/// `acc[r][c] = fma(ap[l][r], bp[l][c], acc[r][c])` for `l` ascending,
/// through [`fma32`], for the first `mr` rows. `ap` is an `[kc][MR]`
/// panel, `bp` an `[kc][NR]` panel.
#[inline(always)]
fn micro_kernel_generic(kc: usize, mr: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (row, &ar) in acc.iter_mut().zip(a).take(mr) {
            for (c, &bv) in row.iter_mut().zip(b) {
                *c = fma32(ar, bv, *c);
            }
        }
    }
}

/// The AVX micro-kernel: the `MR × 16` tile as two `4 × 16` halves of
/// eight 256-bit accumulators each, one full `kc` sweep per half (a half
/// holding none of the first `mr` rows is skipped). One `vfmadd` per lane
/// and step, so each lane performs exactly the scalar `fma(a, b, acc)`
/// sequence and the result stays bit-identical to
/// [`micro_kernel_generic`] and the naive references.
///
/// # Safety
///
/// Caller must guarantee AVX and FMA are available and the panel-length
/// invariants of [`micro_kernel_generic`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn micro_kernel_avx(
    kc: usize,
    mr: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    for (h, half) in acc.chunks_exact_mut(MR_HALF).enumerate().take(mr.div_ceil(MR_HALF)) {
        let mut acc_v = [[_mm256_setzero_ps(); 2]; MR_HALF];
        for (accs, row) in acc_v.iter_mut().zip(half.iter()) {
            accs[0] = _mm256_loadu_ps(row.as_ptr());
            accs[1] = _mm256_loadu_ps(row.as_ptr().add(8));
        }
        let mut a_ptr = ap.as_ptr().add(h * MR_HALF);
        let mut b_ptr = bp.as_ptr();
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(b_ptr);
            let b1 = _mm256_loadu_ps(b_ptr.add(8));
            for (r, accs) in acc_v.iter_mut().enumerate() {
                let ar = _mm256_broadcast_ss(&*a_ptr.add(r));
                accs[0] = _mm256_fmadd_ps(ar, b0, accs[0]);
                accs[1] = _mm256_fmadd_ps(ar, b1, accs[1]);
            }
            a_ptr = a_ptr.add(MR);
            b_ptr = b_ptr.add(NR);
        }
        for (accs, row) in acc_v.iter().zip(half.iter_mut()) {
            _mm256_storeu_ps(row.as_mut_ptr(), accs[0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), accs[1]);
        }
    }
}

/// The AVX micro-kernel on AVX hosts, the portable one otherwise.
#[inline(always)]
fn micro_kernel(isa: Isa, kc: usize, mr: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if isa.level() == Level::Avx {
        // SAFETY: holding `isa` proves AVX and FMA; the panel lengths are the
        // generic kernel's invariants, which the callee debug-asserts.
        unsafe { micro_kernel_avx(kc, mr, ap, bp, acc) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    micro_kernel_generic(kc, mr, ap, bp, acc);
}

/// The AVX-512 register tile: `R` rows × `W` 16-lane columns of `zmm`
/// accumulators, updated straight in `out`. Element `(r, c)` of the tile
/// takes `fma(a(r, l), b(l, c), acc)` for `l` in `0..kc` ascending, one
/// `vfmadd` per step — the contract's order, so the same bits as the
/// references. The operands are strided pointers:
///
/// * `a(r, l) = a[r·a_rs + l·a_cs]` (`(1, MR)` for a packed `[kc][MR]`
///   panel, the matrix strides for the pack-free sweep);
/// * lane `c` of vector `w` at step `l` is `b[l·b_ls + w·b_ws + c]`
///   (`(NR, kc·NR)` for adjacent packed panels, `(n, NR)` for row-major B);
/// * the output tile starts at `o` with row stride `o_rs`. Only the first
///   `rows` rows and the lanes in `masks[w]` are loaded and stored; the
///   other rows start at zero and are dropped, so A must hold readable
///   (zero-padded) entries for all `R` rows.
///
/// # Safety
///
/// AVX-512F must be available, and every pointer must be valid for the
/// reads and writes the strides above describe.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_avx512<const R: usize, const W: usize>(
    kc: usize,
    (a, a_rs, a_cs): (*const f32, usize, usize),
    (b, b_ls, b_ws): (*const f32, usize, usize),
    (o, o_rs): (*mut f32, usize),
    rows: usize,
    masks: [u16; W],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); W]; R];
    for (r, accs) in acc.iter_mut().enumerate().take(rows) {
        for (w, v) in accs.iter_mut().enumerate() {
            *v = _mm512_maskz_loadu_ps(masks[w], o.add(r * o_rs + w * NR));
        }
    }
    let (mut a, mut b) = (a, b);
    for _ in 0..kc {
        let mut bv = [_mm512_setzero_ps(); W];
        for (w, v) in bv.iter_mut().enumerate() {
            *v = _mm512_loadu_ps(b.add(w * b_ws));
        }
        for (r, accs) in acc.iter_mut().enumerate() {
            let ar = _mm512_set1_ps(*a.add(r * a_rs));
            for (v, &bw) in accs.iter_mut().zip(&bv) {
                *v = _mm512_fmadd_ps(ar, bw, *v);
            }
        }
        a = a.add(a_cs);
        b = b.add(b_ls);
    }
    for (r, accs) in acc.iter().enumerate().take(rows) {
        for (w, &v) in accs.iter().enumerate() {
            _mm512_mask_storeu_ps(o.add(r * o_rs + w * NR), masks[w], v);
        }
    }
}

/// The lane mask of the first `cols` (capped at 16) lanes of a `zmm`.
#[cfg(target_arch = "x86_64")]
fn lane_mask(cols: usize) -> u16 {
    if cols >= NR {
        u16::MAX
    } else {
        (1u16 << cols) - 1
    }
}

/// Whether `[m, k] × [k, n]` tiles exactly into `MR_HALF × NR` tiles
/// inside one `(jc, lc, ic)` block of the blocked driver — the shapes the
/// pack-free tile sweep serves.
fn fits_one_block(m: usize, k: usize, n: usize) -> bool {
    m.is_multiple_of(MR_HALF) && n.is_multiple_of(NR) && k <= KC && m <= MC && n <= NC
}

/// The pack-free tile sweep: `out += A · B` for one-block shapes
/// ([`fits_one_block`]) on an AVX or AVX-512 host, with A read in place
/// through strides (`a(i, l) = a[i·a_rs + l·a_cs]`, so `Aᵀ` costs nothing)
/// and B read in place as row-major `[k, n]`. Each output tile accumulates
/// exactly like the micro-kernels (one `vfmadd` per step, `l` ascending
/// from the value already in `out`), so it is bit-identical to the blocked
/// driver and the naive references. Like the references — and unlike the
/// blocked driver — it computes zero A rows instead of skipping them.
/// Returns whether it ran; on `false` nothing was written. The strides
/// are `(k, 1)` for a row-major `[m, k]` A or `(1, m)` for a row-major
/// `[k, m]` Aᵀ.
fn try_tile_sweep(
    isa: Isa,
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    out: &mut [f32],
) -> bool {
    assert!((a_rs, a_cs) == (k, 1) || (a_rs, a_cs) == (1, m), "tile sweep strides");
    if !(fits_one_block(m, k, n) && a.len() == m * k && b.len() == k * n && out.len() == m * n) {
        return false;
    }
    // SAFETY (both arms): holding `isa` proves the CPU runs its level;
    // `fits_one_block` makes every tile whole, and the length checks bound
    // every read of `a` (max index (m-1)·a_rs + (k-1)·a_cs < m·k for both
    // strides), `b` and `out`.
    #[cfg(target_arch = "x86_64")]
    match isa.level() {
        Level::Avx512 => {
            unsafe { tile_sweep_avx512(m, k, n, a, a_rs, a_cs, b, out) };
            return true;
        }
        Level::Avx => {
            unsafe { tile_sweep_avx(m, k, n, a, a_rs, a_cs, b, out) };
            return true;
        }
        Level::Generic => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (isa, a_rs, a_cs, b, out);
    false
}

/// The AVX tile sweep: `4 × 16` tiles of eight `ymm` accumulators.
///
/// # Safety
///
/// AVX and FMA must be available, `m % MR_HALF == 0`, `n % NR == 0`, and
/// `a`, `b`, `out` must hold the `[m, k]` (strided), `[k, n]` and `[m, n]`
/// operands.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_sweep_avx(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (a_ptr, b_ptr, o_ptr) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    for j0 in (0..n).step_by(NR) {
        for i0 in (0..m).step_by(MR_HALF) {
            let mut acc = [[_mm256_setzero_ps(); 2]; MR_HALF];
            for (r, accs) in acc.iter_mut().enumerate() {
                let o = o_ptr.add((i0 + r) * n + j0);
                accs[0] = _mm256_loadu_ps(o);
                accs[1] = _mm256_loadu_ps(o.add(8));
            }
            for l in 0..k {
                let bl = b_ptr.add(l * n + j0);
                let b0 = _mm256_loadu_ps(bl);
                let b1 = _mm256_loadu_ps(bl.add(8));
                let al = a_ptr.add(i0 * a_rs + l * a_cs);
                for (r, accs) in acc.iter_mut().enumerate() {
                    let ar = _mm256_broadcast_ss(&*al.add(r * a_rs));
                    accs[0] = _mm256_fmadd_ps(ar, b0, accs[0]);
                    accs[1] = _mm256_fmadd_ps(ar, b1, accs[1]);
                }
            }
            for (r, accs) in acc.iter().enumerate() {
                let o = o_ptr.add((i0 + r) * n + j0);
                _mm256_storeu_ps(o, accs[0]);
                _mm256_storeu_ps(o.add(8), accs[1]);
            }
        }
    }
}

/// The AVX-512 tile sweep: [`tile_avx512`] over `MR × 32` tiles, with a
/// 16-wide last column strip and a four-row last row strip where the
/// shape leaves them.
///
/// # Safety
///
/// As for [`tile_sweep_avx`], with AVX-512F in place of AVX and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_sweep_avx512(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    out: &mut [f32],
) {
    let (a_ptr, b_ptr, o_ptr) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut j0 = 0;
    while j0 < n {
        let wide = n - j0 >= 2 * NR;
        let bt = (b_ptr.add(j0), n, NR);
        let mut i0 = 0;
        while i0 < m {
            let tall = m - i0 >= MR;
            let at = (a_ptr.add(i0 * a_rs), a_rs, a_cs);
            let ot = (o_ptr.add(i0 * n + j0), n);
            match (tall, wide) {
                (true, true) => tile_avx512::<MR, 2>(k, at, bt, ot, MR, [u16::MAX; 2]),
                (true, false) => tile_avx512::<MR, 1>(k, at, bt, ot, MR, [u16::MAX]),
                (false, true) => {
                    tile_avx512::<MR_HALF, 2>(k, at, bt, ot, MR_HALF, [u16::MAX; 2]);
                }
                (false, false) => tile_avx512::<MR_HALF, 1>(k, at, bt, ot, MR_HALF, [u16::MAX]),
            }
            i0 += if tall { MR } else { MR_HALF };
        }
        j0 += if wide { 2 * NR } else { NR };
    }
}

/// The shared blocked driver. `pack_a(buf, ic, mc, lc, kc)` must fill
/// `buf` with `[mc.div_ceil(MR)]` micro-panels of layout `[kc][MR]`
/// holding the logical `A[ic..ic+mc, lc..lc+kc]` block (zero-padded);
/// `pack_b` the analogous `[kc][NR]` panels of `B[lc..lc+kc, jc..jc+nc]`.
/// `zero_rows`, when non-empty, flags output rows whose whole logical A
/// row is zero; micro-tiles made only of such rows are skipped.
#[allow(clippy::too_many_arguments)]
fn gemm_driver<PA, PB>(
    isa: Isa,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    zero_rows: &[bool],
    pack_a: PA,
    pack_b: PB,
) where
    PA: Fn(&mut [f32], usize, usize, usize, usize),
    PB: Fn(&mut [f32], usize, usize, usize, usize),
{
    if m == 0 || n == 0 {
        return;
    }
    debug_assert_eq!(out.len(), m * n);
    if k == 0 {
        return; // out stays zero, matching an empty reduction
    }
    let bp_len = NC.min(n).div_ceil(NR) * NR * KC.min(k);
    let ap_len = MC.min(m).div_ceil(MR) * MR * KC.min(k);
    with_pack_scratch(ap_len, bp_len, |ap, bp| {
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let n_panels = nc.div_ceil(NR);
            let mut lc = 0;
            while lc < k {
                let kc = KC.min(k - lc);
                bp[..n_panels * kc * NR].fill(0.0);
                pack_b(bp, jc, nc, lc, kc);
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    let m_panels = mc.div_ceil(MR);
                    ap[..m_panels * kc * MR].fill(0.0);
                    pack_a(ap, ic, mc, lc, kc);
                    micro_sweep(isa, m, n, out, zero_rows, ap, bp, jc, ic, nc, kc, mc);
                    ic += mc;
                }
                lc += kc;
            }
            jc += nc;
        }
    });
}

/// Sweeps the micro-kernel over one packed `(jc, lc, ic)` block — the
/// inner two loops shared by the per-call and prepacked drivers.
#[allow(clippy::too_many_arguments)]
fn micro_sweep(
    isa: Isa,
    m: usize,
    n: usize,
    out: &mut [f32],
    zero_rows: &[bool],
    ap: &[f32],
    bp: &[f32],
    jc: usize,
    ic: usize,
    nc: usize,
    kc: usize,
    mc: usize,
) {
    // The AVX-512 sweep reads and writes through raw pointers, so these
    // bounds are checked in release builds too (once per block).
    assert!(ic + mc <= m && jc + nc <= n && out.len() >= m * n, "micro_sweep block bounds");
    assert!(
        ap.len() >= mc.div_ceil(MR) * kc * MR && bp.len() >= nc.div_ceil(NR) * kc * NR,
        "micro_sweep panel bounds"
    );
    #[cfg(target_arch = "x86_64")]
    if isa.level() == Level::Avx512 {
        // SAFETY: holding `isa` proves AVX-512F; the asserts above bound
        // every panel read, and the sweep writes only rows `ic..ic+mc` and
        // columns `jc..jc+nc` of the `[m, n]` output.
        unsafe { micro_sweep_avx512(m, n, out, zero_rows, ap, bp, jc, ic, nc, kc, mc) };
        return;
    }
    let n_panels = nc.div_ceil(NR);
    let m_panels = mc.div_ceil(MR);
    for pj in 0..n_panels {
        let j0 = jc + pj * NR;
        let nr = NR.min(n - j0);
        let bpanel = &bp[pj * kc * NR..(pj + 1) * kc * NR];
        for pi in 0..m_panels {
            let i0 = ic + pi * MR;
            let mr = MR.min(m - i0);
            if !zero_rows.is_empty() && zero_rows[i0..i0 + mr].iter().all(|&z| z) {
                continue;
            }
            let apanel = &ap[pi * kc * MR..(pi + 1) * kc * MR];
            let mut acc = [[0.0f32; NR]; MR];
            for (r, row) in acc.iter_mut().enumerate().take(mr) {
                let o = (i0 + r) * n + j0;
                row[..nr].copy_from_slice(&out[o..o + nr]);
            }
            micro_kernel(isa, kc, mr, apanel, bpanel, &mut acc);
            for (r, row) in acc.iter().enumerate().take(mr) {
                let o = (i0 + r) * n + j0;
                out[o..o + nr].copy_from_slice(&row[..nr]);
            }
        }
    }
}

/// [`micro_sweep`] on AVX-512: panels in adjacent pairs as one `MR × 32`
/// [`tile_avx512`] (`MR × 16` for an odd last panel, four-row tiles for a
/// last row panel of at most four rows), edge columns masked.
///
/// # Safety
///
/// AVX-512F must be available and the panels sized as [`micro_sweep`]
/// asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_sweep_avx512(
    m: usize,
    n: usize,
    out: &mut [f32],
    zero_rows: &[bool],
    ap: &[f32],
    bp: &[f32],
    jc: usize,
    ic: usize,
    nc: usize,
    kc: usize,
    mc: usize,
) {
    let n_panels = nc.div_ceil(NR);
    let m_panels = mc.div_ceil(MR);
    let o_ptr = out.as_mut_ptr();
    for pj in (0..n_panels).step_by(2) {
        let j0 = jc + pj * NR;
        let cols = (jc + nc - j0).min(2 * NR);
        let bt = (bp.as_ptr().add(pj * kc * NR), NR, kc * NR);
        let masks = [lane_mask(cols), lane_mask(cols.saturating_sub(NR))];
        for pi in 0..m_panels {
            let i0 = ic + pi * MR;
            let mr = MR.min(m - i0);
            if !zero_rows.is_empty() && zero_rows[i0..i0 + mr].iter().all(|&z| z) {
                continue;
            }
            let at = (ap.as_ptr().add(pi * kc * MR), 1, MR);
            let ot = (o_ptr.add(i0 * n + j0), n);
            match (mr > MR_HALF, cols > NR) {
                (true, true) => tile_avx512::<MR, 2>(kc, at, bt, ot, mr, masks),
                (true, false) => tile_avx512::<MR, 1>(kc, at, bt, ot, mr, [masks[0]]),
                (false, true) => tile_avx512::<MR_HALF, 2>(kc, at, bt, ot, mr, masks),
                (false, false) => tile_avx512::<MR_HALF, 1>(kc, at, bt, ot, mr, [masks[0]]),
            }
        }
    }
}

/// Flags rows of the row-major `[m, k]` matrix `a` that are entirely zero.
/// Early-exits per row, so dense inputs cost ~one read per row.
fn zero_rows(a: &[f32], m: usize, k: usize) -> Vec<bool> {
    (0..m).map(|i| a[i * k..(i + 1) * k].iter().all(|&v| v == 0.0)).collect()
}

/// The pack-free small-m kernel: the naive `ikj` loop with the `l` loop
/// hoisted outermost (unrolled ×4) and `j` tiled to an
/// `OUT_TILE_F32`-budgeted width. Per j-tile, B streams through exactly
/// once (the blocked driver *and* the naive loop both re-read it per
/// output row) while the `m × tile` output tile stays in L1 across the
/// whole reduction; the 4-way unroll cuts the per-`l` C reload/store
/// traffic to a quarter. Each `out[i][j]` still takes
/// `fma(a(i,l), b(l,j), acc)` with `l` strictly ascending, one rounding
/// per step — bit-identical to [`Mat::matmul_ref`]. Whole-zero A rows are
/// skipped (`+0.0`-preserving, see the module docs). Its loop is compiled
/// under `avx512f` on AVX-512 hosts (16 f32 lanes per `zmm` along `j`),
/// under `avx,fma` on AVX hosts, and as the portable [`fma32`] build
/// otherwise.
///
/// [`Mat::matmul_ref`]: crate::mat::Mat::matmul_ref
fn gemm_nn_smallm(isa: Isa, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    // SAFETY (both arms): holding `isa` proves the CPU runs its level.
    #[cfg(target_arch = "x86_64")]
    match isa.level() {
        Level::Avx512 => return unsafe { smallm_avx512(m, k, n, a, b, out) },
        Level::Avx => return unsafe { smallm_avx(m, k, n, a, b, out) },
        Level::Generic => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    smallm_loop::<false>(m, k, n, a, b, out);
}

/// [`smallm_loop`] compiled with AVX-512F enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn smallm_avx512(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    smallm_loop::<true>(m, k, n, a, b, out);
}

/// [`smallm_loop`] compiled with AVX and FMA enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
unsafe fn smallm_avx(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    smallm_loop::<true>(m, k, n, a, b, out);
}

/// The loop of [`gemm_nn_smallm`], inlined into each ISA build; `HW`
/// picks the fma step ([`fma`]).
#[inline(always)]
fn smallm_loop<const HW: bool>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let zr = zero_rows(a, m, k);
    let jt = (OUT_TILE_F32 / m.max(1)).max(SMALL_J);
    let mut jb = 0;
    while jb < n {
        let je = (jb + jt).min(n);
        let w = je - jb;
        let mut l = 0;
        while l < k {
            let lu = (k - l).min(4);
            for i in 0..m {
                if zr[i] {
                    continue;
                }
                let arow = &a[i * k + l..i * k + l + lu];
                let crow = &mut out[i * n + jb..i * n + je];
                if lu == 4 {
                    let (a0, a1, a2, a3) = (arow[0], arow[1], arow[2], arow[3]);
                    let b0 = &b[l * n + jb..l * n + je];
                    let b1 = &b[(l + 1) * n + jb..(l + 1) * n + je];
                    let b2 = &b[(l + 2) * n + jb..(l + 2) * n + je];
                    let b3 = &b[(l + 3) * n + jb..(l + 3) * n + je];
                    for j in 0..w {
                        let mut c = crow[j];
                        c = fma::<HW>(a0, b0[j], c);
                        c = fma::<HW>(a1, b1[j], c);
                        c = fma::<HW>(a2, b2[j], c);
                        c = fma::<HW>(a3, b3[j], c);
                        crow[j] = c;
                    }
                } else {
                    for (u, &alu) in arow.iter().enumerate() {
                        let brow = &b[(l + u) * n + jb..(l + u) * n + je];
                        for (c, &bv) in crow.iter_mut().zip(brow) {
                            *c = fma::<HW>(alu, bv, *c);
                        }
                    }
                }
            }
            l += lu;
        }
        jb = je;
    }
}

/// Rows whose dot products [`gemm_narrow`] runs side by side.
const NARROW_ROWS: usize = 8;

/// The pack-free narrow kernel for `n < NR` — at `n = 1` a matrix–vector
/// product, like the Aggregation MLPs' 32→1 output layer and its weight
/// gradient. A is read in place through strides (`a(i, l) =
/// a[i·a_rs + l·a_cs]`, so `Aᵀ` costs nothing). Per output column,
/// blocks of [`NARROW_ROWS`] rows accumulate side by side, each element
/// taking `fma(a(i,l), b(l,j), acc)` with `l` ascending from the value in
/// `out`: the references' order, so the result is bit-identical to them.
/// A 16-lane micro-tile would waste `NR - n` lanes and pay both packing
/// passes, and the jammed kernel's lone per-row chain waits on every fma;
/// eight independent chains keep the fma unit busy. Zero rows are
/// computed, as in the references. AVX and AVX-512 hosts run its `fma`
/// build, others the portable [`fma32`] one.
fn gemm_narrow(
    isa: Isa,
    shape: (usize, usize, usize),
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if isa.level() != Level::Generic {
        // SAFETY: holding an AVX or AVX-512 `isa` proves FMA.
        unsafe { narrow_fma(shape, a, a_strides, b, out) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    narrow_loop::<false>(shape, a, a_strides, b, out);
}

/// [`narrow_loop`] compiled with FMA enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn narrow_fma(
    shape: (usize, usize, usize),
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    narrow_loop::<true>(shape, a, a_strides, b, out);
}

/// The loop of [`gemm_narrow`], inlined into each build.
#[inline(always)]
fn narrow_loop<const HW: bool>(
    (m, k, n): (usize, usize, usize),
    a: &[f32],
    (a_rs, a_cs): (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    for i0 in (0..m).step_by(NARROW_ROWS) {
        let rows = NARROW_ROWS.min(m - i0);
        for j in 0..n {
            let mut acc = [0.0f32; NARROW_ROWS];
            for (r, c) in acc.iter_mut().enumerate().take(rows) {
                *c = out[(i0 + r) * n + j];
            }
            for l in 0..k {
                let bv = b[l * n + j];
                let al = i0 * a_rs + l * a_cs;
                for (r, c) in acc.iter_mut().enumerate().take(rows) {
                    *c = fma::<HW>(a[al + r * a_rs], bv, *c);
                }
            }
            for (r, &c) in acc.iter().enumerate().take(rows) {
                out[(i0 + r) * n + j] = c;
            }
        }
    }
}

/// `out = a @ b` for row-major `a: [m, k]`, `b: [k, n]`. `out` must be
/// zeroed (or hold a partial sum over earlier `l`, per the FMA
/// contract). The shape picks one of four bit-identical regimes:
/// `m <= SMALL_M` rows run the jammed small-m kernel, `n < NR`
/// columns the narrow kernel, one-block exact-tile shapes the
/// pack-free tile sweep on AVX and AVX-512 hosts, and everything else the
/// blocked driver.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_nn_at(Isa::host(), m, k, n, a, b, out);
}

/// [`gemm_nn`] at a given ISA level.
fn gemm_nn_at(isa: Isa, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    if m <= SMALL_M {
        return gemm_nn_smallm(isa, m, k, n, a, b, out);
    }
    if n < NR {
        return gemm_narrow(isa, (m, k, n), a, (k, 1), b, out);
    }
    if try_tile_sweep(isa, (m, k, n), a, (k, 1), b, out) {
        return;
    }
    let zr = zero_rows(a, m, k);
    gemm_driver(
        isa,
        m,
        k,
        n,
        out,
        &zr,
        |buf, ic, mc, lc, kc| pack_a_rows(buf, a, k, ic, mc, lc, kc),
        |buf, jc, nc, lc, kc| pack_b_rows(buf, b, n, jc, nc, lc, kc),
    );
}

/// Packs `A[ic..ic+mc, lc..lc+kc]` of a row-major `a` with row length `k`
/// into `[kc][MR]` micro-panels.
fn pack_a_rows(buf: &mut [f32], a: &[f32], k: usize, ic: usize, mc: usize, lc: usize, kc: usize) {
    for ri in 0..mc {
        let (pi, r) = (ri / MR, ri % MR);
        let src = &a[(ic + ri) * k + lc..(ic + ri) * k + lc + kc];
        let panel = pi * kc * MR;
        for (l, &v) in src.iter().enumerate() {
            buf[panel + l * MR + r] = v;
        }
    }
}

/// Packs `B[lc..lc+kc, jc..jc+nc]` of a row-major `b` with row length `n`
/// into `[kc][NR]` micro-panels.
fn pack_b_rows(buf: &mut [f32], b: &[f32], n: usize, jc: usize, nc: usize, lc: usize, kc: usize) {
    for l in 0..kc {
        let src = &b[(lc + l) * n + jc..(lc + l) * n + jc + nc];
        for (ci, &v) in src.iter().enumerate() {
            let (pj, c) = (ci / NR, ci % NR);
            buf[pj * kc * NR + l * NR + c] = v;
        }
    }
}

/// `out = aᵀ @ b` for row-major `a: [k, m]`, `b: [k, n]` — the transpose
/// is absorbed into the A-panel packing, or into the strided reads of
/// the narrow kernel (`n < NR`) and of the pack-free tile sweep (one-block
/// exact-tile shapes on AVX and AVX-512 hosts); it is never materialized.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_tn_at(Isa::host(), m, k, n, a, b, out);
}

/// [`gemm_tn`] at a given ISA level.
fn gemm_tn_at(isa: Isa, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    if n < NR {
        return gemm_narrow(isa, (m, k, n), a, (1, m), b, out);
    }
    if try_tile_sweep(isa, (m, k, n), a, (1, m), b, out) {
        return;
    }
    gemm_driver(
        isa,
        m,
        k,
        n,
        out,
        &[],
        |buf, ic, mc, lc, kc| {
            for l in 0..kc {
                let src = &a[(lc + l) * m + ic..(lc + l) * m + ic + mc];
                for (ri, &v) in src.iter().enumerate() {
                    let (pi, r) = (ri / MR, ri % MR);
                    buf[pi * kc * MR + l * MR + r] = v;
                }
            }
        },
        |buf, jc, nc, lc, kc| pack_b_rows(buf, b, n, jc, nc, lc, kc),
    );
}

/// `out = a @ bᵀ` for row-major `a: [m, k]`, `b: [n, k]` — the transpose
/// is absorbed into the B-panel packing, never materialized.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_nt_at(Isa::host(), m, k, n, a, b, out);
}

/// [`gemm_nt`] at a given ISA level.
fn gemm_nt_at(isa: Isa, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    let zr = zero_rows(a, m, k);
    gemm_driver(
        isa,
        m,
        k,
        n,
        out,
        &zr,
        |buf, ic, mc, lc, kc| pack_a_rows(buf, a, k, ic, mc, lc, kc),
        |buf, jc, nc, lc, kc| {
            for ci in 0..nc {
                let (pj, c) = (ci / NR, ci % NR);
                let src = &b[(jc + ci) * k + lc..(jc + ci) * k + lc + kc];
                let panel = pj * kc * NR;
                for (l, &v) in src.iter().enumerate() {
                    buf[panel + l * NR + c] = v;
                }
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Prepacked B: pack the weight side once, at model load.
// ---------------------------------------------------------------------------

/// A row-major `[k, n]` matrix repacked once into the exact `[kc][NR]`
/// panel sequence the blocked driver builds per call, stored in the
/// driver's `(jc, lc)` block iteration order. [`gemm_prepacked_nn`]
/// consumes it without ever touching `pack_b`, so the per-call cost of a
/// weight GEMM is A-packing plus micro-kernels — which is what makes
/// small-m (few uncached paths per request) track the hardware instead of
/// the packing overhead.
#[derive(Debug, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    data: Vec<f32>,
}

/// Total panel floats for a `[k, n]` prepack (zero-padded edge panels
/// included).
fn packed_len(k: usize, n: usize) -> usize {
    let mut total = 0;
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        total += nc.div_ceil(NR) * NR * k;
        jc += nc;
    }
    total
}

impl PackedB {
    /// Packs row-major `b: [k, n]` into driver panel order.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[f32], k: usize, n: usize) -> PackedB {
        assert_eq!(b.len(), k * n, "PackedB shape/data mismatch");
        let mut data = vec![0.0f32; packed_len(k, n)];
        let mut off = 0;
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let n_panels = nc.div_ceil(NR);
            let mut lc = 0;
            while lc < k {
                let kc = KC.min(k - lc);
                pack_b_rows(&mut data[off..off + n_panels * kc * NR], b, n, jc, nc, lc, kc);
                off += n_panels * kc * NR;
                lc += kc;
            }
            jc += nc;
        }
        PackedB { k, n, data }
    }

    /// Reduction depth (rows of the original B).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width (columns of the original B).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resident bytes of the packed panels.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// `out = a @ B` against a prepacked B — the blocked driver with the
/// `pack_b` stage deleted. Runs the identical `(jc, lc, ic)` block
/// schedule and micro-kernels as [`gemm_nn`]'s driver, so the result is
/// bit-identical to [`gemm_nn`] and the naive reference at every shape.
///
/// # Panics
///
/// Panics if `a.len() != m * pb.k()` or `out.len() != m * pb.n()`.
pub fn gemm_prepacked_nn(m: usize, a: &[f32], pb: &PackedB, out: &mut [f32]) {
    gemm_prepacked_nn_at(Isa::host(), m, a, pb, out);
}

/// [`gemm_prepacked_nn`] at a given ISA level.
fn gemm_prepacked_nn_at(isa: Isa, m: usize, a: &[f32], pb: &PackedB, out: &mut [f32]) {
    let (k, n) = (pb.k, pb.n);
    assert_eq!(a.len(), m * k, "prepacked A shape");
    assert_eq!(out.len(), m * n, "prepacked out shape");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let zr = zero_rows(a, m, k);
    let ap_len = MC.min(m).div_ceil(MR) * MR * KC.min(k);
    with_pack_scratch(ap_len, 0, |ap, _| {
        let mut off = 0;
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let n_panels = nc.div_ceil(NR);
            let mut lc = 0;
            while lc < k {
                let kc = KC.min(k - lc);
                let bp = &pb.data[off..off + n_panels * kc * NR];
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    ap[..mc.div_ceil(MR) * kc * MR].fill(0.0);
                    pack_a_rows(ap, a, k, ic, mc, lc, kc);
                    micro_sweep(isa, m, n, out, &zr, ap, bp, jc, ic, nc, kc, mc);
                    ic += mc;
                }
                off += n_panels * kc * NR;
                lc += kc;
            }
            jc += nc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::{
        gemm_nn_at, gemm_nt_at, gemm_prepacked_nn_at, gemm_tn_at, Isa, PackedB, KC, MC, MR,
        MR_HALF, NC, NR, SMALL_M,
    };
    use crate::mat::Mat;
    use sns_rt::rng::StdRng;

    fn rand_mat(rng: &mut StdRng, rows: usize, cols: usize) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.gen_range(-1.0f32..1.0);
        }
        m
    }

    /// `a @ b` through [`gemm_nn_at`] at `isa`.
    fn nn(isa: Isa, a: &Mat, b: &Mat) -> Mat {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Mat::zeros(m, n);
        gemm_nn_at(isa, m, k, n, a.as_slice(), b.as_slice(), out.as_mut_slice());
        out
    }

    /// `atᵀ @ b` through [`gemm_tn_at`] at `isa`.
    fn tn(isa: Isa, at: &Mat, b: &Mat) -> Mat {
        let (m, k, n) = (at.cols(), at.rows(), b.cols());
        let mut out = Mat::zeros(m, n);
        gemm_tn_at(isa, m, k, n, at.as_slice(), b.as_slice(), out.as_mut_slice());
        out
    }

    /// `a @ btᵀ` through [`gemm_nt_at`] at `isa`.
    fn nt(isa: Isa, a: &Mat, bt: &Mat) -> Mat {
        let (m, k, n) = (a.rows(), a.cols(), bt.rows());
        let mut out = Mat::zeros(m, n);
        gemm_nt_at(isa, m, k, n, a.as_slice(), bt.as_slice(), out.as_mut_slice());
        out
    }

    /// `a @ b` through [`gemm_prepacked_nn_at`] at `isa`.
    fn prepacked(isa: Isa, a: &Mat, pb: &PackedB) -> Mat {
        let mut out = Mat::zeros(a.rows(), pb.n());
        gemm_prepacked_nn_at(isa, a.rows(), a.as_slice(), pb, out.as_mut_slice());
        out
    }

    /// Every ISA level this host runs, each checked directly: on an
    /// AVX-512 host runtime dispatch alone would leave the AVX and
    /// generic builds untested. A level the host lacks is skipped, and
    /// both x86 levels need FMA (their kernels issue `vfmadd`): an AVX
    /// host without it runs the generic level.
    #[test]
    fn every_supported_isa_level_is_tested_up_to_the_host() {
        let levels = Isa::supported();
        assert_eq!(levels.first().map(|i| i.name()), Some("generic"));
        assert_eq!(levels.last(), Some(&Isa::host()));
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let names: Vec<&str> = levels.iter().map(|i| i.name()).collect();
            let fma = has!("fma");
            assert_eq!(names.contains(&"avx"), has!("avx") && fma, "{names:?}");
            assert_eq!(names.contains(&"avx512f"), has!("avx512f") && fma, "{names:?}");
            if !fma {
                assert_eq!(names, ["generic"]);
            }
        }
    }

    /// Blocked kernels are bit-identical to the naive references across
    /// shapes that hit every tile-edge case (1, MR±1, NR±1, > blocks) —
    /// including the small-m jammed dispatch (every m <= SMALL_M here).
    #[test]
    fn blocked_kernels_match_references_bitwise() {
        let dims = [1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33];
        for isa in Isa::supported() {
            let mut rng = StdRng::seed_from_u64(42);
            for &m in &dims {
                for &k in &dims {
                    for &n in &dims {
                        let a = rand_mat(&mut rng, m, k);
                        let b = rand_mat(&mut rng, k, n);
                        assert_bits(&nn(isa, &a, &b), &a.matmul_ref(&b), (isa, "nn"), m, k, n);
                        let at = rand_mat(&mut rng, k, m);
                        let want = at.matmul_tn_ref(&b);
                        assert_bits(&tn(isa, &at, &b), &want, (isa, "tn"), m, k, n);
                        let bt = rand_mat(&mut rng, n, k);
                        let want = a.matmul_nt_ref(&bt);
                        assert_bits(&nt(isa, &a, &bt), &want, (isa, "nt"), m, k, n);
                    }
                }
            }
        }
    }

    /// The jammed small-m kernel across its j-tile boundary and the
    /// blocked/smallm dispatch edge (m = 16 vs 17), against wide B.
    #[test]
    fn small_m_dispatch_matches_references_bitwise() {
        for isa in Isa::supported() {
            let mut rng = StdRng::seed_from_u64(17);
            for &m in &[1usize, 2, 5, SMALL_M, SMALL_M + 1] {
                for &k in &[7usize, 128] {
                    for &n in &[255usize, 256, 257, 700] {
                        let a = rand_mat(&mut rng, m, k);
                        let b = rand_mat(&mut rng, k, n);
                        let want = a.matmul_ref(&b);
                        assert_bits(&nn(isa, &a, &b), &want, (isa, "nn-small"), m, k, n);
                    }
                }
            }
        }
    }

    /// The dispatch edges of [`gemm_nn`](super::gemm_nn) and
    /// [`gemm_tn`](super::gemm_tn): small-m and narrow (`n < NR`)
    /// products, exact-tile one-block shapes (the pack-free tile sweep,
    /// whose row step is `MR_HALF`) and their off-by-one neighbours on
    /// every side of `MR`, `NR`, `KC` and `MC` (the blocked driver, whose
    /// AVX-512 build pairs `NR` panels: n = 17, 33, 48 leave an odd or
    /// partial last panel).
    #[test]
    fn pack_free_dispatch_edges_match_references_bitwise() {
        let mut ms = Vec::new();
        for j in [1usize, 2, 4, 5, 8, 16, 21, MC / MR_HALF] {
            ms.extend([MR_HALF * j - 1, MR_HALF * j, MR_HALF * j + 1]);
        }
        assert_eq!(ms.last(), Some(&(MC + 1)));
        assert!(ms.iter().filter(|&&m| m > SMALL_M).count() >= 15);
        for isa in Isa::supported() {
            let mut rng = StdRng::seed_from_u64(23);
            for &m in &ms {
                for &k in &[1usize, 84, KC, KC + 1] {
                    for &n in &[1usize, 15, 16, 17, 32, 33, 48] {
                        let a = rand_mat(&mut rng, m, k);
                        let b = rand_mat(&mut rng, k, n);
                        let want = a.matmul_ref(&b);
                        assert_bits(&nn(isa, &a, &b), &want, (isa, "nn-edge"), m, k, n);
                        let at = rand_mat(&mut rng, k, m);
                        let want = at.matmul_tn_ref(&b);
                        assert_bits(&tn(isa, &at, &b), &want, (isa, "tn-edge"), m, k, n);
                    }
                }
            }
        }
    }

    fn assert_bits(x: &Mat, y: &Mat, (isa, kind): (Isa, &str), m: usize, k: usize, n: usize) {
        let isa = isa.name();
        assert_eq!((x.rows(), x.cols()), (y.rows(), y.cols()), "{isa} {kind} {m}x{k}x{n}");
        for (i, (a, b)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{isa} {kind} {m}x{k}x{n} elem {i}: blocked {a} vs reference {b}"
            );
        }
    }

    /// The row-sparse fast path gives the same values as the dense
    /// reference when whole A rows are zero (the gradient-scatter shape).
    #[test]
    fn zero_rows_fast_path_matches_reference() {
        for isa in Isa::supported() {
            let mut rng = StdRng::seed_from_u64(7);
            let mut a = rand_mat(&mut rng, 9, 6);
            for r in [0usize, 2, 3, 5, 8] {
                a.row_mut(r).fill(0.0);
            }
            let b = rand_mat(&mut rng, 6, 21);
            assert_bits(&nn(isa, &a, &b), &a.matmul_ref(&b), (isa, "nn-zero"), 9, 6, 21);
            let bt = rand_mat(&mut rng, 21, 6);
            assert_bits(&nt(isa, &a, &bt), &a.matmul_nt_ref(&bt), (isa, "nt-zero"), 9, 6, 21);
            // A whole zero micro-tile skipped by the blocked driver, next
            // to a partly zero one.
            let mut a = rand_mat(&mut rng, 2 * MR + 3, 6);
            for r in (0..MR).chain([MR + 1, 2 * MR + 2]) {
                a.row_mut(r).fill(0.0);
            }
            let m = a.rows();
            let bt = rand_mat(&mut rng, 40, 6);
            assert_bits(&nt(isa, &a, &bt), &a.matmul_nt_ref(&bt), (isa, "nt-zero"), m, 6, 40);
            // An exact-tile shape past SMALL_M: the pack-free sweep computes
            // the zero rows, with the same bits.
            let mut a = rand_mat(&mut rng, 20, 8);
            for r in [0usize, 1, 2, 3, 9, 19] {
                a.row_mut(r).fill(0.0);
            }
            let b = rand_mat(&mut rng, 8, 32);
            assert_bits(&nn(isa, &a, &b), &a.matmul_ref(&b), (isa, "nn-zero"), 20, 8, 32);
            let at = a.transposed();
            let want = at.matmul_tn_ref(&b);
            assert_bits(&tn(isa, &at, &b), &want, (isa, "tn-zero"), 20, 8, 32);
        }
    }

    /// Prepacked GEMM is bit-identical to the per-call paths at shapes
    /// spanning one to four rows (a tile mostly of padding rows),
    /// micro-tile edges, multiple KC chunks and multiple NC blocks
    /// (k = 300 > KC, n = 600 > NC, and n = NC + NR leaves a one-panel
    /// last block).
    #[test]
    fn prepacked_matches_references_bitwise() {
        for isa in Isa::supported() {
            let mut rng = StdRng::seed_from_u64(99);
            for &m in &[1usize, 2, 3, 4, 5, MR, 16, 33, 130] {
                for &(k, n) in
                    &[(5usize, 17usize), (128, 512), (300, 600), (64, 2304), (7, NC + NR)]
                {
                    let a = rand_mat(&mut rng, m, k);
                    let b = rand_mat(&mut rng, k, n);
                    let pb = PackedB::pack(b.as_slice(), k, n);
                    let want = a.matmul_ref(&b);
                    assert_bits(&prepacked(isa, &a, &pb), &want, (isa, "prepacked"), m, k, n);
                    assert!(pb.bytes() >= k * n * 4);
                }
            }
        }
    }
}
