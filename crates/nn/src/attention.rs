//! Multi-head self-attention.
//!
//! The training path ([`MultiHeadAttention::forward`] /
//! [`MultiHeadAttention::backward`]) operates on one `[T, d]` sequence at
//! a time; minibatch parallelism happens one level up (threads × private
//! [`Grads`]).
//!
//! The inference path ([`PackedAttention::infer_masked`]) runs several
//! sequences packed into one `[ΣT, d]` matrix, described by [`SeqSpan`]s.
//! Attention is block-diagonal: a query never attends across a span
//! boundary, so each row gets exactly the arithmetic the unbatched
//! forward would have done.

use sns_rt::rng::StdRng;

use crate::gemm::PackedB;
use crate::linear::{Linear, LinearCtx};
use crate::mat::Mat;
use crate::param::{Grads, Param, ParamRegistry};

/// One packed sequence's location inside a batched `[ΣT, d]` activation
/// matrix: rows `start .. start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqSpan {
    /// First row of this sequence in the packed matrix.
    pub start: usize,
    /// Number of token rows.
    pub len: usize,
}

/// Multi-head scaled-dot-product self-attention with output projection.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

/// Saved forward state for [`MultiHeadAttention::backward`].
#[derive(Debug, Clone)]
pub struct AttentionCtx {
    q_ctx: LinearCtx,
    k_ctx: LinearCtx,
    v_ctx: LinearCtx,
    o_ctx: LinearCtx,
    q: Mat,
    k: Mat,
    v: Mat,
    attn: Vec<Mat>, // per head, [T, T]
}

impl MultiHeadAttention {
    /// Creates an attention block with `heads` heads over model width
    /// `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim % heads != 0`.
    pub fn new(reg: &mut ParamRegistry, dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        Self::with(reg, dim, heads, |reg| Linear::new(reg, dim, dim, rng))
    }

    /// Creates an attention block with all-zero projections, for a model
    /// whose weights are about to be loaded: no random draws.
    ///
    /// # Panics
    ///
    /// Panics if `dim % heads != 0`.
    pub fn zeros(reg: &mut ParamRegistry, dim: usize, heads: usize) -> Self {
        Self::with(reg, dim, heads, |reg| Linear::zeros(reg, dim, dim))
    }

    fn with(
        reg: &mut ParamRegistry,
        dim: usize,
        heads: usize,
        mut proj: impl FnMut(&mut ParamRegistry) -> Linear,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim must divide evenly into heads");
        MultiHeadAttention { wq: proj(reg), wk: proj(reg), wv: proj(reg), wo: proj(reg), heads, dim }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Extracts head `h`'s column slice.
    fn head_cols(&self, m: &Mat, h: usize) -> Mat {
        let dh = self.dim / self.heads;
        let mut out = Mat::zeros(m.rows(), dh);
        for r in 0..m.rows() {
            out.row_mut(r).copy_from_slice(&m.row(r)[h * dh..(h + 1) * dh]);
        }
        out
    }

    /// Writes `src` into head `h`'s column slice.
    fn scatter_head(&self, dst: &mut Mat, src: &Mat, h: usize) {
        let dh = self.dim / self.heads;
        for r in 0..src.rows() {
            dst.row_mut(r)[h * dh..(h + 1) * dh].copy_from_slice(src.row(r));
        }
    }

    /// Full self-attention over `x` of shape `[T, dim]`.
    pub fn forward(&self, x: &Mat) -> (Mat, AttentionCtx) {
        let (q, q_ctx) = self.wq.forward(x);
        let (k, k_ctx) = self.wk.forward(x);
        let (v, v_ctx) = self.wv.forward(x);
        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut concat = Mat::zeros(x.rows(), self.dim);
        let mut attn = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = self.head_cols(&q, h);
            let kh = self.head_cols(&k, h);
            let vh = self.head_cols(&v, h);
            let scores = qh.matmul_nt(&kh).scale(scale);
            let a = scores.softmax_rows();
            let ctxh = a.matmul(&vh);
            self.scatter_head(&mut concat, &ctxh, h);
            attn.push(a);
        }
        let (y, o_ctx) = self.wo.forward(&concat);
        (y, AttentionCtx { q_ctx, k_ctx, v_ctx, o_ctx, q, k, v, attn })
    }

    /// Backpropagates `dy`, returning `dx`.
    pub fn backward(&self, ctx: &AttentionCtx, dy: &Mat, grads: &mut Grads) -> Mat {
        let dconcat = self.wo.backward(&ctx.o_ctx, dy, grads);
        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let t = dy.rows();
        let mut dq = Mat::zeros(t, self.dim);
        let mut dk = Mat::zeros(t, self.dim);
        let mut dv = Mat::zeros(t, self.dim);
        for h in 0..self.heads {
            let qh = self.head_cols(&ctx.q, h);
            let kh = self.head_cols(&ctx.k, h);
            let vh = self.head_cols(&ctx.v, h);
            let a = &ctx.attn[h];
            let dctx = self.head_cols(&dconcat, h);
            // ctx = a @ v
            let da = dctx.matmul_nt(&vh);
            let dvh = a.matmul_tn(&dctx);
            // softmax backward: ds = a ⊙ (da − rowsum(da ⊙ a))
            let mut ds = Mat::zeros(t, t);
            for r in 0..t {
                let dot: f32 =
                    da.row(r).iter().zip(a.row(r)).map(|(x, y)| x * y).sum();
                for c in 0..t {
                    ds.set(r, c, a.get(r, c) * (da.get(r, c) - dot));
                }
            }
            let ds = ds.scale(scale);
            // scores = q @ kᵀ
            let dqh = ds.matmul(&kh);
            let dkh = ds.matmul_tn(&qh);
            self.scatter_head(&mut dq, &dqh, h);
            self.scatter_head(&mut dk, &dkh, h);
            self.scatter_head(&mut dv, &dvh, h);
        }
        let dx_q = self.wq.backward(&ctx.q_ctx, &dq, grads);
        let dx_k = self.wk.backward(&ctx.k_ctx, &dk, grads);
        let dx_v = self.wv.backward(&ctx.v_ctx, &dv, grads);
        dx_q.add(&dx_k).add(&dx_v)
    }

    /// Visits all projection parameters.
    pub fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.wq.visit(f);
        self.wk.visit(f);
        self.wv.visit(f);
        self.wo.visit(f);
    }

    /// Visits all projection parameters mutably.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_mut(f);
        self.wk.visit_mut(f);
        self.wv.visit_mut(f);
        self.wo.visit_mut(f);
    }
}

/// Query-row tile height of the streamed attention in
/// [`PackedAttention::infer_masked`]: score tiles are `[TQ, len]`, so
/// peak attention scratch is `O(TQ · T)` instead of the `O(T²)` the
/// materialized training forward allocates per head.
const TQ: usize = 64;

/// An inference-only snapshot of a [`MultiHeadAttention`] with two
/// serving-path restructurings:
///
/// * **Fused QKV.** Wq, Wk and Wv are concatenated column-wise into one
///   `[dim, 3·dim]` matrix and prepacked once, so the three input
///   projections become a single prepacked GEMM per call. Each output
///   element of a GEMM depends only on its own B column, so the fused
///   product is bit-identical to the three separate ones. The output
///   projection Wo is prepacked the same way, its bias kept beside it.
/// * **Tiled softmax·V.** Instead of materializing the full `[T, T]`
///   score matrix per span and head, query rows stream through in blocks
///   of `TQ` (64): each block computes its `[tq, len]` score tile
///   (`gemm_nt`), scales, softmaxes and multiplies into V —
///   then the tile is dropped. A true flash-attention running-max/sum
///   rescale would *change the reduction order* and break the mandated
///   f32 bit-identity, so the tiling is over whole query rows only: every
///   per-row max/exp/sum/divide happens in exactly the
///   [`Mat::softmax_rows`] op order, and every GEMM row is the same
///   ascending-k reduction regardless of tile height. The result is
///   therefore bit-identical to [`MultiHeadAttention::forward`] run on
///   each span alone; memory never exceeds `O(TQ · T)` per attention
///   tile.
#[derive(Debug, Clone)]
pub struct PackedAttention {
    qkv: PackedB,
    qkv_bias: Vec<f32>,
    wo: PackedB,
    wo_bias: Vec<f32>,
    heads: usize,
    dim: usize,
}

impl PackedAttention {
    /// Snapshots `mha`, fusing the Q/K/V projections.
    pub fn pack(mha: &MultiHeadAttention) -> PackedAttention {
        let dim = mha.dim;
        let mut fused = Mat::zeros(dim, 3 * dim);
        for l in 0..dim {
            let row = fused.row_mut(l);
            row[..dim].copy_from_slice(mha.wq.weight().row(l));
            row[dim..2 * dim].copy_from_slice(mha.wk.weight().row(l));
            row[2 * dim..].copy_from_slice(mha.wv.weight().row(l));
        }
        let mut qkv_bias = Vec::with_capacity(3 * dim);
        qkv_bias.extend_from_slice(mha.wq.bias());
        qkv_bias.extend_from_slice(mha.wk.bias());
        qkv_bias.extend_from_slice(mha.wv.bias());
        PackedAttention {
            qkv: PackedB::pack(fused.as_slice(), dim, 3 * dim),
            qkv_bias,
            wo: PackedB::pack(mha.wo.weight().as_slice(), dim, dim),
            wo_bias: mha.wo.bias().to_vec(),
            heads: mha.heads,
            dim,
        }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Resident bytes of the packed projections.
    pub fn bytes(&self) -> usize {
        self.qkv.bytes() + self.wo.bytes()
    }

    /// Copies `rows` rows of the `dh`-wide column window at `col0` out of
    /// the packed `[ΣT, 3·dim]` QKV matrix.
    fn window(qkv: &Mat, row0: usize, rows: usize, col0: usize, dh: usize) -> Mat {
        let mut out = Mat::zeros(rows, dh);
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&qkv.row(row0 + r)[col0..col0 + dh]);
        }
        out
    }

    /// Batched self-attention over several sequences packed into one
    /// `[ΣT, dim]` matrix, masked block-diagonally by `spans`.
    ///
    /// The fused QKV and output projections run once over the whole
    /// packed matrix (per-row arithmetic); attention runs per span and
    /// per head, so a query row only sees key/value rows of its own span.
    /// Each span's rows come out bit-identical to
    /// [`MultiHeadAttention::forward`] on that sequence alone.
    ///
    /// # Panics
    ///
    /// Panics if a span reaches past the end of `x`.
    pub fn infer_masked(&self, x: &Mat, spans: &[SeqSpan]) -> Mat {
        let qkv = x.matmul_prepacked(&self.qkv).add_row_broadcast(&self.qkv_bias);
        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut concat = Mat::zeros(x.rows(), self.dim);
        for &span in spans {
            assert!(span.start + span.len <= x.rows(), "span out of bounds");
            for h in 0..self.heads {
                let kh = Self::window(&qkv, span.start, span.len, self.dim + h * dh, dh);
                let vh = Self::window(&qkv, span.start, span.len, 2 * self.dim + h * dh, dh);
                let mut qb = 0;
                while qb < span.len {
                    let tq = TQ.min(span.len - qb);
                    let qh = Self::window(&qkv, span.start + qb, tq, h * dh, dh);
                    let a = qh.matmul_nt(&kh).scale(scale).softmax_rows();
                    let ctxh = a.matmul(&vh);
                    for r in 0..tq {
                        concat.row_mut(span.start + qb + r)[h * dh..(h + 1) * dh]
                            .copy_from_slice(ctxh.row(r));
                    }
                    qb += tq;
                }
            }
        }
        concat.matmul_prepacked(&self.wo).add_row_broadcast(&self.wo_bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(dim: usize, heads: usize) -> (ParamRegistry, MultiHeadAttention) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut reg = ParamRegistry::new();
        let a = MultiHeadAttention::new(&mut reg, dim, heads, &mut rng);
        (reg, a)
    }

    #[test]
    fn forward_shape_is_preserved() {
        let (_, a) = setup(8, 2);
        let x = Mat::full(5, 8, 0.3);
        let (y, ctx) = a.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 8));
        assert_eq!(ctx.attn.len(), 2);
        // Attention rows are distributions.
        for h in &ctx.attn {
            for r in 0..5 {
                let s: f32 = h.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn attention_mixes_positions() {
        // Output at position 0 must depend on input at position 2.
        let (_, a) = setup(8, 2);
        let mut x = Mat::zeros(3, 8);
        x.row_mut(0).copy_from_slice(&[0.5; 8]);
        let (y1, _) = a.forward(&x);
        x.row_mut(2).copy_from_slice(&[1.0, -1.0, 0.7, 0.2, -0.3, 0.9, 0.0, 0.4]);
        let (y2, _) = a.forward(&x);
        let diff: f32 =
            y1.row(0).iter().zip(y2.row(0)).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "position 0 ignored position 2");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let (reg, a) = setup(4, 2);
        let x = Mat::from_rows(&[&[0.1, -0.2, 0.3, 0.4], &[0.5, 0.0, -0.6, 0.2]]);
        let loss = |x: &Mat| a.forward(x).0.sum();
        let (_, ctx) = a.forward(&x);
        let dy = Mat::full(2, 4, 1.0);
        let mut grads = Grads::new(&reg);
        let dx = a.backward(&ctx, &dy, &mut grads);
        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
                let got = dx.get(r, c);
                assert!((fd - got).abs() < 2e-2, "[{r}][{c}]: fd={fd} got={got}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn indivisible_heads_panic() {
        let _ = setup(7, 2);
    }

    fn rand_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.normal_f32(1.0);
        }
        m
    }

    /// Fused QKV + tiled softmax·V over packed spans is bit-identical to
    /// [`MultiHeadAttention::forward`] on each span alone, with spans that
    /// are tiny, exactly one TQ tile, cross it, and reach two full tiles
    /// plus a ragged one. At (8, 2) every a·V product is a narrow GEMM
    /// (dh = 4); at the paper's (128, 2) a full 64-row query tile meets
    /// dh = 64 and takes the pack-free exact-tile sweep.
    #[test]
    fn packed_attention_matches_per_span_forward_bitwise() {
        for (dim, heads) in [(8usize, 2usize), (128, 2)] {
            let (_, a) = setup(dim, heads);
            let p = PackedAttention::pack(&a);
            assert!(p.bytes() >= (3 * dim * dim + dim * dim) * 4);
            let mut rng = StdRng::seed_from_u64(31);
            let mut spans = Vec::new();
            let mut start = 0;
            for len in [1usize, 64, 65, 165] {
                spans.push(SeqSpan { start, len });
                start += len;
            }
            let x = rand_mat(start, dim, &mut rng);
            let got = p.infer_masked(&x, &spans);
            for span in &spans {
                let (want, _) = a.forward(&x.rows_slice(span.start, span.start + span.len));
                for r in 0..span.len {
                    for c in 0..dim {
                        assert_eq!(
                            got.get(span.start + r, c).to_bits(),
                            want.get(r, c).to_bits(),
                            "dim {dim} span@{} row {r} col {c}",
                            span.start
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn span_past_matrix_end_panics() {
        let (_, a) = setup(8, 2);
        let x = Mat::zeros(4, 8);
        let _ = PackedAttention::pack(&a).infer_masked(&x, &[SeqSpan { start: 2, len: 3 }]);
    }
}
