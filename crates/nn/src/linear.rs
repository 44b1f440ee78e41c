//! Fully-connected layer, plus its integer inference counterpart.
//!
//! [`Linear`] owns trainable parameters and the backward pass; its
//! [`infer`](Linear::infer) is the f32 inference every head and
//! Aggregation MLP layer runs. [`QuantLinear`] is a read-only snapshot
//! the owning model rebuilds whenever its weights change: it quantizes
//! the weights to s8 per column ([`PackedS8`]) for the integer kernels of
//! [`crate::qgemm`]. Its outputs approximate [`Linear::infer`] (each
//! within the rounding bound of its row's and column's quantization
//! steps), not bit for bit; they depend only on the row itself, so they
//! are the same bits in any batch and at every ISA level.

use sns_rt::rng::StdRng;

use crate::mat::Mat;
use crate::param::{Grads, Param, ParamRegistry};
use crate::qgemm::{self, PackedS8, QuantRows};

/// An inference-only snapshot of a [`Linear`] for the integer kernels:
/// weights quantized to s8 with one scale per output column, bias copied.
/// Inputs are quantized to u8 per row ([`QuantRows`]), so a row's outputs
/// do not depend on the other rows it is batched with.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    w: PackedS8,
    b: Vec<f32>,
}

impl QuantLinear {
    /// Quantizes `l`'s weights.
    ///
    /// # Panics
    ///
    /// Panics if `l.in_dim()` exceeds [`qgemm::MAX_K`].
    pub fn pack(l: &Linear) -> QuantLinear {
        let w = &l.w.value;
        QuantLinear {
            w: PackedS8::quantize(w.as_slice(), w.rows(), w.cols()),
            b: l.b.value.row(0).to_vec(),
        }
    }

    /// `x W + b` for rows quantized by [`QuantRows::quantize`].
    ///
    /// # Panics
    ///
    /// Panics if `xq.k()` is not the layer's input width.
    pub fn infer_quantized(&self, xq: &QuantRows) -> Mat {
        qgemm::dequant_bias(xq, &self.w, &self.b)
    }

    /// `gelu(x W + b)` requantized per row, ready to feed the next
    /// [`QuantLinear`]: the dequantize, bias, GELU and requantize run as
    /// one pass per row ([`qgemm::bias_gelu_requant`]).
    ///
    /// # Panics
    ///
    /// Panics if `xq.k()` is not the layer's input width.
    pub fn infer_gelu_quantized(&self, xq: &QuantRows) -> QuantRows {
        qgemm::bias_gelu_requant(xq, &self.w, &self.b)
    }

    /// Resident bytes of the quantized weights, column sums and scales
    /// (bias excluded — it is not duplicated panel storage).
    pub fn bytes(&self) -> usize {
        self.w.bytes()
    }
}

/// A dense affine layer `y = x W + b` with Xavier-uniform initialization.
///
/// `forward` is `&self` and returns a [`LinearCtx`]; `backward` consumes the
/// context, accumulates parameter gradients into a [`Grads`] buffer and
/// returns the input gradient.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Param,
    b: Param,
    in_dim: usize,
    out_dim: usize,
}

/// Saved forward state for [`Linear::backward`].
#[derive(Debug, Clone)]
pub struct LinearCtx {
    x: Mat,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(reg: &mut ParamRegistry, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let mut l = Linear::zeros(reg, in_dim, out_dim);
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        for v in l.w.value.as_mut_slice() {
            *v = rng.gen_range(-bound..bound);
        }
        l
    }

    /// Creates a layer with zero weights and bias, for a model whose
    /// weights are about to be loaded: no random draws.
    pub fn zeros(reg: &mut ParamRegistry, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            w: reg.alloc(format!("linear{}x{}.w", in_dim, out_dim), Mat::zeros(in_dim, out_dim)),
            b: reg.alloc(format!("linear{}x{}.b", in_dim, out_dim), Mat::zeros(1, out_dim)),
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight matrix, `[in_dim, out_dim]` (read-only; used by the
    /// packing paths and by fused-projection layers that concatenate
    /// several weight matrices before packing).
    pub fn weight(&self) -> &Mat {
        &self.w.value
    }

    /// The bias row, `out_dim` wide.
    pub fn bias(&self) -> &[f32] {
        self.b.value.row(0)
    }

    /// Applies the layer to `x` of shape `[n, in_dim]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Mat) -> (Mat, LinearCtx) {
        (self.infer(x), LinearCtx { x: x.clone() })
    }

    /// Inference-only forward: same arithmetic as [`forward`](Self::forward)
    /// (bit-identical output) without cloning `x` into a backward context.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn infer(&self, x: &Mat) -> Mat {
        x.matmul(&self.w.value).add_row_broadcast(self.b.value.row(0))
    }

    /// Backpropagates `dy` (shape `[n, out_dim]`), returning `dx`.
    pub fn backward(&self, ctx: &LinearCtx, dy: &Mat, grads: &mut Grads) -> Mat {
        self.backward_params(ctx, dy, grads);
        // dx = dy Wᵀ
        dy.matmul_nt(&self.w.value)
    }

    /// The parameter half of [`backward`](Self::backward): accumulates the
    /// same weight and bias gradients without computing `dx` — for a first
    /// layer, whose input gradient nothing reads.
    pub fn backward_params(&self, ctx: &LinearCtx, dy: &Mat, grads: &mut Grads) {
        // dW = xᵀ dy ; db = column sums of dy
        grads.accumulate(self.w.id, &ctx.x.matmul_tn(dy));
        let mut db = Mat::zeros(1, self.out_dim);
        for r in 0..dy.rows() {
            for (d, g) in db.as_mut_slice().iter_mut().zip(dy.row(r)) {
                *d += g;
            }
        }
        grads.accumulate(self.b.id, &db);
    }

    /// Visits this layer's parameters (for optimizers / serialization).
    pub fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }

    /// Visits this layer's parameters mutably.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ParamRegistry, Linear) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut reg = ParamRegistry::new();
        let l = Linear::new(&mut reg, 3, 2, &mut rng);
        (reg, l)
    }

    #[test]
    fn forward_shape_and_bias() {
        let (_, mut l) = setup();
        l.visit_mut(&mut |p| {
            if p.name.ends_with(".b") {
                p.value = Mat::from_rows(&[&[1.0, -1.0]]);
            }
        });
        let (y, _) = l.forward(&Mat::zeros(4, 3));
        assert_eq!((y.rows(), y.cols()), (4, 2));
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (reg, l) = setup();
        let x = Mat::from_rows(&[&[0.3, -0.2, 0.9], &[0.1, 0.5, -0.7]]);
        let t = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);

        // Analytic gradient of L = 0.5*||y - t||² wrt W.
        let (y, ctx) = l.forward(&x);
        let dy = y.add(&t.scale(-1.0));
        let mut grads = Grads::new(&reg);
        let dx = l.backward(&ctx, &dy, &mut grads);

        // Finite differences on a few weight entries.
        let mut l2 = l.clone();
        let eps = 1e-3;
        for (r, c) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let loss = |lay: &Linear| {
                let (y, _) = lay.forward(&x);
                let d = y.add(&t.scale(-1.0));
                0.5 * d.as_slice().iter().map(|v| v * v).sum::<f32>()
            };
            let bump = |delta: f32, lay: &mut Linear| {
                lay.visit_mut(&mut |p| {
                    if p.name.ends_with(".w") {
                        let v = p.value.get(r, c);
                        p.value.set(r, c, v + delta);
                    }
                });
            };
            bump(eps, &mut l2);
            let hi = loss(&l2);
            bump(-2.0 * eps, &mut l2);
            let lo = loss(&l2);
            bump(eps, &mut l2);
            let fd = (hi - lo) / (2.0 * eps);
            let mut analytic = 0.0;
            l.visit(&mut |p| {
                if p.name.ends_with(".w") {
                    analytic = grads.get(p.id).get(r, c);
                }
            });
            assert!((fd - analytic).abs() < 1e-2, "W[{r}][{c}]: fd={fd} analytic={analytic}");
        }
        // dx shape sanity.
        assert_eq!((dx.rows(), dx.cols()), (2, 3));
    }
}
