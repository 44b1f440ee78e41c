//! Layer normalization.

use crate::mat::Mat;
use crate::param::{Grads, Param, ParamRegistry};

/// Per-row layer normalization with learned gain/bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    dim: usize,
    eps: f32,
}

/// Saved forward state for [`LayerNorm::backward`].
#[derive(Debug, Clone)]
pub struct LayerNormCtx {
    normalized: Mat,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer norm over vectors of size `dim` (γ=1, β=0).
    pub fn new(reg: &mut ParamRegistry, dim: usize) -> Self {
        LayerNorm {
            gamma: reg.alloc(format!("ln{dim}.gamma"), Mat::full(1, dim, 1.0)),
            beta: reg.alloc(format!("ln{dim}.beta"), Mat::zeros(1, dim)),
            dim,
            eps: 1e-5,
        }
    }

    /// Inference-only forward: [`forward`](Self::forward)'s per-row
    /// arithmetic (bit-identical output) without saving the normalized
    /// activations for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim`.
    pub fn infer(&self, x: &Mat) -> Mat {
        assert_eq!(x.cols(), self.dim, "layernorm width");
        let mut out = Mat::zeros(x.rows(), self.dim);
        for r in 0..x.rows() {
            self.normalize_row(x.row(r), out.row_mut(r), |_, _| {});
        }
        out
    }

    /// Normalizes each row of `x` (shape `[n, dim]`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != dim`.
    pub fn forward(&self, x: &Mat) -> (Mat, LayerNormCtx) {
        assert_eq!(x.cols(), self.dim, "layernorm width");
        let mut normalized = Mat::zeros(x.rows(), self.dim);
        let mut out = Mat::zeros(x.rows(), self.dim);
        let inv_std = (0..x.rows())
            .map(|r| {
                let keep = normalized.row_mut(r);
                self.normalize_row(x.row(r), out.row_mut(r), |c, n| keep[c] = n)
            })
            .collect();
        (out, LayerNormCtx { normalized, inv_std })
    }

    /// One row's arithmetic, the only copy [`infer`](Self::infer) and
    /// [`forward`](Self::forward) share: writes `γ·n + β` into `out`, with
    /// `n = (v − mean)·inv_std`, hands each column's `n` to `keep`, and
    /// returns the row's `inv_std`.
    #[inline(always)]
    fn normalize_row(&self, row: &[f32], out: &mut [f32], mut keep: impl FnMut(usize, f32)) -> f32 {
        let mean = row.iter().sum::<f32>() / self.dim as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / self.dim as f32;
        let is = 1.0 / (var + self.eps).sqrt();
        let affine = self.gamma.value.row(0).iter().zip(self.beta.value.row(0));
        for (c, ((&v, o), (&g, &b))) in row.iter().zip(out.iter_mut()).zip(affine).enumerate() {
            let n = (v - mean) * is;
            keep(c, n);
            *o = n * g + b;
        }
        is
    }

    /// Backpropagates `dy`, returning `dx`.
    pub fn backward(&self, ctx: &LayerNormCtx, dy: &Mat, grads: &mut Grads) -> Mat {
        let n = self.dim as f32;
        let mut dgamma = Mat::zeros(1, self.dim);
        let mut dbeta = Mat::zeros(1, self.dim);
        let mut dx = Mat::zeros(dy.rows(), self.dim);
        for r in 0..dy.rows() {
            // dxhat = dy * gamma
            let mut dxhat = vec![0.0f32; self.dim];
            let mut sum_dxhat = 0.0;
            let mut sum_dxhat_xhat = 0.0;
            for (c, slot) in dxhat.iter_mut().enumerate() {
                let d = dy.get(r, c);
                let xh = ctx.normalized.get(r, c);
                dgamma.set(0, c, dgamma.get(0, c) + d * xh);
                dbeta.set(0, c, dbeta.get(0, c) + d);
                let dh = d * self.gamma.value.get(0, c);
                *slot = dh;
                sum_dxhat += dh;
                sum_dxhat_xhat += dh * xh;
            }
            let is = ctx.inv_std[r];
            for (c, &dh) in dxhat.iter().enumerate() {
                let xh = ctx.normalized.get(r, c);
                dx.set(r, c, is / n * (n * dh - sum_dxhat - xh * sum_dxhat_xhat));
            }
        }
        grads.accumulate(self.gamma.id, &dgamma);
        grads.accumulate(self.beta.id, &dbeta);
        dx
    }

    /// Visits γ and β.
    pub fn visit(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    /// Visits γ and β mutably.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_rows_are_normalized() {
        let mut reg = ParamRegistry::new();
        let ln = LayerNorm::new(&mut reg, 4);
        let x = Mat::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[-5.0, 0.0, 5.0, 10.0]]);
        let (y, _) = ln.forward(&x);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn infer_is_bit_identical_to_forward() {
        let mut reg = ParamRegistry::new();
        let mut ln = LayerNorm::new(&mut reg, 5);
        ln.visit_mut(&mut |p| {
            for (i, v) in p.value.as_mut_slice().iter_mut().enumerate() {
                *v += 0.3 * i as f32 - 0.7;
            }
        });
        let x = Mat::from_rows(&[
            &[1.5, -2.0, 0.25, 9.0, -0.1],
            &[0.0; 5],
            &[1e-3, 2e-3, 0.0, -1e-3, 7.0],
        ]);
        let (y, ctx) = ln.forward(&x);
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ln.infer(&x)), bits(&y));
        assert_eq!(ctx.inv_std.len(), 3);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut reg = ParamRegistry::new();
        let ln = LayerNorm::new(&mut reg, 3);
        let x = Mat::from_rows(&[&[0.5, -1.0, 2.0]]);
        let loss = |x: &Mat| {
            let (y, _) = ln.forward(x);
            // L = sum(y_i * w_i) with fixed weights to get nontrivial dy.
            y.get(0, 0) * 1.0 + y.get(0, 1) * -2.0 + y.get(0, 2) * 0.5
        };
        let (_, ctx) = ln.forward(&x);
        let dy = Mat::from_rows(&[&[1.0, -2.0, 0.5]]);
        let mut grads = Grads::new(&reg);
        let dx = ln.backward(&ctx, &dy, &mut grads);
        let eps = 1e-3;
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!((fd - dx.get(0, c)).abs() < 1e-2, "c={c}: fd={fd} got={}", dx.get(0, c));
        }
    }
}
