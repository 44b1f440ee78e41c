//! A single-layer GRU with full backpropagation through time.
//!
//! This is the recurrent backbone of the SeqGAN generator and
//! discriminator in `sns-genmodel` (the paper uses the SeqGAN reference
//! implementation; its recurrent cells play the same role).

use sns_rt::rng::StdRng;

use crate::act::{sigmoid, tanh};
use crate::linear::Linear;
use crate::mat::Mat;
use crate::param::{Grads, Param, ParamRegistry};

/// Gated recurrent unit processing one sequence at a time.
///
/// `forward` maps `[T, in]` inputs to `[T, hidden]` hidden states (h₀ = 0);
/// `backward` runs BPTT and returns the input gradients.
#[derive(Debug, Clone)]
pub struct Gru {
    // Input projections (x → gates) and recurrent projections (h → gates).
    wz: Linear,
    wr: Linear,
    wh: Linear,
    uz: Linear,
    ur: Linear,
    uh: Linear,
    hidden: usize,
}

/// Saved forward state for [`Gru::backward`].
#[derive(Debug, Clone)]
pub struct GruCtx {
    xs: Mat,
    h_prev: Vec<Mat>, // h_{t-1}, per step (1 x hidden)
    z: Vec<Mat>,
    r: Vec<Mat>,
    n: Vec<Mat>,
    rh: Vec<Mat>, // r ⊙ h_{t-1}
}

impl Gru {
    /// Creates a GRU mapping `in_dim` inputs to `hidden` state size.
    pub fn new(reg: &mut ParamRegistry, in_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Gru {
            wz: Linear::new(reg, in_dim, hidden, rng),
            wr: Linear::new(reg, in_dim, hidden, rng),
            wh: Linear::new(reg, in_dim, hidden, rng),
            uz: Linear::new(reg, hidden, hidden, rng),
            ur: Linear::new(reg, hidden, hidden, rng),
            uh: Linear::new(reg, hidden, hidden, rng),
            hidden,
        }
    }

    /// Hidden-state size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Runs the GRU over `xs` of shape `[T, in_dim]`.
    pub fn forward(&self, xs: &Mat) -> (Mat, GruCtx) {
        let t_len = xs.rows();
        let mut hs = Mat::zeros(t_len, self.hidden);
        let mut ctx = GruCtx {
            xs: xs.clone(),
            h_prev: Vec::with_capacity(t_len),
            z: Vec::with_capacity(t_len),
            r: Vec::with_capacity(t_len),
            n: Vec::with_capacity(t_len),
            rh: Vec::with_capacity(t_len),
        };
        let mut h = Mat::zeros(1, self.hidden);
        for t in 0..t_len {
            let x = xs.rows_slice(t, t + 1);
            let (zx, _) = self.wz.forward(&x);
            let (zh, _) = self.uz.forward(&h);
            let z = zx.add(&zh).map(sigmoid);
            let (rx, _) = self.wr.forward(&x);
            let (rh_lin, _) = self.ur.forward(&h);
            let r = rx.add(&rh_lin).map(sigmoid);
            let rh = r.hadamard(&h);
            let (nx, _) = self.wh.forward(&x);
            let (nh, _) = self.uh.forward(&rh);
            let n = nx.add(&nh).map(tanh);
            let one_minus_z = z.map(|v| 1.0 - v);
            let new_h = one_minus_z.hadamard(&n).add(&z.hadamard(&h));
            ctx.h_prev.push(h.clone());
            ctx.z.push(z);
            ctx.r.push(r);
            ctx.n.push(n);
            ctx.rh.push(rh);
            hs.row_mut(t).copy_from_slice(new_h.row(0));
            h = new_h;
        }
        (hs, ctx)
    }

    /// Inference-only forward: the same recurrence as
    /// [`forward`](Self::forward) (bit-identical hidden states) without
    /// cloning inputs and gate activations into a BPTT context.
    pub fn infer(&self, xs: &Mat) -> Mat {
        let t_len = xs.rows();
        let mut hs = Mat::zeros(t_len, self.hidden);
        let mut h = Mat::zeros(1, self.hidden);
        for t in 0..t_len {
            let x = xs.rows_slice(t, t + 1);
            let z = self.wz.infer(&x).add(&self.uz.infer(&h)).map(sigmoid);
            let r = self.wr.infer(&x).add(&self.ur.infer(&h)).map(sigmoid);
            let rh = r.hadamard(&h);
            let n = self.wh.infer(&x).add(&self.uh.infer(&rh)).map(tanh);
            let one_minus_z = z.map(|v| 1.0 - v);
            let new_h = one_minus_z.hadamard(&n).add(&z.hadamard(&h));
            hs.row_mut(t).copy_from_slice(new_h.row(0));
            h = new_h;
        }
        hs
    }

    /// BPTT over the whole sequence; `dhs` has shape `[T, hidden]`.
    pub fn backward(&self, ctx: &GruCtx, dhs: &Mat, grads: &mut Grads) -> Mat {
        let t_len = dhs.rows();
        let mut dxs = Mat::zeros(t_len, ctx.xs.cols());
        let mut carry = Mat::zeros(1, self.hidden);
        for t in (0..t_len).rev() {
            let dh = dhs.rows_slice(t, t + 1).add(&carry);
            let z = &ctx.z[t];
            let r = &ctx.r[t];
            let n = &ctx.n[t];
            let h_prev = &ctx.h_prev[t];
            let rh = &ctx.rh[t];
            let x = ctx.xs.rows_slice(t, t + 1);

            // h = (1-z)·n + z·h_prev
            let dz = dh.hadamard(&h_prev.add(&n.scale(-1.0)));
            let dn = dh.hadamard(&z.map(|v| 1.0 - v));
            let dz_pre = dz.hadamard(&z.map(|v| v * (1.0 - v)));
            let dn_pre = dn.hadamard(&n.map(|v| 1.0 - v * v));

            // n pre-activation = x·Wh + rh·Uh
            let (_, wh_ctx) = self.wh.forward(&x);
            let (_, uh_ctx) = self.uh.forward(rh);
            let dx_n = self.wh.backward(&wh_ctx, &dn_pre, grads);
            let drh = self.uh.backward(&uh_ctx, &dn_pre, grads);
            let dr = drh.hadamard(h_prev);
            let dr_pre = dr.hadamard(&r.map(|v| v * (1.0 - v)));

            let (_, wz_ctx) = self.wz.forward(&x);
            let (_, uz_ctx) = self.uz.forward(h_prev);
            let (_, wr_ctx) = self.wr.forward(&x);
            let (_, ur_ctx) = self.ur.forward(h_prev);
            let dx_z = self.wz.backward(&wz_ctx, &dz_pre, grads);
            let dh_z = self.uz.backward(&uz_ctx, &dz_pre, grads);
            let dx_r = self.wr.backward(&wr_ctx, &dr_pre, grads);
            let dh_r = self.ur.backward(&ur_ctx, &dr_pre, grads);

            let dx = dx_n.add(&dx_z).add(&dx_r);
            dxs.row_mut(t).copy_from_slice(dx.row(0));

            carry = dh
                .hadamard(z)
                .add(&drh.hadamard(r))
                .add(&dh_z)
                .add(&dh_r);
        }
        dxs
    }

    /// Visits all six projections' parameters.
    pub fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.wz.visit(f);
        self.wr.visit(f);
        self.wh.visit(f);
        self.uz.visit(f);
        self.ur.visit(f);
        self.uh.visit(f);
    }

    /// Visits all six projections' parameters mutably.
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wz.visit_mut(f);
        self.wr.visit_mut(f);
        self.wh.visit_mut(f);
        self.uz.visit_mut(f);
        self.ur.visit_mut(f);
        self.uh.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(in_dim: usize, hidden: usize) -> (ParamRegistry, Gru) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut reg = ParamRegistry::new();
        let g = Gru::new(&mut reg, in_dim, hidden, &mut rng);
        (reg, g)
    }

    #[test]
    fn forward_shapes_and_state_evolution() {
        let (_, gru) = setup(3, 5);
        let xs = Mat::full(4, 3, 0.5);
        let (hs, _) = gru.forward(&xs);
        assert_eq!((hs.rows(), hs.cols()), (4, 5));
        // State must evolve step to step even with constant input.
        assert_ne!(hs.row(0), hs.row(1));
    }

    #[test]
    fn hidden_state_is_bounded() {
        let (_, gru) = setup(2, 4);
        let xs = Mat::full(50, 2, 10.0);
        let (hs, _) = gru.forward(&xs);
        for v in hs.as_slice() {
            assert!(v.abs() <= 1.0 + 1e-5, "GRU state escaped [-1, 1]: {v}");
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let (reg, gru) = setup(2, 3);
        let xs = Mat::from_rows(&[&[0.3, -0.5], &[0.8, 0.1], &[-0.2, 0.4]]);
        let loss = |xs: &Mat| gru.forward(xs).0.sum();
        let (hs, ctx) = gru.forward(&xs);
        let dhs = Mat::full(hs.rows(), hs.cols(), 1.0);
        let mut grads = Grads::new(&reg);
        let dxs = gru.backward(&ctx, &dhs, &mut grads);
        let eps = 1e-3;
        for r in 0..3 {
            for c in 0..2 {
                let mut xp = xs.clone();
                xp.set(r, c, xs.get(r, c) + eps);
                let mut xm = xs.clone();
                xm.set(r, c, xs.get(r, c) - eps);
                let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
                let got = dxs.get(r, c);
                assert!((fd - got).abs() < 2e-2, "[{r}][{c}]: fd={fd} got={got}");
            }
        }
    }

    #[test]
    fn weight_gradients_flow_to_recurrent_matrices() {
        let (reg, gru) = setup(2, 3);
        let xs = Mat::from_rows(&[&[0.3, -0.5], &[0.8, 0.1]]);
        let (hs, ctx) = gru.forward(&xs);
        let mut grads = Grads::new(&reg);
        gru.backward(&ctx, &Mat::full(hs.rows(), hs.cols(), 1.0), &mut grads);
        let mut nonzero = 0;
        gru.visit(&mut |p| {
            if grads.get(p.id).norm() > 0.0 {
                nonzero += 1;
            }
        });
        // All six projections (w + b each) should receive gradient; the
        // recurrent ones only via t=1, but they must be nonzero.
        assert!(nonzero >= 10, "only {nonzero} parameter tensors got gradient");
    }

    /// Ctx-free inference is bit-identical to the training forward's
    /// hidden states, including at T = 0.
    #[test]
    fn infer_matches_forward_bitwise() {
        let (_, gru) = setup(3, 5);
        let mut rng = StdRng::seed_from_u64(23);
        for &t_len in &[0usize, 1, 4, 19] {
            let mut xs = Mat::zeros(t_len, 3);
            for v in xs.as_mut_slice() {
                *v = rng.gen_range(-1.0f32..1.0);
            }
            let (want, _) = gru.forward(&xs);
            let got = gru.infer(&xs);
            assert_eq!((got.rows(), got.cols()), (t_len, 5));
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "T={t_len}");
            }
        }
    }
}
