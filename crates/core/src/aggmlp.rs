//! The Aggregation MLP (§3.4): three fully-connected layers of 32 neurons
//! that refine an aggregated path statistic plus the design's graph
//! statistics into the final design-level prediction.

use sns_rt::rng::{SliceRandom, StdRng};

use sns_nn::{Grads, Linear, Mat, Optimizer, PackedLinear, Relu, Sgd};

/// Saved forward state for one backward pass through the four layers.
type MlpFwdCtx = (
    sns_nn::LinearCtx,
    sns_nn::act::ActCtx,
    sns_nn::LinearCtx,
    sns_nn::act::ActCtx,
    sns_nn::LinearCtx,
    sns_nn::act::ActCtx,
    sns_nn::LinearCtx,
);

/// The four layers of an [`AggMlp`] in prepacked inference form. The MLPs
/// are microseconds per design, but the m=1 feature-vector GEMMs still
/// benefit from skipping per-call weight packing. Built by
/// [`AggMlp::new`] and rebuilt at the end of [`AggMlp::visit_mut`] and
/// [`AggMlp::fit`], so it always matches the weights.
#[derive(Debug, Clone)]
struct PackedMlp {
    l1: PackedLinear,
    l2: PackedLinear,
    l3: PackedLinear,
    out: PackedLinear,
}

impl PackedMlp {
    fn pack(l1: &Linear, l2: &Linear, l3: &Linear, out: &Linear) -> PackedMlp {
        PackedMlp {
            l1: PackedLinear::pack(l1),
            l2: PackedLinear::pack(l2),
            l3: PackedLinear::pack(l3),
            out: PackedLinear::pack(out),
        }
    }
}

/// One per-target Aggregation MLP (`input → 32 → 32 → 32 → 1`).
#[derive(Debug, Clone)]
pub struct AggMlp {
    registry: sns_nn::ParamRegistry,
    l1: Linear,
    l2: Linear,
    l3: Linear,
    out: Linear,
    packed: PackedMlp,
}

/// Training hyperparameters for the MLP (Table 6 row 2: SGD, batch 64,
/// lr 1e-4, 10240 epochs).
#[derive(Debug, Clone, PartialEq)]
pub struct MlpTrainConfig {
    /// Epochs over the design set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl MlpTrainConfig {
    /// The paper's Table 6 schedule.
    pub fn paper() -> Self {
        MlpTrainConfig { epochs: 10240, batch_size: 64, lr: 1e-4, momentum: 0.9, seed: 7 }
    }

    /// A reduced schedule for CI (the design set is tiny, so far fewer
    /// epochs saturate).
    pub fn fast() -> Self {
        MlpTrainConfig { epochs: 600, ..MlpTrainConfig::paper() }
    }
}

impl AggMlp {
    /// Creates an MLP over `input_dim` features.
    pub fn new(input_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reg = sns_nn::ParamRegistry::new();
        let l1 = Linear::new(&mut reg, input_dim, 32, &mut rng);
        let l2 = Linear::new(&mut reg, 32, 32, &mut rng);
        let l3 = Linear::new(&mut reg, 32, 32, &mut rng);
        let out = Linear::new(&mut reg, 32, 1, &mut rng);
        let packed = PackedMlp::pack(&l1, &l2, &l3, &out);
        AggMlp { registry: reg, l1, l2, l3, out, packed }
    }

    /// Rebuilds the prepacked snapshot from the current weights.
    fn repack(&mut self) {
        self.packed = PackedMlp::pack(&self.l1, &self.l2, &self.l3, &self.out);
    }

    /// Resident bytes of the prepacked layer panels.
    pub fn prepack_bytes(&self) -> usize {
        let p = &self.packed;
        p.l1.bytes() + p.l2.bytes() + p.l3.bytes() + p.out.bytes()
    }

    /// Input feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.l1.in_dim()
    }

    /// Predicts a scalar for one feature vector on the prepacked layers
    /// (bit-identical to the training forward — both are f32 and honor
    /// the GEMM FMA contract).
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != input_dim()`.
    pub fn predict(&self, features: &[f32]) -> f32 {
        let p = &self.packed;
        let x = Mat::from_rows(&[features]);
        let a1 = Relu.infer(&p.l1.infer(&x));
        let a2 = Relu.infer(&p.l2.infer(&a1));
        let a3 = Relu.infer(&p.l3.infer(&a2));
        p.out.infer(&a3).get(0, 0)
    }

    fn forward(&self, x: &Mat) -> (Mat, MlpFwdCtx) {
        let (h1, c1) = self.l1.forward(x);
        let (a1, g1) = Relu.forward(&h1);
        let (h2, c2) = self.l2.forward(&a1);
        let (a2, g2) = Relu.forward(&h2);
        let (h3, c3) = self.l3.forward(&a2);
        let (a3, g3) = Relu.forward(&h3);
        let (y, c4) = self.out.forward(&a3);
        (y, (c1, g1, c2, g2, c3, g3, c4))
    }

    /// Trains on `(features, target)` pairs with SGD + momentum; returns
    /// the per-epoch MSE curve.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or a feature vector has the wrong width.
    pub fn fit(&mut self, data: &[(Vec<f32>, f32)], config: &MlpTrainConfig) -> Vec<f32> {
        assert!(!data.is_empty(), "no training data for the Aggregation MLP");
        // The optimizer steps the layers directly below, bypassing
        // visit_mut; the pack is rebuilt from the final weights on return.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut opt = Sgd::new(config.lr, config.momentum);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut curve = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(config.batch_size) {
                let rows: Vec<&[f32]> = batch.iter().map(|&i| data[i].0.as_slice()).collect();
                let x = Mat::from_rows(&rows);
                let t_rows: Vec<[f32; 1]> = batch.iter().map(|&i| [data[i].1]).collect();
                let t_refs: Vec<&[f32]> = t_rows.iter().map(|r| r.as_slice()).collect();
                let t = Mat::from_rows(&t_refs);
                let (y, ctx) = self.forward(&x);
                let (loss, dy) = sns_nn::mse_loss(&y, &t);
                epoch_loss += loss as f64 * batch.len() as f64;
                let mut grads = Grads::new(&self.registry);
                let (c1, g1, c2, g2, c3, g3, c4) = &ctx;
                let d3 = self.out.backward(c4, &dy, &mut grads);
                let d3 = Relu.backward(g3, &d3);
                let d2 = self.l3.backward(c3, &d3, &mut grads);
                let d2 = Relu.backward(g2, &d2);
                let d1 = self.l2.backward(c2, &d2, &mut grads);
                let d1 = Relu.backward(g1, &d1);
                // Nothing reads the features' gradient: parameters only.
                self.l1.backward_params(c1, &d1, &mut grads);
                grads.scale(1.0 / batch.len() as f32);
                opt.step_visit(&grads, |f| {
                    self.l1.visit_mut(f);
                    self.l2.visit_mut(f);
                    self.l3.visit_mut(f);
                    self.out.visit_mut(f);
                });
            }
            curve.push((epoch_loss / data.len() as f64) as f32);
        }
        self.repack();
        curve
    }

    /// Visits all parameters (serialization).
    pub fn visit(&self, f: &mut dyn FnMut(&sns_nn::Param)) {
        self.l1.visit(f);
        self.l2.visit(f);
        self.l3.visit(f);
        self.out.visit(f);
    }

    /// Visits all parameters mutably, then rebuilds the prepacked
    /// snapshot from whatever the visitor left (parameter load).
    pub fn visit_mut(&mut self, f: &mut dyn FnMut(&mut sns_nn::Param)) {
        self.l1.visit_mut(f);
        self.l2.visit_mut(f);
        self.l3.visit_mut(f);
        self.out.visit_mut(f);
        self.repack();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_has_three_32_neuron_hidden_layers() {
        let m = AggMlp::new(10, 1);
        assert_eq!(m.l1.out_dim(), 32);
        assert_eq!(m.l2.out_dim(), 32);
        assert_eq!(m.l3.out_dim(), 32);
        assert_eq!(m.out.out_dim(), 1);
    }

    #[test]
    fn fits_a_simple_function() {
        let mut m = AggMlp::new(2, 3);
        let data: Vec<(Vec<f32>, f32)> = (0..64)
            .map(|i| {
                let a = (i % 8) as f32 / 8.0;
                let b = (i / 8) as f32 / 8.0;
                (vec![a, b], 2.0 * a - b + 0.5)
            })
            .collect();
        let cfg = MlpTrainConfig { epochs: 400, batch_size: 16, lr: 1e-2, momentum: 0.9, seed: 1 };
        let curve = m.fit(&data, &cfg);
        assert!(curve.last().unwrap() < &0.01, "final loss {:?}", curve.last());
        assert!((m.predict(&[0.5, 0.5]) - 1.0).abs() < 0.2);
    }

    fn forward_bits(m: &AggMlp, features: &[f32]) -> u32 {
        m.forward(&Mat::from_rows(&[features])).0.get(0, 0).to_bits()
    }

    #[test]
    fn packed_predict_is_bit_identical_and_follows_visit_mut() {
        let m = AggMlp::new(7, 9);
        assert!(m.prepack_bytes() > 0);
        let features: Vec<f32> = (0..7).map(|i| (i as f32 - 3.0) * 0.17).collect();
        let before = m.predict(&features).to_bits();
        assert_eq!(before, forward_bits(&m, &features));
        // A visit that rewrites the weights is visible in the very next
        // prediction.
        let mut m2 = m.clone();
        m2.visit_mut(&mut |p| {
            for v in p.value.as_mut_slice() {
                *v = *v * 1.5 + 0.01;
            }
        });
        assert_ne!(m2.predict(&features).to_bits(), before);
        assert_eq!(m2.predict(&features).to_bits(), forward_bits(&m2, &features));
        // So is a parameter load.
        let mut bytes = Vec::new();
        sns_nn::write_params(&mut bytes, |f| m.visit(f));
        let mut r = sns_nn::ByteReader::new(&bytes);
        sns_nn::read_params(&mut r, |f| m2.visit_mut(f)).unwrap();
        r.finish().unwrap();
        assert_eq!(m2.predict(&features).to_bits(), before);
    }

    #[test]
    fn fit_leaves_a_fresh_pack() {
        let mut m = AggMlp::new(2, 3);
        let before = m.predict(&[0.1, 0.2]).to_bits();
        let data = vec![(vec![0.1f32, 0.2], 0.5f32), (vec![0.3, 0.4], 0.7)];
        let cfg = MlpTrainConfig { epochs: 3, batch_size: 2, lr: 1e-3, momentum: 0.9, seed: 1 };
        m.fit(&data, &cfg);
        // The pack reflects the trained weights, not the initial ones.
        let after = m.predict(&[0.1, 0.2]).to_bits();
        assert_ne!(after, before);
        assert_eq!(after, forward_bits(&m, &[0.1, 0.2]));
    }

    /// `fit` as it was before the first layer dropped its input
    /// gradient: full [`Linear::backward`] on every layer. The bit-identity
    /// oracle for [`AggMlp::fit`].
    fn fit_reference(m: &mut AggMlp, data: &[(Vec<f32>, f32)], config: &MlpTrainConfig) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut opt = Sgd::new(config.lr, config.momentum);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut curve = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(config.batch_size) {
                let rows: Vec<&[f32]> = batch.iter().map(|&i| data[i].0.as_slice()).collect();
                let x = Mat::from_rows(&rows);
                let t_rows: Vec<[f32; 1]> = batch.iter().map(|&i| [data[i].1]).collect();
                let t_refs: Vec<&[f32]> = t_rows.iter().map(|r| r.as_slice()).collect();
                let t = Mat::from_rows(&t_refs);
                let (y, ctx) = m.forward(&x);
                let (loss, dy) = sns_nn::mse_loss(&y, &t);
                epoch_loss += loss as f64 * batch.len() as f64;
                let mut grads = Grads::new(&m.registry);
                let (c1, g1, c2, g2, c3, g3, c4) = &ctx;
                let d3 = m.out.backward(c4, &dy, &mut grads);
                let d3 = Relu.backward(g3, &d3);
                let d2 = m.l3.backward(c3, &d3, &mut grads);
                let d2 = Relu.backward(g2, &d2);
                let d1 = m.l2.backward(c2, &d2, &mut grads);
                let d1 = Relu.backward(g1, &d1);
                m.l1.backward(c1, &d1, &mut grads);
                grads.scale(1.0 / batch.len() as f32);
                opt.step_visit(&grads, |f| {
                    m.l1.visit_mut(f);
                    m.l2.visit_mut(f);
                    m.l3.visit_mut(f);
                    m.out.visit_mut(f);
                });
            }
            curve.push((epoch_loss / data.len() as f64) as f32);
        }
        m.repack();
        curve
    }

    fn weight_bits(m: &AggMlp) -> Vec<u32> {
        let mut bits = Vec::new();
        m.visit(&mut |p| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
        bits
    }

    /// `fit` is bit-identical to the full-backward reference at the
    /// correction MLPs' width (84 features), on one full batch, one short
    /// batch, and a full batch plus a ragged last one.
    #[test]
    fn fit_matches_the_full_backward_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = MlpTrainConfig { epochs: 12, batch_size: 64, lr: 1e-2, momentum: 0.9, seed: 5 };
        for rows in [64usize, 12, 100] {
            let data: Vec<(Vec<f32>, f32)> = (0..rows)
                .map(|_| {
                    let f: Vec<f32> = (0..84).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let t = f[0] - 0.5 * f[1];
                    (f, t)
                })
                .collect();
            let init = AggMlp::new(84, rows as u64);
            let (mut fast, mut reference) = (init.clone(), init);
            let curve = fast.fit(&data, &cfg);
            let want = fit_reference(&mut reference, &data, &cfg);
            let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&curve), bits(&want), "{rows}x84 loss curve");
            assert_eq!(weight_bits(&fast), weight_bits(&reference), "{rows}x84 weights");
        }
    }

    #[test]
    fn paper_config_matches_table_6() {
        let c = MlpTrainConfig::paper();
        assert_eq!(c.epochs, 10240);
        assert_eq!(c.batch_size, 64);
        assert!((c.lr - 1e-4).abs() < 1e-9);
    }
}
