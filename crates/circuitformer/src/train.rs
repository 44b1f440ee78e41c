//! Circuitformer training (Table 6 row 1: Adam, batch 128, lr 0.001,
//! 256 epochs). One routine, [`train_step`], takes every clipped Adam
//! step on the Circuitformer: the batch trainer's minibatches here and
//! the label factory's online fine-tune steps (`sns_core::FineTuner`).

use sns_rt::rng::{SliceRandom, StdRng};

use sns_nn::{Adam, Grads, Mat, Optimizer};

use crate::Circuitformer;

/// One training example: a token sequence and its normalized targets.
pub type Example = (Vec<usize>, [f32; 3]);

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Worker threads for the data-parallel gradient computation.
    pub threads: usize,
    /// Global gradient-norm clip (0 disables).
    pub clip: f32,
}

impl TrainConfig {
    /// The paper's Table 6 schedule.
    pub fn paper() -> Self {
        TrainConfig { epochs: 256, batch_size: 128, lr: 1e-3, seed: 42, threads: default_threads(), clip: 1.0 }
    }

    /// A reduced schedule for CI and quick benchmarks (same optimizer and
    /// batch size, fewer epochs).
    pub fn fast() -> Self {
        TrainConfig { epochs: 24, ..TrainConfig::paper() }
    }
}

fn default_threads() -> usize {
    sns_rt::pool::default_threads()
}

/// Loss statistics for one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean training MSE (normalized log space).
    pub train_loss: f32,
    /// Mean validation MSE.
    pub val_loss: f32,
}

/// Per-epoch training history — the data behind the paper's Figure 5.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainHistory {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainHistory {
    /// The final epoch's stats.
    pub fn last(&self) -> Option<EpochStats> {
        self.epochs.last().copied()
    }
}

/// Mean MSE of the model over a dataset (no gradient).
pub fn evaluate(model: &Circuitformer, data: &[Example]) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for (tokens, target) in data {
        let out = model.predict_raw(tokens);
        let pred = Mat::from_rows(&[&out]);
        let tgt = Mat::from_rows(&[&target[..]]);
        let (l, _) = sns_nn::mse_loss(&pred, &tgt);
        total += l as f64;
    }
    (total / data.len() as f64) as f32
}

/// Trains `model` in place, returning per-epoch train/validation losses.
///
/// Each minibatch is one [`train_step`] with `config.threads` (clamped to
/// the batch size) contiguous chunks of ⌈batch / threads⌉ examples. The
/// chunk boundaries set the gradient's summation order, so the weights are
/// bit-identical from run to run at a given thread count, and differ only
/// by rounding between thread counts.
pub fn train(
    model: &mut Circuitformer,
    train_set: &[Example],
    val_set: &[Example],
    config: &TrainConfig,
) -> TrainHistory {
    assert!(!train_set.is_empty(), "empty training set");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut opt = Adam::new(config.lr);
    let mut order: Vec<usize> = (0..train_set.len()).collect();
    let threads = config.threads.max(1);
    let mut history = TrainHistory::default();

    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for batch in order.chunks(config.batch_size) {
            let batch: Vec<&Example> = batch.iter().map(|&i| &train_set[i]).collect();
            let chunk = batch.len().div_ceil(threads.min(batch.len()));
            let loss_sum = train_step(model, &mut opt, &batch, chunk, threads, config.clip);
            epoch_loss += loss_sum as f64;
            seen += batch.len();
        }
        history.epochs.push(EpochStats {
            train_loss: (epoch_loss / seen.max(1) as f64) as f32,
            val_loss: evaluate(model, val_set),
        });
    }
    history
}

/// One clipped Adam step on `examples`, returning their summed MSE.
///
/// The examples are cut into contiguous chunks of `chunk` (the last one
/// ragged), and each chunk's gradient and loss are summed serially on one
/// of up to `threads` workers. The partial sums are merged in chunk order,
/// scaled by 1/n and clipped to global norm `clip` (0 disables) before
/// the step. Given the weights, the optimizer state, the examples and
/// `chunk`, the step is bit-identical at any `threads`. An empty
/// `examples` takes no step and returns 0.0.
pub fn train_step(
    model: &mut Circuitformer,
    opt: &mut Adam,
    examples: &[&Example],
    chunk: usize,
    threads: usize,
    clip: f32,
) -> f32 {
    let Some((mut grads, loss_sum)) = summed_gradient(model, examples, chunk, threads) else {
        return 0.0;
    };
    grads.scale(1.0 / examples.len() as f32);
    if clip > 0.0 {
        grads.clip_global_norm(clip);
    }
    opt.step_visit(&grads, |f| model.visit_mut(f));
    loss_sum
}

/// The summed gradient and loss of `examples` in chunks of `chunk`, merged
/// in chunk order; `None` when there are no examples.
fn summed_gradient(
    model: &Circuitformer,
    examples: &[&Example],
    chunk: usize,
    threads: usize,
) -> Option<(Grads, f32)> {
    let chunks: Vec<&[&Example]> = examples.chunks(chunk.max(1)).collect();
    let partials = sns_rt::pool::par_map(&chunks, threads, |part| {
        let mut grads = Grads::new(model.registry());
        let mut loss_sum = 0.0f32;
        for (tokens, target) in part.iter() {
            let (out, ctx) = model.forward(tokens);
            let pred = Mat::from_rows(&[&out]);
            let tgt = Mat::from_rows(&[&target[..]]);
            let (l, dl) = sns_nn::mse_loss(&pred, &tgt);
            loss_sum += l;
            model.backward(&ctx, [dl.get(0, 0), dl.get(0, 1), dl.get(0, 2)], &mut grads);
        }
        (grads, loss_sum)
    });
    let mut iter = partials.into_iter();
    let (mut grads, mut loss) = iter.next()?;
    for (g, l) in iter {
        grads.merge(&g);
        loss += l;
    }
    Some((grads, loss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitformerConfig;

    fn tiny_model() -> Circuitformer {
        let mut rng = StdRng::seed_from_u64(1);
        Circuitformer::new(
            CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 32, ..CircuitformerConfig::fast() },
            &mut rng,
        )
    }

    /// A synthetic order-sensitive task: target depends on both the token
    /// multiset and whether token 1 precedes token 2.
    fn synthetic_data(n: usize, seed: u64) -> Vec<Example> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for _ in 0..n {
            let len = 3 + rng.gen_range(0..5usize);
            let tokens: Vec<usize> =
                (0..len).map(|_| rng.gen_range(0..10usize)).collect();
            let sum: usize = tokens.iter().sum();
            let p1 = tokens.iter().position(|&t| t == 1);
            let p2 = tokens.iter().position(|&t| t == 2);
            let order_bonus = match (p1, p2) {
                (Some(a), Some(b)) if a < b => 1.0,
                _ => 0.0,
            };
            let t0 = sum as f32 / 20.0;
            data.push((tokens, [t0, t0 * 0.5 + order_bonus, order_bonus]));
        }
        data
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = tiny_model();
        let data = synthetic_data(128, 3);
        let (tr, va) = data.split_at(96);
        let cfg = TrainConfig { epochs: 12, batch_size: 16, lr: 3e-3, seed: 9, threads: 2, clip: 1.0 };
        let h = train(&mut m, tr, va, &cfg);
        let first = h.epochs.first().unwrap();
        let last = h.last().unwrap();
        assert!(last.train_loss < first.train_loss * 0.5, "{first:?} -> {last:?}");
        assert!(last.val_loss < first.val_loss, "{first:?} -> {last:?}");
    }

    /// Threads move no gradient bit at a fixed chunk length; another
    /// chunk length only reorders the sum, so it moves bits by rounding.
    #[test]
    fn gradient_is_thread_invariant_and_chunking_moves_it_only_by_rounding() {
        let m = tiny_model();
        let data = synthetic_data(16, 5);
        let refs: Vec<&Example> = data.iter().collect();
        let flat = |g: &Grads| {
            let mut v = Vec::new();
            m.visit(&mut |p| v.extend_from_slice(g.get(p.id).as_slice()));
            v
        };
        let (g_one, l_one) = summed_gradient(&m, &refs, 16, 1).unwrap();
        let (g4_t1, l4_t1) = summed_gradient(&m, &refs, 4, 1).unwrap();
        let (g4_t4, l4_t4) = summed_gradient(&m, &refs, 4, 4).unwrap();
        assert_eq!(l4_t1.to_bits(), l4_t4.to_bits());
        let (one, t1, t4) = (flat(&g_one), flat(&g4_t1), flat(&g4_t4));
        assert!(t1.iter().zip(&t4).all(|(a, b)| a.to_bits() == b.to_bits()), "threads moved a bit");
        assert!((l_one - l4_t1).abs() < 1e-4);
        let max_diff = one.iter().zip(&t1).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(max_diff < 1e-4, "chunking moved the gradient by {max_diff}");
    }

    #[test]
    fn empty_step_is_a_no_op() {
        let mut m = tiny_model();
        let weights = |m: &Circuitformer| {
            let mut bytes = Vec::new();
            sns_nn::write_params(&mut bytes, |f| m.visit(f));
            bytes
        };
        let before = weights(&m);
        let mut opt = Adam::new(1e-3);
        assert_eq!(train_step(&mut m, &mut opt, &[], 8, 4, 1.0), 0.0);
        assert_eq!(weights(&m), before);
    }

    #[test]
    fn evaluate_is_zero_free_of_data() {
        let m = tiny_model();
        assert_eq!(evaluate(&m, &[]), 0.0);
    }

    #[test]
    fn history_records_every_epoch() {
        let mut m = tiny_model();
        let data = synthetic_data(32, 8);
        let cfg = TrainConfig { epochs: 3, batch_size: 8, lr: 1e-3, seed: 1, threads: 1, clip: 0.0 };
        let h = train(&mut m, &data, &data, &cfg);
        assert_eq!(h.epochs.len(), 3);
    }
}
