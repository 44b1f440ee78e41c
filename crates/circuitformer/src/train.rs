//! Circuitformer training (Table 6 row 1: Adam, batch 128, lr 0.001,
//! 256 epochs), with data-parallel minibatches on `sns_rt::pool`.

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
/// Minibatches are split across `config.threads` workers; each worker
/// accumulates into a private gradient buffer and the buffers are merged
/// before the Adam step, so results are independent of the thread count.
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
    let mut history = TrainHistory::default();

    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut seen = 0usize;
        for batch in order.chunks(config.batch_size) {
            let (grads, loss_sum) = batch_gradients(model, train_set, batch, config.threads);
            let mut grads = grads;
            grads.scale(1.0 / batch.len() as f32);
            if config.clip > 0.0 {
                grads.clip_global_norm(config.clip);
            }
            opt.step_visit(&grads, |f| model.visit_mut(f));
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

/// Computes summed gradients and loss for one minibatch, in parallel.
fn batch_gradients(
    model: &Circuitformer,
    data: &[Example],
    batch: &[usize],
    threads: usize,
) -> (Grads, f32) {
    let threads = threads.max(1).min(batch.len().max(1));
    if threads == 1 {
        return worker(model, data, batch);
    }
    let results =
        sns_rt::pool::par_map_chunks(batch, threads, |part| worker(model, data, part));
    let mut iter = results.into_iter();
    let Some((mut grads, mut loss)) = iter.next() else {
        return worker(model, data, &[]);
    };
    for (g, l) in iter {
        grads.merge(&g);
        loss += l;
    }
    (grads, loss)
}

fn worker(model: &Circuitformer, data: &[Example], part: &[usize]) -> (Grads, f32) {
    let mut grads = Grads::new(model.registry());
    let mut loss_sum = 0.0f32;
    for &i in part {
        let (tokens, target) = &data[i];
        let (out, ctx) = model.forward(tokens);
        let pred = Mat::from_rows(&[&out]);
        let tgt = Mat::from_rows(&[&target[..]]);
        let (l, dl) = sns_nn::mse_loss(&pred, &tgt);
        loss_sum += l;
        model.backward(&ctx, [dl.get(0, 0), dl.get(0, 1), dl.get(0, 2)], &mut grads);
    }
    (grads, loss_sum)
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

    #[test]
    fn thread_count_does_not_change_the_gradient() {
        let m = tiny_model();
        let data = synthetic_data(16, 5);
        let idx: Vec<usize> = (0..16).collect();
        let (g1, l1) = batch_gradients(&m, &data, &idx, 1);
        let (g4, l4) = batch_gradients(&m, &data, &idx, 4);
        assert!((l1 - l4).abs() < 1e-4);
        // Compare a few buffers.
        let mut max_diff = 0.0f32;
        m.visit(&mut |p| {
            let a = g1.get(p.id);
            let b = g4.get(p.id);
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                max_diff = max_diff.max((x - y).abs());
            }
        });
        assert!(max_diff < 1e-4, "thread-dependent gradients, diff {max_diff}");
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
