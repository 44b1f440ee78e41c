//! Golden snapshot of training's weight bits.
//!
//! Training is a bit contract too: at a given thread count the batch
//! trainer (`sns_circuitformer::train`) must land on the same weights, and
//! the label factory's fine-tuner (`sns_core::FineTuner`) on the same
//! weights at any thread count. This test pins, in
//! `tests/golden/train.json`:
//!
//! * the FNV-128 of the Circuitformer's `write_params` bytes, and each
//!   epoch's training loss, after batch training the tiny shape of the
//!   circuitformer crate's unit tests on a synthetic task at 1, 2 and 3
//!   threads (three threads cut a 32-example minibatch into ragged
//!   11/11/10 chunks; the last, 8-example minibatch into 3/3/2);
//! * the `model_weight_hash`, and each step's loss, after three
//!   fine-tune steps of the tiny model of `tests/determinism.rs` at 1
//!   and 4 threads.
//!
//! After an *intentional* change to training arithmetic, regenerate the
//! snapshot with:
//!
//! ```text
//! SNS_BLESS=1 cargo test --test train_golden
//! ```
//!
//! and commit the diff.

use std::path::PathBuf;

use sns::circuitformer::{train, Circuitformer, CircuitformerConfig, TrainConfig};
use sns::core::aggmlp::MlpTrainConfig;
use sns::core::dataset::{label_path_tokens, AugmentConfig};
use sns::core::{model_weight_hash, train_sns, FineTuneConfig, FineTuner, SnsTrainConfig};
use sns::designs::{dsp, nonlinear, vector};
use sns::graphir::{GraphIr, Vocab};
use sns::netlist::parse_and_elaborate;
use sns::rt::json::{parse as parse_json, Json};
use sns::rt::rng::StdRng;
use sns::sampler::{PathSampler, SampleConfig};
use sns::vsynth::{CellLibrary, UnitCache};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/train.json")
}

fn bits(x: f32) -> Json {
    Json::Str(format!("{:08x}", x.to_bits()))
}

/// A synthetic order-sensitive task: the target depends on the token
/// multiset and on whether token 1 precedes token 2.
fn synthetic_data(n: usize, seed: u64) -> Vec<(Vec<usize>, [f32; 3])> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = 3 + rng.gen_range(0..5usize);
            let tokens: Vec<usize> = (0..len).map(|_| rng.gen_range(0..10usize)).collect();
            let sum: usize = tokens.iter().sum();
            let p1 = tokens.iter().position(|&t| t == 1);
            let p2 = tokens.iter().position(|&t| t == 2);
            let order = if matches!((p1, p2), (Some(a), Some(b)) if a < b) { 1.0 } else { 0.0 };
            let t0 = sum as f32 / 20.0;
            (tokens, [t0, t0 * 0.5 + order, order])
        })
        .collect()
}

/// Batch training of the tiny Circuitformer at `threads` workers.
fn batch_trained(threads: usize) -> Json {
    let mut rng = StdRng::seed_from_u64(1);
    let mut model = Circuitformer::new(
        CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 32, ..CircuitformerConfig::fast() },
        &mut rng,
    );
    let data = synthetic_data(80, 3);
    let (tr, va) = data.split_at(72);
    let cfg = TrainConfig { epochs: 2, batch_size: 32, lr: 3e-3, seed: 9, threads, clip: 1.0 };
    let history = train(&mut model, tr, va, &cfg);
    let mut bytes = Vec::new();
    sns::nn::write_params(&mut bytes, |f| model.visit(f));
    let [a, b] = sns::rt::hash::fnv128_bytes(&bytes);
    Json::obj(vec![
        ("weight_hash", Json::Str(format!("{a:016x}{b:016x}"))),
        ("train_loss", Json::Arr(history.epochs.iter().map(|e| bits(e.train_loss)).collect())),
    ])
}

/// Three fine-tune steps of the tiny model of `tests/determinism.rs`, on
/// physically labeled paths of two designs it never saw, at `threads`.
fn fine_tuned(threads: usize) -> Json {
    let mut cfg = SnsTrainConfig::fast();
    cfg.circuitformer =
        CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 64, ..CircuitformerConfig::fast() };
    cfg.cf_train = TrainConfig { epochs: 2, batch_size: 32, threads: 1, ..TrainConfig::fast() };
    cfg.mlp_train = MlpTrainConfig { epochs: 20, ..MlpTrainConfig::fast() };
    cfg.augment = AugmentConfig::none();
    cfg.sample = SampleConfig::paper_default().with_max_paths(300);
    let (mut model, _) = train_sns(&[vector::simd_alu(2, 8), nonlinear::piecewise(4, 8)], &cfg);

    let (lib, vocab, mut units) = (CellLibrary::freepdk15(), Vocab::new(), UnitCache::new());
    let mut examples: Vec<(Vec<usize>, [f64; 3])> = Vec::new();
    for d in [dsp::fir(4, 8), nonlinear::lut(16, 8)] {
        let nl = parse_and_elaborate(&d.verilog, &d.top).expect("catalog design elaborates");
        let graph = GraphIr::from_netlist(&nl);
        let paths = PathSampler::new(model.sample_config().clone()).sample(&graph);
        for toks in model.tokenize_paths(&graph, &paths) {
            let label = label_path_tokens(&toks, &vocab, &lib, &mut units);
            examples.push((toks, label));
        }
    }
    // 37 examples: four full fixed-size chunks and a ragged fifth.
    examples.truncate(37);
    assert_eq!(examples.len(), 37, "too few sampled paths");

    let mut tuner = FineTuner::new(FineTuneConfig::daemon());
    let losses: Vec<Json> = (0..3).map(|_| bits(tuner.step(&mut model, &examples, threads))).collect();
    Json::obj(vec![
        ("model_weight_hash", Json::Str(model_weight_hash(&model))),
        ("step_loss", Json::Arr(losses)),
    ])
}

fn current_snapshot() -> Json {
    let mut entries = Vec::new();
    for threads in [1, 2, 3] {
        entries.push((format!("batch/threads={threads}"), batch_trained(threads)));
    }
    for threads in [1, 4] {
        entries.push((format!("fine_tune/threads={threads}"), fine_tuned(threads)));
    }
    Json::Obj(entries)
}

#[test]
fn training_weights_match_the_golden_snapshot() {
    let current = current_snapshot();
    let path = golden_path();

    if std::env::var("SNS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current.pretty()).unwrap();
        eprintln!("blessed training weights into {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(first run? bless it: SNS_BLESS=1 cargo test --test train_golden)",
            path.display()
        )
    });
    let golden = parse_json(&text).expect("golden snapshot is valid JSON");
    let names = |j: &Json| match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("snapshot must be an object, got {}", other.print()),
    };
    assert_eq!(names(&golden), names(&current), "training suite changed — rebless (SNS_BLESS=1)");
    for name in names(&current) {
        assert_eq!(
            current.get(&name).unwrap().print(),
            golden.get(&name).unwrap().print(),
            "{name} drifted from the golden training bits — if intentional, \
             rebless with SNS_BLESS=1 and commit the diff"
        );
    }
    // The fine-tuner's contract: the thread count moves no bit.
    assert_eq!(
        current.get("fine_tune/threads=1").unwrap().print(),
        current.get("fine_tune/threads=4").unwrap().print(),
        "fine-tuned weights depend on the thread count"
    );
}
