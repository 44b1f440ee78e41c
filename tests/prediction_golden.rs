//! Golden snapshot of a trained model's predictions.
//!
//! Inference arithmetic is a bit contract (DESIGN.md §2c): a change that
//! claims to keep it must leave every prediction bit where it was. This
//! test trains the tiny model of `tests/determinism.rs`, pins its
//! `model_weight_hash`, and pins the exact bits of timing, area and power
//! plus `path_count` and the critical path of flat predictions of every
//! `tests/corpus` design and a few catalog designs, and of one session
//! and one ECO-patch prediction, to `tests/golden/predictions.json`.
//!
//! The bits assume this toolchain's libm: softmax calls `expf` and the
//! label scalers call `ln`/`exp`, so another platform libm may move them.
//!
//! After an *intentional* change to predictions, regenerate the snapshot
//! with:
//!
//! ```text
//! SNS_BLESS=1 cargo test --test prediction_golden
//! ```
//!
//! and commit the diff.

use std::path::{Path, PathBuf};

use sns::circuitformer::{CircuitformerConfig, TrainConfig};
use sns::core::aggmlp::MlpTrainConfig;
use sns::core::dataset::AugmentConfig;
use sns::core::{model_weight_hash, train_sns, DesignPrediction, SessionStore, SnsModel, SnsTrainConfig};
use sns::designs::{cores, dsp, mlaccel, nonlinear, peripherals, vector, Design};
use sns::rt::json::{parse as parse_json, Json};
use sns::sampler::SampleConfig;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/predictions.json")
}

/// The tiny recipe of `tests/determinism.rs`.
fn model() -> SnsModel {
    let mut cfg = SnsTrainConfig::fast();
    cfg.circuitformer =
        CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 64, ..CircuitformerConfig::fast() };
    cfg.cf_train = TrainConfig { epochs: 2, batch_size: 32, threads: 1, ..TrainConfig::fast() };
    cfg.mlp_train = MlpTrainConfig { epochs: 20, ..MlpTrainConfig::fast() };
    cfg.augment = AugmentConfig::none();
    cfg.sample = SampleConfig::paper_default().with_max_paths(300);
    train_sns(&[vector::simd_alu(2, 8), nonlinear::piecewise(4, 8)], &cfg).0
}

/// `(name, verilog, top)` of every flat prediction the snapshot pins.
fn flat_suite() -> Vec<(String, String, String)> {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut cases: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .expect("tests/corpus exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    cases.sort();
    let mut out = Vec::new();
    for v in cases {
        let meta = std::fs::read_to_string(v.with_extension("json")).expect("corpus sidecar");
        let meta = parse_json(&meta).expect("corpus sidecar is JSON");
        let top = meta.get("top").and_then(Json::as_str).expect("corpus top").to_string();
        let name = v.file_stem().and_then(|s| s.to_str()).expect("utf-8 name");
        out.push((format!("corpus/{name}"), std::fs::read_to_string(&v).expect("corpus .v"), top));
    }
    let catalog: [Design; 5] = [
        cores::sodor_like(32),
        peripherals::gpio(8),
        mlaccel::systolic_array(4, 8),
        vector::simd_alu(4, 8),
        dsp::fir(8, 16),
    ];
    for d in catalog {
        out.push((format!("catalog/{}", d.name), d.verilog, d.top));
    }
    out
}

/// A two-leaf hierarchy whose `leaf` the ECO patch replaces.
fn session_source() -> &'static str {
    "module leaf (input [7:0] a, output [7:0] y); assign y = a + 8'd1; endmodule
     module keep (input clk, input [7:0] a, output [7:0] y);
         reg [7:0] r;
         always @(posedge clk) r <= r + a;
         assign y = r;
     endmodule
     module top (input clk, input [7:0] p, output [7:0] y0, output [7:0] y1);
         leaf l (.a(p), .y(y0));
         keep k (.clk(clk), .a(p), .y(y1));
     endmodule"
}

const PATCH: &str = "module leaf (input [7:0] a, output [7:0] y); assign y = a ^ 8'h3C; endmodule";

/// The pinned fields of one prediction; floats as their IEEE bits.
fn fields(p: &DesignPrediction) -> Json {
    let bits = |x: f64| Json::Str(format!("{:016x}", x.to_bits()));
    Json::obj(vec![
        ("timing_ps", bits(p.timing_ps)),
        ("area_um2", bits(p.area_um2)),
        ("power_mw", bits(p.power_mw)),
        ("path_count", Json::UInt(p.path_count as u64)),
        ("critical_path", Json::Arr(p.critical_path.iter().cloned().map(Json::Str).collect())),
    ])
}

fn current_snapshot() -> Json {
    let model = model();
    let mut preds = Vec::new();
    for (name, verilog, top) in flat_suite() {
        let p = model.predict_verilog(&verilog, &top).unwrap_or_else(|e| panic!("{name}: {e}"));
        preds.push((name, fields(&p)));
    }
    let store = SessionStore::default();
    let base = model.predict_session(&store, session_source(), "top").expect("session predicts");
    preds.push(("session/base".to_string(), fields(&base.prediction)));
    let patched = model.predict_patch(&store, &base.token, PATCH).expect("patch predicts");
    preds.push(("session/patch".to_string(), fields(&patched.prediction)));
    Json::obj(vec![
        ("model_weight_hash", Json::Str(model_weight_hash(&model))),
        ("predictions", Json::Obj(preds)),
    ])
}

#[test]
fn predictions_match_the_golden_snapshot() {
    let current = current_snapshot();
    let path = golden_path();

    if std::env::var("SNS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current.pretty()).unwrap();
        eprintln!("blessed predictions into {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(first run? bless it: SNS_BLESS=1 cargo test --test prediction_golden)",
            path.display()
        )
    });
    let golden = parse_json(&text).expect("golden snapshot is valid JSON");

    assert_eq!(
        current.get("model_weight_hash").unwrap().print(),
        golden.get("model_weight_hash").unwrap().print(),
        "the tiny model's weights drifted — if intentional, rebless with SNS_BLESS=1 and commit the diff"
    );
    // Compare per design and per field so a drift names exactly what
    // moved instead of dumping two opaque blobs.
    let names = |j: &Json| match j.get("predictions").unwrap() {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("predictions must be an object, got {}", other.print()),
    };
    assert_eq!(
        names(&golden),
        names(&current),
        "prediction suite changed — rebless the snapshot (SNS_BLESS=1) and review the diff"
    );
    let (got, want) = (current.get("predictions").unwrap(), golden.get("predictions").unwrap());
    for name in names(&current) {
        for field in ["timing_ps", "area_um2", "power_mw", "path_count", "critical_path"] {
            assert_eq!(
                got.get(&name).unwrap().get(field).unwrap().print(),
                want.get(&name).unwrap().get(field).unwrap().print(),
                "{name}.{field} drifted from the golden prediction — if intentional, \
                 rebless with SNS_BLESS=1 and commit the diff"
            );
        }
    }
}
