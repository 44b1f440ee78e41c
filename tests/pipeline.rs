//! End-to-end integration tests spanning the whole workspace: Verilog
//! text → front-end → GraphIR → sampling → training → prediction →
//! persistence.

use sns::circuitformer::{CircuitformerConfig, TrainConfig};
use sns::core::dataset::AugmentConfig;
use sns::core::{load_model, save_model, train_sns, SnsTrainConfig};
use sns::designs::{catalog, dsp, nonlinear, sort, vector};
use sns::graphir::GraphIr;
use sns::netlist::parse_and_elaborate;
use sns::sampler::SampleConfig;
use sns::vsynth::{SynthOptions, VirtualSynthesizer};

fn tiny_config() -> SnsTrainConfig {
    let mut c = SnsTrainConfig::fast();
    c.circuitformer =
        CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 64, ..CircuitformerConfig::fast() };
    c.cf_train = TrainConfig { epochs: 8, batch_size: 32, threads: 1, ..TrainConfig::fast() };
    c.mlp_train = sns::core::aggmlp::MlpTrainConfig {
        epochs: 400,
        ..sns::core::aggmlp::MlpTrainConfig::fast()
    };
    c.augment = AugmentConfig::none();
    c.sample = SampleConfig::paper_default().with_max_paths(250);
    c
}

#[test]
fn every_catalog_design_flows_through_the_front_end() {
    for d in catalog() {
        let nl = parse_and_elaborate(&d.verilog, &d.top)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name));
        nl.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let g = GraphIr::from_netlist(&nl);
        assert!(g.vertex_count() > 0, "{} has an empty graph", d.name);
        assert!(!g.terminals().is_empty(), "{} has no path endpoints", d.name);
    }
}

#[test]
fn trained_model_predictions_track_design_size() {
    // Train on a small mixed set, then check that a clearly larger design
    // is predicted to be larger (the ordering matters for DSE, §5.5).
    let train: Vec<_> = vec![
        vector::simd_alu(2, 8),
        vector::simd_alu(16, 32),
        nonlinear::piecewise(4, 8),
        dsp::fir(4, 8),
        dsp::fir(16, 16),
        sort::radix_sort_stage(4, 8),
        nonlinear::lut(32, 8),
        dsp::conv2d(2, 8),
    ];
    let (model, _) = train_sns(&train, &tiny_config());
    // Both test designs are unseen but inside the trained size range.
    let small = vector::simd_alu(4, 8);
    let large = vector::simd_alu(8, 16);
    let ps = model.predict_verilog(&small.verilog, &small.top).unwrap();
    let pl = model.predict_verilog(&large.verilog, &large.top).unwrap();
    assert!(
        pl.area_um2 > ps.area_um2,
        "8x16 SIMD ({:.1}) should out-area 4x8 SIMD ({:.1})",
        pl.area_um2,
        ps.area_um2
    );
    // Power involves a frequency trade-off per path; at this tiny training
    // scale only positivity is guaranteed (accuracy is measured by the
    // Table 7 benchmark, not here).
    assert!(pl.power_mw > 0.0 && ps.power_mw > 0.0);
}

#[test]
fn prediction_is_deterministic() {
    let train = vec![vector::simd_alu(2, 8), dsp::fir(4, 8), nonlinear::piecewise(4, 8)];
    let (model, _) = train_sns(&train, &tiny_config());
    let d = nonlinear::lut(16, 8);
    let a = model.predict_verilog(&d.verilog, &d.top).unwrap();
    let b = model.predict_verilog(&d.verilog, &d.top).unwrap();
    assert_eq!(a.timing_ps, b.timing_ps);
    assert_eq!(a.area_um2, b.area_um2);
    assert_eq!(a.power_mw, b.power_mw);
    assert_eq!(a.critical_path, b.critical_path);
}

#[test]
fn persisted_model_survives_the_round_trip() {
    let train = vec![vector::simd_alu(2, 8), dsp::fir(4, 8), nonlinear::piecewise(4, 8)];
    let (model, _) = train_sns(&train, &tiny_config());
    let path = std::env::temp_dir().join("sns_integration_model.bin");
    save_model(&model, &path).unwrap();
    let loaded = load_model(&path).unwrap();
    let d = nonlinear::lut(16, 8);
    assert_eq!(
        model.predict_verilog(&d.verilog, &d.top).unwrap().area_um2,
        loaded.predict_verilog(&d.verilog, &d.top).unwrap().area_um2
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn virtual_synthesizer_and_sns_agree_on_ordering() {
    // Ground-truth areas across three sizes must be monotone, and the
    // runtime of SNS must not explode with design size (it works on
    // sampled paths, §2.2).
    let synth = VirtualSynthesizer::new(SynthOptions::default());
    let sizes = [
        vector::simd_alu(2, 8),
        vector::simd_alu(8, 16),
        vector::simd_alu(16, 32),
    ];
    let mut last_area = 0.0;
    for d in &sizes {
        let nl = parse_and_elaborate(&d.verilog, &d.top).unwrap();
        let r = synth.synthesize(&nl);
        assert!(r.area_um2 > last_area, "{}", d.name);
        last_area = r.area_um2;
    }
}
