//! The conformance suite: ≥200 seeded random designs through all four
//! differential oracles, corpus replay, generation determinism, and
//! monotone synthesis families.
//!
//! A failing design is shrunk to a few lines and persisted under
//! `tests/corpus/pending/` before the test panics, so the reproducer
//! survives the failing CI run.

use std::sync::{Arc, OnceLock};

use sns_conformance::corpus;
use sns_conformance::generator::{generate, DesignSpec, GenConfig};
use sns_conformance::oracle::{
    check_sim_vs_gates, check_vsynth_invariants, IncrementalHarness, PredictorHarness,
    ServeHarness,
};
use sns_conformance::shrink::shrink;
use sns_netlist::{design_hashes, parse_and_elaborate, parse_source};
use sns_rt::pool::par_map;
use sns_vsynth::{SynthOptions, VirtualSynthesizer};

/// Designs the smoke test sweeps (tier-1 acceptance floor: 200).
const SMOKE_DESIGNS: u64 = 200;
/// Every how-many designs the (expensive) model-level oracles run.
const MODEL_STRIDE: u64 = 10;
/// Stimulus cycles per design: enough to move every register and memory.
const SIM_CYCLES: usize = 5;
const STIM_SEED_SALT: u64 = 0x5EED_5717;

/// One tiny model shared by every test in this binary (training dominates
/// runtime). Tests must leave its cache unbounded and may clear it.
fn harness() -> &'static PredictorHarness {
    static HARNESS: OnceLock<PredictorHarness> = OnceLock::new();
    HARNESS.get_or_init(PredictorHarness::train)
}

/// Shrinks `spec` against `oracle`, persists the minimized reproducer,
/// and panics with a pointer to it.
fn fail_with_repro(
    spec: &DesignSpec,
    label: &str,
    detail: &str,
    oracle: &mut dyn FnMut(&DesignSpec) -> bool,
) -> ! {
    let min = shrink(spec, oracle, 600);
    let hint = match corpus::write_pending(&min, label) {
        Ok(path) => format!("minimized reproducer written to {}", path.display()),
        Err(e) => format!("could not persist reproducer ({e}); minimized source:\n{}", min.verilog()),
    };
    panic!("conformance failure [{label}]: {detail}\n{hint}");
}

#[test]
fn smoke_all_oracles_over_200_seeded_designs() {
    let cfg = GenConfig::default();
    let harness = harness();
    let serve = ServeHarness::start(Arc::clone(harness.model()), None).unwrap();
    for seed in 1..=SMOKE_DESIGNS {
        let spec = generate(seed, &cfg);
        let stim_seed = seed ^ STIM_SEED_SALT;
        if let Err(e) = check_sim_vs_gates(&spec, stim_seed, SIM_CYCLES) {
            fail_with_repro(&spec, &format!("sim_vs_gates_{seed}"), &e, &mut |s| {
                check_sim_vs_gates(s, stim_seed, SIM_CYCLES).is_err()
            });
        }
        if let Err(e) = check_vsynth_invariants(&spec) {
            fail_with_repro(&spec, &format!("vsynth_invariants_{seed}"), &e, &mut |s| {
                check_vsynth_invariants(s).is_err()
            });
        }
        // The model-level oracles cost several full predictions each, so
        // they sample the stream instead of running on every design.
        if seed % MODEL_STRIDE == 0 {
            if let Err(e) = harness.check(&spec) {
                fail_with_repro(&spec, &format!("predictor_determinism_{seed}"), &e, &mut |s| {
                    harness.check(s).is_err()
                });
            }
            if let Err(e) = serve.check(&spec) {
                fail_with_repro(&spec, &format!("serve_identity_{seed}"), &e, &mut |s| {
                    serve.check(s).is_err()
                });
            }
        }
    }
    serve.shutdown();
}

/// Designs the incremental-oracle smoke sweeps (the full ≥500-design run
/// lives in the `eco_soak` binary).
const INCREMENTAL_SMOKE_DESIGNS: u64 = 25;
/// Module edits per design in the smoke.
const INCREMENTAL_SMOKE_EDITS: usize = 3;

#[test]
fn incremental_oracle_smoke() {
    // Oracle 5 over seeded designs: K random module edits per design,
    // each step's incremental re-prediction bit-identical to from-scratch.
    let cfg = GenConfig::default();
    let inc = IncrementalHarness::from_model(Arc::clone(harness().model()));
    let mut reelaborated = 0usize;
    let mut design_modules = 0usize;
    for seed in 1..=INCREMENTAL_SMOKE_DESIGNS {
        let spec = generate(seed, &cfg);
        match inc.check(&spec, seed ^ STIM_SEED_SALT, INCREMENTAL_SMOKE_EDITS) {
            Ok(stats) => {
                assert_eq!(stats.edits, INCREMENTAL_SMOKE_EDITS);
                reelaborated += stats.reelaborated_modules;
                design_modules += stats.design_modules;
            }
            Err(e) => {
                let salt = seed ^ STIM_SEED_SALT;
                fail_with_repro(&spec, &format!("incremental_{seed}"), &e, &mut |s| {
                    inc.check(s, salt, INCREMENTAL_SMOKE_EDITS).is_err()
                });
            }
        }
    }
    // The point of the tentpole: edits must not re-elaborate everything.
    assert!(
        reelaborated <= design_modules,
        "re-elaborated {reelaborated} of {design_modules} module slots"
    );
}

#[test]
fn content_hashes_ignore_whitespace_and_comments() {
    let a = parse_source(
        "module m (input [3:0] a, output [3:0] y);\n    assign y = a + 4'd1;\nendmodule\n",
    )
    .unwrap();
    let b = parse_source(
        "// a comment\nmodule  m ( input [3:0] a ,\n            output [3:0] y );\n\
         /* block\n   comment */\n    assign   y = a + 4'd1 ; // trailing\nendmodule\n",
    )
    .unwrap();
    let ha = design_hashes(&a);
    let hb = design_hashes(&b);
    assert_eq!(ha["m"], hb["m"], "whitespace/comment reformatting must not change the hash");

    // ... while a real change does.
    let c = parse_source(
        "module m (input [3:0] a, output [3:0] y);\n    assign y = a + 4'd2;\nendmodule\n",
    )
    .unwrap();
    assert_ne!(ha["m"].own, design_hashes(&c)["m"].own);
}

#[test]
fn content_hashes_are_parameter_binding_sensitive() {
    let src = |w: u32| {
        format!(
            "module sub #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);\n\
                 assign y = a + 1'd1;\n\
             endmodule\n\
             module top (input [7:0] i0, output [7:0] o0);\n\
                 wire [7:0] t;\n\
                 sub #(.W({w})) u (.a(i0[{0}:0]), .y(t[{0}:0]));\n\
                 assign o0 = t;\n\
             endmodule\n",
            w - 1
        )
    };
    let a = parse_source(&src(4)).unwrap();
    let b = parse_source(&src(8)).unwrap();
    let (ha, hb) = (design_hashes(&a), design_hashes(&b));
    // The sub definition is untouched; the parent carries the binding.
    assert_eq!(ha["sub"], hb["sub"]);
    assert_ne!(ha["top"].own, hb["top"].own, "a parameter binding is content");
    assert_ne!(ha["top"].trans, hb["top"].trans);
}

#[test]
fn content_hashes_do_not_collide_over_catalog_and_generated_designs() {
    // Same own-hash must mean same module source text, across the full
    // design catalog plus 1000 generated specs. Identical text appearing
    // in many designs (the shared helper modules, catalog building
    // blocks) is expected and fine.
    let mut seen: std::collections::HashMap<[u64; 2], String> = std::collections::HashMap::new();
    let mut check = |name: &str, hash: [u64; 2], text: String, origin: &str| {
        match seen.get(&hash) {
            Some(prev) if *prev != text => panic!(
                "hash collision on module `{name}` from {origin}: two distinct sources share \
                 {hash:?}:\n--- first ---\n{prev}\n--- second ---\n{text}"
            ),
            Some(_) => {}
            None => {
                seen.insert(hash, text);
            }
        }
    };
    // Module texts keyed by re-printing the parsed AST is unavailable, so
    // compare the normalized token stream instead: strip whitespace runs.
    let normalize = |src: &str| src.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut split = |verilog: &str, origin: &str| {
        let design = parse_source(verilog).unwrap();
        let hashes = design_hashes(&design);
        let mut pos = 0;
        while let Some(off) = verilog[pos..].find("module ") {
            let start = pos + off;
            let end = start
                + verilog[start..].find("endmodule").map(|e| e + "endmodule".len()).unwrap();
            let name = verilog[start + 7..].split_whitespace().next().unwrap().to_string();
            if let Some(h) = hashes.get(&name) {
                check(&name, h.own, normalize(&verilog[start..end]), origin);
            }
            pos = end;
        }
    };
    for design in sns_designs::catalog() {
        split(&design.verilog, &design.name);
    }
    let cfg = GenConfig::default();
    for seed in 0..1000u64 {
        split(&generate(seed, &cfg).verilog(), &format!("generated seed {seed}"));
    }
    assert!(seen.len() > 1000, "expected a large hash population, got {}", seen.len());
}

#[test]
fn generation_is_identical_on_any_thread_count() {
    let cfg = GenConfig::default();
    let seeds: Vec<u64> = (1..=64).collect();
    let serial: Vec<String> = seeds.iter().map(|&s| generate(s, &cfg).verilog()).collect();
    for threads in [2, 8] {
        let parallel = par_map(&seeds, threads, |&s| generate(s, &cfg).verilog());
        assert_eq!(serial, parallel, "generation diverged at {threads} threads");
    }
}

#[test]
fn corpus_cases_replay_bit_identically() {
    let dir = corpus::corpus_dir();
    if corpus::blessing() {
        // SNS_BLESS=1: (re-)pin every sidecar to current behavior. New
        // cases without a sidecar get the default stimulus parameters.
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|s| s.to_str()) == Some("v"))
            .collect();
        files.sort();
        let blessed = files.len();
        for vpath in files {
            let (top, stim_seed, cycles) = match corpus::load_case(&vpath) {
                Ok(c) => (c.top, c.stim_seed, c.cycles),
                Err(_) => ("top".to_string(), corpus::DEFAULT_STIM_SEED, corpus::DEFAULT_CYCLES),
            };
            corpus::bless(&vpath, &top, stim_seed, cycles).unwrap();
        }
        eprintln!("blessed {blessed} corpus sidecars");
        return;
    }
    let cases = corpus::load_corpus(&dir).unwrap();
    assert!(
        cases.len() >= 5,
        "the corpus should hold the checked-in regression cases, found {}",
        cases.len()
    );
    for case in &cases {
        corpus::replay(case).unwrap();
    }
}

#[test]
fn synthesis_labels_grow_monotonically_with_width() {
    // Dedicated families with the sizing loop pinned off: the sizing
    // iterations trade area for timing nonmonotonically by design, but
    // at zero iterations a wider datapath must never get cheaper.
    let options = || SynthOptions { sizing_iterations: 0, ..SynthOptions::default() };
    type Family = (&'static str, fn(u32) -> String);
    let families: &[Family] = &[
        ("adder", |w| {
            format!(
                "module top (input [{0}:0] a, b, output [{1}:0] y); assign y = a + b; endmodule",
                w - 1,
                w
            )
        }),
        ("multiplier", |w| {
            format!(
                "module top (input [{0}:0] a, b, output [{1}:0] y); assign y = a * b; endmodule",
                w - 1,
                2 * w - 1
            )
        }),
        ("comparator", |w| {
            format!(
                "module top (input [{0}:0] a, b, output y); assign y = a < b; endmodule",
                w - 1
            )
        }),
        ("accumulator", |w| {
            format!(
                "module top (input clk, input [{0}:0] a, output [{0}:0] y);\n\
                     reg [{0}:0] acc;\n\
                     always @(posedge clk) acc <= acc + a;\n\
                     assign y = acc;\n\
                 endmodule",
                w - 1
            )
        }),
    ];
    for (name, src) in families {
        let mut prev: Option<(f64, u64)> = None;
        for w in [4u32, 8, 12, 16] {
            let nl = parse_and_elaborate(&src(w), "top").unwrap();
            let r = VirtualSynthesizer::new(options()).synthesize(&nl);
            if let Some((area, gates)) = prev {
                assert!(
                    r.area_um2 >= area,
                    "{name}: area shrank when widening to {w} bits ({area} -> {})",
                    r.area_um2
                );
                assert!(
                    r.gate_count >= gates,
                    "{name}: gate count shrank when widening to {w} bits ({gates} -> {})",
                    r.gate_count
                );
            }
            prev = Some((r.area_um2, r.gate_count));
        }
    }
}

#[test]
fn random_designs_never_shrink_under_widening() {
    // The generator's own widening transform, gate-count only (the default
    // sizing loop runs here, which is exactly what the soak exercises).
    let cfg = GenConfig::default();
    for seed in 300..320 {
        let spec = generate(seed, &cfg);
        let count = |s: &DesignSpec| {
            let nl = parse_and_elaborate(&s.verilog(), s.top()).unwrap();
            let gl = VirtualSynthesizer::new(SynthOptions::default()).elaborate_gates(&nl);
            gl.graph.len()
        };
        let base = count(&spec);
        let wide = count(&spec.widened());
        assert!(
            wide >= base,
            "seed {seed}: widening shrank the gate graph ({base} -> {wide})"
        );
    }
}

#[test]
fn serve_metrics_reconcile_under_cache_pressure() {
    // A deliberately tiny cache so predictions evict each other; the
    // /metrics counters must reconcile exactly: every cached entry is a
    // miss that has not been evicted. Trains its own model — the shared
    // harness model's cache is being exercised concurrently by the smoke
    // test, which would make the counter assertions racy.
    let cfg = GenConfig::default();
    let own = PredictorHarness::train();
    let model = Arc::clone(own.model());
    let cap = 16usize;
    let serve = ServeHarness::start(Arc::clone(&model), Some(cap)).unwrap();

    let check = |tag: &str| {
        let m = serve.metrics().unwrap();
        let cache = m.get("cache").unwrap();
        let entries = cache.get("entries").and_then(|v| v.as_u64()).unwrap();
        let capacity = cache.get("capacity").and_then(|v| v.as_u64()).unwrap();
        let hits = cache.get("hits").and_then(|v| v.as_u64()).unwrap();
        let misses = cache.get("misses").and_then(|v| v.as_u64()).unwrap();
        let evictions = cache.get("evictions").and_then(|v| v.as_u64()).unwrap();
        let hit_rate = cache.get("hit_rate").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(capacity, cap as u64, "{tag}");
        assert!(entries <= cap as u64, "{tag}: {entries} entries over capacity {cap}");
        assert_eq!(
            entries,
            misses - evictions,
            "{tag}: entries must equal misses - evictions (hits={hits} misses={misses})"
        );
        assert!((0.0..=1.0).contains(&hit_rate), "{tag}: hit_rate {hit_rate}");
        (hits, misses, evictions)
    };

    // Counters are lifetime, and training itself fills the cache through
    // the counted paths — so assert deltas from a baseline, not zeros.
    let (h0, m0, e0) = check("baseline");
    // Distinct designs force misses and (cumulatively) evictions ...
    for seed in [901u64, 902, 903] {
        let spec = generate(seed, &cfg);
        serve.check(&spec).unwrap();
    }
    let (_, m1, _) = check("after distinct designs");
    assert!(m1 > m0, "distinct designs must miss");
    // ... and an immediate repeat of the last design hits what it just
    // filled (FIFO eviction: its own sequences are the newest entries).
    let spec = generate(903, &cfg);
    serve.check(&spec).unwrap();
    let (h2, _, e2) = check("after repeat");
    assert!(h2 > h0, "an immediate repeat must hit the cache");
    assert!(e2 > e0, "distinct designs through a {cap}-entry cache must evict");

    serve.shutdown();
}
