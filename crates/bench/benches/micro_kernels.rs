//! Micro-benchmarks for the hot paths of the SNS pipeline: Verilog
//! front-end, GraphIR construction, path sampling, Circuitformer
//! inference (whole model at the fast shape, per layer at paper shape),
//! Aggregation-MLP training at the label factory's refit shape, unit
//! characterization, and virtual-synthesizer STA.
//!
//! Run with `cargo bench -p sns-bench --bench micro_kernels`.

use sns_bench::timing::{bench, csv_header, results_to_json, BenchResult};
use sns_rt::json::Json;
use sns_rt::rng::StdRng;

use sns_circuitformer::{Circuitformer, CircuitformerConfig};
use sns_conformance::generator::{generate, GenConfig};
use sns_core::aggmlp::{AggMlp, MlpTrainConfig};
use sns_designs::{cores, misc, mlaccel};
use sns_graphir::{GraphIr, VocabType};
use sns_netlist::{elaborate, parse_and_elaborate, parse_source, Lexer};
use sns_nn::act::bias_gelu_in_place;
use sns_nn::{
    LayerNorm, Linear, Mat, MultiHeadAttention, PackedAttention, PackedB, PackedLinear,
    ParamRegistry, SeqSpan,
};
use sns_sampler::{PathSampler, SampleConfig};
use sns_vsynth::{unit_physical, CellLibrary, SynthOptions, VirtualSynthesizer};

fn rand_mat(rng: &mut StdRng, rows: usize, cols: usize) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.0f32..1.0);
    }
    m
}

fn main() {
    sns_bench::headline("micro-kernels");
    // The GEMM and GELU kernels run at the widest ISA level the CPU has;
    // the artifact records it so numbers from different hosts compare.
    let isa = sns_nn::Isa::host().name();
    println!("  kernel ISA level: {isa}");
    let mut results = Vec::new();

    // GEMM kernel layer: blocked (with small-m dispatch) and prepacked-B
    // on the shapes the Circuitformer actually hits — [m,128] activations
    // against the 128×128 Q/K/V/O projections and the 128×512 (fast) /
    // 128×2304 (paper) FFN expansion. m ≤ 16 is the serving regime (small
    // micro-batches, ECO recomputes) where per-call B-packing used to
    // dominate; the larger m keep the training-shape trajectory visible.
    let mut gemm_rng = StdRng::seed_from_u64(2);
    for &t in &[1usize, 4, 8, 16, 64, 256, 512] {
        for &n in &[128usize, 512, 2304] {
            let a = rand_mat(&mut gemm_rng, t, 128);
            let b = rand_mat(&mut gemm_rng, 128, n);
            let pb = PackedB::pack(b.as_slice(), 128, n);
            results.push(bench(&format!("gemm_blocked_{t}x128x{n}"), || a.matmul(&b)));
            results
                .push(bench(&format!("gemm_prepacked_{t}x128x{n}"), || a.matmul_prepacked(&pb)));
        }
    }

    // The label factory's correction refit: one Aggregation-MLP fit at
    // the replay buffer's shape (64 designs × 84 features, 200 epochs of
    // one 64-row batch), then the GEMMs inside it — layer 1's forward and
    // weight gradient, the 32→1 output layer — and attention's a·V
    // product on a 32-token span (paper head width 64), which shares the
    // pack-free exact-tile path.
    let mut mlp_rng = StdRng::seed_from_u64(3);
    let mlp_data: Vec<(Vec<f32>, f32)> = (0..64)
        .map(|_| {
            let f: Vec<f32> = (0..84).map(|_| mlp_rng.gen_range(-1.0f32..1.0)).collect();
            let t = f[0] - 0.5 * f[1];
            (f, t)
        })
        .collect();
    let mlp = AggMlp::new(84, 1);
    let mlp_cfg = MlpTrainConfig { epochs: 200, ..MlpTrainConfig::fast() };
    results.push(bench("aggmlp_fit_64x84_e200", || mlp.clone().fit(&mlp_data, &mlp_cfg)));
    for (m, k, n) in [(64usize, 84usize, 32usize), (64, 32, 1), (32, 32, 64)] {
        let a = rand_mat(&mut gemm_rng, m, k);
        let b = rand_mat(&mut gemm_rng, k, n);
        results.push(bench(&format!("gemm_nn_{m}x{k}x{n}"), || a.matmul(&b)));
        if (m, k, n) == (64, 84, 32) {
            // Layer 1's weight gradient xᵀ·dy: [84, 64] × [64, 32].
            let dy = rand_mat(&mut gemm_rng, m, n);
            results.push(bench("gemm_tn_84x64x32", || a.matmul_tn(&dy)));
        }
    }

    // Front end, stage by stage: `lex` alone, `parse` (lex + AST),
    // `elaborate` on a pre-parsed `Design` and `graphir` on the netlist.
    // The designs: rocket32, the median-sized serve_mix request (a
    // `GenConfig::default()` design; seeds 0..200 ranked by source size)
    // and the smallest, median and largest Fig. 7 ladder designs by
    // source size. `json_predict_body` parses that request's `/predict`
    // body.
    let front_start = results.len();
    let design = cores::rocket_like(32);
    front_end_rows("rocket32", &design.verilog, &design.top, &mut results);
    let cfg = GenConfig::default();
    let mut gen: Vec<(String, &'static str)> = (0..200)
        .map(|seed| {
            let spec = generate(seed, &cfg);
            (spec.verilog(), spec.top())
        })
        .collect();
    gen.sort_by_key(|(v, _)| v.len());
    let (gen_src, gen_top) = &gen[gen.len() / 2];
    front_end_rows("gen", gen_src, gen_top, &mut results);
    let body = Json::obj(vec![
        ("verilog", Json::Str(gen_src.clone())),
        ("top", Json::Str(gen_top.to_string())),
    ])
    .print();
    results.push(bench("json_predict_body", || sns_rt::json::parse(&body).expect("parses")));
    let mut ladder = sns_designs::catalog();
    ladder.push(mlaccel::systolic_array(12, 16));
    ladder.push(misc::stencil2d(8, 32));
    ladder.push(misc::stencil2d(16, 32));
    ladder.sort_by_key(|d| d.verilog.len());
    for d in [&ladder[0], &ladder[ladder.len() / 2], &ladder[ladder.len() - 1]] {
        front_end_rows(&d.name, &d.verilog, &d.top, &mut results);
    }
    let front_end = before_after(&results[front_start..]);

    // Path sampling.
    let nl = parse_and_elaborate(&design.verilog, &design.top).expect("elaborates");
    let g = GraphIr::from_netlist(&nl);
    let sampler = PathSampler::new(SampleConfig::paper_default().with_max_paths(500));
    results.push(bench("sample_paths_rocket32_k5", || sampler.sample(&g)));

    // Circuitformer inference.
    let mut rng = StdRng::seed_from_u64(1);
    let model = Circuitformer::new(CircuitformerConfig::fast(), &mut rng);
    let short: Vec<usize> = vec![3, 40, 44, 9];
    let long: Vec<usize> = (0..64).map(|i| i % 79).collect();
    results.push(bench("circuitformer_infer_len4", || model.predict_raw(&short)));
    results.push(bench("circuitformer_infer_len64", || model.predict_raw(&long)));
    // The end-to-end serving unit: one path through the prepacked
    // fused-QKV/tiled-attention batch path (what a cache-miss recompute
    // or an ECO invalidation actually costs).
    results.push(bench("circuitformer_single_path", || model.predict_batch(&[long.as_slice()])));

    // Batched inference: 32 paths through one packed forward vs. 32
    // sequential predict_raw calls (identical outputs, bigger GEMMs). Short
    // paths are the representative case — sampled circuit paths are mostly
    // a handful of tokens, where per-call overhead dominates; at length 64
    // the GEMMs are already tall enough that packing is roughly a wash.
    let mut batch_speedups = Vec::new();
    for &len in &[8usize, 64] {
        let batch_paths: Vec<Vec<usize>> =
            (0..32).map(|s| (0..len).map(|i| (s * 7 + i) % 79).collect()).collect();
        let batch_refs: Vec<&[usize]> = batch_paths.iter().map(|p| p.as_slice()).collect();
        let batched =
            bench(&format!("circuitformer_batch32_len{len}"), || model.predict_batch(&batch_refs));
        let sequential = bench(&format!("circuitformer_seq32_len{len}"), || {
            batch_refs.iter().map(|p| model.predict_raw(p)).collect::<Vec<_>>()
        });
        let speedup = sequential.min.as_nanos() as f64 / batched.min.as_nanos() as f64;
        println!("    -> len-{len}: batch-32 packed forward is {speedup:.2}x sequential predict_raw");
        batch_speedups.push(Json::obj(vec![
            ("len", Json::UInt(len as u64)),
            ("batch", Json::UInt(32)),
            ("speedup_vs_sequential", Json::Num(speedup)),
        ]));
        results.push(batched);
        results.push(sequential);
    }

    // One encoder block's layers at paper shape (FFN 2304) on T = 165
    // rows (the ladder's mean packed batch), split into 15 spans of 11
    // tokens for attention. These
    // rows split Circuitformer compute the way `Block::infer` runs it:
    // `ff1` is FF1's GEMM alone, `gelu` the fused bias+GELU epilogue on
    // its output (including a copy of that output, standing in for the
    // GEMM's write), `ff2` the second GEMM plus its bias.
    let paper = CircuitformerConfig::paper();
    let t = 165;
    let mut reg = ParamRegistry::new();
    let ln = LayerNorm::new(&mut reg, paper.dim);
    let mha = MultiHeadAttention::new(&mut reg, paper.dim, paper.heads, &mut rng);
    let attn = PackedAttention::pack(&mha);
    let ff1 = Linear::new(&mut reg, paper.dim, paper.ffn_dim, &mut rng);
    let ff1_w = PackedB::pack(ff1.weight().as_slice(), paper.dim, paper.ffn_dim);
    let ff2 = PackedLinear::pack(&Linear::new(&mut reg, paper.ffn_dim, paper.dim, &mut rng));
    let spans: Vec<SeqSpan> = (0..t / 11).map(|i| SeqSpan { start: i * 11, len: 11 }).collect();
    let x = rand_mat(&mut rng, t, paper.dim);
    let h = x.matmul_prepacked(&ff1_w);
    let mut g = h.clone();
    bias_gelu_in_place(g.as_mut_slice(), ff1.bias());
    let mut epilogue = h.clone();
    let ffn_gflop = 2.0 * (t * paper.dim * paper.ffn_dim) as f64 * 1e-9;
    let layer_rows = [
        bench("cf_paper_ln_t165", || ln.infer(&x)),
        bench("cf_paper_attn_t165", || attn.infer_masked(&x, &spans)),
        bench("cf_paper_ff1_t165", || x.matmul_prepacked(&ff1_w)),
        bench("cf_paper_gelu_t165", || {
            epilogue.as_mut_slice().copy_from_slice(h.as_slice());
            bias_gelu_in_place(epilogue.as_mut_slice(), ff1.bias());
        }),
        bench("cf_paper_ff2_t165", || ff2.infer(&g)),
    ];
    println!(
        "    -> paper shape T={t}: ff1 {:.1} GFLOP/s, ff2 {:.1} GFLOP/s",
        ffn_gflop / layer_rows[2].min.as_secs_f64(),
        ffn_gflop / layer_rows[4].min.as_secs_f64()
    );
    results.extend(layer_rows);

    // Virtual synthesizer.
    let lib = CellLibrary::freepdk15();
    results.push(bench("unit_physical_mul32", || unit_physical(VocabType::Mul, 32, &lib)));
    let synth = VirtualSynthesizer::new(SynthOptions::default());
    results.push(bench("vsynth_rocket32_full", || synth.synthesize(&nl)));

    let rows: Vec<String> = results.iter().map(|r| r.csv_row()).collect();
    sns_bench::write_csv("micro_kernels.csv", csv_header(), &rows);

    // The GEMM rows the FFN layers and the tall prepacked products spend
    // their time in, next to the previous snapshot's figures.
    const GEMM_ROWS: [&str; 6] = [
        "cf_paper_ff1_t165",
        "cf_paper_ff2_t165",
        "cf_paper_attn_t165",
        "gemm_prepacked_8x128x2304",
        "gemm_prepacked_64x128x2304",
        "gemm_prepacked_256x128x2304",
    ];
    let gemm_rows: Vec<BenchResult> =
        results.iter().filter(|r| GEMM_ROWS.contains(&r.name.as_str())).cloned().collect();
    let gemm_before_after = before_after(&gemm_rows);

    // Machine-readable artifact at the repo root so the kernel-perf
    // trajectory is tracked across PRs.
    let mut doc = results_to_json("micro_kernels", &results);
    if let Json::Obj(fields) = &mut doc {
        fields.push(("isa".to_string(), Json::Str(isa.to_string())));
        fields.push(("batch_speedups".to_string(), Json::Arr(batch_speedups)));
        fields.push(("front_end".to_string(), Json::Arr(front_end)));
        fields.push(("gemm_before_after".to_string(), Json::Arr(gemm_before_after)));
    }
    sns_bench::write_root_json("BENCH_kernels.json", &doc);
}

/// Times the four front-end stages on one design: rows `lex_{tag}`,
/// `parse_{tag}`, `elaborate_{tag}` and `graphir_{tag}`.
fn front_end_rows(tag: &str, src: &str, top: &str, results: &mut Vec<BenchResult>) {
    let design = parse_source(src).expect("parses");
    let nl = elaborate(&design, top).expect("elaborates");
    results.push(bench(&format!("lex_{tag}"), || Lexer::new(src).lex_all().expect("lexes").len()));
    results.push(bench(&format!("parse_{tag}"), || parse_source(src).expect("parses")));
    results
        .push(bench(&format!("elaborate_{tag}"), || elaborate(&design, top).expect("elaborates")));
    results.push(bench(&format!("graphir_{tag}"), || GraphIr::from_netlist(&nl)));
}

/// The front-end rows with the figures the previous `BENCH_kernels.json`
/// snapshot holds for the same row next to this run's: `before_*` is
/// the snapshot this run overwrites (run the bench at the parent commit
/// first to make it the parent's), `null` for a row it lacks.
fn before_after(rows: &[BenchResult]) -> Vec<Json> {
    let previous = std::fs::read_to_string(sns_bench::repo_root().join("BENCH_kernels.json"))
        .ok()
        .and_then(|text| sns_rt::json::parse(&text).ok());
    let previous_rows: &[Json] =
        previous.as_ref().and_then(|p| p.get("results").ok()?.as_arr().ok()).unwrap_or_default();
    rows.iter()
        .map(|r| {
            let prev = previous_rows
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str).is_ok_and(|n| n == r.name));
            let before =
                |field: &str| prev.and_then(|p| p.get(field).ok()).cloned().unwrap_or(Json::Null);
            Json::obj(vec![
                ("name", Json::Str(r.name.clone())),
                ("before_median_ns", before("median_ns")),
                ("before_mean_ns", before("mean_ns")),
                ("median_ns", Json::UInt(r.median.as_nanos() as u64)),
                ("mean_ns", Json::UInt(r.mean.as_nanos() as u64)),
            ])
        })
        .collect()
}
