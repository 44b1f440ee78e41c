//! The direct-call prediction re-enacted stage by stage through the
//! public functions `SnsModel::predict_netlist` is built from, timing
//! each stage from outside the program.

use std::collections::BTreeMap;
use std::time::Instant;

use sns_circuitformer::CircuitformerConfig;
use sns_core::{DesignPrediction, SnsModel};
use sns_graphir::GraphIr;
use sns_sampler::PathSampler;

use crate::measure::ms_since;

/// Stage times (ms) and work counts of one staged prediction.
#[derive(Debug, Clone, Default)]
pub struct Staged {
    pub parse_ms: f64,
    pub graphir_ms: f64,
    pub sample_ms: f64,
    pub tokenize_ms: f64,
    pub infer_ms: f64,
    pub reduce_ms: f64,
    /// Wall time of the whole staged call, bookkeeping included.
    pub wall_ms: f64,
    pub cells: usize,
    pub vertices: usize,
    pub paths: usize,
    /// Unique token sequences the cache was missing.
    pub unique: usize,
    /// Circuitformer GFLOP spent on the missing sequences.
    pub gflop: f64,
}

impl Staged {
    /// Sum of the timed stages.
    pub fn stage_sum_ms(&self) -> f64 {
        self.parse_ms
            + self.graphir_ms
            + self.sample_ms
            + self.tokenize_ms
            + self.infer_ms
            + self.reduce_ms
    }
}

/// Verilog → netlist → GraphIR → paths → tokens → cache priming →
/// reduction and refinement, each stage timed on its own. The result is
/// the prediction `SnsModel::predict_verilog` makes for the same source.
pub fn predict(
    model: &SnsModel,
    verilog: &str,
    top: &str,
    threads: usize,
    batch: usize,
) -> Result<(DesignPrediction, Staged), String> {
    let start = Instant::now();
    let mut s = Staged::default();

    let t = Instant::now();
    let netlist =
        sns_netlist::parse_and_elaborate(verilog, top).map_err(|e| format!("{top}: {e}"))?;
    s.parse_ms = ms_since(t);
    s.cells = netlist.cell_count();

    let t = Instant::now();
    let graph = GraphIr::from_netlist(&netlist);
    s.graphir_ms = ms_since(t);
    s.vertices = graph.vertex_count();

    let t = Instant::now();
    let paths = PathSampler::new(model.sample_config().clone()).sample(&graph);
    s.sample_ms = ms_since(t);
    s.paths = paths.len();

    let t = Instant::now();
    let seqs = model.tokenize_paths(&graph, &paths);
    let missing = model.cache().missing_unique(&seqs);
    s.tokenize_ms = ms_since(t);
    s.unique = missing.len();
    s.gflop = gflop(model.circuitformer().config(), &missing);

    let t = Instant::now();
    model.prime_path_cache(&seqs, threads, batch);
    s.infer_ms = ms_since(t);

    let t = Instant::now();
    let pred = model.predict_primed(&graph, &paths, &seqs, None, start);
    s.reduce_ms = ms_since(t);

    s.wall_ms = ms_since(start);
    Ok((pred, s))
}

/// GFLOP of the Circuitformer encoder blocks over `seqs`, computed from
/// shapes × tokens (not counted by the program): per block and sequence
/// of T tokens (CLS included, truncated like the model), the Q/K/V and
/// output projections (2·T·4d²), the attention scores and weighted sum
/// (2·2·T²·d) and the feed-forward pair (2·2·T·d·ffn). Embeddings,
/// layer norms and the output head are left out.
pub fn gflop(cfg: &CircuitformerConfig, seqs: &[Vec<usize>]) -> f64 {
    let d = cfg.dim as f64;
    let ffn = cfg.ffn_dim as f64;
    let per_block: f64 = seqs
        .iter()
        .map(|s| {
            let t = (s.len().min(cfg.max_len - 1) + 1) as f64;
            2.0 * t * 4.0 * d * d + 4.0 * t * t * d + 4.0 * t * d * ffn
        })
        .sum();
    per_block * cfg.layers as f64 / 1e9
}

/// Records the per-op means of the staged calls as per-layer metrics.
pub fn record(staged: &[Staged], layers: &mut BTreeMap<&'static str, f64>) {
    let n = staged.len().max(1) as f64;
    let sum = |f: fn(&Staged) -> f64| staged.iter().map(f).sum::<f64>();
    let infer_s = sum(|s| s.infer_ms) / 1e3;
    for (key, value) in [
        ("netlist.parse_elab_ms", sum(|s| s.parse_ms) / n),
        ("netlist.cells", sum(|s| s.cells as f64) / n),
        ("graphir.build_ms", sum(|s| s.graphir_ms) / n),
        ("graphir.vertices", sum(|s| s.vertices as f64) / n),
        ("sampler.sample_ms", sum(|s| s.sample_ms) / n),
        ("sampler.paths", sum(|s| s.paths as f64) / n),
        ("core.tokenize_ms", sum(|s| s.tokenize_ms) / n),
        ("core.unique_seqs", sum(|s| s.unique as f64) / n),
        (
            "core.unique_frac",
            sum(|s| s.unique as f64) / sum(|s| s.paths as f64).max(1.0),
        ),
        ("circuitformer.infer_ms", sum(|s| s.infer_ms) / n),
        ("circuitformer.gflop", sum(|s| s.gflop) / n),
        (
            "circuitformer.gflop_per_s",
            if infer_s > 0.0 {
                sum(|s| s.gflop) / infer_s
            } else {
                0.0
            },
        ),
        ("core.reduce_refine_ms", sum(|s| s.reduce_ms) / n),
    ] {
        layers.insert(key, value);
    }
}
