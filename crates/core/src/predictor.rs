//! The trained SNS model and its prediction flow (§3, Figure 1).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sns_circuitformer::{Circuitformer, LabelScaler};
use sns_graphir::{GraphIr, Vocab};
use sns_netlist::{Netlist, NetlistError};
use sns_sampler::{CircuitPath, SampleConfig};

use crate::aggmlp::AggMlp;
use crate::cache::PathPredictionCache;
use crate::pipeline::Inline;

/// Default activity assumed for paths starting at I/O ports when the user
/// supplies per-register activity coefficients (§3.4.4).
pub(crate) const IO_PATH_ACTIVITY: f32 = 0.5;

/// The output of one SNS prediction — the fast analogue of a synthesis
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPrediction {
    /// Predicted minimum clock period in ps.
    pub timing_ps: f64,
    /// Predicted cell area in µm².
    pub area_um2: f64,
    /// Predicted total power in mW.
    pub power_mw: f64,
    /// Number of complete circuit paths sampled.
    pub path_count: usize,
    /// The predicted critical path as vertex names — SNS keeps path
    /// provenance, so the critical path is located in the design (§2.2).
    pub critical_path: Vec<String>,
    /// Wall-clock time of the whole prediction.
    pub runtime: Duration,
}

/// A fully trained SNS model: Circuitformer + scalers + the three
/// Aggregation MLPs + the sampling configuration it was trained with.
#[derive(Debug, Clone)]
pub struct SnsModel {
    pub(crate) circuitformer: Circuitformer,
    pub(crate) path_scaler: LabelScaler,
    pub(crate) design_scaler: LabelScaler,
    /// Scaler over the correction ratios `label / aggregate` the MLPs
    /// predict in (§3.4 refinement, reparameterized so that a zero MLP
    /// output already yields a proportional estimate).
    pub(crate) corr_scaler: LabelScaler,
    /// Per-target MLPs: `[timing, area, power]`.
    pub(crate) mlps: [AggMlp; 3],
    pub(crate) sample: SampleConfig,
    pub(crate) vocab: Vocab,
    /// Memoized per-path predictions, shared by every prediction on this
    /// model.
    pub(crate) cache: PathPredictionCache,
}

impl SnsModel {
    /// The Circuitformer inside this model.
    pub fn circuitformer(&self) -> &Circuitformer {
        &self.circuitformer
    }

    /// The sampling configuration used at inference time.
    pub fn sample_config(&self) -> &SampleConfig {
        &self.sample
    }

    /// Predicts the raw `[timing, area, power]` of a single path given as
    /// vocabulary token ids.
    ///
    /// Routed through the batched entry point (batch of one) so every
    /// inference — including cache-miss recomputes inside the reductions —
    /// runs the same prepacked kernels as the batch path, bit-identical to
    /// the unbatched forward.
    pub fn predict_path(&self, tokens: &[usize]) -> [f64; 3] {
        let z = self.circuitformer.predict_batch(&[tokens])[0];
        self.path_scaler.inverse(z)
    }

    /// Predicts many paths in one packed Circuitformer forward pass.
    ///
    /// Per-path results are bit-identical to
    /// [`predict_path`](Self::predict_path) — batching only changes GEMM operand shapes,
    /// never any path's arithmetic — so callers may batch freely.
    pub fn predict_path_batch(&self, paths: &[&[usize]]) -> Vec<[f64; 3]> {
        self.circuitformer
            .predict_batch(paths)
            .into_iter()
            .map(|z| self.path_scaler.inverse(z))
            .collect()
    }

    /// Full prediction from Verilog source (parse → GraphIR → sample →
    /// Circuitformer → aggregate).
    ///
    /// # Errors
    ///
    /// Returns the front-end error if the source does not parse or
    /// elaborate.
    pub fn predict_verilog(&self, source: &str, top: &str) -> Result<DesignPrediction, NetlistError> {
        let nl = sns_netlist::parse_and_elaborate(source, top)?;
        Ok(self.predict_netlist(&nl, None))
    }

    /// Full prediction from an elaborated netlist, optionally with
    /// per-register activity coefficients for power gating (§3.4.4), under
    /// [`Inline::default`] hooks.
    pub fn predict_netlist(
        &self,
        netlist: &Netlist,
        activity: Option<&HashMap<String, f32>>,
    ) -> DesignPrediction {
        let Ok(prediction) = self.run_flat(netlist, activity, &Inline::default(), Instant::now());
        prediction
    }

    /// The serial reduction every prediction ends with, over the paths'
    /// token sequences and `(power coefficient, lazy vertex names)` items
    /// in path order. A sequence evicted since priming is recomputed with
    /// the same bits; the strict `>` keeps first-wins critical paths.
    pub(crate) fn reduce(
        &self,
        seqs: &[Vec<usize>],
        items: impl Iterator<Item = (f32, impl FnOnce() -> Vec<String>)>,
    ) -> ([f64; 3], Vec<String>) {
        let mut timing_max = 0.0f64;
        let mut area_sum = 0.0f64;
        let mut power_sum = 0.0f64;
        let mut critical: Vec<String> = Vec::new();
        for (tokens, (coeff, names)) in seqs.iter().zip(items) {
            let raw =
                self.cache.get(tokens).unwrap_or_else(|| self.predict_path(tokens));
            if raw[0] > timing_max {
                timing_max = raw[0];
                critical = names();
            }
            area_sum += raw[1];
            power_sum += raw[2] * coeff as f64;
        }
        ([timing_max.max(1e-3), area_sum.max(1e-6), power_sum.max(1e-9)], critical)
    }

    /// The reduction and MLP refinement over token sequences the caller
    /// has already primed into the shared cache (via
    /// [`prime_path_cache`](Self::prime_path_cache)). Bit-identical to
    /// [`predict_netlist`](Self::predict_netlist) on the same paths.
    pub fn predict_primed(
        &self,
        graph: &GraphIr,
        paths: &[CircuitPath],
        token_seqs: &[Vec<usize>],
        activity: Option<&HashMap<String, f32>>,
        start: Instant,
    ) -> DesignPrediction {
        let (aggregates, critical) = self.reduce(token_seqs, path_items(graph, paths, activity));
        self.refine(graph, paths.len(), aggregates, critical, start)
    }

    /// The MLP refinement step that ends every prediction.
    pub(crate) fn refine(
        &self,
        graph: &GraphIr,
        path_count: usize,
        aggregates: [f64; 3],
        critical: Vec<String>,
        start: Instant,
    ) -> DesignPrediction {
        let stats = graph.stats(&self.vocab);
        let mut out = [0.0f64; 3];
        for d in 0..3 {
            let features = self.features(d, aggregates, path_count, &stats);
            let z = self.mlps[d].predict(&features);
            // The MLP predicts the (normalized log) correction ratio to
            // the path aggregate, not the absolute label.
            let ratio = self.corr_scaler.inverse_dim(d, z);
            out[d] = aggregates[d] * ratio;
        }
        DesignPrediction {
            timing_ps: out[0],
            area_um2: out[1],
            power_mw: out[2],
            path_count,
            critical_path: critical,
            runtime: start.elapsed(),
        }
    }

    /// Tokenizes each sampled path into the vocabulary id sequence the
    /// Circuitformer consumes.
    pub fn tokenize_paths(&self, graph: &GraphIr, paths: &[CircuitPath]) -> Vec<Vec<usize>> {
        paths.iter().map(|p| p.token_ids(graph, &self.vocab)).collect()
    }

    /// Ensures the shared [`PathPredictionCache`] holds a prediction for
    /// every sequence in `token_seqs`, running the missing unique ones in
    /// length-bucketed packed forwards of at most `batch` sequences over
    /// `threads` workers. After this,
    /// [`predict_primed`](Self::predict_primed) completes without further
    /// inference.
    ///
    /// Because batching is per-path exact, the Circuitformer is pure, and
    /// the reduction runs serially in path order, predictions are
    /// bit-identical at any `threads` and any `batch`. Returns the cache
    /// misses it counted: the sequences it computed and inserted (a
    /// sequence a concurrent prime inserted first counts as a hit).
    pub fn prime_path_cache(&self, token_seqs: &[Vec<usize>], threads: usize, batch: usize) -> usize {
        self.cache.ensure_batched(token_seqs, threads, batch, |chunk| {
            self.predict_path_batch(chunk)
        })
    }

    /// The shared per-path prediction cache (hit/miss counters, capacity
    /// control — see [`PathPredictionCache`]).
    pub fn cache(&self) -> &PathPredictionCache {
        &self.cache
    }

    /// A replica-scoped handle on this model: identical weights, scalers,
    /// vocabulary and sampling configuration, but a *fresh, empty*
    /// [`PathPredictionCache`] owned by the new handle alone.
    ///
    /// This is the unit of scale-out for `sns-shard` mode: each replica
    /// answers bit-identically to every other (the Circuitformer is pure
    /// and the cache never changes values, only latency), while cache
    /// contents stay partitioned so a consistent-hash router preserves
    /// locality. The weight tensors and prepacked panels are cloned per
    /// replica — a deliberate trade: replicas share nothing mutable, and
    /// each one's working set stays local to the cores serving it.
    pub fn fork_replica(&self) -> SnsModel {
        let mut replica = self.clone();
        replica.cache = PathPredictionCache::new();
        replica
    }

    /// Drops all memoized path predictions. Call after mutating model
    /// weights, which invalidates cached outputs.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Resident bytes of the Circuitformer's inference plan: attention's
    /// prepacked f32 panels plus the FFN's quantized weights (the
    /// regression head and the Aggregation MLPs run on their trained
    /// layers and hold no packed copy). Surfaced through `/metrics` so
    /// operators can see what the pack-once representation costs.
    pub fn prepack_bytes(&self) -> usize {
        self.circuitformer.prepack_bytes()
    }

    /// Builds the Aggregation-MLP feature vector for target `dim`: the
    /// target's own normalized log aggregate first, then all three
    /// aggregates (timing/area/power reductions are strongly correlated,
    /// so each MLP benefits from seeing the others), the log path count,
    /// and the 79 graph-statistic features of Figure 2(c).
    pub fn features(
        &self,
        dim: usize,
        aggregates: [f64; 3],
        path_count: usize,
        stats: &sns_graphir::GraphStats,
    ) -> Vec<f32> {
        let mut f = Vec::with_capacity(5 + self.vocab.len());
        f.push(self.design_scaler.transform_dim(dim, aggregates[dim]));
        for (d, &agg) in aggregates.iter().enumerate() {
            f.push(self.design_scaler.transform_dim(d, agg));
        }
        f.push((path_count as f32).ln_1p());
        f.extend(stats.to_features());
        f
    }

    /// The feature dimensionality of the Aggregation MLPs.
    pub fn feature_dim(&self) -> usize {
        5 + self.vocab.len()
    }
}

/// Per sampled path: its power coefficient (§3.4.4: the source register's
/// activity, [`IO_PATH_ACTIVITY`] from I/O ports, 1.0 without a map) and
/// its lazily built vertex names.
pub(crate) fn path_items<'a>(
    graph: &'a GraphIr,
    paths: &'a [CircuitPath],
    activity: Option<&'a HashMap<String, f32>>,
) -> impl Iterator<Item = (f32, impl FnOnce() -> Vec<String> + 'a)> + 'a {
    paths.iter().map(move |p| {
        let coeff = match activity {
            None => 1.0,
            Some(map) => {
                let src = graph.vertex(p.vertices()[0]);
                if src.vertex.vtype == sns_graphir::VocabType::Dff {
                    map.get(&src.name).copied().unwrap_or(1.0)
                } else {
                    IO_PATH_ACTIVITY
                }
            }
        };
        (coeff, move || p.vertices().iter().map(|&v| graph.vertex(v).name.clone()).collect())
    })
}
