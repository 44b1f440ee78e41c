//! The trained SNS model and its prediction flow (§3, Figure 1).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sns_circuitformer::{Circuitformer, LabelScaler};
use sns_graphir::{GraphIr, Vocab};
use sns_netlist::{Netlist, NetlistError};
use sns_sampler::{CircuitPath, PathSampler, SampleConfig};

use crate::aggmlp::AggMlp;
use crate::cache::PathPredictionCache;

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
    /// Memoized per-path predictions, shared between
    /// [`path_aggregates`](Self::path_aggregates) and
    /// [`critical_paths`](Self::critical_paths).
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
    /// Per-path results are bit-identical to [`predict_path`]
    /// (Self::predict_path) — batching only changes GEMM operand shapes,
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
    /// per-register activity coefficients for power gating (§3.4.4).
    pub fn predict_netlist(
        &self,
        netlist: &Netlist,
        activity: Option<&HashMap<String, f32>>,
    ) -> DesignPrediction {
        let start = Instant::now();
        let graph = GraphIr::from_netlist(netlist);
        let paths = PathSampler::new(self.sample.clone()).sample(&graph);
        self.aggregate(&graph, &paths, activity, start)
    }

    /// The path-level reductions of §3.4 (max timing, summed area,
    /// activity-scaled summed power), before MLP refinement. Returns the
    /// raw aggregates and the critical path's vertex names.
    pub fn path_aggregates(
        &self,
        graph: &GraphIr,
        paths: &[CircuitPath],
        activity: Option<&HashMap<String, f32>>,
    ) -> ([f64; 3], Vec<String>) {
        let token_seqs = self.predict_paths(graph, paths);
        self.reduce_paths(graph, paths, &token_seqs, activity)
    }

    /// The serial path-order reduction over already-predicted paths.
    ///
    /// Reads each path's prediction from the shared cache; a sequence
    /// evicted between fill and read (bounded caches under concurrent
    /// fills) is transparently recomputed — the Circuitformer is pure, so
    /// the value is bit-identical either way.
    fn reduce_paths(
        &self,
        graph: &GraphIr,
        paths: &[CircuitPath],
        token_seqs: &[Vec<usize>],
        activity: Option<&HashMap<String, f32>>,
    ) -> ([f64; 3], Vec<String>) {
        self.reduce_items(paths.iter().zip(token_seqs).map(|(p, tokens)| {
            // Power gating: scale each path's power by the activity
            // coefficient of its source register (§3.4.4).
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
            let names = move || {
                p.vertices().iter().map(|&v| graph.vertex(v).name.clone()).collect()
            };
            (tokens.as_slice(), coeff, names)
        }))
    }

    /// The serial reduction core shared by the [`CircuitPath`]-based flow
    /// and the per-terminal portable-path flow of the session layer: each
    /// item is `(token sequence, power coefficient, lazy vertex names)`.
    /// The float operations run in item order with exactly the historical
    /// formulas, so every caller that feeds the same items gets the same
    /// bits (in particular the strict `>` keeps first-wins critical-path
    /// selection).
    pub(crate) fn reduce_items<'a, F, I>(&self, items: I) -> ([f64; 3], Vec<String>)
    where
        F: FnOnce() -> Vec<String>,
        I: Iterator<Item = (&'a [usize], f32, F)>,
    {
        let mut timing_max = 0.0f64;
        let mut area_sum = 0.0f64;
        let mut power_sum = 0.0f64;
        let mut critical: Vec<String> = Vec::new();
        for (tokens, coeff, names) in items {
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

    /// The full aggregation step (reductions + MLP refinement), exposed
    /// for tests and ablations.
    pub fn aggregate(
        &self,
        graph: &GraphIr,
        paths: &[CircuitPath],
        activity: Option<&HashMap<String, f32>>,
        start: Instant,
    ) -> DesignPrediction {
        let (aggregates, critical) = self.path_aggregates(graph, paths, activity);
        self.refine(graph, paths.len(), aggregates, critical, start)
    }

    /// Like [`aggregate`](Self::aggregate), but assumes the caller has
    /// already primed the shared cache (via
    /// [`prime_path_cache`](Self::prime_path_cache)) for `token_seqs` —
    /// no new Circuitformer forward passes are scheduled here, so many
    /// callers can coalesce their inference into shared batches first and
    /// then reduce independently. Bit-identical to [`aggregate`]: both
    /// run the same serial reduction over the same pure per-path values
    /// (a sequence evicted since priming is recomputed inline).
    ///
    /// [`aggregate`]: Self::aggregate
    pub fn predict_primed(
        &self,
        graph: &GraphIr,
        paths: &[CircuitPath],
        token_seqs: &[Vec<usize>],
        activity: Option<&HashMap<String, f32>>,
        start: Instant,
    ) -> DesignPrediction {
        let (aggregates, critical) = self.reduce_paths(graph, paths, token_seqs, activity);
        self.refine(graph, paths.len(), aggregates, critical, start)
    }

    /// The MLP refinement step shared by [`aggregate`](Self::aggregate),
    /// [`predict_primed`](Self::predict_primed) and the session layer.
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

    /// Ranks the `n` slowest predicted paths — §2.2's "knowing both the
    /// length and location of the critical path": each entry is the
    /// predicted path delay (ps) plus the named vertices along the path.
    pub fn critical_paths(
        &self,
        graph: &GraphIr,
        paths: &[CircuitPath],
        n: usize,
    ) -> Vec<(f64, Vec<String>)> {
        let token_seqs = self.predict_paths(graph, paths);
        let mut ranked: Vec<(f64, Vec<String>)> = paths
            .iter()
            .zip(&token_seqs)
            .map(|(p, tokens)| {
                let raw =
                    self.cache.get(tokens).unwrap_or_else(|| self.predict_path(tokens));
                let names =
                    p.vertices().iter().map(|&v| graph.vertex(v).name.clone()).collect();
                (raw[0], names)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite predictions"));
        ranked.truncate(n);
        ranked
    }

    /// Tokenizes every path and makes sure the shared
    /// [`PathPredictionCache`] holds a prediction for each sequence.
    /// Uncached *unique* sequences are bucketed by exact length, packed
    /// into batches of at most [`sns_rt::pool::default_batch`] sequences
    /// (`SNS_BATCH`), and the batches fanned across
    /// [`sns_rt::pool::default_threads`] workers (`SNS_THREADS`), each
    /// batch running one packed Circuitformer forward. Returns the
    /// per-path token sequences for the caller's reduction.
    ///
    /// Because batching is per-path exact, the Circuitformer is pure, and
    /// the callers reduce serially in path order, predictions are
    /// bit-identical at any thread count and any batch size
    /// (`SNS_THREADS=1` vs `8`, `SNS_BATCH=1` vs `32` all agree exactly).
    fn predict_paths(&self, graph: &GraphIr, paths: &[CircuitPath]) -> Vec<Vec<usize>> {
        let token_seqs = self.tokenize_paths(graph, paths);
        let (threads, batch) = Self::default_knobs();
        self.prime_path_cache(&token_seqs, threads, batch);
        token_seqs
    }

    /// The process's resolved `(SNS_THREADS, SNS_BATCH)`: the priming
    /// knobs of every call that is not given explicit ones.
    pub(crate) fn default_knobs() -> (usize, usize) {
        (sns_rt::pool::default_threads(), sns_rt::pool::default_batch())
    }

    /// Tokenizes each sampled path into the vocabulary id sequence the
    /// Circuitformer consumes.
    pub fn tokenize_paths(&self, graph: &GraphIr, paths: &[CircuitPath]) -> Vec<Vec<usize>> {
        paths.iter().map(|p| p.token_ids(graph, &self.vocab)).collect()
    }

    /// Ensures the shared [`PathPredictionCache`] holds a prediction for
    /// every sequence in `token_seqs`, running the missing unique ones in
    /// length-bucketed packed forwards of at most `batch` sequences over
    /// `threads` workers. After this, [`predict_primed`]
    /// (Self::predict_primed) completes without further inference.
    pub fn prime_path_cache(&self, token_seqs: &[Vec<usize>], threads: usize, batch: usize) {
        self.cache.ensure_batched(token_seqs, threads, batch, |chunk| {
            self.predict_path_batch(chunk)
        });
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

    /// The number of unique path sequences memoized so far (shared across
    /// predictions; see [`PathPredictionCache`]).
    pub fn cached_paths(&self) -> usize {
        self.cache.len()
    }

    /// Drops all memoized path predictions. Call after mutating model
    /// weights, which invalidates cached outputs.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Resident bytes of all prepacked weight panels in this model: the
    /// Circuitformer plan plus the aggregation MLPs' packed projections.
    /// Surfaced through `/metrics` so operators can see what the
    /// pack-once representation costs.
    pub fn prepack_bytes(&self) -> usize {
        self.circuitformer.prepack_bytes()
            + self.mlps.iter().map(|m| m.prepack_bytes()).sum::<usize>()
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
