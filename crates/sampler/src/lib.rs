//! # sns-sampler
//!
//! Complete-circuit-path sampling (§3.2 / Algorithm 1 of the SNS paper).
//!
//! A *complete circuit path* begins and ends at a vertex that contains
//! flip-flops (a register or an I/O port) and captures the "one-cycle
//! behaviour" of a design. The sampler performs a depth-first traversal
//! from every terminal vertex; at each interior vertex with out-degree
//! `d`, it follows `⌈d / k⌉` randomly chosen successors (at least one).
//! `k = 1` samples exhaustively; larger `k` samples sparser. The paper
//! uses `k = 5` for training.
//!
//! # Example
//!
//! ```rust
//! use sns_netlist::parse_and_elaborate;
//! use sns_graphir::GraphIr;
//! use sns_sampler::{PathSampler, SampleConfig};
//!
//! # fn main() -> Result<(), sns_netlist::NetlistError> {
//! let nl = parse_and_elaborate(
//!     "module mac (input clk, input [7:0] a, b, output [15:0] y);
//!          reg [15:0] acc;
//!          always @(posedge clk) acc <= acc + a * b;
//!          assign y = acc;
//!      endmodule",
//!     "mac",
//! )?;
//! let g = GraphIr::from_netlist(&nl);
//! let paths = PathSampler::new(SampleConfig::exhaustive()).sample(&g);
//! // Figure 2(c): the MAC has exactly 4 complete circuit paths.
//! assert_eq!(paths.len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sns_rt::hash::Fnv128;
use sns_rt::rng::{SliceRandom, StdRng};

use sns_graphir::{GraphIr, VertexId, Vocab};

/// Hard ceiling on DFS recursion depth, independent of
/// [`SampleConfig::max_len`]. Paths are bounded by
/// `max_len.min(MAX_DFS_DEPTH)` so that no configuration can recurse
/// deeply enough to overflow a 2 MiB worker-thread stack on adversarial
/// graph topology.
pub const MAX_DFS_DEPTH: usize = 4096;

/// Configuration for the path sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleConfig {
    /// The sampling density parameter `k` of Algorithm 1: `⌈d / k⌉`
    /// successors are followed at each vertex. Must be ≥ 1.
    pub k: u32,
    /// Hard cap on the number of paths collected (exhaustive sampling can
    /// be combinatorial).
    pub max_paths: usize,
    /// Paths longer than this are abandoned (the paper observes real
    /// circuit paths max out around 500; the Circuitformer input limit
    /// is 512).
    pub max_len: usize,
    /// RNG seed; sampling is fully deterministic for a given seed.
    pub seed: u64,
}

impl SampleConfig {
    /// The paper's training configuration: `k = 5`.
    pub fn paper_default() -> Self {
        SampleConfig { k: 5, max_paths: 100_000, max_len: 512, seed: 0xC1BC0117 }
    }

    /// Exhaustive sampling (`k = 1`), as in Figure 2(c).
    pub fn exhaustive() -> Self {
        SampleConfig { k: 1, ..SampleConfig::paper_default() }
    }

    /// Sets the density parameter.
    pub fn with_k(mut self, k: u32) -> Self {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the path-count cap.
    pub fn with_max_paths(mut self, max_paths: usize) -> Self {
        self.max_paths = max_paths;
        self
    }
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig::paper_default()
    }
}

/// A sampled complete circuit path: a terminal-to-terminal vertex sequence.
///
/// The vertex ids keep the path located in the design, which is how SNS can
/// report *where* the critical path is (§2.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CircuitPath {
    vertices: Vec<VertexId>,
}

impl CircuitPath {
    /// Creates a path from a vertex sequence.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two vertices are given (a complete path has at
    /// least a start and an end terminal).
    pub fn new(vertices: Vec<VertexId>) -> Self {
        assert!(vertices.len() >= 2, "a complete circuit path has at least two vertices");
        CircuitPath { vertices }
    }

    /// The vertex ids along the path.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Path length in vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false (paths have ≥ 2 vertices).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The token names along the path, e.g. `["io8", "mul16", "add16",
    /// "dff16"]` — the representation of Table 5.
    pub fn token_names(&self, graph: &GraphIr) -> Vec<String> {
        self.vertices.iter().map(|&v| graph.vertex(v).vertex.token_name()).collect()
    }

    /// The dense vocabulary token ids along the path (for the
    /// Circuitformer). Vertices whose `(type,width)` fall outside the
    /// vocabulary are impossible by construction with the built-in vocab;
    /// with a caller-supplied narrower vocabulary, out-of-vocabulary
    /// vertices are skipped rather than panicking.
    pub fn token_ids(&self, graph: &GraphIr, vocab: &Vocab) -> Vec<usize> {
        self.vertices
            .iter()
            .filter_map(|&v| vocab.token_id(graph.vertex(v).vertex))
            .collect()
    }
}

/// A sampled path in id-independent form: hierarchical vertex names (for
/// provenance/critical-path reporting) plus the vocabulary token ids the
/// Circuitformer consumes. Unlike [`CircuitPath`], this survives
/// re-elaboration — names are stable across edits to other modules, raw
/// [`VertexId`]s are not.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortablePath {
    /// Hierarchical vertex names along the path.
    pub names: Vec<String>,
    /// Dense vocabulary token ids along the path.
    pub tokens: Vec<usize>,
}

/// A 128-bit signature of a terminal's forward sampling region: equal
/// signatures imply identical per-terminal samples (see
/// [`PathSampler::resample`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegionSig(pub u64, pub u64);

/// All paths sampled from one terminal, keyed by its stable name, plus
/// the region signature under which they were sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminalSample {
    /// The terminal vertex's hierarchical name.
    pub name: String,
    /// Signature of the forward region the sample was drawn from.
    pub signature: RegionSig,
    /// The sampled paths, in deterministic DFS order.
    pub paths: Vec<PortablePath>,
}

/// Result of [`PathSampler::resample`]: the merged per-terminal samples
/// plus how many terminals were reused vs re-run. Samples are
/// reference-counted so that reusing an untouched terminal is a pointer
/// bump, not a deep clone of its path list.
#[derive(Debug, Clone, PartialEq)]
pub struct ResampleOutcome {
    /// Per-terminal samples for the new graph, in terminal-id order.
    pub samples: Vec<Arc<TerminalSample>>,
    /// Terminals whose cached sample was reused unchanged.
    pub reused: usize,
    /// Terminals whose forward region changed and were re-sampled.
    pub resampled: usize,
}

/// Flattens per-terminal samples into one global path list (terminal
/// order, then DFS order within a terminal), truncated to `max_paths` —
/// the shape consumed by prediction. Accepts owned and reference-counted
/// samples alike.
pub fn flatten_samples<S: Borrow<TerminalSample>>(
    samples: &[S],
    max_paths: usize,
) -> Vec<&PortablePath> {
    samples.iter().flat_map(|s| s.borrow().paths.iter()).take(max_paths).collect()
}

/// Reusable scratch for region-signature walks. The visited map is
/// epoch-stamped: bumping the epoch invalidates every stamp at once, so
/// consecutive terminals share one allocation and never re-zero it.
#[derive(Debug, Default)]
struct SigScratch {
    visited: Vec<u32>,
    epoch: u32,
    work: Vec<VertexId>,
}

impl SigScratch {
    /// Starts a new walk over a graph with `n` vertices; returns the
    /// epoch that marks a vertex as visited in this walk.
    fn begin(&mut self, n: usize) -> u32 {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps could alias, so clear once.
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
        self.work.clear();
        self.epoch
    }
}

/// A vertex's successors ordered by hierarchical name instead of raw id,
/// so traversal order survives id shifts from unrelated edits.
fn ordered_successors(graph: &GraphIr, v: VertexId) -> Vec<VertexId> {
    let mut s: Vec<VertexId> = graph.successors(v).to_vec();
    s.sort_by(|a, b| {
        graph.vertex(*a).name.cmp(&graph.vertex(*b).name).then(a.0.cmp(&b.0))
    });
    s
}

/// The state of one Algorithm-1 walk: the path so far, the
/// combinational-loop guard, the RNG and the paths emitted. `by_name`
/// visits successors in vertex-name order (per-terminal sampling)
/// instead of id order.
struct Walk<'g, T> {
    graph: &'g GraphIr,
    by_name: bool,
    stack: Vec<VertexId>,
    on_path: Vec<bool>,
    rng: StdRng,
    out: Vec<T>,
}

impl<'g, T> Walk<'g, T> {
    fn new(graph: &'g GraphIr, by_name: bool, rng: StdRng) -> Self {
        let on_path = vec![false; graph.vertex_count()];
        Walk { graph, by_name, stack: Vec::new(), on_path, rng, out: Vec::new() }
    }
}

/// The DFS-based random path sampler (Algorithm 1).
#[derive(Debug)]
pub struct PathSampler {
    config: SampleConfig,
}

impl PathSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: SampleConfig) -> Self {
        PathSampler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SampleConfig {
        &self.config
    }

    /// Samples complete circuit paths from `graph`.
    ///
    /// Traversal starts at every terminal vertex in id order; the result is
    /// deterministic for a fixed seed. Returns fewer than `max_paths` paths
    /// if the graph is exhausted first.
    pub fn sample(&self, graph: &GraphIr) -> Vec<CircuitPath> {
        let mut walk = Walk::new(graph, false, StdRng::seed_from_u64(self.config.seed));
        let emit = |path: &[VertexId]| CircuitPath { vertices: path.to_vec() };
        for start in graph.terminals() {
            if walk.out.len() >= self.config.max_paths {
                break;
            }
            // The start terminal is deliberately NOT marked on-path: a path
            // may legally return to its own register (e.g. `acc <= acc + x`
            // yields dff -> add -> dff on the same flip-flop).
            walk.stack.push(start);
            self.expand(&mut walk, start, &emit);
            walk.stack.pop();
        }
        walk.out
    }

    /// Follows the `pick`ed successors of `v`, the last vertex on the
    /// walk's stack.
    fn expand<T>(&self, walk: &mut Walk<'_, T>, v: VertexId, emit: &impl Fn(&[VertexId]) -> T) {
        let succs = if walk.by_name {
            ordered_successors(walk.graph, v)
        } else {
            walk.graph.successors(v).to_vec()
        };
        for s in self.pick(succs, &mut walk.rng) {
            self.dfs(walk, s, emit);
            if walk.out.len() >= self.config.max_paths {
                break;
            }
        }
    }

    /// One DFS step: a terminal ends the path and `emit` records it; an
    /// interior vertex is expanded. Successor lists are sorted and
    /// deduplicated and `pick` returns distinct vertices, so the traversal
    /// is a tree and never emits the same vertex sequence twice.
    fn dfs<T>(&self, walk: &mut Walk<'_, T>, v: VertexId, emit: &impl Fn(&[VertexId]) -> T) {
        // `max_len` also bounds the recursion depth here; clamp it so a
        // caller-supplied huge limit cannot turn untrusted graph topology
        // into a stack overflow (the sampler runs inside the serving path).
        // The paper's default (512) is far below the clamp, so results are
        // unchanged for every supported configuration.
        if walk.out.len() >= self.config.max_paths
            || walk.stack.len() >= self.config.max_len.min(MAX_DFS_DEPTH)
        {
            return;
        }
        if walk.on_path[v.0 as usize] {
            return; // combinational loop guard
        }
        walk.stack.push(v);
        if walk.graph.vertex(v).is_terminal() {
            walk.out.push(emit(&walk.stack));
        } else {
            walk.on_path[v.0 as usize] = true;
            self.expand(walk, v, emit);
            walk.on_path[v.0 as usize] = false;
        }
        walk.stack.pop();
    }

    // ----------------------------------------------------------------
    // Per-terminal incremental sampling
    // ----------------------------------------------------------------

    /// Samples one terminal into id-independent [`PortablePath`]s, tagged
    /// with the region `signature` the caller already computed for it.
    ///
    /// Unlike [`PathSampler::sample`], the traversal here is a pure
    /// function of the terminal's *named* forward region: successors are
    /// visited in vertex-name order (names are hierarchical and survive
    /// re-elaboration; raw [`VertexId`]s shift when other modules change
    /// size) and the RNG is seeded from `config.seed ⊕ hash(terminal
    /// name)`. Two graphs in which the terminal has an identical forward
    /// region — equal [`RegionSig`] — therefore yield identical samples,
    /// which is what lets an ECO reuse cached paths for every terminal the
    /// edit did not touch.
    fn sample_terminal(
        &self,
        graph: &GraphIr,
        vocab: &Vocab,
        start: VertexId,
        signature: RegionSig,
    ) -> TerminalSample {
        let name = graph.vertex(start).name.clone();
        let mut name_hash = Fnv128::new();
        name_hash.write(name.as_bytes());
        let rng = StdRng::seed_from_u64(self.config.seed ^ name_hash.finish());
        let mut walk = Walk::new(graph, true, rng);
        let emit = |path: &[VertexId]| PortablePath {
            names: path.iter().map(|&x| graph.vertex(x).name.clone()).collect(),
            tokens: path.iter().filter_map(|&x| vocab.token_id(graph.vertex(x).vertex)).collect(),
        };
        walk.stack.push(start);
        self.expand(&mut walk, start, &emit);
        TerminalSample { name, signature, paths: walk.out }
    }

    /// A 128-bit structural signature of the terminal's forward region —
    /// everything [`PathSampler::sample_terminal`] can observe: the
    /// terminal's own name, and for every vertex reachable through
    /// non-terminal interiors its name, vocabulary token and (for expanded
    /// vertices) the multiset of its successor names. Equal signatures
    /// imply bit-identical [`TerminalSample`]s under the same
    /// configuration and vocabulary.
    ///
    /// The signature is assembled commutatively — each region vertex
    /// contributes a chained hash of its name, token and successor-name
    /// multiset, and the contributions are summed — so the walk needs no
    /// sort and no ordering guarantees, and the epoch-stamped visited map
    /// in `scratch` never re-zeroes between terminals. This runs once per
    /// terminal on every (re)sample, which makes it the fixed cost of a
    /// warm ECO pass.
    fn signature(
        &self,
        graph: &GraphIr,
        start: VertexId,
        scratch: &mut SigScratch,
    ) -> RegionSig {
        let epoch = scratch.begin(graph.vertex_count());
        scratch.visited[start.0 as usize] = epoch;
        scratch.work.push(start);
        // Strings hash as their bytes plus a 0xFF terminator (`str::hash`);
        // the `expanded` flag below gets the same terminator.
        let mut head = Fnv128::new();
        graph.vertex(start).name.hash(&mut head);
        let [h0, h1] = head.finish128();
        let (mut a0, mut a1) = (0u64, 0u64);
        while let Some(v) = scratch.work.pop() {
            let info = graph.vertex(v);
            let expanded = v == start || !info.is_terminal();
            let mut c = Fnv128::new();
            info.name.hash(&mut c);
            info.vertex.token_name().hash(&mut c);
            c.write(&[expanded as u8, 0xFF]);
            if expanded {
                // Successor-name multiset: per-name hashes summed, so the
                // storage order of the adjacency list is irrelevant.
                let (mut s0, mut s1) = (0u64, 0u64);
                for &s in graph.successors(v) {
                    let mut n = Fnv128::new();
                    graph.vertex(s).name.hash(&mut n);
                    let [n0, n1] = n.finish128();
                    s0 = s0.wrapping_add(n0);
                    s1 = s1.wrapping_add(n1);
                    if scratch.visited[s.0 as usize] != epoch {
                        scratch.visited[s.0 as usize] = epoch;
                        scratch.work.push(s);
                    }
                }
                c.write_words([s0, s1]);
            }
            let [c0, c1] = c.finish128();
            a0 = a0.wrapping_add(c0);
            a1 = a1.wrapping_add(c1);
        }
        RegionSig(h0.wrapping_add(a0), h1.wrapping_add(a1))
    }

    /// Samples every terminal of the graph into per-terminal portable
    /// samples, in terminal-id order (ports first, then registers in cell
    /// order), reusing the sample in `prev` of every terminal whose
    /// forward-region signature is unchanged and running the DFS only for
    /// the rest. With an empty `prev` this is the cold path: every terminal
    /// is sampled. The result is bit-identical to a cold call on the same
    /// graph; [`flatten_samples`] turns it into the global path list
    /// consumed by prediction.
    ///
    /// At `k > 1` the path set differs from [`PathSampler::sample`]'s on
    /// the same graph: `sample` draws from one RNG stream in vertex-id
    /// order, while each terminal here seeds its own stream from its name.
    /// Under exhaustive sampling (`k = 1`) and below the path cap the two
    /// return the same paths, in a different order.
    pub fn resample(
        &self,
        graph: &GraphIr,
        vocab: &Vocab,
        prev: &HashMap<String, Arc<TerminalSample>>,
    ) -> ResampleOutcome {
        let mut scratch = SigScratch::default();
        let mut samples = Vec::new();
        let (mut reused, mut resampled) = (0, 0);
        for t in graph.terminals() {
            let sig = self.signature(graph, t, &mut scratch);
            match prev.get(&graph.vertex(t).name) {
                Some(old) if old.signature == sig => {
                    reused += 1;
                    samples.push(Arc::clone(old));
                }
                _ => {
                    resampled += 1;
                    samples.push(Arc::new(self.sample_terminal(graph, vocab, t, sig)));
                }
            }
        }
        ResampleOutcome { samples, reused, resampled }
    }

    /// Chooses `⌈d / k⌉` of the `d` successors (at least one, when any
    /// exist).
    fn pick(&self, mut succs: Vec<VertexId>, rng: &mut StdRng) -> Vec<VertexId> {
        let d = succs.len();
        let n = d.div_ceil(self.config.k as usize).max(1);
        if n < d {
            succs.shuffle(rng);
            succs.truncate(n);
        }
        succs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_netlist::parse_and_elaborate;
    use std::collections::HashSet;

    fn mac_graph() -> GraphIr {
        let nl = parse_and_elaborate(
            "module mac (input clk, input [7:0] a, b, output [15:0] y);
                 reg [15:0] acc;
                 always @(posedge clk) acc <= acc + a * b;
                 assign y = acc;
             endmodule",
            "mac",
        )
        .unwrap();
        GraphIr::from_netlist(&nl)
    }

    #[test]
    fn figure_2c_exhaustive_paths_of_the_mac() {
        let g = mac_graph();
        let paths = PathSampler::new(SampleConfig::exhaustive()).sample(&g);
        let mut named: Vec<Vec<String>> = paths.iter().map(|p| p.token_names(&g)).collect();
        named.sort();
        // The four complete circuit paths from Figure 2(c):
        assert_eq!(
            named,
            vec![
                vec!["dff16", "add16", "dff16"],
                vec!["dff16", "io16"],
                vec!["io8", "mul16", "add16", "dff16"],
                vec!["io8", "mul16", "add16", "dff16"],
            ]
            .into_iter()
            .map(|v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<String>>())
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn paths_start_and_end_at_terminals() {
        let g = mac_graph();
        for p in PathSampler::new(SampleConfig::exhaustive()).sample(&g) {
            let first = g.vertex(p.vertices()[0]);
            let last = g.vertex(*p.vertices().last().unwrap());
            assert!(first.is_terminal() && last.is_terminal());
            // Interior vertices are all non-terminal.
            for &v in &p.vertices()[1..p.len() - 1] {
                assert!(!g.vertex(v).is_terminal());
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let g = mac_graph();
        let c = SampleConfig::paper_default().with_seed(7);
        let a = PathSampler::new(c.clone()).sample(&g);
        let b = PathSampler::new(c).sample(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn larger_k_samples_fewer_or_equal_paths() {
        // A wider fan-out design so k matters.
        let src = "module fan (input clk, input [7:0] a, output [7:0] y0, y1, y2, y3);
                       wire [7:0] t = a + 8'd1;
                       assign y0 = t + 8'd2;
                       assign y1 = t + 8'd3;
                       assign y2 = t * 8'd5;
                       assign y3 = t ^ 8'hAA;
                   endmodule";
        let nl = parse_and_elaborate(src, "fan").unwrap();
        let g = GraphIr::from_netlist(&nl);
        let all = PathSampler::new(SampleConfig::exhaustive()).sample(&g).len();
        let sparse = PathSampler::new(SampleConfig::paper_default().with_k(4)).sample(&g).len();
        assert!(all >= sparse, "exhaustive {all} < sparse {sparse}");
        assert!(sparse >= 1);
    }

    #[test]
    fn max_paths_cap_is_respected() {
        let g = mac_graph();
        let paths =
            PathSampler::new(SampleConfig::exhaustive().with_max_paths(2)).sample(&g);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn token_ids_are_in_vocabulary_range() {
        let g = mac_graph();
        let vocab = Vocab::new();
        for p in PathSampler::new(SampleConfig::exhaustive()).sample(&g) {
            for id in p.token_ids(&g, &vocab) {
                assert!(id < vocab.len());
            }
        }
    }

    #[test]
    fn sampled_paths_are_pairwise_distinct_on_the_catalog() {
        // Successor lists are deduplicated and `pick` returns distinct
        // vertices, so each DFS is a tree: no path can be emitted twice,
        // flat or per terminal, at any density. (The cap bounds the
        // per-terminal sampler, which applies it to every terminal.)
        for k in [1, 2, 5] {
            let config = SampleConfig::exhaustive().with_k(k).with_max_paths(2_000);
            let sampler = PathSampler::new(config);
            for d in sns_designs::catalog() {
                let g = graph_of(&d.verilog, &d.top);
                let flat = sampler.sample(&g);
                let distinct: HashSet<&[VertexId]> = flat.iter().map(|p| p.vertices()).collect();
                assert_eq!(distinct.len(), flat.len(), "{} k={k}: flat paths repeat", d.name);
                for t in cold(&sampler, &g).samples {
                    let distinct: HashSet<&[String]> =
                        t.paths.iter().map(|p| &p.names[..]).collect();
                    let name = &t.name;
                    assert_eq!(distinct.len(), t.paths.len(), "{} k={k}: {name} repeats", d.name);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_vertex_path_is_rejected() {
        let _ = CircuitPath::new(vec![VertexId(0)]);
    }

    fn graph_of(src: &str, top: &str) -> GraphIr {
        GraphIr::from_netlist(&parse_and_elaborate(src, top).unwrap())
    }

    /// The cold per-terminal sample: `resample` against an empty map.
    fn cold(sampler: &PathSampler, g: &GraphIr) -> ResampleOutcome {
        let outcome = sampler.resample(g, &Vocab::new(), &HashMap::new());
        assert_eq!((outcome.reused, outcome.resampled), (0, outcome.samples.len()));
        outcome
    }

    /// Per-terminal samples keyed by terminal name, as a session keeps them.
    fn by_name(samples: Vec<Arc<TerminalSample>>) -> HashMap<String, Arc<TerminalSample>> {
        samples.into_iter().map(|s| (s.name.clone(), s)).collect()
    }

    const SHARED: &str = "module acc8 (input clk, input [7:0] a, output [7:0] y);
                              reg [7:0] r;
                              always @(posedge clk) r <= (r + a) ^ (r & a);
                              assign y = r;
                          endmodule";

    #[test]
    fn terminal_samples_survive_vertex_id_shifts() {
        // Design B prepends an unrelated instance, shifting every vertex id
        // of the shared accumulator — its terminal samples must not change.
        let a = graph_of(
            &format!("{SHARED} module ta (input clk, input [7:0] p, output [7:0] q);
                          acc8 u (.clk(clk), .a(p), .y(q));
                      endmodule"),
            "ta",
        );
        let b = graph_of(
            &format!("{SHARED}
                      module noise (input [7:0] x, output [7:0] z);
                          assign z = (x * 8'd3) + 8'd7;
                      endmodule
                      module tb (input clk, input [7:0] p, output [7:0] q, output [7:0] w);
                          noise n (.x(p), .z(w));
                          acc8 u (.clk(clk), .a(p), .y(q));
                      endmodule"),
            "tb",
        );
        let sampler = PathSampler::new(SampleConfig::paper_default().with_k(2));
        let find = |g: &GraphIr, name: &str| {
            g.vertices_enumerated().find(|(_, v)| v.name == name).unwrap().0
        };
        assert_ne!(find(&a, "u.r"), find(&b, "u.r"), "test needs a real id shift to be meaningful");
        let sa = &by_name(cold(&sampler, &a).samples)["u.r"];
        let sb = &by_name(cold(&sampler, &b).samples)["u.r"];
        assert_eq!(sa.signature, sb.signature);
        assert_eq!(sa, sb);
        assert!(!sa.paths.is_empty());
    }

    #[test]
    fn resample_reuses_untouched_terminals_and_matches_scratch() {
        let mk = |leaf_body: &str| {
            graph_of(
                &format!(
                    "module leaf (input [7:0] a, output [7:0] y); assign y = {leaf_body}; endmodule
                     module keep (input clk, input [7:0] a, output [7:0] y);
                         reg [7:0] r;
                         always @(posedge clk) r <= r + a;
                         assign y = r;
                     endmodule
                     module top (input clk, input [7:0] p, output [7:0] y0, output [7:0] y1);
                         leaf l (.a(p), .y(y0));
                         keep k (.clk(clk), .a(p), .y(y1));
                     endmodule"
                ),
                "top",
            )
        };
        let v1 = mk("a + 8'd1");
        let v2 = mk("(a * 8'd5) ^ 8'h3C");
        let sampler = PathSampler::new(SampleConfig::paper_default().with_k(2));
        let prev = by_name(cold(&sampler, &v1).samples);
        let outcome = sampler.resample(&v2, &Vocab::new(), &prev);
        // The register's region is untouched; the edit rewires y0's region.
        assert!(outcome.reused >= 1, "expected register terminal reuse");
        assert!(outcome.resampled >= 1, "expected edited-region resampling");
        assert_eq!(outcome.samples, cold(&sampler, &v2).samples);
    }

    #[test]
    fn signature_tracks_region_edits_only() {
        let sampler = PathSampler::new(SampleConfig::paper_default());
        let g1 = graph_of(
            "module m (input clk, input [7:0] a, output [7:0] y);
                 reg [7:0] r;
                 always @(posedge clk) r <= r + a;
                 assign y = r;
             endmodule",
            "m",
        );
        let g2 = graph_of(
            "module m (input clk, input [7:0] a, output [7:0] y);
                 reg [7:0] r;
                 always @(posedge clk) r <= r * a;
                 assign y = r;
             endmodule",
            "m",
        );
        let (s1, s2) = (by_name(cold(&sampler, &g1).samples), by_name(cold(&sampler, &g2).samples));
        // The register's region changed (add → mul) → new signature.
        assert_ne!(s1["r"].signature, s2["r"].signature);
        // The clock input's region is the register terminal itself in both.
        assert_eq!(s1["clk"].signature, s2["clk"].signature);
        assert_eq!(s1["clk"], s2["clk"]);
        // Re-sampling g2 against g1's samples reuses exactly the terminals
        // whose signature held, by pointer.
        let outcome = sampler.resample(&g2, &Vocab::new(), &s1);
        for s in &outcome.samples {
            let same = s1[&s.name].signature == s2[&s.name].signature;
            assert_eq!(Arc::ptr_eq(s, &s1[&s.name]), same, "terminal {}", s.name);
            assert_eq!(**s, *s2[&s.name]);
        }
        assert_eq!(outcome.reused + outcome.resampled, outcome.samples.len());
        assert!(outcome.reused >= 1 && outcome.resampled >= 1);
    }

    #[test]
    fn exhaustive_flat_and_per_terminal_sampling_agree_on_the_catalog() {
        // At k = 1 `pick` keeps every successor and never draws from the
        // RNG, so the two samplers differ only in visit order: below the
        // path cap they return the same multiset of paths.
        const CAP: usize = 20_000;
        let sampler = PathSampler::new(SampleConfig::exhaustive().with_max_paths(CAP));
        let (mut compared, mut hierarchical) = (0, 0);
        for d in sns_designs::catalog() {
            let g = graph_of(&d.verilog, &d.top);
            let flat = sampler.sample(&g);
            if flat.len() >= CAP {
                continue; // truncated: the two cut at different paths
            }
            let name = |v: &VertexId| g.vertex(*v).name.clone();
            let mut a: Vec<Vec<String>> =
                flat.iter().map(|p| p.vertices().iter().map(name).collect()).collect();
            let samples = cold(&sampler, &g).samples;
            let mut b: Vec<Vec<String>> =
                flatten_samples(&samples, CAP).into_iter().map(|p| p.names.clone()).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{}: exhaustive path multisets differ", d.name);
            compared += 1;
            hierarchical += usize::from(d.verilog.matches("endmodule").count() > 1);
        }
        // 39 of the 41 catalog designs stay below the cap, 4 of them
        // hierarchical (module instances spliced by elaboration).
        assert!(compared >= 35, "only {compared} catalog designs compared");
        assert!(hierarchical >= 4, "only {hierarchical} hierarchical designs compared");
    }

    #[test]
    fn flatten_respects_cap_and_order() {
        let g = mac_graph();
        let sampler = PathSampler::new(SampleConfig::exhaustive());
        let samples = cold(&sampler, &g).samples;
        let total: usize = samples.iter().map(|s| s.paths.len()).sum();
        assert_eq!(flatten_samples(&samples, usize::MAX).len(), total);
        assert_eq!(flatten_samples(&samples, 2).len(), 2.min(total));
        // Flattened order is terminal order then DFS order.
        let flat = flatten_samples(&samples, usize::MAX);
        let manual: Vec<&PortablePath> =
            samples.iter().flat_map(|s| s.paths.iter()).collect();
        assert_eq!(flat, manual);
    }

    #[test]
    fn combinational_feedback_does_not_hang() {
        // Artificial graph with a comb loop is hard to produce from valid
        // Verilog; instead check a dff self-loop (acc <= acc + 1) works.
        let nl = parse_and_elaborate(
            "module ctr (input clk, output [7:0] y);
                 reg [7:0] c;
                 always @(posedge clk) c <= c + 8'd1;
                 assign y = c;
             endmodule",
            "ctr",
        )
        .unwrap();
        let g = GraphIr::from_netlist(&nl);
        let paths = PathSampler::new(SampleConfig::exhaustive()).sample(&g);
        assert!(!paths.is_empty());
    }
}
