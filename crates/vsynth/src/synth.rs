//! The virtual synthesizer driver: netlist → gate graph → timing / area /
//! power report.
//!
//! Two flows share every numeric formula:
//!
//! * the **fast flow** ([`VirtualSynthesizer::synthesize`]) partitions
//!   elaboration across the `sns_rt` scoped pool, splats memoized
//!   expansion templates, and re-propagates only the changed cone inside
//!   the sizing loop (sparse STA);
//! * the **reference flow** ([`VirtualSynthesizer::synthesize_reference`])
//!   runs single-threaded, unmemoized, with full dense re-propagation.
//!
//! The fast flow is bit-identical to the reference at any
//! `SNS_SYNTH_THREADS` — parallel chunks expand against placeholder
//! inputs and are stitched back in serial order, memo templates replay the
//! exact push sequence a direct expansion would have produced, and the
//! sparse worklists recompute nodes with the same pull-style formulas the
//! dense passes use (f32 `max` is order-independent). The conformance
//! oracle re-checks this equivalence continuously.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_netlist::{CellId, CellKind, NetId, Netlist, PortDir};

use crate::expand::{Expander, ExpansionMemo, MemoKey, Template};
use crate::gates::{GateGraph, GateKind, NodeId, NO_NODE};
use crate::library::CellLibrary;

/// Below this estimated gate count a design expands serially: the stitch
/// bookkeeping costs more than the parallelism buys.
const PAR_MIN_NODES: usize = 32_768;

/// Target estimated gate count per parallel elaboration chunk. Chunk
/// boundaries depend only on the netlist (never on the thread count), so
/// the stitched graph is identical at any `SNS_SYNTH_THREADS`.
const CHUNK_TARGET_NODES: usize = 16_384;

/// Options controlling a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthOptions {
    /// Iterations of the timing-driven gate-sizing loop. More iterations
    /// means better timing and longer runtime — like raising the effort
    /// level of a real tool.
    pub sizing_iterations: u32,
    /// Switching activity assumed at primary inputs.
    pub input_activity: f32,
    /// Initial switching activity assumed at register outputs (refined by
    /// the power pass, or overridden per register via
    /// [`SynthOptions::register_activity`]).
    pub default_register_activity: f32,
    /// Per-register activity coefficients, keyed by the register's
    /// hierarchical cell name — the paper's power-gating mode (§3.4.4).
    pub register_activity: Option<HashMap<String, f32>>,
    /// Worker threads for parallel elaboration. `None` resolves through
    /// `SNS_SYNTH_THREADS` (see [`sns_rt::pool::synth_threads`]). Results
    /// are bit-identical at any value — purely a throughput knob.
    pub threads: Option<usize>,
    /// The characterized cell library.
    pub library: CellLibrary,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            sizing_iterations: 8,
            input_activity: 0.2,
            default_register_activity: 0.1,
            register_activity: None,
            threads: None,
            library: CellLibrary::freepdk15(),
        }
    }
}

/// The result of a synthesis run — the virtual analogue of the paper's
/// Table 4 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthReport {
    /// Total cell area in µm².
    pub area_um2: f64,
    /// Minimum clock period (critical path + sequencing overhead) in ps.
    pub timing_ps: f64,
    /// Total power (dynamic + leakage) at the achieved frequency, in mW.
    pub power_mw: f64,
    /// Dynamic component of [`SynthReport::power_mw`].
    pub dynamic_mw: f64,
    /// Leakage component of [`SynthReport::power_mw`].
    pub leakage_mw: f64,
    /// Number of gates (including flip-flops).
    pub gate_count: u64,
    /// Estimated transistor count.
    pub transistor_count: u64,
    /// Cell inputs that could not be resolved during elaboration and were
    /// replaced by fresh dangling inputs (combinational cycles broken, or
    /// reads of undriven internal nets). Well-formed designs report 0; the
    /// conformance oracle asserts it.
    pub cycles_broken: u64,
    /// Wall-clock time the synthesis run took.
    pub runtime: Duration,
}

/// Per-stage wall-clock seconds of an analyze call, for benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeBreakdown {
    /// Initial full STA (forward arrivals + backward tails).
    pub sta_s: f64,
    /// The sizing loop, including its (sparse or dense) re-propagation.
    pub sizing_s: f64,
    /// Area/activity/power scans.
    pub power_s: f64,
}

/// The elaborated gate level of a design, exposed for tests and benchmarks.
#[derive(Debug)]
pub struct GateLevel {
    /// The flat gate graph.
    pub graph: GateGraph,
    /// For each register cell: its hierarchical name and Q-bit nodes.
    pub registers: Vec<(String, Vec<NodeId>)>,
    /// Primary-output bit nodes.
    pub outputs: Vec<NodeId>,
    /// Per-coarse-cell gate ranges: `(hierarchical cell name, start, end)`
    /// node ids — each functional cell expands contiguously, enabling
    /// hierarchical area breakdowns.
    pub regions: Vec<(String, NodeId, NodeId)>,
    /// Per input port: name and bit nodes, LSB first.
    pub input_ports: Vec<(String, Vec<NodeId>)>,
    /// Per output port: name and bit nodes, LSB first (undriven output
    /// bits map to [`GateLevel::const0`]).
    pub output_ports: Vec<(String, Vec<NodeId>)>,
    /// The shared constant-0 node.
    pub const0: NodeId,
    /// The shared constant-1 node.
    pub const1: NodeId,
    /// Unresolvable cell inputs replaced by fresh dangling inputs (see
    /// [`SynthReport::cycles_broken`]).
    pub cycles_broken: u64,
}

/// The virtual synthesizer.
///
/// See the crate docs for what it models and why. Construction is cheap;
/// each [`VirtualSynthesizer::synthesize`] call is independent.
#[derive(Debug, Clone, Default)]
pub struct VirtualSynthesizer {
    options: SynthOptions,
}

impl VirtualSynthesizer {
    /// Creates a synthesizer with the given options.
    pub fn new(options: SynthOptions) -> Self {
        VirtualSynthesizer { options }
    }

    /// The active options.
    pub fn options(&self) -> &SynthOptions {
        &self.options
    }

    /// Runs the full fast flow: (parallel, memoized) gate-level expansion,
    /// sparse-STA sizing-driven timing closure, and power analysis.
    pub fn synthesize(&self, nl: &Netlist) -> SynthReport {
        let start = Instant::now();
        let gl = self.elaborate_gates(nl);
        let mut report = self.analyze(&gl);
        report.runtime = start.elapsed();
        report
    }

    /// Runs the retained single-threaded reference flow: serial unmemoized
    /// expansion and dense re-propagation. The fast flow is gated
    /// bit-identical against this.
    pub fn synthesize_reference(&self, nl: &Netlist) -> SynthReport {
        let start = Instant::now();
        let gl = self.elaborate_gates_reference(nl);
        let mut report = self.analyze_reference(&gl);
        report.runtime = start.elapsed();
        report
    }

    /// Expands a netlist into its flat gate graph, partitioning across
    /// worker threads and splatting memoized templates when profitable.
    /// The memo lives for this call only: its parallel chunks share it,
    /// and no template carries over to the next design.
    pub fn elaborate_gates(&self, nl: &Netlist) -> GateLevel {
        let plan = plan_elaboration(nl);
        let memo = ExpansionMemo::default();
        let threads = self.options.threads.unwrap_or_else(sns_rt::pool::synth_threads);
        elaborate_impl(nl, &plan, Some(&memo), threads)
    }

    /// Expands a netlist serially with no memoization — the reference
    /// elaboration the fast path is compared against.
    pub fn elaborate_gates_reference(&self, nl: &Netlist) -> GateLevel {
        let plan = plan_elaboration(nl);
        elaborate_impl(nl, &plan, None, 1)
    }

    /// Timing closure + power analysis over an elaborated gate level,
    /// using sparse (changed-cone) re-propagation inside the sizing loop.
    pub fn analyze(&self, gl: &GateLevel) -> SynthReport {
        let mut bd = AnalyzeBreakdown::default();
        self.analyze_impl(gl, true, &mut bd)
    }

    /// Reference analyze: identical math, full dense re-propagation every
    /// sizing iteration.
    pub fn analyze_reference(&self, gl: &GateLevel) -> SynthReport {
        let mut bd = AnalyzeBreakdown::default();
        self.analyze_impl(gl, false, &mut bd)
    }

    /// Analyze with per-stage timings, for benchmarks. `sparse` selects
    /// the fast or reference re-propagation.
    pub fn analyze_with_breakdown(
        &self,
        gl: &GateLevel,
        sparse: bool,
    ) -> (SynthReport, AnalyzeBreakdown) {
        let mut bd = AnalyzeBreakdown::default();
        let report = self.analyze_impl(gl, sparse, &mut bd);
        (report, bd)
    }

    fn analyze_impl(&self, gl: &GateLevel, sparse: bool, bd: &mut AnalyzeBreakdown) -> SynthReport {
        let lib = &self.options.library;
        let graph = &gl.graph;
        let n = graph.len();
        // Scratch drive strengths: sizing must not mutate (or clone) the
        // caller's graph — repeated analyze calls each start from drive 1.
        let mut drive: Vec<f32> = graph.drive.clone();
        let fanouts = graph.fanout_counts();

        let t0 = Instant::now();
        let mut st = StaState::new(graph, gl);
        for id in 0..n {
            let k = graph.kind(id as NodeId);
            st.delays[id] = if k.is_source() { 0.0 } else { lib.delay(k, drive[id], fanouts[id]) };
        }
        st.full_forward(graph, lib.clk_to_q_ps);
        st.full_tail(graph);
        let mut crit = critical(graph, gl, lib, &st.arrivals);
        bd.sta_s += t0.elapsed().as_secs_f64();

        // Timing-driven sizing loop: upsize the low-slack gates, then
        // re-propagate arrivals and tails. The slack of node `id` is
        // `deadline − (arrival + tail)` where `tail` is the longest
        // delay-sum from the node to any endpoint; both flows read the
        // same arrays, so they touch the same gates.
        //
        // The fast flow picks one of two bit-identical strategies per
        // iteration, predicted from the previous iteration's touch count
        // (the count isn't known until after the scan, and both
        // strategies compute the identical fixed point, so a mispredict
        // costs time, never correctness):
        //
        // * **dense** — the scan, the upsizing, and the forward arrival
        //   re-propagation fuse into one ascending pass (each node's
        //   slack is read before its arrival is overwritten, and its
        //   fanins' arrivals are final by the time they're read), then
        //   one descending scatter pass rebuilds tails. The tail pass is
        //   skipped entirely on the final iteration — nothing after the
        //   loop reads tails.
        // * **sparse** — a plain scan, then worklists re-propagate just
        //   the changed cones (see `sparse_forward`/`sparse_tail`).
        //
        // The reference flow re-propagates densely with the unfused
        // three-pass structure every iteration.
        let t1 = Instant::now();
        let mut touched: Vec<NodeId> = Vec::new();
        let mut prev_touched = usize::MAX;
        let mut csr: Option<Csr> = None;
        for _ in 0..self.options.sizing_iterations {
            let deadline = (crit.period_ps - lib.setup_ps as f64) as f32;
            let margin = (crit.path_ps * 0.08) as f32;
            touched.clear();
            let go_sparse = sparse && prev_touched.saturating_mul(16) < n;
            if go_sparse || !sparse {
                for id in 0..n {
                    let slack = deadline - (st.arrivals[id] + st.tail[id]);
                    if slack <= margin && graph.kind(id as NodeId).is_gate() && drive[id] < 4.0 {
                        drive[id] = (drive[id] * 1.25).min(4.0);
                        let k = graph.kind(id as NodeId);
                        st.delays[id] =
                            if k.is_source() { 0.0 } else { lib.delay(k, drive[id], fanouts[id]) };
                        touched.push(id as NodeId);
                    }
                }
                if touched.is_empty() {
                    break;
                }
                if go_sparse {
                    let c = csr.get_or_insert_with(|| Csr::build(graph));
                    st.sparse_forward(c, graph, lib.clk_to_q_ps, &touched);
                } else {
                    st.full_forward(graph, lib.clk_to_q_ps);
                }
            } else {
                // Fused dense pass: scan + upsize + forward in one sweep.
                for id in 0..n {
                    let k = graph.kind(id as NodeId);
                    let slack = deadline - (st.arrivals[id] + st.tail[id]);
                    if slack <= margin && k.is_gate() && drive[id] < 4.0 {
                        drive[id] = (drive[id] * 1.25).min(4.0);
                        st.delays[id] =
                            if k.is_source() { 0.0 } else { lib.delay(k, drive[id], fanouts[id]) };
                        touched.push(id as NodeId);
                    }
                    st.arrivals[id] = st.arrival_of(graph, lib.clk_to_q_ps, id as NodeId);
                }
                if touched.is_empty() {
                    // Nothing was upsized, so the rewritten arrivals are
                    // bit-identical to the old ones (same delays, same
                    // order-independent max recurrence).
                    break;
                }
            }
            prev_touched = touched.len();
            let new_crit = critical(graph, gl, lib, &st.arrivals);
            let converged = new_crit.path_ps >= crit.path_ps * 0.999;
            crit = new_crit;
            if converged {
                break;
            }
            if go_sparse {
                let c = csr.get_or_insert_with(|| Csr::build(graph));
                st.sparse_tail(c, graph, &touched);
            } else {
                st.full_tail(graph);
            }
        }
        bd.sizing_s += t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        // Area, gate and transistor counts.
        let mut area = 0.0f64;
        let mut transistors = 0u64;
        for (id, &d) in drive.iter().enumerate().take(n) {
            let k = graph.kind(id as NodeId);
            area += lib.area(k, d) as f64;
            transistors += lib.params(k).transistors as u64;
        }

        // Activity propagation (two rounds so register activities settle).
        // `pinned` marks register bits whose activity the user fixed — a
        // flat bitvec, so the check is O(1) per node instead of a scan over
        // every register bank.
        let user_act = self.options.register_activity.as_ref();
        let mut reg_act: HashMap<NodeId, f32> = HashMap::new();
        let mut pinned = vec![false; n];
        for (name, qs) in &gl.registers {
            let ua = user_act.and_then(|m| m.get(name).copied());
            let a = ua.unwrap_or(self.options.default_register_activity);
            for &q in qs {
                reg_act.insert(q, a);
                if ua.is_some() {
                    pinned[q as usize] = true;
                }
            }
        }
        let mut act = vec![0.0f32; n];
        for round in 0..2 {
            for id in 0..n {
                let k = graph.kind(id as NodeId);
                act[id] = match k {
                    GateKind::Input => self.options.input_activity,
                    GateKind::Const => 0.0,
                    GateKind::Dff => {
                        if round == 0 || pinned[id] {
                            reg_act[&(id as NodeId)]
                        } else {
                            // refine from the D cone
                            let d = graph.fanins(id as NodeId)[0];
                            if d == NO_NODE {
                                reg_act[&(id as NodeId)]
                            } else {
                                (lib.activity_factor(GateKind::Dff) * act[d as usize]).min(1.0)
                            }
                        }
                    }
                    _ => {
                        let f = graph.fanins(id as NodeId);
                        let mut sum = 0.0;
                        let mut cnt = 0;
                        for &x in &f {
                            if x != NO_NODE {
                                sum += act[x as usize];
                                cnt += 1;
                            }
                        }
                        if cnt == 0 {
                            0.0
                        } else {
                            (lib.activity_factor(k) * sum / cnt as f32).min(1.0)
                        }
                    }
                };
            }
        }

        // Power at the achieved frequency.
        let freq_ghz = 1000.0 / crit.period_ps;
        let mut dyn_uw = 0.0f64;
        let mut leak_nw = 0.0f64;
        for (id, &a) in act.iter().enumerate().take(n) {
            let k = graph.kind(id as NodeId);
            dyn_uw += (a * lib.energy(k, drive[id])) as f64 * freq_ghz;
            leak_nw += lib.leakage(k, drive[id]) as f64;
        }
        let dynamic_mw = dyn_uw / 1000.0;
        let leakage_mw = leak_nw / 1e6;
        bd.power_s += t2.elapsed().as_secs_f64();

        SynthReport {
            area_um2: area,
            timing_ps: crit.period_ps,
            power_mw: dynamic_mw + leakage_mw,
            dynamic_mw,
            leakage_mw,
            gate_count: graph.gate_count(),
            transistor_count: transistors,
            cycles_broken: gl.cycles_broken,
            runtime: Duration::ZERO,
        }
    }
}

// ------------------------------------------------------------ STA engine --

#[derive(Debug, Clone, Copy)]
struct Critical {
    path_ps: f64,
    period_ps: f64,
}

/// Critical path over current arrivals: the worst register-D or
/// primary-output arrival plus setup, floored at the sequencing minimum.
fn critical(graph: &GateGraph, gl: &GateLevel, lib: &CellLibrary, arrivals: &[f32]) -> Critical {
    let mut path = 0.0f32;
    for (_, qs) in &gl.registers {
        for &q in qs {
            let d = graph.fanins(q)[0];
            if d != NO_NODE {
                path = path.max(arrivals[d as usize] + lib.setup_ps);
            }
        }
    }
    for &o in &gl.outputs {
        path = path.max(arrivals[o as usize] + lib.setup_ps);
    }
    let period = path.max(lib.clk_to_q_ps + lib.setup_ps + 1.0);
    Critical { path_ps: path as f64, period_ps: period as f64 }
}

/// Shared state of the dense and sparse STA passes.
///
/// * `arrivals[id]` — the usual forward arrival time.
/// * `tail[id]` — the longest delay-sum from `id` to any timing endpoint
///   (`0` at endpoints, `−∞` where no endpoint is reachable). Slack is
///   then `deadline − (arrival + tail)`: unlike a classic backward
///   required-time pass, `tail` does not depend on the current period, so
///   it stays valid across sizing iterations and can be maintained by a
///   worklist.
///
/// Both quantities are defined by order-independent pull-style recurrences
/// over f32 `max`, so recomputing just the changed cone (sparse) yields
/// bit-identical arrays to a full pass (dense). The consumer CSR excludes
/// edges *into* sources: STA never propagates through a flip-flop (its D
/// pin is an endpoint, handled by `endpoint`).
/// Consumer CSR (node → consumers), excluding edges whose consumer is a
/// source: STA never propagates *through* a flip-flop (its D pin is an
/// endpoint). Only the sparse worklists need it, so it's built lazily the
/// first time an iteration actually goes sparse.
struct Csr {
    co_off: Vec<u32>,
    co: Vec<u32>,
}

impl Csr {
    fn build(graph: &GateGraph) -> Csr {
        let n = graph.len();
        let mut counts = vec![0u32; n];
        for id in 0..n as NodeId {
            if graph.kind(id).is_source() {
                continue;
            }
            for &f in &graph.fanins(id) {
                if f != NO_NODE {
                    counts[f as usize] += 1;
                }
            }
        }
        let mut co_off = vec![0u32; n + 1];
        for i in 0..n {
            co_off[i + 1] = co_off[i] + counts[i];
        }
        let mut co = vec![0u32; co_off[n] as usize];
        let mut cursor: Vec<u32> = co_off[..n].to_vec();
        for id in 0..n as NodeId {
            if graph.kind(id).is_source() {
                continue;
            }
            for &f in &graph.fanins(id) {
                if f != NO_NODE {
                    co[cursor[f as usize] as usize] = id;
                    cursor[f as usize] += 1;
                }
            }
        }
        Csr { co_off, co }
    }
}

struct StaState {
    delays: Vec<f32>,
    arrivals: Vec<f32>,
    tail: Vec<f32>,
    endpoint: Vec<bool>,
    in_heap: Vec<bool>,
}

impl StaState {
    fn new(graph: &GateGraph, gl: &GateLevel) -> StaState {
        let n = graph.len();
        let mut endpoint = vec![false; n];
        for (_, qs) in &gl.registers {
            for &q in qs {
                let d = graph.fanins(q)[0];
                if d != NO_NODE {
                    endpoint[d as usize] = true;
                }
            }
        }
        for &o in &gl.outputs {
            endpoint[o as usize] = true;
        }
        StaState {
            delays: vec![0.0; n],
            arrivals: vec![0.0; n],
            tail: vec![0.0; n],
            endpoint,
            in_heap: vec![false; n],
        }
    }

    fn arrival_of(&self, graph: &GateGraph, clk_to_q: f32, id: NodeId) -> f32 {
        let k = graph.kind(id);
        if k == GateKind::Dff {
            clk_to_q
        } else if k.is_source() {
            0.0
        } else {
            let mut worst = 0.0f32;
            for &f in &graph.fanins(id) {
                if f != NO_NODE {
                    worst = worst.max(self.arrivals[f as usize]);
                }
            }
            worst + self.delays[id as usize]
        }
    }

    fn tail_of(&self, csr: &Csr, id: NodeId) -> f32 {
        let mut t = if self.endpoint[id as usize] { 0.0f32 } else { f32::NEG_INFINITY };
        let (lo, hi) = (csr.co_off[id as usize] as usize, csr.co_off[id as usize + 1] as usize);
        for i in lo..hi {
            let c = csr.co[i] as usize;
            t = t.max(self.delays[c] + self.tail[c]);
        }
        t
    }

    fn full_forward(&mut self, graph: &GateGraph, clk_to_q: f32) {
        for id in 0..graph.len() as NodeId {
            let a = self.arrival_of(graph, clk_to_q, id);
            self.arrivals[id as usize] = a;
        }
    }

    /// Dense tail rebuild as a descending *scatter* pass: when node `id`
    /// is visited, every consumer (higher id) has already scattered into
    /// it, so `tail[id]` is final and can be pushed to its fanins. This
    /// needs no CSR, and computes bit-identical values to the pull
    /// recurrence in [`StaState::tail_of`] (f32 max over the same terms;
    /// all finite tails are non-negative, so tie bits can't differ).
    fn full_tail(&mut self, graph: &GateGraph) {
        for id in 0..graph.len() {
            self.tail[id] = if self.endpoint[id] { 0.0 } else { f32::NEG_INFINITY };
        }
        for id in (0..graph.len() as NodeId).rev() {
            // Edges whose consumer is a source are excluded — STA never
            // propagates through a flip-flop.
            if graph.kind(id).is_source() {
                continue;
            }
            let contrib = self.delays[id as usize] + self.tail[id as usize];
            for &f in &graph.fanins(id) {
                if f != NO_NODE && contrib > self.tail[f as usize] {
                    self.tail[f as usize] = contrib;
                }
            }
        }
    }

    /// Re-propagates arrivals from the gates whose delay changed. Nodes
    /// are processed in increasing id order (fanins precede consumers in
    /// the graph, and all pushes go to higher ids), so each node is
    /// recomputed after every fanin it depends on has settled.
    fn sparse_forward(&mut self, csr: &Csr, graph: &GateGraph, clk_to_q: f32, touched: &[NodeId]) {
        let mut heap: BinaryHeap<Reverse<NodeId>> = BinaryHeap::with_capacity(touched.len());
        for &t in touched {
            if !self.in_heap[t as usize] {
                self.in_heap[t as usize] = true;
                heap.push(Reverse(t));
            }
        }
        while let Some(Reverse(id)) = heap.pop() {
            self.in_heap[id as usize] = false;
            let a = self.arrival_of(graph, clk_to_q, id);
            if a.to_bits() != self.arrivals[id as usize].to_bits() {
                self.arrivals[id as usize] = a;
                let (lo, hi) =
                    (csr.co_off[id as usize] as usize, csr.co_off[id as usize + 1] as usize);
                for i in lo..hi {
                    let c = csr.co[i];
                    if !self.in_heap[c as usize] {
                        self.in_heap[c as usize] = true;
                        heap.push(Reverse(c));
                    }
                }
            }
        }
    }

    /// Re-propagates tails toward fanins from the gates whose delay
    /// changed, in decreasing id order (mirror of `sparse_forward`).
    fn sparse_tail(&mut self, csr: &Csr, graph: &GateGraph, touched: &[NodeId]) {
        let mut heap: BinaryHeap<NodeId> = BinaryHeap::with_capacity(touched.len());
        for &t in touched {
            // A touched source (flip-flop) contributes no delay to any
            // tail — the CSR has no edges into sources.
            if graph.kind(t).is_source() {
                continue;
            }
            for &f in &graph.fanins(t) {
                if f != NO_NODE && !self.in_heap[f as usize] {
                    self.in_heap[f as usize] = true;
                    heap.push(f);
                }
            }
        }
        while let Some(id) = heap.pop() {
            self.in_heap[id as usize] = false;
            let t = self.tail_of(csr, id);
            if t.to_bits() != self.tail[id as usize].to_bits() {
                self.tail[id as usize] = t;
                if graph.kind(id).is_source() {
                    continue;
                }
                for &f in &graph.fanins(id) {
                    if f != NO_NODE && !self.in_heap[f as usize] {
                        self.in_heap[f as usize] = true;
                        heap.push(f);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------- elaboration --

/// Pre-computed elaboration schedule: the cell order, which input reads
/// must mint fresh dangling inputs (a pure function of the netlist, so
/// serial and parallel workers agree without sharing state), per-cell gate
/// estimates for chunking, and the broken-cycle count.
struct ElabPlan {
    order: Vec<CellId>,
    /// Per position in `order`, per input slot: `true` when the net is not
    /// yet defined at that point and a fresh input run must be minted.
    fresh: Vec<Vec<bool>>,
    /// Estimated expansion gate count per position in `order`.
    cell_est: Vec<usize>,
    est_nodes: usize,
    cycles_broken: u64,
}

fn plan_elaboration(nl: &Netlist) -> ElabPlan {
    let driver = nl.driver_map();
    let order = topo_order(nl, &driver);
    // Nets with bits available before the combinational loop starts:
    // input ports and register Q banks (expanded in the prepass).
    let mut defined: HashSet<NetId> = HashSet::new();
    for p in nl.ports() {
        if p.dir == PortDir::Input {
            defined.insert(p.net);
        }
    }
    for (_, cell) in nl.cells_enumerated() {
        if cell.kind == CellKind::Dff {
            defined.insert(cell.output);
        }
    }
    let mut fresh = Vec::with_capacity(order.len());
    let mut cell_est = Vec::with_capacity(order.len());
    let mut est_nodes = 0usize;
    let mut cycles_broken = 0u64;
    for &cid in &order {
        let cell = nl.cell(cid);
        if cell.kind == CellKind::Dff {
            fresh.push(Vec::new());
            cell_est.push(0);
            continue;
        }
        let flags: Vec<bool> = cell.inputs.iter().map(|n| !defined.contains(n)).collect();
        for (slot, &f) in flags.iter().enumerate() {
            // A fresh mint for a net that *has* a driver means the driver
            // is unreachable at this point: a combinational cycle the
            // expander breaks. Driverless nets keep the established
            // "reads as fresh input" semantics without counting.
            if f && driver.contains_key(&cell.inputs[slot]) {
                cycles_broken += 1;
            }
        }
        let in_ws: Vec<u32> = cell.inputs.iter().map(|&n| nl.net(n).width).collect();
        let est = estimate_cell_nodes(cell.kind, nl.net(cell.output).width, &in_ws);
        est_nodes += est;
        cell_est.push(est);
        fresh.push(flags);
        defined.insert(cell.output);
    }
    ElabPlan { order, fresh, cell_est, est_nodes, cycles_broken }
}

/// Rough expansion gate count per cell — only used to balance parallel
/// chunks and gate the parallel path, never for results.
fn estimate_cell_nodes(kind: CellKind, out_w: u32, in_ws: &[u32]) -> usize {
    let w = out_w.max(1) as usize;
    let lg = (usize::BITS - (w.max(2) - 1).leading_zeros()) as usize;
    match kind {
        CellKind::Const
        | CellKind::Buf
        | CellKind::Slice
        | CellKind::Concat
        | CellKind::Replicate
        | CellKind::Dff => 0,
        CellKind::Not
        | CellKind::And
        | CellKind::Or
        | CellKind::Xor
        | CellKind::Xnor
        | CellKind::Mux => w,
        CellKind::Add | CellKind::Sub => w * lg * 4,
        CellKind::Mul => {
            let a = in_ws.first().copied().unwrap_or(out_w) as usize;
            let b = in_ws.get(1).copied().unwrap_or(out_w) as usize;
            a.min(w) * b.min(w) * 5 + w * 8
        }
        CellKind::Div | CellKind::Mod => w * w * 14,
        CellKind::Shl | CellKind::Shr => w * lg * 3,
        CellKind::Eq => in_ws.iter().copied().max().unwrap_or(out_w) as usize * 3,
        CellKind::Lgt => in_ws.iter().copied().max().unwrap_or(out_w) as usize * 6,
        CellKind::ReduceAnd | CellKind::ReduceOr | CellKind::ReduceXor => {
            in_ws.first().copied().unwrap_or(1) as usize
        }
    }
}

/// Expands one coarse cell into gates. `ins` are the resolved input bit
/// vectors. Pure in the operand *widths*: the pushed subgraph shape never
/// depends on which nodes the bits are, which is what makes memoized
/// templates and partition-local expansion bit-exact.
fn expand_cell(
    e: &mut Expander,
    kind: CellKind,
    attr: u64,
    out_w: u32,
    ins: &[Vec<NodeId>],
) -> Vec<NodeId> {
    match kind {
        CellKind::Const => e.const_bits(attr, out_w),
        CellKind::Buf => e.resize(&ins[0], out_w),
        CellKind::Slice => {
            let lsb = attr as usize;
            let taken: Vec<NodeId> =
                ins[0].iter().copied().skip(lsb).take(out_w as usize).collect();
            e.resize(&taken, out_w)
        }
        CellKind::Concat => {
            let mut v = Vec::new();
            for i in ins {
                v.extend_from_slice(i);
            }
            e.resize(&v, out_w)
        }
        CellKind::Replicate => {
            let mut v = Vec::new();
            for _ in 0..attr.max(1) {
                v.extend_from_slice(&ins[0]);
            }
            e.resize(&v, out_w)
        }
        // Register banks are expanded in the prepass; the cell loop never
        // reaches them.
        CellKind::Dff => Vec::new(),
        CellKind::Not => {
            let a = e.resize(&ins[0], out_w);
            e.map1(GateKind::Inv, &a)
        }
        CellKind::And | CellKind::Or | CellKind::Xor | CellKind::Xnor => {
            let a = e.resize(&ins[0], out_w);
            let b = e.resize(&ins[1], out_w);
            let k = match kind {
                CellKind::And => GateKind::And2,
                CellKind::Or => GateKind::Or2,
                CellKind::Xor => GateKind::Xor2,
                _ => GateKind::Xnor2,
            };
            e.map2(k, &a, &b)
        }
        CellKind::Mux => {
            let sel = ins[0][0];
            let a = e.resize(&ins[1], out_w);
            let b = e.resize(&ins[2], out_w);
            e.mux(sel, &a, &b)
        }
        CellKind::Add | CellKind::Sub => {
            let a = e.resize(&ins[0], out_w);
            let b = e.resize(&ins[1], out_w);
            let (s, _) = if kind == CellKind::Add { e.add(&a, &b) } else { e.sub(&a, &b) };
            s
        }
        CellKind::Mul => e.mul(&ins[0], &ins[1], out_w),
        CellKind::Div | CellKind::Mod => {
            let w = out_w.max(1);
            let a = e.resize(&ins[0], w);
            let b = e.resize(&ins[1], w);
            let (q, r) = e.divmod(&a, &b);
            if kind == CellKind::Div {
                q
            } else {
                r
            }
        }
        CellKind::Shl | CellKind::Shr => {
            let a = e.resize(&ins[0], out_w);
            e.shift(&a, &ins[1], kind == CellKind::Shl)
        }
        CellKind::Eq => {
            let w = ins[0].len().max(ins[1].len()) as u32;
            let a = e.resize(&ins[0], w);
            let b = e.resize(&ins[1], w);
            let bit = e.equal(&a, &b);
            e.resize(&[bit], out_w)
        }
        CellKind::Lgt => {
            let w = ins[0].len().max(ins[1].len()) as u32;
            let a = e.resize(&ins[0], w);
            let b = e.resize(&ins[1], w);
            let bit = e.less_than(&a, &b);
            e.resize(&[bit], out_w)
        }
        CellKind::ReduceAnd | CellKind::ReduceOr | CellKind::ReduceXor => {
            let k = match kind {
                CellKind::ReduceAnd => GateKind::And2,
                CellKind::ReduceOr => GateKind::Or2,
                _ => GateKind::Xor2,
            };
            let bit = e.reduce(k, &ins[0]);
            e.resize(&[bit], out_w)
        }
    }
}

/// Kinds worth caching: the super-linear expanders that dominate gate
/// count and repeat constantly across designs. Linear per-bit kinds and
/// wiring are cheaper to expand directly than to key and splat.
/// Estimated expansion size below which memoization costs more than it
/// saves (key hash + shared-lock lookup + context splat vs a direct
/// expansion of a few dozen gates).
const MEMO_MIN_EST_NODES: usize = 384;

fn memoizable(kind: CellKind) -> bool {
    matches!(
        kind,
        CellKind::Add
            | CellKind::Sub
            | CellKind::Mul
            | CellKind::Div
            | CellKind::Mod
            | CellKind::Shl
            | CellKind::Shr
            | CellKind::Eq
            | CellKind::Lgt
            | CellKind::ReduceAnd
            | CellKind::ReduceOr
            | CellKind::ReduceXor
    )
}

/// Builds the canonical template for a shape: a scratch expansion against
/// fresh, distinct input bits (so no aliasing between context slots can
/// leak into the captured structure).
fn build_template(kind: CellKind, attr: u64, out_w: u32, in_widths: &[u32]) -> Template {
    let mut g = GateGraph::new();
    let (n_ctx, outputs) = {
        let mut e = Expander::new(&mut g);
        let ins: Vec<Vec<NodeId>> = in_widths.iter().map(|&w| e.inputs(w)).collect();
        let n_ctx = e.g.len() as u32;
        let outputs = expand_cell(&mut e, kind, attr, out_w, &ins);
        (n_ctx, outputs)
    };
    Template::capture(&g, n_ctx, &outputs)
}

/// Memoizing wrapper over [`expand_cell`]: splats a cached template when
/// the `(kind, attr, out_w, widths)` shape has been characterized before.
fn expand_cell_memo(
    e: &mut Expander,
    kind: CellKind,
    attr: u64,
    out_w: u32,
    ins: &[Vec<NodeId>],
    memo: Option<&ExpansionMemo>,
) -> Vec<NodeId> {
    let Some(memo) = memo else {
        return expand_cell(e, kind, attr, out_w, ins);
    };
    if !memoizable(kind) {
        return expand_cell(e, kind, attr, out_w, ins);
    }
    // Small shapes are cheaper to expand directly than to key, lock, and
    // splat — only cache expansions big enough to amortize the lookup.
    let in_ws: Vec<u32> = ins.iter().map(|v| v.len() as u32).collect();
    if estimate_cell_nodes(kind, out_w, &in_ws) < MEMO_MIN_EST_NODES {
        return expand_cell(e, kind, attr, out_w, ins);
    }
    let key = MemoKey { kind, attr, out_w, in_widths: in_ws };
    let template = match memo.lookup(&key) {
        Some(t) => t,
        None => {
            let t = Arc::new(build_template(kind, attr, out_w, &key.in_widths));
            memo.insert(key, Arc::clone(&t));
            t
        }
    };
    let mut ctx = Vec::with_capacity(2 + ins.iter().map(|v| v.len()).sum::<usize>());
    ctx.push(e.const0());
    ctx.push(e.const1());
    for v in ins {
        ctx.extend_from_slice(v);
    }
    template.splat(e.g, &ctx)
}

/// A run of placeholder `Input` nodes a parallel worker minted for bits it
/// could not resolve locally. `fresh` runs become real dangling inputs at
/// stitch time (exactly where the serial flow would mint them); non-fresh
/// runs are dropped and remapped to the already-stitched bits of `net`.
struct PhRun {
    start: NodeId,
    width: u32,
    net: NetId,
    fresh: bool,
}

/// One worker's expansion of a contiguous chunk of the cell order.
struct ChunkOut {
    graph: GateGraph,
    ph_runs: Vec<PhRun>,
    outs: Vec<(NetId, Vec<NodeId>)>,
    regions: Vec<(String, NodeId, NodeId)>,
}

/// Contiguous chunk boundaries over the cell order, balanced by estimated
/// gate count. A pure function of the netlist — never of the thread count.
fn chunk_ranges(plan: &ElabPlan) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for pos in 0..plan.order.len() {
        acc += plan.cell_est[pos];
        if acc >= CHUNK_TARGET_NODES {
            ranges.push((start, pos + 1));
            start = pos + 1;
            acc = 0;
        }
    }
    if start < plan.order.len() {
        ranges.push((start, plan.order.len()));
    }
    ranges
}

fn elaborate_impl(
    nl: &Netlist,
    plan: &ElabPlan,
    memo: Option<&ExpansionMemo>,
    threads: usize,
) -> GateLevel {
    let mut graph = GateGraph::with_capacity(nl.cell_count() * 8);
    let mut net_bits: HashMap<NetId, Vec<NodeId>> = HashMap::new();
    let mut registers: Vec<(String, Vec<NodeId>)> = Vec::new();
    let mut dff_patches: Vec<(Vec<NodeId>, NetId)> = Vec::new();
    let mut regions: Vec<(String, NodeId, NodeId)> = Vec::new();
    let mut input_ports: Vec<(String, Vec<NodeId>)> = Vec::new();
    let (const0, const1);

    {
        let mut e = Expander::new(&mut graph);
        const0 = e.const0();
        const1 = e.const1();

        // Primary inputs.
        for p in nl.ports() {
            if p.dir == PortDir::Input {
                let w = nl.net(p.net).width;
                let bits = e.inputs(w);
                input_ports.push((p.name.clone(), bits.clone()));
                net_bits.insert(p.net, bits);
            }
        }

        // Register banks first: a register's Q bits must exist before any
        // reader expands, and readers may precede the Dff cell in any
        // combinational topological order (registers are sequential
        // sources, so the order among them is free). Expanding a reader
        // before its register would silently substitute fresh dangling
        // inputs for the Q bits.
        for (_, cell) in nl.cells_enumerated() {
            if cell.kind != CellKind::Dff {
                continue;
            }
            let region_start = e.g.len() as NodeId;
            let q = e.dff_bank(nl.net(cell.output).width);
            registers.push((cell.name.clone(), q.clone()));
            dff_patches.push((q.clone(), cell.inputs[0]));
            net_bits.insert(cell.output, q);
            regions.push((cell.name.clone(), region_start, e.g.len() as NodeId));
        }
    }

    let parallel = threads > 1 && plan.est_nodes >= PAR_MIN_NODES;
    if parallel {
        elaborate_parallel_body(
            nl, plan, memo, threads, &mut graph, &mut net_bits, &mut regions, const0, const1,
        );
    } else {
        let mut e = Expander::attach(&mut graph);
        for (pos, &cid) in plan.order.iter().enumerate() {
            let cell = nl.cell(cid);
            if cell.kind == CellKind::Dff {
                continue; // bank already materialized above
            }
            let region_start = e.g.len() as NodeId;
            let out_w = nl.net(cell.output).width;
            let flags = &plan.fresh[pos];
            let ins: Vec<Vec<NodeId>> = cell
                .inputs
                .iter()
                .enumerate()
                .map(|(slot, &n)| {
                    if flags.get(slot).copied().unwrap_or(false) {
                        // Unresolvable input (combinational cycle or
                        // undriven net): a fresh input keeps the run
                        // robust; the plan counted it.
                        e.inputs(nl.net(n).width)
                    } else {
                        net_bits
                            .get(&n)
                            .cloned()
                            .unwrap_or_else(|| e.inputs(nl.net(n).width))
                    }
                })
                .collect();
            let bits = expand_cell_memo(&mut e, cell.kind, cell.attr, out_w, &ins, memo);
            net_bits.insert(cell.output, bits);
            let region_end = e.g.len() as NodeId;
            if region_end > region_start && !cell.kind.is_wiring() {
                regions.push((cell.name.clone(), region_start, region_end));
            }
        }
    }

    // Patch register D inputs now the full combinational cone exists.
    {
        let e = Expander::attach(&mut graph);
        for (q_bits, d_net) in dff_patches {
            let d_bits =
                net_bits.get(&d_net).cloned().unwrap_or_else(|| vec![const0; q_bits.len()]);
            let d_bits = e.resize(&d_bits, q_bits.len() as u32);
            for (q, d) in q_bits.iter().zip(d_bits) {
                e.g.set_fanin(*q, 0, d);
            }
        }
    }

    let mut outputs = Vec::new();
    let mut output_ports: Vec<(String, Vec<NodeId>)> = Vec::new();
    for p in nl.ports() {
        if p.dir == PortDir::Output {
            if let Some(bits) = net_bits.get(&p.net) {
                outputs.extend_from_slice(bits);
                output_ports.push((p.name.clone(), bits.clone()));
            } else {
                // Undriven output: reads as constant zero, matching the
                // netlist simulator's never-written net value.
                let w = nl.net(p.net).width as usize;
                output_ports.push((p.name.clone(), vec![const0; w]));
            }
        }
    }
    GateLevel {
        graph,
        registers,
        outputs,
        regions,
        input_ports,
        output_ports,
        const0,
        const1,
        cycles_broken: plan.cycles_broken,
    }
}

/// Parallel expansion of the combinational cell loop: workers expand
/// contiguous chunks of the serial order into private graphs (minting
/// placeholder input runs for bits defined outside the chunk), and a
/// serial stitch replays the chunks in order, dropping placeholders for
/// defined nets and remapping everything else. Because every worker mints
/// nodes exactly where the serial flow would (and dropped placeholders
/// emit nothing), the stitched graph is the serial graph, node for node.
#[allow(clippy::too_many_arguments)]
fn elaborate_parallel_body(
    nl: &Netlist,
    plan: &ElabPlan,
    memo: Option<&ExpansionMemo>,
    threads: usize,
    graph: &mut GateGraph,
    net_bits: &mut HashMap<NetId, Vec<NodeId>>,
    regions: &mut Vec<(String, NodeId, NodeId)>,
    const0: NodeId,
    const1: NodeId,
) {
    let ranges = chunk_ranges(plan);
    let chunks: Vec<ChunkOut> = sns_rt::pool::par_map(&ranges, threads, |&(lo, hi)| {
        let mut lgraph = GateGraph::new();
        let mut local: HashMap<NetId, Vec<NodeId>> = HashMap::new();
        let mut ext: HashMap<NetId, Vec<NodeId>> = HashMap::new();
        let mut ph_runs: Vec<PhRun> = Vec::new();
        let mut louts: Vec<(NetId, Vec<NodeId>)> = Vec::new();
        let mut lregions: Vec<(String, NodeId, NodeId)> = Vec::new();
        {
            let mut e = Expander::new(&mut lgraph);
            for pos in lo..hi {
                let cell = nl.cell(plan.order[pos]);
                if cell.kind == CellKind::Dff {
                    continue;
                }
                let region_start = e.g.len() as NodeId;
                let out_w = nl.net(cell.output).width;
                let flags = &plan.fresh[pos];
                let ins: Vec<Vec<NodeId>> = cell
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(slot, &n)| {
                        let w = nl.net(n).width;
                        if flags.get(slot).copied().unwrap_or(false) {
                            // Fresh dangling input — minted per
                            // consumption, exactly like the serial flow.
                            let start = e.g.len() as NodeId;
                            let bits = e.inputs(w);
                            ph_runs.push(PhRun { start, width: w, net: n, fresh: true });
                            bits
                        } else if let Some(b) = local.get(&n) {
                            b.clone()
                        } else if let Some(b) = ext.get(&n) {
                            b.clone()
                        } else {
                            // Defined outside this chunk: placeholder run,
                            // resolved (and dropped) at stitch time.
                            let start = e.g.len() as NodeId;
                            let bits = e.inputs(w);
                            ph_runs.push(PhRun { start, width: w, net: n, fresh: false });
                            ext.insert(n, bits.clone());
                            bits
                        }
                    })
                    .collect();
                let bits = expand_cell_memo(&mut e, cell.kind, cell.attr, out_w, &ins, memo);
                local.insert(cell.output, bits.clone());
                louts.push((cell.output, bits));
                let region_end = e.g.len() as NodeId;
                if region_end > region_start && !cell.kind.is_wiring() {
                    lregions.push((cell.name.clone(), region_start, region_end));
                }
            }
        }
        ChunkOut { graph: lgraph, ph_runs, outs: louts, regions: lregions }
    });

    // Serial stitch, chunk order = cell order. `gindex[i]` is the global
    // length just before local node `i` was replayed, so local region
    // spans map straight onto global spans.
    for co in &chunks {
        let lg = &co.graph;
        let llen = lg.len();
        let mut remap: Vec<NodeId> = Vec::with_capacity(llen);
        let mut gindex: Vec<NodeId> = Vec::with_capacity(llen + 1);
        let mut ri = 0usize;
        for id in 0..llen as NodeId {
            gindex.push(graph.len() as NodeId);
            if id == 0 {
                remap.push(const0);
                continue;
            }
            if id == 1 {
                remap.push(const1);
                continue;
            }
            while ri < co.ph_runs.len() && co.ph_runs[ri].start + co.ph_runs[ri].width <= id {
                ri += 1;
            }
            if ri < co.ph_runs.len() && co.ph_runs[ri].start <= id {
                let run = &co.ph_runs[ri];
                if run.fresh {
                    remap.push(graph.push(GateKind::Input, [NO_NODE; 3]));
                } else {
                    let bit = net_bits
                        .get(&run.net)
                        .and_then(|b| b.get((id - run.start) as usize))
                        .copied();
                    remap.push(match bit {
                        Some(b) => b,
                        // Defensive: a placeholder for a net the stitch has
                        // not seen would indicate a planning bug; minting a
                        // dangling input keeps the graph well-formed and
                        // the bit-identity gate catches it.
                        None => graph.push(GateKind::Input, [NO_NODE; 3]),
                    });
                }
            } else {
                let f = lg.fanins(id);
                let mf = {
                    let m = |x: NodeId| if x == NO_NODE { NO_NODE } else { remap[x as usize] };
                    [m(f[0]), m(f[1]), m(f[2])]
                };
                let nid = graph.push(lg.kind(id), mf);
                remap.push(nid);
            }
        }
        gindex.push(graph.len() as NodeId);
        for (net, bits) in &co.outs {
            net_bits.insert(*net, bits.iter().map(|&b| remap[b as usize]).collect());
        }
        for (name, s, t) in &co.regions {
            let (gs, gt) = (gindex[*s as usize], gindex[*t as usize]);
            // A chunk-local span can consist entirely of placeholder runs
            // (an external-net consumer that expands to pure wiring);
            // those nodes vanish at stitch time, and the serial flow never
            // records empty regions.
            if gt > gs {
                regions.push((name.clone(), gs, gt));
            }
        }
    }
}

/// Topological order over cells (Kahn), treating register outputs as
/// sources. Cells stuck in combinational cycles are appended at the end in
/// id order (the expander substitutes fresh inputs for their unresolved
/// fanins).
fn topo_order(nl: &Netlist, driver: &HashMap<NetId, CellId>) -> Vec<CellId> {
    let mut indegree: Vec<u32> = Vec::with_capacity(nl.cell_count());
    let mut ready: Vec<CellId> = Vec::new();
    for (cid, cell) in nl.cells_enumerated() {
        let deg = if cell.kind == CellKind::Dff {
            0
        } else {
            cell.inputs
                .iter()
                .filter(|n| driver.get(n).is_some_and(|&d| nl.cell(d).kind != CellKind::Dff))
                .count() as u32
        };
        indegree.push(deg);
        if deg == 0 {
            ready.push(cid);
        }
    }
    let readers = nl.reader_map();
    let mut order = Vec::with_capacity(nl.cell_count());
    let mut head = 0;
    while head < ready.len() {
        let cid = ready[head];
        head += 1;
        order.push(cid);
        // Register outputs were never counted in consumer in-degrees (they
        // are sequential sources), so they must not decrement them either —
        // otherwise consumers are re-queued and expanded repeatedly.
        if nl.cell(cid).kind == CellKind::Dff {
            continue;
        }
        if let Some(consumers) = readers.get(&nl.cell(cid).output) {
            for &r in consumers {
                if nl.cell(r).kind == CellKind::Dff {
                    continue;
                }
                let d = &mut indegree[r.0 as usize];
                if *d > 0 {
                    *d -= 1;
                    if *d == 0 {
                        ready.push(r);
                    }
                }
            }
        }
    }
    if order.len() < nl.cell_count() {
        let mut seen = vec![false; nl.cell_count()];
        for &c in &order {
            seen[c.0 as usize] = true;
        }
        for (i, &s) in seen.iter().enumerate() {
            if !s {
                order.push(CellId(i as u32));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_netlist::parse_and_elaborate;

    fn synth(src: &str, top: &str) -> SynthReport {
        let nl = parse_and_elaborate(src, top).unwrap();
        VirtualSynthesizer::new(SynthOptions::default()).synthesize(&nl)
    }

    const MAC: &str = "module mac (input clk, input [7:0] a, b, output [15:0] y);
                           reg [15:0] acc;
                           always @(posedge clk) acc <= acc + a * b;
                           assign y = acc;
                       endmodule";

    #[test]
    fn mac_report_is_physically_plausible() {
        let r = synth(MAC, "mac");
        assert!(r.gate_count > 100, "a 16-bit MAC is a few hundred gates, got {}", r.gate_count);
        assert!(r.area_um2 > 10.0 && r.area_um2 < 10_000.0, "area {}", r.area_um2);
        assert!(r.timing_ps > 50.0 && r.timing_ps < 2_000.0, "timing {}", r.timing_ps);
        assert!(r.power_mw > 0.0 && r.power_mw < 100.0, "power {}", r.power_mw);
        assert!(r.transistor_count > 2 * r.gate_count);
    }

    #[test]
    fn wider_datapath_costs_more_area_and_delay() {
        let narrow = synth(MAC, "mac");
        let wide = synth(
            "module mac (input clk, input [31:0] a, b, output [63:0] y);
                 reg [63:0] acc;
                 always @(posedge clk) acc <= acc + a * b;
                 assign y = acc;
             endmodule",
            "mac",
        );
        assert!(wide.area_um2 > 5.0 * narrow.area_um2);
        assert!(wide.timing_ps > narrow.timing_ps);
        assert!(wide.power_mw > narrow.power_mw);
    }

    #[test]
    fn divider_is_much_slower_than_adder() {
        let add = synth(
            "module m (input clk, input [15:0] a, b, output reg [15:0] y);
                 always @(posedge clk) y <= a + b;
             endmodule",
            "m",
        );
        let div = synth(
            "module m (input clk, input [15:0] a, b, output reg [15:0] y);
                 always @(posedge clk) y <= a / b;
             endmodule",
            "m",
        );
        assert!(div.timing_ps > 3.0 * add.timing_ps, "div {} vs add {}", div.timing_ps, add.timing_ps);
        assert!(div.area_um2 > 5.0 * add.area_um2);
    }

    #[test]
    fn sizing_iterations_improve_timing() {
        let nl = parse_and_elaborate(MAC, "mac").unwrap();
        let lazy = VirtualSynthesizer::new(SynthOptions { sizing_iterations: 0, ..Default::default() })
            .synthesize(&nl);
        let tuned = VirtualSynthesizer::new(SynthOptions { sizing_iterations: 10, ..Default::default() })
            .synthesize(&nl);
        assert!(tuned.timing_ps < lazy.timing_ps);
        assert!(tuned.area_um2 > lazy.area_um2); // upsizing costs area
    }

    #[test]
    fn register_activity_scales_power() {
        let nl = parse_and_elaborate(MAC, "mac").unwrap();
        let reg_name = nl
            .cells()
            .find(|c| c.kind == CellKind::Dff)
            .map(|c| c.name.clone())
            .unwrap();
        let mut hot = HashMap::new();
        hot.insert(reg_name.clone(), 1.0f32);
        let mut cold = HashMap::new();
        cold.insert(reg_name, 0.001f32);
        let mk = |m: HashMap<String, f32>| {
            VirtualSynthesizer::new(SynthOptions {
                register_activity: Some(m),
                ..Default::default()
            })
            .synthesize(&nl)
        };
        let hot_r = mk(hot);
        let cold_r = mk(cold);
        assert!(hot_r.dynamic_mw > cold_r.dynamic_mw);
        assert_eq!(hot_r.area_um2, cold_r.area_um2); // power-only knob
    }

    #[test]
    fn purely_combinational_design_synthesizes() {
        let r = synth(
            "module comb (input [7:0] a, b, output [7:0] y); assign y = a ^ b; endmodule",
            "comb",
        );
        assert_eq!(r.gate_count, 8);
        assert!(r.timing_ps > 0.0);
    }

    #[test]
    fn gate_counts_match_expander_math() {
        // 64-bit AND reduction: 63 gates + nothing else.
        let r = synth(
            "module m (input [63:0] a, output y); assign y = &a; endmodule",
            "m",
        );
        assert_eq!(r.gate_count, 63);
    }

    #[test]
    fn runtime_is_recorded() {
        let r = synth(MAC, "mac");
        assert!(r.runtime > Duration::ZERO);
    }

    #[test]
    fn well_formed_designs_break_no_cycles() {
        for (src, top) in [
            (MAC, "mac"),
            ("module comb (input [7:0] a, b, output [7:0] y); assign y = a ^ b; endmodule", "comb"),
        ] {
            let r = synth(src, top);
            assert_eq!(r.cycles_broken, 0, "{top}");
        }
    }

    #[test]
    fn fast_flow_matches_reference_on_mac() {
        let nl = parse_and_elaborate(MAC, "mac").unwrap();
        let reference = VirtualSynthesizer::new(SynthOptions::default());
        let ref_gl = reference.elaborate_gates_reference(&nl);
        let ref_r = reference.analyze_reference(&ref_gl);
        for threads in [1usize, 3] {
            let fast = VirtualSynthesizer::new(SynthOptions {
                threads: Some(threads),
                ..Default::default()
            });
            let gl = fast.elaborate_gates(&nl);
            assert_eq!(gl.graph, ref_gl.graph, "threads={threads}");
            assert_eq!(gl.regions, ref_gl.regions, "threads={threads}");
            let r = fast.analyze(&gl);
            assert_eq!(r.area_um2.to_bits(), ref_r.area_um2.to_bits());
            assert_eq!(r.timing_ps.to_bits(), ref_r.timing_ps.to_bits());
            assert_eq!(r.power_mw.to_bits(), ref_r.power_mw.to_bits());
            assert_eq!(r.gate_count, ref_r.gate_count);
        }
    }

    #[test]
    fn reference_flow_reports_cycles_for_combinational_loops() {
        // Two assigns feeding each other: both cells end up cycle-stuck,
        // and every unresolved read mints (and counts) a fresh input.
        let nl = parse_and_elaborate(
            "module loopy (input [3:0] a, output [3:0] y);
                 wire [3:0] p, q;
                 assign p = q + a;
                 assign q = p + 4'd1;
                 assign y = p;
             endmodule",
            "loopy",
        );
        if let Ok(nl) = nl {
            let s = VirtualSynthesizer::new(SynthOptions::default());
            let r = s.synthesize(&nl);
            let rr = s.synthesize_reference(&nl);
            assert!(r.cycles_broken > 0, "a combinational loop must be counted");
            assert_eq!(r.cycles_broken, rr.cycles_broken);
        }
    }
}
