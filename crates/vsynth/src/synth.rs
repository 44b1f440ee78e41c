//! The virtual synthesizer driver: netlist → gate graph → timing / area /
//! power report.
//!
//! One flow, on one thread: serial elaboration that splats memoized
//! expansion templates ([`VirtualSynthesizer::elaborate_gates`]), then one
//! dense analysis — full arrival, slack/upsize and tail passes per sizing
//! iteration ([`VirtualSynthesizer::analyze`]).
//!
//! [`VirtualSynthesizer::synthesize_reference`] runs the same analysis
//! over an unmemoized elaboration. Memo templates replay the exact push
//! sequence a direct expansion would have produced, so both give the same
//! gate graph node for node and the same labels bit for bit; the
//! conformance oracle re-checks this continuously.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use sns_netlist::{CellId, CellKind, NetId, Netlist, PortDir};

use crate::expand::{Expander, ExpansionMemo, MemoKey, Template};
use crate::gates::{GateGraph, GateKind, NodeId, NO_NODE};
use crate::library::CellLibrary;

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
    /// The sizing loop, including its re-propagation.
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

    /// Runs the flow: memoized gate-level expansion, sizing-driven timing
    /// closure, and power analysis.
    pub fn synthesize(&self, nl: &Netlist) -> SynthReport {
        let start = Instant::now();
        let gl = self.elaborate_gates(nl);
        let mut report = self.analyze(&gl);
        report.runtime = start.elapsed();
        report
    }

    /// Runs the flow over the unmemoized reference elaboration. Gated
    /// bit-identical to [`VirtualSynthesizer::synthesize`].
    pub fn synthesize_reference(&self, nl: &Netlist) -> SynthReport {
        let start = Instant::now();
        let gl = self.elaborate_gates_reference(nl);
        let mut report = self.analyze(&gl);
        report.runtime = start.elapsed();
        report
    }

    /// Expands a netlist into its flat gate graph, splatting memoized
    /// templates when profitable. The memo lives for this call only: no
    /// template carries over to the next design.
    pub fn elaborate_gates(&self, nl: &Netlist) -> GateLevel {
        elaborate_impl(nl, Some(&mut ExpansionMemo::default()))
    }

    /// Expands a netlist with no memoization — the reference elaboration
    /// [`VirtualSynthesizer::elaborate_gates`] is compared against.
    pub fn elaborate_gates_reference(&self, nl: &Netlist) -> GateLevel {
        elaborate_impl(nl, None)
    }

    /// Timing closure + power analysis over an elaborated gate level.
    pub fn analyze(&self, gl: &GateLevel) -> SynthReport {
        self.analyze_impl(gl, &mut AnalyzeBreakdown::default())
    }

    /// [`VirtualSynthesizer::analyze`] with per-stage timings, for
    /// benchmarks. The `bool` is ignored; it stays so that existing
    /// callers keep compiling.
    pub fn analyze_with_breakdown(
        &self,
        gl: &GateLevel,
        _: bool,
    ) -> (SynthReport, AnalyzeBreakdown) {
        let mut bd = AnalyzeBreakdown::default();
        let report = self.analyze_impl(gl, &mut bd);
        (report, bd)
    }

    fn analyze_impl(&self, gl: &GateLevel, bd: &mut AnalyzeBreakdown) -> SynthReport {
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
        // re-propagate arrivals and tails over the whole graph. The slack
        // of node `id` is `deadline − (arrival + tail)` where `tail` is the
        // longest delay-sum from the node to any endpoint.
        let t1 = Instant::now();
        for _ in 0..self.options.sizing_iterations {
            let deadline = (crit.period_ps - lib.setup_ps as f64) as f32;
            let margin = (crit.path_ps * 0.08) as f32;
            let mut upsized = false;
            for id in 0..n {
                let slack = deadline - (st.arrivals[id] + st.tail[id]);
                if slack <= margin && graph.kind(id as NodeId).is_gate() && drive[id] < 4.0 {
                    drive[id] = (drive[id] * 1.25).min(4.0);
                    let k = graph.kind(id as NodeId);
                    st.delays[id] =
                        if k.is_source() { 0.0 } else { lib.delay(k, drive[id], fanouts[id]) };
                    upsized = true;
                }
            }
            if !upsized {
                break;
            }
            st.full_forward(graph, lib.clk_to_q_ps);
            let new_crit = critical(graph, gl, lib, &st.arrivals);
            let converged = new_crit.path_ps >= crit.path_ps * 0.999;
            crit = new_crit;
            if converged {
                break;
            }
            st.full_tail(graph);
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

/// State of the STA passes.
///
/// * `arrivals[id]` — the usual forward arrival time.
/// * `tail[id]` — the longest delay-sum from `id` to any timing endpoint
///   (`0` at endpoints, `−∞` where no endpoint is reachable). Slack is
///   then `deadline − (arrival + tail)`: unlike a classic backward
///   required-time pass, `tail` does not depend on the current period, so
///   it stays valid across sizing iterations.
///
/// STA never propagates *through* a flip-flop: its D pin is an endpoint
/// (`endpoint`), and its Q pin a source.
struct StaState {
    delays: Vec<f32>,
    arrivals: Vec<f32>,
    tail: Vec<f32>,
    endpoint: Vec<bool>,
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
        StaState { delays: vec![0.0; n], arrivals: vec![0.0; n], tail: vec![0.0; n], endpoint }
    }

    /// Ascending arrival pass: fanins precede consumers in the graph, so
    /// every fanin's arrival is final when its consumer reads it.
    fn full_forward(&mut self, graph: &GateGraph, clk_to_q: f32) {
        for id in 0..graph.len() as NodeId {
            let k = graph.kind(id);
            self.arrivals[id as usize] = if k == GateKind::Dff {
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
            };
        }
    }

    /// Tail rebuild as a descending *scatter* pass: when node `id` is
    /// visited, every consumer (higher id) has already scattered into it,
    /// so `tail[id]` is final and can be pushed to its fanins.
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
}

// ---------------------------------------------------------- elaboration --

/// Rough expansion gate count per cell — only used to decide whether a
/// shape is worth memoizing, never for results.
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
/// templates bit-exact.
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

/// Estimated expansion size below which memoization costs more than it
/// saves (key hash + lookup + context splat vs a direct expansion of a
/// few dozen gates).
const MEMO_MIN_EST_NODES: usize = 384;

/// Kinds worth caching: the super-linear expanders that dominate gate
/// count and repeat within a design. Linear per-bit kinds and wiring are
/// cheaper to expand directly than to key and splat.
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
    memo: Option<&mut ExpansionMemo>,
) -> Vec<NodeId> {
    let Some(memo) = memo else {
        return expand_cell(e, kind, attr, out_w, ins);
    };
    if !memoizable(kind) {
        return expand_cell(e, kind, attr, out_w, ins);
    }
    // Small shapes are cheaper to expand directly than to key, look up,
    // and splat — only cache expansions big enough to amortize the lookup.
    let in_ws: Vec<u32> = ins.iter().map(|v| v.len() as u32).collect();
    if estimate_cell_nodes(kind, out_w, &in_ws) < MEMO_MIN_EST_NODES {
        return expand_cell(e, kind, attr, out_w, ins);
    }
    let key = MemoKey { kind, attr, out_w, in_widths: in_ws };
    let template =
        memo.get_or_build(key, |k| build_template(k.kind, k.attr, k.out_w, &k.in_widths));
    let mut ctx = Vec::with_capacity(2 + ins.iter().map(|v| v.len()).sum::<usize>());
    ctx.push(e.const0());
    ctx.push(e.const1());
    for v in ins {
        ctx.extend_from_slice(v);
    }
    template.splat(e.g, &ctx)
}

/// Expands `nl` into its flat gate graph: input ports, then register
/// banks, then every combinational cell in topological order.
fn elaborate_impl(nl: &Netlist, mut memo: Option<&mut ExpansionMemo>) -> GateLevel {
    let driver = nl.driver_map();
    let mut graph = GateGraph::with_capacity(nl.cell_count() * 8);
    let mut net_bits: HashMap<NetId, Vec<NodeId>> = HashMap::new();
    let mut registers: Vec<(String, Vec<NodeId>)> = Vec::new();
    let mut dff_patches: Vec<(Vec<NodeId>, NetId)> = Vec::new();
    let mut regions: Vec<(String, NodeId, NodeId)> = Vec::new();
    let mut input_ports: Vec<(String, Vec<NodeId>)> = Vec::new();
    let mut cycles_broken = 0u64;
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

        for cid in topo_order(nl, &driver) {
            let cell = nl.cell(cid);
            if cell.kind == CellKind::Dff {
                continue; // bank already materialized above
            }
            let region_start = e.g.len() as NodeId;
            let out_w = nl.net(cell.output).width;
            let ins: Vec<Vec<NodeId>> = cell
                .inputs
                .iter()
                .map(|n| match net_bits.get(n) {
                    Some(bits) => bits.clone(),
                    None => {
                        // Unresolvable input: a fresh dangling input keeps
                        // the run robust. A net that *has* a driver is
                        // unreachable here only through a combinational
                        // cycle, which counts as broken; driverless nets
                        // read as fresh inputs without counting.
                        if driver.contains_key(n) {
                            cycles_broken += 1;
                        }
                        e.inputs(nl.net(*n).width)
                    }
                })
                .collect();
            let bits =
                expand_cell_memo(&mut e, cell.kind, cell.attr, out_w, &ins, memo.as_deref_mut());
            net_bits.insert(cell.output, bits);
            let region_end = e.g.len() as NodeId;
            if region_end > region_start && !cell.kind.is_wiring() {
                regions.push((cell.name.clone(), region_start, region_end));
            }
        }

        // Patch register D inputs now the full combinational cone exists.
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
        cycles_broken,
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
        let vs = VirtualSynthesizer::new(SynthOptions::default());
        let ref_gl = vs.elaborate_gates_reference(&nl);
        let ref_r = vs.analyze(&ref_gl);
        let gl = vs.elaborate_gates(&nl);
        assert_eq!(gl.graph, ref_gl.graph);
        assert_eq!(gl.regions, ref_gl.regions);
        let r = vs.analyze(&gl);
        assert_eq!(r.area_um2.to_bits(), ref_r.area_um2.to_bits());
        assert_eq!(r.timing_ps.to_bits(), ref_r.timing_ps.to_bits());
        assert_eq!(r.power_mw.to_bits(), ref_r.power_mw.to_bits());
        assert_eq!(r.gate_count, ref_r.gate_count);
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
