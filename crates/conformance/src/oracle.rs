//! The differential oracles.
//!
//! Each oracle takes a generated [`DesignSpec`] and checks one cross-layer
//! agreement the rest of the workspace silently depends on:
//!
//! 1. [`check_sim_vs_gates`] — the coarse-cell netlist simulator and the
//!    gate-level evaluation of the virtual synthesizer's expanded graph
//!    must produce bit-identical output traces under random stimulus.
//!    This is the oracle that pins the semantics of every expander in
//!    `sns_vsynth::expand` to the elaborator's.
//! 2. [`check_vsynth_invariants`] — synthesis labels are finite, positive,
//!    deterministic (bit-identical across repeated runs), and monotone:
//!    widening every signal of a design never shrinks its gate count.
//! 3. [`PredictorHarness::check`] — a trained `SnsModel` must predict
//!    bit-identically across thread-count × batch-size × cache-capacity
//!    configurations (the core pipeline under explicit
//!    `Inline { threads, batch }` hooks, so the sweep needs no environment
//!    variables).
//! 4. [`ServeHarness::check`] — `POST /predict` against a live `sns-serve`
//!    instance must return exactly the numbers the in-process model
//!    produces (the daemon's shortest-round-trip JSON printer makes f64
//!    equality exact, not approximate).
//! 5. [`IncrementalHarness::check`] — the hierarchy-first incremental
//!    pipeline must be invisible: after each of K random module edits,
//!    the incremental re-prediction (`predict_patch` over a live
//!    session) must match a from-scratch `predict_session` of the merged
//!    source bit-for-bit — same token, same prediction, same per-terminal
//!    token sequences — and `elaborate_incremental` through a persistent
//!    [`ModuleElabCache`] must reproduce the flat `elaborate` netlist
//!    exactly (netlist equality is strictly stronger than label equality,
//!    since oracle 2 pins synthesis determinism on equal netlists).
//!
//! All oracles return `Err(description)` on disagreement so callers can
//! shrink the offending spec (see [`crate::shrink`](mod@crate::shrink))
//! and persist it to the corpus (see [`crate::corpus`]).

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_circuitformer::{CircuitformerConfig, TrainConfig};
use sns_core::aggmlp::MlpTrainConfig;
use sns_core::dataset::AugmentConfig;
use sns_core::{
    train_sns, DesignPrediction, Inline, Input, Output, PipelineError, SessionStore, SnsModel,
    SnsTrainConfig,
};
use sns_netlist::ast::Design;
use sns_netlist::{
    design_hashes, elaborate_incremental, instantiated_modules, parse_and_elaborate, parse_source,
    ModuleElabCache, Netlist, PortDir, Simulator,
};
use sns_rt::hash::Fnv128;
use sns_rt::json::{parse as parse_json, Json};
use sns_rt::StdRng;
use sns_sampler::SampleConfig;
use sns_serve::{ServeConfig, Server};
use sns_vsynth::{GateSim, SynthOptions, SynthReport, VirtualSynthesizer};

use crate::generator::{DesignSpec, GenConfig};

/// Which oracle a disagreement came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Netlist simulation vs gate-level evaluation.
    SimVsGates,
    /// Virtual-synthesizer label invariants.
    VsynthInvariants,
    /// Fast (parallel/sparse/memoized) vs reference synthesis identity.
    VsynthReference,
    /// Thread/batch/cache-capacity prediction identity.
    PredictorDeterminism,
    /// HTTP-vs-direct prediction identity.
    ServeIdentity,
    /// Incremental-vs-from-scratch identity under module edits.
    Incremental,
}

impl OracleKind {
    /// A stable snake_case name (used in benchmark breakdowns).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::SimVsGates => "sim_vs_gates",
            OracleKind::VsynthInvariants => "vsynth_invariants",
            OracleKind::VsynthReference => "vsynth_reference",
            OracleKind::PredictorDeterminism => "predictor_determinism",
            OracleKind::ServeIdentity => "serve_identity",
            OracleKind::Incremental => "incremental",
        }
    }
}

/// A cross-layer disagreement found by an oracle.
#[derive(Debug, Clone)]
pub struct Disagreement {
    pub oracle: OracleKind,
    pub seed: u64,
    pub detail: String,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] seed {}: {}", self.oracle.name(), self.seed, self.detail)
    }
}

/// Elaborates a spec (a generated spec must always elaborate; an error
/// here is itself a front-end bug worth a corpus case).
pub fn elaborate(spec: &DesignSpec) -> Result<Netlist, String> {
    parse_and_elaborate(&spec.verilog(), spec.top())
        .map_err(|e| format!("generated design failed to elaborate: {e}"))
}

/// The netlist's port interface: input `(name, width)` pairs and output
/// names, in declaration order. The stimulus and trace schemes below
/// depend only on this order, so a corpus replay from raw Verilog drives
/// the exact same trace as the generated spec did.
fn io_ports(nl: &Netlist) -> (Vec<(String, u32)>, Vec<String>) {
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for p in nl.ports() {
        match p.dir {
            PortDir::Input => inputs.push((p.name.clone(), nl.net(p.net).width)),
            PortDir::Output => outputs.push(p.name.clone()),
        }
    }
    (inputs, outputs)
}

fn mask_to_width(raw: u128, w: u32) -> u128 {
    if w as usize >= 128 {
        raw
    } else {
        raw & ((1u128 << w) - 1)
    }
}

/// Oracle 1: drives `cycles` cycles of seeded random stimulus through the
/// netlist simulator and the expanded gate graph, comparing every output
/// both combinationally (after the inputs settle) and after each clock
/// edge.
pub fn check_sim_vs_gates(spec: &DesignSpec, stim_seed: u64, cycles: usize) -> Result<(), String> {
    diff_sim_netlist(&elaborate(spec)?, stim_seed, cycles)
}

/// The netlist-level half of oracle 1, shared with corpus replay.
pub fn diff_sim_netlist(nl: &Netlist, stim_seed: u64, cycles: usize) -> Result<(), String> {
    let (inputs, outputs) = io_ports(nl);
    let mut nsim = Simulator::new(nl).map_err(|e| format!("netlist sim rejected design: {e}"))?;
    let gl = VirtualSynthesizer::new(SynthOptions::default()).elaborate_gates(nl);
    let mut gsim = GateSim::new(&gl)?;
    let mut rng = StdRng::seed_from_u64(stim_seed);

    for cycle in 0..cycles {
        for (name, w) in &inputs {
            let raw = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            let v = mask_to_width(raw, *w);
            nsim.set_input(name, v).map_err(|e| e.to_string())?;
            gsim.set_input(name, v)?;
        }
        // Compare the settled combinational view first, then the
        // post-edge view — registered outputs only move on the edge.
        nsim.eval().map_err(|e| e.to_string())?;
        gsim.eval();
        compare_outputs(&nsim, &gsim, &outputs, cycle, "eval")?;
        nsim.step().map_err(|e| e.to_string())?;
        gsim.step();
        compare_outputs(&nsim, &gsim, &outputs, cycle, "step")?;
    }
    Ok(())
}

fn compare_outputs(
    nsim: &Simulator,
    gsim: &GateSim,
    outputs: &[String],
    cycle: usize,
    phase: &str,
) -> Result<(), String> {
    for name in outputs {
        let nv = nsim.output(name).map_err(|e| e.to_string())?;
        let gv = gsim.output(name)?;
        if nv != gv {
            return Err(format!(
                "output {name} diverges at cycle {cycle} after {phase}: \
                 netlist sim says {nv:#x}, gate-level eval says {gv:#x}"
            ));
        }
    }
    Ok(())
}

/// A compact trace signature: FNV-1a64 (stream `a` of [`Fnv128`]) over
/// every output, little-endian, after every eval and step phase. Corpus
/// sidecars pin this hash so replays detect any behavioral drift, not
/// just sim-vs-gates divergence.
pub fn trace_hash(nl: &Netlist, stim_seed: u64, cycles: usize) -> Result<u64, String> {
    let (inputs, outputs) = io_ports(nl);
    let mut sim = Simulator::new(nl).map_err(|e| format!("netlist sim rejected design: {e}"))?;
    let mut h = Fnv128::new();
    let mut rng = StdRng::seed_from_u64(stim_seed);
    for _ in 0..cycles {
        for (name, w) in &inputs {
            let raw = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
            sim.set_input(name, mask_to_width(raw, *w)).map_err(|e| e.to_string())?;
        }
        sim.eval().map_err(|e| e.to_string())?;
        for name in &outputs {
            let v = sim.output(name).map_err(|e| e.to_string())?;
            h.write_u128(v);
        }
        sim.step().map_err(|e| e.to_string())?;
        for name in &outputs {
            let v = sim.output(name).map_err(|e| e.to_string())?;
            h.write_u128(v);
        }
    }
    Ok(h.finish())
}

/// Synthesizes a spec with the default options (full sizing loop).
pub fn synthesize(spec: &DesignSpec) -> Result<SynthReport, String> {
    let nl = elaborate(spec)?;
    Ok(VirtualSynthesizer::new(SynthOptions::default()).synthesize(&nl))
}

/// Oracle 2: synthesis-label invariants.
///
/// * every label is finite and positive,
/// * synthesizing the same netlist twice is bit-identical (everything but
///   the wall-clock runtime),
/// * widening every signal never shrinks the gate count (the area analogue
///   is checked on dedicated families in the test suite, where the sizing
///   loop can be pinned off).
pub fn check_vsynth_invariants(spec: &DesignSpec) -> Result<(), String> {
    let nl = elaborate(spec)?;
    let vs = VirtualSynthesizer::new(SynthOptions::default());
    let a = vs.synthesize(&nl);
    // A design can legitimately synthesize to zero gates (pure wiring,
    // replication, bit-selects) and constant-driven logic legitimately
    // has zero dynamic power — so labels must be finite and non-negative,
    // with positivity required only where the gate graph implies it.
    for (name, v) in [
        ("area_um2", a.area_um2),
        ("timing_ps", a.timing_ps),
        ("power_mw", a.power_mw),
        ("dynamic_mw", a.dynamic_mw),
        ("leakage_mw", a.leakage_mw),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("synthesis label {name} is not finite-nonnegative: {v}"));
        }
    }
    if a.timing_ps <= 0.0 {
        return Err(format!("timing_ps must be positive (base delay): {}", a.timing_ps));
    }
    // The generator only emits well-formed designs: every read net is
    // driven and no combinational loop exists, so any broken "cycle" is a
    // front-end or elaboration bug.
    if a.cycles_broken != 0 {
        return Err(format!(
            "well-formed generated design reported {} broken combinational cycles",
            a.cycles_broken
        ));
    }
    if a.gate_count > 0 && (a.area_um2 <= 0.0 || a.leakage_mw <= 0.0 || a.transistor_count == 0) {
        return Err(format!(
            "{} gates but area={} leakage={} transistors={}",
            a.gate_count, a.area_um2, a.leakage_mw, a.transistor_count
        ));
    }
    let b = vs.synthesize(&nl);
    for (name, x, y) in [
        ("area_um2", a.area_um2, b.area_um2),
        ("timing_ps", a.timing_ps, b.timing_ps),
        ("power_mw", a.power_mw, b.power_mw),
        ("dynamic_mw", a.dynamic_mw, b.dynamic_mw),
        ("leakage_mw", a.leakage_mw, b.leakage_mw),
    ] {
        if x.to_bits() != y.to_bits() {
            return Err(format!("synthesis is nondeterministic in {name}: {x} vs {y}"));
        }
    }
    if a.gate_count != b.gate_count {
        return Err(format!(
            "synthesis is nondeterministic in gate_count: {} vs {}",
            a.gate_count, b.gate_count
        ));
    }

    let wide = spec.widened();
    let wnl = elaborate(&wide)?;
    let w = vs.synthesize(&wnl);
    if w.gate_count < a.gate_count {
        return Err(format!(
            "widening shrank the design: {} gates at base widths, {} gates widened",
            a.gate_count, w.gate_count
        ));
    }
    Ok(())
}

/// Oracle 2b: the synthesis flow with its per-call expansion memo must be
/// bit-identical to the unmemoized reference elaboration — same gate
/// graph node for node, same labels bit for bit.
pub fn check_vsynth_matches_reference(spec: &DesignSpec) -> Result<(), String> {
    let nl = elaborate(spec)?;
    check_vsynth_matches_reference_netlist(&nl)
}

/// Netlist-level body of [`check_vsynth_matches_reference`], exposed so
/// the vsynth soak can replay blessed corpus `.v` cases (which have no
/// [`DesignSpec`]) through the same identity check.
pub fn check_vsynth_matches_reference_netlist(nl: &Netlist) -> Result<(), String> {
    let vs = VirtualSynthesizer::new(SynthOptions::default());
    let gl_ref = vs.elaborate_gates_reference(nl);
    let r_ref = vs.analyze(&gl_ref);

    let gl = vs.elaborate_gates(nl);
    if gl.graph != gl_ref.graph {
        return Err(format!(
            "memoized elaboration diverges from reference: \
             {} vs {} nodes, histograms {:?} vs {:?}",
            gl.graph.len(),
            gl_ref.graph.len(),
            gl.graph.kind_histogram(),
            gl_ref.graph.kind_histogram()
        ));
    }
    if gl.regions != gl_ref.regions {
        return Err("region spans diverge from reference".to_string());
    }
    if gl.cycles_broken != gl_ref.cycles_broken {
        return Err(format!(
            "cycles_broken diverges from reference: {} vs {}",
            gl.cycles_broken, gl_ref.cycles_broken
        ));
    }
    let r = vs.analyze(&gl);
    for (name, x, y) in [
        ("area_um2", r.area_um2, r_ref.area_um2),
        ("timing_ps", r.timing_ps, r_ref.timing_ps),
        ("power_mw", r.power_mw, r_ref.power_mw),
        ("dynamic_mw", r.dynamic_mw, r_ref.dynamic_mw),
        ("leakage_mw", r.leakage_mw, r_ref.leakage_mw),
    ] {
        if x.to_bits() != y.to_bits() {
            return Err(format!("label {name} diverges from reference: {x} vs {y}"));
        }
    }
    if (r.gate_count, r.transistor_count, r.cycles_broken)
        != (r_ref.gate_count, r_ref.transistor_count, r_ref.cycles_broken)
    {
        return Err(format!(
            "counts diverge from reference: \
             gates {} vs {}, transistors {} vs {}, cycles {} vs {}",
            r.gate_count,
            r_ref.gate_count,
            r.transistor_count,
            r_ref.transistor_count,
            r.cycles_broken,
            r_ref.cycles_broken
        ));
    }
    Ok(())
}

// ----------------------------------------------------------- predictor --

/// The tiny-but-real training configuration the prediction oracles share.
/// Dimension 32 keeps training to a few seconds while still exercising
/// the full Circuitformer + aggregation pipeline.
pub fn tiny_train_config() -> SnsTrainConfig {
    let mut c = SnsTrainConfig::fast();
    c.circuitformer =
        CircuitformerConfig { dim: 32, ffn_dim: 64, max_len: 64, ..CircuitformerConfig::fast() };
    c.cf_train = TrainConfig { epochs: 2, batch_size: 32, threads: 1, ..TrainConfig::fast() };
    c.mlp_train = MlpTrainConfig { epochs: 20, ..MlpTrainConfig::fast() };
    c.augment = AugmentConfig::none();
    c.sample = SampleConfig::paper_default().with_max_paths(250);
    c
}

/// Oracle 3's stateful half: one trained model, checked against many
/// generated designs.
pub struct PredictorHarness {
    model: Arc<SnsModel>,
}

impl PredictorHarness {
    /// Trains a fresh tiny model (a few seconds of work — train once and
    /// share the harness across checks).
    pub fn train() -> Self {
        let designs =
            vec![sns_designs::vector::simd_alu(2, 8), sns_designs::nonlinear::piecewise(4, 8)];
        Self::from_model(Arc::new(train_sns(&designs, &tiny_train_config()).0))
    }

    /// Wraps an already-trained model.
    pub fn from_model(model: Arc<SnsModel>) -> Self {
        PredictorHarness { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<SnsModel> {
        &self.model
    }

    /// Oracle 3: predictions for `spec` must be bit-identical across a
    /// sweep of thread-count × batch-size × cache-capacity settings,
    /// including a capacity small enough to force evictions mid-predict.
    ///
    /// Leaves the model's shared cache unbounded and empty on return, so a
    /// harness can be shared with other tests.
    pub fn check(&self, spec: &DesignSpec) -> Result<(), String> {
        let result = self.sweep(&spec.verilog(), spec.top());
        self.model.cache().set_capacity(None);
        self.model.clear_cache();
        result
    }

    fn sweep(&self, verilog: &str, top: &str) -> Result<(), String> {
        let input = Input::Flat { verilog, top, activity: None };
        let mut baseline: Option<DesignPrediction> = None;
        for &(threads, batch, tiny) in &[(1usize, 1usize, false), (4, 4, false), (3, 2, true)] {
            // A capacity well below the path count forces evictions while
            // the prediction is being assembled.
            let cap = baseline.as_ref().filter(|_| tiny).map(|b| (b.path_count / 4).max(2));
            self.model.clear_cache();
            self.model.cache().set_capacity(cap);
            let pred = match self.model.predict_with(input, &Inline { threads, batch }, Instant::now())
            {
                Ok(Output::Flat(pred)) => pred,
                Ok(other) => return Err(format!("expected a flat prediction, got {other:?}")),
                Err(PipelineError::Rejected(e)) => {
                    return Err(format!("generated design failed to elaborate: {e}"))
                }
            };
            match &baseline {
                None => baseline = Some(pred),
                Some(base) => {
                    for (name, x, y) in [
                        ("timing_ps", base.timing_ps, pred.timing_ps),
                        ("area_um2", base.area_um2, pred.area_um2),
                        ("power_mw", base.power_mw, pred.power_mw),
                    ] {
                        if x.to_bits() != y.to_bits() {
                            return Err(format!(
                                "prediction {name} differs at threads={threads} batch={batch} \
                                 cap={cap:?}: {x} vs {y}"
                            ));
                        }
                    }
                    if base.path_count != pred.path_count
                        || base.critical_path != pred.critical_path
                    {
                        return Err(format!(
                            "path provenance differs at threads={threads} batch={batch} cap={cap:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

// --------------------------------------------------------------- serve --

/// Oracle 4's stateful half: a live `sns-serve` daemon on an ephemeral
/// port, sharing its model with the in-process baseline.
pub struct ServeHarness {
    server: Option<Server>,
    addr: SocketAddr,
    model: Arc<SnsModel>,
}

impl ServeHarness {
    /// Boots a daemon around `model` on `127.0.0.1:0`.
    pub fn start(model: Arc<SnsModel>, cache_cap: Option<usize>) -> Result<Self, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_cap,
            read_timeout: Duration::from_secs(5),
            ..ServeConfig::default()
        };
        let server = Server::start_shared(Arc::clone(&model), config)
            .map_err(|e| format!("failed to start sns-serve: {e}"))?;
        let addr = server.addr();
        Ok(ServeHarness { server: Some(server), addr, model })
    }

    /// The daemon's ephemeral address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Oracle 4: `POST /predict` must return exactly the numbers the
    /// in-process model computes for the same source. The daemon prints
    /// f64s with a shortest-round-trip formatter, so the comparison is
    /// `to_bits` equality after JSON round-trip, not a tolerance.
    pub fn check(&self, spec: &DesignSpec) -> Result<(), String> {
        let src = spec.verilog();
        let body = Json::obj(vec![
            ("verilog", Json::Str(src.clone())),
            ("top", Json::Str(spec.top().to_string())),
        ])
        .print();
        let (status, json) = self.post("/predict", &body)?;
        if status != 200 {
            return Err(format!("POST /predict returned HTTP {status}: {}", json.print()));
        }
        let direct = self
            .model
            .predict_verilog(&src, spec.top())
            .map_err(|e| format!("direct prediction failed: {e}"))?;
        for (name, local) in [
            ("timing_ps", direct.timing_ps),
            ("area_um2", direct.area_um2),
            ("power_mw", direct.power_mw),
        ] {
            let remote = json
                .get(name)
                .and_then(|v| v.as_f64())
                .map_err(|e| format!("bad /predict response field {name}: {e}"))?;
            if remote.to_bits() != local.to_bits() {
                return Err(format!(
                    "HTTP {name} diverges from direct prediction: {remote} vs {local}"
                ));
            }
        }
        let remote_paths = json
            .get("path_count")
            .and_then(|v| v.as_usize())
            .map_err(|e| format!("bad /predict response field path_count: {e}"))?;
        if remote_paths != direct.path_count {
            return Err(format!(
                "HTTP path_count diverges: {remote_paths} vs {}",
                direct.path_count
            ));
        }
        Ok(())
    }

    /// Fetches `GET /metrics` as JSON.
    pub fn metrics(&self) -> Result<Json, String> {
        let (status, json) = self.get("/metrics")?;
        if status != 200 {
            return Err(format!("GET /metrics returned HTTP {status}"));
        }
        Ok(json)
    }

    fn post(&self, path: &str, body: &str) -> Result<(u16, Json), String> {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nhost: c\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        );
        self.http(raw.as_bytes())
    }

    fn get(&self, path: &str) -> Result<(u16, Json), String> {
        let raw = format!("GET {path} HTTP/1.1\r\nhost: c\r\nconnection: close\r\n\r\n");
        self.http(raw.as_bytes())
    }

    fn http(&self, raw: &[u8]) -> Result<(u16, Json), String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.write_all(raw).map_err(|e| format!("send: {e}"))?;
        let mut response = Vec::new();
        stream.read_to_end(&mut response).map_err(|e| format!("read: {e}"))?;
        let text = String::from_utf8(response).map_err(|e| format!("non-UTF-8 response: {e}"))?;
        let (head, body) =
            text.split_once("\r\n\r\n").ok_or("response has no header/body separator")?;
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        let json = parse_json(body).map_err(|e| format!("response body is not JSON: {e}"))?;
        Ok((status, json))
    }

    /// Shuts the daemon down and joins its threads.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            server.join();
        }
    }
}

impl Drop for ServeHarness {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            server.join();
        }
    }
}

// --------------------------------------------------------- incremental --

/// Counters accumulated by [`IncrementalHarness::check`], used by the ECO
/// soak to report how much work the incremental pipeline actually skipped.
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalStats {
    /// Module edits applied (and verified) after the base prediction.
    pub edits: usize,
    /// Modules re-elaborated across all edits (from `reelaborated`).
    pub reelaborated_modules: usize,
    /// Distinct modules in the design, summed across all edits — the
    /// denominator of the re-elaboration fraction.
    pub design_modules: usize,
    /// Terminals whose cached path sample was reused, summed over edits.
    pub reused_terminals: usize,
    /// Terminals re-sampled, summed over edits.
    pub resampled_terminals: usize,
}

/// Oracle 5's stateful half: one trained model plus the bookkeeping to
/// replay a session's edit history from scratch.
pub struct IncrementalHarness {
    model: Arc<SnsModel>,
}

/// Splits concatenated generator-style Verilog into `(name, text)` module
/// blocks. Total on any generator/`edit` output (each module is a
/// `module <name> ... endmodule` block with no nested `endmodule`).
fn split_modules(src: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(off) = src[pos..].find("module ") {
        let start = pos + off;
        let end_off = src[start..]
            .find("endmodule")
            .ok_or_else(|| "unterminated module block".to_string())?;
        let end = start + end_off + "endmodule".len();
        let name = src[start + "module ".len()..]
            .split_whitespace()
            .next()
            .ok_or_else(|| "module keyword with no name".to_string())?
            .to_string();
        out.push((name, format!("{}\n", &src[start..end])));
        pos = end;
    }
    if out.is_empty() {
        return Err("no module blocks in source".to_string());
    }
    Ok(out)
}

/// A semantically distinct `cfm_leaf` body for hierarchy-edit steps:
/// patching the shared leaf must transitively invalidate `cfm_mid`,
/// `cfm_deep`, and `top` without touching their sources.
fn leaf_variant(v: u64) -> String {
    format!(
        "module cfm_leaf #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);\n    \
         assign y = ((a | b) ^ (a + b)) + 6'd{};\nendmodule\n",
        v % 37 + 1
    )
}

impl IncrementalHarness {
    /// Wraps an already-trained model (share one with the other oracles).
    pub fn from_model(model: Arc<SnsModel>) -> Self {
        IncrementalHarness { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<SnsModel> {
        &self.model
    }

    /// Oracle 5: registers `spec` as a session, applies `k_edits` random
    /// module edits through [`SnsModel::predict_patch`], and after every
    /// step demands bit-identity with a from-scratch run of the merged
    /// source: equal tokens, equal predictions, equal per-terminal path
    /// samples (names *and* token sequences), and an incremental netlist
    /// equal to the flat reference netlist.
    ///
    /// Edits alternate between regenerating one item of the `top` module
    /// (via [`crate::generator::edit`]) and, when the design instantiates
    /// the deep helper hierarchy, patching the shared `cfm_leaf` alone —
    /// the latter exercises transitive invalidation across three levels.
    pub fn check(
        &self,
        spec: &DesignSpec,
        edit_seed: u64,
        k_edits: usize,
    ) -> Result<IncrementalStats, String> {
        let cfg = GenConfig::default();
        let store = SessionStore::default();
        // Persistent across steps so stale units must be invalidated, not
        // merely absent.
        let nl_cache = ModuleElabCache::unbounded();
        let mut modules: BTreeMap<String, String> =
            split_modules(&spec.verilog())?.into_iter().collect();
        let merged: String = modules.values().cloned().collect();
        let base = self
            .model
            .predict_session(&store, &merged, spec.top())
            .map_err(|e| format!("base predict_session failed: {e}"))?;
        self.check_netlists(&merged, spec.top(), &nl_cache)?;

        let mut stats = IncrementalStats::default();
        let mut cur_spec = spec.clone();
        let mut token = base.token;
        for step in 0..k_edits {
            let step_seed = edit_seed.wrapping_add(step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Every third step patches the shared leaf when the hierarchy
            // is in play; otherwise regenerate one item of `top`.
            let patch = if step % 3 == 2 && modules.contains_key("cfm_leaf") {
                leaf_variant(step_seed)
            } else {
                cur_spec = crate::generator::edit(&cur_spec, step_seed, &cfg);
                cur_spec.verilog()
            };
            for (name, text) in split_modules(&patch)? {
                modules.insert(name, text);
            }
            let outcome = self
                .model
                .predict_patch(&store, &token, &patch)
                .map_err(|e| format!("edit {step}: predict_patch failed: {e}"))?;

            // From-scratch reference: the merged source on a fresh store.
            let merged: String = modules.values().cloned().collect();
            let fresh = SessionStore::default();
            let scratch = self
                .model
                .predict_session(&fresh, &merged, spec.top())
                .map_err(|e| format!("edit {step}: from-scratch predict failed: {e}"))?;

            if outcome.token != scratch.token {
                return Err(format!(
                    "edit {step}: token diverges: patched {} vs from-scratch {}",
                    outcome.token, scratch.token
                ));
            }
            let (p, s) = (&outcome.prediction, &scratch.prediction);
            for (name, x, y) in [
                ("timing_ps", p.timing_ps, s.timing_ps),
                ("area_um2", p.area_um2, s.area_um2),
                ("power_mw", p.power_mw, s.power_mw),
            ] {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "edit {step}: prediction {name} diverges: incremental {x} vs scratch {y}"
                    ));
                }
            }
            if p.path_count != s.path_count || p.critical_path != s.critical_path {
                return Err(format!(
                    "edit {step}: path provenance diverges: {}/{:?} vs {}/{:?}",
                    p.path_count, p.critical_path, s.path_count, s.critical_path
                ));
            }
            let a = store
                .get(&outcome.token)
                .ok_or_else(|| format!("edit {step}: patched session not registered"))?;
            let b = fresh
                .get(&scratch.token)
                .ok_or_else(|| format!("edit {step}: scratch session not registered"))?;
            if a.samples() != b.samples() {
                return Err(format!(
                    "edit {step}: per-terminal samples diverge (incremental reuse \
                     returned different names or token sequences)"
                ));
            }
            let design = self.check_netlists(&merged, spec.top(), &nl_cache)?;
            stats.edits += 1;
            stats.reelaborated_modules += outcome.reelaborated.len();
            stats.design_modules += instantiated_modules(&design, spec.top()).len();
            stats.reused_terminals += outcome.reused_terminals;
            stats.resampled_terminals += outcome.resampled_terminals;
            token = outcome.token;
        }
        Ok(stats)
    }

    /// Flat-vs-incremental netlist equality on one merged source; returns
    /// the parsed design.
    fn check_netlists(
        &self,
        merged: &str,
        top: &str,
        cache: &ModuleElabCache,
    ) -> Result<Design, String> {
        let design =
            parse_source(merged).map_err(|e| format!("merged source failed to parse: {e}"))?;
        let flat = sns_netlist::elaborate(&design, top)
            .map_err(|e| format!("flat elaboration failed: {e}"))?;
        let inc = elaborate_incremental(&design, &design_hashes(&design), top, cache)
            .map_err(|e| format!("incremental elaboration failed: {e}"))?;
        if flat != inc {
            return Err(
                "incremental netlist differs from the flat reference netlist".to_string()
            );
        }
        Ok(design)
    }
}

