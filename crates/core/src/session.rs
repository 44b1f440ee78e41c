//! Per-design prediction sessions and ECO (engineering change order)
//! re-prediction.
//!
//! A full prediction through [`SnsModel::predict_session`] registers the
//! design in a [`SessionStore`] under a *content-addressed* base token.
//! A later [`SnsModel::predict_patch`] call names that token plus
//! replacement module sources, and the whole pipeline re-runs
//! *incrementally*:
//!
//! * elaboration goes through the shared [`ModuleElabCache`] — only
//!   modules whose transitive content hash changed rebuild, everything
//!   else splices from cache ([`sns_netlist::elaborate_incremental`]),
//! * the GraphIR is built from the spliced netlist exactly as for a flat
//!   prediction ([`GraphIr::from_netlist`]),
//! * sampling reuses the cached per-terminal paths of every terminal
//!   whose forward-region signature the edit did not change
//!   ([`sns_sampler::PathSampler::resample`]; a new design resamples
//!   against an empty map, so every terminal is sampled),
//! * per-path Circuitformer predictions come from the model's
//!   [`PathPredictionCache`](crate::PathPredictionCache).
//!
//! The incremental result is **bit-identical** to running the same merged
//! source from scratch — enforced end-to-end by the `incremental`
//! conformance oracle in `sns-conformance`. It is *not* the flat
//! [`SnsModel::predict_verilog`] answer at `k > 1`: flat sampling draws
//! from one RNG stream in vertex-id order, while session sampling seeds
//! each terminal from its name, so the two sample different path sets.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

use sns_graphir::GraphIr;
use sns_netlist::ast::Design;
use sns_netlist::{
    design_hashes, elaborate_incremental, instantiated_modules, parse_source, ModHash,
    ModuleElabCache, Netlist, NetlistError,
};
use sns_rt::fifo::Fifo;
use sns_rt::hash::Fnv128;
use sns_sampler::{flatten_samples, PathSampler, PortablePath, ResampleOutcome, TerminalSample};

use crate::pipeline::{Hooks, Inline, Stage};
use crate::predictor::{DesignPrediction, SnsModel};

/// Default bound on concurrently retained sessions.
pub const DEFAULT_SESSION_CAP: usize = 64;

/// Why a session-layer prediction failed.
#[derive(Debug)]
pub enum SessionError {
    /// The `base` token does not name a live session (expired or never
    /// registered).
    UnknownBase(String),
    /// The front-end rejected the source or the patched design (parse,
    /// elaboration, or resource-budget failure).
    Front(NetlistError),
}

impl From<NetlistError> for SessionError {
    fn from(e: NetlistError) -> Self {
        SessionError::Front(e)
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownBase(token) => {
                write!(f, "unknown base design `{token}` (expired or never registered)")
            }
            SessionError::Front(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// The retained state of one predicted design: everything an ECO needs
/// to re-predict incrementally.
#[derive(Debug)]
pub struct DesignSession {
    token: String,
    top: String,
    design: Design,
    /// Per-module content hashes at registration time.
    hashes: HashMap<String, ModHash>,
    /// Per-terminal cached samples, keyed by terminal name.
    /// Reference-counted so a resample reuses them by pointer.
    samples: HashMap<String, Arc<TerminalSample>>,
}

impl DesignSession {
    /// The cached per-terminal path samples (terminal name → sample).
    pub fn samples(&self) -> &HashMap<String, Arc<TerminalSample>> {
        &self.samples
    }
}

/// Holds live [`DesignSession`]s (bounded, oldest registered first out)
/// plus the [`ModuleElabCache`] they share. Owned by the caller (the
/// serving daemon keeps one per process) and passed into
/// [`SnsModel::predict_session`] / [`SnsModel::predict_patch`].
pub struct SessionStore {
    elab: Arc<ModuleElabCache>,
    sessions: Fifo<str, Arc<DesignSession>>,
}

impl std::fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("sessions", &self.session_count())
            .field("elab_cache", &self.elab)
            .finish()
    }
}

impl Default for SessionStore {
    fn default() -> Self {
        Self::new(DEFAULT_SESSION_CAP, ModuleElabCache::DEFAULT_CAPACITY)
    }
}

impl SessionStore {
    /// Creates a store bounded to `session_cap` sessions (at least one)
    /// with a fresh elaboration-unit cache bounded to `elab_cap` units.
    pub fn new(session_cap: usize, elab_cap: usize) -> Self {
        SessionStore {
            elab: Arc::new(ModuleElabCache::new(elab_cap)),
            sessions: Fifo::new(Some(session_cap.max(1))),
        }
    }

    /// The shared per-module elaboration-unit cache.
    pub fn elab_cache(&self) -> &ModuleElabCache {
        &self.elab
    }

    /// The session under `token`, if still live.
    pub fn get(&self, token: &str) -> Option<Arc<DesignSession>> {
        self.sessions.read().get(token).cloned()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.stats().len
    }

    /// Drops every session (the elaboration cache is untouched).
    pub fn clear(&self) {
        self.sessions.clear();
    }

    /// Registers `session`; re-registering a token replaces its session
    /// in place.
    fn insert(&self, session: Arc<DesignSession>) {
        self.sessions.replace(session.token.as_str(), session.clone());
    }

    /// The rest of a session's `Parse` stage: hashes `design` (once; the
    /// incremental elaborator keys its units on the same map), notes which
    /// modules changed since `prev` and elaborates incrementally.
    pub(crate) fn elaborate(
        &self,
        design: Design,
        top: &str,
        prev: Option<Arc<DesignSession>>,
    ) -> Result<SessionFront, NetlistError> {
        let hashes = design_hashes(&design);
        // Implicit invalidation: a changed transitive hash is a different
        // cache key.
        let changed: BTreeSet<String> = match &prev {
            Some(p) => hashes
                .iter()
                .filter(|(name, h)| p.hashes.get(*name).map(|old| old.trans) != Some(h.trans))
                .map(|(name, _)| name.clone())
                .collect(),
            None => hashes.keys().cloned().collect(),
        };
        if prev.is_some() {
            self.elab.note_invalidations(changed.len() as u64);
        }
        let netlist = elaborate_incremental(&design, &hashes, top, &self.elab)?;
        Ok(SessionFront { design, top: top.to_string(), prev, hashes, changed, netlist })
    }

    /// [`elaborate`](Self::elaborate) for an ECO: the `base` session's
    /// design with `patch`'s modules replacing (or joining) its own.
    pub(crate) fn elaborate_patch(
        &self,
        base: &str,
        patch: &str,
    ) -> Result<SessionFront, SessionError> {
        let prev = self.get(base).ok_or_else(|| SessionError::UnknownBase(base.to_string()))?;
        let mut design = prev.design.clone();
        for m in parse_source(patch)?.modules {
            match design.modules.iter_mut().find(|x| x.name == m.name) {
                Some(slot) => *slot = m,
                None => design.modules.push(m),
            }
        }
        let top = prev.top.clone();
        Ok(self.elaborate(design, &top, Some(prev))?)
    }
}

/// The result of a session-layer prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Content-addressed token of the (possibly patched) design — the
    /// `base` for further patches.
    pub token: String,
    /// The design prediction.
    pub prediction: DesignPrediction,
    /// Module names that were (re-)elaborated for this prediction: on a
    /// full predict, every instantiated module; on a patch, the modules
    /// whose transitive content hash changed. Sorted.
    pub reelaborated: Vec<String>,
    /// Terminals whose cached path sample was reused unchanged.
    pub reused_terminals: usize,
    /// Terminals that were re-sampled.
    pub resampled_terminals: usize,
}

/// A session design after the `Parse` stage.
pub(crate) struct SessionFront {
    design: Design,
    top: String,
    /// The base session of an ECO.
    prev: Option<Arc<DesignSession>>,
    hashes: HashMap<String, ModHash>,
    /// Modules whose transitive hash differs from `prev`'s (all if none).
    changed: BTreeSet<String>,
    netlist: Netlist,
}

impl SnsModel {
    /// Full prediction from Verilog source through the incremental
    /// pipeline, registering the design in `store` for later
    /// [`SnsModel::predict_patch`] calls. The prediction is bit-identical
    /// to re-running the same source on a fresh store.
    ///
    /// # Errors
    ///
    /// Returns the front-end error if the source does not parse or
    /// elaborate.
    pub fn predict_session(
        &self,
        store: &SessionStore,
        source: &str,
        top: &str,
    ) -> Result<SessionOutcome, NetlistError> {
        let start = Instant::now();
        let front = store.elaborate(parse_source(source)?, top, None)?;
        let Ok(outcome) = self.run_session(store, front, &Inline::default(), start, start);
        Ok(outcome)
    }

    /// ECO re-prediction: replaces modules of the `base` session's design
    /// with the definitions in `patch` (new modules are appended), then
    /// re-predicts incrementally. Returns the outcome of the *patched*
    /// design, which is itself registered as a new session.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownBase`] if `base` is not live;
    /// [`SessionError::Front`] if the patch does not parse or the patched
    /// design does not elaborate.
    pub fn predict_patch(
        &self,
        store: &SessionStore,
        base: &str,
        patch: &str,
    ) -> Result<SessionOutcome, SessionError> {
        let start = Instant::now();
        let front = store.elaborate_patch(base, patch)?;
        let Ok(outcome) = self.run_session(store, front, &Inline::default(), start, start);
        Ok(outcome)
    }

    /// The session pipeline after elaboration (begun at `t`): GraphIR,
    /// per-terminal (re-)sampling, the shared tail, and — unless
    /// a hook stopped the run — registration in `store`.
    pub(crate) fn run_session<H: Hooks>(
        &self,
        store: &SessionStore,
        front: SessionFront,
        hooks: &H,
        t: Instant,
        start: Instant,
    ) -> Result<SessionOutcome, H::Stop> {
        hooks.after(Stage::Parse, t.elapsed())?;
        let t = Instant::now();
        let SessionFront { design, top, prev, hashes, changed, netlist } = front;
        let graph = &GraphIr::from_netlist(&netlist);
        let no_samples = HashMap::new();
        let prev_samples = prev.as_ref().map_or(&no_samples, |p| &p.samples);
        let ResampleOutcome { samples, reused, resampled } =
            PathSampler::new(self.sample.clone()).resample(graph, &self.vocab, prev_samples);
        let flat: Vec<&PortablePath> = flatten_samples(&samples, self.sample.max_paths);
        hooks.after(Stage::Sample, t.elapsed())?;

        let t = Instant::now();
        let seqs: Vec<Vec<usize>> = flat.iter().map(|p| p.tokens.clone()).collect();
        // Sessions carry no per-register activity map, so every path's
        // coefficient is 1.0 — same as `predict_netlist(_, None)`.
        let items = flat.iter().map(|p| (1.0f32, move || p.names.clone()));
        let prediction = self.infer_and_aggregate(hooks, t, graph, &seqs, items, start)?;

        // Reported modules: the changed set restricted to what this design
        // actually elaborates (the top plus every module instantiated
        // under it).
        let reelaborated: Vec<String> =
            changed.intersection(&instantiated_modules(&design, &top)).cloned().collect();

        let token = design_token(&hashes, &top);
        let samples_by_name: HashMap<String, Arc<TerminalSample>> =
            samples.into_iter().map(|s| (s.name.clone(), s)).collect();
        store.insert(Arc::new(DesignSession {
            token: token.clone(),
            top,
            design,
            hashes,
            samples: samples_by_name,
        }));

        Ok(SessionOutcome {
            token,
            prediction,
            reelaborated,
            reused_terminals: reused,
            resampled_terminals: resampled,
        })
    }
}

/// Content-addressed design token: a stable hex digest over the top name
/// and every module's transitive content hash. Whitespace/comment-only
/// variants of a design map to the same token.
fn design_token(hashes: &HashMap<String, ModHash>, top: &str) -> String {
    let mut h = Fnv128::new();
    top.hash(&mut h);
    let mut modules: Vec<(&String, &ModHash)> = hashes.iter().collect();
    modules.sort_unstable_by_key(|(name, _)| *name);
    for (name, m) in modules {
        name.hash(&mut h);
        m.trans.hash(&mut h);
    }
    let [h0, h1] = h.finish128();
    format!("d{h0:016x}{h1:016x}")
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::pipeline::{Input, Output};
    use crate::train::{train_sns, SnsTrainConfig};

    /// One tiny model shared by every test in this module — training
    /// dominates runtime, prediction does not.
    pub(crate) fn tiny_model() -> &'static SnsModel {
        static MODEL: OnceLock<SnsModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let designs = sns_designs::catalog();
            let mut cfg = SnsTrainConfig::fast();
            cfg.augment = crate::dataset::AugmentConfig::none();
            cfg.sample =
                sns_sampler::SampleConfig::paper_default().with_max_paths(250).with_k(2);
            train_sns(&designs[..3], &cfg).0
        })
    }

    pub(crate) fn src(leaf_body: &str) -> String {
        format!(
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
        )
    }

    pub(crate) fn assert_same_prediction(a: &DesignPrediction, b: &DesignPrediction) {
        assert_eq!(a.timing_ps, b.timing_ps);
        assert_eq!(a.area_um2, b.area_um2);
        assert_eq!(a.power_mw, b.power_mw);
        assert_eq!(a.path_count, b.path_count);
        assert_eq!(a.critical_path, b.critical_path);
    }

    #[test]
    fn patch_prediction_matches_from_scratch() {
        let model = tiny_model();
        let store = SessionStore::default();
        let base = model.predict_session(&store, &src("a + 8'd1"), "top").unwrap();
        assert_eq!(store.session_count(), 1);
        assert!(base.reelaborated.contains(&"leaf".to_string()));

        let patched = model
            .predict_patch(
                &store,
                &base.token,
                "module leaf (input [7:0] a, output [7:0] y); assign y = (a * 8'd5) ^ 8'h3C; endmodule",
            )
            .unwrap();
        // Only the edited module re-elaborates; the register terminal's
        // sample is reused.
        assert_eq!(patched.reelaborated, vec!["leaf".to_string(), "top".to_string()]);
        assert!(patched.reused_terminals >= 1, "register sample should be reused");
        assert!(patched.resampled_terminals >= 1);

        // Bit-identical to predicting the merged source from scratch on a
        // completely fresh store and path cache.
        let fresh_model = model.clone();
        fresh_model.clear_cache();
        let scratch = fresh_model
            .predict_session(&SessionStore::default(), &src("(a * 8'd5) ^ 8'h3C"), "top")
            .unwrap();
        assert_eq!(patched.token, scratch.token);
        assert_same_prediction(&patched.prediction, &scratch.prediction);
    }

    #[test]
    fn explicit_inline_knobs_keep_predictions_bit_identical() {
        let model = tiny_model();
        let leaf = "module leaf (input [7:0] a, output [7:0] y); assign y = a ^ 8'h5A; endmodule";
        let source = src("a + 8'd1");
        let run = |hooks: Inline| {
            let (m, store) = (model.fork_replica(), SessionStore::default());
            let session = |input| match m.predict_with(input, &hooks, Instant::now()) {
                Ok(Output::Session(o)) => o,
                other => panic!("expected a session outcome, got {other:?}"),
            };
            let base = session(Input::Session { store: &store, verilog: &source, top: "top" });
            let patched = session(Input::Patch { store: &store, base: &base.token, patch: leaf });
            (base.prediction, patched.prediction)
        };
        let (base, patched) = run(Inline::default());
        let (b, p) = run(Inline { threads: 3, batch: 2 });
        assert_same_prediction(&base, &b);
        assert_same_prediction(&patched, &p);
    }

    #[test]
    fn token_is_content_addressed() {
        let model = tiny_model();
        let store = SessionStore::default();
        let a = model.predict_session(&store, &src("a + 8'd1"), "top").unwrap();
        // Comment/whitespace-only reformulation → same token, same session.
        let reformatted = src("a  +  /* same */  8'd1").replace("module leaf", "module  leaf");
        let b = model.predict_session(&store, &reformatted, "top").unwrap();
        assert_eq!(a.token, b.token);
        assert_eq!(store.session_count(), 1);
        assert_same_prediction(&a.prediction, &b.prediction);
        // A real edit changes the token.
        let c = model.predict_session(&store, &src("a - 8'd1"), "top").unwrap();
        assert_ne!(a.token, c.token);
        assert_eq!(store.session_count(), 2);
    }

    #[test]
    fn unknown_base_and_bad_patch_errors() {
        let model = tiny_model();
        let store = SessionStore::default();
        assert!(matches!(
            model.predict_patch(&store, "dsn-nope", "module m (); endmodule"),
            Err(SessionError::UnknownBase(_))
        ));
        let base = model.predict_session(&store, &src("a + 8'd1"), "top").unwrap();
        assert!(matches!(
            model.predict_patch(&store, &base.token, "module broken ("),
            Err(SessionError::Front(_))
        ));
        // A patch that makes elaboration fail is also a front-end error.
        assert!(matches!(
            model.predict_patch(
                &store,
                &base.token,
                "module leaf (input [7:0] a, output [7:0] y); assign y = nosuch; endmodule",
            ),
            Err(SessionError::Front(_))
        ));
    }

    #[test]
    fn session_store_evicts_fifo() {
        let model = tiny_model();
        let store = SessionStore::new(2, 64);
        let t0 = model.predict_session(&store, &src("a + 8'd1"), "top").unwrap().token;
        let t1 = model.predict_session(&store, &src("a + 8'd2"), "top").unwrap().token;
        let t2 = model.predict_session(&store, &src("a + 8'd3"), "top").unwrap().token;
        assert_eq!(store.session_count(), 2);
        assert!(store.get(&t0).is_none(), "oldest session evicted");
        assert!(store.get(&t1).is_some() && store.get(&t2).is_some());
        store.clear();
        assert_eq!(store.session_count(), 0);
    }

    #[test]
    fn chained_patches_stay_consistent() {
        let model = tiny_model();
        let store = SessionStore::default();
        let mut token =
            model.predict_session(&store, &src("a + 8'd1"), "top").unwrap().token;
        for (i, body) in
            ["a ^ 8'h0F", "(a + 8'd9) & a", "a * 8'd3", "~a"].iter().enumerate()
        {
            let patch = format!(
                "module leaf (input [7:0] a, output [7:0] y); assign y = {body}; endmodule"
            );
            let out = model.predict_patch(&store, &token, &patch).unwrap();
            let scratch_model = model.clone();
            scratch_model.clear_cache();
            let scratch = scratch_model
                .predict_session(&SessionStore::default(), &src(body), "top")
                .unwrap();
            assert_eq!(out.token, scratch.token, "step {i}");
            assert_same_prediction(&out.prediction, &scratch.prediction);
            token = out.token;
        }
        // The shared elab cache saw real reuse across the chain.
        assert!(store.elab_cache().hits() > 0);
        assert!(store.elab_cache().invalidations() > 0);
    }
}
