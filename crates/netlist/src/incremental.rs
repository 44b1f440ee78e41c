//! Hierarchy-first incremental elaboration.
//!
//! The flat elaborator ([`crate::elaborate::elaborate`]) inlines every
//! instance in place, so a one-line edit to a leaf module re-elaborates
//! the entire design. This module keeps the hierarchy first-class: each
//! `(module, transitive content hash, resolved parameters, input-binding
//! shape)` combination elaborates once into a relocatable *unit* — a
//! fragment netlist with placeholder nets standing in for the instance's
//! bound inputs — and a [`ModuleElabCache`] reuses units across designs
//! and requests. An edit invalidates exactly the modules whose own hash
//! changed plus their transitive instantiators (their transitive hash
//! changes too, so their keys miss); everything else splices from cache.
//!
//! The result is just the [`Netlist`], the same value the flat path
//! returns; no per-instance ledger comes with it. Which modules a design
//! elaborates is a property of its AST
//! ([`crate::hash::instantiated_modules`]), and an ECO session's reuse
//! after elaboration keys on the sampler's per-terminal region
//! signatures, not on cell ranges.
//!
//! # Bit-exactness contract
//!
//! [`elaborate_incremental`] produces a [`Netlist`] **identical** (by
//! `==`) to what [`crate::elaborate::elaborate`] produces for the same
//! design: same net ids, same cell order, same hierarchical names. This
//! holds because
//!
//! * a unit's fragment is built by the same `ModuleCtx` code that the
//!   flat path runs, with a relative (empty) prefix and placeholder nets
//!   whose widths are recorded in the cache key — so the fragment's nets
//!   and cells are created in exactly inline order, and
//! * splicing appends the fragment at the same net/cell ids inline
//!   elaboration would have used, prepending the instance prefix to every
//!   name.
//!
//! Resource-budget decisions replay exactly too: the flat path checks the
//! cell budget at every emission granule against the *whole-design* count,
//! so units record the maximum fragment-relative count observed at any
//! checkpoint during their construction, and splicing re-evaluates
//! `base + max_checkpoint` against the budget.
//! Instantiation-depth errors replay the same way via the maximum relative
//! depth at which the subtree enters an instance. On *failing* inputs the
//! two paths agree on the error **kind** (budget vs semantic), though
//! messages may name a different hierarchical prefix.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sns_rt::fifo::{Fifo, FifoStats};

use crate::ast::{Design, Dir, Instance, Module};
use crate::elaborate::{ElabLimits, ModuleCtx};
use crate::error::NetlistError;
use crate::hash::ModHash;
use crate::netlist::{NetId, Netlist};

/// Identity of one elaboration unit. Two instantiations share a unit —
/// and therefore an elaborated body — exactly when all fields agree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct UnitKey {
    /// Module definition name.
    module: String,
    /// Transitive content hash of the module (covers its own AST plus
    /// every module it transitively instantiates, whitespace/comment
    /// insensitive). See [`crate::hash`].
    trans: [u64; 2],
    /// Resolved parameter environment, sorted by name. Captures the
    /// parameter bindings of the instantiation, not just the overrides:
    /// defaults that depend on overridden parameters resolve here.
    params: Vec<(String, i64)>,
    /// Per input port (in port order): `Some(width)` of the bound parent
    /// net, or `None` for an unconnected input. Port-binding widths feed
    /// `adapt`, so they shape the fragment.
    shape: Vec<Option<u32>>,
    /// Elaboration budgets in force during the build — a unit built under
    /// one budget must not satisfy a lookup under another.
    max_cells: usize,
    max_net_bits: u32,
    max_replication: u64,
}

/// One cached elaboration unit: a relocatable fragment of the module's
/// body plus the metadata needed to splice it as if it had been inlined.
#[derive(Debug)]
pub(crate) struct ModuleUnit {
    /// The fragment netlist. Nets `0..n_ph` are placeholders for the
    /// instance's bound inputs (in port order); all other nets and every
    /// cell belong to the module body, in inline elaboration order.
    frag: Netlist,
    /// Number of leading placeholder nets.
    n_ph: usize,
    /// Output port name → fragment net carrying it.
    outputs: Vec<(String, NetId)>,
    /// Maximum fragment-relative cell count observed at any budget
    /// checkpoint while the unit was built (`None` if the subtree never
    /// checkpoints). Splicing at `base` reproduces the flat path's budget
    /// decision by testing `base + max_checkpoint` against the budget.
    max_checkpoint: Option<u64>,
    /// Maximum depth, relative to this unit's root (root body = 0), at
    /// which the subtree enters [`ModuleCtx::instance_preamble`]. Splicing
    /// under a parent at depth `d` reproduces the flat path's depth error
    /// iff `d + 1 + max_inst_depth_rel > 64`.
    max_inst_depth_rel: Option<u32>,
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// A bounded, thread-safe cache of elaboration units, shared across
/// designs and requests, on the workspace's one [`Fifo`].
///
/// Its ledger is the FIFO's insert-time ledger: a fresh insert is a
/// miss, and a lookup hit or an insert that finds the key already
/// present (two threads built the same unit concurrently) is a hit, so
/// `len == misses − evictions` holds under concurrency.
pub struct ModuleElabCache {
    fifo: Fifo<UnitKey, Arc<ModuleUnit>>,
    hits: AtomicU64,
    invalidations: AtomicU64,
}

impl std::fmt::Debug for ModuleElabCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleElabCache")
            .field("units", &self.stats())
            .field("hits", &self.hits())
            .field("invalidations", &self.invalidations())
            .finish()
    }
}

impl Default for ModuleElabCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl ModuleElabCache {
    /// Default unit capacity.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a cache bounded to `cap` units.
    pub fn new(cap: usize) -> Self {
        Self::with_cap(Some(cap))
    }

    /// Creates an unbounded cache.
    pub fn unbounded() -> Self {
        Self::with_cap(None)
    }

    fn with_cap(cap: Option<usize>) -> Self {
        ModuleElabCache {
            fifo: Fifo::new(cap),
            hits: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn lookup(&self, key: &UnitKey) -> Option<Arc<ModuleUnit>> {
        let found = self.fifo.read().get(key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Inserts a freshly built unit, returning the canonical `Arc` (the
    /// existing one if another thread inserted the same key first).
    fn insert(&self, key: UnitKey, unit: Arc<ModuleUnit>) -> Arc<ModuleUnit> {
        match self.fifo.insert_if_absent(key, Arc::clone(&unit)) {
            Some(existing) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                existing
            }
            None => unit,
        }
    }

    /// Units, bound, misses (`inserts`) and evictions, read under one
    /// lock.
    pub fn stats(&self) -> FifoStats {
        self.fifo.stats()
    }

    /// Units currently cached.
    pub fn len(&self) -> usize {
        self.stats().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unit bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.stats().budget
    }

    /// Unit reuses (lookup hits plus concurrent duplicate builds).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Fresh unit builds inserted.
    pub fn misses(&self) -> u64 {
        self.stats().inserts
    }

    /// Units evicted by the bound.
    pub fn evictions(&self) -> u64 {
        self.stats().evictions
    }

    /// Modules reported invalidated by content-hash change (counted by
    /// callers via [`ModuleElabCache::note_invalidations`]; invalidation
    /// itself is implicit — a changed hash is a different key).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Records that `n` modules were invalidated by a content change.
    pub fn note_invalidations(&self, n: u64) {
        self.invalidations.fetch_add(n, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Per-build bookkeeping: replay metadata for the unit under construction.
#[derive(Default)]
struct BuildFrame {
    max_checkpoint: Option<u64>,
    max_depth_rel: Option<u32>,
    /// Absolute instantiation depth of this fragment's root body. Fragment
    /// `ModuleCtx` depths are relative, so the flat path's recursion guard
    /// is re-anchored against `base + relative depth`.
    base: u32,
}

/// Drives one incremental elaboration: owns the design's content hashes,
/// points at the shared unit cache, and tracks the fragment-build stack.
/// Threaded through `ModuleCtx` as `Option<&IncEngine>`.
pub(crate) struct IncEngine<'d> {
    cache: &'d ModuleElabCache,
    hashes: &'d HashMap<String, ModHash>,
    /// In-flight fragment builds (innermost last). Empty while elaborating
    /// the top module body into the real netlist.
    frames: Mutex<Vec<BuildFrame>>,
}

impl<'d> IncEngine<'d> {
    fn new(hashes: &'d HashMap<String, ModHash>, cache: &'d ModuleElabCache) -> Self {
        IncEngine { cache, hashes, frames: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<BuildFrame>> {
        self.frames.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Called from [`ModuleCtx::check_cells`]: while a fragment is being
    /// built, every budget checkpoint (a fragment-relative cell count) is
    /// folded into the innermost frame's maximum.
    pub(crate) fn record_checkpoint(&self, count: u64) {
        if let Some(frame) = self.lock().last_mut() {
            frame.max_checkpoint = Some(frame.max_checkpoint.map_or(count, |m| m.max(count)));
        }
    }

    /// Records that an instance is being entered at (frame-relative)
    /// `depth`, for depth-error replay.
    fn record_inst_depth(&self, depth: u32) {
        if let Some(frame) = self.lock().last_mut() {
            frame.max_depth_rel = Some(frame.max_depth_rel.map_or(depth, |m| m.max(depth)));
        }
    }

    fn in_frame(&self) -> bool {
        !self.lock().is_empty()
    }

    /// Absolute instantiation depth of the innermost fragment root body
    /// (0 outside any build — top-module depths are already absolute).
    fn depth_base(&self) -> u32 {
        self.lock().last().map(|f| f.base).unwrap_or(0)
    }

    fn push_frame(&self, base: u32) {
        self.lock().push(BuildFrame { base, ..BuildFrame::default() });
    }

    fn pop_frame(&self) -> BuildFrame {
        self.lock().pop().unwrap_or_default()
    }

    /// Folds a spliced unit's replay metadata into the innermost frame:
    /// checkpoints inside the sub-subtree happen at `base + count`, and
    /// instance entries at `depth + 1 + rel`.
    fn absorb(&self, base: u64, depth: u32, unit: &ModuleUnit) {
        if let Some(frame) = self.lock().last_mut() {
            if let Some(m) = unit.max_checkpoint {
                let v = base + m;
                frame.max_checkpoint = Some(frame.max_checkpoint.map_or(v, |c| c.max(v)));
            }
            if let Some(r) = unit.max_inst_depth_rel {
                let v = depth + 1 + r;
                frame.max_depth_rel = Some(frame.max_depth_rel.map_or(v, |c| c.max(v)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The incremental instance path
// ---------------------------------------------------------------------------

/// The incremental replacement for the flat instance body: runs the exact
/// flat preamble, then splices the instance's elaboration unit (building
/// and caching it on miss) instead of inlining the child.
pub(crate) fn elab_instance_inc<'a>(
    ctx: &mut ModuleCtx<'a, '_>,
    inst: &Instance,
    engine: &'a IncEngine<'a>,
) -> Result<(), NetlistError> {
    engine.record_inst_depth(ctx.depth);
    // Fragment depths are relative; replay the flat recursion guard against
    // the absolute depth so recursive hierarchies terminate during builds.
    let abs_depth = engine.depth_base() + ctx.depth;
    if abs_depth > 64 {
        return Err(ctx.err("instantiation depth exceeds 64 (recursive hierarchy?)"));
    }
    let (child, overrides, bindings, outputs) = ctx.instance_preamble(inst)?;
    let child_prefix = format!("{}{}.", ctx.prefix, inst.name);

    // Resolve the child's full parameter environment without touching the
    // netlist (bind_params only evaluates constants).
    let params = {
        let mut scratch = Netlist::new("");
        let mut tmp =
            ModuleCtx::new(ctx.design, &mut scratch, child_prefix.clone(), ctx.depth + 1, ctx.limits);
        tmp.bind_params(child, &overrides)?;
        let mut params: Vec<(String, i64)> = tmp.params.into_iter().collect();
        params.sort();
        params
    };

    // The binding shape: per input port, the width of the bound parent net.
    let mut shape: Vec<Option<u32>> = Vec::new();
    let mut bound: Vec<NetId> = Vec::new();
    for p in &child.ports {
        if p.dir == Dir::Input {
            match bindings.get(&p.name) {
                Some(&net) => {
                    shape.push(Some(ctx.nl.net(net).width));
                    bound.push(net);
                }
                None => shape.push(None),
            }
        }
    }

    let key = UnitKey {
        module: inst.module.clone(),
        trans: engine.hashes.get(&inst.module).map(|h| h.trans).unwrap_or([0, 0]),
        params,
        shape,
        max_cells: ctx.limits.max_cells,
        max_net_bits: ctx.limits.max_net_bits,
        max_replication: ctx.limits.max_replication,
    };

    let unit = match engine.cache.lookup(&key) {
        Some(unit) => unit,
        None => {
            let built = build_unit(ctx, inst, engine, child, &overrides, &key.shape, abs_depth + 1)?;
            engine.cache.insert(key, built)
        }
    };

    let base = ctx.nl.cell_count() as u64;
    if engine.in_frame() {
        engine.absorb(base, ctx.depth, &unit);
    } else {
        // Splicing into the real netlist: replay the flat path's depth and
        // budget decisions with the absolute base now known.
        if let Some(r) = unit.max_inst_depth_rel {
            if ctx.depth as u64 + 1 + r as u64 > 64 {
                return Err(ctx.err("instantiation depth exceeds 64 (recursive hierarchy?)"));
            }
        }
        if let Some(m) = unit.max_checkpoint {
            if base + m > ctx.limits.max_cells as u64 {
                return Err(NetlistError::too_large(format!(
                    "{}cell count exceeds SNS_MAX_CELLS = {}",
                    ctx.prefix, ctx.limits.max_cells
                )));
            }
        }
    }

    let net_base = ctx.nl.splice_fragment(&unit.frag, unit.n_ph, &bound, &child_prefix);

    // Connect child outputs to parent lvalues, exactly as the flat path.
    let to_abs = |frag_net: NetId| -> NetId {
        let k = frag_net.0 as usize;
        if k < unit.n_ph {
            bound.get(k).copied().unwrap_or(frag_net)
        } else {
            NetId(net_base + (k - unit.n_ph) as u32)
        }
    };
    for (port_name, lv) in outputs {
        let frag_net = unit
            .outputs
            .iter()
            .find(|(name, _)| name == &port_name)
            .map(|&(_, net)| net)
            .ok_or_else(|| {
                NetlistError::elab(format!(
                    "{}`{}` has no declared output `{port_name}`",
                    ctx.prefix, inst.module
                ))
            })?;
        let abs = to_abs(frag_net);
        ctx.drive_lvalue(&lv, abs)?;
    }
    Ok(())
}

/// Builds the elaboration unit for one instance shape: placeholder nets
/// for the bound inputs, then the module body elaborated by the ordinary
/// [`ModuleCtx`] machinery at a relative prefix and depth.
fn build_unit<'a>(
    ctx: &ModuleCtx<'a, '_>,
    inst: &Instance,
    engine: &'a IncEngine<'a>,
    child: &Module,
    overrides: &HashMap<String, i64>,
    shape: &[Option<u32>],
    abs_base: u32,
) -> Result<Arc<ModuleUnit>, NetlistError> {
    engine.push_frame(abs_base);
    let result = (|| {
        let mut frag = Netlist::new(inst.module.clone());
        let mut ph: HashMap<String, NetId> = HashMap::new();
        let mut n_ph = 0usize;
        let mut shape_it = shape.iter();
        for p in &child.ports {
            if p.dir == Dir::Input {
                if let Some(Some(width)) = shape_it.next() {
                    let id = frag.add_net(*width, None);
                    ph.insert(p.name.clone(), id);
                    n_ph += 1;
                }
            }
        }
        let mut cctx = ModuleCtx::new(ctx.design, &mut frag, String::new(), 0, ctx.limits);
        cctx.inc = Some(engine);
        cctx.bind_params(child, overrides)?;
        cctx.declare_ports(child, Some(&ph))?;
        cctx.run(child)?;
        let outputs: Vec<(String, NetId)> = child
            .ports
            .iter()
            .filter(|p| p.dir == Dir::Output)
            .filter_map(|p| cctx.signals.get(&p.name).map(|s| (p.name.clone(), s.net)))
            .collect();
        drop(cctx);
        Ok((frag, n_ph, outputs))
    })();
    // Pop the frame whether or not the build succeeded (failed builds are
    // not cached; the error propagates, as it does on the flat path).
    let frame = engine.pop_frame();
    let (frag, n_ph, outputs) = result?;
    Ok(Arc::new(ModuleUnit {
        frag,
        n_ph,
        outputs,
        max_checkpoint: frame.max_checkpoint,
        max_inst_depth_rel: frame.max_depth_rel,
    }))
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// [`elaborate_incremental`] with explicit resource budgets.
///
/// # Errors
///
/// Exactly the failure conditions of
/// [`crate::elaborate::elaborate_with_limits`] (the two paths agree on
/// success/failure and on the error kind; see the module docs).
pub fn elaborate_incremental_with_limits(
    design: &Design,
    hashes: &HashMap<String, ModHash>,
    top: &str,
    cache: &ModuleElabCache,
    limits: ElabLimits,
) -> Result<Netlist, NetlistError> {
    let module = design
        .module(top)
        .ok_or_else(|| NetlistError::UnknownTop { name: top.to_string() })?;
    let engine = IncEngine::new(hashes, cache);
    let mut nl = Netlist::new(top);
    let mut ctx = ModuleCtx::new(design, &mut nl, String::new(), 0, limits);
    ctx.inc = Some(&engine);
    ctx.bind_params(module, &HashMap::new())?;
    ctx.declare_ports(module, None)?;
    ctx.run(module)?;
    nl.validate().map_err(NetlistError::elab)?;
    Ok(nl)
}

/// Elaborates `top` through the per-module unit cache, producing a netlist
/// **bit-identical** to [`crate::elaborate::elaborate`]. Budgets come from
/// the environment, as on the flat path.
///
/// `hashes` must be [`design_hashes`](crate::hash::design_hashes) of
/// `design`: unit cache keys are its transitive hashes, so another
/// design's map would splice the wrong units.
///
/// # Errors
///
/// See [`elaborate_incremental_with_limits`].
pub fn elaborate_incremental(
    design: &Design,
    hashes: &HashMap<String, ModHash>,
    top: &str,
    cache: &ModuleElabCache,
) -> Result<Netlist, NetlistError> {
    elaborate_incremental_with_limits(design, hashes, top, cache, ElabLimits::from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, elaborate_with_limits};
    use crate::hash::design_hashes;
    use crate::parser::parse_source;

    /// Asserts cold- and warm-cache incremental elaboration both equal the
    /// flat netlist, and returns the cache after both runs.
    fn assert_inc_eq(src: &str, top: &str) -> ModuleElabCache {
        let design = parse_source(src).unwrap();
        let flat = elaborate(&design, top).unwrap();
        let cache = ModuleElabCache::default();
        let cold = elaborate_incremental(&design, &design_hashes(&design), top, &cache).unwrap();
        assert_eq!(flat, cold, "cold-cache incremental != flat for `{top}`");
        let warm = elaborate_incremental(&design, &design_hashes(&design), top, &cache).unwrap();
        assert_eq!(flat, warm, "warm-cache incremental != flat for `{top}`");
        cache
    }

    const HIER: &str = "
        module leaf #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);
            assign y = (a & b) + (a ^ b);
        endmodule
        module mid #(parameter W = 4) (input clk, input [W-1:0] a, input [W-1:0] b,
                                       output [W-1:0] y);
            wire [W-1:0] t;
            reg [W-1:0] r;
            leaf #(.W(W)) u0 (.a(a), .b(b), .y(t));
            always @(posedge clk) r <= t;
            assign y = r;
        endmodule
        module top (input clk, input [7:0] p, input [7:0] q, output [7:0] r, output [3:0] s);
            wire [3:0] narrow;
            mid #(.W(8)) m8 (.clk(clk), .a(p), .b(q), .y(r));
            mid #(.W(4)) m4 (.clk(clk), .a(p[3:0]), .b(narrow), .y(s));
            leaf u (.a(p[3:0]), .b(q[7:4]), .y(narrow));
        endmodule";

    #[test]
    fn incremental_matches_flat_without_hierarchy() {
        let cache = assert_inc_eq(
            "module mac (input clk, input [7:0] a, input [7:0] b, output [15:0] out);
                 reg [15:0] acc;
                 always @(posedge clk) acc <= acc + a * b;
                 assign out = acc;
             endmodule",
            "mac",
        );
        // No instances, so no units.
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn incremental_matches_flat_on_parameterized_hierarchy() {
        assert_inc_eq(HIER, "top");
        let design = parse_source(HIER).unwrap();
        let cache = ModuleElabCache::default();
        elaborate_incremental(&design, &design_hashes(&design), "top", &cache).unwrap();
        // Cold: `m8` and `m4` bind `mid` with different parameters, so they
        // build two units, each with its own leaf (8- and 4-bit). The direct
        // `u` then reuses `m4.u0`'s 4-bit leaf unit: 4 builds, 1 reuse.
        assert_eq!((cache.misses(), cache.hits()), (4, 1));
        assert_eq!(cache.len(), 4);
        // Warm: each of the three direct instances hits, nested ones are
        // not looked up again (they live inside their parent's unit).
        elaborate_incremental(&design, &design_hashes(&design), "top", &cache).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (4, 4));
    }

    #[test]
    fn incremental_matches_flat_with_memories_and_partials() {
        assert_inc_eq(
            "module store (input clk, input we, input [2:0] addr, input [7:0] d,
                           output [7:0] q);
                 reg [7:0] mem [0:7];
                 always @(posedge clk) if (we) mem[addr] <= d;
                 assign q = mem[addr];
             endmodule
             module top (input clk, input we, input [2:0] addr, input [7:0] d,
                         output [15:0] y);
                 wire [7:0] q;
                 store s (.clk(clk), .we(we), .addr(addr), .d(d), .q(q));
                 assign y[7:0] = q;
                 assign y[15:8] = ~q;
             endmodule",
            "top",
        );
    }

    #[test]
    fn incremental_matches_flat_with_odd_bindings() {
        // Unconnected inputs, width-mismatched bindings (both directions),
        // an output into a concat lvalue, and a positional connection.
        assert_inc_eq(
            "module pass (input [7:0] a, input [7:0] b, output [7:0] y, output [7:0] z);
                 assign y = a + b;
                 assign z = a - b;
             endmodule
             module top (input [3:0] p, input [11:0] q, output [15:0] y);
                 pass u (p, .b(q), .y({y[15:12], y[11:8]}), .z(y[7:0]));
             endmodule",
            "top",
        );
        assert_inc_eq(
            "module pass (input [7:0] a, input [7:0] b, output [7:0] y);
                 assign y = a & b;
             endmodule
             module top (input [7:0] p, output [7:0] y);
                 pass u (.a(p), .y(y));
             endmodule",
            "top",
        );
    }

    #[test]
    fn shared_units_are_reused_across_designs() {
        let leaf = "module leaf (input [3:0] a, input [3:0] b, output [3:0] y);
                        assign y = (a & b) + (a ^ b);
                    endmodule";
        let design_a = parse_source(&format!(
            "{leaf} module ta (input [3:0] x, output [3:0] y); leaf u (.a(x), .b(x), .y(y)); endmodule"
        ))
        .unwrap();
        // design_b differs in whitespace/comments inside leaf — the unit
        // must still be shared (content hashing is AST-level).
        let leaf_b = "module   leaf(input [3:0] a, /* c */ input [3:0] b,
                          output [3:0] y);
                          assign y=(a&b)+(a^b); // same body
                      endmodule";
        let design_b = parse_source(&format!(
            "{leaf_b} module tb (input [3:0] p, input [3:0] q, output [3:0] y);
                 leaf v (.a(p), .b(q), .y(y));
             endmodule"
        ))
        .unwrap();
        let cache = ModuleElabCache::default();
        elaborate_incremental(&design_a, &design_hashes(&design_a), "ta", &cache).unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        let nl_b =
            elaborate_incremental(&design_b, &design_hashes(&design_b), "tb", &cache).unwrap();
        assert_eq!(cache.misses(), 1, "identical leaf content must not rebuild");
        assert_eq!(cache.hits(), 1);
        assert_eq!(nl_b, elaborate(&design_b, "tb").unwrap());
    }

    #[test]
    fn body_edits_invalidate_only_changed_subtrees() {
        let mid_top = "
            module mid (input [3:0] a, output [3:0] y); leaf u (.a(a), .y(y)); endmodule
            module top (input [3:0] a, output [3:0] y); mid m (.a(a), .y(y)); endmodule";
        let v1 = parse_source(&format!(
            "module leaf (input [3:0] a, output [3:0] y); assign y = a; endmodule {mid_top}"
        ))
        .unwrap();
        let v2 = parse_source(&format!(
            "module leaf (input [3:0] a, output [3:0] y); assign y = ~a; endmodule {mid_top}"
        ))
        .unwrap();
        let cache = ModuleElabCache::default();
        elaborate_incremental(&v1, &design_hashes(&v1), "top", &cache).unwrap();
        assert_eq!(cache.misses(), 2); // mid + leaf
        let nl2 = elaborate_incremental(&v2, &design_hashes(&v2), "top", &cache).unwrap();
        // The leaf changed → both leaf and mid rebuild (transitive hash).
        assert_eq!(cache.misses(), 4);
        assert_eq!(nl2, elaborate(&v2, "top").unwrap());
        // Re-running v1 hits everything.
        let before = cache.misses();
        elaborate_incremental(&v1, &design_hashes(&v1), "top", &cache).unwrap();
        assert_eq!(cache.misses(), before);
    }

    #[test]
    fn counters_reconcile_under_capacity_pressure() {
        let cache = ModuleElabCache::new(2);
        for w in 1..=6u32 {
            let src = format!(
                "module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
                     assign y = ~a;
                 endmodule
                 module top (input [{hi}:0] x, output [{hi}:0] y);
                     leaf #(.W({w})) u (.a(x), .y(y));
                 endmodule",
                hi = w - 1
            );
            let design = parse_source(&src).unwrap();
            elaborate_incremental(&design, &design_hashes(&design), "top", &cache).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.len() as u64, cache.misses() - cache.evictions());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn budget_errors_replay_from_cache() {
        let src = "
            module fat (input [7:0] a, output [7:0] y);
                assign y = ((a + 8'd1) * (a + 8'd2)) ^ ((a - 8'd3) & (a | 8'd4));
            endmodule
            module top (input [7:0] p, output [7:0] y0, output [7:0] y1);
                fat u0 (.a(p), .y(y0));
                fat u1 (.a(y0), .y(y1));
            endmodule";
        let design = parse_source(src).unwrap();
        let tight = ElabLimits { max_cells: 12, ..ElabLimits::default() };
        let flat = elaborate_with_limits(&design, "top", tight);
        assert!(matches!(flat, Err(NetlistError::TooLarge { .. })));
        let cache = ModuleElabCache::default();
        for _ in 0..2 {
            // Cold then warm: both must reproduce the budget error.
            let hashes = design_hashes(&design);
            let inc = elaborate_incremental_with_limits(&design, &hashes, "top", &cache, tight);
            assert!(matches!(inc, Err(NetlistError::TooLarge { .. })));
        }
        // And the loose-budget elaboration is unaffected (distinct keys).
        let loose = elaborate_incremental(&design, &design_hashes(&design), "top", &cache).unwrap();
        assert_eq!(loose, elaborate(&design, "top").unwrap());
    }

    #[test]
    fn depth_errors_replay_from_cache() {
        let src = "
            module a (input x, output y); b u (.x(x), .y(y)); endmodule
            module b (input x, output y); a u (.x(x), .y(y)); endmodule
            module top (input x, output y); a u (.x(x), .y(y)); endmodule";
        let design = parse_source(src).unwrap();
        assert!(elaborate(&design, "top").is_err());
        let cache = ModuleElabCache::default();
        for _ in 0..2 {
            let hashes = design_hashes(&design);
            assert!(elaborate_incremental(&design, &hashes, "top", &cache).is_err());
        }
    }

    #[test]
    fn unbounded_and_zero_capacity_caches() {
        let design = parse_source(
            "module leaf (input x, output y); assign y = ~x; endmodule
             module top (input x, output y); leaf u (.x(x), .y(y)); endmodule",
        )
        .unwrap();
        let cache = ModuleElabCache::unbounded();
        assert_eq!(cache.capacity(), None);
        elaborate_incremental(&design, &design_hashes(&design), "top", &cache).unwrap();
        assert_eq!(cache.len(), 1);
        // A zero bound evicts every unit as it lands; the ledger still
        // reconciles and the netlist is unaffected.
        let none = ModuleElabCache::new(0);
        assert_eq!(none.capacity(), Some(0));
        let nl = elaborate_incremental(&design, &design_hashes(&design), "top", &none).unwrap();
        assert_eq!(nl, elaborate(&design, "top").unwrap());
        assert!(none.is_empty());
        assert_eq!((none.misses(), none.evictions()), (1, 1));
        assert_eq!(none.len() as u64, none.misses() - none.evictions());
        none.note_invalidations(3);
        assert_eq!(none.invalidations(), 3);
    }
}
