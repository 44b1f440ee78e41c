//! Elaboration: AST → flat [`Netlist`].
//!
//! The elaborator performs the same job as Yosys's `hierarchy`, `proc` and
//! `memory` passes combined, at the coarse-cell level SNS consumes:
//!
//! * parameters are evaluated and substituted (hierarchy is flattened, with
//!   instance names used as prefixes),
//! * expressions become functional cells with Verilog-style
//!   context-determined widths,
//! * clocked `always` blocks become D-flip-flops whose `D` inputs are mux
//!   chains encoding the block's conditional structure,
//! * combinational `always` blocks become mux logic,
//! * memories (`reg [..] m [0:N]`) become per-entry flip-flops with a write
//!   decoder and balanced mux read trees.

use std::collections::{BTreeMap, HashMap};

use crate::ast::{
    Always, BinOp, Connection, Decl, Design, Dir, Expr, Instance, Item, LValue, Module, Range,
    Stmt, UnOp,
};
use crate::error::NetlistError;
use crate::netlist::{Cell, CellKind, NetId, Netlist, PortDir};

/// Maximum memory depth the elaborator will expand into flip-flops.
const MAX_MEM_DEPTH: u64 = 65536;

/// Resource budgets enforced while a design elaborates.
///
/// The front-end accepts untrusted source (`sns-serve` feeds network
/// Verilog straight into [`elaborate`]), and elaboration *amplifies*:
/// `{100000000{x}}`, `wire [100000000:0]`, deep parameterized hierarchies
/// and wide memories can turn a few hundred bytes of source into gigabytes
/// of netlist. Each budget is checked **before** the corresponding
/// allocation and failures surface as [`NetlistError::TooLarge`], which
/// `sns-serve` maps to HTTP 422.
///
/// [`ElabLimits::from_env`] reads the `SNS_MAX_CELLS`, `SNS_MAX_NET_BITS`
/// and `SNS_MAX_REPLICATION` environment variables so deployments can
/// tighten (or relax) the budgets without recompiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElabLimits {
    /// Maximum number of cells in the elaborated netlist
    /// (`SNS_MAX_CELLS`, default 4,000,000). Checked as cells are
    /// emitted, so elaboration stops shortly after crossing the budget
    /// instead of allocating everything first.
    pub max_cells: usize,
    /// Maximum width in bits of any single net (`SNS_MAX_NET_BITS`,
    /// default 65,536). Bounds ranges, concatenations, replications and
    /// part selects.
    pub max_net_bits: u32,
    /// Maximum `{N{e}}` replication count (`SNS_MAX_REPLICATION`,
    /// default 65,536).
    pub max_replication: u64,
}

impl ElabLimits {
    /// Default cell budget.
    pub const DEFAULT_MAX_CELLS: usize = 4_000_000;
    /// Default net-width budget in bits.
    pub const DEFAULT_MAX_NET_BITS: u32 = 65_536;
    /// Default replication-count budget.
    pub const DEFAULT_MAX_REPLICATION: u64 = 65_536;

    /// Builds limits from `SNS_MAX_CELLS` / `SNS_MAX_NET_BITS` /
    /// `SNS_MAX_REPLICATION`, falling back to the defaults when a
    /// variable is unset, unparsable, or zero.
    pub fn from_env() -> Self {
        fn read(name: &str, default: u64) -> u64 {
            std::env::var(name)
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        }
        ElabLimits {
            max_cells: read("SNS_MAX_CELLS", Self::DEFAULT_MAX_CELLS as u64) as usize,
            max_net_bits: read("SNS_MAX_NET_BITS", Self::DEFAULT_MAX_NET_BITS as u64)
                .min(u32::MAX as u64) as u32,
            max_replication: read("SNS_MAX_REPLICATION", Self::DEFAULT_MAX_REPLICATION),
        }
    }
}

impl Default for ElabLimits {
    fn default() -> Self {
        ElabLimits {
            max_cells: Self::DEFAULT_MAX_CELLS,
            max_net_bits: Self::DEFAULT_MAX_NET_BITS,
            max_replication: Self::DEFAULT_MAX_REPLICATION,
        }
    }
}

/// Elaborates `top` (and everything it instantiates) from a parsed design
/// into a flat [`Netlist`], with budgets taken from the environment
/// (see [`ElabLimits::from_env`]).
///
/// # Errors
///
/// Returns [`NetlistError::UnknownTop`] if `top` is not defined,
/// [`NetlistError::Elab`] for semantic problems (unknown identifiers,
/// non-constant contexts that require constants, arity/width mismatches,
/// unsupported constructs), or [`NetlistError::TooLarge`] when the design
/// exceeds a resource budget.
pub fn elaborate(design: &Design, top: &str) -> Result<Netlist, NetlistError> {
    elaborate_with_limits(design, top, ElabLimits::from_env())
}

/// [`elaborate`] with explicit resource budgets.
pub fn elaborate_with_limits(
    design: &Design,
    top: &str,
    limits: ElabLimits,
) -> Result<Netlist, NetlistError> {
    let module = design
        .module(top)
        .ok_or_else(|| NetlistError::UnknownTop { name: top.to_string() })?;
    let mut nl = Netlist::new(top);
    let mut ctx = ModuleCtx::new(design, &mut nl, String::new(), 0, limits);
    // Evaluate top-level parameters with defaults only.
    ctx.bind_params(module, &HashMap::new())?;
    ctx.declare_ports(module, None)?;
    ctx.run(module)?;
    nl.validate().map_err(NetlistError::elab)?;
    Ok(nl)
}

/// Information about a declared scalar signal.
#[derive(Debug, Clone)]
pub(crate) struct Signal {
    pub(crate) net: NetId,
    pub(crate) width: u32,
}

/// Information about a declared memory.
#[derive(Debug, Clone)]
struct Memory {
    /// Q-side net of each entry (created at declaration).
    entries: Vec<NetId>,
    width: u32,
    /// Pending writes: (condition, address net, data net).
    writes: Vec<(Option<NetId>, NetId, NetId)>,
    /// Whether any expression read the memory.
    read: bool,
    /// Clock presence: true once a clocked write was seen.
    clocked: bool,
}

/// Per-module-instance elaboration context writing into a shared netlist.
pub(crate) struct ModuleCtx<'a, 'n> {
    pub(crate) design: &'a Design,
    pub(crate) nl: &'n mut Netlist,
    pub(crate) prefix: String,
    pub(crate) depth: u32,
    pub(crate) params: HashMap<String, i64>,
    pub(crate) signals: HashMap<String, Signal>,
    memories: BTreeMap<String, Memory>,
    /// Partial drivers for signals assigned via bit/part selects:
    /// signal name → list of (lsb, width, value net).
    partial: BTreeMap<String, Vec<(u32, u32, NetId)>>,
    fresh: u32,
    pub(crate) limits: ElabLimits,
    /// When set, instances elaborate through the per-module unit cache
    /// (see [`crate::incremental`]) instead of inline, and budget
    /// checkpoints are reported to the engine so cached units replay the
    /// flat path's budget decisions exactly.
    pub(crate) inc: Option<&'a crate::incremental::IncEngine<'a>>,
}

impl<'a, 'n> ModuleCtx<'a, 'n> {
    pub(crate) fn new(
        design: &'a Design,
        nl: &'n mut Netlist,
        prefix: String,
        depth: u32,
        limits: ElabLimits,
    ) -> Self {
        ModuleCtx {
            design,
            nl,
            prefix,
            depth,
            params: HashMap::new(),
            signals: HashMap::new(),
            memories: BTreeMap::new(),
            partial: BTreeMap::new(),
            fresh: 0,
            limits,
            inc: None,
        }
    }

    pub(crate) fn err(&self, msg: impl std::fmt::Display) -> NetlistError {
        NetlistError::elab(format!("{}{}", self.prefix, msg))
    }

    /// Fails with [`NetlistError::TooLarge`] once the shared netlist grows
    /// past the cell budget. Called at every emission granule (module
    /// item, statement, memory entry) so runaway amplification stops
    /// within one granule of crossing the budget.
    pub(crate) fn check_cells(&self) -> Result<(), NetlistError> {
        if let Some(engine) = self.inc {
            engine.record_checkpoint(self.nl.cell_count() as u64);
        }
        if self.nl.cell_count() > self.limits.max_cells {
            return Err(NetlistError::too_large(format!(
                "{}cell count exceeds SNS_MAX_CELLS = {}",
                self.prefix, self.limits.max_cells
            )));
        }
        Ok(())
    }

    /// Validates a prospective net width (in bits) against the budget,
    /// *before* the net is allocated.
    fn check_width(&self, bits: u64, what: &str) -> Result<u32, NetlistError> {
        if bits > self.limits.max_net_bits as u64 {
            return Err(NetlistError::too_large(format!(
                "{}{what} width {bits} exceeds SNS_MAX_NET_BITS = {}",
                self.prefix, self.limits.max_net_bits
            )));
        }
        Ok(bits as u32)
    }

    /// `{prefix}${hint}{n}` for the next counter value `n`. Every emitted
    /// cell takes two of these names, and building them by hand measured
    /// faster than both `format!` and `write!`.
    fn fresh_name(&mut self, hint: &str) -> String {
        self.fresh += 1;
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        let mut n = self.fresh;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        let digits = &digits[at..];
        let mut name = String::with_capacity(self.prefix.len() + 1 + hint.len() + digits.len());
        name.push_str(&self.prefix);
        name.push('$');
        name.push_str(hint);
        name.extend(digits.iter().map(|&d| char::from(d)));
        name
    }

    fn new_net(&mut self, width: u32, hint: &str) -> NetId {
        let name = self.fresh_name(hint);
        self.nl.add_net(width, Some(name))
    }

    fn cell1(&mut self, kind: CellKind, a: NetId, out_width: u32, hint: &str) -> NetId {
        let out = self.new_net(out_width, hint);
        let name = self.fresh_name(hint);
        self.nl.add_cell(Cell { kind, inputs: vec![a], output: out, name, attr: 0 });
        out
    }

    fn cell2(&mut self, kind: CellKind, a: NetId, b: NetId, out_width: u32, hint: &str) -> NetId {
        let out = self.new_net(out_width, hint);
        let name = self.fresh_name(hint);
        self.nl.add_cell(Cell { kind, inputs: vec![a, b], output: out, name, attr: 0 });
        out
    }

    fn mux(&mut self, sel: NetId, a_when_false: NetId, b_when_true: NetId, width: u32) -> NetId {
        let out = self.new_net(width, "mux");
        let name = self.fresh_name("mux");
        self.nl.add_cell(Cell {
            kind: CellKind::Mux,
            inputs: vec![sel, a_when_false, b_when_true],
            output: out,
            name,
            attr: 0,
        });
        out
    }

    fn mk_const(&mut self, value: u64, width: u32) -> NetId {
        let out = self.new_net(width, "const");
        let name = self.fresh_name("const");
        self.nl.add_cell(Cell { kind: CellKind::Const, inputs: vec![], output: out, name, attr: value });
        out
    }

    /// Slices `[lsb .. lsb+width)` out of `net`.
    fn slice(&mut self, net: NetId, lsb: u32, width: u32) -> NetId {
        let out = self.new_net(width, "slice");
        let name = self.fresh_name("slice");
        self.nl.add_cell(Cell { kind: CellKind::Slice, inputs: vec![net], output: out, name, attr: lsb as u64 });
        out
    }

    /// Zero-extends or truncates `net` to exactly `width` bits.
    fn adapt(&mut self, net: NetId, width: u32) -> NetId {
        let have = self.nl.net(net).width;
        if have == width {
            net
        } else if have > width {
            self.slice(net, 0, width)
        } else {
            let pad = self.mk_const(0, width - have);
            let out = self.new_net(width, "zext");
            let name = self.fresh_name("zext");
            self.nl.add_cell(Cell {
                kind: CellKind::Concat,
                inputs: vec![net, pad], // LSB-first
                output: out,
                name,
                attr: 0,
            });
            out
        }
    }

    /// Reduces a (possibly multi-bit) net to a 1-bit truthiness value.
    fn boolify(&mut self, net: NetId) -> NetId {
        if self.nl.net(net).width == 1 {
            net
        } else {
            self.cell1(CellKind::ReduceOr, net, 1, "bool")
        }
    }

    // ---- parameters and constant evaluation ----

    pub(crate) fn bind_params(
        &mut self,
        module: &Module,
        overrides: &HashMap<String, i64>,
    ) -> Result<(), NetlistError> {
        for p in &module.params {
            let value = match overrides.get(&p.name) {
                Some(&v) if !p.local => v,
                _ => self.eval_const(&p.default)?,
            };
            self.params.insert(p.name.clone(), value);
        }
        Ok(())
    }

    fn eval_const(&self, e: &Expr) -> Result<i64, NetlistError> {
        match e {
            Expr::Number { value, .. } => Ok(*value as i64),
            Expr::Ident(name) => self
                .params
                .get(name)
                .copied()
                .ok_or_else(|| self.err(format_args!("`{name}` is not a constant parameter"))),
            Expr::Unary(op, a) => {
                let a = self.eval_const(a)?;
                Ok(match op {
                    UnOp::Neg => {
                        a.checked_neg().ok_or_else(|| self.err("constant negation overflows"))?
                    }
                    UnOp::Not => !a,
                    UnOp::LNot => (a == 0) as i64,
                    _ => return Err(self.err("reduction operators are not constant-foldable")),
                })
            }
            Expr::Binary(op, a, b) => {
                let a = self.eval_const(a)?;
                let b = self.eval_const(b)?;
                // All arithmetic is checked: parameter expressions come from
                // untrusted source, and a debug-build overflow panic would
                // abort the process.
                let overflow = || self.err("constant expression overflows");
                Ok(match op {
                    BinOp::Add => a.checked_add(b).ok_or_else(overflow)?,
                    BinOp::Sub => a.checked_sub(b).ok_or_else(overflow)?,
                    BinOp::Mul => a.checked_mul(b).ok_or_else(overflow)?,
                    BinOp::Div => {
                        if b == 0 {
                            return Err(self.err("constant division by zero"));
                        }
                        a.checked_div(b).ok_or_else(overflow)?
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            return Err(self.err("constant modulo by zero"));
                        }
                        a.checked_rem(b).ok_or_else(overflow)?
                    }
                    BinOp::Shl | BinOp::Shr | BinOp::AShr => {
                        if !(0..64).contains(&b) {
                            return Err(self.err(format_args!(
                                "constant shift amount {b} out of range"
                            )));
                        }
                        if *op == BinOp::Shl {
                            a << b
                        } else {
                            a >> b
                        }
                    }
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Xnor => !(a ^ b),
                    BinOp::Eq => (a == b) as i64,
                    BinOp::Ne => (a != b) as i64,
                    BinOp::Lt => (a < b) as i64,
                    BinOp::Le => (a <= b) as i64,
                    BinOp::Gt => (a > b) as i64,
                    BinOp::Ge => (a >= b) as i64,
                    BinOp::LAnd => ((a != 0) && (b != 0)) as i64,
                    BinOp::LOr => ((a != 0) || (b != 0)) as i64,
                })
            }
            Expr::Ternary(c, a, b) => {
                Ok(if self.eval_const(c)? != 0 { self.eval_const(a)? } else { self.eval_const(b)? })
            }
            _ => Err(self.err("expression is not constant")),
        }
    }

    fn range_width(&self, r: &Option<Range>) -> Result<u32, NetlistError> {
        match r {
            None => Ok(1),
            Some(r) => {
                let msb = self.eval_const(&r.msb)?;
                let lsb = self.eval_const(&r.lsb)?;
                if lsb != 0 || msb < 0 {
                    return Err(self.err(format_args!("only [N:0] ranges are supported, got [{msb}:{lsb}]")));
                }
                self.check_width(msb as u64 + 1, "range")
            }
        }
    }

    // ---- declarations ----

    fn declare_signal(&mut self, name: &str, width: u32) -> Result<NetId, NetlistError> {
        if self.signals.contains_key(name) || self.memories.contains_key(name) {
            return Err(self.err(format_args!("`{name}` declared twice")));
        }
        let full = [self.prefix.as_str(), name].concat();
        let net = self.nl.add_net(width, Some(full));
        self.signals.insert(name.to_string(), Signal { net, width });
        Ok(net)
    }

    /// Declares ports. For the top module (`bindings == None`), nets are
    /// registered as [`Netlist`] ports; for child instances, input ports are
    /// bound to parent nets.
    pub(crate) fn declare_ports(
        &mut self,
        module: &Module,
        bindings: Option<&HashMap<String, NetId>>,
    ) -> Result<(), NetlistError> {
        for p in &module.ports {
            let width = self.range_width(&p.range)?;
            match bindings {
                None => {
                    let net = self.declare_signal(&p.name, width)?;
                    let dir = match p.dir {
                        Dir::Input => PortDir::Input,
                        Dir::Output => PortDir::Output,
                    };
                    self.nl.add_port(p.name.clone(), dir, net);
                }
                Some(map) => match (p.dir, map.get(&p.name)) {
                    (Dir::Input, Some(&parent_net)) => {
                        let adapted = self.adapt(parent_net, width);
                        self.signals.insert(p.name.clone(), Signal { net: adapted, width });
                    }
                    (Dir::Input, None) => {
                        // Unconnected input: tie to zero.
                        let zero = self.mk_const(0, width);
                        self.signals.insert(p.name.clone(), Signal { net: zero, width });
                    }
                    (Dir::Output, _) => {
                        // Child output gets its own net; the instance logic
                        // in the parent connects it onwards.
                        self.declare_signal(&p.name, width)?;
                    }
                },
            }
        }
        Ok(())
    }

    fn declare_item_decls(&mut self, module: &Module) -> Result<(), NetlistError> {
        for item in &module.items {
            if let Item::Decl(d) = item {
                self.declare_decl(d)?;
            }
        }
        Ok(())
    }

    fn declare_decl(&mut self, d: &Decl) -> Result<(), NetlistError> {
        let width = self.range_width(&d.range)?;
        for n in &d.names {
            match &n.mem_range {
                None => {
                    self.declare_signal(&n.name, width)?;
                }
                Some(r) => {
                    let lo = self.eval_const(&r.msb)?.min(self.eval_const(&r.lsb)?);
                    let hi = self.eval_const(&r.msb)?.max(self.eval_const(&r.lsb)?);
                    // hi >= lo by construction; the span can still overflow
                    // (e.g. [i64::MAX : i64::MIN]), so stay in checked math.
                    let depth = hi
                        .checked_sub(lo)
                        .and_then(|d| d.checked_add(1))
                        .map(|d| d as u64)
                        .unwrap_or(u64::MAX);
                    if depth > MAX_MEM_DEPTH {
                        return Err(NetlistError::too_large(format!(
                            "{}memory `{}` depth {depth} exceeds the supported maximum {MAX_MEM_DEPTH}",
                            self.prefix, n.name
                        )));
                    }
                    let mut entries = Vec::with_capacity(depth as usize);
                    for i in 0..depth {
                        let full = format!("{}{}[{}]", self.prefix, n.name, i);
                        entries.push(self.nl.add_net(width, Some(full)));
                    }
                    self.memories.insert(
                        n.name.clone(),
                        Memory { entries, width, writes: Vec::new(), read: false, clocked: false },
                    );
                }
            }
        }
        Ok(())
    }

    // ---- top-level drive of a module body ----

    pub(crate) fn run(&mut self, module: &Module) -> Result<(), NetlistError> {
        self.declare_item_decls(module)?;
        for item in &module.items {
            self.check_cells()?;
            match item {
                Item::Decl(d) => {
                    // Initializers are sugar for continuous assigns.
                    for n in &d.names {
                        if let Some(init) = &n.init {
                            let lhs = LValue::Ident(n.name.clone());
                            self.elab_assign(&lhs, init)?;
                        }
                    }
                }
                Item::Assign { lhs, rhs } => self.elab_assign(lhs, rhs)?,
                Item::Always(a) => self.elab_always(a)?,
                Item::Instance(inst) => self.elab_instance(inst)?,
            }
        }
        self.finish_memories()?;
        self.finish_partials()?;
        Ok(())
    }

    // ---- expressions ----

    /// Self-determined width of an expression.
    fn sdw(&self, e: &Expr) -> Result<u32, NetlistError> {
        Ok(match e {
            Expr::Ident(name) => {
                if let Some(s) = self.signals.get(name) {
                    s.width
                } else if let Some(&v) = self.params.get(name) {
                    (64 - (v.unsigned_abs()).leading_zeros()).max(1)
                } else {
                    return Err(self.err(format_args!("unknown identifier `{name}`")));
                }
            }
            Expr::Number { value, width } => {
                width.unwrap_or_else(|| (64 - value.leading_zeros()).max(1))
            }
            Expr::Unary(op, a) => match op {
                UnOp::Not | UnOp::Neg => self.sdw(a)?,
                _ => 1,
            },
            Expr::Binary(op, a, b) => match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                | BinOp::LAnd | BinOp::LOr => 1,
                BinOp::Shl | BinOp::Shr | BinOp::AShr => self.sdw(a)?,
                _ => self.sdw(a)?.max(self.sdw(b)?),
            },
            Expr::Ternary(_, a, b) => self.sdw(a)?.max(self.sdw(b)?),
            Expr::BitSelect(base, _) => {
                if let Expr::Ident(name) = base.as_ref() {
                    if let Some(m) = self.memories.get(name) {
                        return Ok(m.width);
                    }
                }
                1
            }
            Expr::PartSelect(_, msb, lsb) => {
                let msb = self.eval_const(msb)?;
                let lsb = self.eval_const(lsb)?;
                if msb < lsb || lsb < 0 {
                    return Err(self.err("part select with msb < lsb"));
                }
                self.check_width((msb - lsb) as u64 + 1, "part select")?
            }
            Expr::Concat(parts) => {
                let mut w = 0u64;
                for p in parts {
                    w += self.sdw(p)? as u64;
                }
                self.check_width(w, "concatenation")?
            }
            Expr::Replicate(n, inner) => {
                let n = self.replication_count(n)?;
                let bits = n.saturating_mul(self.sdw(inner)? as u64);
                self.check_width(bits, "replication")?
            }
        })
    }

    /// Evaluates and validates a `{N{e}}` replication count.
    fn replication_count(&self, n: &Expr) -> Result<u64, NetlistError> {
        let n = self.eval_const(n)?;
        if n <= 0 {
            return Err(self.err("replication count must be positive"));
        }
        if n as u64 > self.limits.max_replication {
            return Err(NetlistError::too_large(format!(
                "{}replication count {n} exceeds SNS_MAX_REPLICATION = {}",
                self.prefix, self.limits.max_replication
            )));
        }
        Ok(n as u64)
    }

    /// Elaborates `e` to a net of exactly `ctx_width` bits (Verilog
    /// context-determined widths; `shadow` carries blocking-assignment
    /// values inside procedural blocks).
    fn elab_expr(
        &mut self,
        e: &Expr,
        ctx_width: u32,
        shadow: &BTreeMap<String, NetId>,
    ) -> Result<NetId, NetlistError> {
        let net = self.elab_expr_inner(e, ctx_width, shadow)?;
        Ok(self.adapt(net, ctx_width))
    }

    fn elab_expr_inner(
        &mut self,
        e: &Expr,
        ctx_width: u32,
        shadow: &BTreeMap<String, NetId>,
    ) -> Result<NetId, NetlistError> {
        match e {
            Expr::Ident(name) => {
                if let Some(&n) = shadow.get(name) {
                    return Ok(n);
                }
                if let Some(s) = self.signals.get(name) {
                    return Ok(s.net);
                }
                if let Some(&v) = self.params.get(name) {
                    let w = (64 - (v.unsigned_abs()).leading_zeros()).max(1);
                    return Ok(self.mk_const(v as u64, w.max(1)));
                }
                Err(self.err(format_args!("unknown identifier `{name}`")))
            }
            Expr::Number { value, width } => {
                let w = width.unwrap_or_else(|| (64 - value.leading_zeros()).max(1));
                Ok(self.mk_const(*value, w))
            }
            Expr::Unary(op, a) => {
                let aw = self.sdw(a)?;
                match op {
                    UnOp::Not => {
                        let w = ctx_width.max(aw);
                        let an = self.elab_expr(a, w, shadow)?;
                        Ok(self.cell1(CellKind::Not, an, w, "not"))
                    }
                    UnOp::Neg => {
                        // -a  =>  0 - a
                        let w = ctx_width.max(aw);
                        let an = self.elab_expr(a, w, shadow)?;
                        let zero = self.mk_const(0, w);
                        Ok(self.cell2(CellKind::Sub, zero, an, w, "neg"))
                    }
                    UnOp::LNot => {
                        let an = self.elab_expr(a, aw, shadow)?;
                        let b = self.boolify(an);
                        Ok(self.cell1(CellKind::Not, b, 1, "lnot"))
                    }
                    UnOp::RedAnd => {
                        let an = self.elab_expr(a, aw, shadow)?;
                        Ok(self.cell1(CellKind::ReduceAnd, an, 1, "rand"))
                    }
                    UnOp::RedOr => {
                        let an = self.elab_expr(a, aw, shadow)?;
                        Ok(self.cell1(CellKind::ReduceOr, an, 1, "ror"))
                    }
                    UnOp::RedXor => {
                        let an = self.elab_expr(a, aw, shadow)?;
                        Ok(self.cell1(CellKind::ReduceXor, an, 1, "rxor"))
                    }
                    UnOp::RedNand => {
                        let an = self.elab_expr(a, aw, shadow)?;
                        let r = self.cell1(CellKind::ReduceAnd, an, 1, "rnand");
                        Ok(self.cell1(CellKind::Not, r, 1, "rnand_n"))
                    }
                    UnOp::RedNor => {
                        let an = self.elab_expr(a, aw, shadow)?;
                        let r = self.cell1(CellKind::ReduceOr, an, 1, "rnor");
                        Ok(self.cell1(CellKind::Not, r, 1, "rnor_n"))
                    }
                    UnOp::RedXnor => {
                        let an = self.elab_expr(a, aw, shadow)?;
                        let r = self.cell1(CellKind::ReduceXor, an, 1, "rxnor");
                        Ok(self.cell1(CellKind::Not, r, 1, "rxnor_n"))
                    }
                }
            }
            Expr::Binary(op, a, b) => {
                let aw = self.sdw(a)?;
                let bw = self.sdw(b)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
                    | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Xnor => {
                        let w = ctx_width.max(aw).max(bw);
                        let an = self.elab_expr(a, w, shadow)?;
                        let bn = self.elab_expr(b, w, shadow)?;
                        let kind = match op {
                            BinOp::Add => CellKind::Add,
                            BinOp::Sub => CellKind::Sub,
                            BinOp::Mul => CellKind::Mul,
                            BinOp::Div => CellKind::Div,
                            BinOp::Mod => CellKind::Mod,
                            BinOp::And => CellKind::And,
                            BinOp::Or => CellKind::Or,
                            BinOp::Xor => CellKind::Xor,
                            BinOp::Xnor => CellKind::Xnor,
                            // The enclosing arm lists exactly the operators
                            // above; stay total rather than trusting that
                            // the two lists never drift apart.
                            _ => {
                                return Err(self.err(format_args!(
                                    "operator {op:?} has no arithmetic cell lowering"
                                )))
                            }
                        };
                        Ok(self.cell2(kind, an, bn, w, "bin"))
                    }
                    BinOp::Shl | BinOp::Shr | BinOp::AShr => {
                        let w = ctx_width.max(aw);
                        let an = self.elab_expr(a, w, shadow)?;
                        let bn = self.elab_expr(b, bw, shadow)?;
                        let kind = if *op == BinOp::Shl { CellKind::Shl } else { CellKind::Shr };
                        Ok(self.cell2(kind, an, bn, w, "sh"))
                    }
                    BinOp::Eq | BinOp::Ne => {
                        let w = aw.max(bw);
                        let an = self.elab_expr(a, w, shadow)?;
                        let bn = self.elab_expr(b, w, shadow)?;
                        let eq = self.cell2(CellKind::Eq, an, bn, 1, "eq");
                        if *op == BinOp::Eq {
                            Ok(eq)
                        } else {
                            Ok(self.cell1(CellKind::Not, eq, 1, "ne"))
                        }
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        // Normalize everything onto a strict less-than cell
                        // (`Lgt` computes in0 < in1): a>b is b<a, a<=b is
                        // !(b<a), a>=b is !(a<b).
                        let w = aw.max(bw);
                        let an = self.elab_expr(a, w, shadow)?;
                        let bn = self.elab_expr(b, w, shadow)?;
                        let (x, y) = match op {
                            BinOp::Lt | BinOp::Ge => (an, bn),
                            _ => (bn, an),
                        };
                        let lgt = self.cell2(CellKind::Lgt, x, y, 1, "lgt");
                        match op {
                            BinOp::Lt | BinOp::Gt => Ok(lgt),
                            _ => Ok(self.cell1(CellKind::Not, lgt, 1, "lge")),
                        }
                    }
                    BinOp::LAnd | BinOp::LOr => {
                        let an = self.elab_expr(a, aw, shadow)?;
                        let bn = self.elab_expr(b, bw, shadow)?;
                        let ab = self.boolify(an);
                        let bb = self.boolify(bn);
                        let kind = if *op == BinOp::LAnd { CellKind::And } else { CellKind::Or };
                        Ok(self.cell2(kind, ab, bb, 1, "log"))
                    }
                }
            }
            Expr::Ternary(c, a, b) => {
                let cw = self.sdw(c)?;
                let cn = self.elab_expr(c, cw, shadow)?;
                let sel = self.boolify(cn);
                let w = ctx_width.max(self.sdw(a)?).max(self.sdw(b)?);
                let an = self.elab_expr(a, w, shadow)?;
                let bn = self.elab_expr(b, w, shadow)?;
                // sel true selects the `then` value.
                Ok(self.mux(sel, bn, an, w))
            }
            Expr::BitSelect(base, index) => {
                if let Expr::Ident(name) = base.as_ref() {
                    if self.memories.contains_key(name) {
                        return self.elab_mem_read(name, index, shadow);
                    }
                }
                match self.eval_const(index) {
                    Ok(i) => {
                        let bw = self.sdw(base)?;
                        let bn = self.elab_expr(base, bw, shadow)?;
                        if i < 0 || i >= bw as i64 {
                            return Err(self.err(format_args!("bit select index {i} out of range")));
                        }
                        Ok(self.slice(bn, i as u32, 1))
                    }
                    Err(_) => {
                        // Variable bit select => shift right then take bit 0.
                        let bw = self.sdw(base)?;
                        let bn = self.elab_expr(base, bw, shadow)?;
                        let iw = self.sdw(index)?;
                        let ix = self.elab_expr(index, iw, shadow)?;
                        let shifted = self.cell2(CellKind::Shr, bn, ix, bw, "vbit");
                        Ok(self.slice(shifted, 0, 1))
                    }
                }
            }
            Expr::PartSelect(base, msb, lsb) => {
                let msb = self.eval_const(msb)?;
                let lsb = self.eval_const(lsb)?;
                if msb < lsb || lsb < 0 {
                    return Err(self.err("invalid part select bounds"));
                }
                let bw = self.sdw(base)?;
                let bn = self.elab_expr(base, bw, shadow)?;
                // Compare in i64: `msb as u32` would wrap for a huge msb
                // and sail past the range check.
                if msb >= bw as i64 {
                    return Err(self.err(format_args!("part select [{msb}:{lsb}] out of range")));
                }
                Ok(self.slice(bn, lsb as u32, (msb - lsb + 1) as u32))
            }
            Expr::Concat(parts) => {
                // Verilog concatenation is MSB-first in source; our concat
                // cell is LSB-first, so reverse.
                let mut nets = Vec::with_capacity(parts.len());
                let mut total = 0u64;
                for p in parts.iter().rev() {
                    let w = self.sdw(p)?;
                    nets.push(self.elab_expr(p, w, shadow)?);
                    total += w as u64;
                }
                let total = self.check_width(total, "concatenation")?;
                let out = self.new_net(total, "cat");
                let name = self.fresh_name("cat");
                self.nl.add_cell(Cell { kind: CellKind::Concat, inputs: nets, output: out, name, attr: 0 });
                Ok(out)
            }
            Expr::Replicate(n, inner) => {
                let n = self.replication_count(n)?;
                let w = self.sdw(inner)?;
                // Reject before allocating: the output net (and everything
                // downstream) would be n * w bits wide.
                let out_w =
                    self.check_width(n.saturating_mul(w as u64), "replication")?;
                let inn = self.elab_expr(inner, w, shadow)?;
                let out = self.new_net(out_w, "rep");
                let name = self.fresh_name("rep");
                self.nl.add_cell(Cell {
                    kind: CellKind::Replicate,
                    inputs: vec![inn],
                    output: out,
                    name,
                    attr: n,
                });
                Ok(out)
            }
        }
    }

    /// Balanced mux read tree over a memory's entries.
    fn elab_mem_read(
        &mut self,
        name: &str,
        index: &Expr,
        shadow: &BTreeMap<String, NetId>,
    ) -> Result<NetId, NetlistError> {
        let (entries, width) = match self.memories.get_mut(name) {
            Some(m) => {
                m.read = true;
                (m.entries.clone(), m.width)
            }
            // Callers dispatch here only for declared memories; stay total
            // anyway — this runs on untrusted input.
            None => {
                return Err(self.err(format_args!("`{name}` is not a declared memory")));
            }
        };
        let iw = self.sdw(index)?;
        let ix = self.elab_expr(index, iw, shadow)?;
        let addr_bits = (usize::BITS - (entries.len() - 1).leading_zeros()).max(1);
        let ix = self.adapt(ix, addr_bits);
        Ok(self.mux_tree(&entries, ix, addr_bits as usize, width))
    }

    fn mux_tree(&mut self, entries: &[NetId], addr: NetId, nbits: usize, width: u32) -> NetId {
        if entries.len() == 1 {
            return entries[0];
        }
        let bit = nbits - 1;
        let half = 1usize << bit;
        let (lo, hi) = entries.split_at(half.min(entries.len()));
        let lo_net = self.mux_tree(lo, addr, bit.max(1), width);
        if hi.is_empty() {
            return lo_net;
        }
        let hi_net = self.mux_tree(hi, addr, bit.max(1), width);
        let sel = self.slice(addr, bit as u32, 1);
        self.mux(sel, lo_net, hi_net, width)
    }

    // ---- continuous assigns ----

    fn elab_assign(&mut self, lhs: &LValue, rhs: &Expr) -> Result<(), NetlistError> {
        let shadow = BTreeMap::new();
        let w = self.lvalue_width(lhs)?;
        let value = self.elab_expr(rhs, w, &shadow)?;
        self.drive_lvalue(lhs, value)
    }

    fn lvalue_width(&self, lhs: &LValue) -> Result<u32, NetlistError> {
        Ok(match lhs {
            LValue::Ident(name) => {
                if let Some(s) = self.signals.get(name) {
                    s.width
                } else if let Some(m) = self.memories.get(name) {
                    m.width
                } else {
                    return Err(self.err(format_args!("unknown assignment target `{name}`")));
                }
            }
            LValue::BitSelect(name, _) => {
                if let Some(m) = self.memories.get(name) {
                    m.width
                } else {
                    1
                }
            }
            LValue::PartSelect(_, msb, lsb) => {
                let msb = self.eval_const(msb)?;
                let lsb = self.eval_const(lsb)?;
                if msb < lsb || lsb < 0 {
                    return Err(self.err("part select with msb < lsb"));
                }
                self.check_width((msb - lsb) as u64 + 1, "part select")?
            }
            LValue::Concat(parts) => {
                let mut w = 0u64;
                for p in parts {
                    w += self.lvalue_width(p)? as u64;
                }
                self.check_width(w, "concatenation")?
            }
        })
    }

    /// Drives a continuous-assignment target from `value`.
    pub(crate) fn drive_lvalue(&mut self, lhs: &LValue, value: NetId) -> Result<(), NetlistError> {
        match lhs {
            LValue::Ident(name) => {
                let sig = self
                    .signals
                    .get(name)
                    .ok_or_else(|| self.err(format_args!("unknown assignment target `{name}`")))?
                    .clone();
                let v = self.adapt(value, sig.width);
                let cname = self.fresh_name("drv");
                self.nl.add_cell(Cell {
                    kind: CellKind::Buf,
                    inputs: vec![v],
                    output: sig.net,
                    name: cname,
                    attr: 0,
                });
                Ok(())
            }
            LValue::BitSelect(name, index) => {
                if self.memories.contains_key(name) {
                    return Err(self.err("continuous assignment to a memory entry is unsupported"));
                }
                let i = self.eval_const(index)?;
                self.record_partial(name, i, 1, value)
            }
            LValue::PartSelect(name, msb, lsb) => {
                let msb = self.eval_const(msb)?;
                let lsb = self.eval_const(lsb)?;
                if msb < lsb {
                    return Err(self.err("part select with msb < lsb"));
                }
                let w = msb.checked_sub(lsb).and_then(|d| d.checked_add(1)).unwrap_or(i64::MAX);
                self.record_partial(name, lsb, w, value)
            }
            LValue::Concat(parts) => {
                // Source order is MSB-first: the first part takes the top bits.
                let mut offset = self.lvalue_width(lhs)?;
                for p in parts {
                    let w = self.lvalue_width(p)?;
                    offset -= w;
                    let piece = self.slice(value, offset, w);
                    self.drive_lvalue(p, piece)?;
                }
                Ok(())
            }
        }
    }

    /// Records a bit/part-select driver after validating the select
    /// against the target's declared width. Bounds arrive as `i64`
    /// straight from constant evaluation — a negative or oversized index
    /// must error here, not wrap during the final stitch.
    fn record_partial(
        &mut self,
        name: &str,
        lsb: i64,
        width: i64,
        value: NetId,
    ) -> Result<(), NetlistError> {
        let sig_width = match self.signals.get(name) {
            Some(s) => s.width as i64,
            None => return Err(self.err(format_args!("unknown assignment target `{name}`"))),
        };
        let in_range = lsb >= 0
            && width >= 1
            && matches!(lsb.checked_add(width), Some(end) if end <= sig_width);
        if !in_range {
            return Err(self.err(format_args!(
                "select assignment to `{name}` is out of range for its {sig_width}-bit width"
            )));
        }
        let v = self.adapt(value, width as u32);
        self.partial.entry(name.to_string()).or_default().push((lsb as u32, width as u32, v));
        Ok(())
    }

    /// Stitches partial (bit/part-select) drivers into whole-signal drivers.
    fn finish_partials(&mut self) -> Result<(), NetlistError> {
        let partial = std::mem::take(&mut self.partial);
        for (name, mut pieces) in partial {
            // `record_partial` only accepts declared signals, but keep the
            // lookup total rather than trusting that invariant forever.
            let sig = self
                .signals
                .get(&name)
                .cloned()
                .ok_or_else(|| self.err(format_args!("unknown assignment target `{name}`")))?;
            pieces.sort_by_key(|&(lsb, _, _)| lsb);
            let mut inputs = Vec::new();
            let mut cursor = 0;
            for (lsb, w, net) in pieces {
                if lsb < cursor {
                    return Err(self.err(format_args!("overlapping part assignments to `{name}`")));
                }
                if lsb > cursor {
                    let pad = self.mk_const(0, lsb - cursor);
                    inputs.push(pad);
                }
                inputs.push(net);
                cursor = lsb + w;
            }
            if cursor < sig.width {
                let pad = self.mk_const(0, sig.width - cursor);
                inputs.push(pad);
            }
            let cname = self.fresh_name("stitch");
            self.nl.add_cell(Cell {
                kind: CellKind::Concat,
                inputs,
                output: sig.net,
                name: cname,
                attr: 0,
            });
        }
        Ok(())
    }

    // ---- always blocks ----

    fn elab_always(&mut self, a: &Always) -> Result<(), NetlistError> {
        // `env` maps each assigned scalar target to its computed next value;
        // `shadow` lets blocking assignments be read back within the block.
        let mut env: BTreeMap<String, NetId> = BTreeMap::new();
        let mut shadow: BTreeMap<String, NetId> = BTreeMap::new();
        let clocked = a.clock.is_some();
        self.elab_stmt(&a.body, None, &mut env, &mut shadow, clocked)?;

        for (name, value) in env {
            let sig = self
                .signals
                .get(&name)
                .ok_or_else(|| self.err(format_args!("unknown procedural target `{name}`")))?
                .clone();
            let v = self.adapt(value, sig.width);
            // Registers carry the signal's hierarchical name so users can
            // address them (e.g. per-register activity coefficients).
            let cname = if clocked {
                [self.prefix.as_str(), name.as_str()].concat()
            } else {
                self.fresh_name("comb")
            };
            let kind = if clocked { CellKind::Dff } else { CellKind::Buf };
            self.nl.add_cell(Cell { kind, inputs: vec![v], output: sig.net, name: cname, attr: 0 });
        }
        if clocked {
            for m in self.memories.values_mut() {
                if !m.writes.is_empty() {
                    m.clocked = true;
                }
            }
        }
        Ok(())
    }

    /// Walks a statement under an optional 1-bit condition, threading the
    /// per-target next-value environment.
    fn elab_stmt(
        &mut self,
        s: &Stmt,
        cond: Option<NetId>,
        env: &mut BTreeMap<String, NetId>,
        shadow: &mut BTreeMap<String, NetId>,
        clocked: bool,
    ) -> Result<(), NetlistError> {
        self.check_cells()?;
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Block(stmts) => {
                for st in stmts {
                    self.elab_stmt(st, cond, env, shadow, clocked)?;
                }
                Ok(())
            }
            Stmt::Assign { lhs, rhs, nonblocking } => {
                self.elab_proc_assign(lhs, rhs, cond, env, shadow, clocked, *nonblocking)
            }
            Stmt::If { cond: c, then_s, else_s } => {
                let cw = self.sdw(c)?;
                let cn = self.elab_expr(c, cw, shadow)?;
                let cb = self.boolify(cn);
                let then_cond = self.and_opt(cond, cb);
                self.elab_stmt(then_s, Some(then_cond), env, shadow, clocked)?;
                if let Some(e) = else_s {
                    let ncb = self.cell1(CellKind::Not, cb, 1, "else");
                    let else_cond = self.and_opt(cond, ncb);
                    self.elab_stmt(e, Some(else_cond), env, shadow, clocked)?;
                }
                Ok(())
            }
            Stmt::Case { subject, arms, default } => {
                let sw = self.sdw(subject)?;
                let sn = self.elab_expr(subject, sw, shadow)?;
                let mut not_any: Option<NetId> = None;
                for (labels, body) in arms {
                    let mut arm_hit: Option<NetId> = None;
                    for label in labels {
                        let ln = self.elab_expr(label, sw, shadow)?;
                        let hit = self.cell2(CellKind::Eq, sn, ln, 1, "case_eq");
                        arm_hit = Some(match arm_hit {
                            None => hit,
                            Some(prev) => self.cell2(CellKind::Or, prev, hit, 1, "case_or"),
                        });
                    }
                    // The grammar requires at least one label per arm, but
                    // this path runs on untrusted input — stay total.
                    let hit = match arm_hit {
                        Some(h) => h,
                        None => return Err(self.err("case arm has no labels")),
                    };
                    let branch_cond = self.and_opt(cond, hit);
                    self.elab_stmt(body, Some(branch_cond), env, shadow, clocked)?;
                    let nh = self.cell1(CellKind::Not, hit, 1, "case_miss");
                    not_any = Some(match not_any {
                        None => nh,
                        Some(prev) => self.cell2(CellKind::And, prev, nh, 1, "case_nand"),
                    });
                }
                if let Some(d) = default {
                    let dc = match not_any {
                        None => cond,
                        Some(na) => Some(self.and_opt(cond, na)),
                    };
                    self.elab_stmt(d, dc, env, shadow, clocked)?;
                }
                Ok(())
            }
        }
    }

    fn and_opt(&mut self, a: Option<NetId>, b: NetId) -> NetId {
        match a {
            None => b,
            Some(a) => self.cell2(CellKind::And, a, b, 1, "cand"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn elab_proc_assign(
        &mut self,
        lhs: &LValue,
        rhs: &Expr,
        cond: Option<NetId>,
        env: &mut BTreeMap<String, NetId>,
        shadow: &mut BTreeMap<String, NetId>,
        clocked: bool,
        nonblocking: bool,
    ) -> Result<(), NetlistError> {
        match lhs {
            LValue::BitSelect(name, index) if self.memories.contains_key(name) => {
                // Memory write.
                if !clocked {
                    return Err(self.err("memory writes are only supported in clocked blocks"));
                }
                let width = match self.memories.get(name) {
                    Some(m) => m.width,
                    None => return Err(self.err(format_args!("`{name}` is not a declared memory"))),
                };
                let data = self.elab_expr(rhs, width, shadow)?;
                let iw = self.sdw(index)?;
                let addr = self.elab_expr(index, iw, shadow)?;
                match self.memories.get_mut(name) {
                    Some(m) => m.writes.push((cond, addr, data)),
                    None => return Err(self.err(format_args!("`{name}` is not a declared memory"))),
                }
                Ok(())
            }
            LValue::Ident(name) => {
                let sig = self
                    .signals
                    .get(name)
                    .ok_or_else(|| self.err(format_args!("unknown procedural target `{name}`")))?
                    .clone();
                let value = self.elab_expr(rhs, sig.width, shadow)?;
                let base = env.get(name).copied().unwrap_or(if clocked {
                    sig.net // hold the previous Q value
                } else {
                    // Combinational default: zero (full case/else coverage
                    // overrides this; see crate docs on latch avoidance).
                    self.mk_const(0, sig.width)
                });
                let next = match cond {
                    None => value,
                    Some(c) => self.mux(c, base, value, sig.width),
                };
                env.insert(name.clone(), next);
                // Only blocking assignments are visible to later reads in
                // the same block; nonblocking reads keep the old value.
                if !nonblocking {
                    shadow.insert(name.clone(), next);
                }
                Ok(())
            }
            LValue::BitSelect(..) | LValue::PartSelect(..) => {
                // Procedural part assignment: read-modify-write on the env.
                // Bounds stay in i64 until validated against the target's
                // width: untrusted source can ask for `q[-1]` or
                // `q[1<<40 : 0]`, and an unchecked cast would wrap.
                let (name, lsb, w) = match lhs {
                    LValue::BitSelect(name, i) => (name.clone(), self.eval_const(i)?, 1i64),
                    LValue::PartSelect(name, msb, lsb) => {
                        let m = self.eval_const(msb)?;
                        let l = self.eval_const(lsb)?;
                        if m < l {
                            return Err(self.err("part select with msb < lsb"));
                        }
                        let w =
                            m.checked_sub(l).and_then(|d| d.checked_add(1)).unwrap_or(i64::MAX);
                        (name.clone(), l, w)
                    }
                    // This arm only sees the two select shapes; stay total.
                    _ => return Err(self.err("unsupported procedural assignment target")),
                };
                let sig = self
                    .signals
                    .get(&name)
                    .ok_or_else(|| self.err(format_args!("unknown procedural target `{name}`")))?
                    .clone();
                let in_range = lsb >= 0
                    && w >= 1
                    && matches!(lsb.checked_add(w), Some(end) if end <= sig.width as i64);
                if !in_range {
                    return Err(self.err(format_args!(
                        "select assignment to `{name}` is out of range for its {}-bit width",
                        sig.width
                    )));
                }
                let (lsb, w) = (lsb as u32, w as u32);
                let cur = env.get(&name).copied().unwrap_or(sig.net);
                let value = self.elab_expr(rhs, w, &*shadow)?;
                let mut parts: Vec<NetId> = Vec::new();
                if lsb > 0 {
                    parts.push(self.slice(cur, 0, lsb));
                }
                parts.push(value);
                if lsb + w < sig.width {
                    parts.push(self.slice(cur, lsb + w, sig.width - lsb - w));
                }
                let out = self.new_net(sig.width, "ins");
                let cname = self.fresh_name("ins");
                self.nl.add_cell(Cell {
                    kind: CellKind::Concat,
                    inputs: parts,
                    output: out,
                    name: cname,
                    attr: 0,
                });
                let next = match cond {
                    None => out,
                    Some(c) => {
                        let base = env.get(&name).copied().unwrap_or(sig.net);
                        self.mux(c, base, out, sig.width)
                    }
                };
                env.insert(name.clone(), next);
                if !nonblocking {
                    shadow.insert(name.clone(), next);
                }
                Ok(())
            }
            LValue::Concat(parts) => {
                // Split the rhs and assign each piece (MSB-first source order).
                let total = self.lvalue_width(lhs)?;
                let value = self.elab_expr(rhs, total, shadow)?;
                let mut offset = total;
                for p in parts {
                    let w = self.lvalue_width(p)?;
                    offset -= w;
                    let piece = self.slice(value, offset, w);
                    // Wrap the piece as a fake rhs identifier-free assignment:
                    // reuse the Ident/part paths by recursing with a synthetic
                    // expression is awkward, so handle Ident directly here.
                    match p {
                        LValue::Ident(name) => {
                            let sig = self
                                .signals
                                .get(name)
                                .ok_or_else(|| {
                                    self.err(format_args!("unknown procedural target `{name}`"))
                                })?
                                .clone();
                            let v = self.adapt(piece, sig.width);
                            let base = env.get(name).copied().unwrap_or(if clocked {
                                sig.net
                            } else {
                                self.mk_const(0, sig.width)
                            });
                            let next = match cond {
                                None => v,
                                Some(c) => self.mux(c, base, v, sig.width),
                            };
                            env.insert(name.clone(), next);
                            if !nonblocking {
                                shadow.insert(name.clone(), next);
                            }
                        }
                        _ => {
                            return Err(
                                self.err("nested selects inside procedural concat lvalues are unsupported")
                            );
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Builds per-entry flip-flops and write decoders for every memory.
    fn finish_memories(&mut self) -> Result<(), NetlistError> {
        let names: Vec<String> = self.memories.keys().cloned().collect();
        for name in names {
            let Some(m) = self.memories.get(&name).cloned() else { continue };
            if m.writes.is_empty() {
                if m.read {
                    // Read-only memory without initialization: tie entries low.
                    for (i, &q) in m.entries.iter().enumerate() {
                        let z = self.mk_const(0, m.width);
                        let cname = format!("{}{}[{}]$tie", self.prefix, name, i);
                        self.nl.add_cell(Cell {
                            kind: CellKind::Buf,
                            inputs: vec![z],
                            output: q,
                            name: cname,
                            attr: 0,
                        });
                    }
                }
                continue;
            }
            let addr_width = self.nl.net(m.writes[0].1).width;
            for (i, &q) in m.entries.iter().enumerate() {
                // Each entry emits a decoder + mux chain + DFF; a deep
                // memory with many writes is a cell amplifier, so budget-
                // check per entry.
                self.check_cells()?;
                let mut d = q; // default: hold
                for &(cond, addr, data) in &m.writes {
                    let idx = self.mk_const(i as u64, addr_width);
                    let addr_a = self.adapt(addr, addr_width);
                    let hit = self.cell2(CellKind::Eq, addr_a, idx, 1, "wr_eq");
                    let we = match cond {
                        None => hit,
                        Some(c) => self.cell2(CellKind::And, c, hit, 1, "wr_en"),
                    };
                    d = self.mux(we, d, data, m.width);
                }
                let cname = format!("{}{}[{}]$dff", self.prefix, name, i);
                self.nl.add_cell(Cell {
                    kind: CellKind::Dff,
                    inputs: vec![d],
                    output: q,
                    name: cname,
                    attr: 0,
                });
            }
        }
        Ok(())
    }

    // ---- instances ----

    fn elab_instance(&mut self, inst: &Instance) -> Result<(), NetlistError> {
        if let Some(engine) = self.inc {
            return crate::incremental::elab_instance_inc(self, inst, engine);
        }
        let (child, overrides, bindings, outputs) = self.instance_preamble(inst)?;

        // Elaborate the child into the same netlist.
        let child_prefix = format!("{}{}.", self.prefix, inst.name);
        let output_nets: Vec<(NetId, LValue)> = {
            let mut cctx =
                ModuleCtx::new(self.design, self.nl, child_prefix, self.depth + 1, self.limits);
            cctx.bind_params(child, &overrides)?;
            cctx.declare_ports(child, Some(&bindings))?;
            cctx.run(child)?;
            let mut nets = Vec::with_capacity(outputs.len());
            for (port_name, lv) in outputs {
                // Every output port was declared by `declare_ports` above;
                // keep the lookup total all the same.
                let net = match cctx.signals.get(&port_name) {
                    Some(s) => s.net,
                    None => {
                        return Err(NetlistError::elab(format!(
                            "{}`{}` has no declared output `{port_name}`",
                            self.prefix, inst.module
                        )))
                    }
                };
                nets.push((net, lv));
            }
            nets
        };

        // Connect child outputs to parent lvalues.
        for (child_net, lv) in output_nets {
            self.drive_lvalue(&lv, child_net)?;
        }
        Ok(())
    }

    /// The instance steps shared by the flat and incremental paths: depth
    /// check, module lookup, parameter-override evaluation, connection
    /// normalization, input-expression elaboration (into the *parent*
    /// context), and output-lvalue collection. Everything up to — but not
    /// including — elaborating the child body.
    pub(crate) fn instance_preamble(
        &mut self,
        inst: &Instance,
    ) -> Result<InstancePreamble<'a>, NetlistError> {
        if self.depth > 64 {
            return Err(self.err("instantiation depth exceeds 64 (recursive hierarchy?)"));
        }
        let child = self
            .design
            .module(&inst.module)
            .ok_or_else(|| self.err(format_args!("unknown module `{}`", inst.module)))?;

        // Evaluate parameter overrides in the parent context.
        let mut overrides = HashMap::new();
        for (pname, pexpr) in &inst.params {
            overrides.insert(pname.clone(), self.eval_const(pexpr)?);
        }

        // Normalize connections to (port_name, Option<Expr>).
        let mut named: Vec<(String, Option<Expr>)> = Vec::new();
        for conn in &inst.conns {
            match conn {
                Connection::Named(port, expr) => named.push((port.clone(), expr.clone())),
                Connection::Positional(i, expr) => {
                    let port = child.ports.get(*i).ok_or_else(|| {
                        self.err(format_args!(
                            "positional connection {i} out of range for `{}`",
                            inst.module
                        ))
                    })?;
                    named.push((port.name.clone(), Some(expr.clone())));
                }
            }
        }

        // Evaluate input connections in the parent, collect output targets.
        let shadow = BTreeMap::new();
        let mut bindings: HashMap<String, NetId> = HashMap::new();
        let mut outputs: Vec<(String, LValue)> = Vec::new();
        for (port_name, expr) in named {
            let pdecl = child.ports.iter().find(|p| p.name == port_name).ok_or_else(|| {
                self.err(format_args!("`{}` has no port `{port_name}`", inst.module))
            })?;
            match pdecl.dir {
                Dir::Input => {
                    if let Some(e) = expr {
                        let w = self.sdw(&e)?;
                        let net = self.elab_expr(&e, w, &shadow)?;
                        bindings.insert(port_name, net);
                    }
                }
                Dir::Output => {
                    if let Some(e) = expr {
                        let lv = expr_as_lvalue(&e).ok_or_else(|| {
                            self.err(format_args!(
                                "output port `{port_name}` must connect to an assignable expression"
                            ))
                        })?;
                        outputs.push((port_name, lv));
                    }
                }
            }
        }

        Ok((child, overrides, bindings, outputs))
    }
}

/// What [`ModuleCtx::instance_preamble`] produces: the child module
/// definition, the evaluated parameter overrides, the input-port → parent-net
/// bindings, and the (output port, parent lvalue) connection list.
pub(crate) type InstancePreamble<'m> =
    (&'m Module, HashMap<String, i64>, HashMap<String, NetId>, Vec<(String, LValue)>);

/// Interprets an expression used as an instance output connection as an
/// lvalue (identifier, bit/part select, or concat of those).
fn expr_as_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Ident(n) => Some(LValue::Ident(n.clone())),
        Expr::BitSelect(base, i) => {
            if let Expr::Ident(n) = base.as_ref() {
                Some(LValue::BitSelect(n.clone(), (**i).clone()))
            } else {
                None
            }
        }
        Expr::PartSelect(base, m, l) => {
            if let Expr::Ident(n) = base.as_ref() {
                Some(LValue::PartSelect(n.clone(), (**m).clone(), (**l).clone()))
            } else {
                None
            }
        }
        Expr::Concat(parts) => {
            let lvs: Option<Vec<_>> = parts.iter().map(expr_as_lvalue).collect();
            Some(LValue::Concat(lvs?))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_elaborate;
    use crate::parser::parse_source;

    fn kinds(nl: &Netlist) -> Vec<CellKind> {
        let mut v: Vec<CellKind> = nl.cells().map(|c| c.kind).filter(|k| !k.is_wiring()).collect();
        v.sort();
        v
    }

    fn count(nl: &Netlist, kind: CellKind) -> usize {
        nl.cells().filter(|c| c.kind == kind).count()
    }

    #[test]
    fn mac_example_matches_paper_figure_2() {
        // The paper's Figure 2: 8-bit multiply-add into a 16-bit register.
        let nl = parse_and_elaborate(
            "module mac (input clk, input [7:0] a, input [7:0] b, output [15:0] out);
                 reg [15:0] acc;
                 always @(posedge clk) acc <= acc + a * b;
                 assign out = acc;
             endmodule",
            "mac",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Mul), 1);
        assert_eq!(count(&nl, CellKind::Add), 1);
        assert_eq!(count(&nl, CellKind::Dff), 1);
        // The multiplier is context-extended to 16 bits, as in the paper.
        let mul = nl.cells().find(|c| c.kind == CellKind::Mul).unwrap();
        assert_eq!(nl.net(mul.output).width, 16);
    }

    #[test]
    fn width_rules_zero_extend_and_truncate() {
        let nl = parse_and_elaborate(
            "module m (input [3:0] a, input [7:0] b, output [5:0] y);
                 assign y = a + b;
             endmodule",
            "m",
        )
        .unwrap();
        let add = nl.cells().find(|c| c.kind == CellKind::Add).unwrap();
        assert_eq!(nl.net(add.output).width, 8); // max(ctx=6, 4, 8)
        nl.validate().unwrap();
    }

    #[test]
    fn parameters_propagate_through_hierarchy() {
        let src = "
            module add2 #(parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
                assign y = a + b;
            endmodule
            module top (input [15:0] p, q, output [15:0] r);
                add2 #(.W(16)) u (.a(p), .b(q), .y(r));
            endmodule";
        let nl = parse_and_elaborate(src, "top").unwrap();
        let add = nl.cells().find(|c| c.kind == CellKind::Add).unwrap();
        assert_eq!(nl.net(add.output).width, 16);
    }

    #[test]
    fn if_else_builds_mux_into_dff() {
        let nl = parse_and_elaborate(
            "module m (input clk, input rst, input [3:0] d, output reg [3:0] q);
                 always @(posedge clk) begin
                     if (rst) q <= 4'd0;
                     else q <= d;
                 end
             endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Dff), 1);
        assert!(count(&nl, CellKind::Mux) >= 1);
        nl.validate().unwrap();
    }

    #[test]
    fn comb_always_with_case_produces_eq_and_mux() {
        let nl = parse_and_elaborate(
            "module m (input [1:0] s, input [3:0] a, b, c, output reg [3:0] y);
                 always @(*) begin
                     case (s)
                         2'd0: y = a;
                         2'd1: y = b;
                         default: y = c;
                     endcase
                 end
             endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Dff), 0);
        assert!(count(&nl, CellKind::Eq) >= 2);
        assert!(count(&nl, CellKind::Mux) >= 2);
    }

    #[test]
    fn memory_becomes_dffs_with_decoder_and_mux_tree() {
        let nl = parse_and_elaborate(
            "module m (input clk, input we, input [1:0] wa, ra, input [7:0] wd, output [7:0] rd);
                 reg [7:0] mem [0:3];
                 always @(posedge clk) if (we) mem[wa] <= wd;
                 assign rd = mem[ra];
             endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Dff), 4);
        assert!(count(&nl, CellKind::Eq) >= 4); // write decoder
        assert!(count(&nl, CellKind::Mux) >= 4 + 3); // write muxes + read tree
        nl.validate().unwrap();
    }

    #[test]
    fn shifts_and_comparisons_lower_to_expected_cells() {
        let nl = parse_and_elaborate(
            "module m (input [7:0] a, b, output [7:0] s, output lt, ge, ne);
                 assign s = a << b[2:0];
                 assign lt = a < b;
                 assign ge = a >= b;
                 assign ne = a != b;
             endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Shl), 1);
        assert_eq!(count(&nl, CellKind::Lgt), 2);
        assert_eq!(count(&nl, CellKind::Eq), 1);
        assert!(count(&nl, CellKind::Not) >= 2); // for >= and !=
    }

    #[test]
    fn logical_ops_boolify_operands() {
        let nl = parse_and_elaborate(
            "module m (input [7:0] a, b, output y);
                 assign y = a && !b;
             endmodule",
            "m",
        )
        .unwrap();
        assert!(count(&nl, CellKind::ReduceOr) >= 2);
        assert_eq!(count(&nl, CellKind::And), 1);
    }

    #[test]
    fn concat_lvalue_splits_adder_carry() {
        let nl = parse_and_elaborate(
            "module m (input [7:0] a, b, output [7:0] s, output c);
                 assign {c, s} = a + b;
             endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Add), 1);
        let add = nl.cells().find(|c| c.kind == CellKind::Add).unwrap();
        assert_eq!(nl.net(add.output).width, 9);
        nl.validate().unwrap();
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let err = parse_and_elaborate(
            "module m (input a, output y); assign y = nonexistent; endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown identifier"));
    }

    #[test]
    fn unknown_top_is_an_error() {
        let d = parse_source("module m (input a); endmodule").unwrap();
        assert!(matches!(elaborate(&d, "zzz"), Err(NetlistError::UnknownTop { .. })));
    }

    #[test]
    fn hierarchical_names_are_prefixed() {
        let src = "
            module leaf (input [3:0] a, output [3:0] y);
                assign y = ~a;
            endmodule
            module top (input [3:0] p, output [3:0] q);
                leaf u0 (.a(p), .y(q));
            endmodule";
        let nl = parse_and_elaborate(src, "top").unwrap();
        assert!(nl
            .cells()
            .any(|c| c.kind == CellKind::Not && c.name.starts_with("u0.")));
    }

    #[test]
    fn blocking_assign_chains_within_comb_block() {
        let nl = parse_and_elaborate(
            "module m (input [7:0] a, output reg [7:0] y);
                 reg [7:0] t;
                 always @(*) begin
                     t = a + 8'd1;
                     y = t * 8'd2;
                 end
             endmodule",
            "m",
        )
        .unwrap();
        // `y` must read the freshly-computed t (mul fed by add).
        let driver = nl.driver_map();
        let mul = nl.cells().find(|c| c.kind == CellKind::Mul).unwrap();
        let feeds_mul = mul.inputs.iter().any(|&n| {
            let mut n = n;
            // Walk through wiring cells back to the add.
            for _ in 0..8 {
                match driver.get(&n).map(|&cid| nl.cell(cid)) {
                    Some(c) if c.kind == CellKind::Add => return true,
                    Some(c) if c.kind.is_wiring() && !c.inputs.is_empty() => n = c.inputs[0],
                    _ => return false,
                }
            }
            false
        });
        assert!(feeds_mul, "mul should consume the blocking-assigned add result");
    }

    #[test]
    fn ternary_produces_mux() {
        let nl = parse_and_elaborate(
            "module m (input s, input [3:0] a, b, output [3:0] y);
                 assign y = s ? a : b;
             endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Mux), 1);
    }

    #[test]
    fn replication_and_variable_bitselect() {
        let nl = parse_and_elaborate(
            "module m (input [7:0] a, input [2:0] i, output [15:0] y, output b);
                 assign y = {2{a}};
                 assign b = a[i];
             endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Replicate), 1);
        assert_eq!(count(&nl, CellKind::Shr), 1);
        nl.validate().unwrap();
    }

    // ---- regression tests for the former panic sites ----
    //
    // Each converted site gets (a) a minimal source exercising the code
    // path it guards, proving the conversion kept the functional behavior,
    // and (b) where the path is input-reachable, an adversarial variant
    // asserting a structured error instead of a panic/abort.

    #[test]
    fn site_binop_lowering_stays_total_for_every_arithmetic_operator() {
        // elaborate.rs formerly hit `unreachable!()` if the operator list
        // in the match drifted from the enclosing arm.
        for op in ["+", "-", "*", "/", "%", "&", "|", "^", "~^"] {
            let nl = parse_and_elaborate(
                &format!(
                    "module m (input [7:0] a, b, output [7:0] y); assign y = a {op} b; endmodule"
                ),
                "m",
            )
            .unwrap_or_else(|e| panic!("operator {op}: {e}"));
            nl.validate().unwrap();
        }
    }

    #[test]
    fn site_mem_read_lookup_is_total() {
        // Former `expect("checked by caller")` in elab_mem_read.
        let nl = parse_and_elaborate(
            "module m (input clk, input [1:0] ra, wa, input [7:0] wd, output [7:0] rd);
                 reg [7:0] mem [0:3];
                 always @(posedge clk) mem[wa] <= wd;
                 assign rd = mem[ra];
             endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(count(&nl, CellKind::Dff), 4);
    }

    #[test]
    fn site_finish_partials_rejects_out_of_range_selects() {
        // Former `expect("validated at record time")` in finish_partials;
        // record_partial now also bounds-checks, so a negative or
        // oversized select errors instead of wrapping to a huge u32.
        parse_and_elaborate(
            "module m (input [3:0] a, b, output [7:0] y);
                 assign y[3:0] = a;
                 assign y[7:4] = b;
             endmodule",
            "m",
        )
        .unwrap();
        for bad in ["y[8:1] = a", "y[-1] = a", "y[-4:-8] = a"] {
            let err = parse_and_elaborate(
                &format!("module m (input [3:0] a, output [7:0] y); assign {bad}; endmodule"),
                "m",
            )
            .unwrap_err();
            assert!(matches!(err, NetlistError::Elab { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn site_case_arm_label_accumulation_is_total() {
        // Former `expect("case arm has at least one label")`.
        let nl = parse_and_elaborate(
            "module m (input [1:0] s, output reg y);
                 always @(*) case (s)
                     2'd0, 2'd1: y = 1'b1;
                     default: y = 1'b0;
                 endcase
             endmodule",
            "m",
        )
        .unwrap();
        assert!(count(&nl, CellKind::Eq) >= 2);
    }

    #[test]
    fn site_memory_write_outside_clocked_block_errors() {
        // Former `expect("guarded")` on the write push; the surrounding
        // path also rejects combinational memory writes.
        let err = parse_and_elaborate(
            "module m (input [1:0] wa, input [7:0] wd, output y);
                 reg [7:0] mem [0:3];
                 always @(*) mem[wa] = wd;
                 assign y = mem[0][0];
             endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.to_string().contains("clocked"), "{err}");
    }

    #[test]
    fn site_procedural_selects_validate_bounds() {
        // Former `unreachable!()` in the procedural select arm; the
        // rewritten path keeps bounds in i64 until validated.
        parse_and_elaborate(
            "module m (input clk, input [3:0] d, output reg [7:0] q);
                 always @(posedge clk) begin
                     q[3:0] <= d;
                     q[7] <= d[0];
                 end
             endmodule",
            "m",
        )
        .unwrap();
        for bad in ["q[100] <= d[0]", "q[-1] <= d[0]", "q[9:2] <= d"] {
            let err = parse_and_elaborate(
                &format!(
                    "module m (input clk, input [3:0] d, output reg [7:0] q);
                         always @(posedge clk) {bad};
                     endmodule"
                ),
                "m",
            )
            .unwrap_err();
            assert!(matches!(err, NetlistError::Elab { .. }), "{bad}: {err}");
        }
    }

    // ---- resource budgets ----

    #[test]
    fn huge_replication_is_rejected_before_allocation() {
        let err = parse_and_elaborate(
            "module m (input x, output [7:0] y); assign y = {100000000{x}}; endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.is_budget(), "{err}");
        // Nested replication whose product (not count) exceeds the budget.
        let err = parse_and_elaborate(
            "module m (input x, output [7:0] y); assign y = {60000{{60000{x}}}}; endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.is_budget(), "{err}");
    }

    #[test]
    fn huge_net_and_memory_widths_are_rejected() {
        let err = parse_and_elaborate(
            "module m (input a, output y); wire [100000000:0] w; assign y = a; endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.is_budget(), "{err}");
        let err = parse_and_elaborate(
            "module m (input a, output y);
                 parameter P = 1 << 62;
                 wire [P:0] w;
                 assign y = a;
             endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.is_budget(), "{err}");
        let err = parse_and_elaborate(
            "module m (input a, output y); reg [7:0] mem [0:10000000]; assign y = a; endmodule",
            "m",
        )
        .unwrap_err();
        assert!(err.is_budget(), "{err}");
    }

    #[test]
    fn constant_overflow_is_an_error_not_a_panic() {
        for (expr, what) in [
            ("9223372036854775807 + 1", "overflow"),
            ("9223372036854775807 * 2", "overflow"),
            ("1 << 70", "shift"),
            ("1 >> 100", "shift"),
            ("-9223372036854775807 - 2", "overflow"),
        ] {
            let err = parse_and_elaborate(
                &format!("module m (input a, output y); parameter P = {expr}; wire [P:0] w; assign y = a; endmodule"),
                "m",
            )
            .unwrap_err();
            assert!(matches!(err, NetlistError::Elab { .. }), "{what}: {err}");
        }
    }

    #[test]
    fn cell_budget_stops_hierarchy_amplification_during_emission() {
        // Each level instantiates the next twice: exponential blowup that
        // must be stopped as cells are emitted, not after.
        let levels = 40;
        let mut src = String::from("module m0 (input a, output y); assign y = ~a; endmodule\n");
        for i in 1..=levels {
            src.push_str(&format!(
                "module m{i} (input a, output y);
                     wire y1, y2;
                     m{} u1 (.a(a), .y(y1));
                     m{} u2 (.a(a), .y(y2));
                     assign y = y1 ^ y2;
                 endmodule\n",
                i - 1,
                i - 1
            ));
        }
        let design = parse_source(&src).unwrap();
        let limits = ElabLimits { max_cells: 10_000, ..ElabLimits::default() };
        let err = elaborate_with_limits(&design, &format!("m{levels}"), limits).unwrap_err();
        assert!(err.is_budget(), "{err}");
    }

    #[test]
    fn limits_default_and_from_env_fallbacks() {
        // The budget env vars are unset under `cargo test`, so from_env
        // returns the documented defaults.
        assert_eq!(ElabLimits::from_env(), ElabLimits::default());
        assert_eq!(ElabLimits::default().max_cells, ElabLimits::DEFAULT_MAX_CELLS);
        // Within budget, designs elaborate unchanged under explicit limits.
        let d = parse_source(
            "module m (input [3:0] a, b, output [3:0] y); assign y = a + b; endmodule",
        )
        .unwrap();
        let nl = elaborate_with_limits(&d, "m", ElabLimits::default()).unwrap();
        assert_eq!(count(&nl, CellKind::Add), 1);
    }

    #[test]
    fn netlist_has_no_combinational_multiple_drivers() {
        // A design mixing all constructs should still validate.
        let src = "
            module alu (input [7:0] a, b, input [1:0] op, output reg [7:0] y);
                always @(*) begin
                    case (op)
                        2'd0: y = a + b;
                        2'd1: y = a - b;
                        2'd2: y = a & b;
                        default: y = a ^ b;
                    endcase
                end
            endmodule
            module top (input clk, input [7:0] x, input [1:0] op, output [7:0] r);
                wire [7:0] t;
                reg [7:0] h;
                alu u (.a(x), .b(h), .op(op), .y(t));
                always @(posedge clk) h <= t;
                assign r = h;
            endmodule";
        let nl = parse_and_elaborate(src, "top").unwrap();
        nl.validate().unwrap();
        assert_eq!(count(&nl, CellKind::Dff), 1);
        assert!(kinds(&nl).contains(&CellKind::Sub));
    }
}
