//! Seeded random generation of well-formed Verilog designs.
//!
//! The generator builds a [`DesignSpec`] — an SSA-style list of typed
//! items, each defining one signal of known width — and prints it as
//! Verilog. Construction rules make every spec elaboratable by design:
//!
//! * combinational items (wires, `@(*)` case blocks, memory read ports,
//!   submodule instances) reference only *earlier* signals, so no
//!   combinational cycle can form;
//! * clocked items (registers, memory write ports) may reference any
//!   existing signal including themselves — feedback through a flip-flop
//!   is legal and exercised deliberately;
//! * bit/part selects carry constant, in-range bounds;
//! * every width is bounded so all nets stay within the 128-bit limit the
//!   two simulators share.
//!
//! Together the items span the coarse-cell vocabulary of the paper's
//! Table 1: the full binary/unary operator set (including division,
//! shifts, comparisons), muxes, concatenation, replication, reductions,
//! registers with nested `if`/`case` control, memories with synchronous
//! write and asynchronous read, and parameterized submodule instances.
//!
//! `generate(seed, cfg)` is a pure function of its arguments — the same
//! seed yields byte-identical Verilog on any platform and any thread
//! count, which the conformance tests assert.

use sns_rt::rng::StdRng;

/// Bounds for random design generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Minimum number of items (signals) per design.
    pub min_items: usize,
    /// Maximum number of items per design.
    pub max_items: usize,
    /// Maximum number of data input ports (besides `clk`).
    pub max_inputs: usize,
    /// Maximum signal width in bits.
    pub max_width: u32,
    /// Maximum expression tree depth.
    pub max_depth: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { min_items: 3, max_items: 12, max_inputs: 4, max_width: 12, max_depth: 3 }
    }
}

/// Widths stop doubling here when a spec is widened, keeping concatenated
/// nets comfortably under the simulators' 128-bit limit.
const MAX_WIDENED_WIDTH: u32 = 24;

/// A binary operator the generator may emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GBin {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Xnor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LAnd,
    LOr,
}

impl GBin {
    const ALL: [GBin; 19] = [
        GBin::Add,
        GBin::Sub,
        GBin::Mul,
        GBin::Div,
        GBin::Mod,
        GBin::And,
        GBin::Or,
        GBin::Xor,
        GBin::Xnor,
        GBin::Shl,
        GBin::Shr,
        GBin::Eq,
        GBin::Ne,
        GBin::Lt,
        GBin::Le,
        GBin::Gt,
        GBin::Ge,
        GBin::LAnd,
        GBin::LOr,
    ];

    fn token(self) -> &'static str {
        match self {
            GBin::Add => "+",
            GBin::Sub => "-",
            GBin::Mul => "*",
            GBin::Div => "/",
            GBin::Mod => "%",
            GBin::And => "&",
            GBin::Or => "|",
            GBin::Xor => "^",
            GBin::Xnor => "~^",
            GBin::Shl => "<<",
            GBin::Shr => ">>",
            GBin::Eq => "==",
            GBin::Ne => "!=",
            GBin::Lt => "<",
            GBin::Le => "<=",
            GBin::Gt => ">",
            GBin::Ge => ">=",
            GBin::LAnd => "&&",
            GBin::LOr => "||",
        }
    }
}

/// A unary operator the generator may emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GUn {
    Not,
    Neg,
    LNot,
    RedAnd,
    RedOr,
    RedXor,
}

impl GUn {
    const ALL: [GUn; 6] = [GUn::Not, GUn::Neg, GUn::LNot, GUn::RedAnd, GUn::RedOr, GUn::RedXor];

    fn token(self) -> &'static str {
        match self {
            GUn::Not => "~",
            GUn::Neg => "-",
            GUn::LNot => "!",
            GUn::RedAnd => "&",
            GUn::RedOr => "|",
            GUn::RedXor => "^",
        }
    }
}

/// A generated expression over the signal pool. Signal references are
/// indices into the design's signal space: inputs first, then items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenExpr {
    /// A whole-signal reference.
    Ref(usize),
    /// A sized constant (`value` already fits `width`).
    Const {
        /// The literal value.
        value: u64,
        /// The declared literal width.
        width: u32,
    },
    /// A unary operator application.
    Un(GUn, Box<GenExpr>),
    /// A binary operator application.
    Bin(GBin, Box<GenExpr>, Box<GenExpr>),
    /// A ternary mux.
    Mux(Box<GenExpr>, Box<GenExpr>, Box<GenExpr>),
    /// A constant bit select `sig[bit]` with `bit < width(sig)`.
    Bit {
        /// The selected signal.
        sig: usize,
        /// The selected bit.
        bit: u32,
    },
    /// A constant part select `sig[msb:lsb]`, bounds in range.
    Part {
        /// The selected signal.
        sig: usize,
        /// The high bound.
        msb: u32,
        /// The low bound.
        lsb: u32,
    },
    /// A concatenation of whole signals, MSB-first as written.
    Cat(Vec<usize>),
    /// A replication `{n{sig}}`.
    Rep {
        /// The replication count.
        n: u32,
        /// The replicated signal.
        sig: usize,
    },
}

/// The body of a clocked register item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegBody {
    /// `s <= expr;`
    Simple(GenExpr),
    /// `if (c) s <= a; else s <= b;`
    IfElse(GenExpr, GenExpr, GenExpr),
    /// Nested control: `if (o) begin if (i) s <= a; else s <= b; end else s <= c;`
    Nested {
        /// Outer condition.
        outer: GenExpr,
        /// Inner condition.
        inner: GenExpr,
        /// Value when both conditions hold.
        a: GenExpr,
        /// Value when only the outer condition holds.
        b: GenExpr,
        /// Value when the outer condition fails.
        c: GenExpr,
    },
}

/// One item of a design; item `k` defines signal `s{k}` (also exported as
/// output port `o{k}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenItem {
    /// `wire [w-1:0] s = expr;`
    Wire {
        /// Signal width.
        width: u32,
        /// The driving expression (earlier signals only).
        expr: GenExpr,
    },
    /// A clocked register with optional nested control flow.
    Reg {
        /// Signal width.
        width: u32,
        /// The always-block body (may reference any signal incl. itself).
        body: RegBody,
    },
    /// A combinational `always @(*)` block: unconditional default
    /// assignment, then a full `case` over a 1- or 2-bit subject.
    CombCase {
        /// Signal width.
        width: u32,
        /// The case subject (a [`GenExpr::Bit`] or [`GenExpr::Part`]).
        subject: GenExpr,
        /// The pre-case default assignment.
        default: GenExpr,
        /// One arm per subject value, in order.
        arms: Vec<GenExpr>,
    },
    /// A memory with synchronous write and asynchronous read; the item's
    /// signal is the read port.
    Mem {
        /// Data width.
        width: u32,
        /// Number of entries (a power of two).
        depth: u32,
        /// Write enable (clocked; any signal).
        wen: GenExpr,
        /// Write address (clocked; any signal).
        waddr: GenExpr,
        /// Write data (clocked; any signal).
        wdata: GenExpr,
        /// Read address: an *earlier* signal (the read is combinational).
        raddr_sig: usize,
    },
    /// An instance of a parameterized helper module, `W` set to the
    /// item width. `deep: false` instantiates the flat `cfm_unit`;
    /// `deep: true` instantiates `cfm_deep`, the root of a three-level
    /// helper hierarchy (`cfm_deep` → `cfm_mid` → `cfm_leaf`, with
    /// `cfm_leaf` shared by both parents) that exercises per-module
    /// elaboration reuse and transitive invalidation.
    Inst {
        /// Signal width (and the `W` parameter override).
        width: u32,
        /// First operand signal (earlier only).
        a: usize,
        /// Second operand signal (earlier only).
        b: usize,
        /// Instantiate the deep helper hierarchy instead of `cfm_unit`.
        deep: bool,
    },
}

impl GenItem {
    /// The width of the signal this item defines.
    pub fn width(&self) -> u32 {
        match self {
            GenItem::Wire { width, .. }
            | GenItem::Reg { width, .. }
            | GenItem::CombCase { width, .. }
            | GenItem::Mem { width, .. }
            | GenItem::Inst { width, .. } => *width,
        }
    }
}

/// A complete generated design: input ports plus an item list. Printable
/// as Verilog with [`DesignSpec::verilog`]; the module name is always
/// `top`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpec {
    /// The seed this spec was generated from (0 for hand-built specs).
    pub seed: u64,
    /// Widths of the data inputs `i0..`; `clk` is implicit.
    pub input_widths: Vec<u32>,
    /// The items, each defining signal `s{k}` / output `o{k}`.
    pub items: Vec<GenItem>,
}

/// The flat parameterized helper module instantiated by
/// [`GenItem::Inst`] with `deep: false`.
const HELPER: &str = "module cfm_unit #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);
    assign y = (a & b) + (a ^ b);
endmodule
";

/// The shared leaf of the deep helper hierarchy.
const HELPER_LEAF: &str = "module cfm_leaf #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);
    assign y = (a | b) ^ (a + b);
endmodule
";

/// The middle tier: two `cfm_leaf` instances in series.
const HELPER_MID: &str = "module cfm_mid #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);
    wire [W-1:0] t0;
    wire [W-1:0] t1;
    cfm_leaf #(.W(W)) l0 (.a(a), .b(b), .y(t0));
    cfm_leaf #(.W(W)) l1 (.a(b), .b(t0), .y(t1));
    assign y = t0 ^ t1;
endmodule
";

/// The hierarchy root instantiated by [`GenItem::Inst`] with
/// `deep: true`: one `cfm_mid` (which itself holds two `cfm_leaf`s) plus
/// a direct `cfm_leaf`, so the leaf is shared across two parents and the
/// instance tree under `top` is three modules deep.
const HELPER_DEEP: &str = "module cfm_deep #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);
    wire [W-1:0] m;
    wire [W-1:0] l;
    cfm_mid #(.W(W)) md (.a(a), .b(b), .y(m));
    cfm_leaf #(.W(W)) lf (.a(m), .b(a), .y(l));
    assign y = m + l;
endmodule
";

/// Name and source text of every helper module the generator can emit,
/// in dependency order (leaves first). Exposed so oracles that merge
/// patched sources can re-append helpers a patch dropped.
pub const HELPERS: [(&str, &str); 4] = [
    ("cfm_leaf", HELPER_LEAF),
    ("cfm_mid", HELPER_MID),
    ("cfm_deep", HELPER_DEEP),
    ("cfm_unit", HELPER),
];

impl DesignSpec {
    /// The top module name.
    pub fn top(&self) -> &'static str {
        "top"
    }

    /// Packages the spec as a named [`sns_designs::Design`]
    /// (`Family::Other`, base = the name), so generated RTL can flow
    /// through the same dataset/labeling/training paths as catalog
    /// designs — the `sns-train` label factory mints its corpus this way.
    pub fn to_design(&self, name: impl Into<String>) -> sns_designs::Design {
        let name = name.into();
        let base = name.clone();
        sns_designs::Design::new(name, sns_designs::Family::Other, self.top(), base, self.verilog())
    }

    /// The name of signal `idx` (inputs first, then items).
    pub fn sig_name(&self, idx: usize) -> String {
        if idx < self.input_widths.len() {
            format!("i{idx}")
        } else {
            format!("s{}", idx - self.input_widths.len())
        }
    }

    /// The width of signal `idx`.
    pub fn width_of(&self, idx: usize) -> u32 {
        if idx < self.input_widths.len() {
            self.input_widths[idx]
        } else {
            self.items[idx - self.input_widths.len()].width()
        }
    }

    /// Total number of signals (inputs + items).
    pub fn signal_count(&self) -> usize {
        self.input_widths.len() + self.items.len()
    }

    /// Prints the spec as Verilog.
    pub fn verilog(&self) -> String {
        let mut out = String::new();
        if self.items.iter().any(|i| matches!(i, GenItem::Inst { deep: false, .. })) {
            out.push_str(HELPER);
        }
        if self.items.iter().any(|i| matches!(i, GenItem::Inst { deep: true, .. })) {
            out.push_str(HELPER_LEAF);
            out.push_str(HELPER_MID);
            out.push_str(HELPER_DEEP);
        }
        out.push_str("module top (input clk");
        for (i, w) in self.input_widths.iter().enumerate() {
            out.push_str(&format!(", input [{}:0] i{i}", w - 1));
        }
        for (k, item) in self.items.iter().enumerate() {
            out.push_str(&format!(", output [{}:0] o{k}", item.width() - 1));
        }
        out.push_str(");\n");
        for (k, item) in self.items.iter().enumerate() {
            self.emit_item(&mut out, k, item);
        }
        for (k, _) in self.items.iter().enumerate() {
            out.push_str(&format!("    assign o{k} = s{k};\n"));
        }
        out.push_str("endmodule\n");
        out
    }

    fn emit_item(&self, out: &mut String, k: usize, item: &GenItem) {
        match item {
            GenItem::Wire { width, expr } => {
                out.push_str(&format!("    wire [{}:0] s{k};\n", width - 1));
                out.push_str(&format!("    assign s{k} = {};\n", self.expr_str(expr)));
            }
            GenItem::Reg { width, body } => {
                out.push_str(&format!("    reg [{}:0] s{k};\n", width - 1));
                match body {
                    RegBody::Simple(e) => {
                        out.push_str(&format!(
                            "    always @(posedge clk) s{k} <= {};\n",
                            self.expr_str(e)
                        ));
                    }
                    RegBody::IfElse(c, a, b) => {
                        out.push_str("    always @(posedge clk) begin\n");
                        out.push_str(&format!(
                            "        if ({}) s{k} <= {};\n",
                            self.expr_str(c),
                            self.expr_str(a)
                        ));
                        out.push_str(&format!("        else s{k} <= {};\n", self.expr_str(b)));
                        out.push_str("    end\n");
                    }
                    RegBody::Nested { outer, inner, a, b, c } => {
                        out.push_str("    always @(posedge clk) begin\n");
                        out.push_str(&format!("        if ({}) begin\n", self.expr_str(outer)));
                        out.push_str(&format!(
                            "            if ({}) s{k} <= {};\n",
                            self.expr_str(inner),
                            self.expr_str(a)
                        ));
                        out.push_str(&format!(
                            "            else s{k} <= {};\n",
                            self.expr_str(b)
                        ));
                        out.push_str("        end else begin\n");
                        out.push_str(&format!("            s{k} <= {};\n", self.expr_str(c)));
                        out.push_str("        end\n    end\n");
                    }
                }
            }
            GenItem::CombCase { width, subject, default, arms } => {
                let sw = arms.len().trailing_zeros(); // 2 arms -> 1 bit, 4 -> 2
                out.push_str(&format!("    reg [{}:0] s{k};\n", width - 1));
                out.push_str("    always @(*) begin\n");
                out.push_str(&format!("        s{k} = {};\n", self.expr_str(default)));
                out.push_str(&format!("        case ({})\n", self.expr_str(subject)));
                for (v, arm) in arms.iter().enumerate() {
                    out.push_str(&format!(
                        "            {sw}'d{v}: s{k} = {};\n",
                        self.expr_str(arm)
                    ));
                }
                out.push_str("        endcase\n    end\n");
            }
            GenItem::Mem { width, depth, wen, waddr, wdata, raddr_sig } => {
                out.push_str(&format!("    reg [{}:0] m{k} [0:{}];\n", width - 1, depth - 1));
                out.push_str(&format!("    wire [{}:0] s{k};\n", width - 1));
                out.push_str("    always @(posedge clk) begin\n");
                out.push_str(&format!(
                    "        if ({}) m{k}[{}] <= {};\n",
                    self.expr_str(wen),
                    self.expr_str(waddr),
                    self.expr_str(wdata)
                ));
                out.push_str("    end\n");
                out.push_str(&format!(
                    "    assign s{k} = m{k}[{}];\n",
                    self.sig_name(*raddr_sig)
                ));
            }
            GenItem::Inst { width, a, b, deep } => {
                let module = if *deep { "cfm_deep" } else { "cfm_unit" };
                out.push_str(&format!("    wire [{}:0] s{k};\n", width - 1));
                out.push_str(&format!(
                    "    {module} #(.W({width})) u{k} (.a({}), .b({}), .y(s{k}));\n",
                    self.sig_name(*a),
                    self.sig_name(*b)
                ));
            }
        }
    }

    fn expr_str(&self, e: &GenExpr) -> String {
        match e {
            GenExpr::Ref(i) => self.sig_name(*i),
            GenExpr::Const { value, width } => format!("{width}'d{value}"),
            GenExpr::Un(op, a) => format!("({}{})", op.token(), self.expr_str(a)),
            GenExpr::Bin(op, a, b) => {
                format!("({} {} {})", self.expr_str(a), op.token(), self.expr_str(b))
            }
            GenExpr::Mux(c, a, b) => format!(
                "({} ? {} : {})",
                self.expr_str(c),
                self.expr_str(a),
                self.expr_str(b)
            ),
            GenExpr::Bit { sig, bit } => format!("{}[{bit}]", self.sig_name(*sig)),
            GenExpr::Part { sig, msb, lsb } => {
                format!("{}[{msb}:{lsb}]", self.sig_name(*sig))
            }
            GenExpr::Cat(sigs) => {
                let parts: Vec<String> = sigs.iter().map(|&s| self.sig_name(s)).collect();
                format!("{{{}}}", parts.join(", "))
            }
            GenExpr::Rep { n, sig } => format!("{{{n}{{{}}}}}", self.sig_name(*sig)),
        }
    }

    /// The same design with every signal width doubled (capped at
    /// `MAX_WIDENED_WIDTH`, 24 bits). Select bounds, case subjects, constants and
    /// memory depths are untouched, so the widened spec stays well-formed;
    /// the vsynth monotonicity oracle demands its gate count never drops.
    pub fn widened(&self) -> DesignSpec {
        let widen = |w: u32| (w * 2).min(MAX_WIDENED_WIDTH.max(w));
        let mut out = self.clone();
        for w in &mut out.input_widths {
            *w = widen(*w);
        }
        for item in &mut out.items {
            match item {
                GenItem::Wire { width, .. }
                | GenItem::Reg { width, .. }
                | GenItem::CombCase { width, .. }
                | GenItem::Mem { width, .. }
                | GenItem::Inst { width, .. } => *width = widen(*width),
            }
        }
        out
    }
}

/// Generates a random well-formed design. Pure in `(seed, cfg)`.
pub fn generate(seed: u64, cfg: &GenConfig) -> DesignSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_inputs = rng.gen_range(1..cfg.max_inputs + 1);
    let input_widths: Vec<u32> =
        (0..n_inputs).map(|_| rng.gen_range(1..cfg.max_width + 1)).collect();
    let n_items = rng.gen_range(cfg.min_items..cfg.max_items + 1);
    let mut spec = DesignSpec { seed, input_widths, items: Vec::with_capacity(n_items) };
    for _ in 0..n_items {
        let item = gen_item(&mut rng, &spec, cfg);
        spec.items.push(item);
    }
    spec
}

fn gen_item(rng: &mut StdRng, spec: &DesignSpec, cfg: &GenConfig) -> GenItem {
    let comb_pool = spec.signal_count(); // earlier signals only
    let clocked_pool = comb_pool + 1; // self-reference allowed
    let width = rng.gen_range(1..cfg.max_width + 1);
    match rng.pick_weighted(&[5, 4, 2, 2, 2]) {
        0 => GenItem::Wire { width, expr: gen_expr(rng, spec, comb_pool, cfg.max_depth, cfg) },
        1 => {
            let body = match rng.pick_weighted(&[3, 2, 2]) {
                0 => RegBody::Simple(gen_expr(rng, spec, clocked_pool, cfg.max_depth, cfg)),
                1 => RegBody::IfElse(
                    gen_expr(rng, spec, clocked_pool, 2, cfg),
                    gen_expr(rng, spec, clocked_pool, cfg.max_depth, cfg),
                    gen_expr(rng, spec, clocked_pool, cfg.max_depth, cfg),
                ),
                _ => RegBody::Nested {
                    outer: gen_expr(rng, spec, clocked_pool, 2, cfg),
                    inner: gen_expr(rng, spec, clocked_pool, 2, cfg),
                    a: gen_expr(rng, spec, clocked_pool, 2, cfg),
                    b: gen_expr(rng, spec, clocked_pool, 2, cfg),
                    c: gen_expr(rng, spec, clocked_pool, 2, cfg),
                },
            };
            GenItem::Reg { width, body }
        }
        2 => {
            let subj_sig = rng.gen_range(0..comb_pool);
            let subject = if spec.width_of(subj_sig) >= 2 {
                GenExpr::Part { sig: subj_sig, msb: 1, lsb: 0 }
            } else {
                GenExpr::Bit { sig: subj_sig, bit: 0 }
            };
            let n_arms = if matches!(subject, GenExpr::Part { .. }) { 4 } else { 2 };
            let arms = (0..n_arms).map(|_| gen_expr(rng, spec, comb_pool, 2, cfg)).collect();
            GenItem::CombCase {
                width,
                subject,
                default: gen_expr(rng, spec, comb_pool, 2, cfg),
                arms,
            }
        }
        3 => {
            let depth = if rng.gen_bool(0.5) { 4 } else { 8 };
            GenItem::Mem {
                width,
                depth,
                wen: gen_expr(rng, spec, clocked_pool, 2, cfg),
                waddr: gen_expr(rng, spec, clocked_pool, 2, cfg),
                wdata: gen_expr(rng, spec, clocked_pool, cfg.max_depth, cfg),
                raddr_sig: rng.gen_range(0..comb_pool),
            }
        }
        _ => GenItem::Inst {
            width,
            a: rng.gen_range(0..comb_pool),
            b: rng.gen_range(0..comb_pool),
            deep: rng.gen_bool(0.4),
        },
    }
}

/// Replaces one randomly chosen item of `spec` with a freshly generated
/// one of the *same width*, drawing only on signals defined before it —
/// the module interface and every later select bound stay valid, so the
/// edited spec elaborates whenever `spec` does. Pure in
/// `(spec, edit_seed)`; models a single-module ECO on `top`.
pub fn edit(spec: &DesignSpec, edit_seed: u64, cfg: &GenConfig) -> DesignSpec {
    assert!(!spec.items.is_empty(), "cannot edit an empty spec");
    let mut rng = StdRng::seed_from_u64(edit_seed);
    let k = rng.gen_range(0..spec.items.len());
    let width = spec.items[k].width();
    // Regenerate item k against the truncated signal pool (inputs plus
    // items 0..k), exactly the pool the original generator saw.
    let stub = DesignSpec {
        seed: spec.seed,
        input_widths: spec.input_widths.clone(),
        items: spec.items[..k].to_vec(),
    };
    let mut item = gen_item(&mut rng, &stub, cfg);
    // Pin the declared width so output port o{k} and all later bit/part
    // selects into s{k} remain in range. Expressions inside the item are
    // width-agnostic (Verilog extends/truncates), so this is safe.
    match &mut item {
        GenItem::Wire { width: w, .. }
        | GenItem::Reg { width: w, .. }
        | GenItem::CombCase { width: w, .. }
        | GenItem::Mem { width: w, .. }
        | GenItem::Inst { width: w, .. } => *w = width,
    }
    let mut out = spec.clone();
    out.items[k] = item;
    out
}

fn gen_expr(rng: &mut StdRng, spec: &DesignSpec, pool: usize, depth: u32, cfg: &GenConfig) -> GenExpr {
    debug_assert!(pool > 0, "the signal pool always holds at least one input");
    let leaf = depth == 0;
    //                       Ref Const Un Bin Mux Bit Part Cat Rep
    let weights: [u32; 9] =
        if leaf { [4, 2, 0, 0, 0, 1, 1, 0, 0] } else { [3, 2, 2, 6, 2, 1, 1, 1, 1] };
    match rng.pick_weighted(&weights) {
        0 => GenExpr::Ref(rng.gen_range(0..pool)),
        1 => {
            let width = rng.gen_range(1..cfg.max_width + 1);
            let value = rng.next_u64() & (u64::MAX >> (64 - width.min(64)));
            GenExpr::Const { value, width }
        }
        2 => {
            let op = GUn::ALL[rng.gen_range(0..GUn::ALL.len())];
            GenExpr::Un(op, Box::new(gen_expr(rng, spec, pool, depth - 1, cfg)))
        }
        3 => {
            let op = GBin::ALL[rng.gen_range(0..GBin::ALL.len())];
            GenExpr::Bin(
                op,
                Box::new(gen_expr(rng, spec, pool, depth - 1, cfg)),
                Box::new(gen_expr(rng, spec, pool, depth - 1, cfg)),
            )
        }
        4 => GenExpr::Mux(
            Box::new(gen_expr(rng, spec, pool, depth - 1, cfg)),
            Box::new(gen_expr(rng, spec, pool, depth - 1, cfg)),
            Box::new(gen_expr(rng, spec, pool, depth - 1, cfg)),
        ),
        5 => {
            let sig = rng.gen_range(0..pool);
            // A clocked pool may include the not-yet-built self signal;
            // fall back to a plain reference for it (width unknown here).
            if sig >= spec.signal_count() {
                return GenExpr::Ref(sig);
            }
            let w = spec.width_of(sig);
            GenExpr::Bit { sig, bit: rng.gen_range(0..w) }
        }
        6 => {
            let sig = rng.gen_range(0..pool);
            if sig >= spec.signal_count() {
                return GenExpr::Ref(sig);
            }
            let w = spec.width_of(sig);
            let lsb = rng.gen_range(0..w);
            let msb = rng.gen_range(lsb..w);
            GenExpr::Part { sig, msb, lsb }
        }
        7 => {
            let n = rng.gen_range(2..4usize);
            let sigs = (0..n).map(|_| rng.gen_range(0..pool)).collect();
            GenExpr::Cat(sigs)
        }
        _ => GenExpr::Rep { n: rng.gen_range(1..4u32), sig: rng.gen_range(0..pool) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure_in_the_seed() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a, b);
            assert_eq!(a.verilog(), b.verilog());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let sources: Vec<String> = (0..10).map(|s| generate(s, &cfg).verilog()).collect();
        let distinct: std::collections::HashSet<&String> = sources.iter().collect();
        assert!(distinct.len() > 5, "seeds should yield mostly distinct designs");
    }

    #[test]
    fn all_generated_specs_elaborate() {
        let cfg = GenConfig::default();
        for seed in 0..100 {
            let spec = generate(seed, &cfg);
            let src = spec.verilog();
            sns_netlist::parse_and_elaborate(&src, spec.top())
                .unwrap_or_else(|e| panic!("seed {seed} must elaborate: {e}\n{src}"));
        }
    }

    #[test]
    fn widening_preserves_well_formedness() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let spec = generate(seed, &cfg).widened();
            let src = spec.verilog();
            sns_netlist::parse_and_elaborate(&src, spec.top())
                .unwrap_or_else(|e| panic!("widened seed {seed} must elaborate: {e}\n{src}"));
        }
    }

    #[test]
    fn item_vocabulary_is_reachable() {
        let cfg = GenConfig { max_items: 16, ..GenConfig::default() };
        let mut seen = [false; 6];
        for seed in 0..200 {
            for item in &generate(seed, &cfg).items {
                let idx = match item {
                    GenItem::Wire { .. } => 0,
                    GenItem::Reg { .. } => 1,
                    GenItem::CombCase { .. } => 2,
                    GenItem::Mem { .. } => 3,
                    GenItem::Inst { deep: false, .. } => 4,
                    GenItem::Inst { deep: true, .. } => 5,
                };
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all item kinds reachable: {seen:?}");
    }

    #[test]
    fn deep_hierarchy_elaborates_and_is_three_levels() {
        let spec = DesignSpec {
            seed: 0,
            input_widths: vec![6, 6],
            items: vec![GenItem::Inst { width: 6, a: 0, b: 1, deep: true }],
        };
        let src = spec.verilog();
        for name in ["cfm_leaf", "cfm_mid", "cfm_deep"] {
            assert!(src.contains(&format!("module {name}")), "missing {name}:\n{src}");
        }
        sns_netlist::parse_and_elaborate(&src, spec.top()).expect("deep hierarchy elaborates");
        // The instance tree under top really is three modules deep, with
        // cfm_leaf shared by cfm_mid and cfm_deep.
        let design = sns_netlist::parse_source(&src).unwrap();
        let hashes = sns_netlist::design_hashes(&design);
        assert_eq!(hashes.len(), 4); // leaf, mid, deep, top
        assert_ne!(hashes["cfm_mid"].own, hashes["cfm_mid"].trans, "mid has children");
        assert_ne!(hashes["cfm_deep"].own, hashes["cfm_deep"].trans, "deep has children");
    }

    #[test]
    fn edit_is_pure_and_preserves_well_formedness() {
        let cfg = GenConfig::default();
        let mut changed = 0;
        for seed in 0..40u64 {
            let spec = generate(seed, &cfg);
            let mut cur = spec.clone();
            for step in 0..4u64 {
                let eseed = seed * 1000 + step;
                let a = edit(&cur, eseed, &cfg);
                assert_eq!(a, edit(&cur, eseed, &cfg), "edit must be pure in its seed");
                let src = a.verilog();
                sns_netlist::parse_and_elaborate(&src, a.top())
                    .unwrap_or_else(|e| panic!("edited seed {seed}/{step} must elaborate: {e}\n{src}"));
                // The interface never moves: same inputs, same output widths.
                assert_eq!(a.input_widths, cur.input_widths);
                assert_eq!(a.items.len(), cur.items.len());
                for (x, y) in a.items.iter().zip(&cur.items) {
                    assert_eq!(x.width(), y.width());
                }
                if a != cur {
                    changed += 1;
                }
                cur = a;
            }
        }
        assert!(changed > 100, "edits should usually change the design: {changed}");
    }
}
