//! Structural content hashing for module definitions.
//!
//! The incremental elaboration cache (see [`crate::incremental`]) keys
//! module bodies by *content*, not by source text: hashing walks the
//! parsed AST, so two sources that differ only in whitespace, comments,
//! or token spelling that the lexer normalizes away produce the same
//! hash. Anything that changes elaboration — port lists, parameter
//! defaults, body items, expression structure — changes the hash.
//!
//! Two hashes are computed per module:
//!
//! * the **own** hash covers exactly one module definition;
//! * the **transitive** hash additionally folds in the transitive hashes
//!   of every module the body instantiates, so editing a leaf module
//!   changes the transitive hash of every ancestor. Key equality on the
//!   transitive hash therefore gives "this whole subtree is unchanged"
//!   for free, which is what lets cached elaborations be reused safely.
//!
//! Hashes are 128 bits (two FNV-1a streams with distinct offset bases):
//! wide enough that accidental collisions across a realistic design
//! corpus are not a practical concern (the conformance suite checks a
//! catalog + 1000 generated designs for collisions).
//!
//! Recursion over expressions is safe: the parser caps AST nesting at
//! [`crate::parser::MAX_DEPTH`], so hashing depth is bounded too.

use std::collections::{BTreeSet, HashMap};

use crate::ast::{
    Always, Connection, Decl, Design, Dir, Expr, Item, LValue, Module, Range, Stmt,
};

/// The content hashes of one module definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModHash {
    /// Hash of this module definition alone.
    pub own: [u64; 2],
    /// Hash of this module plus every transitively instantiated module.
    pub trans: [u64; 2],
}

/// A 128-bit FNV-1a accumulator (two independent 64-bit streams).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv128 {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv128 {
    pub(crate) fn new() -> Self {
        // Stream A uses the standard FNV-1a offset basis; stream B a
        // distinct constant so the two streams decorrelate.
        Fnv128 { a: 0xcbf2_9ce4_8422_2325, b: 0x6c62_272e_07bb_0142 }
    }

    pub(crate) fn byte(&mut self, x: u8) {
        self.a = (self.a ^ x as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ x as u64).wrapping_mul(FNV_PRIME.wrapping_add(2));
    }

    pub(crate) fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.byte(byte);
        }
    }

    pub(crate) fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    pub(crate) fn str(&mut self, s: &str) {
        // Length prefix keeps ("ab","c") distinct from ("a","bc").
        self.usize(s.len());
        for byte in s.as_bytes() {
            self.byte(*byte);
        }
    }

    pub(crate) fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    pub(crate) fn finish(self) -> [u64; 2] {
        [self.a, self.b]
    }
}

/// FNV-128 over raw bytes: the same double-stream accumulator the module
/// content hashes use, exposed for callers that key on opaque byte
/// content rather than an AST — e.g. the `sns-serve` consistent-hash
/// replica router, which keys requests on design/base-token content so
/// identical designs always land on the same replica's caches.
pub fn fnv128_bytes(bytes: &[u8]) -> [u64; 2] {
    let mut h = Fnv128::new();
    for &b in bytes {
        h.byte(b);
    }
    h.finish()
}

/// Hashes one module definition (its own content only).
pub fn module_hash(m: &Module) -> [u64; 2] {
    let mut h = Fnv128::new();
    hash_module(&mut h, m);
    h.finish()
}

/// Computes own + transitive hashes for every module in a design.
///
/// A module that instantiates an undefined module, or participates in an
/// instantiation cycle, still gets a well-defined transitive hash (a
/// marker is mixed in); elaboration reports the real error later.
pub fn design_hashes(design: &Design) -> HashMap<String, ModHash> {
    let own: HashMap<&str, [u64; 2]> =
        design.modules.iter().map(|m| (m.name.as_str(), module_hash(m))).collect();
    // Direct instantiation edges, per module, sorted + deduped so the
    // transitive hash depends on the set of children, not on body order
    // (body order is already covered by the own hash).
    let children: HashMap<&str, Vec<&str>> =
        design.modules.iter().map(|m| (m.name.as_str(), instantiated_children(m))).collect();

    // Iterative DFS with a visiting set: cycles and missing definitions
    // mix a marker instead of recursing forever.
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Visiting,
        Done,
    }
    let mut trans: HashMap<&str, [u64; 2]> = HashMap::new();
    let mut state: HashMap<&str, State> = HashMap::new();
    for root in design.modules.iter().map(|m| m.name.as_str()) {
        if state.get(root) == Some(&State::Done) {
            continue;
        }
        // (module, next child index) explicit stack.
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        state.insert(root, State::Visiting);
        while let Some(&mut (name, ref mut idx)) = stack.last_mut() {
            let kids = children.get(name).map(Vec::as_slice).unwrap_or(&[]);
            if *idx < kids.len() {
                let kid = kids[*idx];
                *idx += 1;
                match state.get(kid) {
                    Some(State::Done) | Some(State::Visiting) => {}
                    None if own.contains_key(kid) => {
                        state.insert(kid, State::Visiting);
                        stack.push((kid, 0));
                    }
                    None => {}
                }
            } else {
                let mut h = Fnv128::new();
                h.tag(0xA0);
                match own.get(name) {
                    Some(o) => {
                        h.u64(o[0]);
                        h.u64(o[1]);
                    }
                    None => h.tag(0xFF),
                }
                for kid in kids {
                    h.str(kid);
                    match (state.get(kid), trans.get(kid)) {
                        (_, Some(t)) => {
                            h.u64(t[0]);
                            h.u64(t[1]);
                        }
                        (Some(State::Visiting), None) => h.tag(0xC1), // cycle marker
                        _ => h.tag(0xFE), // missing definition marker
                    }
                }
                trans.insert(name, h.finish());
                state.insert(name, State::Done);
                stack.pop();
            }
        }
    }

    design
        .modules
        .iter()
        .map(|m| {
            let name = m.name.as_str();
            let t = trans.get(name).copied().unwrap_or([0, 0]);
            (m.name.clone(), ModHash { own: own.get(name).copied().unwrap_or([0, 0]), trans: t })
        })
        .collect()
}

/// `top` plus every module it transitively instantiates: the modules an
/// elaboration of `top` builds, read off the AST's instance edges.
///
/// Exact for every design that elaborates: the grammar has no generate
/// blocks or conditional instances, so each instance item is elaborated
/// exactly once per enclosing instance. Names resolve as the elaborator
/// resolves them (the first definition wins); undefined names are
/// skipped. Empty if `top` is not defined.
pub fn instantiated_modules(design: &Design, top: &str) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut work: Vec<&str> = vec![top];
    while let Some(name) = work.pop() {
        let Some(m) = design.module(name) else { continue };
        if seen.insert(m.name.clone()) {
            work.extend(instantiated_children(m));
        }
    }
    seen
}

/// The module names `m` instantiates directly, sorted and deduplicated.
fn instantiated_children(m: &Module) -> Vec<&str> {
    let mut c: Vec<&str> = m
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Instance(inst) => Some(inst.module.as_str()),
            _ => None,
        })
        .collect();
    c.sort_unstable();
    c.dedup();
    c
}

fn hash_module(h: &mut Fnv128, m: &Module) {
    h.tag(1);
    h.str(&m.name);
    h.usize(m.ports.len());
    for p in &m.ports {
        h.tag(match p.dir {
            Dir::Input => 2,
            Dir::Output => 3,
        });
        h.str(&p.name);
        hash_opt_range(h, &p.range);
        h.tag(p.is_reg as u8);
    }
    h.usize(m.params.len());
    for p in &m.params {
        h.tag(4);
        h.str(&p.name);
        hash_expr(h, &p.default);
        h.tag(p.local as u8);
    }
    h.usize(m.items.len());
    for item in &m.items {
        hash_item(h, item);
    }
}

fn hash_opt_range(h: &mut Fnv128, r: &Option<Range>) {
    match r {
        None => h.tag(5),
        Some(r) => {
            h.tag(6);
            hash_expr(h, &r.msb);
            hash_expr(h, &r.lsb);
        }
    }
}

fn hash_item(h: &mut Fnv128, item: &Item) {
    match item {
        Item::Decl(d) => {
            h.tag(10);
            hash_decl(h, d);
        }
        Item::Assign { lhs, rhs } => {
            h.tag(11);
            hash_lvalue(h, lhs);
            hash_expr(h, rhs);
        }
        Item::Always(a) => {
            h.tag(12);
            hash_always(h, a);
        }
        Item::Instance(inst) => {
            h.tag(13);
            h.str(&inst.module);
            h.str(&inst.name);
            h.usize(inst.params.len());
            for (name, e) in &inst.params {
                h.str(name);
                hash_expr(h, e);
            }
            h.usize(inst.conns.len());
            for conn in &inst.conns {
                match conn {
                    Connection::Named(port, e) => {
                        h.tag(14);
                        h.str(port);
                        match e {
                            None => h.tag(15),
                            Some(e) => {
                                h.tag(16);
                                hash_expr(h, e);
                            }
                        }
                    }
                    Connection::Positional(i, e) => {
                        h.tag(17);
                        h.usize(*i);
                        hash_expr(h, e);
                    }
                }
            }
        }
    }
}

fn hash_decl(h: &mut Fnv128, d: &Decl) {
    h.tag(d.is_reg as u8);
    hash_opt_range(h, &d.range);
    h.usize(d.names.len());
    for n in &d.names {
        h.str(&n.name);
        hash_opt_range(h, &n.mem_range);
        match &n.init {
            None => h.tag(18),
            Some(e) => {
                h.tag(19);
                hash_expr(h, e);
            }
        }
    }
}

fn hash_always(h: &mut Fnv128, a: &Always) {
    match &a.clock {
        None => h.tag(20),
        Some(c) => {
            h.tag(21);
            h.str(c);
        }
    }
    hash_stmt(h, &a.body);
}

fn hash_stmt(h: &mut Fnv128, s: &Stmt) {
    match s {
        Stmt::Block(stmts) => {
            h.tag(30);
            h.usize(stmts.len());
            for s in stmts {
                hash_stmt(h, s);
            }
        }
        Stmt::Assign { lhs, rhs, nonblocking } => {
            h.tag(31);
            hash_lvalue(h, lhs);
            hash_expr(h, rhs);
            h.tag(*nonblocking as u8);
        }
        Stmt::If { cond, then_s, else_s } => {
            h.tag(32);
            hash_expr(h, cond);
            hash_stmt(h, then_s);
            match else_s {
                None => h.tag(33),
                Some(e) => {
                    h.tag(34);
                    hash_stmt(h, e);
                }
            }
        }
        Stmt::Case { subject, arms, default } => {
            h.tag(35);
            hash_expr(h, subject);
            h.usize(arms.len());
            for (labels, body) in arms {
                h.usize(labels.len());
                for l in labels {
                    hash_expr(h, l);
                }
                hash_stmt(h, body);
            }
            match default {
                None => h.tag(36),
                Some(d) => {
                    h.tag(37);
                    hash_stmt(h, d);
                }
            }
        }
        Stmt::Empty => h.tag(38),
    }
}

fn hash_lvalue(h: &mut Fnv128, lv: &LValue) {
    match lv {
        LValue::Ident(n) => {
            h.tag(40);
            h.str(n);
        }
        LValue::BitSelect(n, i) => {
            h.tag(41);
            h.str(n);
            hash_expr(h, i);
        }
        LValue::PartSelect(n, m, l) => {
            h.tag(42);
            h.str(n);
            hash_expr(h, m);
            hash_expr(h, l);
        }
        LValue::Concat(parts) => {
            h.tag(43);
            h.usize(parts.len());
            for p in parts {
                hash_lvalue(h, p);
            }
        }
    }
}

fn hash_expr(h: &mut Fnv128, e: &Expr) {
    match e {
        Expr::Ident(n) => {
            h.tag(50);
            h.str(n);
        }
        Expr::Number { value, width } => {
            h.tag(51);
            h.u64(*value);
            match width {
                None => h.tag(52),
                Some(w) => {
                    h.tag(53);
                    h.u64(*w as u64);
                }
            }
        }
        Expr::Unary(op, a) => {
            h.tag(54);
            h.tag(*op as u8);
            hash_expr(h, a);
        }
        Expr::Binary(op, a, b) => {
            h.tag(55);
            h.tag(*op as u8);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Ternary(c, a, b) => {
            h.tag(56);
            hash_expr(h, c);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::BitSelect(base, i) => {
            h.tag(57);
            hash_expr(h, base);
            hash_expr(h, i);
        }
        Expr::PartSelect(base, m, l) => {
            h.tag(58);
            hash_expr(h, base);
            hash_expr(h, m);
            hash_expr(h, l);
        }
        Expr::Concat(parts) => {
            h.tag(59);
            h.usize(parts.len());
            for p in parts {
                hash_expr(h, p);
            }
        }
        Expr::Replicate(n, inner) => {
            h.tag(60);
            hash_expr(h, n);
            hash_expr(h, inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn hashes_of(src: &str) -> HashMap<String, ModHash> {
        design_hashes(&parse_source(src).unwrap())
    }

    #[test]
    fn whitespace_and_comments_do_not_change_the_hash() {
        let a = hashes_of(
            "module m (input [3:0] a, output [3:0] y);\n    assign y = a + 4'd1;\nendmodule",
        );
        let b = hashes_of(
            "// a comment\nmodule   m(input [3:0] a,\n\n output [3:0] y); /* block\ncomment */ assign y=a+4'd1; endmodule",
        );
        assert_eq!(a.get("m"), b.get("m"));
    }

    #[test]
    fn body_changes_change_the_hash() {
        let a = hashes_of("module m (input [3:0] a, output [3:0] y); assign y = a + 4'd1; endmodule");
        let b = hashes_of("module m (input [3:0] a, output [3:0] y); assign y = a + 4'd2; endmodule");
        assert_ne!(a.get("m").unwrap().own, b.get("m").unwrap().own);
    }

    #[test]
    fn leaf_edit_invalidates_every_ancestor_transitively() {
        let base = "module mid (input [3:0] a, output [3:0] y); leaf u (.a(a), .y(y)); endmodule
                    module top (input [3:0] a, output [3:0] y); mid m (.a(a), .y(y)); endmodule";
        let a = hashes_of(&format!(
            "module leaf (input [3:0] a, output [3:0] y); assign y = a; endmodule {base}"
        ));
        let b = hashes_of(&format!(
            "module leaf (input [3:0] a, output [3:0] y); assign y = ~a; endmodule {base}"
        ));
        // Own hashes of the untouched ancestors agree; transitive hashes
        // all differ because the leaf changed.
        assert_eq!(a.get("mid").unwrap().own, b.get("mid").unwrap().own);
        assert_eq!(a.get("top").unwrap().own, b.get("top").unwrap().own);
        assert_ne!(a.get("leaf").unwrap().trans, b.get("leaf").unwrap().trans);
        assert_ne!(a.get("mid").unwrap().trans, b.get("mid").unwrap().trans);
        assert_ne!(a.get("top").unwrap().trans, b.get("top").unwrap().trans);
    }

    #[test]
    fn instantiation_cycles_and_missing_children_terminate() {
        // `a` instantiates `b` instantiates `a`; `c` instantiates nothing
        // that exists. Hashing must terminate with distinct stable values.
        let h = hashes_of(
            "module a (input x, output y); b u (.x(x), .y(y)); endmodule
             module b (input x, output y); a u (.x(x), .y(y)); endmodule
             module c (input x, output y); ghost u (.x(x), .y(y)); endmodule",
        );
        assert_eq!(h.len(), 3);
        let vals: std::collections::HashSet<[u64; 2]> =
            h.values().map(|m| m.trans).collect();
        assert_eq!(vals.len(), 3, "distinct modules hash distinctly: {h:?}");
    }

    #[test]
    fn instantiated_modules_follow_instance_edges_from_top() {
        let design = parse_source(
            "module leaf (input x, output y); assign y = x; endmodule
             module unused (input x, output y); leaf u (.x(x), .y(y)); endmodule
             module mid (input x, output y); leaf u (.x(x), .y(y)); endmodule
             module top (input x, output y, output z);
                 mid m (.x(x), .y(y));
                 leaf u (.x(x), .y(z));
             endmodule",
        )
        .unwrap();
        let names = |top: &str| -> Vec<String> {
            instantiated_modules(&design, top).into_iter().collect()
        };
        assert_eq!(names("top"), ["leaf", "mid", "top"]);
        assert_eq!(names("leaf"), ["leaf"]);
        assert!(names("ghost").is_empty());
        // Cycles terminate; undefined children are skipped.
        let cyclic = parse_source(
            "module a (input x, output y); b u (.x(x), .y(y)); endmodule
             module b (input x, output y); a u (.x(x), .y(y)); ghost g (.x(x)); endmodule",
        )
        .unwrap();
        assert_eq!(instantiated_modules(&cyclic, "a").into_iter().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn shared_submodules_hash_identically_across_designs() {
        let a = hashes_of(
            "module leaf (input x, output y); assign y = x; endmodule
             module top1 (input x, output y); leaf u (.x(x), .y(y)); endmodule",
        );
        let b = hashes_of(
            "module leaf (input x, output y); assign y = x; endmodule
             module top2 (input x, output y); leaf u (.x(x), .y(y)); leaf v (.x(y)); endmodule",
        );
        assert_eq!(a.get("leaf"), b.get("leaf"));
    }
}
