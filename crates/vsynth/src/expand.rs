//! Bit-level expansion of coarse functional cells into gates.
//!
//! Implementations follow what a timing-driven synthesizer would pick:
//! Kogge–Stone parallel-prefix adders and comparators, AND-array +
//! Wallace-tree multipliers, barrel shifters, restoring array dividers and
//! balanced reduction trees. Widths are bit-exact: callers pass LSB-first
//! bit vectors and get LSB-first bit vectors back.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use sns_netlist::CellKind;

use crate::gates::{GateGraph, GateKind, NodeId, NO_NODE};

/// Builder for gate subgraphs, caching the constant-0/1 nodes.
#[derive(Debug)]
pub struct Expander<'g> {
    /// The graph being extended.
    pub g: &'g mut GateGraph,
    c0: NodeId,
    c1: NodeId,
}

impl<'g> Expander<'g> {
    /// Wraps a graph, allocating the shared constant nodes.
    pub fn new(g: &'g mut GateGraph) -> Self {
        let c0 = g.push(GateKind::Const, [NO_NODE; 3]);
        let c1 = g.push(GateKind::Const, [NO_NODE; 3]);
        Expander { g, c0, c1 }
    }

    /// Re-wraps a graph whose constant nodes already exist (nodes 0 and 1,
    /// as allocated by a previous [`Expander::new`] on the same graph).
    pub fn attach(g: &'g mut GateGraph) -> Self {
        debug_assert!(g.len() >= 2, "attach requires the constant nodes");
        Expander { g, c0: 0, c1: 1 }
    }

    /// The constant-0 bit.
    pub fn const0(&self) -> NodeId {
        self.c0
    }

    /// The constant-1 bit.
    pub fn const1(&self) -> NodeId {
        self.c1
    }

    /// A fresh primary-input bit.
    pub fn input(&mut self) -> NodeId {
        self.g.push(GateKind::Input, [NO_NODE; 3])
    }

    /// A vector of fresh primary-input bits.
    pub fn inputs(&mut self, w: u32) -> Vec<NodeId> {
        (0..w).map(|_| self.input()).collect()
    }

    /// Bits of a constant value (LSB first). Widths beyond 64 zero-extend:
    /// constants are adapted to their context width, which can exceed the
    /// 64-bit attribute payload (e.g. comparisons against wide concats).
    pub fn const_bits(&self, value: u64, w: u32) -> Vec<NodeId> {
        (0..w)
            .map(|i| if i < 64 && (value >> i) & 1 == 1 { self.c1 } else { self.c0 })
            .collect()
    }

    /// Zero-extends or truncates a bit vector to `w` bits (free — wiring).
    pub fn resize(&self, bits: &[NodeId], w: u32) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = bits.iter().copied().take(w as usize).collect();
        while v.len() < w as usize {
            v.push(self.c0);
        }
        v
    }

    // ---- bitwise ----

    /// Per-bit unary gate.
    pub fn map1(&mut self, kind: GateKind, a: &[NodeId]) -> Vec<NodeId> {
        a.iter().map(|&x| self.g.push1(kind, x)).collect()
    }

    /// Per-bit binary gate (operands must be equal width).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn map2(&mut self, kind: GateKind, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(a.len(), b.len(), "map2 operands must match");
        a.iter().zip(b).map(|(&x, &y)| self.g.push2(kind, x, y)).collect()
    }

    /// Per-bit 2:1 mux selecting `b` when `sel` is high.
    pub fn mux(&mut self, sel: NodeId, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(a.len(), b.len(), "mux operands must match");
        a.iter().zip(b).map(|(&x, &y)| self.g.push3(GateKind::Mux2, sel, x, y)).collect()
    }

    /// Balanced reduction tree.
    pub fn reduce(&mut self, kind: GateKind, bits: &[NodeId]) -> NodeId {
        assert!(!bits.is_empty(), "cannot reduce zero bits");
        let mut level: Vec<NodeId> = bits.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.g.push2(kind, pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        level[0]
    }

    // ---- arithmetic ----

    /// Kogge–Stone prefix carries: returns `(p, carries)` where
    /// `carries[i]` is the carry *into* bit `i` and `p[i] = a_i ⊕ b_i`.
    fn prefix_carries(
        &mut self,
        a: &[NodeId],
        b: &[NodeId],
        cin: NodeId,
    ) -> (Vec<NodeId>, Vec<NodeId>, NodeId) {
        let w = a.len();
        let p: Vec<NodeId> = (0..w).map(|i| self.g.push2(GateKind::Xor2, a[i], b[i])).collect();
        let mut gg: Vec<NodeId> = (0..w).map(|i| self.g.push2(GateKind::And2, a[i], b[i])).collect();
        let mut pp = p.clone();
        // Fold the carry-in into bit 0's generate.
        if cin != self.c0 {
            let t = self.g.push2(GateKind::And2, pp[0], cin);
            gg[0] = self.g.push2(GateKind::Or2, gg[0], t);
        }
        let mut s = 1usize;
        while s < w {
            let mut g2 = gg.clone();
            let mut p2 = pp.clone();
            for i in s..w {
                let t = self.g.push2(GateKind::And2, pp[i], gg[i - s]);
                g2[i] = self.g.push2(GateKind::Or2, gg[i], t);
                p2[i] = self.g.push2(GateKind::And2, pp[i], pp[i - s]);
            }
            gg = g2;
            pp = p2;
            s <<= 1;
        }
        // carry into bit i is the prefix generate of [0..i).
        let mut carries = Vec::with_capacity(w);
        carries.push(cin);
        carries.extend_from_slice(&gg[..w - 1]);
        let cout = gg[w - 1];
        (p, carries, cout)
    }

    /// Prefix adder: returns `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if operand widths differ or are zero.
    pub fn add(&mut self, a: &[NodeId], b: &[NodeId]) -> (Vec<NodeId>, NodeId) {
        self.add_cin(a, b, self.c0)
    }

    /// Prefix adder with explicit carry-in.
    pub fn add_cin(&mut self, a: &[NodeId], b: &[NodeId], cin: NodeId) -> (Vec<NodeId>, NodeId) {
        assert!(!a.is_empty() && a.len() == b.len(), "add operands must match");
        let (p, carries, cout) = self.prefix_carries(a, b, cin);
        let sum = (0..a.len()).map(|i| self.g.push2(GateKind::Xor2, p[i], carries[i])).collect();
        (sum, cout)
    }

    /// Subtractor `a - b`: returns `(difference, borrow_free)` where the
    /// second element is the adder's carry-out (1 when `a >= b`).
    pub fn sub(&mut self, a: &[NodeId], b: &[NodeId]) -> (Vec<NodeId>, NodeId) {
        let nb = self.map1(GateKind::Inv, b);
        self.add_cin(a, &nb, self.c1)
    }

    /// Magnitude comparator (`a < b` as a single bit — the Lgt cell; the
    /// gate cost is direction-independent).
    pub fn less_than(&mut self, a: &[NodeId], b: &[NodeId]) -> NodeId {
        let (_, cout) = self.sub(a, b);
        self.g.push1(GateKind::Inv, cout)
    }

    /// Equality comparator as a single bit.
    pub fn equal(&mut self, a: &[NodeId], b: &[NodeId]) -> NodeId {
        let x = self.map2(GateKind::Xnor2, a, b);
        self.reduce(GateKind::And2, &x)
    }

    /// Wallace-tree multiplier, truncated to `out_w` result bits.
    pub fn mul(&mut self, a: &[NodeId], b: &[NodeId], out_w: u32) -> Vec<NodeId> {
        let out_w = out_w as usize;
        let mut cols: Vec<Vec<NodeId>> = vec![Vec::new(); out_w];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                if i + j < out_w {
                    let pp = self.g.push2(GateKind::And2, ai, bj);
                    cols[i + j].push(pp);
                }
            }
        }
        // Wallace-style column compression: reduce in waves so the tree
        // stays logarithmic in depth (never feed a freshly produced sum
        // back into the same wave).
        while cols.iter().any(|c| c.len() > 2) {
            let mut next: Vec<Vec<NodeId>> = vec![Vec::new(); out_w];
            for c in 0..out_w {
                let col = std::mem::take(&mut cols[c]);
                for chunk in col.chunks(3) {
                    match *chunk {
                        [x, y, z] => {
                            let t = self.g.push2(GateKind::Xor2, x, y);
                            let sum = self.g.push2(GateKind::Xor2, t, z);
                            let carry = self.g.push3(GateKind::Maj3, x, y, z);
                            next[c].push(sum);
                            if c + 1 < out_w {
                                next[c + 1].push(carry);
                            }
                        }
                        ref rest => next[c].extend_from_slice(rest),
                    }
                }
            }
            cols = next;
        }
        // Final carry-propagate add over the remaining two rows.
        let mut x = Vec::with_capacity(out_w);
        let mut y = Vec::with_capacity(out_w);
        for col in &cols {
            x.push(col.first().copied().unwrap_or(self.c0));
            y.push(col.get(1).copied().unwrap_or(self.c0));
        }
        let (sum, _) = self.add(&x, &y);
        sum
    }

    /// Restoring array divider: returns `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if operand widths differ or are zero.
    pub fn divmod(&mut self, a: &[NodeId], b: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
        assert!(!a.is_empty() && a.len() == b.len(), "divmod operands must match");
        let w = a.len();
        let bw = self.resize(b, w as u32 + 1);
        let mut r: Vec<NodeId> = vec![self.c0; w + 1];
        let mut q: Vec<NodeId> = vec![self.c0; w];
        for i in (0..w).rev() {
            // r = (r << 1) | a[i]
            let mut shifted = Vec::with_capacity(w + 1);
            shifted.push(a[i]);
            shifted.extend_from_slice(&r[..w]);
            // trial subtract
            let (diff, no_borrow) = self.sub(&shifted, &bw);
            q[i] = no_borrow;
            r = self.mux(no_borrow, &shifted, &diff);
        }
        r.truncate(w);
        (q, r)
    }

    /// Barrel shifter. `left` selects the direction; vacated bits fill with
    /// zero.
    pub fn shift(&mut self, a: &[NodeId], amount: &[NodeId], left: bool) -> Vec<NodeId> {
        let w = a.len();
        let stages = (usize::BITS - (w.max(2) - 1).leading_zeros()) as usize;
        let mut cur: Vec<NodeId> = a.to_vec();
        for (s, &sel) in amount.iter().enumerate().take(stages) {
            let dist = 1usize << s;
            let shifted: Vec<NodeId> = (0..w)
                .map(|i| {
                    if left {
                        if i >= dist { cur[i - dist] } else { self.c0 }
                    } else if i + dist < w {
                        cur[i + dist]
                    } else {
                        self.c0
                    }
                })
                .collect();
            cur = self.mux(sel, &cur, &shifted);
        }
        // Any higher shift-amount bit zeroes the result.
        if amount.len() > stages {
            let high = &amount[stages..];
            let any = self.reduce(GateKind::Or2, high);
            let zeros = vec![self.c0; w];
            cur = self.mux(any, &cur, &zeros);
        }
        cur
    }

    /// A register bank: returns Q bits whose D fanins must be patched with
    /// [`GateGraph::set_fanin`] once the input cone exists.
    pub fn dff_bank(&mut self, w: u32) -> Vec<NodeId> {
        (0..w).map(|_| self.g.push(GateKind::Dff, [NO_NODE; 3])).collect()
    }
}

// ------------------------------------------------ expansion memoization --

/// Key of a memoized expansion: everything the gate subgraph's *shape*
/// depends on. Every expander above is width-driven — it never inspects
/// which nodes its operand bits actually are (the one id comparison,
/// `cin != c0` in `prefix_carries`, only ever sees internal constants) —
/// so two cells with equal `(kind, attr, out_w, input widths)` expand to
/// structurally identical subgraphs and can share one [`Template`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    /// The coarse cell kind.
    pub(crate) kind: CellKind,
    /// The cell attribute (constant payload, slice LSB, replicate count).
    pub(crate) attr: u64,
    /// Output net width.
    pub(crate) out_w: u32,
    /// Width of each input operand's bit vector, in input order.
    pub(crate) in_widths: Vec<u32>,
}

/// A characterized gate subgraph, captured once from a canonical scratch
/// expansion and splatted into live graphs with an offset remap.
///
/// Node ids below `n_ctx` are *context references*: slot 0 is constant-0,
/// slot 1 is constant-1, and slots 2.. are the flattened input bits in
/// operand order. Ids at or above `n_ctx` are internal nodes, stored in
/// push order so a splat reproduces the exact node sequence a direct
/// expansion would have pushed.
#[derive(Debug, Clone)]
pub(crate) struct Template {
    n_ctx: u32,
    nodes: Vec<(GateKind, [NodeId; 3])>,
    outputs: Vec<NodeId>,
}

impl Template {
    /// Captures the tail of `g` (everything from node `n_ctx` on) as a
    /// template with the given output bits.
    pub(crate) fn capture(g: &GateGraph, n_ctx: u32, outputs: &[NodeId]) -> Template {
        let nodes = (n_ctx..g.len() as NodeId).map(|id| (g.kind(id), g.fanins(id))).collect();
        Template { n_ctx, nodes, outputs: outputs.to_vec() }
    }

    /// Appends this template to `g`, mapping context references through
    /// `ctx` (`[const0, const1, input bits...]`) and internal references
    /// by offset. Returns the mapped output bits.
    pub(crate) fn splat(&self, g: &mut GateGraph, ctx: &[NodeId]) -> Vec<NodeId> {
        let base = g.len() as NodeId;
        let n_ctx = self.n_ctx;
        let map = |x: NodeId| {
            if x == NO_NODE {
                NO_NODE
            } else if x < n_ctx {
                ctx[x as usize]
            } else {
                base + (x - n_ctx)
            }
        };
        for &(kind, fanins) in &self.nodes {
            g.push(kind, [map(fanins[0]), map(fanins[1]), map(fanins[2])]);
        }
        self.outputs.iter().map(|&o| map(o)).collect()
    }
}

/// The templates characterized during one elaboration call, shared by
/// that call's parallel chunks and dropped when it returns. A call's
/// templates can never outgrow its own design's expansion, so the map
/// needs no bound.
#[derive(Default)]
pub(crate) struct ExpansionMemo {
    map: RwLock<HashMap<MemoKey, Arc<Template>>>,
}

impl ExpansionMemo {
    /// Fetches a cached template.
    pub(crate) fn lookup(&self, key: &MemoKey) -> Option<Arc<Template>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner).get(key).cloned()
    }

    /// Caches a freshly characterized template.
    pub(crate) fn insert(&self, key: MemoKey, template: Arc<Template>) {
        self.map.write().unwrap_or_else(PoisonError::into_inner).insert(key, template);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::GateGraph;

    /// Evaluates the graph on concrete input values (two-level sim) for
    /// functional verification of the expanders.
    fn eval(g: &GateGraph, values: &mut Vec<Option<bool>>) {
        values.resize(g.len(), None);
        for id in 0..g.len() as NodeId {
            let f = g.fanins(id);
            let v = |slot: usize| values[f[slot] as usize].expect("fanin evaluated");
            let out = match g.kind(id) {
                GateKind::Input | GateKind::Dff => values[id as usize].unwrap_or(false),
                GateKind::Const => values[id as usize].unwrap_or(false),
                GateKind::Inv => !v(0),
                GateKind::Buf => v(0),
                GateKind::Nand2 => !(v(0) && v(1)),
                GateKind::Nor2 => !(v(0) || v(1)),
                GateKind::And2 => v(0) && v(1),
                GateKind::Or2 => v(0) || v(1),
                GateKind::Xor2 => v(0) ^ v(1),
                GateKind::Xnor2 => !(v(0) ^ v(1)),
                GateKind::Mux2 => {
                    if v(0) {
                        v(2)
                    } else {
                        v(1)
                    }
                }
                GateKind::Maj3 => (v(0) && v(1)) || (v(0) && v(2)) || (v(1) && v(2)),
            };
            values[id as usize] = Some(out);
        }
    }

    fn set_bits(values: &mut Vec<Option<bool>>, bits: &[NodeId], x: u64) {
        for (i, &b) in bits.iter().enumerate() {
            if values.len() <= b as usize {
                values.resize(b as usize + 1, None);
            }
            values[b as usize] = Some((x >> i) & 1 == 1);
        }
    }

    fn read_bits(values: &[Option<bool>], bits: &[NodeId]) -> u64 {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| (values[b as usize].unwrap() as u64) << i)
            .sum()
    }

    fn fresh(w: u32) -> (GateGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut g = GateGraph::new();
        let mut e = Expander::new(&mut g);
        let a = e.inputs(w);
        let b = e.inputs(w);
        (g, a, b)
    }

    #[test]
    fn adder_is_functionally_correct() {
        for (x, y) in [(0u64, 0u64), (1, 1), (200, 55), (255, 255), (170, 85)] {
            let (mut g, a, b) = fresh(8);
            let (sum, cout) = {
                let mut e = Expander { g: &mut g, c0: 0, c1: 1 };
                e.add(&a, &b)
            };
            let mut vals = vec![Some(false), Some(true)];
            set_bits(&mut vals, &a, x);
            set_bits(&mut vals, &b, y);
            eval(&g, &mut vals);
            let got = read_bits(&vals, &sum) | ((vals[cout as usize].unwrap() as u64) << 8);
            assert_eq!(got, x + y, "{x}+{y}");
        }
    }

    #[test]
    fn subtractor_is_functionally_correct() {
        for (x, y) in [(9u64, 3u64), (3, 9), (255, 0), (0, 255), (128, 128)] {
            let (mut g, a, b) = fresh(8);
            let (diff, no_borrow) = {
                let mut e = Expander { g: &mut g, c0: 0, c1: 1 };
                e.sub(&a, &b)
            };
            let mut vals = vec![Some(false), Some(true)];
            set_bits(&mut vals, &a, x);
            set_bits(&mut vals, &b, y);
            eval(&g, &mut vals);
            assert_eq!(read_bits(&vals, &diff), x.wrapping_sub(y) & 0xFF, "{x}-{y}");
            assert_eq!(vals[no_borrow as usize].unwrap(), x >= y, "{x}>={y}");
        }
    }

    #[test]
    fn multiplier_is_functionally_correct() {
        for (x, y) in [(0u64, 7u64), (3, 5), (15, 15), (12, 11), (9, 14)] {
            let (mut g, a, b) = fresh(4);
            let prod = {
                let mut e = Expander { g: &mut g, c0: 0, c1: 1 };
                e.mul(&a, &b, 8)
            };
            let mut vals = vec![Some(false), Some(true)];
            set_bits(&mut vals, &a, x);
            set_bits(&mut vals, &b, y);
            eval(&g, &mut vals);
            assert_eq!(read_bits(&vals, &prod), x * y, "{x}*{y}");
        }
    }

    #[test]
    fn divider_is_functionally_correct() {
        for (x, y) in [(13u64, 3u64), (255, 16), (7, 9), (100, 10), (42, 1)] {
            let (mut g, a, b) = fresh(8);
            let (q, r) = {
                let mut e = Expander { g: &mut g, c0: 0, c1: 1 };
                e.divmod(&a, &b)
            };
            let mut vals = vec![Some(false), Some(true)];
            set_bits(&mut vals, &a, x);
            set_bits(&mut vals, &b, y);
            eval(&g, &mut vals);
            assert_eq!(read_bits(&vals, &q), x / y, "{x}/{y}");
            assert_eq!(read_bits(&vals, &r), x % y, "{x}%{y}");
        }
    }

    #[test]
    fn shifter_is_functionally_correct() {
        for (x, s) in [(0b1011u64, 1u64), (0xF0, 4), (1, 7), (0xFF, 0), (0xFF, 9)] {
            let (mut g, a, _) = fresh(8);
            let sh = {
                let mut e = Expander { g: &mut g, c0: 0, c1: 1 };
                e.inputs(4)
            };
            let left = {
                let mut e = Expander { g: &mut g, c0: 0, c1: 1 };
                e.shift(&a, &sh, true)
            };
            let mut vals = vec![Some(false), Some(true)];
            set_bits(&mut vals, &a, x);
            set_bits(&mut vals, &sh, s);
            eval(&g, &mut vals);
            assert_eq!(read_bits(&vals, &left), (x << s) & 0xFF, "{x}<<{s}");
        }
    }

    #[test]
    fn comparators_are_functionally_correct() {
        for (x, y) in [(3u64, 5u64), (5, 3), (7, 7), (0, 255)] {
            let (mut g, a, b) = fresh(8);
            let (lt, eq) = {
                let mut e = Expander { g: &mut g, c0: 0, c1: 1 };
                let lt = e.less_than(&a, &b);
                let eq = e.equal(&a, &b);
                (lt, eq)
            };
            let mut vals = vec![Some(false), Some(true)];
            set_bits(&mut vals, &a, x);
            set_bits(&mut vals, &b, y);
            eval(&g, &mut vals);
            assert_eq!(vals[lt as usize].unwrap(), x < y, "{x}<{y}");
            assert_eq!(vals[eq as usize].unwrap(), x == y, "{x}=={y}");
        }
    }

    #[test]
    fn multiplier_gate_count_grows_quadratically() {
        let count = |w: u32| {
            let mut g = GateGraph::new();
            let mut e = Expander::new(&mut g);
            let a = e.inputs(w);
            let b = e.inputs(w);
            e.mul(&a, &b, 2 * w);
            g.gate_count()
        };
        let g8 = count(8);
        let g16 = count(16);
        let g32 = count(32);
        assert!(g16 > 3 * g8, "mul16 {g16} vs mul8 {g8}");
        assert!(g32 > 3 * g16, "mul32 {g32} vs mul16 {g16}");
    }

    #[test]
    fn reduction_tree_is_balanced() {
        let mut g = GateGraph::new();
        let mut e = Expander::new(&mut g);
        let a = e.inputs(64);
        e.reduce(GateKind::And2, &a);
        // 63 AND gates for 64 bits.
        assert_eq!(g.kind_histogram()[GateKind::And2 as usize], 63);
    }

    /// Builds `(graph, template, outputs)` for an 8-bit adder two ways:
    /// directly, and via capture + splat of a canonical scratch expansion.
    #[test]
    fn template_splat_reproduces_direct_expansion() {
        let mut direct = GateGraph::new();
        let direct_sum = {
            let mut e = Expander::new(&mut direct);
            let a = e.inputs(8);
            let b = e.inputs(8);
            let (s, _) = e.add(&a, &b);
            s
        };

        // Canonical scratch expansion with fresh distinct inputs.
        let mut scratch = GateGraph::new();
        let (tpl_outputs, n_ctx) = {
            let mut e = Expander::new(&mut scratch);
            let a = e.inputs(8);
            let b = e.inputs(8);
            let n_ctx = e.g.len() as NodeId;
            let (s, _) = e.add(&a, &b);
            (s, n_ctx)
        };
        let tpl = Template::capture(&scratch, n_ctx, &tpl_outputs);
        assert_eq!(tpl.n_ctx, 18); // c0, c1, 16 input bits

        // Splat into a graph with the same preamble as `direct`.
        let mut via_tpl = GateGraph::new();
        let ctx: Vec<NodeId> = {
            let mut e = Expander::new(&mut via_tpl);
            let a = e.inputs(8);
            let b = e.inputs(8);
            let mut ctx = vec![e.const0(), e.const1()];
            ctx.extend(a);
            ctx.extend(b);
            ctx
        };
        let splat_sum = tpl.splat(&mut via_tpl, &ctx);

        assert_eq!(splat_sum, direct_sum);
        assert_eq!(via_tpl.len(), direct.len());
        for id in 0..direct.len() as NodeId {
            assert_eq!(via_tpl.kind(id), direct.kind(id), "node {id}");
            assert_eq!(via_tpl.fanins(id), direct.fanins(id), "node {id}");
        }
    }

    fn tiny_template(w: u32) -> (MemoKey, Arc<Template>) {
        let mut g = GateGraph::new();
        let (outs, n_ctx) = {
            let mut e = Expander::new(&mut g);
            let a = e.inputs(w);
            let n_ctx = e.g.len() as NodeId;
            let outs = e.map1(GateKind::Inv, &a);
            (outs, n_ctx)
        };
        let key = MemoKey { kind: CellKind::Not, attr: 0, out_w: w, in_widths: vec![w] };
        (key, Arc::new(Template::capture(&g, n_ctx, &outs)))
    }

    #[test]
    fn memo_serves_a_template_after_insert() {
        let memo = ExpansionMemo::default();
        let (k4, t4) = tiny_template(4);
        let (k8, _) = tiny_template(8);
        assert!(memo.lookup(&k4).is_none());
        memo.insert(k4.clone(), Arc::clone(&t4));
        let hit = memo.lookup(&k4).expect("inserted template is served");
        assert!(Arc::ptr_eq(&hit, &t4));
        assert!(memo.lookup(&k8).is_none(), "a different shape still misses");
    }
}
