//! The GraphIR circuit graph and its construction from a netlist.
//!
//! [`GraphIr::from_netlist`] is the one builder. Flat predictions and ECO
//! sessions both call it: a session's incrementally elaborated netlist is
//! `==` to the flat one, so its graph is too, and the session path's
//! reuse happens before (elaboration units) and after (per-terminal
//! samples) this step, not in it.
//!
//! The builder costs time in proportion to the netlist. Net, cell and
//! vertex ids are dense, so every map it keeps — net → driving cell,
//! cell → vertex, port net → vertex and net → resolved sources — is a
//! `Vec` indexed by id, and the resolved sources of all nets share one
//! flat pool. Adjacency is stored in compressed sparse rows (CSR): one
//! edge array per direction plus each vertex's end offset into it, so
//! [`GraphIr::successors`] and [`GraphIr::predecessors`] are slices of
//! one allocation, each sorted by vertex id and free of duplicates.

use sns_netlist::{CellId, CellKind, NetId, Netlist, PortDir};

use crate::vocab::{Vertex, Vocab, VocabType};

/// Index of a vertex in a [`GraphIr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// A GraphIR vertex: the vocabulary entry plus provenance information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexInfo {
    /// The `(type, rounded width)` vocabulary entry.
    pub vertex: Vertex,
    /// Source-level name (port name or hierarchical cell name), kept so that
    /// sampled paths can be located back in the design (§2.2 of the paper).
    pub name: String,
}

impl VertexInfo {
    /// Whether complete circuit paths may begin or end here.
    pub fn is_terminal(&self) -> bool {
        self.vertex.vtype.is_terminal()
    }
}

/// Per-design vocabulary histogram ("graph statistics" in Figure 2(c)),
/// used as auxiliary input to the Aggregation MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    counts: Vec<u32>,
}

impl GraphStats {
    /// The count for a dense vocabulary token id.
    ///
    /// # Panics
    ///
    /// Panics if `token_id` is out of range for the vocabulary this was
    /// built with.
    pub fn count(&self, token_id: usize) -> u32 {
        self.counts[token_id]
    }

    /// The histogram as a slice, indexed by token id.
    pub fn as_slice(&self) -> &[u32] {
        &self.counts
    }

    /// Total number of vertices counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// The histogram as normalized `f32` features (log1p-scaled counts),
    /// the form consumed by the Aggregation MLP.
    pub fn to_features(&self) -> Vec<f32> {
        self.counts.iter().map(|&c| (c as f32).ln_1p()).collect()
    }
}

/// The GraphIR: a directed graph of functional units.
///
/// Built from a [`Netlist`] with [`GraphIr::from_netlist`]; wiring
/// pseudo-cells are collapsed into edges and constants are dropped.
/// Equality is structural: `==` netlists produce `==` graphs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphIr {
    vertices: Vec<VertexInfo>,
    /// Successor lists in CSR form: vertex `v`'s list is
    /// `succs[succ_end[v - 1]..succ_end[v]]` (from 0 for the first vertex).
    succs: Vec<VertexId>,
    succ_end: Vec<u32>,
    /// Predecessor lists, in the same form.
    preds: Vec<VertexId>,
    pred_end: Vec<u32>,
}

/// The id-map entry for "no vertex / no cell / not yet resolved".
const NONE: u32 = u32::MAX;

impl GraphIr {
    /// Converts a flat netlist into GraphIR.
    ///
    /// Every non-wiring cell and every top-level port becomes a vertex; the
    /// vertex width is the maximum of all its connection widths, rounded per
    /// Table 1. Wiring cells (slice/concat/replicate/buf) are traversed
    /// transparently when building edges; constant drivers produce no edge.
    pub fn from_netlist(nl: &Netlist) -> Self {
        let n_nets = nl.net_count();
        let mut vertices = Vec::with_capacity(nl.port_count() + nl.cell_count());
        let mut port_vertex = vec![NONE; n_nets];
        let mut cell_vertex = vec![NONE; nl.cell_count()];

        // Ports first (stable ordering), then logic cells in cell order.
        // An input port claims its net; an output port only an unclaimed one.
        for p in nl.ports() {
            let w = nl.net(p.net).width;
            let id = vertices.len() as u32;
            vertices
                .push(VertexInfo { vertex: Vertex::new(VocabType::Io, w), name: p.name.clone() });
            let slot = &mut port_vertex[p.net.0 as usize];
            if p.dir == PortDir::Input || *slot == NONE {
                *slot = id;
            }
        }
        for (cid, cell) in nl.cells_enumerated() {
            let Some(vtype) = vocab_type(cell.kind) else { continue };
            let mut w = nl.net(cell.output).width;
            for &i in &cell.inputs {
                w = w.max(nl.net(i).width);
            }
            cell_vertex[cid.0 as usize] = vertices.len() as u32;
            vertices.push(VertexInfo { vertex: Vertex::new(vtype, w), name: cell.name.clone() });
        }

        // The cell driving each net (the last one, if several do).
        let mut driver = vec![NONE; n_nets];
        for (cid, cell) in nl.cells_enumerated() {
            driver[cell.output.0 as usize] = cid.0;
        }
        let mut sources = Sources {
            nl,
            driver: &driver,
            cell_vertex: &cell_vertex,
            port_vertex: &port_vertex,
            span: vec![(NONE, 0); n_nets],
            pool: Vec::new(),
            stack: Vec::new(),
        };

        // Edges: into every logic cell, and into every output-port vertex.
        let mut edges: Vec<u64> = Vec::new();
        for (cid, cell) in nl.cells_enumerated() {
            let dst = cell_vertex[cid.0 as usize];
            if dst == NONE {
                continue;
            }
            for &input in &cell.inputs {
                for src in sources.of(input) {
                    edges.push(u64::from(src.0) << 32 | u64::from(dst));
                }
            }
        }
        for p in nl.ports() {
            if p.dir == PortDir::Output {
                let dst = port_vertex[p.net.0 as usize];
                for src in sources.of(p.net) {
                    if src.0 != dst {
                        edges.push(u64::from(src.0) << 32 | u64::from(dst));
                    }
                }
            }
        }

        // Sorted by (src, dst) and deduplicated, the edges are the
        // successor rows in order; a stable bucket pass by dst then gives
        // each predecessor row sorted by src.
        edges.sort_unstable();
        edges.dedup();
        let n = vertices.len();
        let src_of = |e: u64| (e >> 32) as usize;
        let dst_of = |e: u64| e as u32 as usize;
        let succs = edges.iter().map(|&e| VertexId(dst_of(e) as u32)).collect();
        let succ_end = row_ends(n, edges.iter().map(|&e| src_of(e)));
        let pred_end = row_ends(n, edges.iter().map(|&e| dst_of(e)));
        let mut fill: Vec<u32> = (0..n).map(|v| if v == 0 { 0 } else { pred_end[v - 1] }).collect();
        let mut preds = vec![VertexId(0); edges.len()];
        for &e in &edges {
            let slot = &mut fill[dst_of(e)];
            preds[*slot as usize] = VertexId(src_of(e) as u32);
            *slot += 1;
        }
        GraphIr { vertices, succs, succ_end, preds, pred_end }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of (deduplicated) directed edges.
    pub fn edge_count(&self) -> usize {
        self.succs.len()
    }

    /// The vertex info for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn vertex(&self, id: VertexId) -> &VertexInfo {
        &self.vertices[id.0 as usize]
    }

    /// Iterates over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = &VertexInfo> {
        self.vertices.iter()
    }

    /// Iterates over `(id, info)` pairs.
    pub fn vertices_enumerated(&self) -> impl Iterator<Item = (VertexId, &VertexInfo)> {
        self.vertices.iter().enumerate().map(|(i, v)| (VertexId(i as u32), v))
    }

    /// Successors of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn successors(&self, id: VertexId) -> &[VertexId] {
        row(&self.succs, &self.succ_end, id)
    }

    /// Predecessors of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn predecessors(&self, id: VertexId) -> &[VertexId] {
        row(&self.preds, &self.pred_end, id)
    }

    /// Ids of all terminal vertices (io / dff) — the legal path endpoints.
    pub fn terminals(&self) -> Vec<VertexId> {
        self.vertices_enumerated()
            .filter(|(_, v)| v.is_terminal())
            .map(|(id, _)| id)
            .collect()
    }

    /// Builds the vocabulary histogram of this graph.
    pub fn stats(&self, vocab: &Vocab) -> GraphStats {
        let mut counts = vec![0u32; vocab.len()];
        for v in &self.vertices {
            if let Some(id) = vocab.token_id(v.vertex) {
                counts[id] += 1;
            }
        }
        GraphStats { counts }
    }
}

fn vocab_type(kind: CellKind) -> Option<VocabType> {
    Some(match kind {
        CellKind::Dff => VocabType::Dff,
        CellKind::Mux => VocabType::Mux,
        CellKind::Not => VocabType::Not,
        CellKind::And => VocabType::And,
        CellKind::Or => VocabType::Or,
        CellKind::Xor | CellKind::Xnor => VocabType::Xor,
        CellKind::Shl | CellKind::Shr => VocabType::Sh,
        CellKind::ReduceAnd => VocabType::ReduceAnd,
        CellKind::ReduceOr => VocabType::ReduceOr,
        CellKind::ReduceXor => VocabType::ReduceXor,
        CellKind::Add | CellKind::Sub => VocabType::Add,
        CellKind::Mul => VocabType::Mul,
        CellKind::Eq => VocabType::Eq,
        CellKind::Lgt => VocabType::Lgt,
        CellKind::Div => VocabType::Div,
        CellKind::Mod => VocabType::Mod,
        CellKind::Slice
        | CellKind::Concat
        | CellKind::Replicate
        | CellKind::Const
        | CellKind::Buf => return None,
    })
}

/// Vertex `id`'s row of a CSR edge array.
fn row<'g>(items: &'g [VertexId], ends: &[u32], id: VertexId) -> &'g [VertexId] {
    let v = id.0 as usize;
    let start = if v == 0 { 0 } else { ends[v - 1] as usize };
    &items[start..ends[v] as usize]
}

/// The CSR end offsets of `n` rows, given the row of every item in order.
fn row_ends(n: usize, rows: impl Iterator<Item = usize>) -> Vec<u32> {
    let mut ends = vec![0u32; n];
    for r in rows {
        ends[r] += 1;
    }
    let mut total = 0;
    for e in &mut ends {
        total += *e;
        *e = total;
    }
    ends
}

/// The non-wiring vertices behind every net, resolved on demand and
/// memoized: `span[net]` is the net's `(start, len)` in `pool`, with
/// `start == NONE` while unresolved.
struct Sources<'n> {
    nl: &'n Netlist,
    driver: &'n [u32],
    cell_vertex: &'n [u32],
    port_vertex: &'n [u32],
    span: Vec<(u32, u32)>,
    pool: Vec<VertexId>,
    stack: Vec<Frame>,
}

/// A step of the explicit-stack resolution in [`Sources::of`].
enum Frame {
    /// Resolve this net (expanding a wiring cell's inputs first).
    Enter(NetId),
    /// All inputs of this net's wiring driver are memoized; combine them.
    Combine(NetId),
}

impl Sources<'_> {
    fn set(&mut self, net: NetId, start: usize) {
        self.span[net.0 as usize] = (start as u32, (self.pool.len() - start) as u32);
    }

    /// The memoized sources of `net` as a pool range (empty while
    /// unresolved).
    fn range(&self, net: NetId) -> std::ops::Range<usize> {
        match self.span[net.0 as usize] {
            (NONE, _) => 0..0,
            (start, len) => start as usize..(start + len) as usize,
        }
    }

    /// Finds the non-wiring vertices that (transitively) drive `net`,
    /// sorted and distinct for a net behind wiring.
    ///
    /// Iterative (explicit work stack) rather than recursive: untrusted
    /// input can chain wiring cells arbitrarily deep — `assign w1 = in;
    /// assign w2 = w1; …` ten thousand times — and the front-end must not
    /// overflow the call stack on any input it accepts.
    fn of(&mut self, net: NetId) -> impl Iterator<Item = VertexId> + '_ {
        let nl = self.nl;
        self.stack.push(Frame::Enter(net));
        while let Some(frame) = self.stack.pop() {
            match frame {
                Frame::Enter(n) => {
                    if self.span[n.0 as usize].0 != NONE {
                        continue;
                    }
                    let start = self.pool.len();
                    let cid = self.driver[n.0 as usize];
                    if cid == NONE {
                        // Undriven, or driven by a port.
                        let v = self.port_vertex[n.0 as usize];
                        if v != NONE {
                            self.pool.push(VertexId(v));
                        }
                        self.set(n, start);
                        continue;
                    }
                    let cell = nl.cell(CellId(cid));
                    let v = self.cell_vertex[cid as usize];
                    if v != NONE {
                        self.pool.push(VertexId(v));
                        self.set(n, start);
                    } else if cell.kind == CellKind::Const {
                        self.set(n, start);
                    } else {
                        // Wiring cell: an empty placeholder breaks cycles
                        // through wiring (shouldn't occur in valid designs,
                        // but stay defensive), then visit inputs in order
                        // before combining.
                        self.set(n, start);
                        self.stack.push(Frame::Combine(n));
                        for &i in cell.inputs.iter().rev() {
                            self.stack.push(Frame::Enter(i));
                        }
                    }
                }
                Frame::Combine(n) => {
                    // Union of the wiring cell's inputs' sources, sorted
                    // and deduplicated at the end of the pool.
                    let cell = nl.cell(CellId(self.driver[n.0 as usize]));
                    let start = self.pool.len();
                    for &i in &cell.inputs {
                        let r = self.range(i);
                        self.pool.extend_from_within(r);
                    }
                    self.pool[start..].sort_unstable();
                    let mut kept = start;
                    for k in start..self.pool.len() {
                        if kept == start || self.pool[k] != self.pool[kept - 1] {
                            self.pool[kept] = self.pool[k];
                            kept += 1;
                        }
                    }
                    self.pool.truncate(kept);
                    self.set(n, start);
                }
            }
        }
        self.pool[self.range(net)].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_netlist::parse_and_elaborate;

    fn mac() -> GraphIr {
        let nl = parse_and_elaborate(
            "module mac (input clk, input [7:0] a, input [7:0] b, output [15:0] out);
                 reg [15:0] acc;
                 always @(posedge clk) acc <= acc + a * b;
                 assign out = acc;
             endmodule",
            "mac",
        )
        .unwrap();
        GraphIr::from_netlist(&nl)
    }

    fn names(g: &GraphIr) -> Vec<String> {
        let mut v: Vec<String> = g.vertices().map(|x| x.vertex.token_name()).collect();
        v.sort();
        v
    }

    #[test]
    fn figure_2_mac_graph_structure() {
        let g = mac();
        let n = names(&g);
        // clk io, two io8 inputs, one io16 output, mul16, add16, dff16.
        assert!(n.contains(&"io8".to_string()));
        assert!(n.contains(&"io16".to_string()));
        assert!(n.contains(&"mul16".to_string()));
        assert!(n.contains(&"add16".to_string()));
        assert!(n.contains(&"dff16".to_string()));
        assert_eq!(g.vertex_count(), 7);
    }

    #[test]
    fn figure_2_mac_edges() {
        let g = mac();
        let find = |tok: &str| {
            g.vertices_enumerated().find(|(_, v)| v.vertex.token_name() == tok).unwrap().0
        };
        let mul = find("mul16");
        let add = find("add16");
        let dff = find("dff16");
        let out = find("io16");
        assert!(g.successors(mul).contains(&add));
        assert!(g.successors(add).contains(&dff));
        // The accumulator feeds back into the adder and drives the output.
        assert!(g.successors(dff).contains(&add));
        assert!(g.successors(dff).contains(&out));
        // io8 inputs feed the multiplier.
        assert!(g.predecessors(mul).iter().all(|&p| g.vertex(p).vertex.vtype == VocabType::Io));
        assert_eq!(g.predecessors(mul).len(), 2);
    }

    #[test]
    fn stats_histogram_counts_vertices() {
        let g = mac();
        let vocab = Vocab::new();
        let s = g.stats(&vocab);
        assert_eq!(s.total(), 7);
        let mul16 = vocab.token_id(Vertex::new(VocabType::Mul, 16)).unwrap();
        assert_eq!(s.count(mul16), 1);
        assert_eq!(s.as_slice().len(), 79);
        assert_eq!(s.to_features().len(), 79);
        assert!(s.to_features()[mul16] > 0.0);
    }

    #[test]
    fn wiring_cells_are_collapsed() {
        // Concats, slices and constants must not appear as vertices.
        let nl = parse_and_elaborate(
            "module m (input [7:0] a, output [3:0] y, output [11:0] z);
                 assign y = a[7:4];
                 assign z = {a, 4'b0};
             endmodule",
            "m",
        )
        .unwrap();
        let g = GraphIr::from_netlist(&nl);
        // Only the three io ports remain.
        assert_eq!(g.vertex_count(), 3);
        // And the edges pass through the wiring.
        let input = g.vertices_enumerated().find(|(_, v)| v.name == "a").unwrap().0;
        assert_eq!(g.successors(input).len(), 2);
    }

    #[test]
    fn terminals_are_io_and_dff_vertices() {
        let g = mac();
        let t = g.terminals();
        assert_eq!(t.len(), 5); // clk, a, b, out, acc
        assert!(t.iter().all(|&id| g.vertex(id).is_terminal()));
    }

    #[test]
    fn width_uses_max_connection() {
        // 8-bit inputs into a 16-bit comparator context: eq takes max width.
        let nl = parse_and_elaborate(
            "module m (input [15:0] a, input [7:0] b, output y);
                 assign y = a == b;
             endmodule",
            "m",
        )
        .unwrap();
        let g = GraphIr::from_netlist(&nl);
        assert!(g.vertices().any(|v| v.vertex.token_name() == "eq16"));
    }

    #[test]
    fn csr_rows_are_sorted_distinct_and_mirror_each_other() {
        // `a` reaches the adder twice directly and once through a slice,
        // so its edge is found three times and must be stored once.
        let nl = parse_and_elaborate(
            "module m (input [7:0] a, input [7:0] b, output [7:0] y, output [7:0] z);
                 assign y = a + a + {a[3:0], b[3:0]};
                 assign z = b;
             endmodule",
            "m",
        )
        .unwrap();
        let g = GraphIr::from_netlist(&nl);
        let mut mirrored = 0;
        for (id, _) in g.vertices_enumerated() {
            for row in [g.successors(id), g.predecessors(id)] {
                assert!(row.windows(2).all(|w| w[0] < w[1]), "{id:?}: {row:?}");
            }
            for &s in g.successors(id) {
                assert!(g.predecessors(s).contains(&id));
                mirrored += 1;
            }
        }
        assert_eq!(mirrored, g.edge_count());
        assert_eq!(g, GraphIr::from_netlist(&nl));
    }

    #[test]
    fn empty_netlist_yields_empty_graph() {
        let nl = Netlist::new("empty");
        let g = GraphIr::from_netlist(&nl);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.terminals().is_empty());
    }
}
