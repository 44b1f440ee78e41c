//! The GraphIR circuit graph and its construction from a netlist.
//!
//! [`GraphIr::from_netlist`] is the one builder. Flat predictions and ECO
//! sessions both call it: a session's incrementally elaborated netlist is
//! `==` to the flat one, so its graph is too, and the session path's
//! reuse happens before (elaboration units) and after (per-terminal
//! samples) this step, not in it.

use std::collections::HashMap;

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
    succs: Vec<Vec<VertexId>>,
    preds: Vec<Vec<VertexId>>,
}

impl GraphIr {
    /// Converts a flat netlist into GraphIR.
    ///
    /// Every non-wiring cell and every top-level port becomes a vertex; the
    /// vertex width is the maximum of all its connection widths, rounded per
    /// Table 1. Wiring cells (slice/concat/replicate/buf) are traversed
    /// transparently when building edges; constant drivers produce no edge.
    pub fn from_netlist(nl: &Netlist) -> Self {
        let mut g = GraphIr::default();
        let mut cell_vertex: HashMap<CellId, VertexId> = HashMap::new();
        let mut port_vertex: HashMap<NetId, VertexId> = HashMap::new();

        // Ports first (stable ordering), then logic cells in cell order.
        for p in nl.ports() {
            let w = nl.net(p.net).width;
            let id = g
                .push(VertexInfo { vertex: Vertex::new(VocabType::Io, w), name: p.name.clone() });
            if p.dir == PortDir::Input {
                port_vertex.insert(p.net, id);
            } else {
                port_vertex.entry(p.net).or_insert(id);
            }
        }
        for (cid, cell) in nl.cells_enumerated() {
            let Some(vtype) = vocab_type(cell.kind) else { continue };
            let mut w = nl.net(cell.output).width;
            for &i in &cell.inputs {
                w = w.max(nl.net(i).width);
            }
            let id = g.push(VertexInfo { vertex: Vertex::new(vtype, w), name: cell.name.clone() });
            cell_vertex.insert(cid, id);
        }

        // Resolve the real (non-wiring) sources behind every net, memoized.
        let driver = nl.driver_map();
        let mut memo: HashMap<NetId, Vec<VertexId>> = HashMap::new();
        let mut sources = |net: NetId| -> Vec<VertexId> {
            resolve_sources(nl, &driver, &cell_vertex, &port_vertex, &mut memo, net)
        };

        // Edges: into every logic cell, and into every output-port vertex.
        for (cid, cell) in nl.cells_enumerated() {
            let Some(&dst) = cell_vertex.get(&cid) else { continue };
            for &input in &cell.inputs {
                for src in sources(input) {
                    g.add_edge(src, dst);
                }
            }
        }
        for p in nl.ports() {
            if p.dir == PortDir::Output {
                let dst = port_vertex[&p.net];
                for src in sources(p.net) {
                    if src != dst {
                        g.add_edge(src, dst);
                    }
                }
            }
        }
        g.dedup_edges();
        g
    }

    fn push(&mut self, v: VertexInfo) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(v);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    fn add_edge(&mut self, from: VertexId, to: VertexId) {
        self.succs[from.0 as usize].push(to);
        self.preds[to.0 as usize].push(from);
    }

    fn dedup_edges(&mut self) {
        for v in self.succs.iter_mut().chain(self.preds.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of (deduplicated) directed edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
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
        &self.succs[id.0 as usize]
    }

    /// Predecessors of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn predecessors(&self, id: VertexId) -> &[VertexId] {
        &self.preds[id.0 as usize]
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

/// Finds the non-wiring vertices that (transitively) drive `net`.
///
/// Iterative (explicit work stack) rather than recursive: untrusted input
/// can chain wiring cells arbitrarily deep — `assign w1 = in; assign
/// w2 = w1; …` ten thousand times — and the front-end must not overflow
/// the call stack on any input it accepts.
fn resolve_sources(
    nl: &Netlist,
    driver: &HashMap<NetId, CellId>,
    cell_vertex: &HashMap<CellId, VertexId>,
    port_vertex: &HashMap<NetId, VertexId>,
    memo: &mut HashMap<NetId, Vec<VertexId>>,
    net: NetId,
) -> Vec<VertexId> {
    enum Frame {
        /// Resolve this net (expanding a wiring cell's inputs first).
        Enter(NetId),
        /// All inputs of this net's wiring driver are memoized; combine them.
        Combine(NetId),
    }
    let mut stack = vec![Frame::Enter(net)];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Enter(n) => {
                if memo.contains_key(&n) {
                    continue;
                }
                match driver.get(&n) {
                    Some(&cid) => {
                        let cell = nl.cell(cid);
                        if let Some(&v) = cell_vertex.get(&cid) {
                            memo.insert(n, vec![v]);
                        } else if cell.kind == CellKind::Const {
                            memo.insert(n, Vec::new());
                        } else {
                            // Wiring cell: placeholder breaks cycles through
                            // wiring (shouldn't occur in valid designs, but
                            // stay defensive), then visit inputs in order
                            // before combining.
                            memo.insert(n, Vec::new());
                            stack.push(Frame::Combine(n));
                            for &i in cell.inputs.iter().rev() {
                                stack.push(Frame::Enter(i));
                            }
                        }
                    }
                    None => {
                        let r = match port_vertex.get(&n) {
                            Some(&v) => vec![v],
                            None => Vec::new(), // undriven
                        };
                        memo.insert(n, r);
                    }
                }
            }
            Frame::Combine(n) => {
                let Some(&cid) = driver.get(&n) else { continue };
                // Union of the wiring cell's inputs' sources.
                let mut out = Vec::new();
                for &i in &nl.cell(cid).inputs {
                    if let Some(srcs) = memo.get(&i) {
                        out.extend(srcs.iter().copied());
                    }
                }
                out.sort_unstable();
                out.dedup();
                memo.insert(n, out);
            }
        }
    }
    memo.get(&net).cloned().unwrap_or_default()
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
    fn empty_netlist_yields_empty_graph() {
        let nl = Netlist::new("empty");
        let g = GraphIr::from_netlist(&nl);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.terminals().is_empty());
    }
}
