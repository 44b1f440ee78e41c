//! The flat, coarse-grained netlist produced by elaboration.
//!
//! A [`Netlist`] is a set of [`Net`]s (typed buses with a width) connected by
//! [`Cell`]s (functional units). Cells correspond 1:1 with the coarse RTL
//! cells Yosys produces before technology mapping — the representation SNS's
//! GraphIR is built from.

use std::collections::HashMap;
use std::fmt;

/// Index of a [`Net`] within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a [`Cell`] within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Direction of a top-level port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the design.
    Input,
    /// Observed from outside the design.
    Output,
}

/// A top-level port binding a name/direction to a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// The port's source-level name.
    pub name: String,
    /// Input or output.
    pub dir: PortDir,
    /// The net carrying the port's value.
    pub net: NetId,
}

/// A bus in the netlist. Every net has a fixed bit width and at most one
/// driver (a cell output, a top-level input port, or a constant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Bit width (≥ 1).
    pub width: u32,
    /// Best-effort hierarchical source name, for diagnostics and path
    /// provenance (`None` for anonymous intermediate nets).
    pub name: Option<String>,
}

/// The functional type of a cell.
///
/// The first group corresponds directly to the SNS vocabulary of Table 1;
/// the `Slice`/`Concat`/`Const`/`Buf` pseudo-cells represent pure wiring and
/// are skipped (collapsed into edges) when building GraphIR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// D-flip-flop: inputs `[d]`, output `q`.
    Dff,
    /// 2:1 multiplexer: inputs `[sel, a, b]` (sel selects `b` when true).
    Mux,
    /// Bitwise NOT.
    Not,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise XNOR (mapped to the `xor` vocabulary entry).
    Xnor,
    /// Parametrizable left shift.
    Shl,
    /// Parametrizable right shift (logical or arithmetic).
    Shr,
    /// AND-reduction to 1 bit.
    ReduceAnd,
    /// OR-reduction to 1 bit.
    ReduceOr,
    /// XOR-reduction to 1 bit.
    ReduceXor,
    /// Adder.
    Add,
    /// Subtractor (vocabulary-equivalent to `add`, per Table 1).
    Sub,
    /// Multiplier.
    Mul,
    /// Equality comparator (`==`; `!=` is `Eq` + `Not`).
    Eq,
    /// Magnitude comparator (`<`, `>`, `<=`, `>=`).
    Lgt,
    /// Divider.
    Div,
    /// Modulus.
    Mod,
    // ---- wiring pseudo-cells (no logic, no area) ----
    /// Part select: passes bits `[lsb .. lsb+width)` of its input through.
    Slice,
    /// Concatenation of its inputs (LSB-first input order).
    Concat,
    /// Replication of its single input.
    Replicate,
    /// A constant driver; carries no incoming edges.
    Const,
    /// A plain buffer/rename.
    Buf,
}

impl CellKind {
    /// Whether this kind is pure wiring (collapsed when building GraphIR and
    /// free in the virtual synthesizer).
    pub fn is_wiring(self) -> bool {
        matches!(
            self,
            CellKind::Slice
                | CellKind::Concat
                | CellKind::Replicate
                | CellKind::Const
                | CellKind::Buf
        )
    }

    /// Whether this cell is sequential (breaks combinational paths).
    pub fn is_sequential(self) -> bool {
        self == CellKind::Dff
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Dff => "dff",
            CellKind::Mux => "mux",
            CellKind::Not => "not",
            CellKind::And => "and",
            CellKind::Or => "or",
            CellKind::Xor => "xor",
            CellKind::Xnor => "xnor",
            CellKind::Shl => "shl",
            CellKind::Shr => "shr",
            CellKind::ReduceAnd => "reduce_and",
            CellKind::ReduceOr => "reduce_or",
            CellKind::ReduceXor => "reduce_xor",
            CellKind::Add => "add",
            CellKind::Sub => "sub",
            CellKind::Mul => "mul",
            CellKind::Eq => "eq",
            CellKind::Lgt => "lgt",
            CellKind::Div => "div",
            CellKind::Mod => "mod",
            CellKind::Slice => "slice",
            CellKind::Concat => "concat",
            CellKind::Replicate => "replicate",
            CellKind::Const => "const",
            CellKind::Buf => "buf",
        };
        f.write_str(s)
    }
}

/// A functional unit instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The functional type.
    pub kind: CellKind,
    /// Input nets, in kind-specific order.
    pub inputs: Vec<NetId>,
    /// The single output net this cell drives.
    pub output: NetId,
    /// Hierarchical instance name (diagnostics / path provenance).
    pub name: String,
    /// For [`CellKind::Const`], the constant value; for [`CellKind::Slice`],
    /// the LSB offset; for [`CellKind::Replicate`], the count. `0` otherwise.
    pub attr: u64,
}

/// A flat elaborated design.
///
/// # Example
///
/// ```rust
/// use sns_netlist::parse_and_elaborate;
///
/// # fn main() -> Result<(), sns_netlist::NetlistError> {
/// let nl = parse_and_elaborate(
///     "module m (input [7:0] a, b, output [7:0] y); assign y = a + b; endmodule",
///     "m",
/// )?;
/// assert_eq!(nl.port_count(), 3);
/// assert_eq!(nl.logic_cell_count(), 1); // the adder
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    ports: Vec<Port>,
}

impl Netlist {
    /// Creates an empty netlist with the given top-level name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist { name: name.into(), nets: Vec::new(), cells: Vec::new(), ports: Vec::new() }
    }

    /// The top module's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, width: u32, name: Option<String>) -> NetId {
        debug_assert!(width >= 1, "nets must be at least 1 bit wide");
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { width, name });
        id
    }

    /// Adds a cell and returns its id.
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(cell);
        id
    }

    /// Registers a top-level port.
    pub fn add_port(&mut self, name: impl Into<String>, dir: PortDir, net: NetId) {
        self.ports.push(Port { name: name.into(), dir, net });
    }

    /// Looks up a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids are only minted by this netlist).
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Looks up a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Iterates over all cells.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter()
    }

    /// Iterates over all cells together with their ids.
    pub fn cells_enumerated(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells.iter().enumerate().map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterates over all nets together with their ids.
    pub fn nets_enumerated(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i as u32), n))
    }

    /// The top-level ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Number of top-level ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Total number of cells, including wiring pseudo-cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of real logic cells (wiring pseudo-cells excluded).
    pub fn logic_cell_count(&self) -> usize {
        self.cells.iter().filter(|c| !c.kind.is_wiring()).count()
    }

    /// Builds a map from each net to the cell driving it, if any.
    pub fn driver_map(&self) -> HashMap<NetId, CellId> {
        let mut m = HashMap::with_capacity(self.cells.len());
        for (id, c) in self.cells_enumerated() {
            m.insert(c.output, id);
        }
        m
    }

    /// Builds a map from each net to the cells reading it.
    pub fn reader_map(&self) -> HashMap<NetId, Vec<CellId>> {
        let mut m: HashMap<NetId, Vec<CellId>> = HashMap::new();
        for (id, c) in self.cells_enumerated() {
            for &input in &c.inputs {
                m.entry(input).or_default().push(id);
            }
        }
        m
    }

    /// Splices a relocatable module fragment into this netlist.
    ///
    /// The fragment's first `n_ph` nets are *placeholders* standing in for
    /// parent nets (the instance's bound input ports, in port order); they
    /// are not copied — references to placeholder `k` are rewritten to
    /// `bound[k]`. Every other fragment net is appended, so the k-th
    /// non-placeholder net lands at id `net_base + k`, which is exactly
    /// where inline elaboration of the same module body would have put it.
    /// All fragment cells are appended in order, and `prefix` (the
    /// instance's hierarchical prefix) is prepended to every copied net and
    /// cell name, reproducing inline elaboration's naming byte for byte.
    ///
    /// Returns `net_base`, the id of the first copied net.
    pub(crate) fn splice_fragment(
        &mut self,
        frag: &Netlist,
        n_ph: usize,
        bound: &[NetId],
        prefix: &str,
    ) -> u32 {
        let net_base = self.nets.len() as u32;
        let map = |id: NetId| -> NetId {
            let k = id.0 as usize;
            if k < n_ph {
                // Invariant: bound.len() == n_ph (both derive from the
                // unit's input-binding shape); stay total regardless.
                bound.get(k).copied().unwrap_or(id)
            } else {
                NetId(net_base + (k - n_ph) as u32)
            }
        };
        for net in frag.nets.iter().skip(n_ph) {
            self.nets.push(Net {
                width: net.width,
                name: net.name.as_ref().map(|n| format!("{prefix}{n}")),
            });
        }
        for cell in &frag.cells {
            self.cells.push(Cell {
                kind: cell.kind,
                inputs: cell.inputs.iter().map(|&n| map(n)).collect(),
                output: map(cell.output),
                name: format!("{prefix}{}", cell.name),
                attr: cell.attr,
            });
        }
        net_base
    }

    /// Checks structural invariants: every net has at most one driver, cell
    /// connections are in range, and every cell has the arity its kind
    /// requires.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut driver: Vec<Option<usize>> = vec![None; self.nets.len()];
        for (i, c) in self.cells.iter().enumerate() {
            for &n in c.inputs.iter().chain(std::iter::once(&c.output)) {
                if n.0 as usize >= self.nets.len() {
                    return Err(format!("cell `{}` references out-of-range net {:?}", c.name, n));
                }
            }
            let out = c.output.0 as usize;
            if let Some(prev) = driver[out] {
                return Err(format!(
                    "net {:?} driven by both cell #{prev} and cell #{i} (`{}`)",
                    c.output, c.name
                ));
            }
            driver[out] = Some(i);
            let arity_ok = match c.kind {
                CellKind::Dff | CellKind::Not | CellKind::Buf | CellKind::Slice
                | CellKind::Replicate => c.inputs.len() == 1,
                CellKind::ReduceAnd | CellKind::ReduceOr | CellKind::ReduceXor => {
                    c.inputs.len() == 1
                }
                CellKind::Mux => c.inputs.len() == 3,
                CellKind::Const => c.inputs.is_empty(),
                CellKind::Concat => !c.inputs.is_empty(),
                _ => c.inputs.len() == 2,
            };
            if !arity_ok {
                return Err(format!(
                    "cell `{}` of kind {} has arity {}",
                    c.name,
                    c.kind,
                    c.inputs.len()
                ));
            }
        }
        for p in &self.ports {
            if p.net.0 as usize >= self.nets.len() {
                return Err(format!("port `{}` references out-of-range net", p.name));
            }
            if p.dir == PortDir::Input {
                if let Some(d) = driver[p.net.0 as usize] {
                    return Err(format!(
                        "input port `{}` is also driven by cell #{d}",
                        p.name
                    ));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist `{}`: {} nets, {} cells ({} logic), {} ports",
            self.name,
            self.nets.len(),
            self.cells.len(),
            self.logic_cell_count(),
            self.ports.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_net(8, Some("a".into()));
        let b = nl.add_net(8, Some("b".into()));
        let y = nl.add_net(8, Some("y".into()));
        nl.add_port("a", PortDir::Input, a);
        nl.add_port("b", PortDir::Input, b);
        nl.add_port("y", PortDir::Output, y);
        nl.add_cell(Cell { kind: CellKind::Add, inputs: vec![a, b], output: y, name: "u".into(), attr: 0 });
        nl
    }

    #[test]
    fn construction_and_counts() {
        let nl = tiny();
        assert_eq!(nl.net_count(), 3);
        assert_eq!(nl.cell_count(), 1);
        assert_eq!(nl.logic_cell_count(), 1);
        assert!(nl.validate().is_ok());
        assert!(nl.to_string().contains("netlist `t`"));
    }

    #[test]
    fn driver_and_reader_maps() {
        let nl = tiny();
        let d = nl.driver_map();
        assert_eq!(d.len(), 1);
        assert_eq!(d[&NetId(2)], CellId(0));
        let r = nl.reader_map();
        assert_eq!(r[&NetId(0)], vec![CellId(0)]);
    }

    #[test]
    fn validate_rejects_double_driver() {
        let mut nl = tiny();
        let a = NetId(0);
        let y = NetId(2);
        nl.add_cell(Cell { kind: CellKind::Buf, inputs: vec![a], output: y, name: "dup".into(), attr: 0 });
        assert!(nl.validate().unwrap_err().contains("driven by both"));
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net(1, None);
        let y = nl.add_net(1, None);
        nl.add_cell(Cell { kind: CellKind::Mux, inputs: vec![a], output: y, name: "m".into(), attr: 0 });
        assert!(nl.validate().unwrap_err().contains("arity"));
    }

    #[test]
    fn validate_rejects_driven_input_port() {
        let mut nl = tiny();
        let extra = nl.add_net(8, None);
        nl.add_cell(Cell {
            kind: CellKind::Buf,
            inputs: vec![extra],
            output: NetId(0),
            name: "bad".into(),
            attr: 0,
        });
        assert!(nl.validate().unwrap_err().contains("input port"));
    }

    #[test]
    fn wiring_classification() {
        assert!(CellKind::Concat.is_wiring());
        assert!(CellKind::Const.is_wiring());
        assert!(!CellKind::Add.is_wiring());
        assert!(CellKind::Dff.is_sequential());
        assert!(!CellKind::Mux.is_sequential());
    }

    #[test]
    fn display_names_match_yosys_conventions() {
        assert_eq!(CellKind::ReduceXor.to_string(), "reduce_xor");
        assert_eq!(CellKind::Dff.to_string(), "dff");
    }
}
