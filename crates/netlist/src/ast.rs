//! Abstract syntax tree for the supported Verilog subset.
//!
//! The AST is deliberately close to the source: widths are unevaluated
//! constant expressions (so `parameter`-dependent ranges survive until
//! elaboration), and statements keep their nesting structure.
//! Every node derives `Hash`, which is what [`crate::hash::module_hash`]
//! hashes.

/// A parsed source file: an ordered collection of module definitions.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Design {
    /// The modules, in definition order.
    pub modules: Vec<Module>,
}

impl Design {
    /// Finds a module definition by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// One `module ... endmodule` definition.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Module {
    /// The module's name.
    pub name: String,
    /// ANSI-style port declarations, in order.
    pub ports: Vec<PortDecl>,
    /// `parameter`/`localparam` declarations, in order.
    pub params: Vec<ParamDecl>,
    /// Body items, in order.
    pub items: Vec<Item>,
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// `input`
    Input,
    /// `output`
    Output,
}

/// An ANSI port declaration, e.g. `input wire [7:0] a`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct PortDecl {
    /// Port direction.
    pub dir: Dir,
    /// Port name.
    pub name: String,
    /// Packed range, if any (msb downto lsb). `None` means 1 bit.
    pub range: Option<Range>,
    /// Whether the port was declared `reg` (affects elaboration of
    /// procedural assignments to it).
    pub is_reg: bool,
}

/// A `parameter NAME = expr` (or `localparam`) declaration.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Default value expression (constant).
    pub default: Expr,
    /// `localparam` cannot be overridden at instantiation.
    pub local: bool,
}

/// A packed range `[msb:lsb]`, both bounds constant expressions.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Range {
    /// Most-significant bit index expression.
    pub msb: Expr,
    /// Least-significant bit index expression.
    pub lsb: Expr,
}

/// A body item inside a module.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Item {
    /// `wire`/`reg` declaration, possibly a memory (`reg [7:0] m [0:255]`),
    /// possibly with an initializer expression (`wire [3:0] x = a + b`).
    Decl(Decl),
    /// `assign lhs = rhs;`
    Assign {
        /// Left-hand side (identifier, bit/part select, or concatenation).
        lhs: LValue,
        /// Right-hand side expression.
        rhs: Expr,
    },
    /// An `always` block.
    Always(Always),
    /// A module instantiation.
    Instance(Instance),
}

/// A net/variable declaration.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Decl {
    /// `reg` (true) or `wire` (false).
    pub is_reg: bool,
    /// Packed range, `None` for 1 bit.
    pub range: Option<Range>,
    /// Declared names with optional unpacked (memory) dimension and
    /// optional initializer.
    pub names: Vec<DeclName>,
}

/// One name inside a declaration item.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct DeclName {
    /// The declared identifier.
    pub name: String,
    /// Unpacked dimension for memories: `[lo:hi]` → entry index range.
    pub mem_range: Option<Range>,
    /// `wire x = expr;` initializer (sugar for a continuous assign).
    pub init: Option<Expr>,
}

/// An `always` block.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Always {
    /// Sensitivity: `Some(clock_name)` for `@(posedge clk ...)`, `None`
    /// for combinational `@(*)`.
    pub clock: Option<String>,
    /// The statement body.
    pub body: Stmt,
}

/// A module instantiation, e.g. `adder #(.W(8)) u0 (.a(x), .y(z));`.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Instance {
    /// Name of the instantiated module definition.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// Parameter overrides, `(param_name, value_expr)`.
    pub params: Vec<(String, Expr)>,
    /// Port connections. Named form keeps the port name; positional
    /// connections are stored with the 0-based position.
    pub conns: Vec<Connection>,
}

/// A port connection on an instance.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Connection {
    /// `.port(expr)`; `expr` is `None` for an unconnected `.port()`.
    Named(String, Option<Expr>),
    /// Positional connection (index, expr).
    Positional(usize, Expr),
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Stmt {
    /// `begin ... end`
    Block(Vec<Stmt>),
    /// Blocking (`=`) or nonblocking (`<=`) assignment.
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Value expression.
        rhs: Expr,
        /// True for `<=`.
        nonblocking: bool,
    },
    /// `if (cond) then_s [else else_s]`
    If {
        /// Condition expression.
        cond: Expr,
        /// Taken branch.
        then_s: Box<Stmt>,
        /// Else branch, if present.
        else_s: Option<Box<Stmt>>,
    },
    /// `case (subject) ... endcase`
    Case {
        /// The expression being matched.
        subject: Expr,
        /// `(match values, body)` arms; an arm may have several labels.
        arms: Vec<(Vec<Expr>, Stmt)>,
        /// `default:` body, if present.
        default: Option<Box<Stmt>>,
    },
    /// Empty statement (`;`).
    Empty,
}

/// An assignment target.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum LValue {
    /// A whole identifier.
    Ident(String),
    /// Single-bit select `x[i]` (index may be non-constant for memories).
    BitSelect(String, Expr),
    /// Constant part select `x[msb:lsb]`.
    PartSelect(String, Expr, Expr),
    /// Concatenation of lvalues `{a, b[3:0]}`.
    Concat(Vec<LValue>),
}

/// Binary operators, in source form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `~^` / `^~`
    Xnor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `>>>`
    AShr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LAnd,
    /// `||`
    LOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `~`
    Not,
    /// `-`
    Neg,
    /// `!`
    LNot,
    /// `&`
    RedAnd,
    /// `|`
    RedOr,
    /// `^`
    RedXor,
    /// `~&`
    RedNand,
    /// `~|`
    RedNor,
    /// `~^`
    RedXnor,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// Identifier reference.
    Ident(String),
    /// Integer literal with optional explicit width.
    Number {
        /// The value.
        value: u64,
        /// Explicit width, if sized.
        width: Option<u32>,
    },
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Ternary `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Bit select `x[i]` (also memory read when `x` is a memory).
    BitSelect(Box<Expr>, Box<Expr>),
    /// Part select `x[msb:lsb]` with constant bounds.
    PartSelect(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Concatenation `{a, b, c}`.
    Concat(Vec<Expr>),
    /// Replication `{n{expr}}`.
    Replicate(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for an unsized number literal.
    pub fn num(value: u64) -> Self {
        Expr::Number { value, width: None }
    }

    /// Convenience constructor for an identifier reference.
    pub fn ident(name: impl Into<String>) -> Self {
        Expr::Ident(name.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_module_lookup() {
        let d = Design {
            modules: vec![Module {
                name: "m".into(),
                ports: vec![],
                params: vec![],
                items: vec![],
            }],
        };
        assert!(d.module("m").is_some());
        assert!(d.module("nope").is_none());
    }

    #[test]
    fn expr_constructors() {
        assert_eq!(Expr::num(3), Expr::Number { value: 3, width: None });
        assert_eq!(Expr::ident("a"), Expr::Ident("a".into()));
    }
}
