//! Recursive-descent parser for the supported Verilog subset.
//!
//! # Supported language
//!
//! * `module name #(parameter P = expr, ...) (ANSI port list); ... endmodule`
//! * `parameter` / `localparam` declarations in the body
//! * `wire` / `reg` declarations with packed ranges, multiple names,
//!   memories (`reg [7:0] m [0:255];`), and `wire x = expr;` initializers
//! * `assign lvalue = expr;` with identifier / bit-select / part-select /
//!   concatenation lvalues
//! * `always @(posedge clk)`, `always @(posedge clk or posedge rst)`, and
//!   `always @(*)` (or `always @*`) blocks containing `begin..end`, `if` /
//!   `else`, `case` / `endcase`, blocking and nonblocking assignments
//! * module instantiation with `#(.P(v))` parameter overrides and named or
//!   positional port connections
//! * the full synthesizable operator set with standard precedence, sized and
//!   unsized literals, concatenation `{a,b}` and replication `{4{x}}`
//!
//! Unsupported constructs (tasks, functions, generate, initial blocks,
//! four-state literals, delays) produce parse errors — the `sns-designs`
//! generators deliberately stay within the subset.

use crate::ast::*;
use crate::error::{Loc, NetlistError};
use crate::lexer::{Lexer, Token, TokenKind};

/// Parses Verilog source text into a [`Design`] (a list of modules).
///
/// # Errors
///
/// Returns [`NetlistError::Lex`] or [`NetlistError::Parse`] describing the
/// first problem encountered, with a 1-based source location.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), sns_netlist::NetlistError> {
/// let design = sns_netlist::parse_source(
///     "module inv (input a, output y); assign y = ~a; endmodule",
/// )?;
/// assert_eq!(design.modules.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_source(source: &str) -> Result<Design, NetlistError> {
    let tokens = Lexer::new(source).lex_all()?;
    Parser { tokens, pos: 0, depth: 0 }.parse_design()
}

/// Maximum nesting depth for expressions, statements, and lvalues.
///
/// The parser is recursive-descent and the AST it produces is walked
/// recursively by the elaborator (and dropped recursively by Rust), so
/// unbounded nesting in untrusted source — `((((…))))`, `~~~~…x`,
/// `begin begin …` — would overflow the stack and abort the process.
/// The counter below tracks the depth of the AST under construction
/// (nesting *and* left-leaning operator chains, which deepen the tree
/// without deepening parser recursion) and fails with
/// [`NetlistError::TooDeep`] past this bound. The value mirrors
/// `sns_rt::json::MAX_DEPTH`; real generated designs stay far below it.
pub const MAX_DEPTH: u32 = 128;

const KEYWORDS: &[&str] = &[
    "module", "endmodule", "input", "output", "inout", "wire", "reg", "assign", "always",
    "posedge", "negedge", "begin", "end", "if", "else", "case", "endcase", "default", "parameter",
    "localparam", "or",
];

/// Consumes the lexer's tokens by copy: an identifier borrows the source
/// until its AST node takes an owned copy.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Current AST nesting depth; see [`MAX_DEPTH`].
    depth: u32,
}

impl<'a> Parser<'a> {
    /// Charges one level of AST depth, erroring past [`MAX_DEPTH`].
    ///
    /// Callers that open a subtree (`parse_expr`, `parse_stmt`,
    /// `parse_lvalue`) save `self.depth` on entry and restore it on exit;
    /// chain producers (binary/unary/postfix loops) charge per link and
    /// rely on the enclosing expression's restore.
    fn descend(&mut self) -> Result<(), NetlistError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(NetlistError::too_deep(self.loc(), MAX_DEPTH));
        }
        Ok(())
    }

    /// The current token; past the end, the final `Eof`.
    fn peek(&self) -> Token<'a> {
        let eof = Token { kind: TokenKind::Eof, loc: Loc::default() };
        self.tokens.get(self.pos).or(self.tokens.last()).copied().unwrap_or(eof)
    }

    fn loc(&self) -> Loc {
        self.peek().loc
    }

    /// Moves past the current token; the final `Eof` is never passed.
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Punct(q) if q == p)
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), NetlistError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(NetlistError::parse(
                self.loc(),
                format!("expected `{p}`, found {}", describe(&self.peek().kind)),
            ))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), NetlistError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(NetlistError::parse(
                self.loc(),
                format!("expected `{kw}`, found {}", describe(&self.peek().kind)),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String, NetlistError> {
        match self.peek().kind {
            TokenKind::Ident(s) if !KEYWORDS.contains(&s) => {
                self.bump();
                Ok(s.to_string())
            }
            other => Err(NetlistError::parse(
                self.loc(),
                format!("expected identifier, found {}", describe(&other)),
            )),
        }
    }

    fn parse_design(&mut self) -> Result<Design, NetlistError> {
        let mut modules = Vec::new();
        while !matches!(self.peek().kind, TokenKind::Eof) {
            modules.push(self.parse_module()?);
        }
        Ok(Design { modules })
    }

    fn parse_module(&mut self) -> Result<Module, NetlistError> {
        self.expect_kw("module")?;
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        // Optional `#(parameter P = e, ...)` header.
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.eat_kw("parameter");
                let pname = self.expect_ident()?;
                self.expect_punct("=")?;
                let default = self.parse_expr()?;
                params.push(ParamDecl { name: pname, default, local: false });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        // ANSI port list.
        let mut ports = Vec::new();
        self.expect_punct("(")?;
        if !self.at_punct(")") {
            let mut dir = None;
            let mut range = None;
            let mut is_reg = false;
            loop {
                if self.eat_kw("input") {
                    dir = Some(Dir::Input);
                    is_reg = false;
                    range = None;
                } else if self.eat_kw("output") {
                    dir = Some(Dir::Output);
                    is_reg = false;
                    range = None;
                } else if self.eat_kw("inout") {
                    return Err(NetlistError::parse(self.loc(), "`inout` ports are unsupported"));
                }
                if self.eat_kw("wire") {
                    is_reg = false;
                }
                if self.eat_kw("reg") {
                    is_reg = true;
                }
                if self.at_punct("[") {
                    range = Some(self.parse_range()?);
                }
                let pname = self.expect_ident()?;
                let dir = dir.ok_or_else(|| {
                    NetlistError::parse(self.loc(), "port is missing a direction")
                })?;
                ports.push(PortDecl { dir, name: pname, range: range.clone(), is_reg });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        self.expect_punct(";")?;

        let mut items = Vec::new();
        while !self.at_kw("endmodule") {
            if matches!(self.peek().kind, TokenKind::Eof) {
                return Err(NetlistError::parse(self.loc(), "unexpected end of file in module"));
            }
            if self.at_kw("parameter") || self.at_kw("localparam") {
                let local = self.at_kw("localparam");
                self.bump();
                loop {
                    let pname = self.expect_ident()?;
                    self.expect_punct("=")?;
                    let default = self.parse_expr()?;
                    params.push(ParamDecl { name: pname, default, local });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(";")?;
            } else {
                items.push(self.parse_item()?);
            }
        }
        self.expect_kw("endmodule")?;
        Ok(Module { name, ports, params, items })
    }

    fn parse_range(&mut self) -> Result<Range, NetlistError> {
        self.expect_punct("[")?;
        let msb = self.parse_expr()?;
        self.expect_punct(":")?;
        let lsb = self.parse_expr()?;
        self.expect_punct("]")?;
        Ok(Range { msb, lsb })
    }

    fn parse_item(&mut self) -> Result<Item, NetlistError> {
        if self.at_kw("wire") || self.at_kw("reg") {
            return self.parse_decl().map(Item::Decl);
        }
        if self.eat_kw("assign") {
            let lhs = self.parse_lvalue()?;
            self.expect_punct("=")?;
            let rhs = self.parse_expr()?;
            self.expect_punct(";")?;
            return Ok(Item::Assign { lhs, rhs });
        }
        if self.eat_kw("always") {
            return self.parse_always().map(Item::Always);
        }
        // Otherwise: a module instantiation `Type [#(...)] name (conns);`
        self.parse_instance().map(Item::Instance)
    }

    fn parse_decl(&mut self) -> Result<Decl, NetlistError> {
        let is_reg = self.at_kw("reg");
        self.bump(); // wire|reg
        self.eat_kw("signed"); // tolerated and ignored
        let range = if self.at_punct("[") { Some(self.parse_range()?) } else { None };
        let mut names = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let mem_range = if self.at_punct("[") { Some(self.parse_range()?) } else { None };
            let init = if self.eat_punct("=") { Some(self.parse_expr()?) } else { None };
            names.push(DeclName { name, mem_range, init });
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        Ok(Decl { is_reg, range, names })
    }

    fn parse_always(&mut self) -> Result<Always, NetlistError> {
        self.expect_punct("@")?;
        let clock = if self.eat_punct("*") {
            None
        } else {
            self.expect_punct("(")?;
            let mut clock = None;
            if self.eat_punct("*") {
                self.expect_punct(")")?;
                let body = self.parse_stmt()?;
                return Ok(Always { clock: None, body });
            }
            loop {
                if self.eat_kw("posedge") || self.eat_kw("negedge") {
                    let sig = self.expect_ident()?;
                    // The first edge signal is taken as the clock; further
                    // `or posedge rst` terms are treated as synchronous for
                    // graph-construction purposes (see crate docs).
                    if clock.is_none() {
                        clock = Some(sig);
                    }
                } else {
                    // Level-sensitive list (`@(a or b)`) => combinational.
                    self.expect_ident()?;
                }
                if !(self.eat_kw("or") || self.eat_punct(",")) {
                    break;
                }
            }
            self.expect_punct(")")?;
            clock
        };
        let body = self.parse_stmt()?;
        Ok(Always { clock, body })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, NetlistError> {
        let saved = self.depth;
        self.descend()?;
        let r = self.parse_stmt_inner();
        self.depth = saved;
        r
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, NetlistError> {
        if self.eat_kw("begin") {
            // Optional `: label`.
            if self.eat_punct(":") {
                self.expect_ident()?;
            }
            let mut stmts = Vec::new();
            while !self.at_kw("end") {
                if matches!(self.peek().kind, TokenKind::Eof) {
                    return Err(NetlistError::parse(self.loc(), "unexpected EOF in begin/end"));
                }
                stmts.push(self.parse_stmt()?);
            }
            self.expect_kw("end")?;
            return Ok(Stmt::Block(stmts));
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            let then_s = Box::new(self.parse_stmt()?);
            let else_s =
                if self.eat_kw("else") { Some(Box::new(self.parse_stmt()?)) } else { None };
            return Ok(Stmt::If { cond, then_s, else_s });
        }
        if self.eat_kw("case") {
            self.expect_punct("(")?;
            let subject = self.parse_expr()?;
            self.expect_punct(")")?;
            let mut arms = Vec::new();
            let mut default = None;
            while !self.at_kw("endcase") {
                if matches!(self.peek().kind, TokenKind::Eof) {
                    return Err(NetlistError::parse(self.loc(), "unexpected EOF in case"));
                }
                if self.eat_kw("default") {
                    self.eat_punct(":");
                    default = Some(Box::new(self.parse_stmt()?));
                } else {
                    let mut labels = vec![self.parse_expr()?];
                    while self.eat_punct(",") {
                        labels.push(self.parse_expr()?);
                    }
                    self.expect_punct(":")?;
                    let body = self.parse_stmt()?;
                    arms.push((labels, body));
                }
            }
            self.expect_kw("endcase")?;
            return Ok(Stmt::Case { subject, arms, default });
        }
        if self.eat_punct(";") {
            return Ok(Stmt::Empty);
        }
        // Assignment.
        let lhs = self.parse_lvalue()?;
        let nonblocking = if self.eat_punct("<=") {
            true
        } else {
            self.expect_punct("=")?;
            false
        };
        let rhs = self.parse_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign { lhs, rhs, nonblocking })
    }

    fn parse_lvalue(&mut self) -> Result<LValue, NetlistError> {
        let saved = self.depth;
        self.descend()?;
        let r = self.parse_lvalue_inner();
        self.depth = saved;
        r
    }

    fn parse_lvalue_inner(&mut self) -> Result<LValue, NetlistError> {
        if self.eat_punct("{") {
            let mut parts = vec![self.parse_lvalue()?];
            while self.eat_punct(",") {
                parts.push(self.parse_lvalue()?);
            }
            self.expect_punct("}")?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.expect_ident()?;
        if self.eat_punct("[") {
            let a = self.parse_expr()?;
            if self.eat_punct(":") {
                let b = self.parse_expr()?;
                self.expect_punct("]")?;
                return Ok(LValue::PartSelect(name, a, b));
            }
            self.expect_punct("]")?;
            return Ok(LValue::BitSelect(name, a));
        }
        Ok(LValue::Ident(name))
    }

    fn parse_instance(&mut self) -> Result<Instance, NetlistError> {
        let module = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct("#") {
            self.expect_punct("(")?;
            loop {
                self.expect_punct(".")?;
                let pname = self.expect_ident()?;
                self.expect_punct("(")?;
                let value = self.parse_expr()?;
                self.expect_punct(")")?;
                params.push((pname, value));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut conns = Vec::new();
        if !self.at_punct(")") {
            let mut index = 0usize;
            loop {
                if self.eat_punct(".") {
                    let port = self.expect_ident()?;
                    self.expect_punct("(")?;
                    let expr = if self.at_punct(")") { None } else { Some(self.parse_expr()?) };
                    self.expect_punct(")")?;
                    conns.push(Connection::Named(port, expr));
                } else {
                    let expr = self.parse_expr()?;
                    conns.push(Connection::Positional(index, expr));
                }
                index += 1;
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        self.expect_punct(";")?;
        Ok(Instance { module, name, params, conns })
    }

    // ---- Expressions (precedence climbing) ----

    fn parse_expr(&mut self) -> Result<Expr, NetlistError> {
        let saved = self.depth;
        self.descend()?;
        let r = self.parse_ternary();
        self.depth = saved;
        r
    }

    fn parse_ternary(&mut self) -> Result<Expr, NetlistError> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct("?") {
            // Arms go through `parse_expr` so ternary chains charge depth.
            let a = self.parse_expr()?;
            self.expect_punct(":")?;
            let b = self.parse_expr()?;
            return Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)));
        }
        Ok(cond)
    }

    /// Binds tighter as the level increases; standard Verilog precedence.
    fn binop(&self) -> Option<(BinOp, u8)> {
        let TokenKind::Punct(p) = self.peek().kind else { return None };
        Some(match p {
            "||" => (BinOp::LOr, 0),
            "&&" => (BinOp::LAnd, 1),
            "|" => (BinOp::Or, 2),
            "^" => (BinOp::Xor, 3),
            "~^" | "^~" => (BinOp::Xnor, 3),
            "&" => (BinOp::And, 4),
            "==" => (BinOp::Eq, 5),
            "!=" => (BinOp::Ne, 5),
            "<" => (BinOp::Lt, 6),
            "<=" => (BinOp::Le, 6),
            ">" => (BinOp::Gt, 6),
            ">=" => (BinOp::Ge, 6),
            "<<" => (BinOp::Shl, 7),
            ">>" => (BinOp::Shr, 7),
            ">>>" => (BinOp::AShr, 7),
            "+" => (BinOp::Add, 8),
            "-" => (BinOp::Sub, 8),
            "*" => (BinOp::Mul, 9),
            "/" => (BinOp::Div, 9),
            "%" => (BinOp::Mod, 9),
            _ => return None,
        })
    }

    /// Precedence climbing (one recursion per *consumed* operator, not a
    /// fixed ladder of one frame per precedence level). The flat shape
    /// matters for robustness: untrusted input gets to nest expressions
    /// [`MAX_DEPTH`] deep, and the ladder's ~11 frames per nesting level
    /// came close to the 2 MiB thread-stack limit in debug builds.
    fn parse_binary(&mut self, min_level: u8) -> Result<Expr, NetlistError> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, lvl)) = self.binop() {
            if lvl < min_level {
                break;
            }
            self.bump();
            // Each operator deepens the tree one level (left-nesting for
            // chains, right recursion for tighter-binding ops).
            self.descend()?;
            let rhs = self.parse_binary(lvl + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, NetlistError> {
        let op = match self.peek().kind {
            TokenKind::Punct("~") => Some(UnOp::Not),
            TokenKind::Punct("-") => Some(UnOp::Neg),
            TokenKind::Punct("!") => Some(UnOp::LNot),
            TokenKind::Punct("&") => Some(UnOp::RedAnd),
            TokenKind::Punct("|") => Some(UnOp::RedOr),
            TokenKind::Punct("^") => Some(UnOp::RedXor),
            TokenKind::Punct("~&") => Some(UnOp::RedNand),
            TokenKind::Punct("~|") => Some(UnOp::RedNor),
            TokenKind::Punct("~^") => Some(UnOp::RedXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            self.descend()?;
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary(op, Box::new(inner)));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, NetlistError> {
        let mut e = self.parse_primary()?;
        while self.at_punct("[") {
            self.bump();
            self.descend()?;
            let a = self.parse_expr()?;
            if self.eat_punct(":") {
                let b = self.parse_expr()?;
                self.expect_punct("]")?;
                e = Expr::PartSelect(Box::new(e), Box::new(a), Box::new(b));
            } else {
                self.expect_punct("]")?;
                e = Expr::BitSelect(Box::new(e), Box::new(a));
            }
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr, NetlistError> {
        match self.peek().kind {
            TokenKind::Number { value, width } => {
                self.bump();
                Ok(Expr::Number { value, width })
            }
            TokenKind::Ident(s) if !KEYWORDS.contains(&s) => {
                self.bump();
                Ok(Expr::Ident(s.to_string()))
            }
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Punct("{") => {
                self.bump();
                let first = self.parse_expr()?;
                // Replication `{n{e}}`.
                if self.at_punct("{") {
                    self.bump();
                    let inner = self.parse_expr()?;
                    self.expect_punct("}")?;
                    self.expect_punct("}")?;
                    return Ok(Expr::Replicate(Box::new(first), Box::new(inner)));
                }
                let mut parts = vec![first];
                while self.eat_punct(",") {
                    parts.push(self.parse_expr()?);
                }
                self.expect_punct("}")?;
                Ok(Expr::Concat(parts))
            }
            other => Err(NetlistError::parse(
                self.loc(),
                format!("expected expression, found {}", describe(&other)),
            )),
        }
    }
}

fn describe(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(s) => format!("`{s}`"),
        TokenKind::Number { value, .. } => format!("number `{value}`"),
        TokenKind::Punct(p) => format!("`{p}`"),
        TokenKind::Eof => "end of file".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Module {
        let d = parse_source(src).unwrap();
        assert_eq!(d.modules.len(), 1);
        d.modules.into_iter().next().unwrap()
    }

    #[test]
    fn parses_ports_with_ranges() {
        let m = parse_one(
            "module m (input clk, input [7:0] a, b, output reg [15:0] q); endmodule",
        );
        assert_eq!(m.ports.len(), 4);
        assert_eq!(m.ports[0].name, "clk");
        assert!(m.ports[0].range.is_none());
        assert_eq!(m.ports[1].dir, Dir::Input);
        assert!(m.ports[2].range.is_some()); // `b` inherits [7:0]
        assert!(m.ports[3].is_reg);
        assert_eq!(m.ports[3].dir, Dir::Output);
    }

    #[test]
    fn parses_parameters_header_and_body() {
        let m = parse_one(
            "module m #(parameter W = 8, parameter D = W*2) (input [W-1:0] a);
                 localparam HALF = W / 2;
             endmodule",
        );
        assert_eq!(m.params.len(), 3);
        assert!(m.params[2].local);
    }

    #[test]
    fn parses_assign_and_expressions() {
        let m = parse_one(
            "module m (input [7:0] a, b, output [7:0] y);
                 assign y = (a + b) * 2 > 8'h10 ? a & ~b : {4'b0, a[7:4]};
             endmodule",
        );
        let Item::Assign { rhs, .. } = &m.items[0] else { panic!("expected assign") };
        assert!(matches!(rhs, Expr::Ternary(..)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let m = parse_one("module m (input a, output y); assign y = a + a * a; endmodule");
        let Item::Assign { rhs, .. } = &m.items[0] else { panic!() };
        let Expr::Binary(BinOp::Add, _, r) = rhs else { panic!("expected top-level add") };
        assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_always_clocked_with_reset() {
        let m = parse_one(
            "module m (input clk, input rst, input [3:0] d, output reg [3:0] q);
                 always @(posedge clk or posedge rst) begin
                     if (rst) q <= 4'd0;
                     else q <= d;
                 end
             endmodule",
        );
        let Item::Always(a) = &m.items[0] else { panic!() };
        assert_eq!(a.clock.as_deref(), Some("clk"));
        assert!(matches!(a.body, Stmt::Block(_)));
    }

    #[test]
    fn parses_comb_always_with_case() {
        let m = parse_one(
            "module m (input [1:0] s, output reg [3:0] y);
                 always @(*) begin
                     case (s)
                         2'd0: y = 4'd1;
                         2'd1, 2'd2: y = 4'd2;
                         default: y = 4'd0;
                     endcase
                 end
             endmodule",
        );
        let Item::Always(a) = &m.items[0] else { panic!() };
        assert!(a.clock.is_none());
        let Stmt::Block(b) = &a.body else { panic!() };
        let Stmt::Case { arms, default, .. } = &b[0] else { panic!() };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].0.len(), 2);
        assert!(default.is_some());
    }

    #[test]
    fn parses_memory_declarations() {
        let m = parse_one(
            "module m (input clk); reg [7:0] mem [0:255]; wire [7:0] x = 8'd3, y; endmodule",
        );
        let Item::Decl(d) = &m.items[0] else { panic!() };
        assert!(d.is_reg);
        assert!(d.names[0].mem_range.is_some());
        let Item::Decl(d2) = &m.items[1] else { panic!() };
        assert!(d2.names[0].init.is_some());
        assert!(d2.names[1].init.is_none());
    }

    #[test]
    fn parses_instances_named_and_positional() {
        let m = parse_one(
            "module top (input [7:0] a, output [7:0] y);
                 wire [7:0] t;
                 child #(.W(8)) u0 (.a(a), .y(t));
                 child u1 (t, y);
             endmodule",
        );
        let Item::Instance(i0) = &m.items[1] else { panic!() };
        assert_eq!(i0.module, "child");
        assert_eq!(i0.params.len(), 1);
        assert!(matches!(i0.conns[0], Connection::Named(..)));
        let Item::Instance(i1) = &m.items[2] else { panic!() };
        assert!(matches!(i1.conns[1], Connection::Positional(1, _)));
    }

    #[test]
    fn parses_replication_and_concat() {
        let m = parse_one(
            "module m (input [3:0] a, output [15:0] y); assign y = {{2{a}}, a, 4'b0}; endmodule",
        );
        let Item::Assign { rhs, .. } = &m.items[0] else { panic!() };
        let Expr::Concat(parts) = rhs else { panic!() };
        assert_eq!(parts.len(), 3);
        assert!(matches!(parts[0], Expr::Replicate(..)));
    }

    #[test]
    fn reports_error_locations() {
        let err = parse_source("module m (input a;\nendmodule").unwrap_err();
        let NetlistError::Parse { loc, .. } = err else { panic!("expected parse error") };
        assert_eq!(loc.line, 1);
    }

    #[test]
    fn rejects_keyword_as_identifier() {
        assert!(parse_source("module module (input a); endmodule").is_err());
    }

    #[test]
    fn parses_multiple_modules() {
        let d = parse_source(
            "module a (input x); endmodule
             module b (input x); endmodule",
        )
        .unwrap();
        assert_eq!(d.modules.len(), 2);
        assert!(d.module("a").is_some() && d.module("b").is_some());
    }

    #[test]
    fn unary_reductions_parse() {
        let m = parse_one("module m (input [7:0] a, output y); assign y = &a ^ |a; endmodule");
        let Item::Assign { rhs, .. } = &m.items[0] else { panic!() };
        assert!(matches!(rhs, Expr::Binary(BinOp::Xor, _, _)));
    }

    fn assert_too_deep(src: &str) {
        let err = parse_source(src).unwrap_err();
        assert!(
            matches!(err, NetlistError::TooDeep { limit: MAX_DEPTH, .. }),
            "expected TooDeep, got: {err}"
        );
    }

    #[test]
    fn deep_parens_error_instead_of_overflowing_the_stack() {
        for n in [MAX_DEPTH as usize + 1, 10_000, 200_000] {
            let src = format!(
                "module m (input a, output y); assign y = {}a{}; endmodule",
                "(".repeat(n),
                ")".repeat(n)
            );
            assert_too_deep(&src);
        }
    }

    #[test]
    fn nesting_well_below_the_limit_parses() {
        let n = 100;
        let src = format!(
            "module m (input a, output y); assign y = {}a{}; endmodule",
            "(".repeat(n),
            ")".repeat(n)
        );
        parse_source(&src).expect("100 nested parens are legal");
    }

    #[test]
    fn deep_chains_of_every_shape_are_bounded() {
        let n = 10_000;
        // Unary chain: parser recursion plus a deep AST.
        assert_too_deep(&format!(
            "module m (input a, output y); assign y = {}a; endmodule",
            "~".repeat(n)
        ));
        // Replication nesting.
        assert_too_deep(&format!(
            "module m (input a, output y); assign y = {}a{}; endmodule",
            "{2{".repeat(n),
            "}}".repeat(n)
        ));
        // Ternary chain (right-leaning).
        assert_too_deep(&format!(
            "module m (input a, output y); assign y = {}a; endmodule",
            "a ? a : ".repeat(n)
        ));
        // Binary chain: built iteratively, but left-nests the AST — the
        // elaborator and Drop would recurse over it.
        assert_too_deep(&format!(
            "module m (input a, output y); assign y = a{}; endmodule",
            " ^ a".repeat(n)
        ));
        // Postfix select chain.
        assert_too_deep(&format!(
            "module m (input a, output y); assign y = a{}; endmodule",
            "[0]".repeat(n)
        ));
        // Statement nesting.
        assert_too_deep(&format!(
            "module m (input c, output reg y); always @(*) {}y = c; endmodule",
            "if (c) ".repeat(n)
        ));
        assert_too_deep(&format!(
            "module m (input c, output reg y); always @(*) {}y = c; {}endmodule",
            "begin ".repeat(n),
            "end ".repeat(n)
        ));
        // Lvalue concat nesting.
        assert_too_deep(&format!(
            "module m (input c, output y); assign {}y{} = c; endmodule",
            "{".repeat(n),
            "}".repeat(n)
        ));
    }

    #[test]
    fn depth_resets_between_statements_and_items() {
        // Many siblings, each modestly nested: depth must not accumulate
        // across statements, expressions, or module items.
        let stmt = format!("y = {}c{};", "(".repeat(60), ")".repeat(60));
        let src = format!(
            "module m (input c, output reg y); always @(*) begin {} end endmodule",
            stmt.repeat(50)
        );
        parse_source(&src).expect("sibling statements share no depth budget");
    }

    #[test]
    fn lvalue_concat_parses() {
        let m = parse_one(
            "module m (input [8:0] s, output [7:0] y, output c);
                 assign {c, y} = s;
             endmodule",
        );
        let Item::Assign { lhs, .. } = &m.items[0] else { panic!() };
        assert!(matches!(lhs, LValue::Concat(v) if v.len() == 2));
    }
}
