//! Lexer for the supported Verilog subset.
//!
//! Produces a flat token stream with source locations. Comments (`//` and
//! `/* */`) and whitespace are skipped. Number literals support plain decimal
//! (`42`) and sized/based forms (`8'hFF`, `4'b1010`, `16'd100`, `6'o17`).
//!
//! Identifiers borrow their text from the source (`TokenKind::Ident(&str)`),
//! so a token is `Copy` and lexing allocates only the token vector; the
//! parser makes an identifier an owned `String` once, in the AST node that
//! keeps it. Punctuation is dispatched on its first bytes with maximal
//! munch. Locations count bytes: `col` advances by one per byte, so a
//! multi-byte character advances it by its UTF-8 length.

use crate::error::{Loc, NetlistError};

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// An identifier or keyword (`module`, `clk`, ...), borrowed from the
    /// source. Keywords are distinguished by the parser; an escaped
    /// identifier (`\name`) carries its text without the backslash.
    Ident(&'a str),
    /// An integer literal with an optional explicit width.
    ///
    /// `8'hFF` lexes as `Number { value: 255, width: Some(8) }`; a plain
    /// `42` has `width: None` (context determines its width).
    Number {
        /// The literal's value (64-bit; widths above 64 are rejected).
        value: u64,
        /// Explicit bit width, if the literal was sized.
        width: Option<u32>,
    },
    /// Punctuation or operator, stored as the exact source text
    /// (e.g. `"<<"`, `"=="`, `"("`).
    Punct(&'static str),
    /// End of input.
    Eof,
}

/// A token together with its source location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// Where it starts in the source.
    pub loc: Loc,
}

/// A streaming lexer over Verilog source text.
///
/// # Example
///
/// ```rust
/// use sns_netlist::{Lexer, TokenKind};
///
/// # fn main() -> Result<(), sns_netlist::NetlistError> {
/// let tokens = Lexer::new("assign y = a + 8'hFF;").lex_all()?;
/// assert_eq!(tokens[0].kind, TokenKind::Ident("assign"));
/// assert_eq!(tokens[5].kind, TokenKind::Number { value: 255, width: Some(8) });
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'a str) -> Self {
        Lexer { src: source, pos: 0, line: 1, col: 1 }
    }

    /// Lexes the entire input into a token vector terminated by
    /// [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Lex`] on unexpected characters or malformed
    /// literals.
    pub fn lex_all(mut self) -> Result<Vec<Token<'a>>, NetlistError> {
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            let tok = self.next_token()?;
            out.push(tok);
            if tok.kind == TokenKind::Eof {
                return Ok(out);
            }
        }
    }

    fn loc(&self) -> Loc {
        Loc { line: self.line, col: self.col }
    }

    fn at(&self, k: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + k).copied()
    }

    fn peek(&self) -> Option<u8> {
        self.at(0)
    }

    /// Moves past `n` bytes that contain no newline.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    /// Moves past a newline byte.
    fn newline(&mut self) {
        self.pos += 1;
        self.line += 1;
        self.col = 1;
    }

    /// The number of bytes from the cursor while `keep` holds.
    fn run(&self, keep: impl Fn(u8) -> bool) -> usize {
        self.src.as_bytes()[self.pos..].iter().take_while(|&&c| keep(c)).count()
    }

    fn skip_trivia(&mut self) -> Result<(), NetlistError> {
        loop {
            match (self.peek(), self.at(1)) {
                (Some(b'\n'), _) => self.newline(),
                (Some(c), _) if c.is_ascii_whitespace() => self.advance(1),
                (Some(b'/'), Some(b'/')) => self.advance(self.run(|c| c != b'\n')),
                (Some(b'/'), Some(b'*')) => {
                    let start = self.loc();
                    self.advance(2);
                    loop {
                        match (self.peek(), self.at(1)) {
                            (Some(b'*'), Some(b'/')) => {
                                self.advance(2);
                                break;
                            }
                            (Some(b'\n'), _) => self.newline(),
                            (Some(_), _) => self.advance(1),
                            (None, _) => {
                                return Err(NetlistError::lex(start, "unterminated block comment"));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token<'a>, NetlistError> {
        self.skip_trivia()?;
        let loc = self.loc();
        let Some(c) = self.peek() else {
            return Ok(Token { kind: TokenKind::Eof, loc });
        };

        if c.is_ascii_alphabetic() || c == b'_' || c == b'\\' {
            return Ok(Token { kind: self.lex_ident(), loc });
        }
        if c.is_ascii_digit() || c == b'\'' {
            return Ok(Token { kind: self.lex_number(loc)?, loc });
        }
        match self.punct(c) {
            Some(p) => {
                self.advance(p.len());
                Ok(Token { kind: TokenKind::Punct(p), loc })
            }
            None => Err(NetlistError::lex(loc, format!("unexpected character `{}`", c as char))),
        }
    }

    /// The punctuation at the cursor, whose first byte is `c`: the longest
    /// operator that matches (maximal munch), or `None`.
    fn punct(&self, c: u8) -> Option<&'static str> {
        Some(match (c, self.at(1), self.at(2)) {
            (b'>', Some(b'>'), Some(b'>')) => ">>>",
            (b'<', Some(b'<'), Some(b'<')) => "<<<",
            (b'=', Some(b'='), Some(b'=')) => "===",
            (b'!', Some(b'='), Some(b'=')) => "!==",
            (b'&', Some(b'&'), _) => "&&",
            (b'|', Some(b'|'), _) => "||",
            (b'=', Some(b'='), _) => "==",
            (b'!', Some(b'='), _) => "!=",
            (b'<', Some(b'='), _) => "<=",
            (b'>', Some(b'='), _) => ">=",
            (b'<', Some(b'<'), _) => "<<",
            (b'>', Some(b'>'), _) => ">>",
            (b'~', Some(b'&'), _) => "~&",
            (b'~', Some(b'|'), _) => "~|",
            (b'~', Some(b'^'), _) => "~^",
            (b'^', Some(b'~'), _) => "^~",
            (b'+', Some(b':'), _) => "+:",
            (b'-', Some(b':'), _) => "-:",
            (b'(', ..) => "(",
            (b')', ..) => ")",
            (b'[', ..) => "[",
            (b']', ..) => "]",
            (b'{', ..) => "{",
            (b'}', ..) => "}",
            (b';', ..) => ";",
            (b',', ..) => ",",
            (b'.', ..) => ".",
            (b':', ..) => ":",
            (b'#', ..) => "#",
            (b'@', ..) => "@",
            (b'?', ..) => "?",
            (b'=', ..) => "=",
            (b'+', ..) => "+",
            (b'-', ..) => "-",
            (b'*', ..) => "*",
            (b'/', ..) => "/",
            (b'%', ..) => "%",
            (b'&', ..) => "&",
            (b'|', ..) => "|",
            (b'^', ..) => "^",
            (b'~', ..) => "~",
            (b'!', ..) => "!",
            (b'<', ..) => "<",
            (b'>', ..) => ">",
            _ => return None,
        })
    }

    fn lex_ident(&mut self) -> TokenKind<'a> {
        // Escaped identifiers run until whitespace; the backslash is not
        // part of the name.
        let escaped = self.peek() == Some(b'\\');
        if escaped {
            self.advance(1);
        }
        let start = self.pos;
        let len = if escaped {
            self.run(|c| !c.is_ascii_whitespace())
        } else {
            self.run(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'$')
        };
        self.advance(len);
        // Both runs start after an ASCII byte and stop before an ASCII byte
        // or at the end, so the slice lies on char boundaries.
        TokenKind::Ident(self.src.get(start..self.pos).unwrap_or(""))
    }

    fn lex_digits(&mut self, radix: u32, loc: Loc) -> Result<u64, NetlistError> {
        let mut value: u64 = 0;
        let mut any = false;
        while let Some(c) = self.peek() {
            if c == b'_' {
                self.advance(1);
                continue;
            }
            let Some(d) = (c as char).to_digit(radix) else { break };
            any = true;
            value = value
                .checked_mul(radix as u64)
                .and_then(|v| v.checked_add(d as u64))
                .ok_or_else(|| NetlistError::lex(loc, "integer literal overflows 64 bits"))?;
            self.advance(1);
        }
        if !any {
            return Err(NetlistError::lex(loc, "expected digits in literal"));
        }
        Ok(value)
    }

    fn lex_number(&mut self, loc: Loc) -> Result<TokenKind<'a>, NetlistError> {
        // Optional leading decimal size (e.g. the `8` in `8'hFF`).
        let mut width: Option<u32> = None;
        if self.peek() != Some(b'\'') {
            let v = self.lex_digits(10, loc)?;
            if self.peek() != Some(b'\'') {
                return Ok(TokenKind::Number { value: v, width: None });
            }
            if v == 0 || v > 64 {
                return Err(NetlistError::lex(loc, format!("unsupported literal width {v}")));
            }
            width = Some(v as u32);
        }
        // Based literal: the `'`, then the base letter.
        self.advance(1);
        let base = self.peek().ok_or_else(|| NetlistError::lex(loc, "truncated based literal"))?;
        let radix = match base.to_ascii_lowercase() {
            b'h' => 16,
            b'd' => 10,
            b'o' => 8,
            b'b' => 2,
            other => {
                return Err(NetlistError::lex(
                    loc,
                    format!("unknown base `{}` in literal", other as char),
                ));
            }
        };
        self.advance(1);
        let value = self.lex_digits(radix, loc)?;
        if let Some(w) = width {
            if w < 64 && value >= (1u64 << w) {
                return Err(NetlistError::lex(
                    loc,
                    format!("literal value {value} does not fit in {w} bits"),
                ));
            }
        }
        Ok(TokenKind::Number { value, width })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(src).lex_all().unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_identifiers_and_punct() {
        let k = kinds("module m (input a);");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("module"),
                TokenKind::Ident("m"),
                TokenKind::Punct("("),
                TokenKind::Ident("input"),
                TokenKind::Ident("a"),
                TokenKind::Punct(")"),
                TokenKind::Punct(";"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_based_numbers() {
        assert_eq!(kinds("8'hFF")[0], TokenKind::Number { value: 255, width: Some(8) });
        assert_eq!(kinds("4'b1010")[0], TokenKind::Number { value: 10, width: Some(4) });
        assert_eq!(kinds("16'd1000")[0], TokenKind::Number { value: 1000, width: Some(16) });
        assert_eq!(kinds("6'o17")[0], TokenKind::Number { value: 15, width: Some(6) });
        assert_eq!(kinds("'h20")[0], TokenKind::Number { value: 32, width: None });
        assert_eq!(kinds("12_000")[0], TokenKind::Number { value: 12000, width: None });
    }

    #[test]
    fn rejects_overflowing_sized_literal() {
        let err = Lexer::new("4'hFF").lex_all().unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn maximal_munch_operators() {
        let k = kinds("a <= b >>> 2 != c");
        assert_eq!(k[1], TokenKind::Punct("<="));
        assert_eq!(k[3], TokenKind::Punct(">>>"));
        assert_eq!(k[5], TokenKind::Punct("!="));
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let toks = Lexer::new("// line\n/* block\n */ x").lex_all().unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x"));
        assert_eq!(toks[0].loc.line, 3);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(Lexer::new("/* oops").lex_all().is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Lexer::new("a ` b").lex_all().is_err());
    }

    /// Every operator, longest first: the table the `match` dispatch in
    /// [`Lexer::punct`] replaces, kept as its oracle.
    const PUNCTS: &[&str] = &[
        ">>>", "<<<", "===", "!==", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "~&", "~|",
        "~^", "^~", "+:", "-:", "(", ")", "[", "]", "{", "}", ";", ",", ".", ":", "#", "@", "?",
        "=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
    ];

    /// The reference lexer for punctuation-only text: at every position,
    /// the first table entry the rest of the text starts with.
    fn table_puncts(src: &str) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut rest = src;
        while !rest.is_empty() {
            let p = PUNCTS.iter().find(|p| rest.starts_with(**p)).expect("punct text");
            out.push(*p);
            rest = &rest[p.len()..];
        }
        out
    }

    /// Lexes `src` and checks its tokens against the table's scan of the
    /// punctuation in it, `word` standing for one non-punct token.
    fn assert_matches_table(src: &str, word: &str) {
        let toks = Lexer::new(src).lex_all().unwrap();
        let mut want: Vec<TokenKind<'_>> = Vec::new();
        let mut col = 1u32;
        let mut cols = Vec::new();
        for part in src.split(word) {
            for p in table_puncts(part) {
                want.push(TokenKind::Punct(p));
                cols.push(col);
                col += p.len() as u32;
            }
            want.push(TokenKind::Eof);
            cols.push(col);
            col += word.len() as u32;
        }
        // Each split boundary stands for `word`; the last one is the end.
        let (mut got, mut got_cols) = (Vec::new(), Vec::new());
        for t in &toks {
            let kind = match t.kind {
                TokenKind::Punct(_) => t.kind,
                _ => TokenKind::Eof,
            };
            got.push(kind);
            got_cols.push(t.loc.col);
        }
        assert_eq!(got, want, "{src:?}");
        assert_eq!(got_cols, cols, "{src:?}");
    }

    #[test]
    fn punct_dispatch_matches_the_maximal_munch_table() {
        for a in PUNCTS {
            // Alone, and next to an identifier or a number on both sides.
            assert_matches_table(a, "\u{0}");
            for word in ["x", "7"] {
                assert_matches_table(&format!("{word}{a}{word}"), word);
            }
            // Every ordered pair, glued, so munch decides the split.
            for b in PUNCTS {
                let glued = format!("{a}{b}");
                // `//` and `/*` open comments; they are not punctuation.
                if glued.contains("//") || glued.contains("/*") {
                    continue;
                }
                assert_matches_table(&glued, "\u{0}");
            }
        }
    }

    #[test]
    fn identifiers_borrow_the_source_text() {
        let src = "module \\esc$1 (input a_b$c);";
        let toks = Lexer::new(src).lex_all().unwrap();
        assert_eq!(toks[1].kind, TokenKind::Ident("esc$1"));
        assert_eq!(toks[4].kind, TokenKind::Ident("a_b$c"));
        let TokenKind::Ident(s) = toks[4].kind else { panic!() };
        assert!(src.as_bytes().as_ptr_range().contains(&s.as_ptr()), "borrowed, not copied");
    }

    #[test]
    fn columns_count_bytes_across_lines_and_comments() {
        let toks = Lexer::new("a\t/* \u{e9}\n\u{e9} */ b // c\n\u{e9}d").lex_all();
        let err = toks.unwrap_err();
        assert_eq!(err.to_string(), "lex error at 3:1: unexpected character `\u{c3}`");
        let toks = Lexer::new("a\t/* \u{e9}\n\u{e9} */ b // c\n d").lex_all().unwrap();
        let locs: Vec<(u32, u32)> = toks.iter().map(|t| (t.loc.line, t.loc.col)).collect();
        assert_eq!(locs, vec![(1, 1), (2, 7), (3, 2), (3, 3)]);
    }

    #[test]
    fn end_of_input_truncations_are_structured_errors() {
        let cases = [
            ("8'", "lex error at 1:1: truncated based literal"),
            ("8'h", "lex error at 1:1: expected digits in literal"),
            ("x 8'\u{e9}", "lex error at 1:3: unknown base `\u{c3}` in literal"),
            ("/*", "lex error at 1:1: unterminated block comment"),
        ];
        for (src, want) in cases {
            assert_eq!(Lexer::new(src).lex_all().unwrap_err().to_string(), want, "{src:?}");
        }
        // A lone backslash is an empty escaped identifier.
        let toks = Lexer::new("a \\").lex_all().unwrap();
        assert_eq!(toks[1].kind, TokenKind::Ident(""));
        assert_eq!(toks[2].loc.col, 4);
    }
}
