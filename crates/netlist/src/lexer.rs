//! Lexer for the supported Verilog subset.
//!
//! Produces a flat token stream with source locations. Comments (`//` and
//! `/* */`) and whitespace are skipped. Number literals support plain decimal
//! (`42`) and sized/based forms (`8'hFF`, `4'b1010`, `16'd100`, `6'o17`).

use crate::error::{Loc, NetlistError};

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`module`, `clk`, ...). Keywords are
    /// distinguished by the parser.
    Ident(String),
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it starts in the source.
    pub loc: Loc,
}

/// All multi-character punctuation, longest first so maximal-munch works.
const PUNCTS: &[&str] = &[
    ">>>", "<<<", "===", "!==", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "~&", "~|", "~^",
    "^~", "+:", "-:", "(", ")", "[", "]", "{", "}", ";", ",", ".", ":", "#", "@", "?", "=", "+",
    "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
];

/// A streaming lexer over Verilog source text.
///
/// # Example
///
/// ```rust
/// use sns_netlist::{Lexer, TokenKind};
///
/// # fn main() -> Result<(), sns_netlist::NetlistError> {
/// let tokens = Lexer::new("assign y = a + 8'hFF;").lex_all()?;
/// assert_eq!(tokens[0].kind, TokenKind::Ident("assign".into()));
/// assert_eq!(tokens[5].kind, TokenKind::Number { value: 255, width: Some(8) });
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'a str) -> Self {
        Lexer { src: source.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    /// Lexes the entire input into a token vector terminated by
    /// [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Lex`] on unexpected characters or malformed
    /// literals.
    pub fn lex_all(mut self) -> Result<Vec<Token>, NetlistError> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let is_eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if is_eof {
                return Ok(out);
            }
        }
    }

    fn loc(&self) -> Loc {
        Loc { line: self.line, col: self.col }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<(), NetlistError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.loc();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
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

    fn next_token(&mut self) -> Result<Token, NetlistError> {
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
        for p in PUNCTS {
            if self.src[self.pos..].starts_with(p.as_bytes()) {
                for _ in 0..p.len() {
                    self.bump();
                }
                return Ok(Token { kind: TokenKind::Punct(p), loc });
            }
        }
        Err(NetlistError::lex(loc, format!("unexpected character `{}`", c as char)))
    }

    fn lex_ident(&mut self) -> TokenKind {
        let escaped = self.peek() == Some(b'\\');
        if escaped {
            self.bump();
            // Escaped identifiers run until whitespace.
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c.is_ascii_whitespace() {
                    break;
                }
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("").to_string();
            return TokenKind::Ident(text);
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'$' {
                self.bump();
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("").to_string();
        TokenKind::Ident(text)
    }

    fn lex_digits(&mut self, radix: u32, loc: Loc) -> Result<u64, NetlistError> {
        let mut value: u64 = 0;
        let mut any = false;
        while let Some(c) = self.peek() {
            if c == b'_' {
                self.bump();
                continue;
            }
            let d = (c as char).to_digit(radix);
            match d {
                Some(d) => {
                    any = true;
                    value = value
                        .checked_mul(radix as u64)
                        .and_then(|v| v.checked_add(d as u64))
                        .ok_or_else(|| NetlistError::lex(loc, "integer literal overflows 64 bits"))?;
                    self.bump();
                }
                None => break,
            }
        }
        if !any {
            return Err(NetlistError::lex(loc, "expected digits in literal"));
        }
        Ok(value)
    }

    fn lex_number(&mut self, loc: Loc) -> Result<TokenKind, NetlistError> {
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
        // Based literal.
        self.bump(); // consume '
        let base = self.bump().ok_or_else(|| NetlistError::lex(loc, "truncated based literal"))?;
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

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src).lex_all().unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_identifiers_and_punct() {
        let k = kinds("module m (input a);");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("module".into()),
                TokenKind::Ident("m".into()),
                TokenKind::Punct("("),
                TokenKind::Ident("input".into()),
                TokenKind::Ident("a".into()),
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
        assert_eq!(toks[0].kind, TokenKind::Ident("x".into()));
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
}
