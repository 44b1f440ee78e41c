//! A small JSON value type with a parser and printer.
//!
//! This replaces `serde`/`serde_json` for the workspace's model
//! serialization. The printer emits the same shapes serde's derive would
//! (objects with field order preserved, tuples as arrays), so files
//! written before the migration still load. Numbers round-trip exactly:
//! integers are kept as `i64`/`u64`, floats print with Rust's
//! shortest-round-trip formatting.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64` (all negative integers land here).
    Int(i64),
    /// A non-negative integer exceeding `i64::MAX`.
    UInt(u64),
    /// Any number written with a fraction or exponent.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when printing.
    Obj(Vec<(String, Json)>),
}

/// A parse or extraction error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    // ---- constructors ----

    /// An object builder preserving field order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of f32s (stored exactly, as f64 is a superset of f32).
    pub fn from_f32_slice(values: &[f32]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
    }

    // ---- accessors ----

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, found {}", other.kind())),
        }
    }

    /// The numeric value as f64 (any numeric variant).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::UInt(u) => Ok(*u as f64),
            Json::Num(n) => Ok(*n),
            other => err(format!("expected number, found {}", other.kind())),
        }
    }

    /// The numeric value as f32.
    pub fn as_f32(&self) -> Result<f32, JsonError> {
        Ok(self.as_f64()? as f32)
    }

    /// The numeric value as u64; floats must be exact integers.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Int(i) if *i >= 0 => Ok(*i as u64),
            Json::UInt(u) => Ok(*u),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Ok(*n as u64)
            }
            other => err(format!("expected unsigned integer, found {}", other.print())),
        }
    }

    /// The numeric value as usize.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_u64()?).map_err(|_| JsonError("integer overflows usize".into()))
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, found {}", other.kind())),
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(v) => Ok(v),
            other => err(format!("expected array, found {}", other.kind())),
        }
    }

    /// A fixed-length `[f32; N]` from an array of numbers.
    pub fn as_f32_array<const N: usize>(&self) -> Result<[f32; N], JsonError> {
        let arr = self.as_arr()?;
        if arr.len() != N {
            return err(format!("expected array of {N} numbers, found {}", arr.len()));
        }
        let mut out = [0.0f32; N];
        for (o, v) in out.iter_mut().zip(arr) {
            *o = v.as_f32()?;
        }
        Ok(out)
    }

    /// A `Vec<f32>` from an array of numbers.
    pub fn as_f32_vec(&self) -> Result<Vec<f32>, JsonError> {
        self.as_arr()?.iter().map(|v| v.as_f32()).collect()
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError(format!("missing field `{key}`"))),
            other => err(format!("expected object, found {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) | Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    // ---- printing ----

    /// Serializes to compact JSON text.
    pub fn print(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes to indented JSON text (2-space indent, trailing
    /// newline) — for snapshot files and anything a human diffs. Parses
    /// back to the same value as [`print`](Self::print), bit for bit.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    write_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            leaf => leaf.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(n) => write_f64(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_f64(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; serde_json errors here, we print null like
        // browsers do. Model files never contain non-finite values.
        out.push_str("null");
        return;
    }
    // `{}` on f64 is the shortest string that parses back to the same
    // value; add a decimal point so the token re-parses as a float.
    let s = format!("{n}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parsing ----

/// Maximum container nesting depth the parser accepts.
///
/// The parser is recursive, so without a bound an adversarial document
/// like `"[".repeat(1 << 20)` would overflow the stack instead of
/// returning an error. 128 is far deeper than any model file and keeps
/// the recursion worst case at a few kilobytes of stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// Total on arbitrary input: any string either parses or returns an
/// error — malformed syntax, truncation, nesting deeper than
/// [`MAX_DEPTH`], and numbers outside the finite `f64` range are all
/// reported as [`JsonError`]s, never panics.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    /// A string literal. Each run of bytes up to the next quote, backslash
    /// or control byte is copied in one piece; all three are ASCII, so
    /// every run ends on a char boundary. Raw control characters
    /// (U+0000–U+001F) must be escaped (RFC 8259 §7) and are rejected.
    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let run = rest.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
            let end = self.pos + run.unwrap_or(rest.len());
            out.push_str(self.text.get(self.pos..end).unwrap_or_default());
            self.pos = end;
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Handle UTF-16 surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 1; // past the backslash; hex4 skips the `u`
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let combined =
                                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        // High surrogate not followed by a
                                        // low surrogate — unpaired, invalid.
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return err("invalid \\u escape"),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                // The run stopped at a control byte.
                Some(_) => {
                    return err(format!("raw control character in string at byte {}", self.pos));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        self.pos += 1; // past the `u`
        if self.pos + 4 > self.bytes.len() {
            return err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError("invalid \\u escape".into()))?;
        let cp =
            u32::from_str_radix(hex, 16).map_err(|_| JsonError("invalid \\u escape".into()))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError(format!("invalid number at byte {start}")))?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        match text.parse::<f64>() {
            // JSON has no Inf/NaN, and a non-finite value would not
            // survive a round-trip (the printer writes `null`), so
            // overflowing literals like `1e999` are rejected rather than
            // saturated.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => err(format!("number out of f64 range at byte {start}")),
            Err(_) => err(format!("invalid number at byte {start}")),
        }
    }
}

/// Sorts object keys recursively — handy for order-insensitive equality
/// in tests.
pub fn normalized(v: &Json) -> Json {
    match v {
        Json::Obj(fields) => {
            let map: BTreeMap<String, Json> =
                fields.iter().map(|(k, v)| (k.clone(), normalized(v))).collect();
            Json::Obj(map.into_iter().collect())
        }
        Json::Arr(items) => Json::Arr(items.iter().map(normalized).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "1e-9", "\"hi\""] {
            let v = parse(text).unwrap();
            let back = parse(&v.print()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn integers_parse_exactly() {
        assert_eq!(parse("9007199254740993").unwrap().as_u64().unwrap(), 9007199254740993);
        assert_eq!(parse("18446744073709551615").unwrap().as_u64().unwrap(), u64::MAX);
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
    }

    #[test]
    fn f32_values_survive_the_f64_detour() {
        for &v in &[1e-4f32, 0.1, std::f32::consts::PI, -7.25e-12, 3.4e38, f32::MIN_POSITIVE] {
            let j = Json::Num(v as f64);
            let back = parse(&j.print()).unwrap().as_f32().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"tensors":[["linear3x2.w",3,2,[0.5,-1.0,2.25,0.0,1e-7,9.0]]],"ok":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.print()).unwrap(), v);
        let tensors = v.get("tensors").unwrap().as_arr().unwrap();
        let first = tensors[0].as_arr().unwrap();
        assert_eq!(first[0].as_str().unwrap(), "linear3x2.w");
        assert_eq!(first[1].as_usize().unwrap(), 3);
        assert_eq!(first[3].as_f32_vec().unwrap().len(), 6);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1F600}𝄞";
        let v = Json::Str(s.to_string());
        assert_eq!(parse(&v.print()).unwrap().as_str().unwrap(), s);
        // Surrogate-pair escapes parse too.
        assert_eq!(parse(r#""😀""#).unwrap().as_str().unwrap(), "😀");
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for c in (0u8..0x20).map(char::from) {
            let text = format!("{{\"verilog\":\"a{c}b\"}}");
            let e = parse(&text).unwrap_err();
            assert!(e.0.contains("raw control character in string at byte 13"), "{c:?}: {e}");
            // Escaped, the same character is legal and round-trips.
            let v = Json::Str(format!("a{c}b"));
            assert_eq!(parse(&v.print()).unwrap(), v, "{c:?}");
        }
        // DEL and non-ASCII text are not control characters.
        assert_eq!(
            parse("\"\u{7f}\u{e9}\u{1F600}\"").unwrap().as_str().unwrap(),
            "\u{7f}\u{e9}\u{1F600}"
        );
    }

    #[test]
    fn long_strings_copy_runs_between_escapes() {
        let s = format!("{}\"\\{}\n\u{e9}\u{1F600}", "x".repeat(1000), "y".repeat(500));
        let v = Json::Str(s.clone());
        assert_eq!(parse(&v.print()).unwrap().as_str().unwrap(), s);
        assert_eq!(parse(r#""a\u0041\/b""#).unwrap().as_str().unwrap(), "aA/b");
    }

    #[test]
    fn garbage_is_rejected() {
        for text in ["{not json", "[1,", "\"open", "{\"a\":}", "12x", "", "[1] trailing"] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn missing_fields_are_named() {
        let v = parse(r#"{"a":1}"#).unwrap();
        let e = v.get("b").unwrap_err();
        assert!(e.0.contains("`b`"), "{e}");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" {\n\t\"a\" : [ 1 , 2 ] ,\r\n \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn normalized_sorts_keys() {
        let a = parse(r#"{"b":1,"a":{"d":2,"c":3}}"#).unwrap();
        let b = parse(r#"{"a":{"c":3,"d":2},"b":1}"#).unwrap();
        assert_eq!(normalized(&a), normalized(&b));
    }
}
