//! Minimal std-only JSON for the CLI's `--json` mode and the serve wire
//! protocol: a value tree, a strict recursive-descent parser for request
//! bodies, and a compact writer that preserves object key order.
//!
//! Deliberately small rather than general: numbers are `f64` (rendered as
//! integers when exact), no serde, no streaming. The one extension is
//! [`Json::Raw`], which splices an already-rendered JSON document into the
//! output — the job store keeps finished reports as rendered strings, and
//! status responses embed them without a parse/re-render round trip.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved on render.
    Obj(Vec<(String, Json)>),
    /// An already-rendered JSON document, spliced verbatim into the
    /// output. Never produced by the parser.
    Raw(String),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an integer value.
    pub fn num(n: usize) -> Json {
        Json::uint(n as u64)
    }

    /// An integer value rendered exactly at any size: a [`Json::Num`] up
    /// to 2^53, where `f64` holds every integer, and its decimal text
    /// spliced as [`Json::Raw`] beyond.
    pub fn uint(n: u64) -> Json {
        if n <= 1 << 53 {
            Json::Num(n as f64)
        } else {
            Json::Raw(n.to_string())
        }
    }

    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array value.
    pub fn get_index(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the byte offset of the
    /// first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn render_num(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null"); // JSON has no NaN/Inf
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting bound: a request body this deep is hostile, not a job spec.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b) if *b == b'-' || b.is_ascii_digit() => self.number(),
            Some(&b) => Err(self.err(&format!("unexpected byte `{}`", b as char))),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // surrogate pairs are not reassembled; a lone
                            // surrogate becomes the replacement character
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // consume one UTF-8 scalar (input is &str, so valid)
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let c = rest.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":null},"e":true,"f":false}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.render(), doc);
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(10_000_000).render(), "10000000");
        assert_eq!(Json::Num(0.125).render(), "0.125");
    }

    #[test]
    fn integers_past_f64_precision_render_exactly() {
        assert_eq!(Json::uint(u64::MAX).render(), "18446744073709551615");
        assert_eq!(Json::uint((1 << 53) + 1).render(), "9007199254740993");
        assert_eq!(Json::uint(1 << 53), Json::Num(9_007_199_254_740_992.0));
        assert_eq!(Json::num(7), Json::Num(7.0));
        // the spliced text is still a JSON number
        let back = Json::parse(&Json::uint(u64::MAX).render()).unwrap();
        assert!(matches!(back, Json::Num(_)), "{back:?}");
    }

    #[test]
    fn escapes_are_emitted_and_parsed() {
        let s = Json::str("a\"b\\c\n\t\u{1}");
        let rendered = s.render();
        assert_eq!(rendered, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
        assert_eq!(Json::parse(&rendered).unwrap(), s);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""éA""#).unwrap().as_str(), Some("éA"));
    }

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::str("7").as_u64(), None);
    }

    #[test]
    fn raw_is_spliced_verbatim() {
        let v = Json::Obj(vec![
            ("report".into(), Json::Raw("{\"x\":1}".into())),
            ("ok".into(), Json::Bool(true)),
        ]);
        assert_eq!(v.render(), r#"{"report":{"x":1},"ok":true}"#);
    }

    #[test]
    fn garbage_is_rejected_with_positions() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"\u{1}\"", "1 2", "{]}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
        assert!(Json::parse("{\"a\":1}x").unwrap_err().contains("byte 7"));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
    }
}
