//! A minimal JSON tree, parser and writers — the workspace's one JSON
//! model.
//!
//! The workspace is deliberately dependency-free, so scenario specs and
//! reports, bench documents, and trace and span exports all use this
//! hand-rolled codec instead of `serde`. The dialect is exactly what
//! those formats need:
//!
//! - integers parse to [`Json::Num`] (non-negative — every numeric
//!   field in a scenario spec is a count, seed, percentage or bound) or
//!   [`Json::Int`] (negative — exported traces carry signed words);
//!   [`Json::Float`] is reserved for numbers written with a fraction or
//!   exponent, so integral values survive a round trip as integers,
//! - strings support the standard `\" \\ \/ \n \t \r \b \f \uXXXX`
//!   escapes (no surrogate pairs — the schemas are ASCII in practice),
//! - objects preserve key order, which keeps spec round-trips and report
//!   diffs stable.
//!
//! Two writers share one emitter: [`Json::pretty`] (documents) and
//! [`Json::compact`] (one line, for JSONL streams and trace files).

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (what the parser produces for unsigned
    /// integer literals).
    Num(u64),
    /// A negative integer: produced by the parser for `-`-signed
    /// integral literals (exported traces carry signed words; nothing
    /// in the *spec* schemas is negative — integer spec fields read
    /// [`Json::as_u64`], which rejects it). Always strictly negative;
    /// `-0` normalizes to `Num(0)`.
    Int(i64),
    /// A float: emitted for report metrics and produced by the parser
    /// only for numbers with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list.
    Obj(Vec<(String, Json)>),
}

/// A parse error with the byte offset where it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Looks up a key in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => i64::try_from(*n).ok(),
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float; integers widen (exact for the magnitudes
    /// the schemas carry).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(x) => Some(*x),
            Json::Num(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object slice, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes the value on one line with no whitespace and no trailing
    /// newline (one JSONL record).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.emit(&mut out, None);
        out
    }

    /// `depth` is the indentation level when pretty-printing, `None`
    /// for compact output.
    fn emit(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    let text = format!("{x}");
                    out.push_str(&text);
                    // `{x}` on an integral float prints no dot; add one so
                    // the field stays recognizable as a float.
                    if !text.contains('.') && !text.contains('e') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => emit_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth.map(|d| d + 1));
                    item.emit(out, depth.map(|d| d + 1));
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth.map(|d| d + 1));
                    emit_string(out, k);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.emit(out, depth.map(|d| d + 1));
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// A newline plus indentation when pretty-printing; nothing in compact
/// mode.
fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as u64)
    }
}

impl From<i64> for Json {
    /// Non-negative values become [`Json::Num`], so a value reads back
    /// as the variant the parser would produce for it.
    fn from(n: i64) -> Self {
        u64::try_from(n).map_or(Json::Int(n), Json::Num)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

fn emit_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'0'..=b'9') => self.number(false),
            Some(b'-') => {
                self.pos += 1;
                if !matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("digit expected after `-`"));
                }
                self.number(true)
            }
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self, negative: bool) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if matches!(self.peek(), Some(b'.')) {
            float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit expected in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if float {
            let x = text
                .parse::<f64>()
                .map_err(|_| self.err("malformed number"))?;
            return Ok(Json::Float(if negative { -x } else { x }));
        }
        if negative {
            // Integral negatives stay integers (exported traces carry
            // signed words, and they must re-import as written, not as
            // floats). `-0` normalizes to the unsigned zero.
            return match text.parse::<i64>() {
                Ok(0) => Ok(Json::Num(0)),
                Ok(n) => Ok(Json::Int(-n)),
                // `-9223372036854775808` has no positive i64 partner.
                Err(_) if text == "9223372036854775808" => Ok(Json::Int(i64::MIN)),
                Err(_) => Err(self.err("integer does not fit in i64")),
            };
        }
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|_| self.err("integer does not fit in u64"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "`\"`")?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad hex in \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            s.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "`[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "`{`")?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.eat(b':', "`:`")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_basic_shapes() {
        let doc = r#"{"a": 1, "b": [true, false, null], "c": {"nested": "s"}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("c")
                .and_then(|c| c.get("nested"))
                .and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn round_trips_through_pretty() {
        let doc = r#"{"name": "w5", "n": 4, "ops": [{"pid": 0, "v": 18446744073709551615}]}"#;
        let v = Json::parse(doc).unwrap();
        let again = Json::parse(&v.pretty()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("quote \" slash \\ newline \n tab \t nul \u{1}".to_string());
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn rejects_schema_foreign_numbers() {
        // Integral negatives parse as signed integers (exported traces
        // carry signed words); integer spec fields reject them via
        // `as_u64`.
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(Json::parse("-1.5e1").unwrap(), Json::Float(-15.0));
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("-x").is_err());
        assert!(Json::parse("99999999999999999999").is_err());
        assert!(Json::parse("-99999999999999999999").is_err());
        assert!(Json::parse("1.").is_err());
        assert!(Json::parse("1e").is_err());
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // Floats never satisfy integer accessors, so spec fields still
        // reject them.
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_i64(), None);
    }

    #[test]
    fn negative_integers_round_trip_as_integers() {
        // The i64 edges and `-0` normalization.
        assert_eq!(Json::parse("-0").unwrap(), Json::Num(0));
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        assert_eq!(
            Json::parse("-9223372036854775807").unwrap(),
            Json::Int(i64::MIN + 1)
        );
        // Emission is the exact literal, so a second parse agrees.
        for n in [-1i64, -63, -1_000_000, i64::MIN] {
            let v = Json::Int(n);
            assert_eq!(v.pretty().trim(), n.to_string());
            assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        }
    }

    #[test]
    fn rejects_duplicate_keys_and_garbage() {
        assert!(Json::parse(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let v = Json::obj([
            ("s", Json::from("a \"b\"\n")),
            ("n", Json::from(-3i64)),
            ("xs", Json::from(vec![1u64, 2])),
            ("e", Json::Arr(vec![])),
            (
                "o",
                Json::obj([("f", Json::from(0.5)), ("b", Json::from(true))]),
            ),
        ]);
        let line = v.compact();
        assert_eq!(
            line,
            r#"{"s":"a \"b\"\n","n":-3,"xs":[1,2],"e":[],"o":{"f":0.5,"b":true}}"#
        );
        assert_eq!(Json::parse(&line).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn conversions_match_what_the_parser_produces() {
        assert_eq!(Json::from(7i64), Json::Num(7));
        assert_eq!(Json::from(-7i64), Json::Int(-7));
        assert_eq!(Json::from(3usize), Json::Num(3));
        for v in [Json::from(5i64), Json::from(-5i64), Json::from(2.5)] {
            assert_eq!(Json::parse(&v.compact()).unwrap(), v);
        }
    }

    #[test]
    fn floats_emit_with_a_dot() {
        assert_eq!(Json::Float(2.0).pretty().trim(), "2.0");
        assert_eq!(Json::Float(2.5).pretty().trim(), "2.5");
    }
}
