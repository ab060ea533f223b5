//! Offline stand-in for `serde_json`: writer (compact + pretty) and a
//! recursive-descent parser over the shim `serde::Value` tree. Supports the
//! JSON subset the workspace produces: objects, arrays, strings with
//! standard escapes, numbers, booleans, null.

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.message)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{}` prints shortest-roundtrip; integral floats get no ".0", which
        // parses back identically.
        out.push_str(&format!("{v}"));
    } else {
        // Upstream serde_json refuses non-finite floats; emitting null keeps
        // the document well-formed (readers treat it as missing data).
        out.push_str("null");
    }
}

fn write_value(v: &Value, indent: Option<usize>, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => write_f64(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => write_seq(items.iter(), ('[', ']'), indent, out, |item, ind, o| {
            write_value(item, ind, o)
        }),
        Value::Object(fields) => write_seq(
            fields.iter(),
            ('{', '}'),
            indent,
            out,
            |(k, val), ind, o| {
                write_escaped(k, o);
                o.push(':');
                if ind.is_some() {
                    o.push(' ');
                }
                write_value(val, ind, o);
            },
        ),
    }
}

fn write_seq<T>(
    items: impl ExactSizeIterator<Item = T>,
    brackets: (char, char),
    indent: Option<usize>,
    out: &mut String,
    mut write_item: impl FnMut(T, Option<usize>, &mut String),
) {
    out.push(brackets.0);
    let len = items.len();
    if len == 0 {
        out.push(brackets.1);
        return;
    }
    let inner = indent.map(|i| i + 1);
    for (i, item) in items.enumerate() {
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        write_item(item, inner, out);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(brackets.1);
}

/// Compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, &mut out);
    Ok(out)
}

/// Pretty JSON with two-space indentation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(0), &mut out);
    Ok(out)
}

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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > 128 {
            return Err(Error::new("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("non-utf8 number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a UTF-8 boundary and
                    // validating it costs its own length: linear overall.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let text = std::str::from_utf8(&self.bytes[self.pos..run])
                        .map_err(|_| Error::new("non-utf8 string"))?;
                    out.push_str(text);
                    self.pos = run;
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected ',' or ']' at {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error::new(format!("expected ',' or '}}' at {}", self.pos))),
            }
        }
    }
}

/// Parses a JSON document into a [`Value`].
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

/// Parses JSON and deserializes into `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let v = parse_value(text)?;
    Ok(T::from_value(&v)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_value_tree() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(7)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("s".into(), Value::Str("x \"quoted\"\n".into())),
            ("f".into(), Value::F64(-1.25)),
            ("neg".into(), Value::I64(-3)),
        ]);
        let compact = {
            let mut s = String::new();
            write_value(&v, None, &mut s);
            s
        };
        assert_eq!(parse_value(&compact).unwrap(), v);
        let pretty = {
            let mut s = String::new();
            write_value(&v, Some(0), &mut s);
            s
        };
        assert!(pretty.contains("\"a\": 7"));
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn large_u64_survives() {
        let v = Value::U64(u64::MAX);
        let mut s = String::new();
        write_value(&v, None, &mut s);
        assert_eq!(parse_value(&s).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("tru").is_err());
        assert!(parse_value("1 2").is_err());
        assert!(parse_value("\"unterminated").is_err());
    }

    /// Strings from the code points `cps` (surrogates skipped).
    fn string_of(cps: &[u32]) -> String {
        cps.iter().filter_map(|&c| char::from_u32(c)).collect()
    }

    #[test]
    fn arbitrary_unicode_strings_round_trip() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in 0..200usize {
            let cps: Vec<u32> = (0..len)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Mix ASCII (quotes, backslashes, controls) with every
                    // UTF-8 width.
                    match i % 4 {
                        0 => (x % 0x80) as u32,
                        1 => (x % 0x800) as u32,
                        2 => (x % 0x1_0000) as u32,
                        _ => (x % 0x11_0000) as u32,
                    }
                })
                .collect();
            let s = string_of(&cps);
            let v = Value::Array(vec![Value::Str(s.clone())]);
            let text = to_string(&v).unwrap();
            assert_eq!(parse_value(&text).unwrap(), v, "{s:?}");
        }
        // A multi-byte character right before the closing quote.
        for s in ["é", "a€", "𝄞", "\"\\€"] {
            let v = Value::Str(s.to_string());
            assert_eq!(parse_value(&to_string(&v).unwrap()).unwrap(), v);
        }
    }

    #[test]
    fn a_document_cut_at_any_byte_is_an_error_not_a_panic() {
        let doc = r#"{"a": [1, -2.5e3, true, null], "s": "x\"é€𝄞\u00e9", "o": {"k": []}}"#;
        assert!(parse_value(doc).is_ok());
        for cut in 0..doc.len() {
            let Some(prefix) = doc.get(..cut) else {
                continue; // not a char boundary: not a &str
            };
            assert!(
                parse_value(prefix).is_err(),
                "prefix {cut} parsed: {prefix:?}"
            );
        }
    }

    #[test]
    fn nesting_past_the_limit_is_rejected() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value(&nested(128)).is_ok());
        assert!(parse_value(&nested(130)).is_err());
        assert!(parse_value(&nested(100_000)).is_err());
        let objects = format!("{}1{}", "{\"k\":".repeat(200), "}".repeat(200));
        assert!(parse_value(&objects).is_err());
    }

    #[test]
    fn typed_from_str() {
        let xs: Vec<u64> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(xs, vec![1, 2, 3]);
        let flag: bool = from_str("true").unwrap();
        assert!(flag);
    }
}
