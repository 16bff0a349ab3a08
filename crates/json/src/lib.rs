//! `rcr-json` — the workspace's one JSON codec, hand-rolled like every
//! other format here (no serde; the build is hermetic). The wire
//! protocol, scenario manifests, the linter's artifacts and the bench
//! gate all read and write JSON through it.
//!
//! Covers exactly what those formats need: objects, arrays, strings with
//! standard escapes (`\" \\ \/ \b \f \n \r \t \uXXXX`), numbers,
//! booleans, and `null`. The contract:
//!
//! * object keys keep insertion order; duplicate keys resolve to the
//!   first occurrence;
//! * a plain non-negative integer literal (digits only) that fits `u64`
//!   parses exactly, as [`JsonValue::UInt`]; every other number parses as
//!   an `f64`;
//! * `f64`s are written with Rust's shortest-round-trip formatting, so
//!   `encode → parse` returns the identical bits for every finite value;
//! * nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The deepest document
/// the workspace writes, the linter's cache, nests ten levels; the cap
/// keeps hostile input (a line of `[`s) from overflowing a thread's
/// stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is not a plain non-negative `u64` literal.
    Number(f64),
    /// A plain non-negative integer literal, kept exactly.
    UInt(u64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in insertion order.
    Object(JsonObject),
}

/// An object: key/value pairs in insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// The first value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `get` narrowed to [`JsonValue::as_u64`].
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// The entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl<K: Into<String>> FromIterator<(K, JsonValue)> for JsonObject {
    fn from_iter<I: IntoIterator<Item = (K, JsonValue)>>(iter: I) -> Self {
        JsonObject {
            entries: iter.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }
}

impl JsonValue {
    /// The value under `key` if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.get(key)
    }

    /// The value as an object, if it is one.
    pub fn as_object(&self) -> Option<&JsonObject> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number (a [`JsonValue::UInt`]
    /// above 2^53 rounds to nearest, as parsing its digits would).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            JsonValue::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one exactly: any
    /// [`JsonValue::UInt`], or a non-negative integral [`JsonValue::Number`]
    /// no larger than 2^53 (above that an `f64` no longer pins the
    /// integer it was written as).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes compactly (no insignificant whitespace), keys in
    /// insertion order. A [`JsonValue::Number`] always carries a `.`, so
    /// `parse(render(v)) == v` for every value whose numbers are finite.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                let text = encode_f64(*n);
                out.push_str(&text);
                if n.is_finite() && !text.contains('.') {
                    out.push_str(".0");
                }
            }
            JsonValue::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::String(s) => write_str(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(obj) => {
                out.push('{');
                for (i, (k, v)) in obj.entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Encodes a string as a JSON string literal (with quotes).
pub fn encode_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

fn write_str(out: &mut String, s: &str) {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Encodes a finite `f64` so that parsing returns the identical bits
/// (Rust's shortest-round-trip `Display`). Non-finite values, which JSON
/// cannot carry, encode as `null`.
pub fn encode_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
/// A message with the byte offset of the problem.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(JsonObject { entries }));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(JsonObject { entries }));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for these
                            // formats; lone surrogates map to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                _ => {
                    // Copy the run of plain characters up to the next
                    // quote or escape. Both are ASCII, so the run ends on
                    // a character boundary.
                    let start = self.pos - 1;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = self
                        .src
                        .get(start..self.pos)
                        .ok_or("invalid UTF-8 in string")?;
                    out.push_str(run);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned range is ASCII, so it starts and ends on character
        // boundaries; `get` keeps even that assumption panic-free.
        let text = self
            .src
            .get(start..self.pos)
            .ok_or_else(|| format!("bad number at byte {start}"))?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x","d":null},"e":true}"#).unwrap();
        let obj = v.as_object().unwrap();
        let a = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        let b = obj.get("b").unwrap().as_object().unwrap();
        assert_eq!(b.get("c").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(b.get("d"), Some(&JsonValue::Null));
        assert_eq!(obj.get("e").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(obj.get("missing"), None);
        assert_eq!(v.get("b").and_then(|b| b.get("c")), b.get("c"));
    }

    #[test]
    fn objects_keep_insertion_order_and_first_duplicate_wins() {
        let v = parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get_u64("z"), Some(1));
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["z", "a", "z"]);
        assert_eq!(v.render(), r#"{"z":1,"a":2,"z":3}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\r\u{08}\u{0C}/λ — ünïcode";
        let encoded = encode_str(original);
        let parsed = parse(&encoded).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        // Control characters encode as \u escapes.
        assert_eq!(
            parse(&encode_str("\u{01}")).unwrap().as_str(),
            Some("\u{01}")
        );
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for &f in &[
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2,
            1.23456789e300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            12_345_678.901_234_5,
        ] {
            let parsed = parse(&encode_f64(f)).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), f.to_bits(), "{f}");
            let rendered = JsonValue::Number(f).render();
            assert_eq!(parse(&rendered).unwrap(), JsonValue::Number(f), "{f}");
        }
        assert_eq!(encode_f64(f64::NAN), "null");
        assert_eq!(encode_f64(f64::INFINITY), "null");
        assert_eq!(JsonValue::Number(3.0).render(), "3.0");
        assert_eq!(JsonValue::Number(-0.0).render(), "-0.0");
    }

    #[test]
    fn integer_literals_are_exact_up_to_u64_max() {
        let v = parse(r#"[0,9007199254740993,18446744073709551615,18446744073709551616]"#).unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0], JsonValue::UInt(0));
        assert_eq!(a[1].as_u64(), Some((1 << 53) + 1));
        assert_eq!(a[2].as_u64(), Some(u64::MAX));
        // One past u64::MAX is still a number, but no longer an exact u64.
        assert_eq!(a[3], JsonValue::Number(18_446_744_073_709_551_616.0));
        assert_eq!(a[3].as_u64(), None);
        assert_eq!(a[2].as_f64(), Some(u64::MAX as f64));
        assert_eq!(JsonValue::UInt(u64::MAX).render(), "18446744073709551615");
    }

    #[test]
    fn get_u64_guards_against_non_integers() {
        let v = parse(r#"{"a":5,"b":5.5,"c":-1,"d":"5","e":1e17,"f":5.0}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get_u64("a"), Some(5));
        assert_eq!(obj.get_u64("b"), None);
        assert_eq!(obj.get_u64("c"), None);
        assert_eq!(obj.get_u64("d"), None);
        assert_eq!(obj.get_u64("e"), None, "beyond exact-integer range");
        assert_eq!(obj.get_u64("f"), Some(5));
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // Far past any stack: an error, not an overflow.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
            "{\"a\":1}extra",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" {\t\"a\" :\n[ 1 , 2 ] }\r\n").unwrap();
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
    }
}
