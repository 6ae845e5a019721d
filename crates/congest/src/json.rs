//! The workspace's one JSON reader and string escaper.
//!
//! Trace NDJSON ([`crate::parse_trace_line`]), `qcc serve` requests and
//! the `bench_e1 --check` reference are all read by [`parse`], each
//! caller layering its own schema on the [`Value`] tree; the trace
//! emitter, serve's responses and the bench reports (written from
//! [`Value`]s) escape strings with [`escape_into`]. The reader is strict:
//! it accepts exactly the JSON
//! grammar (RFC 8259) and answers anything else with a message, never a
//! panic. A number is kept as its validated literal text
//! ([`Value::Num`]), so every caller converts it at the precision it
//! needs — `u64` trace fields, `i64` serve fields ([`int`]), `f64` bench
//! references.
//!
//! # Examples
//!
//! ```
//! use qcc_congest::json::{self, Value};
//!
//! let v = json::parse(r#"{"rounds": 18446744073709551615}"#).unwrap();
//! let Some(Value::Num(rounds)) = v.get("rounds") else { panic!() };
//! assert_eq!(json::int::<u64>(rounds), Ok(u64::MAX));
//! ```

use std::fmt::Write as _;
use std::str::FromStr;

/// Arrays and objects nested deeper than this are refused, so hostile
/// input cannot exhaust the reader's stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their fields in input order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal text; [`parse`] checked it against the
    /// JSON number grammar.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's fields, in input order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value of field `key` (the first one, if the key repeats);
    /// `None` when the field is missing or `self` is not an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Num(x.to_string())
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Num(x.to_string())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Converts a number literal to an integer type.
///
/// # Errors
///
/// A literal with a fraction or an exponent ("only integers are
/// accepted"), or one outside `T`'s range (a negative for an unsigned
/// `T`, or `u64::MAX + 1`).
pub fn int<T: FromStr>(literal: &str) -> Result<T, String> {
    if literal.contains(['.', 'e', 'E']) {
        return Err(format!("only integers are accepted, got {literal}"));
    }
    literal
        .parse()
        .map_err(|_| format!("number out of range: {literal}"))
}

/// Parses one complete JSON text; whitespace around and between tokens
/// is allowed.
///
/// # Errors
///
/// A message naming the first malformation and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    if parser.peek().is_some() {
        return Err(format!(
            "trailing characters after the JSON value at byte {}",
            parser.pos
        ));
    }
    Ok(value)
}

/// Appends `raw` to `out` escaped as the inside of a JSON string (the
/// quotes are the caller's).
pub fn escape_into(out: &mut String, raw: &str) {
    for ch in raw.chars() {
        match ch {
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
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\r' | b'\n') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", want as char, self.pos))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            None => Err("unexpected end of line".into()),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |r| r.value().map(|v| items.push(v)))?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.items(b'}', |r| {
                    let key = r.string()?;
                    r.expect(b':')?;
                    r.value().map(|v| fields.push((key, v)))
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    /// Reads the comma-separated items of the array or object whose
    /// opening bracket is next, through its `close` bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        self.pos += 1;
        if self.peek() != Some(close) {
            loop {
                item(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => {
                        return Err(format!(
                            "expected ',' or '{}' at byte {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal (expected {word})"))
        }
    }

    /// Consumes a run of ASCII digits; returns whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_ok = self.eat(b'0') || self.digits();
        let frac_ok = !self.eat(b'.') || self.digits();
        let exp_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()
        };
        if int_ok && frac_ok && exp_ok {
            Ok(Value::Num(self.text[start..self.pos].to_string()))
        } else {
            Err(format!("malformed number at byte {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole: none of them occurs inside a multi-byte UTF-8
            // sequence, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            match self.bytes[self.pos - 1] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => {
                    return Err(format!(
                        "control character in string at byte {}",
                        self.pos - 1
                    ))
                }
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        self.pos += 1;
        Ok(match self.bytes.get(self.pos - 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                // A high surrogate combines with an escaped low one; alone,
                // either half is no char and is refused below.
                if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                char::from_u32(code).ok_or("unpaired surrogate in \\u escape")?
            }
            _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or("bad \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(s: &str) -> Value {
        Value::Num(s.into())
    }

    #[test]
    fn reads_every_kind_of_value() {
        let v = parse(
            " {\"a\" : [1, -2.5e3, true, false, null], \"b\":{\"c\":\"d\\u00e9\\ud83d\\ude00\"}} ",
        )
        .unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Arr(vec![
                num("1"),
                num("-2.5e3"),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Value::Str("d\u{e9}\u{1f600}".into()))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn refuses_what_json_refuses() {
        for bad in [
            "",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "[1,]",
            "{\"a\":1,}",
            "{a:1}",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\x\"",
            "\"tab\there\"",
            "\"open",
            "nul",
            "[1 2]",
            "{} {}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_is_refused_not_overflowed() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn int_converts_per_caller_precision() {
        assert_eq!(int::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert!(int::<u64>("18446744073709551616").is_err());
        assert!(int::<u64>("-1").is_err());
        assert_eq!(int::<i64>("-1"), Ok(-1));
        assert!(int::<i64>("1e3").unwrap_err().contains("integers"));
    }
}
