//! A minimal JSON value, parser, and writer.
//!
//! The protocol layer needs exactly one wire format and the workspace has
//! no serialization dependency, so this module hand-rolls the subset of
//! JSON the `mubed` protocol uses: objects, arrays, strings with the
//! standard escapes, finite numbers, booleans, and null. Object members
//! live in a [`BTreeMap`], so rendering is deterministic — two equal
//! values always serialize to byte-identical text, which is what lets the
//! smoke harness compare protocol transcripts across runs.
//!
//! The parser is a plain recursive-descent scanner over the input bytes
//! with an explicit nesting-depth cap (malformed input must produce an
//! [`JsonError`], never a stack overflow). It accepts one complete value
//! and rejects trailing garbage, which is exactly the contract of a
//! newline-delimited JSON transport: one line, one value.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser will follow before giving up. Protocol
/// messages are at most a handful of levels deep; anything past this is
/// hostile or corrupt input.
const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Non-finite values cannot appear (the parser never
    /// produces them and the writer renders them as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is the key's lexicographic order.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure: byte offset plus a human-readable reason.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input line.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    ///
    /// # Errors
    /// Any lexical or structural defect in the input, with the byte offset
    /// where scanning stopped.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters after the value"));
        }
        Ok(value)
    }

    /// Renders this value as compact JSON (no whitespace). Deterministic:
    /// object members come out in key order. Non-finite numbers render as
    /// `null` — the protocol never produces them, but the writer must not
    /// emit invalid JSON under any input.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Renders this value as [`Json::render`] does, but with one array
    /// element or object member per line, indented two spaces per level,
    /// and a space after each `:`. Parses back to the same value.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out
    }

    /// Writes this value at nesting `indent` (`None`: compact).
    fn render_into(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    out.push_str(&format_number(*n));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                render_members(out, indent, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Obj(members) => render_members(
                out,
                indent,
                ('{', '}'),
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }

    /// Member lookup on an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (no fractional part, no overflow).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // `fract() > 0` is the equality-free integrality test: for the
        // non-negative finite range admitted above, a fractional part is
        // either exactly zero or strictly positive. `u64::MAX as f64` rounds
        // up to 2^64, which is itself out of range, hence `>=`.
        if n < 0.0 || n >= u64::MAX as f64 || n.fract() > 0.0 {
            return None;
        }
        Some(n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Builds an object from `(key, value)` pairs — the writer-side
/// convenience mirroring [`Json::get`] on the reader side.
pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(members: I) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Scalars convert to their JSON form (integer counters exactly up to
/// 2^53), so writers can build objects as `obj([("n", n.into())])`.
macro_rules! from_scalar {
    ($($t:ty => |$v:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $value
            }
        }
    )*};
}
from_scalar!(
    f64 => |n| Json::Num(n),
    u32 => |n| Json::Num(f64::from(n)),
    u64 => |n| Json::Num(n as f64),
    u128 => |n| Json::Num(n as f64),
    usize => |n| Json::Num(n as f64),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.to_owned()),
    String => |s| Json::Str(s),
);

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Renders a finite `f64` the shortest way that round-trips, preferring
/// integer form for whole numbers (`3` rather than `3.0`).
fn format_number(n: f64) -> String {
    // Rust's Display for f64 is shortest-round-trip and never produces
    // exponents for moderate magnitudes; whole numbers come out bare.
    format!("{n}")
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a bracketed list of array elements (no key) or object members
/// (keyed). With `indent`, each goes on its own line one level deeper and
/// the closing bracket on a line of its own; empty lists stay `[]`/`{}`.
fn render_members<'a>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    out.push(open);
    let inner = indent.map(|depth| depth + 1);
    let mut empty = true;
    for (key, value) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        newline(out, inner);
        if let Some(key) = key {
            render_string(key, out);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.render_into(out, inner);
    }
    if !empty {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, reason: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        let end = self.pos + literal.len();
        if self.bytes.get(self.pos..end) == Some(literal.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.fail(&format!("expected {literal:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.fail("unexpected character")),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
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
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.fail("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar (the input came in as
                    // &str, so byte boundaries are valid scalar boundaries).
                    let rest = &self.bytes[self.pos..];
                    let step = utf8_len(rest[0]);
                    match std::str::from_utf8(rest.get(..step).unwrap_or(rest)) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.fail("invalid utf-8 in string")),
                    }
                    self.pos += step;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`. Surrogate pairs are accepted
    /// for characters above the BMP; unpaired surrogates are an error.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        if (0xD800..0xDC00).contains(&unit) {
            // High surrogate: must be followed by `\u` + low surrogate.
            if self.bytes.get(self.pos) != Some(&b'\\')
                || self.bytes.get(self.pos + 1) != Some(&b'u')
            {
                return Err(self.fail("unpaired surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.fail("invalid low surrogate"));
            }
            let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.fail("invalid surrogate pair"))
        } else {
            char::from_u32(unit).ok_or_else(|| self.fail("invalid unicode escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.fail("expected hex digit")),
            };
            value = (value << 4) | digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.fail("invalid number")),
        }
    }
}

/// Length in bytes of the UTF-8 scalar starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#" {"a": [1, 2, {"b": null}], "c": "x\ny"} "#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x\ny"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(v.render(), r#"{"a":[1,2,{"b":null}],"c":"x\ny"}"#);
    }

    #[test]
    fn object_rendering_is_key_ordered_and_deterministic() {
        let a = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let b = Json::parse(r#"{"a": 2, "z": 1}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render(), r#"{"a":2,"z":1}"#);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn pretty_rendering_indents_two_spaces_per_level() {
        let v = Json::parse(r#"{"a":[1,{}],"b":[],"c":{"d":"x"}}"#).unwrap();
        assert_eq!(
            v.render_pretty(),
            "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": [],\n  \"c\": {\n    \"d\": \"x\"\n  }\n}"
        );
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn escapes_round_trip() {
        let v =
            Json::parse(r#""quote \" slash \\ tab \t unicode \u00e9 pair \ud83d\ude00""#).unwrap();
        assert_eq!(
            v.as_str(),
            Some("quote \" slash \\ tab \t unicode é pair 😀")
        );
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1.2.3",
            "\"\\x\"",
            "{} extra",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_cap_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn numeric_accessors() {
        let v = Json::parse("7").unwrap();
        assert_eq!(v.as_u64(), Some(7));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        // 2^64 and u64::MAX both parse to 2^64 as f64: out of range, not
        // saturated. 2^53 is exact and in range.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), None);
        assert_eq!(
            Json::parse("9007199254740992").unwrap().as_u64(),
            Some(9_007_199_254_740_992)
        );
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }
}
