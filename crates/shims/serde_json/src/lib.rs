//! Offline shim for the `serde_json` API subset this workspace uses.
//!
//! The build container has no crates.io access, so this crate provides a
//! self-contained JSON implementation with serde_json-compatible call
//! sites: [`Value`], [`Map`], the [`json!`] macro, [`to_string`],
//! [`to_string_pretty`], [`to_value`], and [`from_str`].
//!
//! Instead of serde's `Serialize`/`Deserialize` (whose derive macros need a
//! proc-macro crate), conversion goes through the local [`ToJson`] /
//! [`FromJson`] traits; workspace types implement them directly. The JSON
//! text format is unchanged, so files produced by the real serde_json
//! remain readable and vice versa.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number: unsigned, signed, or floating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(u) => u as f64,
            Number::I(i) => i as f64,
            Number::F(f) => f,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(u) => Some(u),
            Number::I(i) if i >= 0 => Some(i as u64),
            Number::F(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }
}

/// An insertion-ordered JSON object, mirroring `serde_json::Map`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    pub fn new() -> Map {
        Map::default()
    }

    /// Inserts, replacing any existing value under `key`.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

impl Value {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

static NULL_VALUE: Value = Value::Null;

// `value["key"]` indexing, as in real serde_json: missing keys and
// non-objects yield `Null` rather than panicking.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL_VALUE)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL_VALUE),
            _ => &NULL_VALUE,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        f.write_str(&out)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

/// Conversion/parse errors.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Error {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

// Mirrors real serde_json, whose errors convert into `io::Error` so that
// serialization can be `?`-chained inside io-returning functions.
impl From<Error> for std::io::Error {
    fn from(e: Error) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

// ---------------------------------------------------------------------------
// ToJson / FromJson: the shim's stand-in for Serialize / Deserialize.
// ---------------------------------------------------------------------------

/// Serialization into a [`Value`] (the shim's `Serialize`).
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Deserialization from a [`Value`] (the shim's `Deserialize`).
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, Error>;
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Number(Number::U(*self as u64))
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<$t, Error> {
                let u = v.as_u64().ok_or_else(|| Error::custom("expected unsigned integer"))?;
                <$t>::try_from(u).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
json_uint!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Value {
        Value::Number(Number::I(*self))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Number(Number::F(*self))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<f64, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<bool, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<String, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Value {
        Value::String((*self).to_owned())
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Vec<T>, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Option<T>, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<(A, B), Error> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            _ => Err(Error::custom("expected 2-element array")),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Value) -> Result<(A, B, C), Error> {
        match v {
            Value::Array(items) if items.len() == 3 => Ok((
                A::from_json(&items[0])?,
                B::from_json(&items[1])?,
                C::from_json(&items[2])?,
            )),
            _ => Err(Error::custom("expected 3-element array")),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.to_string(), v.to_json());
        }
        Value::Object(m)
    }
}

// ---------------------------------------------------------------------------
// Public entry points mirroring serde_json.
// ---------------------------------------------------------------------------

/// Converts any serializable value into a [`Value`].
pub fn to_value<T: ToJson>(value: T) -> Result<Value, Error> {
    Ok(value.to_json())
}

/// Serializes to compact JSON text.
pub fn to_string<T: ToJson>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out, None, 0);
    Ok(out)
}

/// Serializes to human-indented JSON text.
pub fn to_string_pretty<T: ToJson>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    T::from_json(&v)
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(n: &Number, out: &mut String) {
    match *n {
        Number::U(u) => out.push_str(&u.to_string()),
        Number::I(i) => out.push_str(&i.to_string()),
        Number::F(f) => {
            if f.is_finite() {
                // Match serde_json: emit integral floats with a ".0".
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&format!("{f}"));
                }
            } else {
                out.push_str("null");
            }
        }
    }
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(n, out),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(item, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected {lit:?} at byte {}",
                self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null").map(|()| Value::Null),
            Some(b't') => self.eat_lit("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = self
                .peek()
                .ok_or_else(|| Error::custom("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| Error::custom("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(Error::custom("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's payloads; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(Error::custom("unknown escape")),
                    }
                }
                c => {
                    // Collect the full UTF-8 sequence starting at c.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    if start + len > self.bytes.len() {
                        return Err(Error::custom("truncated utf-8"));
                    }
                    self.pos = start + len;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::custom("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(|f| Value::Number(Number::F(f)))
                .map_err(|_| Error::custom("bad number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(|i| Value::Number(Number::I(i)))
                .map_err(|_| Error::custom("bad number"))
        } else {
            text.parse::<u64>()
                .map(|u| Value::Number(Number::U(u)))
                .map_err(|_| Error::custom("bad number"))
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::custom("expected ',' or '}' in object")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// The `json!` macro: object/array literals with expression interpolation.
/// Values are plain Rust expressions converted via [`ToJson`]; nest objects
/// by nesting `json!` calls.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert($key.to_string(), $crate::json!($val)); )*
        $crate::Value::Object(map)
    }};
    ($other:expr) => {
        $crate::ToJson::to_json(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compound_value() {
        let time = std::time::Duration::from_millis(2500);
        let v = json!({
            "name": "igq",
            "count": 3u32,
            "ratio": time.as_secs_f64(),
            "flags": json!([true, false]),
            "nested": json!({ "k": 1u64 }),
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        // Pretty form parses to the same value.
        let back2: Value = from_str(&to_string_pretty(&v).unwrap()).unwrap();
        assert_eq!(v, back2);
    }

    #[test]
    fn typed_roundtrips() {
        let pairs: Vec<(u32, Vec<u32>)> = vec![(1, vec![2, 3]), (4, vec![])];
        let text = to_string(&pairs).unwrap();
        assert_eq!(text, "[[1,[2,3]],[4,[]]]");
        let back: Vec<(u32, Vec<u32>)> = from_str(&text).unwrap();
        assert_eq!(pairs, back);
    }

    #[test]
    fn option_skips_to_null_and_back() {
        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_eq!(to_string(&some).unwrap(), "7");
        assert_eq!(to_string(&none).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
    }

    #[test]
    fn parse_errors_are_errors() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]x").is_err());
        assert!(from_str::<u32>("\"str\"").is_err());
        assert!(from_str::<Vec<u32>>("[1,\"two\"]").is_err());
    }

    #[test]
    fn string_escapes() {
        let s = "line\n\"quoted\"\ttab\\slash".to_owned();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn unicode_passthrough() {
        let s = "héllo ⊆ wörld".to_owned();
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }
}
