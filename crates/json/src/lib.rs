#![warn(missing_docs)]
//! Minimal JSON encode/decode.
//!
//! Replaces `serde`/`serde_json` so the workspace builds hermetically.
//! There is no derive machinery: types that need (de)serialization
//! implement explicit `to_json`/`from_json` methods against the
//! [`Json`] value tree. The encoder is round-trip exact for finite
//! `f64` values (Rust's shortest-representation float formatting), so
//! simulation results survive a JSON round trip bit-identically.
//!
//! ```
//! use mars_json::Json;
//!
//! let v = Json::parse(r#"{"name": "inception", "nodes": [1, 2.5, -3e2]}"#).unwrap();
//! assert_eq!(v["name"].as_str(), Some("inception"));
//! assert_eq!(v["nodes"][2].as_f64(), Some(-300.0));
//! assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
//! ```

pub mod parse;

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers are exact up to
    /// 2^53, which covers every quantity the repo serializes).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys keep insertion order so encoding is
    /// deterministic.
    Obj(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// Parse a JSON document.
    pub fn parse(s: &str) -> Result<Json, parse::JsonError> {
        parse::parse(s)
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from values.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Number value, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number as `u64`, if numeric, non-negative and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// Number as `usize`, if it fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// String value, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool value, if a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Element list, if an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Key/value pairs, if an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Json)>> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// True for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact encoding (no whitespace).
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Pretty-printed encoding (2-space indent).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; mirror serde_json's lossy `null`.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 2f64.powi(53) {
        // Integral: print without the trailing ".0" Rust's Display adds
        // for whole floats — JSON integers parse back to the same f64.
        fmt::Write::write_fmt(out, format_args!("{}", n as i64)).expect("string write");
    } else {
        // Rust's Display for f64 is shortest-round-trip: parsing the
        // output recovers the exact bit pattern.
        fmt::Write::write_fmt(out, format_args!("{n}")).expect("string write");
    }
}

fn write_string(out: &mut String, s: &str) {
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
                fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32))
                    .expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// `json["key"]` / missing keys yield `Json::Null` (like `serde_json`).
impl std::ops::Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `json[i]` / out-of-range indices yield `Json::Null`.
impl std::ops::Index<usize> for Json {
    type Output = Json;

    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(v as f64)
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}

impl_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(x) => x.into(),
            None => Json::Null,
        }
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for src in ["null", "true", "false", "0", "-1", "3.5", "\"hi\""] {
            let v = Json::parse(src).expect(src);
            assert_eq!(v.to_string(), src, "compact encoding is canonical for {src}");
        }
    }

    #[test]
    fn f64_roundtrip_is_exact() {
        for x in [
            1280179767.826233f64,
            0.1,
            -3.984_709_127e-17,
            2f64.powi(60),
            f64::MIN_POSITIVE,
            1.0 / 3.0,
        ] {
            let v = Json::Num(x);
            let back = Json::parse(&v.to_string()).expect("parse");
            assert_eq!(back.as_f64().expect("num").to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn u64_values_in_repo_range_are_exact() {
        for x in [0u64, 1, 4096, 12 << 30, 125 << 30, (1 << 53) - 1] {
            let v = Json::from(x);
            let back = Json::parse(&v.to_string()).expect("parse");
            assert_eq!(back.as_u64(), Some(x));
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\slash\\ unicode: ✓ control: \u{01}";
        let v = Json::Str(s.to_string());
        let back = Json::parse(&v.to_string()).expect("parse");
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn nested_structure_roundtrips() {
        let v = Json::obj([
            ("name", Json::from("bert")),
            ("nodes", Json::arr([Json::from(1u64), Json::from(2.5), Json::Null])),
            ("valid", Json::from(true)),
            (
                "nested",
                Json::obj([
                    ("empty_arr", Json::arr([])),
                    ("empty_obj", Json::obj::<String, _>([])),
                ]),
            ),
        ]);
        let compact = Json::parse(&v.to_string()).expect("compact");
        assert_eq!(compact, v);
        let pretty = Json::parse(&v.pretty()).expect("pretty");
        assert_eq!(pretty, v);
    }

    #[test]
    fn indexing_is_null_tolerant() {
        let v = Json::parse(r#"{"a": [1, 2]}"#).expect("parse");
        assert_eq!(v["a"][0].as_f64(), Some(1.0));
        assert!(v["missing"].is_null());
        assert!(v["a"][99].is_null());
        assert!(v["a"]["not-an-object"].is_null());
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).expect("parse");
        let keys: Vec<&str> = v.as_object().expect("obj").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn option_and_vec_conversions() {
        assert_eq!(Json::from(None::<f64>), Json::Null);
        assert_eq!(Json::from(Some(2.0f64)), Json::Num(2.0));
        assert_eq!(Json::from(vec![1u32, 2]), Json::arr([Json::Num(1.0), Json::Num(2.0)]));
    }
}
