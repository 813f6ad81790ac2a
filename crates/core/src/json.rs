//! A dependency-free JSON value type and writer.
//!
//! The workspace builds offline (no `serde`), so the experiment records in
//! [`crate::report`] and the bench harness's `BENCH_*.json` snapshots
//! serialize through this module instead. It covers the JSON the repo
//! produces: objects, arrays, strings, finite numbers, booleans and null;
//! non-finite floats are written as `null` like `serde_json` does. Nothing
//! in the workspace reads JSON back, so there is no parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String node from anything stringifiable.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation (the
    /// `serde_json::to_string_pretty` look).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::obj([
            ("name", Json::str("arc\"len")),
            ("scales", Json::Arr(vec![Json::Num(10.0), Json::Num(2.5)])),
            ("oom", Json::Null),
            ("ok", Json::Bool(true)),
        ]);
        // Keys in order, `null` for OOM, the quote escaped: the text a
        // reader of the snapshots parses.
        assert_eq!(
            doc.to_string_pretty(),
            "{\n  \"name\": \"arc\\\"len\",\n  \"ok\": true,\n  \"oom\": null,\n  \"scales\": [\n    10,\n    2.5\n  ]\n}"
        );
        assert_eq!(
            doc.to_string_compact(),
            "{\"name\": \"arc\\\"len\", \"ok\": true, \"oom\": null, \"scales\": [10, 2.5]}"
        );
        assert_eq!(Json::Arr(vec![]).to_string_pretty(), "[]");
        assert_eq!(Json::obj([]).to_string_pretty(), "{}");
    }

    #[test]
    fn numbers_render_like_serde_json() {
        assert_eq!(Json::Num(1.11).to_string_compact(), "1.11");
        assert_eq!(Json::Num(42.0).to_string_compact(), "42");
        assert_eq!(Json::Num(3.24e-6).to_string_compact(), "0.00000324");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = Json::Str("line1\nline2\t\"q\"\\\r\u{1}".into());
        assert_eq!(
            s.to_string_compact(),
            "\"line1\\nline2\\t\\\"q\\\"\\\\\\r\\u0001\""
        );
        // Non-ASCII text is written as is, not escaped.
        assert_eq!(Json::str("\u{1F600}").to_string_compact(), "\"\u{1F600}\"");
    }
}
