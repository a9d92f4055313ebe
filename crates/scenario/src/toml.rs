//! A strict, dependency-free parser for the TOML subset scenario spec
//! files use: `#` comments, `[table]` / `[table.sub]` headers, and
//! `key = value` pairs whose values are strings, integers, floats,
//! booleans, or (possibly nested) arrays of those. No inline tables,
//! no arrays-of-tables, no multi-line strings, no datetimes — a spec
//! that needs those is a spec this model doesn't have a field for.
//!
//! Parsing produces a flat, dot-keyed `BTreeMap<String, Value>`
//! (`[engine]` + `threads = 4` → `"engine.threads"`), which is what
//! makes the canonical encoding trivially independent of key and table
//! order in the source file: the map iterates sorted, whatever the
//! file looked like.

use std::collections::BTreeMap;

/// Deepest array nesting a value may have. No spec field nests deeper
/// than 2 (`deaths = [[node, ns], ...]`); the limit bounds the parser's
/// recursion, so a hostile file gets an `Err`, not a stack overflow.
const MAX_ARRAY_DEPTH: usize = 8;

/// One parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer literal (no float syntax in the source).
    Int(i64),
    /// A float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `[v, v, ...]`, possibly nested.
    Arr(Vec<Value>),
}

impl Value {
    /// The value as an `f64`, coercing integers (so `250` and `250.0`
    /// are the same spec).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a spec document into a flat dot-keyed map. Errors carry the
/// 1-based line number. Duplicate keys (after table flattening) are
/// rejected.
pub fn parse(input: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut out = BTreeMap::new();
    let mut prefix = String::new();
    for (ln, raw) in input.lines().enumerate() {
        let ln = ln + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {ln}: unterminated table header"))?
                .trim();
            if name.is_empty() || !name.split('.').all(is_bare_key) {
                return Err(format!("line {ln}: bad table name {name:?}"));
            }
            prefix = name.to_owned();
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| format!("line {ln}: expected `key = value`"))?;
        let key = line[..eq].trim();
        if !is_bare_key(key) {
            return Err(format!("line {ln}: bad key {key:?}"));
        }
        let full = if prefix.is_empty() {
            key.to_owned()
        } else {
            format!("{prefix}.{key}")
        };
        let (value, rest) =
            parse_value(line[eq + 1..].trim(), 0).map_err(|e| format!("line {ln}: {e}"))?;
        if !rest.trim().is_empty() {
            return Err(format!("line {ln}: trailing characters after value"));
        }
        if out.insert(full.clone(), value).is_some() {
            return Err(format!("line {ln}: duplicate key {full:?}"));
        }
    }
    Ok(out)
}

/// Drop a `#` comment, honoring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'"' => in_str = !in_str,
            b'\\' if in_str => {} // escapes stay inside the string
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn is_bare_key(k: &str) -> bool {
    !k.is_empty()
        && k.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Parse one value at the head of `s`, nested `depth` arrays deep;
/// return it plus the unconsumed tail (arrays recurse through here for
/// their elements).
fn parse_value(s: &str, depth: usize) -> Result<(Value, &str), String> {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix('[') {
        if depth == MAX_ARRAY_DEPTH {
            return Err(format!("arrays nest deeper than {MAX_ARRAY_DEPTH}"));
        }
        let mut items = Vec::new();
        let mut rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix(']') {
            return Ok((Value::Arr(items), r));
        }
        loop {
            let (v, r) = parse_value(rest, depth + 1)?;
            items.push(v);
            rest = r.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
                // Allow a trailing comma before the closer.
                if let Some(r) = rest.strip_prefix(']') {
                    return Ok((Value::Arr(items), r));
                }
                continue;
            }
            if let Some(r) = rest.strip_prefix(']') {
                return Ok((Value::Arr(items), r));
            }
            return Err("expected ',' or ']' in array".to_owned());
        }
    }
    if let Some(rest) = s.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok((Value::Str(out), &rest[i + 1..])),
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    other => return Err(format!("bad string escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        return Err("unterminated string".to_owned());
    }
    if let Some(rest) = s.strip_prefix("true") {
        return Ok((Value::Bool(true), rest));
    }
    if let Some(rest) = s.strip_prefix("false") {
        return Ok((Value::Bool(false), rest));
    }
    // A number: scan the longest run of number-ish characters.
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E' | '_')))
        .unwrap_or(s.len());
    if end == 0 {
        return Err(format!("expected a value at {s:?}"));
    }
    let tok = s[..end].replace('_', "");
    let rest = &s[end..];
    if tok.contains(['.', 'e', 'E']) {
        let f: f64 = tok
            .parse()
            .map_err(|_| format!("bad float literal {tok:?}"))?;
        if !f.is_finite() {
            return Err(format!("non-finite float literal {tok:?}"));
        }
        Ok((Value::Float(f), rest))
    } else {
        let i: i64 = tok
            .parse()
            .map_err(|_| format!("bad integer literal {tok:?}"))?;
        Ok((Value::Int(i), rest))
    }
}

/// Escape a string into a quoted TOML literal (the writer-side dual of
/// [`parse`]'s string handling).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_keys_and_values() {
        let doc = r#"
# a comment
name = "md # not a comment"

[topology]
nx = 8
ny = 8

[workload.md_exchange]
compute_ns = 250.0
skewed = false
deaths = [[5, 900], [12, 1400]]
"#;
        let m = parse(doc).expect("parses");
        assert_eq!(
            m.get("name"),
            Some(&Value::Str("md # not a comment".to_owned()))
        );
        assert_eq!(m.get("topology.nx"), Some(&Value::Int(8)));
        assert_eq!(
            m.get("workload.md_exchange.compute_ns"),
            Some(&Value::Float(250.0))
        );
        assert_eq!(
            m.get("workload.md_exchange.skewed"),
            Some(&Value::Bool(false))
        );
        let deaths = m
            .get("workload.md_exchange.deaths")
            .and_then(|v| v.as_arr())
            .expect("array");
        assert_eq!(deaths.len(), 2);
        assert_eq!(deaths[0].as_arr().unwrap()[1], Value::Int(900));
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "key",
            "[unterminated",
            "k = ",
            "k = \"open",
            "k = 1 2",
            "k = [1, ",
            "k = nan",
            "a = 1\na = 2",
            "[t]\nx = 1\n[t2]\nx = 1 1",
        ] {
            assert!(parse(doc).is_err(), "{doc:?} should be rejected");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("name = \"x\"\nk = {}", "[".repeat(100_000));
        let err = parse(&deep).expect_err("100,000 nested arrays must be rejected");
        assert!(err.starts_with("line 2: arrays nest deeper than"), "{err}");
        let limit = format!("k = {}1{}", "[".repeat(8), "]".repeat(8));
        assert!(parse(&limit).is_ok(), "nesting at the limit parses");
    }

    #[test]
    fn integer_and_float_spellings_coerce() {
        let m = parse("a = 250\nb = 250.0\nc = 2.5e2").expect("parses");
        for k in ["a", "b", "c"] {
            assert_eq!(m[k].as_f64(), Some(250.0));
        }
    }

    #[test]
    fn quote_round_trips() {
        for s in ["plain", "has \"quotes\"", "back\\slash", "line\nbreak"] {
            let doc = format!("k = {}", quote(s));
            let m = parse(&doc).expect("parses");
            assert_eq!(m["k"].as_str(), Some(s));
        }
    }
}
