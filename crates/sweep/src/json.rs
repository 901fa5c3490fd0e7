//! A minimal JSON value, parser and writer.
//!
//! The workspace's `serde` is a marker-only offline stub (see
//! `vendor/serde`), so the sweep store carries its own JSON layer: a
//! small recursive-descent parser and a deterministic writer. Two
//! properties matter here beyond correctness:
//!
//! * **Determinism** — objects keep their insertion order and the writer
//!   emits a canonical form (no whitespace variation), so "byte-identical
//!   store/output" is a meaningful contract for resume tests and CI.
//! * **Exact integers** — 64-bit seeds and hashes do not fit `f64`
//!   (anything above 2⁵³ would silently round), so the store writes them
//!   as decimal/hex *strings* and this module never converts a number it
//!   can't represent: [`Json::u64`] / [`Json::as_u64`] go through the
//!   string form.

use std::fmt::Write as _;

/// A parsed JSON value. Object member order is preserved.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64` — exact integers travel as
    /// strings, see the module docs).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Wraps a `u64` losslessly (as a decimal string member).
    pub fn u64(v: u64) -> Json {
        Json::Str(v.to_string())
    }

    /// Reads a `u64` written by [`Json::u64`]; also accepts a plain
    /// number when it is integral and below 2⁵³ (hand-written specs).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => s.parse().ok(),
            Json::Num(n) if *n >= 0.0 && *n < 9_007_199_254_740_992.0 && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Reads a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Reads a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Reads a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Reads an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Reads an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected). Arrays and objects nested past a
    /// fixed depth cap are rejected, so hostile input cannot overflow the
    /// stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Serializes to the canonical single-line form (so `.to_string()`
/// yields exactly what [`Json::parse`] accepts).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Writes an `f64` so that parsing it back is bit-exact: shortest
/// round-trip form via `{:?}` (Rust's float Debug is the shortest
/// representation that reparses exactly), with non-finite values mapped
/// to `null` (JSON has no NaN/Inf).
fn write_num(n: f64, out: &mut String) {
    if n.is_finite() {
        // `{:?}` renders integral floats as "1.0" — valid JSON.
        let _ = write!(out, "{n:?}");
    } else {
        out.push_str("null");
    }
}

fn write_str(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} of {}",
            b as char,
            *pos,
            bytes.len()
        ))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts — far above the
/// few levels of any spec, store record or bench file, far below what
/// the recursive-descent parser's stack can take.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        // Four ASCII hex digits: valid UTF-8 and in range.
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed for the store's
                        // own output; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so byte
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// Parses one number in the RFC 8259 grammar
/// (`-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`). Anything
/// else — a leading `+`, a bare `.5` or `1.`, a leading zero as in `01` —
/// is an error, and so is a number that overflows `f64` (the writer would
/// emit it as `null`, so it could not round-trip).
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let bad = || format!("bad number at byte {start}");
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let int_len = digits(pos);
    if int_len == 0 || (int_len > 1 && bytes[int_start] == b'0') {
        return Err(bad());
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(pos) == 0 {
            return Err(bad());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(bad());
        }
    }
    // The scanned bytes are ASCII, so this cannot fail.
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => Err(format!("number '{text}' at byte {start} is out of range")),
    }
}

/// Builds an object from `(key, value)` pairs — the store's canonical
/// record constructor.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_canonical_form() {
        let v = obj(vec![
            ("name", Json::Str("a\"b\\c\nd".into())),
            ("seed", Json::u64(u64::MAX)),
            ("x", Json::Num(0.1)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", obj(vec![("k", Json::Num(-3.0))])),
        ]);
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
        // Canonical: re-serializing the parse is byte-identical.
        assert_eq!(text, back.to_string());
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 6.02e23, -0.0, 2.5000000000000004] {
            let text = Json::Num(x).to_string();
            match Json::parse(&text).unwrap() {
                Json::Num(y) => assert_eq!(x.to_bits(), y.to_bits(), "{text}"),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn parses_foreign_whitespace_and_ints() {
        let v = Json::parse(" { \"a\" : [ 1 , 2.5 ] ,\n\t\"b\" : \"x\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn rejects_non_json_numbers_and_escapes() {
        for text in [
            "1e999",
            "-1e999",
            "+1",
            ".5",
            "1.",
            "01",
            "-01",
            "-",
            "1e",
            "1e+",
            "1.e5",
            "0x10",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04\"",
        ] {
            assert!(Json::parse(text).is_err(), "{text} parsed");
        }
        for (text, want) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("1.5e-3", 1.5e-3),
            ("2E+2", 200.0),
            ("-0.25", -0.25),
            ("1e-400", 0.0),
        ] {
            assert_eq!(Json::parse(text).unwrap(), Json::Num(want), "{text}");
        }
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(1_000_000)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        // The cap itself still parses.
        let text = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }
}
