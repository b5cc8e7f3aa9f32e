//! The workspace's one JSON value, emitter and parser.
//!
//! The build environment vendors no serde, so this module is the single
//! JSON codec every crate shares: `BENCH_results.json` and trace lines
//! are both read by [`Json::parse`], and every hand-formatted emitter
//! escapes its strings with [`escape`]. It supports objects (with
//! preserved key order), arrays, strings, finite numbers, booleans and
//! null. Numbers are emitted with Rust's shortest
//! round-trippable float formatting, so a value survives
//! emit → parse → emit byte-identically — the property the sweep's
//! determinism test leans on.
//!
//! # Examples
//!
//! ```
//! use delorean::json::Json;
//! let doc = Json::Obj(vec![
//!     ("name".into(), Json::Str("fig10".into())),
//!     ("speedup".into(), Json::Num(0.95)),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt;

/// A JSON value. Object keys keep insertion order so emission is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an integer field.
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Looks a key up in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole number no
    /// larger than 2^53 (the range an `f64` holds exactly).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error,
    /// with its byte offset. Arrays and objects nested more than
    /// [`MAX_DEPTH`] deep are an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Emits the value with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        emit(self, 0, &mut out);
        out.push('\n');
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        emit(self, 0, &mut out);
        f.write_str(&out)
    }
}

fn emit(v: &Json, indent: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => emit_num(*n, out),
        Json::Str(s) => emit_str(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                pad(indent + 1, out);
                emit(item, indent + 1, out);
            }
            out.push('\n');
            pad(indent, out);
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                pad(indent + 1, out);
                emit_str(k, out);
                out.push_str(": ");
                emit(val, indent + 1, out);
            }
            out.push('\n');
            pad(indent, out);
            out.push('}');
        }
    }
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn emit_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/inf; the sweep never produces them, but a
        // defensive null beats emitting an unparsable token.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Rust's float Display is the shortest string that parses back
        // to the same f64 and never uses exponent notation.
        out.push_str(&format!("{n}"));
    }
}

fn emit_str(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// Escapes `s` for the inside of a JSON string literal (no quotes
/// added): `"`, `\\` and control characters become escape sequences.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// How deep [`Json::parse`] lets arrays and objects nest: far beyond
/// any document this workspace writes, far below the stack's limit.
pub const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!("too deep at offset {}", *pos)),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| format!("bad number at offset {start}"))?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("bad number {text:?} at offset {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number {text:?} at offset {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
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
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        *pos += 4;
                        // No document this workspace writes holds a
                        // surrogate pair; lone surrogates map to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            _ => {
                // Copy the run of plain bytes up to the next quote or
                // escape. Both are ASCII, so the run ends on a char
                // boundary and only its own bytes are validated.
                let start = *pos - 1;
                while bytes.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::Obj(vec![
            ("schema_version".into(), Json::int(1)),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "records".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("name".into(), Json::Str("fig\"10\"\n".into())),
                        ("x".into(), Json::Num(0.8628317)),
                    ]),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        let text = doc.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        // Emission is a fixed point: emit(parse(emit(x))) == emit(x).
        assert_eq!(back.pretty(), text);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for n in [
            0.0,
            -1.5,
            0.1 + 0.2,
            1e-12,
            9_007_199_254_740_991.0,
            123456.789,
        ] {
            let text = Json::Num(n).to_string();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.as_num().unwrap().to_bits(), n.to_bits(), "{text}");
        }
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::int(42).to_string(), "42");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 1, "b": "x", "c": [true], "d": null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            doc.get("c").unwrap().as_arr().unwrap()[0].as_bool(),
            Some(true)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.as_obj().unwrap().len(), 4);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn syntax_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[] junk",
            &"[".repeat(100_000),
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        assert!(Json::parse(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let doc = Json::Str("héllo → wörld\t\"q\"".into());
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn parse_time_is_linear_in_document_size() {
        // A scan that re-validates the rest of the document per string
        // char is quadratic: tens of seconds on this ~1.3 MB input in a
        // debug build.
        let doc = Json::Arr(
            (0..100_000)
                .map(|i| Json::Str(format!("s{i:06}")))
                .collect(),
        );
        let text = doc.to_string();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        let start = std::time::Instant::now();
        let back = Json::parse(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(back, doc);
        assert!(took.as_secs_f64() < 2.0, "parsing took {took:?}");
    }
}
