//! A minimal JSON codec for the wire protocol, and the workspace's one
//! JSON parser (the root tests also check the trace exports with it).
//!
//! The workspace is zero-dependency, so the server carries its own
//! parser/renderer instead of pulling in `serde`. The dialect is plain
//! RFC 8259 minus two deliberate omissions: numbers are parsed as `f64`
//! (the protocol only carries small integers), and `\uXXXX` escapes
//! outside the BMP must arrive as surrogate pairs. Rendering always
//! produces a single line — newline is the message delimiter on the
//! socket, so the renderer never emits one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser. Protocol messages are
/// two levels deep; 32 leaves generous headroom while keeping a hostile
/// `[[[[…` line from exhausting the stack.
const MAX_DEPTH: u32 = 32;

/// A parsed JSON value. Object keys are kept sorted (`BTreeMap`) so a
/// rendered response is byte-deterministic regardless of build order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up `key` on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
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

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is finite, integral, and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.is_finite() && *n >= 0.0 && n.fract() == 0.0 => {
                // Guarded: finite, integral,
                // non-negative, and bounded below 2^53 < u64::MAX.
                if *n <= 9_007_199_254_740_992.0 {
                    Some(*n as u64)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() && n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                    // Guarded integral render.
                    let _ = write!(out, "{}", *n as i64);
                } else if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no Inf/NaN; the protocol never produces
                    // them, but render defensively instead of panicking.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
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
    out.push('"');
}

/// Convenience: builds an object from key/value pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience: a string value.
pub fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// Convenience: an unsigned integer value.
pub fn n(value: u64) -> Json {
    // Protocol integers are small counters
    // and indices, far below 2^53 where f64 stays exact.
    Json::Num(value as f64)
}

/// Parses one JSON document from `text`, requiring the whole input to
/// be consumed (modulo trailing whitespace).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: u32) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
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
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {}", *pos));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {}", *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {}", *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

/// Reads one RFC 8259 number,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: no leading
/// zeros (`01`), no bare fraction point (`1.`, `1.e5`).
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    match eat_digits(bytes, pos) {
        0 => return Err(format!("expected digits at byte {}", *pos)),
        1 => {}
        _ if bytes[int_start] == b'0' => {
            return Err(format!("leading zero in number at byte {start}"))
        }
        _ => {}
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("expected fraction digits at byte {}", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("expected exponent digits at byte {}", *pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

/// Consumes a run of ASCII digits and returns its length.
fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let unit = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: require the paired escape.
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let low = parse_hex4(bytes, *pos + 3)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                *pos += 6;
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "bad surrogate pair".to_string())?,
                                );
                            } else {
                                return Err("unpaired surrogate".to_string());
                            }
                        } else if (0xDC00..0xE000).contains(&unit) {
                            return Err("unpaired surrogate".to_string());
                        } else {
                            out.push(
                                char::from_u32(unit).ok_or_else(|| "bad \\u escape".to_string())?,
                            );
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err("raw control byte in string".to_string()),
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // byte in one piece. Those are ASCII, so the run ends on a
                // char boundary of the (already UTF-8) input, and each
                // byte is looked at a bounded number of times.
                let start = *pos;
                while bytes
                    .get(*pos)
                    .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    if at + 4 > bytes.len() {
        return Err("truncated \\u escape".to_string());
    }
    let text = std::str::from_utf8(&bytes[at..at + 4]).map_err(|e| e.to_string())?;
    u32::from_str_radix(text, 16).map_err(|e| format!("bad \\u escape: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shaped_messages() {
        let line = r#"{"cmd":"submit","id":3,"net":"net n\nsource 0 0\n","deadline_ms":250}"#;
        let value = parse(line).expect("parse");
        assert_eq!(value.get("cmd").and_then(Json::as_str), Some("submit"));
        assert_eq!(value.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(
            value.get("net").and_then(Json::as_str),
            Some("net n\nsource 0 0\n")
        );
        let rendered = value.render();
        assert_eq!(parse(&rendered).expect("reparse"), value);
        assert!(!rendered.contains('\n'), "rendering is single-line");
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "0",
            "-0",
            "-12.5e+3",
            "0.125",
            "1E-2",
            "\"a\\n\\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}",
            " { \"k\" : [ 1 , 2 ] } ",
        ] {
            assert!(parse(ok).is_ok(), "`{ok}` should parse: {:?}", parse(ok));
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "\"bad\\q\"",
            "{\"a\":1} trailing",
            "{} extra",
            "\"\\ud800\"",
            "nul",
            "[1 2]",
            "01",
            "-01",
            "00",
            "[01]",
            "1.",
            "1.e5",
            "-",
            "1e",
            "1e+",
            ".5",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_err(), "depth cap holds");
    }

    #[test]
    fn escapes_and_surrogates_decode() {
        let value = parse(r#""a\u0041\t\ud83d\ude00""#).expect("parse");
        assert_eq!(value.as_str(), Some("aA\t\u{1F600}"));
        // Control characters render as escapes and survive a round trip.
        let original = Json::Str("line1\nline2\u{1}".to_string());
        assert_eq!(parse(&original.render()).expect("reparse"), original);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of two-byte characters: a parse that re-validated the rest
        // of the input per character would take minutes here.
        let body = "é".repeat(1 << 19);
        let line = format!("{{\"net\":\"{body}\"}}");
        let started = std::time::Instant::now();
        let value = parse(&line).expect("parse");
        let elapsed = started.elapsed();
        assert_eq!(value.get("net").and_then(Json::as_str), Some(body.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "parsing a 1 MiB string took {elapsed:?}"
        );
    }

    #[test]
    fn numbers_are_checked_on_extraction() {
        assert_eq!(parse("42").map(|v| v.as_u64()), Ok(Some(42)));
        assert_eq!(parse("-1").map(|v| v.as_u64()), Ok(None));
        assert_eq!(parse("1.5").map(|v| v.as_u64()), Ok(None));
        assert_eq!(parse("1e300").map(|v| v.as_u64()), Ok(None));
    }
}
