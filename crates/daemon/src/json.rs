//! Hand-rolled JSON reader/writer for the wire protocol (the workspace is
//! offline-vendored — no serde), in the spirit of the engine's report
//! emitters but bidirectional: the daemon must *parse* client lines, not
//! just emit them.
//!
//! The dialect is the protocol's subset of RFC 8259: objects, arrays,
//! strings with the common escapes, `true`/`false`/`null`, and numbers.
//! Integers are kept exact in an `i128` (items are full-range `u64`, which
//! `f64` would silently round above 2^53); anything with a fraction or
//! exponent parses as a float. `\uXXXX` escapes decode including surrogate
//! pairs. Parsing rejects trailing garbage — one value per line, as the
//! newline-delimited protocol requires.
//!
//! The lexer is also the request decoder's: `proto::parse_request` walks a
//! line with the same object loop (`parse_members`) and `parse_value`,
//! and reads the `updates` array in a loop of its own that follows
//! `parse_arr`'s grammar, lexing plain integers in place and handing
//! every other element to `parse_value`. So [`Json::parse`] and the
//! decoder accept the same lines and report the same syntax error, at the
//! same byte, for every line they refuse.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal, exact (wide enough for any `u64` or `i64`).
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, first value wins on duplicate keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup: `Some(value)` if this is an object with `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The integer as a `u64`, if this is a non-negative in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The integer as an `i64`, if this is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(i) => i64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parse exactly one JSON value from `input` (surrounding whitespace
    /// allowed, trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, String> {
        parse_line(input, |bytes, pos| parse_value(bytes, pos, 0))
    }

    /// Serialize onto `out` (compact, no whitespace — one line).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                // JSON has no NaN/Infinity; the protocol maps them to null.
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The compact one-line serialization.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n as i128)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n as i128)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Build an object from `(key, value)` pairs — the daemon's response
/// constructor.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Run `value` on `input` from byte 0, then refuse anything but trailing
/// whitespace after it: one value per line.
pub(crate) fn parse_line<T>(
    input: &str,
    value: impl FnOnce(&[u8], &mut usize) -> Result<T, String>,
) -> Result<T, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let out = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(out)
}

/// Step over whitespace; inlined, so where there is none it costs one
/// byte test.
#[inline]
pub(crate) fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Maximum container nesting. The parser recurses per `[`/`{`, so without
/// a limit a line of tens of KB of `[` would overflow the session thread's
/// stack and abort the whole process; the protocol only ever needs depth
/// ~3.
pub(crate) const MAX_DEPTH: usize = 64;

/// Parse one value at `depth` (the top-level value is depth 0, each
/// enclosing `[`/`{` adds one).
pub(crate) fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    let mut members = Vec::new();
    parse_members(bytes, pos, |key, bytes, pos| {
        members.push((key, parse_value(bytes, pos, depth + 1)?));
        Ok(())
    })?;
    Ok(Json::Obj(members))
}

/// The array grammar `[ value , ... ]` from the `[` at `*pos` through its
/// `]`. (`proto`'s `updates` decoder follows the same grammar in its own
/// loop.)
fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
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

/// The object grammar `{ "key" : value , ... }` from the `{` at `*pos`
/// through its `}`. `member` receives each key and must consume exactly
/// that member's value, starting at the byte after the `:`.
pub(crate) fn parse_members(
    bytes: &[u8],
    pos: &mut usize,
    mut member: impl FnMut(String, &[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        member(key, bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut s = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let hi = parse_hex4(bytes, pos)?;
                        // A high surrogate must pair with a following \u
                        // low surrogate to form one scalar value.
                        let c = if (0xd800..0xdc00).contains(&hi) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                let combined =
                                    0x10000 + ((hi - 0xd800) << 10) + (lo.wrapping_sub(0xdc00));
                                char::from_u32(combined)
                            } else {
                                None
                            }
                        } else {
                            char::from_u32(hi)
                        };
                        s.push(c.ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?);
                        continue; // pos already advanced past the hex digits
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte in string at byte {}", *pos))
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through as-is: the input
                // is a &str, so the bytes are valid UTF-8 already.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                s.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid utf8"));
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = bytes
        .get(*pos..*pos + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or_else(|| format!("short \\u escape at byte {}", *pos))?;
    let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
    if float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number '{text}'"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| format!("bad number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let line = r#"{"cmd":"ingest","updates":[1,2,[7,-3],18446744073709551615],"ok":true,"x":null,"rate":1.5}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("ingest"));
        let updates = v.get("updates").unwrap().as_arr().unwrap();
        assert_eq!(updates[0].as_u64(), Some(1));
        assert_eq!(updates[2].as_arr().unwrap()[1].as_i64(), Some(-3));
        assert_eq!(updates[3].as_u64(), Some(u64::MAX), "u64::MAX stays exact");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(v.get("rate"), Some(&Json::Float(1.5)));
        // Re-serialize and re-parse: stable.
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::parse(r#""a\"b\\c\ndAé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        let out = Json::Str("tab\there\n\"q\"".to_string()).to_line();
        assert_eq!(out, r#""tab\there\n\"q\"""#);
        assert_eq!(
            Json::parse(&out).unwrap().as_str(),
            Some("tab\there\n\"q\"")
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "[1,2",
            r#"{"a":}"#,
            r#"{"a":1}{"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // Way past any thread's stack if the parser recursed unbounded.
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(200_000);
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        // The limit is generous for real protocol traffic (depth ~3).
        let fine = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&fine).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn numbers_keep_integer_precision() {
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_u64(),
            Some(9007199254740993)
        );
        assert_eq!(Json::parse("-5").unwrap().as_i64(), Some(-5));
        assert_eq!(Json::parse("-5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::Float(2500.0));
        assert_eq!(Json::Float(f64::NAN).to_line(), "null");
    }
}
