//! Shared machinery of the workspace's hand-rolled wire formats.
//!
//! The repo emits JSON by hand everywhere (serde without a format crate
//! buys nothing offline — see the vendored criterion shim) and reads it
//! back with the minimal recursive-descent parser below: exactly the
//! JSON subset the writers produce plus standard escapes. Every stable
//! schema — the ΔI regression baseline ([`crate::baseline`],
//! `sops-sweep-baseline/v1`), the cell-cache entries ([`crate::cache`],
//! `sops-cell-cache/v1`) and the cell identity keys
//! ([`crate::checkpoint`], `sops-cell/v1`) — and the report and service
//! JSON share this module, so their float/string encodings cannot drift
//! apart:
//!
//! * `float_exact` writes 17 significant digits (round-trips any f64
//!   bit-exactly) and encodes non-finite values as the tagged strings
//!   `"nan"` / `"inf"` / `"-inf"`, which [`Value::as_f64`] maps back —
//!   reference values must distinguish NaN from ±∞, which JSON `null`
//!   cannot;
//! * [`string`] applies standard JSON escaping;
//! * `fnv1a64` is the stable hash behind cell keys (dependency-free,
//!   byte-order independent, never `std::hash` — whose output is
//!   explicitly unstable across releases);
//! * [`parse`] reads untrusted bytes (HTTP bodies, cache files) and
//!   bounds its nesting depth, so a hostile document is an `Err`, never a
//!   stack overflow.

use std::fmt::Write as _;

/// Encodes an f64 for a *reference-value* schema: 17 significant digits
/// (exact round-trip), non-finite values as tagged strings.
pub(crate) fn float_exact(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.17e}")
    } else {
        match (v.is_nan(), v > 0.0) {
            (true, _) => "\"nan\"".into(),
            (false, true) => "\"inf\"".into(),
            (false, false) => "\"-inf\"".into(),
        }
    }
}

/// Encodes a JSON string literal with standard escapes.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Looks up `key` in a parsed object entry list.
pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key '{key}'"))
}

/// 64-bit FNV-1a over a byte string — the stable, dependency-free hash
/// behind cell keys. (Never `DefaultHasher`: its output is documented as
/// unstable across Rust releases, and a key that changes with the
/// toolchain would orphan every cached cell.)
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash over `bytes` from `state`, the hash of
/// what came before. FNV-1a is a streaming hash, so
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`: a prefix shared
/// by many keys is hashed once ([`crate::checkpoint`] keys every measure
/// of an ensemble this way).
pub(crate) fn fnv1a64_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered key/value list (duplicate keys kept;
    /// lookups take the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value as an f64: numbers directly; `null` and the tagged
    /// strings `"nan"` / `"inf"` / `"-inf"` as their non-finite
    /// counterparts.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::Null => Some(f64::NAN),
            Value::Str(s) => match s.as_str() {
                "nan" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
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

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object entry list.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The repo's writers
/// nest at most four levels (`{"cells":[{"times":[…]}]}`); the bound
/// keeps the recursive descent far inside any thread's stack however
/// deep a hostile document nests.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document (trailing whitespace allowed, nothing else
/// after the value). Nesting deeper than 64 arrays/objects is an `Err`.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Runs `container` one nesting level down, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape")?,
                                16,
                            )
                            .map_err(|_| "invalid \\u escape")?;
                            // Surrogates are not emitted by our writers;
                            // reject rather than mangle.
                            out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let v = parse(r#"{"kA": ["\"x\"", -1.5e3, true, null]}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "kA");
        let arr = obj[0].1.as_array().unwrap();
        assert_eq!(arr[0].as_str(), Some("\"x\""));
        assert_eq!(arr[1].as_f64(), Some(-1500.0));
        assert_eq!(arr[2], Value::Bool(true));
        assert!(arr[3].as_f64().unwrap().is_nan());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A 0.5 MB bomb fits under the service's 1 MiB body cap; unbounded,
        // it would recurse once per byte and abort the process, so even on
        // a small stack it must come back as a plain parse error.
        let bomb = "[".repeat(500_000);
        let result = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || parse(&bomb).map(|_| ()))
            .unwrap()
            .join()
            .expect("parser thread must not overflow its stack");
        assert!(result.unwrap_err().contains("nesting"));
    }

    #[test]
    fn float_exact_round_trips_every_class() {
        for v in [
            0.0,
            -0.0,
            1.5,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            -1.234_567_890_123_456_7e300,
        ] {
            let text = float_exact(v);
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
        assert!(parse(&float_exact(f64::NAN))
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
        assert_eq!(
            parse(&float_exact(f64::INFINITY)).unwrap().as_f64(),
            Some(f64::INFINITY)
        );
        assert_eq!(
            parse(&float_exact(f64::NEG_INFINITY)).unwrap().as_f64(),
            Some(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        // Reference vectors of the FNV-1a spec — pinned so cell keys can
        // never silently change.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"plan-a"), fnv1a64(b"plan-b"));
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
        assert_eq!(fnv1a64_extend(fnv1a64(b"a"), b""), fnv1a64(b"a"));
    }
}
