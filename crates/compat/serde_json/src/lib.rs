//! Offline shim for `serde_json`: a minimal JSON document tree.
//!
//! The real crate serializes any `serde::Serialize` type; this shim
//! (paired with the no-op `serde` shim) instead offers an explicit
//! [`Value`] tree plus `to_string` / `to_string_pretty` over it, and a
//! [`from_str`] parser back into [`Value`]. Callers in this workspace
//! build their JSON explicitly, which keeps the shim tiny and the
//! output format under test control. Numbers render byte for byte as
//! Rust's shortest-roundtrip `{}` prints them and parse with
//! `str::parse`, so a finite `f64` survives a serialize → parse cycle
//! bit for bit — the property `tpu_serve`'s trace replay relies on.
//!
//! The writer underneath is public: [`write_number`] and
//! [`write_string`] append one JSON scalar to a `String` without
//! allocating. `to_string` renders every tree through them, and an
//! artifact too large to build as a tree (the `--request-log` record
//! stream) writes its document straight into its output buffer with
//! the same two functions, so both paths emit the same bytes. Numbers
//! do not go through `core::fmt`: a Ryu port (the private `number`
//! module) computes the same digits in about half the time, and
//! [`write_f64`] exposes it for text artifacts that want `{}` exactly.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

mod number;
mod pow5;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number (rendered as `{}` renders it; integers stay
    /// integral).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Value>),
    /// An object with deterministically ordered (sorted) keys.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (String, Value)>) -> Self {
        Value::Object(pairs.into_iter().collect())
    }

    fn write(&self, f: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => f.push_str("null"),
            Value::Bool(b) => f.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(f, *n),
            Value::String(s) => write_string(f, s),
            Value::Array(items) => {
                f.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.push(',');
                    }
                    Self::newline(f, indent, level + 1);
                    v.write(f, indent, level + 1);
                }
                if !items.is_empty() {
                    Self::newline(f, indent, level);
                }
                f.push(']');
            }
            Value::Object(map) => {
                f.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.push(',');
                    }
                    Self::newline(f, indent, level + 1);
                    write_string(f, k);
                    f.push(':');
                    if indent.is_some() {
                        f.push(' ');
                    }
                    v.write(f, indent, level + 1);
                }
                if !map.is_empty() {
                    Self::newline(f, indent, level);
                }
                f.push('}');
            }
        }
    }

    fn newline(f: &mut String, indent: Option<usize>, level: usize) {
        if let Some(w) = indent {
            f.push('\n');
            f.extend(std::iter::repeat_n(' ', w * level));
        }
    }
}

/// Append `n` to `out` as a JSON number, exactly as [`to_string`]
/// renders `Value::Number(n)`: an integral value below 9e15 in
/// magnitude prints as an integer (so `-0.0` prints `0`), anything else
/// as [`write_f64`] does. Allocates nothing beyond `out`'s own growth.
pub fn write_number(out: &mut String, n: f64) {
    // SAFETY: `number::write_json` appends only ASCII bytes (digits,
    // `-`, `.` and the letters of `NaN` and `inf`), so `out` stays
    // valid UTF-8.
    number::write_json(unsafe { out.as_mut_vec() }, n);
}

/// Append `n` to `out` byte for byte as `format!("{n}")` renders it:
/// the shortest decimal that reads back as `n`, never with an exponent,
/// `-0` for `-0.0`, and `NaN`, `inf` or `-inf`. Allocates nothing beyond
/// `out`'s own growth.
pub fn write_f64(out: &mut String, n: f64) {
    // SAFETY: `number::write_display` appends only ASCII bytes (digits,
    // `-`, `.` and the letters of `NaN` and `inf`), so `out` stays
    // valid UTF-8.
    number::write_display(unsafe { out.as_mut_vec() }, n);
}

/// Append `s` to `out` as a quoted JSON string, exactly as
/// [`to_string`] renders `Value::String(s)`: `"` and `\` are
/// backslash-escaped, newline, tab and carriage return use their short
/// escapes, other control characters below U+0020 use `\u00xx`, and
/// everything else (non-ASCII included) is copied as is. Runs of
/// characters that need no escape are copied in one piece.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\t' => Some("\\t"),
            b'\r' => Some("\\r"),
            0..=0x1f => None,
            _ => continue,
        };
        // Every byte matched above is ASCII, so `i` is a char boundary.
        out.push_str(&s[copied..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

/// Render a [`Value`] compactly.
pub fn to_string(value: &Value) -> String {
    let mut s = String::new();
    value.write(&mut s, None, 0);
    s
}

/// Render a [`Value`] with two-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut s = String::new();
    value.write(&mut s, Some(2), 0);
    s
}

/// Parse a JSON document into a [`Value`].
///
/// Supports the full JSON grammar this shim can emit (plus `\uXXXX`
/// escapes, including surrogate pairs). Errors carry a byte offset and
/// a short description. Nesting is capped (like the real serde_json's
/// recursion limit) so untrusted input returns an error instead of
/// overflowing the stack.
pub fn from_str(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Maximum container nesting [`from_str`] accepts (the real serde_json
/// defaults to 128).
const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Short description of the failure.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Run a container parser one nesting level deeper, rejecting
    /// documents past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => Err(ParseError {
                offset: start,
                message: format!("invalid number `{text}`"),
            }),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the raw input. Only
                    // the next ≤ 4 bytes are validated, so long strings
                    // decode in O(1) per character.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let c = match std::str::from_utf8(&self.bytes[self.pos..end]) {
                        Ok(s) => s.chars().next().expect("nonempty by peek"),
                        // A well-formed scalar truncated at `end` still
                        // yields its leading chars via valid_up_to.
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&self.bytes[self.pos..self.pos + e.valid_up_to()])
                                .expect("validated prefix")
                                .chars()
                                .next()
                                .expect("nonempty prefix")
                        }
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The writer's reference: the number arm `Value::write` had before
    /// [`write_number`] existed, one `format!` per number.
    fn reference_number(n: f64) -> String {
        if n.fract() == 0.0 && n.abs() < 9e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    /// The string arm `Value::write` had before [`write_string`]
    /// existed, one `format!` per control character.
    fn reference_string(s: &str) -> String {
        let mut f = String::from('"');
        for c in s.chars() {
            match c {
                '"' => f.push_str("\\\""),
                '\\' => f.push_str("\\\\"),
                '\n' => f.push_str("\\n"),
                '\t' => f.push_str("\\t"),
                '\r' => f.push_str("\\r"),
                c if (c as u32) < 0x20 => f.push_str(&format!("\\u{:04x}", c as u32)),
                c => f.push(c),
            }
        }
        f.push('"');
        f
    }

    fn written_number(n: f64) -> String {
        let mut s = String::new();
        write_number(&mut s, n);
        s
    }

    fn written_f64(n: f64) -> String {
        let mut s = String::new();
        write_f64(&mut s, n);
        s
    }

    /// Both writers against their `format!` references.
    fn check_number(n: f64) {
        assert_eq!(
            written_number(n),
            reference_number(n),
            "bits {:#x}",
            n.to_bits()
        );
        assert_eq!(written_f64(n), format!("{n}"), "bits {:#x}", n.to_bits());
    }

    fn written_string(text: &str) -> String {
        let mut s = String::new();
        write_string(&mut s, text);
        s
    }

    /// Characters weighted toward the ones the escaper treats
    /// specially: quotes, backslashes, every control character, DEL,
    /// and multi-byte UTF-8.
    fn json_char() -> impl Strategy<Value = char> {
        prop_oneof![
            Just('"'),
            Just('\\'),
            (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control char")),
            (0x20u32..0x80).prop_map(|c| char::from_u32(c).expect("ASCII")),
            (0x80u32..0xd800).prop_map(|c| char::from_u32(c).expect("BMP scalar")),
            (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("astral scalar")),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn write_number_matches_the_format_reference(bits in any::<u64>()) {
            let n = f64::from_bits(bits);
            prop_assert_eq!(written_number(n), reference_number(n), "bits {:#x}", bits);
            prop_assert_eq!(written_f64(n), format!("{n}"), "bits {:#x}", bits);
        }

        /// Values in [2^49, 2^53) with a fraction in eighths. The `.25`
        /// and `.75` fractions in [2^49, 2^51) sit exactly between two
        /// shortest decimals (`…677.25` lies between `…677.2` and
        /// `…677.3`), where `{}` rounds up; the other eighths, and the
        /// binades above, are their non-tie neighbours.
        #[test]
        fn write_number_matches_on_shortest_length_ties(
            binade in 49u32..53,
            offset in any::<u64>(),
            eighths in 0u64..8,
            negative in any::<bool>(),
        ) {
            let whole = (1u64 << binade) + offset % (1u64 << binade);
            let n = whole as f64 + eighths as f64 / 8.0;
            let n = if negative { -n } else { n };
            prop_assert_eq!(written_number(n), reference_number(n), "bits {:#x}", n.to_bits());
            prop_assert_eq!(written_f64(n), format!("{n}"), "bits {:#x}", n.to_bits());
        }

        #[test]
        fn write_number_matches_near_the_integral_boundary(
            k in -4096i64..=4096,
            scale in prop_oneof![Just(1.0f64), Just(0.5), Just(0.25), Just(-1.0)],
        ) {
            // 9e15 and 2^53 are exactly representable; step through the
            // f64s on both sides of them, and through half-integers.
            for base in [9e15f64, -9e15, 9007199254740992.0, -9007199254740992.0] {
                let n = base + k as f64 * scale;
                prop_assert_eq!(written_number(n), reference_number(n), "{:?}", n);
                let m = f64::from_bits((base.to_bits() as i64 + k) as u64);
                prop_assert_eq!(written_number(m), reference_number(m), "{:?}", m);
            }
        }

        #[test]
        fn write_number_matches_on_integers_and_subnormals(
            v in -9_500_000_000_000_000i64..9_500_000_000_000_000,
            sub in 1u64..(1u64 << 52),
            negative in any::<bool>(),
        ) {
            let n = v as f64;
            prop_assert_eq!(written_number(n), reference_number(n), "{:?}", n);
            let s = f64::from_bits(sub | if negative { 1 << 63 } else { 0 });
            prop_assert!(s.is_subnormal());
            prop_assert_eq!(written_number(s), reference_number(s), "{:?}", s);
            prop_assert_eq!(written_f64(s), format!("{s}"), "{:?}", s);
        }

        #[test]
        fn write_string_matches_the_escape_reference(
            chars in prop::collection::vec(json_char(), 0..48),
        ) {
            let text: String = chars.into_iter().collect();
            prop_assert_eq!(written_string(&text), reference_string(&text), "{:?}", text);
        }
    }

    /// A document using every value kind, with strings that need
    /// escaping and numbers on both writer paths.
    fn sample_document() -> Value {
        Value::object([
            ("a".to_string(), Value::Number(1.0)),
            (
                "b".to_string(),
                Value::Array(vec![
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Null,
                    Value::Number(-2.75e-3),
                    Value::Number(1e300),
                ]),
            ),
            (
                "c".to_string(),
                Value::String("x\"y\n\\ π\u{1}😀".to_string()),
            ),
            ("d".to_string(), Value::Object(BTreeMap::new())),
            (
                "e".to_string(),
                Value::Array(vec![Value::Array(vec![]), Value::Number(-0.0)]),
            ),
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Truncating, flipping or splicing bytes of a valid document
        /// gives either an error or a value whose rendering parses back
        /// to itself, compact and pretty, and never a panic.
        #[test]
        fn mutated_documents_parse_to_err_or_a_fixed_point(
            pretty in any::<bool>(),
            kind in 0u8..3,
            at in any::<usize>(),
            from in any::<usize>(),
            len in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let doc = sample_document();
            let text = if pretty { to_string_pretty(&doc) } else { to_string(&doc) };
            let mut bytes = text.into_bytes();
            let n = bytes.len();
            match kind {
                0 => bytes.truncate(at % (n + 1)),
                1 => bytes[at % n] ^= flip,
                _ => {
                    let start = from % n;
                    let run = bytes[start..(start + len % 24).min(n)].to_vec();
                    let at = at % (n + 1);
                    bytes.splice(at..at, run);
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(v) = from_str(&text) {
                for rendered in [to_string(&v), to_string_pretty(&v)] {
                    let again = from_str(&rendered).expect("a rendered value parses back");
                    prop_assert_eq!(to_string(&again), to_string(&v), "from {:?}", text);
                }
            }
        }
    }

    #[test]
    fn writer_edge_cases_match_the_reference() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            9e15,
            -9e15,
            9e15 - 1.0,
            9e15 + 2.0,
            i64::MAX as f64,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::from_bits(0xc30c_9bbd_e3da_0f6a),
            9007199254740992.0,
            9007199254740993.0,
            1e21,
            1e-7,
            123456.789,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check_number(n);
        }
        assert_eq!(written_number(-0.0), "0");
        assert_eq!(written_f64(-0.0), "-0");
        assert_eq!(written_f64(0.0), "0");
        assert_eq!(written_number(9e15), "9000000000000000");
        assert_eq!(written_number(2.5), "2.5");
        // An exact tie at the shortest length rounds up, as `{}` does
        // (reference Ryu would print `…677.2`).
        assert_eq!(
            written_f64(f64::from_bits(0xc30c_9bbd_e3da_0f6a)),
            "-1006567402717677.3"
        );
        assert_eq!(written_f64(f64::NAN), "NaN");
        assert_eq!(written_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(written_f64(1e-7), "0.0000001");
        assert_eq!(written_f64(1e21), "1000000000000000000000");
        for text in [
            "",
            "plain",
            "q\"b\\",
            "\u{0}\u{1f}\u{7f}",
            "tab\tcr\rnl\n",
            "π😀é",
        ] {
            assert_eq!(written_string(text), reference_string(text), "{text:?}");
        }
        assert_eq!(written_string("\u{1}"), "\"\\u0001\"");
    }

    /// ±3 ulps around every power of ten an `f64` can come near and
    /// ±2 ulps around every power of two, both signs: the binade edges
    /// where the rounding interval is lopsided and the decimal length
    /// changes.
    #[test]
    fn writers_match_around_powers_of_ten_and_two() {
        let near = |n: f64, ulps: i64| {
            for k in -ulps..=ulps {
                let m = f64::from_bits((n.to_bits() as i64 + k) as u64);
                check_number(m);
                check_number(-m);
            }
        };
        for e in -323..=308 {
            near(format!("1e{e}").parse().expect("a power of ten"), 3);
        }
        // From bits: `powi` loses the subnormal powers.
        for e in -1074..=1023i32 {
            let bits = if e >= -1022 {
                ((e + 1023) as u64) << 52
            } else {
                1 << (e + 1074)
            };
            near(f64::from_bits(bits), 2);
        }
    }

    /// The release-mode sweep: 5×10^7 random bit patterns whose exponent
    /// field steps through every binade in turn (NaN and infinities
    /// included), each written by both writers and compared with
    /// `format!`. About 40 s on one 2.1 GHz Xeon core in release; run
    /// with `cargo test --release -p serde_json -- --ignored`.
    #[test]
    #[ignore = "5e7 patterns; run in release"]
    fn writers_match_format_on_a_random_sweep_of_every_binade() {
        const PATTERNS: u64 = 50_000_000;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let (mut a, mut b) = (String::new(), String::new());
        for i in 0..PATTERNS {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let exponent = i % 2048;
            let n = f64::from_bits((z & !(0x7ff << 52)) | exponent << 52);
            a.clear();
            write_f64(&mut a, n);
            b.clear();
            write!(b, "{n}").expect("String writes cannot fail");
            assert_eq!(a, b, "bits {:#x}", n.to_bits());
            a.clear();
            write_number(&mut a, n);
            assert_eq!(a, reference_number(n), "bits {:#x}", n.to_bits());
        }
    }

    #[test]
    fn renders_scalars_and_containers() {
        let v = Value::object([
            ("a".to_string(), Value::Number(1.0)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".to_string(), Value::String("x\"y".to_string())),
        ]);
        assert_eq!(to_string(&v), r#"{"a":1,"b":[true,null],"c":"x\"y"}"#);
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = Value::object([("k".to_string(), Value::Number(2.5))]);
        assert_eq!(to_string_pretty(&v), "{\n  \"k\": 2.5\n}");
    }

    #[test]
    fn parses_what_it_renders() {
        let v = Value::object([
            ("a".to_string(), Value::Number(1.0)),
            (
                "b".to_string(),
                Value::Array(vec![
                    Value::Bool(true),
                    Value::Null,
                    Value::Number(-2.75e-3),
                ]),
            ),
            ("c".to_string(), Value::String("x\"y\n\\ π".to_string())),
            ("d".to_string(), Value::Object(BTreeMap::new())),
            ("e".to_string(), Value::Array(vec![])),
        ]);
        assert_eq!(from_str(&to_string(&v)).unwrap(), v);
        assert_eq!(from_str(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn numbers_roundtrip_bit_for_bit() {
        for bits in [
            0x3ff0_0000_0000_0001u64, // 1.0000000000000002
            0x3fb9_9999_9999_999au64, // 0.1
            0x4197_d784_0000_0000u64, // 100_000_000ish
            0x0010_0000_0000_0000u64, // smallest normal
        ] {
            let x = f64::from_bits(bits);
            let rendered = to_string(&Value::Number(x));
            match from_str(&rendered).unwrap() {
                Value::Number(y) => assert_eq!(x.to_bits(), y.to_bits(), "{rendered}"),
                other => panic!("expected a number, got {other:?}"),
            }
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            from_str(r#""é😀""#).unwrap(),
            Value::String("é😀".to_string())
        );
    }

    #[test]
    fn errors_carry_an_offset() {
        let e = from_str("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(from_str("[1, 2").is_err());
        assert!(from_str("[1] tail").is_err());
        assert!(from_str("1e999").is_err(), "non-finite numbers rejected");
    }
}
