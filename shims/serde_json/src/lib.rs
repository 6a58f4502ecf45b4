//! JSON text serialization for the vendored serde shim: `to_string`,
//! `to_string_pretty`, and `from_str`.
//!
//! Serialization drives one JSON writer, a [`serde::Serializer`] sink
//! that appends text as the value emits itself, so no [`Value`] tree is
//! built on the way (a `Value` argument walks its tree into the same
//! writer). Parsing builds a `Value` tree and deserializes from it.
//!
//! Output is deterministic (struct fields keep declaration order) and
//! round-trips through the parser. A finite `f64` is written as its
//! shortest round-trip text, byte for byte what `format!("{v:?}")`
//! prints, by an in-crate Ryu writer that appends straight to the
//! output: an exact tie between the two closest shortest candidates
//! rounds up, as std does (2⁻²⁵ is `2.9802322387695313e-8`), and the
//! layout is plain decimal for `1e-4 <= |v| < 1e16` (`1.0`, `-0.0`,
//! `0.0001`), else `d[.ddd]e[-]x` (`1e16`, `5e-324`). Non-finite
//! floats — which JSON cannot represent — are written as the strings
//! `"Infinity"`, `"-Infinity"`, and `"NaN"`; the shim's `f64`
//! deserializer accepts them back.
//!
//! ```
//! let json = serde_json::to_string(&vec![1u64, 2, 3]).unwrap();
//! assert_eq!(json, "[1,2,3]");
//! let back: Vec<u64> = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, vec![1, 2, 3]);
//! ```

#![warn(missing_docs)]

mod float;

pub use serde::Error;
use std::io::Write as _;

use serde::{Deserialize, Serialize, Serializer, Value};

/// Serializes `value` as compact JSON.
///
/// # Errors
/// This implementation cannot fail, but keeps the fallible signature
/// of the real `serde_json` for call-site compatibility.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(JsonWriter::write(value, false))
}

/// Serializes `value` as human-readable, 2-space-indented JSON.
///
/// # Errors
/// This implementation cannot fail, but keeps the fallible signature
/// of the real `serde_json` for call-site compatibility.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(JsonWriter::write(value, true))
}

/// Parses JSON text into a `T`.
///
/// # Errors
/// Errors on malformed JSON or on a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::from_value(&v)
}

// ---- emitter ----

/// Spaces per nesting level in pretty output.
const INDENT: usize = 2;

/// The JSON text sink. Compact output has no whitespace; pretty output
/// puts every element on its own line, indented two spaces per level,
/// and writes `[]`/`{}` for empty containers.
struct JsonWriter {
    /// UTF-8 text: whole `&str` runs and ASCII bytes only.
    out: Vec<u8>,
    pretty: bool,
    /// Open containers, innermost last: `(is_map, has_elements)`.
    open: Vec<(bool, bool)>,
}

impl JsonWriter {
    fn write<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
        let mut w = JsonWriter {
            out: Vec::new(),
            pretty,
            open: Vec::new(),
        };
        value.serialize(&mut w);
        String::from_utf8(w.out).expect("the writer appends only UTF-8")
    }

    /// Separator and indentation before the next element of the
    /// innermost container.
    fn element(&mut self) {
        let depth = self.open.len();
        let Some((_, has_elements)) = self.open.last_mut() else {
            return;
        };
        if std::mem::replace(has_elements, true) {
            self.out.push(b',');
        }
        if self.pretty {
            self.newline(depth);
        }
    }

    /// Called before every value: a sequence element needs a separator,
    /// a map value already follows its key.
    fn value(&mut self) {
        if matches!(self.open.last(), Some((false, _))) {
            self.element();
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push(b'\n');
        self.out.resize(self.out.len() + depth * INDENT, b' ');
    }

    fn begin(&mut self, map: bool, open: u8) {
        self.value();
        self.out.push(open);
        self.open.push((map, false));
    }

    fn end(&mut self, close: u8) {
        let (_, has_elements) = self.open.pop().expect("end matches a begin");
        if has_elements && self.pretty {
            self.newline(self.open.len());
        }
        self.out.push(close);
    }

    fn push_u64(&mut self, n: u64) {
        let start = self.out.len();
        self.out.resize(start + float::decimal_len(n), 0);
        float::write_digits(&mut self.out[start..], n);
    }

    fn push_str_literal(&mut self, s: &str) {
        let out = &mut self.out;
        out.push(b'"');
        // Copy unescaped runs whole. Every byte that needs escaping is
        // ASCII, so the run boundaries are char boundaries.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            out.extend_from_slice(&s.as_bytes()[run..i]);
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                _ => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            run = i + 1;
        }
        out.extend_from_slice(&s.as_bytes()[run..]);
        out.push(b'"');
    }
}

impl Serializer for JsonWriter {
    fn null(&mut self) {
        self.value();
        self.out.extend_from_slice(b"null");
    }

    fn bool(&mut self, v: bool) {
        self.value();
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
    }

    fn u64(&mut self, v: u64) {
        self.value();
        self.push_u64(v);
    }

    fn i64(&mut self, v: i64) {
        self.value();
        if v < 0 {
            self.out.push(b'-');
        }
        self.push_u64(v.unsigned_abs());
    }

    fn f64(&mut self, v: f64) {
        self.value();
        if v.is_finite() {
            // The shortest text that round-trips, always with a decimal
            // point or exponent (valid JSON): exactly what `{:?}` prints,
            // ties included (see the `float` module).
            float::write_f64(&mut self.out, v);
        } else if v.is_nan() {
            self.out.extend_from_slice(b"\"NaN\"");
        } else if v > 0.0 {
            self.out.extend_from_slice(b"\"Infinity\"");
        } else {
            self.out.extend_from_slice(b"\"-Infinity\"");
        }
    }

    fn str(&mut self, v: &str) {
        self.value();
        self.push_str_literal(v);
    }

    fn seq_begin(&mut self, _len: usize) {
        self.begin(false, b'[');
    }

    fn seq_end(&mut self) {
        self.end(b']');
    }

    fn map_begin(&mut self, _len: usize) {
        self.begin(true, b'{');
    }

    fn key(&mut self, k: &str) {
        self.element();
        self.push_str_literal(k);
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
    }

    fn map_end(&mut self) {
        self.end(b'}');
    }
}

// ---- parser ----

/// Most arrays and objects a document may nest, as in `serde_json`'s
/// recursion limit: deeper input is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::msg(format!(
                        "recursion limit exceeded: more than {MAX_DEPTH} nested arrays or \
                         objects at offset {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::msg(format!(
                "unexpected character at offset {}",
                self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::msg(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error::msg("eof in escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => s.push(self.unicode_escape()?),
                        other => {
                            return Err(Error::msg(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                None => return Err(Error::msg("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    /// The character of a `\u` escape whose four hex digits start at
    /// `pos`. A high surrogate followed by a `\u` low surrogate is one
    /// character (how `json.dumps` writes non-BMP characters); a lone
    /// surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let high_end = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(c).expect("a surrogate pair is a scalar value"));
            }
            // Not a pair: the next escape stands alone.
            self.pos = high_end;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// Exactly four hex digits at `pos`, as a code unit.
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("eof in \\u escape"))?;
        let code = hex
            .iter()
            .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| Error::msg(format!("bad \\u escape at offset {}", self.pos)))?;
        self.pos += 4;
        Ok(code)
    }

    /// Skips ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// An "invalid number" error for the number starting at `start`.
    fn invalid_number(&self, start: usize, what: &str) -> Error {
        Error::msg(format!("invalid number at offset {start}: {what}"))
    }

    /// Parses a number of RFC 8259's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`, as `serde_json`
    /// and Python's `json` do: no leading zeros (`012`, `-01`), and at
    /// least one digit after a `.` (`1.`, `1.e5`) or an exponent mark.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(self.invalid_number(start, "expected a digit")),
            n if n > 1 && self.bytes[int_start] == b'0' => {
                return Err(self.invalid_number(start, "leading zero"));
            }
            _ => {}
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            float = true;
            if self.digits() == 0 {
                return Err(self.invalid_number(start, "expected a digit after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.invalid_number(start, "expected a digit in the exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !float {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<u64>().is_ok() {
                    if let Ok(n) = text.parse::<i64>() {
                        return Ok(Value::I64(n));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|e| Error::msg(format!("invalid number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Value, Error> {
        from_str(text)
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let mut v = parse(&nested(MAX_DEPTH)).expect("at the limit");
        let mut depth = 0;
        while let Value::Seq(items) = v {
            depth += 1;
            v = items.into_iter().next().unwrap_or(Value::Null);
        }
        assert_eq!(depth, MAX_DEPTH);
        let mixed = "{\"a\":".repeat(MAX_DEPTH / 2) + &"[".repeat(MAX_DEPTH / 2);
        let mixed = mixed + &"]".repeat(MAX_DEPTH / 2) + &"}".repeat(MAX_DEPTH / 2);
        assert!(parse(&mixed).is_ok());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_an_overflow() {
        for text in [
            nested(MAX_DEPTH + 1),
            "[".repeat(200_000),
            "{\"a\":".repeat(200_000),
        ] {
            let err = parse(&text).expect_err("too deep");
            assert!(
                err.to_string().starts_with("recursion limit exceeded"),
                "{err}"
            );
        }
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        let v: String = from_str(r#""chat-\ud83d\ude00""#).expect("pair");
        assert_eq!(v, "chat-\u{1f600}");
        let v: String = from_str(r#""\uD834\uDD1E!""#).expect("upper-case pair");
        assert_eq!(v, "\u{1d11e}!");
        // What Python's `json.dumps` writes round-trips.
        assert_eq!(
            from_str::<String>(&to_string("x\u{1f600}").unwrap()).unwrap(),
            "x\u{1f600}"
        );
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        let v: String = from_str(r#""\ud83d""#).expect("lone high");
        assert_eq!(v, "\u{fffd}");
        let v: String = from_str(r#""\ude00x""#).expect("lone low");
        assert_eq!(v, "\u{fffd}x");
        // A high surrogate followed by a non-surrogate escape: both stand.
        let v: String = from_str(r#""\ud83d\u0041""#).expect("high then A");
        assert_eq!(v, "\u{fffd}A");
        let v: String = from_str(r#""\ud83d\ud83d\ude00""#).expect("high, then pair");
        assert_eq!(v, "\u{fffd}\u{1f600}");
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, want) in [
            ("0", Value::U64(0)),
            ("-0", Value::I64(0)),
            ("10", Value::U64(10)),
            ("-12", Value::I64(-12)),
            ("0.5", Value::F64(0.5)),
            ("-0.0", Value::F64(-0.0)),
            ("1e5", Value::F64(1e5)),
            ("1E+5", Value::F64(1e5)),
            ("2.5e-3", Value::F64(2.5e-3)),
            ("0e0", Value::F64(0.0)),
            ("[0,10]", Value::Seq(vec![Value::U64(0), Value::U64(10)])),
        ] {
            assert_eq!(parse(text).expect(text), want, "{text}");
        }
        for (text, what) in [
            ("012", "leading zero"),
            ("-01", "leading zero"),
            ("00", "leading zero"),
            ("01.5", "leading zero"),
            ("1.", "expected a digit after `.`"),
            ("1.e5", "expected a digit after `.`"),
            ("-.5", "expected a digit"),
            ("-", "expected a digit"),
            ("1e", "expected a digit in the exponent"),
            ("1e+", "expected a digit in the exponent"),
            ("[1,016]", "leading zero"),
        ] {
            let err = parse(text).expect_err(text).to_string();
            assert!(err.starts_with("invalid number at offset"), "{text}: {err}");
            assert!(err.ends_with(what), "{text}: {err}");
        }
        // Characters the old scanner swallowed into the number now end it.
        assert!(parse(".5").is_err());
        assert!(parse("1-2").is_err());
        assert!(parse("1.5.3").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            from_str::<String>(r#""\u00e9\u00C9""#).unwrap(),
            "\u{e9}\u{c9}"
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad} parsed");
        }
    }
}
