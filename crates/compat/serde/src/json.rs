//! JSON encoding and decoding over the [`Value`] data model —
//! the subset of `serde_json` this workspace uses.

use crate::{Deserialize, Error, Serialize, Value};
use std::fmt::Write as _;

/// Serialize a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    out
}

/// Serialize a value to a two-space-indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    out
}

/// Deserialize a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_value(&value)
}

/// Deepest nesting of `[` and `{` that [`parse`] accepts.
///
/// The parser recurses once per level, so without a bound a document of a
/// few hundred kilobytes of `[` overflows the stack and aborts the process.
/// The deepest documents this workspace writes, the report and shard files
/// of a campaign with phased trace rows and scenario overlays, nest 11
/// levels; 128 leaves a wide margin for hand-written documents while
/// keeping the recursion far from any thread's stack limit.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON string into a [`Value`].
///
/// Runs in time linear in the length of `s`.  Nesting deeper than
/// [`MAX_DEPTH`] is an error.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    Ok(v)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` prints the shortest representation that round-trips.
                let _ = write!(out, "{f:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_compound(out, indent, depth, '[', ']', items.len(), |out, i| {
            write_value(out, &items[i], indent, depth + 1);
        }),
        Value::Map(entries) => {
            write_compound(out, indent, depth, '{', '}', entries.len(), |out, i| {
                write_string(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &entries[i].1, indent, depth + 1);
            })
        }
    }
}

fn write_compound(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..(depth + 1) * width {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
    out.push(close);
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::custom(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    /// Parse a sequence or map one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, compound: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = compound(self);
        self.depth -= 1;
        value
    }

    fn seq(&mut self) -> Result<Value, Error> {
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
                _ => return Err(Error::custom("expected `,` or `]` in sequence")),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
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
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::custom("expected `,` or `}` in map")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next `"` or `\`
            // whole.  Both delimiters are ASCII, so the run ends on a char
            // boundary of `text`.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::custom("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self
                .peek()
                .ok_or_else(|| Error::custom("unterminated escape"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => return Err(Error::custom("unknown escape sequence")),
            });
        }
    }

    /// The character of a `\u` escape whose `\u` is already consumed.  A
    /// UTF-16 high surrogate must be followed by a `\u` low surrogate, and
    /// the pair is one character.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let unpaired = || Error::custom("unpaired surrogate in \\u escape");
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(unpaired());
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(unpaired());
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(unpaired()),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| Error::custom("invalid \\u code point"))
    }

    /// The four hex digits of a `\u` escape, as a UTF-16 code unit.
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| Error::custom("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| Error::custom("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::custom(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "12", "-7", "1.5", "\"hi\\n\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&to_string(&v)).unwrap(), v);
        }
    }

    #[test]
    fn nested_round_trip() {
        let text = r#"{"a": [1, 2.5, {"b": null}], "c": "x\"y"}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        let f = 0.123_456_789_012_345_68_f64;
        let v = Value::Float(f);
        match parse(&to_string(&v)).unwrap() {
            Value::Float(g) => assert_eq!(f, g),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn every_escape_decodes() {
        let v = parse(r#""\"\\\/\b\f\n\r\tAé✓""#).unwrap();
        assert_eq!(v, Value::Str("\"\\/\u{8}\u{c}\n\r\tAé✓".to_string()));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        let v = parse(r#""a\ud83d\ude00b\uD834\uDD1E""#).unwrap();
        assert_eq!(v, Value::Str("a😀b𝄞".to_string()));
    }

    #[test]
    fn lone_surrogates_are_errors() {
        for text in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\"#,
            r#""\ud83d\u12""#,
        ] {
            assert!(parse(text).is_err(), "{text} must be refused");
        }
    }

    #[test]
    fn reversed_surrogate_pairs_are_errors() {
        assert!(parse(r#""\ude00\ud83d""#).is_err());
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        let maps = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&maps).is_err());
        // Depth is nesting, not the number of compounds: many siblings at
        // one level are fine.
        let wide = format!("[{}[]]", "[[]],".repeat(10 * MAX_DEPTH));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn a_100k_deep_document_is_an_error_not_a_stack_overflow() {
        // A spawned thread has the default thread stack, which unbounded
        // recursion over this document overflows, aborting the process.
        let handle = std::thread::spawn(|| {
            let text = "[".repeat(100_000) + &"]".repeat(100_000);
            parse(&text).map(|_| ())
        });
        let result = handle.join().expect("the parser thread must not die");
        let err = result.expect_err("a 100k-deep document must be refused");
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    /// A seeded generator of random [`Value`]s (SplitMix64), standing in
    /// for a property-testing strategy.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Clone>(&mut self, items: &[T]) -> T {
            items[self.below(items.len() as u64) as usize].clone()
        }

        /// A scalar in `range`, re-drawn until it is a `char` (the 3-byte
        /// range contains the surrogates).
        fn char_in(&mut self, range: std::ops::Range<u32>) -> char {
            loop {
                let code = range.start + self.below(u64::from(range.end - range.start)) as u32;
                if let Some(c) = char::from_u32(code) {
                    return c;
                }
            }
        }

        /// Escaped and control characters, and 1- to 4-byte UTF-8.
        fn char(&mut self) -> char {
            match self.below(6) {
                0 => self.pick(&['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{7f}']),
                1 => self.char_in(0..0x20),
                2 => self.char_in(0x20..0x80),
                3 => self.char_in(0x80..0x800),
                4 => self.char_in(0x800..0x1_0000),
                _ => self.char_in(0x1_0000..0x11_0000),
            }
        }

        fn string(&mut self) -> String {
            let len = self.pick(&[0, 1, 3, 12]);
            (0..len).map(|_| self.char()).collect()
        }

        fn float(&mut self) -> f64 {
            if self.below(2) == 0 {
                return self.pick(&[0.0, -0.0, 1.0, -2.5, 1e300, 5e-324, f64::MAX, f64::MIN]);
            }
            loop {
                let f = f64::from_bits(self.next());
                if f.is_finite() {
                    return f;
                }
            }
        }

        /// A value nesting at most `depth` more levels.  The encoder writes
        /// a non-negative `Int` as an unsigned number, which decodes as
        /// `UInt`, so only negative `Int`s are drawn.
        fn value(&mut self, depth: u32) -> Value {
            let kinds = if depth == 0 { 6 } else { 8 };
            match self.below(kinds) {
                0 => self
                    .pick(&[Value::Null, Value::Bool(true), Value::Bool(false)])
                    .clone(),
                1 => {
                    let any = self.next();
                    Value::UInt(self.pick(&[0, 1, u64::MAX, any]))
                }
                2 => {
                    let negative = (self.next() | 1 << 63) as i64;
                    Value::Int(self.pick(&[i64::MIN, -1, negative]))
                }
                3 => Value::Float(self.float()),
                4 | 5 => Value::Str(self.string()),
                6 => {
                    let len = self.pick(&[0, 1, 4]);
                    Value::Seq((0..len).map(|_| self.value(depth - 1)).collect())
                }
                _ => {
                    let len = self.pick(&[0, 1, 4]);
                    Value::Map(
                        (0..len)
                            .map(|_| (self.string(), self.value(depth - 1)))
                            .collect(),
                    )
                }
            }
        }
    }

    #[test]
    fn random_values_round_trip_compact_and_pretty() {
        let mut gen = Gen(0x5EED);
        for case in 0..2_000 {
            let v = gen.value(4);
            let compact = to_string(&v);
            assert_eq!(parse(&compact).unwrap(), v, "case {case}: {compact}");
            let pretty = to_string_pretty(&v);
            assert_eq!(parse(&pretty).unwrap(), v, "case {case}: {pretty}");
        }
    }

    #[test]
    fn large_documents_round_trip() {
        // A decoder that is quadratic in the document size runs for hours
        // on this document; a linear one takes well under a second.
        let unit = "héllo wörld ✓ 😀 \"q\" \\ \t ";
        let text = unit.repeat((4 << 20) / unit.len() + 1);
        assert!(text.len() >= 4 << 20);
        let map = (0..100_000u64)
            .map(|i| (format!("key-{i}-é"), Value::UInt(i)))
            .collect();
        let v = Value::Seq(vec![Value::Str(text), Value::Map(map)]);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }
}
