//! A minimal JSON value model, renderer, and parser.
//!
//! Every snapshot format in this crate is rendered and parsed by hand. The
//! surface is deliberately small: the snapshot schema only needs objects,
//! arrays, strings, booleans, `u64` counters, and `f64` samples.
//!
//! Numbers keep their integer-ness through a round trip: the parser tries
//! `u64` first and falls back to `f64`, and the renderer prints `f64`s with
//! Rust's shortest-roundtrip `Display`, so `parse(render(v)) == v` for every
//! finite value. Non-finite floats render as `null` (JSON has no NaN) and
//! parse back as [`f64::NAN`] in number position.
//!
//! There is one renderer, [`JsonValue::render_into`]: it appends compact
//! JSON to a caller's string, writing integer digits and unescaped string
//! runs directly rather than through `fmt`, so multi-megabyte checkpoint
//! documents render at memory speed. `Display` delegates to it. The parser
//! is linear in the input: unescaped string runs are copied as one slice.
//!
//! Parsed documents are taken apart with one set of typed reads
//! ([`JsonValue::field`], [`int`](JsonValue::int),
//! [`opt_int`](JsonValue::opt_int), [`text`](JsonValue::text),
//! [`items`](JsonValue::items), [`ints`](JsonValue::ints)): every checkpoint
//! reader in the workspace, from a defense's counter lanes to the fleet
//! footer's line CRCs, uses them, so a damaged field is refused with its
//! name the same way at every layer.

use std::fmt::{self, Write as _};

/// A parsed or to-be-rendered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, timestamps).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved by the renderer.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value under `key` if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(n) => Some(n),
            JsonValue::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` (`null` maps to NaN, mirroring the renderer).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::U64(n) => Some(n as f64),
            JsonValue::F64(f) => Some(f),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Typed reads of a parsed document: the one way every checkpoint reader
/// takes a field apart.
///
/// Each keyed read requires `key` to be present and names it in its error;
/// integers narrow to the caller's type with `try_from`, so a value too
/// wide for its field is refused rather than wrapped.
impl JsonValue {
    /// The value under `key`.
    ///
    /// # Errors
    ///
    /// When `key` is absent (or `self` is not an object).
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key).ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The integer under `key`, narrowed to `T`.
    ///
    /// # Errors
    ///
    /// When `key` is absent, not an integer, or out of `T`'s range.
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        named(key, self.field(key)?.to_int())
    }

    /// The integer or `null` under `key`, narrowed to `T`.
    ///
    /// # Errors
    ///
    /// As [`int`](Self::int); `null` reads as `None`, absence is an error.
    pub fn opt_int<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.field(key)? {
            JsonValue::Null => Ok(None),
            v => named(key, v.to_int().map(Some)),
        }
    }

    /// The string under `key`.
    ///
    /// # Errors
    ///
    /// When `key` is absent or not a string.
    pub fn text(&self, key: &str) -> Result<&str, String> {
        named(key, self.field(key)?.as_str().ok_or_else(|| "not a string".to_owned()))
    }

    /// The array under `key`.
    ///
    /// # Errors
    ///
    /// When `key` is absent or not an array.
    pub fn items(&self, key: &str) -> Result<&[JsonValue], String> {
        named(key, self.field(key)?.as_arr().ok_or_else(|| "not an array".to_owned()))
    }

    /// The integer array under `key`, every element narrowed to `T`.
    ///
    /// # Errors
    ///
    /// When `key` is absent or any element fails [`to_int`](Self::to_int).
    pub fn ints<T: TryFrom<u64>>(&self, key: &str) -> Result<Vec<T>, String> {
        named(key, self.field(key)?.to_ints())
    }

    /// This value as an integer narrowed to `T`: the element read.
    ///
    /// # Errors
    ///
    /// When it is not an integer or out of `T`'s range.
    pub fn to_int<T: TryFrom<u64>>(&self) -> Result<T, String> {
        let n = self.as_u64().ok_or_else(|| "not an integer".to_owned())?;
        T::try_from(n).map_err(|_| format!("{n} is out of range"))
    }

    /// This value as an integer array, every element narrowed to `T`.
    ///
    /// # Errors
    ///
    /// When it is not an array or any element fails [`to_int`](Self::to_int).
    pub fn to_ints<T: TryFrom<u64>>(&self) -> Result<Vec<T>, String> {
        self.as_arr().ok_or_else(|| "not an array".to_owned())?.iter().map(Self::to_int).collect()
    }
}

/// Prefixes a failed read of `key` with the key's name.
fn named<T>(key: &str, read: Result<T, String>) -> Result<T, String> {
    read.map_err(|e| format!("field `{key}`: {e}"))
}

/// Builds an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

impl JsonValue {
    /// Appends the compact rendering of `self` to `out`: no whitespace,
    /// object fields in insertion order.
    pub fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(n) => push_u64(out, *n),
            JsonValue::F64(v) => push_f64(out, *v),
            JsonValue::Str(s) => push_escaped(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    // Checkpoint lanes are long integer arrays: render their
                    // elements without a recursive call each.
                    match item {
                        JsonValue::U64(n) => push_u64(out, *n),
                        other => other.render_into(out),
                    }
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_key(out, k);
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Two ASCII digits per value below 100, so integers render two digits per
/// division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends the decimal digits of `n`, pushed one ASCII character at a time:
/// for the short numbers checkpoints are made of, that beats copying a
/// slice.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    for &digit in &buf[i..] {
        out.push(char::from(digit));
    }
}

/// Appends `"key":` with `key` escaped: the opening of one object field.
pub fn push_key(out: &mut String, key: &str) {
    push_escaped(out, key);
    out.push(':');
}

/// Renders `f64` per the module contract: shortest-roundtrip `Display` for
/// finite values, `null` otherwise.
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // `Display` omits a decimal point for integral values ("3" not "3.0"),
    // which the integer-first parser would read back as `U64`. Keeping the
    // point preserves the float-ness through a round trip (integral `f64`s
    // print their exact expansion, so no precision is lost).
    let _ = if v.fract() == 0.0 { write!(out, "{v:.1}") } else { write!(out, "{v}") };
}

/// Appends `s` as a quoted JSON string. Runs without a character that
/// needs escaping are copied as one slice; every escaped character is
/// ASCII, so the runs split on character boundaries.
fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render_into(&mut out);
        f.write_str(&out)
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first malformation, with the
/// byte offset it was found at.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", JsonValue::Null),
            Some(b't') => self.eat_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                Err(format!("unexpected byte '{}' at offset {}", other as char, self.pos))
            }
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at offset {start}"))?;
        // Integer-looking text stays an integer so counters round-trip
        // exactly; anything else (point, exponent, sign) becomes f64.
        if !text.contains(['.', 'e', 'E', '-', '+']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| format!("invalid number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at {}", self.pos))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u codepoint at {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice. Both delimiters are ASCII, so the run ends on a
                    // character boundary of the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_value() {
        let v = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("graphene.spillover".into())),
            ("bank".into(), JsonValue::U64(3)),
            ("value".into(), JsonValue::F64(1.5)),
            ("flags".into(), JsonValue::Arr(vec![JsonValue::Bool(true), JsonValue::Null])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_round_trip_exactly() {
        let v = JsonValue::U64(u64::MAX);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_via_shortest_display() {
        for f in [0.1, 1.0 / 3.0, 1e-300, 2.5e17, -42.75] {
            let v = JsonValue::F64(f);
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{f}");
        }
    }

    #[test]
    fn integral_floats_keep_the_decimal_point() {
        assert_eq!(JsonValue::F64(3.0).to_string(), "3.0");
        assert_eq!(parse("3.0").unwrap(), JsonValue::F64(3.0));
    }

    #[test]
    fn non_finite_renders_null() {
        assert_eq!(JsonValue::F64(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = JsonValue::Str("a\"b\\c\nd\te\u{1}f".into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn multibyte_text_round_trips_beside_escapes() {
        for text in [
            "é",
            "aé",
            "é\"",
            "\\é",
            "\u{1}é\n",
            "naïve \"quote\" ends in ü",
            "日本語\t→\\",
            "ends in a four-byte scalar 🦀",
            "🦀\"🦀\\🦀",
        ] {
            let v = JsonValue::Str(text.to_owned());
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{text:?}");
            let key = JsonValue::Obj(vec![(text.to_owned(), JsonValue::U64(1))]);
            assert_eq!(parse(&key.to_string()).unwrap(), key, "{text:?}");
        }
        assert_eq!(parse("\"x\\u00e9\"").unwrap(), JsonValue::Str("xé".to_owned()));
    }

    #[test]
    fn renders_compact_text() {
        let v = obj(vec![
            (
                "n",
                JsonValue::Arr(
                    vec![0, 9, 10, 99, 100, 12_345, u64::MAX]
                        .into_iter()
                        .map(JsonValue::U64)
                        .collect(),
                ),
            ),
            ("s", JsonValue::Str("a\"\\\n\r\t\u{1f}\u{7f}é".to_owned())),
            ("f", JsonValue::Arr(vec![JsonValue::F64(2.0), JsonValue::F64(-0.25)])),
            (
                "b",
                JsonValue::Arr(vec![
                    JsonValue::Bool(true),
                    JsonValue::Bool(false),
                    JsonValue::Null,
                ]),
            ),
            ("e", JsonValue::Obj(Vec::new())),
        ]);
        let mut out = String::from("prefix ");
        v.render_into(&mut out);
        let expected = "{\"n\":[0,9,10,99,100,12345,18446744073709551615],\
                        \"s\":\"a\\\"\\\\\\n\\r\\t\\u001f\u{7f}é\",\
                        \"f\":[2.0,-0.25],\"b\":[true,false,null],\"e\":{}}";
        assert_eq!(out, format!("prefix {expected}"));
        assert_eq!(v.to_string(), expected);
    }

    /// One object carrying, for every typed read, a good value, a mistyped
    /// one, a too-wide one and a `null`.
    fn typed_fields() -> JsonValue {
        parse(
            "{\"n\":7,\"wide\":4294967296,\"s\":\"x\",\"z\":null,\
             \"lane\":[1,2,3],\"wide_lane\":[1,4294967296],\"mixed\":[1,\"x\"]}",
        )
        .unwrap()
    }

    #[test]
    fn field_names_a_missing_key() {
        let v = typed_fields();
        assert_eq!(v.field("n"), Ok(&JsonValue::U64(7)));
        assert_eq!(v.field("gone"), Err("missing field `gone`".to_owned()));
        assert!(JsonValue::U64(1).field("n").unwrap_err().contains("`n`"));
    }

    #[test]
    fn int_reads_and_narrows() {
        let v = typed_fields();
        assert_eq!(v.int::<u64>("n"), Ok(7));
        assert_eq!(v.int::<u8>("n"), Ok(7));
        assert_eq!(v.int::<u64>("wide"), Ok(1 << 32));
        assert_eq!(v.int::<u32>("gone"), Err("missing field `gone`".to_owned()));
        assert_eq!(v.int::<u32>("s"), Err("field `s`: not an integer".to_owned()));
        assert_eq!(
            v.int::<u32>("wide"),
            Err("field `wide`: 4294967296 is out of range".to_owned())
        );
        assert_eq!(v.int::<u32>("z"), Err("field `z`: not an integer".to_owned()));
    }

    #[test]
    fn opt_int_reads_null_as_none_but_requires_the_key() {
        let v = typed_fields();
        assert_eq!(v.opt_int::<u32>("n"), Ok(Some(7)));
        assert_eq!(v.opt_int::<u32>("z"), Ok(None));
        assert_eq!(v.opt_int::<u32>("gone"), Err("missing field `gone`".to_owned()));
        assert_eq!(v.opt_int::<u32>("s"), Err("field `s`: not an integer".to_owned()));
        assert_eq!(
            v.opt_int::<u32>("wide"),
            Err("field `wide`: 4294967296 is out of range".to_owned())
        );
    }

    #[test]
    fn text_reads_strings_only() {
        let v = typed_fields();
        assert_eq!(v.text("s"), Ok("x"));
        assert_eq!(v.text("gone"), Err("missing field `gone`".to_owned()));
        assert_eq!(v.text("n"), Err("field `n`: not a string".to_owned()));
        assert_eq!(v.text("z"), Err("field `z`: not a string".to_owned()));
    }

    #[test]
    fn items_reads_arrays_only() {
        let v = typed_fields();
        assert_eq!(v.items("lane").map(<[_]>::len), Ok(3));
        assert_eq!(v.items("gone"), Err("missing field `gone`".to_owned()));
        assert_eq!(v.items("n"), Err("field `n`: not an array".to_owned()));
        assert_eq!(v.items("z"), Err("field `z`: not an array".to_owned()));
    }

    #[test]
    fn ints_read_and_narrow_every_element() {
        let v = typed_fields();
        assert_eq!(v.ints::<u32>("lane"), Ok(vec![1, 2, 3]));
        assert_eq!(v.ints::<u64>("wide_lane"), Ok(vec![1, 1 << 32]));
        assert_eq!(v.ints::<u32>("gone"), Err("missing field `gone`".to_owned()));
        assert_eq!(v.ints::<u32>("n"), Err("field `n`: not an array".to_owned()));
        assert_eq!(v.ints::<u32>("mixed"), Err("field `mixed`: not an integer".to_owned()));
        assert_eq!(
            v.ints::<u32>("wide_lane"),
            Err("field `wide_lane`: 4294967296 is out of range".to_owned())
        );
        assert_eq!(v.ints::<u32>("z"), Err("field `z`: not an array".to_owned()));
    }

    #[test]
    fn element_reads_take_no_key() {
        assert_eq!(JsonValue::U64(9).to_int::<u16>(), Ok(9));
        assert_eq!(
            JsonValue::U64(1 << 16).to_int::<u16>(),
            Err("65536 is out of range".to_owned())
        );
        assert_eq!(JsonValue::Null.to_int::<u16>(), Err("not an integer".to_owned()));
        assert_eq!(JsonValue::F64(-1.0).to_int::<u64>(), Err("not an integer".to_owned()));
        let pair = JsonValue::Arr(vec![JsonValue::U64(4), JsonValue::U64(5)]);
        assert_eq!(pair.to_ints::<u8>(), Ok(vec![4, 5]));
        assert_eq!(JsonValue::Null.to_ints::<u8>(), Err("not an array".to_owned()));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").unwrap_err().contains("trailing"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn accessors_extract_fields() {
        let v = parse("{\"a\": 7, \"b\": [1.5], \"c\": \"x\"}").unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("b").and_then(JsonValue::as_arr).map(<[_]>::len), Some(1));
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        assert!(v.get("missing").is_none());
    }
}
