//! A minimal JSON reader/writer for scene interchange.
//!
//! The build environment has no crates.io access, so scene JSON is handled
//! by this self-contained module instead of `serde_json`. There is one
//! lexer, the pull tokenizer [`Reader`], and two consumers of it:
//!
//! * the scene decoder in [`crate::io`] walks a scene file in a single
//!   pass and parses every number token exactly once, as a borrowed slice
//!   of the input, straight into the record it belongs to — no tree;
//! * [`parse`] builds the small [`Value`] tree that the bench records and
//!   the repo benchmark read their documents with.
//!
//! Either way a number is handed to `str::parse` as its raw source text,
//! so an `f32` written with Rust's shortest round-trip `Display` reads
//! back as the bit-identical `f32` — which is what makes the JSON
//! round-trip tests in [`crate::io`] exact.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Elements of an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number parsed as `f32` (exact for tokens written from `f32`).
    ///
    /// Returns `None` for tokens whose magnitude overflows `f32` (Rust's
    /// parser saturates such tokens to infinity; JSON itself cannot
    /// represent non-finite values, so saturation is always an
    /// out-of-range input, not data).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Value::Num(t) => t.parse().ok().filter(|v: &f32| v.is_finite()),
            _ => None,
        }
    }

    /// Number parsed as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }
}

/// Escapes and quotes a string into `out`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Parses a complete JSON document into a [`Value`] tree.
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the problem.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut r = Reader::new(src);
    let v = build(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// The tree consumer of [`Reader`]: recursion is bounded by its depth cap.
fn build(r: &mut Reader<'_>) -> Result<Value, String> {
    Ok(match r.peek()? {
        Kind::Object => {
            r.begin_object()?;
            let mut members = Vec::new();
            while let Some(key) = r.next_key()? {
                members.push((key.into_owned(), build(r)?));
            }
            Value::Obj(members)
        }
        Kind::Array => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_element()? {
                items.push(build(r)?);
            }
            Value::Arr(items)
        }
        Kind::Str => Value::Str(r.string()?.into_owned()),
        Kind::Num => Value::Num(r.number()?.to_string()),
        Kind::Bool => Value::Bool(r.bool()?),
        Kind::Null => {
            r.null()?;
            Value::Null
        }
    })
}

/// Maximum container nesting the reader accepts. Scene documents nest
/// six levels deep; the cap exists so a pathological foreign input
/// (e.g. `"[".repeat(100_000)`) returns `Err` instead of overflowing
/// the stack of a recursive consumer ([`parse`], [`Reader::skip_value`]).
const MAX_DEPTH: u32 = 128;

/// What the next value is, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `{` — read with [`Reader::begin_object`] / [`Reader::next_key`].
    Object,
    /// `[` — read with [`Reader::begin_array`] / [`Reader::next_element`].
    Array,
    /// `"` — read with [`Reader::string`].
    Str,
    /// `-` or a digit — read with [`Reader::number`] or a typed reader.
    Num,
    /// `t` / `f` — read with [`Reader::bool`].
    Bool,
    /// `n` — read with [`Reader::null`].
    Null,
}

/// A pull tokenizer over a JSON document.
///
/// The consumer drives: it enters a container, asks for the next key or
/// element until the container says it is over, and reads each value with
/// the reader of the type it expects (or [`Reader::skip_value`]). Strings
/// and number tokens are borrowed from the input wherever the source text
/// allows. Every error names the byte offset it was met at.
///
/// ```
/// use gcc_scene::json::Reader;
///
/// let mut r = Reader::new(r#"{"n": 2, "xs": [0.5, 1e-3], "later": {"a": null}}"#);
/// let (mut n, mut xs) = (0, Vec::new());
/// r.begin_object()?;
/// while let Some(key) = r.next_key()? {
///     match &*key {
///         "n" => n = r.u32()?,
///         "xs" => {
///             r.begin_array()?;
///             while r.next_element()? {
///                 xs.push(r.f32()?);
///             }
///         }
///         _ => r.skip_value()?,
///     }
/// }
/// r.finish()?;
/// assert_eq!((n, xs), (2, vec![0.5, 1e-3]));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: u32,
    /// A container was entered and nothing of it read yet, so its first
    /// item is not preceded by a comma.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Byte offset of the cursor, for the consumer's own error messages.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Skips whitespace and classifies the value that follows.
    ///
    /// # Errors
    ///
    /// When no JSON value can start at the cursor.
    pub fn peek(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn begin(&mut self, open: u8) -> Result<(), String> {
        self.skip_ws();
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.fresh = true;
        Ok(())
    }

    /// Enters an object; follow with [`Self::next_key`] until it is `None`.
    ///
    /// # Errors
    ///
    /// When the next value is not an object, or nests deeper than the
    /// cap (128).
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.begin(b'{')
    }

    /// Enters an array; follow with [`Self::next_element`] until it is
    /// `false`.
    ///
    /// # Errors
    ///
    /// When the next value is not an array, or nests deeper than the cap
    /// (128).
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.begin(b'[')
    }

    /// Steps to the next item of the container closed by `close`: past
    /// the separating comma, or past the closer (leaving the container).
    fn next_item(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let at = self.peek_byte();
        if at == Some(close) {
            self.pos += 1;
            self.depth = self.depth.saturating_sub(1);
            self.fresh = false;
            return Ok(false);
        }
        if self.fresh {
            self.fresh = false;
        } else if at == Some(b',') {
            self.pos += 1;
            self.skip_ws();
            // A closer straight after a comma is met by the value
            // reader, which rejects it.
        } else {
            return Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            ));
        }
        Ok(true)
    }

    /// The next member's key, the cursor left at its value; `None` once
    /// the object is closed (and left).
    ///
    /// # Errors
    ///
    /// On a missing separator, a malformed key or a missing `:`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Whether the array has another element, the cursor left at it;
    /// `false` once the array is closed (and left).
    ///
    /// # Errors
    ///
    /// On a missing separator.
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.next_item(b']')
    }

    /// Checks that only whitespace is left.
    ///
    /// # Errors
    ///
    /// On trailing data.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        let hit = self.src.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// When the next value is neither.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// When the next value is not `null`.
    pub fn null(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.literal("null") {
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// The one number lexer: a leading `-` or digit, then the run of
    /// `0-9 . e E + -`. Whether the run is a number is for the caller's
    /// `str::parse` to say. Returns the token and its offset.
    fn token(&mut self) -> Result<(&'a str, usize), String> {
        self.skip_ws();
        let start = self.pos;
        if !matches!(self.peek_byte(), Some(b'-' | b'0'..=b'9')) {
            return Err(format!("expected a number at byte {start}"));
        }
        self.pos += 1;
        while matches!(
            self.peek_byte(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        Ok((&self.src[start..self.pos], start))
    }

    fn parsed<T: std::str::FromStr>(&mut self) -> Result<(T, &'a str, usize), String> {
        let (token, start) = self.token()?;
        match token.parse() {
            Ok(v) => Ok((v, token, start)),
            Err(_) => Err(format!("bad number '{token}' at byte {start}")),
        }
    }

    /// The raw text of a number, checked to be one (`str::parse::<f64>`
    /// accepts it; `f32` accepts exactly the same texts).
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed number.
    pub fn number(&mut self) -> Result<&'a str, String> {
        self.parsed::<f64>().map(|(_, token, _)| token)
    }

    /// A number as `f32` — exact for tokens written from an `f32`.
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed number, or its magnitude
    /// overflows `f32`: Rust's parser saturates such a token to infinity,
    /// and JSON cannot represent a non-finite value, so saturation is
    /// always an out-of-range input, not data.
    pub fn f32(&mut self) -> Result<f32, String> {
        let (v, token, start) = self.parsed::<f32>()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("number '{token}' at byte {start} overflows f32"))
        }
    }

    /// A number as `u32`.
    ///
    /// # Errors
    ///
    /// When the next value is not an unsigned integer that fits.
    pub fn u32(&mut self) -> Result<u32, String> {
        self.parsed().map(|(v, _, _)| v)
    }

    /// A number as `u64`.
    ///
    /// # Errors
    ///
    /// When the next value is not an unsigned integer that fits.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.parsed().map(|(v, _, _)| v)
    }

    /// An array of exactly `N` numbers, as `f32`s (see [`Self::f32`]).
    ///
    /// # Errors
    ///
    /// When the next value is not such an array.
    pub fn f32_array<const N: usize>(&mut self) -> Result<[f32; N], String> {
        self.begin_array()?;
        let mut out = [0.0f32; N];
        for (i, slot) in out.iter_mut().enumerate() {
            if !self.next_element()? {
                return Err(format!(
                    "array of {i} numbers where {N} are due, closed at byte {}",
                    self.pos - 1
                ));
            }
            *slot = self.f32()?;
        }
        if self.next_element()? {
            return Err(format!(
                "array of more than {N} numbers at byte {}",
                self.pos
            ));
        }
        Ok(out)
    }

    /// A string, unescaped; borrowed from the input when it holds no
    /// escape.
    ///
    /// # Errors
    ///
    /// When the next value is not a string, or it is unterminated or
    /// carries a malformed escape or surrogate.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            // `"` and `\` are ASCII, so a run between them is whole
            // characters and slices cleanly.
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let plain = &self.src[run..self.pos];
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut s) => {
                            s.push_str(plain);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(_) => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(plain);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
            }
        }
    }

    /// The character a `\` escape stands for (cursor past the backslash).
    fn escape(&mut self) -> Result<char, String> {
        let esc = self.peek_byte().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = self.hex4()?;
                match code {
                    // High surrogate: a spec-valid document encodes a
                    // supplementary-plane char as a \uHHHH\uLLLL pair.
                    0xD800..=0xDBFF => {
                        if !self.literal("\\u") {
                            return Err("high surrogate not followed by \\u".into());
                        }
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(format!("invalid low surrogate '{low:04x}'"));
                        }
                        let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(scalar).ok_or_else(|| "bad surrogate pair".to_string())?
                    }
                    0xDC00..=0xDFFF => {
                        return Err(format!("lone low surrogate '{code:04x}'"));
                    }
                    c => char::from_u32(c).ok_or_else(|| format!("bad \\u escape '{c:04x}'"))?,
                }
            }
            _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
        })
    }

    /// Reads the four hex digits of a `\u` escape (cursor past the `u`).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape '{hex}'"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads past one value of any shape, holding it to the same syntax
    /// as a value that is read.
    ///
    /// # Errors
    ///
    /// When the value is malformed or nests deeper than the cap (128).
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek()? {
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Kind::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Kind::Str => drop(self.string()?),
            Kind::Num => drop(self.number()?),
            Kind::Bool => drop(self.bool()?),
            Kind::Null => self.null()?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, -2.5e3, true, null], "b": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u32(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn f32_tokens_round_trip_exactly() {
        for x in [0.1f32, 1e-7, -3.4e38, std::f32::consts::PI, 1.0 / 3.0] {
            let doc = format!("[{x}]");
            let v = parse(&doc).unwrap();
            let back = v.as_arr().unwrap()[0].as_f32().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn overflowing_numbers_are_rejected_as_f32() {
        // parse::<f32> saturates 1e39/1e999 to inf; as_f32 must not let
        // that through as a "valid" number.
        for tok in ["1e39", "-1e39", "1e999"] {
            let v = parse(&format!("[{tok}]")).unwrap();
            assert_eq!(v.as_arr().unwrap()[0].as_f32(), None, "{tok}");
        }
        // Underflow to zero and f32::MAX remain accepted.
        let v = parse("[1e-60, 3.4028235e38]").unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_f32(), Some(0.0));
        assert_eq!(v.as_arr().unwrap()[1].as_f32(), Some(f32::MAX));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_are_rejected() {
        // U+1F600 is encoded in JSON as the surrogate pair \ud83d\ude00.
        let v = parse(r#"["\ud83d\ude00 ok"]"#).unwrap();
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some("\u{1F600} ok"));
        // Lone high, lone low, and high + non-surrogate all fail loudly.
        assert!(parse(r#"["\ud83d"]"#).is_err());
        assert!(parse(r#"["\ude00"]"#).is_err());
        assert!(parse(r#"["\ud83dx"]"#).is_err());
        assert!(parse(r#"["\ud83dA"]"#).is_err());
    }

    #[test]
    fn pathological_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Depth within the cap still parses.
        let ok = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn nested_objects_preserve_order() {
        let v = parse(r#"{"z": 1, "a": {"k": [2]}}"#).unwrap();
        if let Value::Obj(members) = &v {
            assert_eq!(members[0].0, "z");
            assert_eq!(members[1].0, "a");
        } else {
            panic!("not an object");
        }
    }
}
