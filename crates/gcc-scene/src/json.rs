//! A minimal JSON reader/writer for scene interchange.
//!
//! The build environment has no crates.io access, so scene JSON is handled
//! by this self-contained module instead of `serde_json`. There is one
//! lexer, the pull tokenizer [`Reader`], and two consumers of it:
//!
//! * the scene decoder in [`crate::io`] walks a scene file in a single
//!   pass and reads every number token exactly once, in place, straight
//!   into the record it belongs to — no tree;
//! * [`parse`] builds the small [`Value`] tree that the bench records and
//!   the repo benchmark read their documents with.
//!
//! The contract on numbers is the value: a token reads as the `f32`
//! nearest to the decimal it spells, which is what `str::parse::<f32>`
//! returns, so an `f32` written with Rust's shortest round-trip `Display`
//! reads back as the bit-identical `f32` — which is what makes the JSON
//! round-trip tests in [`crate::io`] exact. The routine is not always
//! `str::parse`: [`Reader::f32`] converts a plain decimal of at most 19
//! digits (`-?D+(.D+)?`, all the writer emits but for values under
//! ≈ 1e-10 or over 2^53 ≈ 9e15) itself — one integer accumulate, one
//! `f64` divide, one guard (`exact_f32`) — and hands everything else
//! (exponents, longer digit runs, anything malformed) to `str::parse` as
//! its raw source text, which therefore still decides what is accepted
//! and with which error. The [`Value`] tree keeps number tokens as text
//! and reads them with `str::parse` only.

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
    /// Always through `str::parse::<f32>`, never [`Reader::f32`]'s fast
    /// path: this is a cold call, and it is what `scene_file_tests.rs`'s
    /// tree decoder reads numbers with — the independent oracle the
    /// streaming decoder is held against, which routing it through the
    /// fast path would turn into the fast path compared with itself.
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

/// `10^k` for every `k` [`exact_f32`] divides by: each is an exact `f64`
/// (as is every power of ten up to `10^22`).
const POW10: [f64; 19] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

/// The number fast path: reads a plain decimal `-?D+(.D+)?` at `start`
/// and returns its value as the nearest `f32` with the offset just past
/// it, or `None` — nothing consumed — for every token the general route
/// ([`Reader::token`] + `str::parse::<f32>`) has to see.
///
/// Taken are tokens of at most 19 digits (so `w`, the digits read as one
/// integer, fits a `u64`, and `k`, the count of fraction digits, is at
/// most 18) with `w ≤ 2^53`, followed by none of `. e E + -` (so the
/// token ends where `token()` would end it). The value is
/// `(w as f64 / 10^k) as f32`, and that is Clinger's exact case taken
/// through `f64`: `w` and `10^k` are exact `f64`s and IEEE division is
/// correctly rounded, so the quotient `q` is the `f64` nearest to the
/// real value `x`; rounding is monotone and every `f32` rounding boundary
/// (the midpoint of two adjacent `f32`s) is itself an `f64`, so `q` lies
/// on the same side of every boundary as `x` does — unless `q` *is* a
/// boundary, which says nothing about the side `x` is on, and is left to
/// the general route. A non-zero `q` lies in `[1e-18, 2^53]`, inside
/// `f32`'s normal range, so a boundary is exactly a `q` whose 29
/// significand bits below `f32`'s 23 read `1000…0`.
fn exact_f32(src: &[u8], start: usize) -> Option<(f32, usize)> {
    // Digits from `pos` on, folded into `w`; a run too long for `w`
    // wraps, and is turned away by its length below.
    let digits = |mut pos: usize, w: &mut u64| {
        while let Some(d) = src
            .get(pos)
            .map(|b| b.wrapping_sub(b'0'))
            .filter(|&d| d < 10)
        {
            *w = w.wrapping_mul(10).wrapping_add(u64::from(d));
            pos += 1;
        }
        pos
    };
    let negative = src.get(start) == Some(&b'-');
    let first = start + usize::from(negative);
    let mut w = 0u64;
    let mut end = digits(first, &mut w);
    let mut count = end - first;
    let mut k = 0;
    if count > 0 && src.get(end) == Some(&b'.') {
        let frac = end + 1;
        end = digits(frac, &mut w);
        k = end - frac;
        if k == 0 {
            return None;
        }
        count += k;
    }
    if count == 0
        || count > 19
        || w > 1 << 53
        || matches!(src.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        return None;
    }
    let q = w as f64 / POW10[k];
    if q.to_bits() & 0x1fff_ffff == 0x1000_0000 {
        return None;
    }
    // The sign goes on as a bit, so `-0` stays `-0.0`.
    let bits = (q as f32).to_bits() | u32::from(negative) << 31;
    Some((f32::from_bits(bits), end))
}

/// The offset of the first byte at or after `pos` that is not JSON
/// whitespace.
#[inline]
fn ws_end(bytes: &[u8], mut pos: usize) -> usize {
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

/// What [`Reader::flat_arrays`] found of an array of flat arrays.
#[derive(Debug)]
pub(crate) struct FlatArrays {
    /// Offset of the `[` of every element the walk passed.
    pub starts: Vec<usize>,
    /// Offset of the array's own `]`, when the walk got that far: every
    /// gap up to it checked out and `starts` is all the elements there
    /// are.
    pub close: Option<usize>,
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
        self.pos = ws_end(self.src.as_bytes(), self.pos);
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
    /// `str::parse` to say. Returns the token and its offset. ([`exact_f32`]
    /// reads a plain decimal without it, and only one that ends where this
    /// would end it.)
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

    /// A number as `f32`: the `f32` nearest to the decimal the token
    /// spells, ties to even — so a token written from an `f32` with
    /// Rust's shortest round-trip `Display` reads back as the identical
    /// bits. A plain decimal of at most 19 digits is converted here
    /// (`exact_f32`: one integer accumulate, one `f64` divide, one guard);
    /// every other token, and every error, is `str::parse::<f32>`'s.
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed number, or its magnitude
    /// overflows `f32`: Rust's parser saturates such a token to infinity,
    /// and JSON cannot represent a non-finite value, so saturation is
    /// always an out-of-range input, not data.
    pub fn f32(&mut self) -> Result<f32, String> {
        self.skip_ws();
        if let Some((v, end)) = exact_f32(self.src.as_bytes(), self.pos) {
            self.pos = end;
            return Ok(v);
        }
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
            // What the compact writer emits between two numbers: a comma
            // with the next plain decimal right behind it. Anything else
            // (whitespace, the closer, an exponent, an error) is for the
            // general steps below to handle from the same cursor.
            if i > 0 && self.peek_byte() == Some(b',') {
                if let Some((v, end)) = exact_f32(self.src.as_bytes(), self.pos + 1) {
                    (*slot, self.pos) = (v, end);
                    continue;
                }
            }
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

    /// Walks the array just entered ([`Self::begin_array`], nothing read
    /// since) without decoding it, taking each element to be a flat array
    /// that ends at the first `]` after its `[` and holds at least
    /// `min_len` bytes. The walk holds the gaps between elements to
    /// exactly what [`Self::next_element`] and [`Self::begin_array`]
    /// accept between two arrays, and stops at the first thing that is
    /// not one; what is *inside* an element it does not look at, so an
    /// element that is no flat array of numbers — a nested array, a
    /// string holding a bracket — shows up as an element the caller fails
    /// to decode, or as a gap that does not check out.
    ///
    /// It is what lets a consumer of a long array of records size its
    /// output once and decode the records out of order (each from
    /// [`Self::at`] its start): when the walk reaches the closer and every
    /// element decodes, the elements are what the sequential readers
    /// would have read, because those stop at the same brackets.
    pub(crate) fn flat_arrays(&self, min_len: usize) -> FlatArrays {
        let bytes = self.src.as_bytes();
        let skip_ws = |pos: usize| ws_end(bytes, pos);
        let mut starts = Vec::new();
        let mut pos = skip_ws(self.pos);
        let mut close = (bytes.get(pos) == Some(&b']')).then_some(pos);
        while close.is_none() && bytes.get(pos) == Some(&b'[') {
            // `[` is ASCII, so `pos` is a character boundary.
            let Some(len) = self.src[pos..].find(']').filter(|len| len + 1 >= min_len) else {
                break;
            };
            starts.push(pos);
            pos = skip_ws(pos + len + 1);
            match bytes.get(pos) {
                Some(b',') => pos = skip_ws(pos + 1),
                Some(b']') => close = Some(pos),
                _ => break,
            }
        }
        FlatArrays { starts, close }
    }

    /// A reader of the same document inside the same containers, its
    /// cursor at `pos` with a value due there.
    pub(crate) fn at(&self, pos: usize) -> Self {
        Self {
            src: self.src,
            pos,
            depth: self.depth,
            fresh: false,
        }
    }

    /// Leaves the current array through its closer at `close`, as found by
    /// [`Self::flat_arrays`], skipping what lies before it.
    pub(crate) fn leave_array_at(&mut self, close: usize) {
        self.pos = close;
        let more = self.next_element();
        debug_assert_eq!(more, Ok(false));
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
        // `from_str_radix` alone would take a sign: `\u+041` is no escape.
        let code = u32::from_str_radix(hex, 16)
            .ok()
            .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape '{hex}'"))?;
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
    fn a_signed_u_escape_is_malformed() {
        // `u32::from_str_radix` reads "+041" as 0x41.
        for doc in [r#"["\u+041"]"#, r#"["\ud83d\u+e00"]"#] {
            let err = parse(doc).unwrap_err();
            assert!(err.contains("bad \\u escape '+"), "{doc}: {err}");
        }
        let v = parse(r#"["\u0041\u00e9\u00E9\ud83d\ude00"]"#).unwrap();
        assert_eq!(
            v.as_arr().unwrap()[0].as_str(),
            Some("A\u{e9}\u{e9}\u{1F600}")
        );
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

    // ---- what the number reader accepts, rejects and where it stops ----
    //
    // Taken from the reader whose every `f32` went through `token()` +
    // `str::parse::<f32>`, and committed green against it. A later change
    // to how numbers are read must leave every value here as it is: the
    // bits, the full error text with its byte offset, and the cursor.

    type Pinned<T> = Result<T, &'static str>;

    /// `Reader::f32` on a bare text: the bits or the error, then
    /// `Reader::offset()` after the read.
    const PINNED_TOKENS: &[(&str, Pinned<u32>, usize)] = &[
        ("0", Ok(0x00000000), 1),
        ("-0", Ok(0x80000000), 2),
        ("1", Ok(0x3f800000), 1),
        ("-1", Ok(0xbf800000), 2),
        ("0.1", Ok(0x3dcccccd), 3),
        ("0.3", Ok(0x3e99999a), 3),
        ("-0.25,", Ok(0xbe800000), 5),
        ("1.5]", Ok(0x3fc00000), 3),
        (" \t\r\n2.5 ,", Ok(0x40200000), 7),
        ("01", Ok(0x3f800000), 2),
        ("007.50", Ok(0x40f00000), 6),
        ("1.", Ok(0x3f800000), 2),
        ("-.5", Ok(0xbf000000), 3),
        ("1e5", Ok(0x47c35000), 3),
        ("1E+2", Ok(0x42c80000), 4),
        ("1.5e-3 ", Ok(0x3ac49ba6), 6),
        ("-1.5E-3]", Ok(0xbac49ba6), 7),
        ("1.e5", Ok(0x47c35000), 4),
        ("1e-60", Ok(0x00000000), 5),
        ("1e39", Err("number '1e39' at byte 0 overflows f32"), 4),
        ("-1e39", Err("number '-1e39' at byte 0 overflows f32"), 5),
        ("1e400", Err("number '1e400' at byte 0 overflows f32"), 5),
        ("3.4028235e38", Ok(0x7f7fffff), 12),
        (
            "340282350000000000000000000000000000000",
            Ok(0x7f7fffff),
            39,
        ),
        (
            "340282360000000000000000000000000000000",
            Err("number '340282360000000000000000000000000000000' at byte 0 overflows f32"),
            39,
        ),
        ("16777217", Ok(0x4b800000), 8),
        ("16777217.0000001", Ok(0x4b800001), 16),
        ("16777216.9999999", Ok(0x4b800000), 16),
        ("9007199254740992", Ok(0x5a000000), 16),
        ("9007199254740993", Ok(0x5a000000), 16),
        ("1234567890123456789", Ok(0x5d891088), 19),
        ("12345678901234567890", Ok(0x5f2b54aa), 20),
        ("0.000000000000000001", Ok(0x219392ef), 20),
        ("0.0000000000000000001", Ok(0x1fec1e4a), 21),
        ("1.17549435e-38", Ok(0x00800000), 14),
        (
            "0.00000000000000000000000000000000000001",
            Ok(0x006ce3ee),
            40,
        ),
        (
            "0.000000000000000000000000000000000000000000001",
            Ok(0x00000001),
            47,
        ),
        (
            "0.000000000000000000000000000000000000000000000000000000000001",
            Ok(0x00000000),
            62,
        ),
        ("4.000000238418579", Ok(0x40800000), 17),
        ("4.0000002384185791015625", Ok(0x40800000), 24),
        ("1.00000005960464477539062", Ok(0x3f800000), 25),
        ("8388608.5", Ok(0x4b000000), 9),
        ("8388609.5", Ok(0x4b000002), 9),
        ("0.10000000149011612", Ok(0x3dcccccd), 19),
        ("123456.789", Ok(0x47f12065), 10),
        ("-98765.4321x", Ok(0xc7c0e6b7), 11),
        ("-0.0", Ok(0x80000000), 4),
        ("-0.000", Ok(0x80000000), 6),
        ("0e0", Ok(0x00000000), 3),
        ("-0e-5", Ok(0x80000000), 5),
        ("1x", Ok(0x3f800000), 1),
        ("0x10", Ok(0x00000000), 1),
        ("1_000", Ok(0x3f800000), 1),
        ("0.5f", Ok(0x3f000000), 3),
        ("1\u{e9}", Ok(0x3f800000), 1),
        ("", Err("expected a number at byte 0"), 0),
        (" ", Err("expected a number at byte 1"), 1),
        ("-", Err("bad number '-' at byte 0"), 1),
        ("--1", Err("bad number '--1' at byte 0"), 3),
        ("1-2", Err("bad number '1-2' at byte 0"), 3),
        ("1+1", Err("bad number '1+1' at byte 0"), 3),
        ("1.5.2", Err("bad number '1.5.2' at byte 0"), 5),
        ("1..2", Err("bad number '1..2' at byte 0"), 4),
        ("1e", Err("bad number '1e' at byte 0"), 2),
        ("1e+", Err("bad number '1e+' at byte 0"), 3),
        ("1ee5", Err("bad number '1ee5' at byte 0"), 4),
        ("1e5.5", Err("bad number '1e5.5' at byte 0"), 5),
        ("5e-1-", Err("bad number '5e-1-' at byte 0"), 5),
        ("-1.5e", Err("bad number '-1.5e' at byte 0"), 5),
        (".5", Err("expected a number at byte 0"), 0),
        ("+1", Err("expected a number at byte 0"), 0),
        ("e5", Err("expected a number at byte 0"), 0),
        ("-e5", Err("bad number '-e5' at byte 0"), 3),
        ("-inf", Err("bad number '-' at byte 0"), 1),
        ("inf", Err("expected a number at byte 0"), 0),
        ("NaN", Err("expected a number at byte 0"), 0),
        ("-nan", Err("bad number '-' at byte 0"), 1),
        ("\u{663}", Err("expected a number at byte 0"), 0),
    ];

    /// `Reader::f32_array::<N>` on a document, `N` in the second column:
    /// the bits or the error, then `Reader::offset()` afterwards.
    const PINNED_ARRAYS: &[(&str, usize, Pinned<&[u32]>, usize)] = &[
        ("[1]", 1, Ok(&[0x3f800000]), 3),
        ("[1,2]", 2, Ok(&[0x3f800000, 0x40000000]), 5),
        ("[ 1.5 , -2.25 ]", 2, Ok(&[0x3fc00000, 0xc0100000]), 15),
        (
            "[1\n,\n2,3]",
            3,
            Ok(&[0x3f800000, 0x40000000, 0x40400000]),
            9,
        ),
        (
            "[0.1,0.3,-0]",
            3,
            Ok(&[0x3dcccccd, 0x3e99999a, 0x80000000]),
            12,
        ),
        (
            "[1e5,1E+2,-1.5e-3]",
            3,
            Ok(&[0x47c35000, 0x42c80000, 0xbac49ba6]),
            18,
        ),
        ("[1e-60]", 1, Ok(&[0x00000000]), 7),
        ("[01]", 1, Ok(&[0x3f800000]), 4),
        ("[1.]", 1, Ok(&[0x3f800000]), 4),
        ("[-.5]", 1, Ok(&[0xbf000000]), 5),
        (
            "[]",
            1,
            Err("array of 0 numbers where 1 are due, closed at byte 1"),
            2,
        ),
        (
            "[1]",
            2,
            Err("array of 1 numbers where 2 are due, closed at byte 2"),
            3,
        ),
        ("[1,2]", 1, Err("array of more than 1 numbers at byte 3"), 3),
        (
            "[1,2,3,4]",
            3,
            Err("array of more than 3 numbers at byte 7"),
            7,
        ),
        ("[1,]", 1, Err("array of more than 1 numbers at byte 3"), 3),
        ("[1,]", 2, Err("expected a number at byte 3"), 3),
        ("[,1]", 1, Err("expected a number at byte 1"), 1),
        ("[1,,2]", 2, Err("expected a number at byte 3"), 3),
        ("[1 2]", 2, Err("expected ',' or ']' at byte 3"), 3),
        ("[-]", 1, Err("bad number '-' at byte 1"), 2),
        ("[--1]", 1, Err("bad number '--1' at byte 1"), 4),
        ("[1-2]", 1, Err("bad number '1-2' at byte 1"), 4),
        ("[1.5.2]", 1, Err("bad number '1.5.2' at byte 1"), 6),
        ("[1e]", 1, Err("bad number '1e' at byte 1"), 3),
        ("[1e39]", 1, Err("number '1e39' at byte 1 overflows f32"), 5),
        (
            "[-1e39]",
            1,
            Err("number '-1e39' at byte 1 overflows f32"),
            6,
        ),
        ("[.5]", 1, Err("expected a number at byte 1"), 1),
        ("[+1]", 1, Err("expected a number at byte 1"), 1),
        ("[1x]", 1, Err("expected ',' or ']' at byte 2"), 2),
        ("[0x10]", 1, Err("expected ',' or ']' at byte 2"), 2),
        ("[1,2", 2, Err("expected ',' or ']' at byte 4"), 4),
        ("[1,2.", 2, Err("expected ',' or ']' at byte 5"), 5),
        ("[1,2.5", 2, Err("expected ',' or ']' at byte 6"), 6),
        ("[1,-", 2, Err("bad number '-' at byte 3"), 4),
        ("[1,", 2, Err("expected a number at byte 3"), 3),
        ("[", 1, Err("expected a number at byte 1"), 1),
        ("1]", 1, Err("expected '[' at byte 0"), 0),
        ("[true]", 1, Err("expected a number at byte 1"), 1),
        ("[[1]]", 1, Err("expected a number at byte 1"), 1),
        ("[\"1\"]", 1, Err("expected a number at byte 1"), 1),
    ];

    #[test]
    fn number_tokens_are_pinned() {
        for &(text, want, cursor) in PINNED_TOKENS {
            let mut r = Reader::new(text);
            let got = r.f32().map(f32::to_bits);
            assert_eq!(got, want.map_err(str::to_string), "{text:?}");
            assert_eq!(r.offset(), cursor, "cursor after {text:?}");
        }
    }

    #[test]
    fn number_arrays_are_pinned() {
        fn read<const N: usize>(doc: &str) -> (Result<Vec<u32>, String>, usize) {
            let mut r = Reader::new(doc);
            let got = r.f32_array::<N>();
            (got.map(|a| a.map(f32::to_bits).to_vec()), r.offset())
        }
        for &(doc, n, want, cursor) in PINNED_ARRAYS {
            let (got, at) = match n {
                1 => read::<1>(doc),
                2 => read::<2>(doc),
                3 => read::<3>(doc),
                _ => unreachable!("no pinned array of {n}"),
            };
            let want = want.map(<[u32]>::to_vec).map_err(str::to_string);
            assert_eq!(got, want, "{doc:?} as {n}");
            assert_eq!(at, cursor, "cursor after {doc:?} as {n}");
        }
    }

    /// The same contract one layer up: records of a minimal scene document
    /// through `io::decode_scene`.
    #[test]
    fn scene_records_are_pinned() {
        use crate::io;
        fn scene_doc(records: &str) -> String {
            format!(
                "{{\"name\":\"s\",\"resolution\":[4,4],\"fov_y_deg\":50,\"rig\":{{\"center\":[0,0,0],\
                 \"look_at\":[0,0,1],\"radius\":1.5,\"height\":0,\"arc\":1,\"phase\":0}},\
                 \"gaussians\":[{records}]}}"
            )
        }
        // -7.4, -7.03, …, 5.1800003, …, 14.06: one to nine digits each.
        fn numbers(n: usize) -> Vec<String> {
            (0..n)
                .map(|i| format!("{}", (i as f32 - 20.0) * 0.37))
                .collect()
        }
        let record = |numbers: &[String]| format!("[{}]", numbers.join(","));
        let good = numbers(59);
        let with = |i: usize, token: &str| {
            let mut numbers = good.clone();
            numbers[i] = token.to_string();
            record(&numbers)
        };
        let full = scene_doc(&record(&good));
        let spaced = scene_doc(&format!("[ {} ]", good.join(" , ")));

        // One thread is the sequential loop; two and three decode an
        // array span by span.
        const THREADS: [usize; 3] = [1, 2, 3];
        for (label, doc) in [("compact", &full), ("spaced", &spaced)] {
            let [scene, ..] = THREADS.map(|threads| {
                io::scene_from_json(doc, threads)
                    .unwrap_or_else(|e| panic!("{label} on {threads} threads: {e}"))
            });
            let digest = scene
                .gaussians
                .iter()
                .flat_map(|g| g.to_floats())
                .flat_map(|v| v.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(scene.gaussians.len(), 1, "{label}");
            assert_eq!(
                digest, 0xee67_c7e5_b633_42a6,
                "{label}: FNV-1a of the 59 floats"
            );
            assert_eq!(scene.fov_y_deg.to_bits(), 0x4248_0000, "{label}");
            assert_eq!(scene.rig.radius.to_bits(), 0x3fc0_0000, "{label}");
        }

        let rejected = [
            (
                scene_doc(&record(&numbers(58))),
                "gaussian 0: array of 58 numbers where 59 are due, closed at byte 489",
            ),
            (
                scene_doc(&record(&numbers(60))),
                "gaussian 0: array of more than 59 numbers at byte 496",
            ),
            (
                scene_doc(&format!("{},{}", record(&good), record(&numbers(58)))),
                "gaussian 1: array of 58 numbers where 59 are due, closed at byte 842",
            ),
            (
                scene_doc(&with(2, "1e39")),
                "gaussian 0: number '1e39' at byte 156 overflows f32",
            ),
            (
                scene_doc(&with(58, "1-2")),
                "gaussian 0: bad number '1-2' at byte 490",
            ),
            (
                scene_doc(&format!("{},", record(&good))),
                "gaussian 1: expected '[' at byte 497",
            ),
            // A number cut by the end of input: `…,13.` and `…,13.6900`.
            (
                full[..full.rfind("690001").unwrap()].to_string(),
                "gaussian 0: expected ',' or ']' at byte 483",
            ),
            (
                full[..full.rfind("01,14").unwrap()].to_string(),
                "gaussian 0: expected ',' or ']' at byte 487",
            ),
        ];
        for (doc, want) in rejected {
            for threads in THREADS {
                match io::scene_from_json(&doc, threads) {
                    Err(got) => assert_eq!(got, want, "on {threads} threads"),
                    Ok(scene) => panic!("{want}: {threads} threads read {scene:?}"),
                }
            }
        }
    }

    // ---- the fast path against `str::parse::<f32>` ----

    /// Holds `Reader::f32` on the bare token `tok` (the lexer's alphabet
    /// only, so the whole of it is one token) to `str::parse::<f32>` and
    /// the finite filter: the same bits or both rejected, and the cursor
    /// at the token's end either way. Says whether the fast path took it.
    fn same_as_std(tok: &str) -> bool {
        let mut r = Reader::new(tok);
        let got = r.f32().ok().map(f32::to_bits);
        let want = tok.parse().ok().filter(|v: &f32| v.is_finite());
        assert_eq!(got, want.map(f32::to_bits), "{tok}");
        assert_eq!(r.offset(), tok.len(), "cursor after {tok}");
        exact_f32(tok.as_bytes(), 0).is_some()
    }

    /// Every `stride`-th `f32` bit pattern (NaN and ±∞ aside: the writer
    /// refuses them), written by `render` and held to [`same_as_std`], on
    /// every core. Returns the tokens compared and, of those with
    /// `1e-6 ≤ |v| < 1e7` — where scene data lives — how many there were
    /// and how many the fast path took.
    fn sweep_bit_patterns(stride: u64, render: fn(&mut String, f32)) -> [u64; 3] {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let (mut tok, mut counts) = (String::new(), [0u64; 3]);
                        for bits in (t * stride..1 << 32).step_by((threads * stride) as usize) {
                            let v = f32::from_bits(bits as u32);
                            if !v.is_finite() {
                                continue;
                            }
                            tok.clear();
                            render(&mut tok, v);
                            let fast = same_as_std(&tok);
                            let scene_like = (1e-6..1e7).contains(&v.abs());
                            counts[0] += 1;
                            counts[1] += u64::from(scene_like);
                            counts[2] += u64::from(scene_like && fast);
                        }
                        counts
                    })
                })
                .collect();
            workers.into_iter().fold([0; 3], |sum, w| {
                let counts = w.join().expect("a sweep thread found a mismatch");
                [sum[0] + counts[0], sum[1] + counts[1], sum[2] + counts[2]]
            })
        })
    }

    fn display(tok: &mut String, v: f32) {
        let _ = write!(tok, "{v}");
    }

    /// The fast path cannot pass by never firing: of the `Display` tokens
    /// in the scene-like band nearly all must have taken it.
    fn assert_fast_share([tokens, scene_like, fast]: [u64; 3]) {
        assert!(
            scene_like > 0 && fast * 100 >= scene_like * 99,
            "fast path took {fast} of {scene_like} scene-like tokens ({tokens} compared)"
        );
    }

    #[test]
    fn every_251st_f32_reads_back_as_str_parse_reads_it() {
        let shown = sweep_bit_patterns(251, display);
        assert_fast_share(shown);
        let exp = sweep_bit_patterns(251, |tok, v| {
            let _ = write!(tok, "{v:e}");
        });
        assert_eq!(shown[0], exp[0]);
        assert!(shown[0] > (1 << 32) / 252);
        // The ends of the range, whatever the stride lands on.
        for v in [0.0, -0.0, f32::MAX, f32::MIN, f32::MIN_POSITIVE, 1e-45] {
            same_as_std(&format!("{v}"));
            same_as_std(&format!("{v:e}"));
        }
    }

    /// The proof by exhaustion: all 4 278 190 080 finite `f32`s through
    /// `Display`. Minutes of every core in release, so not in the default
    /// run: `cargo test --release -p gcc-scene -- --ignored every_f32`.
    #[test]
    #[ignore = "all 2^32 bit patterns: minutes of every core, run in release"]
    fn every_f32_reads_back_as_str_parse_reads_it() {
        let t0 = std::time::Instant::now();
        let counts = sweep_bit_patterns(1, display);
        println!(
            "{} tokens, 0 mismatches, fast path {} of {} scene-like, {:.0} s",
            counts[0],
            counts[2],
            counts[1],
            t0.elapsed().as_secs_f64()
        );
        assert_eq!(counts[0], (1 << 32) - (1 << 24));
        assert_fast_share(counts);
    }

    #[test]
    fn random_decimal_strings_read_as_str_parse_reads_them() {
        use crate::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0xf32);
        let mut digits = |tok: &mut String, n: usize| {
            for _ in 0..n {
                tok.push(char::from(b'0' + rng.gen_range(0..10usize) as u8));
            }
        };
        let mut shape = StdRng::seed_from_u64(19);
        let (mut tok, mut fast) = (String::new(), 0u32);
        for _ in 0..2_000_000 {
            // -?D{1,12}(.D{0,25})? and, one time in four, e±DD.
            tok.clear();
            if shape.gen_range(0..2usize) == 0 {
                tok.push('-');
            }
            digits(&mut tok, shape.gen_range(1..13usize));
            if shape.gen_range(0..4usize) != 0 {
                tok.push('.');
                digits(&mut tok, shape.gen_range(0..26usize));
            }
            if shape.gen_range(0..4usize) == 0 {
                tok.push(['e', 'E'][shape.gen_range(0..2usize)]);
                tok.push(['+', '-'][shape.gen_range(0..2usize)]);
                digits(&mut tok, 2);
            }
            fast += u32::from(same_as_std(&tok));
        }
        // Short plain decimals are a good part of these; the rest is the
        // fallback reading exponents, `1.` and digit runs past 19.
        assert!(fast > 200_000, "fast path took {fast} of 2 000 000");
    }

    /// Tokens at and around `f32` rounding boundaries, where a second
    /// rounding would show: for `y` over every exponent, the midpoint of
    /// `y` and the next `f32` up, spelled exactly, cut to 15–19 digits (a
    /// hair below the boundary, and inside the fast domain at 15 and 16)
    /// and nudged past it again by a digit or two.
    #[test]
    fn rounding_boundary_neighbours_read_as_str_parse_reads_them() {
        use crate::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0xb0d);
        let mut tok = String::new();
        let (mut compared, mut fast) = (0u32, 0u32);
        for exponent in 0..255u32 {
            for _ in 0..300 {
                let y = f32::from_bits(exponent << 23 | (rng.gen::<u64>() >> 41) as u32);
                let above = f32::from_bits(y.to_bits() + 1);
                let mid = (f64::from(y) + f64::from(above)) / 2.0;
                // A midpoint is 25 significant bits at 2^-150 or above:
                // 160 places spell it exactly.
                let exact = format!("{mid:.160}");
                let exact = exact.trim_end_matches('0');
                let whole = exact.find('.').expect("a fraction point");
                for cut in [15, 16, 17, 19usize] {
                    let keep = (whole + 1 + cut.saturating_sub(whole)).min(exact.len());
                    for nudge in ["", "1", "01", "9"] {
                        for sign in ["", "-"] {
                            tok.clear();
                            tok.push_str(sign);
                            tok.push_str(&exact[..keep]);
                            tok.push_str(nudge);
                            fast += u32::from(same_as_std(&tok));
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert!(fast * 20 > compared, "fast path took {fast} of {compared}");
        for tok in [
            "16777217",
            "16777217.0000001",
            "16777216.9999999",
            "9007199254740993",
            "0.1",
            "0.3",
            "1.17549435e-38",
            "0.00000000000000000000000000000000000001",
        ] {
            same_as_std(tok);
            same_as_std(&format!("-{tok}"));
        }
    }
}
