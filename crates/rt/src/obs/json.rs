//! The workspace's one JSON writer, and a minimal flat-JSON reader.
//!
//! Every JSON line the workspace emits — trace events, bench rows,
//! execution reports, cluster and loadgen summaries, the CLI's `--json`
//! output — is built by [`Object`], so key quoting, string escaping,
//! `null` and float formatting are decided here once. A non-finite float
//! renders as `null`.
//!
//! The observability sinks emit one flat JSON object per line (the same
//! vocabulary [`crate::bench`] uses for its baselines): string keys,
//! values that are strings, numbers, booleans, `null`, or arrays of
//! numbers. [`parse_object`] reads exactly that subset back — enough for
//! the `cli stats` aggregator and the round-trip contract tests, with
//! zero dependencies.

use std::fmt::{self, Write as _};

/// One JSON object under construction; fields render in call order.
///
/// ```
/// use pmr_rt::obs::json::Object;
/// let line = Object::new()
///     .str("bench", "a\"b")
///     .u64("iters", 3)
///     .fixed("median_ns", 12.345, 1)
///     .num("rate", 0.25)
///     .null("parent")
///     .finish();
/// assert_eq!(line, r#"{"bench":"a\"b","iters":3,"median_ns":12.3,"rate":0.25,"parent":null}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Object {
    out: String,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key` and the value `value` writes.
    fn with(mut self, key: &str, value: impl FnOnce(&mut String) -> fmt::Result) -> Self {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        let _ = quoted(&mut self.out, key);
        self.out.push(':');
        let _ = value(&mut self.out);
        self
    }

    /// A string value, quoted and escaped.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.with(key, |out| quoted(out, value))
    }

    /// An integer value.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.with(key, |out| write!(out, "{value}"))
    }

    /// `true` or `false`.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.with(key, |out| write!(out, "{value}"))
    }

    /// A float with exactly `decimals` digits after the point.
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Self {
        self.with(key, |out| number(out, value, Some(decimals)))
    }

    /// A float in its shortest round-tripping form (`10`, `0.25`).
    pub fn num(self, key: &str, value: f64) -> Self {
        self.with(key, |out| number(out, value, None))
    }

    /// `null`.
    pub fn null(self, key: &str) -> Self {
        self.with(key, |out| out.write_str("null"))
    }

    /// An array of integers.
    pub fn u64s(self, key: &str, values: &[u64]) -> Self {
        self.with(key, |out| array(out, values, |out, v| write!(out, "{v}")))
    }

    /// An array of floats, each in its shortest form.
    pub fn nums(self, key: &str, values: &[f64]) -> Self {
        self.with(key, |out| {
            array(out, values, |out, &v| number(out, v, None))
        })
    }

    /// A value this writer already rendered: a nested [`Object`]'s
    /// [`finish`](Object::finish), or another type's `to_json`.
    pub fn json(self, key: &str, rendered: &str) -> Self {
        self.with(key, |out| out.write_str(rendered))
    }

    /// An array of values this writer already rendered.
    pub fn json_array<S: AsRef<str>>(self, key: &str, items: impl IntoIterator<Item = S>) -> Self {
        self.with(key, |out| {
            array(out, items, |out, s| out.write_str(s.as_ref()))
        })
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// `value` with `decimals` digits after the point, else in its shortest
/// form; `null` when it is not finite.
fn number(out: &mut String, value: f64, decimals: Option<usize>) -> fmt::Result {
    match decimals {
        _ if !value.is_finite() => out.write_str("null"),
        Some(d) => write!(out, "{value:.d$}"),
        None => write!(out, "{value}"),
    }
}

fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T) -> fmt::Result,
) -> fmt::Result {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item)?;
    }
    out.push(']');
    Ok(())
}

/// `s` in quotes, with `"`, `\` and control characters escaped.
fn quoted(out: &mut String, s: &str) -> fmt::Result {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(out, "\\{c}")?,
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32)?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

/// One value of a flat trace object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// Any JSON number (integers are exact up to 2⁵³).
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// A string (escapes decoded).
    Str(String),
    /// An array of numbers (trace events never nest further).
    Arr(Vec<f64>),
}

impl JsonValue {
    /// The value as a finite number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"k":v,...}`) into its key/value pairs,
/// in source order.
pub fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        return p.finish(pairs);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        pairs.push((key, value));
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => return p.finish(pairs),
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, found {other:?}", want as char)),
        }
    }

    fn finish(
        &mut self,
        pairs: Vec<(String, JsonValue)>,
    ) -> Result<Vec<(String, JsonValue)>, String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(pairs)
        } else {
            Err(format!("trailing bytes after object at {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let escaped = match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return String::from_utf8(out).map_err(|e| e.to_string()),
                Some(b'\\') => match self.next() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    Some(b'u') => {
                        let hex = self.bytes.get(self.pos..self.pos + 4);
                        self.pos += 4;
                        let code = hex.and_then(|h| {
                            u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                        });
                        code.and_then(char::from_u32).ok_or("bad \\u escape")?
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(b) => {
                    out.push(b);
                    continue;
                }
            };
            out.extend_from_slice(escaped.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
            return Err(format!("expected {word}"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'[') => {
                self.pos += 1;
                let mut arr = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(arr));
                }
                loop {
                    self.skip_ws();
                    arr.push(self.number()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(JsonValue::Arr(arr)),
                        other => return Err(format!("expected ',' or ']', found {other:?}")),
                    }
                }
            }
            Some(b'0'..=b'9' | b'-') => Ok(JsonValue::Num(self.number()?)),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Source;

    /// A string mixing quotes, backslashes, control characters, ASCII
    /// and multi-byte characters.
    fn any_text(src: &mut Source) -> String {
        let n = src.usize_in(0..=12);
        (0..n)
            .map(|_| match src.arm(5) {
                0 => *b"\"\\".get(src.usize_in(0..=1)).unwrap() as char,
                1 => src.string_of('\0'..='\u{1f}', 1..=1).remove(0),
                2 => src.string_of(' '..='~', 1..=1).remove(0),
                3 => src.string_of('\u{a0}'..='\u{17f}', 1..=1).remove(0),
                _ => src.string_of('\u{4e00}'..='\u{4e20}', 1..=1).remove(0),
            })
            .collect()
    }

    crate::rt_proptest! {
        /// Any flat object the writer emits parses back to the same pairs.
        fn written_objects_parse_back(src) {
            let mut object = Object::new();
            let mut want = Vec::new();
            for _ in 0..src.usize_in(0..=8) {
                let key = any_text(src);
                let value = match src.arm(7) {
                    0 => {
                        let text = any_text(src);
                        object = object.str(&key, &text);
                        JsonValue::Str(text)
                    }
                    1 => {
                        let v = src.any_u64();
                        object = object.u64(&key, v);
                        JsonValue::Num(v as f64)
                    }
                    2 => {
                        let (v, d) = (src.f64_in(-1e6, 1e6), src.usize_in(0..=6));
                        object = object.fixed(&key, v, d);
                        JsonValue::Num(format!("{v:.d$}").parse().unwrap())
                    }
                    3 => {
                        let v = src.f64_in(-1e9, 1e9);
                        object = object.num(&key, v);
                        JsonValue::Num(v)
                    }
                    4 => {
                        let v = src.weighted(0.5);
                        object = object.bool(&key, v);
                        JsonValue::Bool(v)
                    }
                    5 => {
                        object = object.null(&key);
                        JsonValue::Null
                    }
                    _ => {
                        let v = src.vec_of(0..=5, |s| s.int_in(0, 1 << 40));
                        object = object.u64s(&key, &v);
                        JsonValue::Arr(v.iter().map(|&x| x as f64).collect())
                    }
                };
                want.push((key, value));
            }
            let line = object.finish();
            assert!(!line.contains(|c: char| c < ' '), "raw control character: {line:?}");
            assert_eq!(parse_object(&line), Ok(want), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let line = Object::new()
            .fixed("a", f64::NAN, 3)
            .num("b", f64::INFINITY)
            .fixed("c", f64::NEG_INFINITY, 1)
            .nums("d", &[1.5, f64::NAN, 10.0])
            .finish();
        assert_eq!(line, r#"{"a":null,"b":null,"c":null,"d":[1.5,null,10]}"#);
    }

    #[test]
    fn nests_rendered_values() {
        let inner = Object::new().u64("x", 1).finish();
        let line = Object::new()
            .json("one", &inner)
            .json_array("many", [&inner, &inner])
            .json_array("none", Vec::<String>::new())
            .finish();
        assert_eq!(
            line,
            r#"{"one":{"x":1},"many":[{"x":1},{"x":1}],"none":[]}"#
        );
        assert_eq!(Object::new().finish(), "{}");
    }

    #[test]
    fn parses_span_line() {
        let pairs = parse_object(
            "{\"event\":\"span\",\"name\":\"exec.device\",\"id\":5,\"parent\":2,\
             \"start_us\":123,\"elapsed_ns\":4567.5,\"device\":3}",
        )
        .unwrap();
        assert_eq!(pairs[0], ("event".into(), JsonValue::Str("span".into())));
        assert_eq!(pairs[2].1.as_u64(), Some(5));
        assert_eq!(pairs[5].1.as_num(), Some(4567.5));
        assert_eq!(pairs[6], ("device".into(), JsonValue::Num(3.0)));
    }

    #[test]
    fn parses_arrays_null_and_escapes() {
        let pairs = parse_object(
            "{ \"bounds\" : [10, 100.5, 1e3] , \"parent\" : null , \"s\" : \"a\\\"b\" }",
        )
        .unwrap();
        assert_eq!(pairs[0].1, JsonValue::Arr(vec![10.0, 100.5, 1000.0]));
        assert_eq!(pairs[1].1, JsonValue::Null);
        assert_eq!(pairs[2].1.as_str(), Some("a\"b"));
        assert_eq!(parse_object("{}").unwrap(), vec![]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{\"a\":1").is_err());
        assert!(parse_object("{\"a\":}").is_err());
        assert!(parse_object("{\"a\":1} extra").is_err());
        assert!(parse_object("{\"a\":[1,]}").is_err());
        assert!(parse_object("{\"a\":nope}").is_err());
    }

    #[test]
    fn negative_numbers_are_not_u64() {
        let pairs = parse_object("{\"a\":-3,\"b\":1.5}").unwrap();
        assert_eq!(pairs[0].1.as_num(), Some(-3.0));
        assert_eq!(pairs[0].1.as_u64(), None);
        assert_eq!(pairs[1].1.as_u64(), None);
    }
}
