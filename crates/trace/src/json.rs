//! The workspace's one JSON mechanism (no external dependencies): the
//! [`Json`] value with exact `u64` integers, its parser, its one writer,
//! the typed field accessors every document reader shares, and a Chrome
//! `trace_event` validator for the exporter tests and the CI trace check.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, held exactly (every integer literal that fits
    /// a `u64` parses to this variant).
    Int(u64),
    /// Any other number: negative, fractional, exponent or beyond `u64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members`, in the given order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// `v` as a `0x`-prefixed, zero-padded 16-digit hex string — how
    /// documents carry hashes.
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub(crate) fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (integers convert, and
    /// above 2^53 round).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value, if this is an unsigned integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value of a `0x`-prefixed hex string of 1 to 16 digits.
    pub(crate) fn as_hex(&self) -> Option<u64> {
        let digits = self.as_str()?.strip_prefix("0x")?;
        if digits.is_empty() || digits.len() > 16 || !digits.bytes().all(|b| b.is_ascii_hexdigit())
        {
            return None;
        }
        u64::from_str_radix(digits, 16).ok()
    }

    // The typed accessors below return an error naming the field when it
    // is missing or of the wrong type, so every document reader reports
    // the same way.

    /// Member `key`.
    pub(crate) fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("field `{key}` missing"))
    }

    fn field_as<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        read(self.field(key)?).ok_or_else(|| format!("field `{key}` is not {what}"))
    }

    /// Member `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field_as(key, "a string", Json::as_str)
    }

    /// Member `key` as an exact `u64`.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field_as(key, "an unsigned integer", Json::as_u64)
    }

    /// Member `key` as a bool.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.field_as(key, "a bool", Json::as_bool)
    }

    /// Member `key` as a `0x`-prefixed hex string of 1 to 16 digits.
    pub fn hex_field(&self, key: &str) -> Result<u64, String> {
        self.field_as(key, "a 0x hex string of at most 16 digits", Json::as_hex)
    }

    /// Member `key` as an array.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.field_as(key, "an array", Json::as_arr)
    }

    /// The members of object member `key`, each read by `read` (the shape
    /// of a manifest's `config`, `host` and `sim.hashes`); a bad member is
    /// named `key.member`.
    pub(crate) fn members_field<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl Fn(&'a Json) -> Option<T>,
    ) -> Result<Vec<(String, T)>, String> {
        self.field_as(key, "an object", Json::as_obj)?
            .iter()
            .map(|(k, v)| {
                read(v)
                    .map(|t| (k.clone(), t))
                    .ok_or_else(|| format!("field `{key}.{k}` is not {what}"))
            })
            .collect()
    }

    /// Renders the value on one line.
    pub fn to_inline(&self, style: JsonStyle) -> String {
        let mut w = Writer {
            out: String::new(),
            style,
            list_keys: &[],
        };
        w.value(self, 0);
        w.out
    }

    /// Renders the value as a document with a trailing newline. A
    /// top-level object prints one member per line; an array under one of
    /// `list_keys` (at any depth) prints one element per line, indented
    /// one level deeper than the line holding its key; every other value
    /// prints inline.
    pub fn to_document(&self, style: JsonStyle, list_keys: &[&str]) -> String {
        let mut w = Writer {
            out: String::new(),
            style,
            list_keys,
        };
        match self {
            Json::Obj(members) => {
                w.out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        w.out.push(',');
                    }
                    w.newline(1);
                    w.member(k, v, 1);
                }
                w.newline(0);
                w.out.push('}');
            }
            other => w.value(other, 0),
        }
        w.out.push('\n');
        w.out
    }
}

macro_rules! json_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as u64)
            }
        }
    )*};
}
json_from_uint!(u8, u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// The separator style of the writer.
#[derive(Debug, Clone, Copy)]
pub struct JsonStyle {
    comma: &'static str,
    colon: &'static str,
    indent: &'static str,
}

impl JsonStyle {
    /// `,` and `:`, top-level members unindented (run manifests).
    pub const COMPACT: JsonStyle = JsonStyle {
        comma: ",",
        colon: ":",
        indent: "",
    };
    /// `, ` and `: `, two-space indentation (postmortem bundles, soak
    /// cursors, repro documents).
    pub const SPACED: JsonStyle = JsonStyle {
        comma: ", ",
        colon: ": ",
        indent: "  ",
    };
}

struct Writer<'a> {
    out: String,
    style: JsonStyle,
    list_keys: &'a [&'a str],
}

impl Writer<'_> {
    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str(self.style.indent);
        }
    }

    /// Writes `v`; `depth` is the indentation level of the current line.
    fn value(&mut self, v: &Json, depth: usize) {
        match v {
            Json::Null => self.out.push_str("null"),
            Json::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(self.out, "{n}");
            }
            Json::Num(x) if x.is_finite() => {
                let _ = write!(self.out, "{x}");
            }
            Json::Num(_) => self.out.push_str("null"),
            Json::Str(s) => push_json_string(&mut self.out, s),
            Json::Arr(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(self.style.comma);
                    }
                    self.value(item, depth);
                }
                self.out.push(']');
            }
            Json::Obj(members) => {
                self.out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(self.style.comma);
                    }
                    self.member(k, v, depth);
                }
                self.out.push('}');
            }
        }
    }

    fn member(&mut self, key: &str, v: &Json, depth: usize) {
        push_json_string(&mut self.out, key);
        self.out.push_str(self.style.colon);
        match v {
            Json::Arr(items) if !items.is_empty() && self.list_keys.contains(&key) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.newline(depth + 1);
                    self.value(item, depth + 1);
                }
                self.newline(depth);
                self.out.push(']');
            }
            _ => self.value(v, depth),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quoted and escaped) —
/// the one escaping routine, shared with the streaming exporters.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
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

/// Maximum nesting depth accepted (defence against pathological input; the
/// traces this repo emits nest three levels deep).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
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
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a \uXXXX low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("lone surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?);
                            continue; // hex4 advanced pos past the escape
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // An all-digit literal that fits is an exact `Int`; a sign,
        // fraction, exponent or overflow makes it a `Num`.
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with the byte offset of the first
/// syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// `ph:"X"` complete events.
    pub spans: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `ph:"C"` counter events.
    pub counters: usize,
    /// Event count per event name.
    pub names: BTreeMap<String, usize>,
}

impl ChromeSummary {
    /// Events recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.names.get(name).copied().unwrap_or(0)
    }
}

/// Parses `text` as Chrome `trace_event` JSON and checks its structural
/// invariants:
///
/// * top level is an object with a `traceEvents` array;
/// * every event has a string `name`/`ph` and integer `ts`; `X` events
///   also carry an integer `dur`;
/// * per track (`tid`), `X` spans nest properly — sorted by start (ties:
///   longest first), every span is either disjoint from or fully contained
///   in the enclosing span.
///
/// # Errors
///
/// Returns the first violated invariant as a message.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeSummary, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut summary = ChromeSummary::default();
    // (tid, ts, dur, name) for the nesting check.
    let mut spans: Vec<(u64, u64, u64, String)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing integer `ts`"))?;
        *summary.names.entry(name.to_owned()).or_insert(0) += 1;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i} ({name}): X without integer `dur`"))?;
                let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
                spans.push((tid, ts, dur, name.to_owned()));
                summary.spans += 1;
            }
            "i" | "I" => summary.instants += 1,
            "C" => summary.counters += 1,
            other => return Err(format!("event {i} ({name}): unsupported ph `{other}`")),
        }
    }
    // Nesting: per tid, spans must form a forest under containment.
    spans.sort_by(|a, b| {
        (a.0, a.1, std::cmp::Reverse(a.2)).cmp(&(b.0, b.1, std::cmp::Reverse(b.2)))
    });
    let mut stack: Vec<(u64, u64, String)> = Vec::new(); // (end, tid, name)
    let mut cur_tid = None;
    for (tid, ts, dur, name) in &spans {
        if cur_tid != Some(*tid) {
            stack.clear();
            cur_tid = Some(*tid);
        }
        while matches!(stack.last(), Some((end, _, _)) if *end <= *ts) {
            stack.pop();
        }
        if let Some((end, _, parent)) = stack.last() {
            if ts + dur > *end {
                return Err(format!(
                    "span `{name}` [{ts}, {}) on track {tid} partially overlaps `{parent}` \
                     ending at {end}",
                    ts + dur
                ));
            }
        }
        stack.push((ts + dur, *tid, name.clone()));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::chrome_trace_json;
    use crate::event::TraceEvent;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse_json(r#"{"a":[1,-2.5,true,null,"x\nA"],"b":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4].as_str(), Some("x\nA"));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"abc").is_err());
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("tru").is_err());
    }

    #[test]
    fn decodes_escape_sequences() {
        let v = parse_json(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\u{8}\u{c}\n\r\t"));
        // \u escapes: ASCII, BMP, a surrogate pair, and an escaped NUL.
        let v = parse_json("\"\\u0041\\u00e9\\u2603\\ud83d\\ude00\\u0000\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}\u{2603}\u{1f600}\u{0}"));
        // Raw (unescaped) UTF-8 passes through untouched.
        let v = parse_json("\"é☃😀\"").unwrap();
        assert_eq!(v.as_str(), Some("é☃😀"));
        // Malformed escapes are rejected, not mangled.
        assert!(parse_json(r#""\q""#).is_err(), "unknown escape");
        assert!(parse_json(r#""\u12""#).is_err(), "truncated \\u");
        assert!(parse_json(r#""\u12g4""#).is_err(), "non-hex \\u digit");
        assert!(parse_json(r#""\ud800""#).is_err(), "lone high surrogate");
        assert!(parse_json("\"\\").is_err(), "escape at end of input");
    }

    #[test]
    fn high_surrogate_without_a_low_half_is_a_lone_surrogate() {
        // A high half followed by a non-low escape used to compute
        // `lo - 0xDC00` and overflow.
        for text in [
            r#""\ud800\u0041""#,
            r#""\ud800\ud800""#,
            r#""\ud800A""#,
            r#""\ud800\n""#,
        ] {
            let err = parse_json(text).unwrap_err();
            assert!(err.contains("lone surrogate"), "{text}: {err}");
        }
        assert!(parse_json(r#""\udc00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn integers_are_exact_across_the_u64_range() {
        for n in [0, 1, (1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let v = parse_json(&n.to_string()).unwrap();
            assert_eq!(v, Json::Int(n));
            assert_eq!(v.as_u64(), Some(n));
        }
        // Beyond u64, negative, fractional and exponent literals are
        // `Num`, and none of them reads as a u64.
        for text in ["18446744073709551616", "-1", "2.5", "1e3"] {
            let v = parse_json(text).unwrap();
            assert!(matches!(v, Json::Num(_)), "{text}");
            assert_eq!(v.as_u64(), None, "{text}");
        }
        assert_eq!(parse_json("-2.5").unwrap().as_f64(), Some(-2.5));
    }

    #[test]
    fn typed_accessors_name_the_field() {
        let v = parse_json(
            r#"{"s":"x","n":18446744073709551615,"b":true,"h":"0xffffffffffffffff",
                "bad_hex":"ff","long_hex":"0x10000000000000000","m":{"a":1,"b":"2"}}"#,
        )
        .unwrap();
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(v.u64_field("n"), Ok(u64::MAX));
        assert_eq!(v.bool_field("b"), Ok(true));
        assert_eq!(v.hex_field("h"), Ok(u64::MAX));
        assert_eq!(v.u64_field("zz").unwrap_err(), "field `zz` missing");
        assert_eq!(
            v.u64_field("s").unwrap_err(),
            "field `s` is not an unsigned integer"
        );
        assert!(v.hex_field("bad_hex").unwrap_err().contains("`bad_hex`"));
        assert!(v.hex_field("long_hex").unwrap_err().contains("`long_hex`"));
        assert_eq!(
            v.members_field("m", "an unsigned integer", Json::as_u64)
                .unwrap_err(),
            "field `m.b` is not an unsigned integer"
        );
    }

    #[test]
    fn escapes_json_strings() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\u{1}\u{7f}é");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\u{7f}é\"");
    }

    #[test]
    fn writer_styles_and_layout() {
        let doc = Json::obj([
            ("n", u64::MAX.into()),
            (
                "list",
                Json::Arr(vec![Json::obj([("k", true.into())]), Json::Null]),
            ),
            ("empty", Json::Arr(vec![])),
            ("inline", Json::Arr(vec![1u32.into(), "two".into()])),
            ("x", Json::Num(-2.5)),
        ]);
        assert_eq!(
            doc.to_inline(JsonStyle::COMPACT),
            r#"{"n":18446744073709551615,"list":[{"k":true},null],"empty":[],"inline":[1,"two"],"x":-2.5}"#
        );
        assert_eq!(
            doc.to_document(JsonStyle::SPACED, &["list", "empty"]),
            "{\n  \"n\": 18446744073709551615,\n  \"list\": [\n    {\"k\": true},\n    null\n  ],\n  \
             \"empty\": [],\n  \"inline\": [1, \"two\"],\n  \"x\": -2.5\n}\n"
        );
        // What the writer prints, the parser reads back as the same value.
        for style in [JsonStyle::COMPACT, JsonStyle::SPACED] {
            assert_eq!(parse_json(&doc.to_inline(style)), Ok(doc.clone()));
            assert_eq!(
                parse_json(&doc.to_document(style, &["list"])),
                Ok(doc.clone())
            );
        }
    }

    #[test]
    fn deeply_nested_arrays_hit_the_depth_limit() {
        // Exactly at the limit: parses.
        // The outermost value parses at depth 0, so MAX_DEPTH+1 nested
        // arrays still parse; one more trips the guard.
        let ok_depth = 129;
        let ok = format!("{}{}", "[".repeat(ok_depth), "]".repeat(ok_depth));
        assert!(parse_json(&ok).is_ok(), "depth {ok_depth} must parse");
        // One past: rejected with the depth message, not a stack overflow.
        let too_deep = format!("{}{}", "[".repeat(ok_depth + 1), "]".repeat(ok_depth + 1));
        let err = parse_json(&too_deep).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        // Same guard for objects.
        let mut obj = String::new();
        for _ in 0..(ok_depth + 1) {
            obj.push_str("{\"k\":");
        }
        obj.push('0');
        obj.push_str(&"}".repeat(ok_depth + 1));
        let err = parse_json(&obj).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn exporter_output_round_trips() {
        let events = [
            TraceEvent::span("recovery", "recovery", 1000, 100, 50).with_arg("safe_epoch", 2),
            TraceEvent::span("recovery.replay", "recovery", 1000, 110, 20),
            TraceEvent::instant("fault.inject", "fault", 3, 90),
        ];
        let json = chrome_trace_json(&events, None);
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.count("recovery"), 1);
        assert_eq!(summary.count("recovery.replay"), 1);
    }

    #[test]
    fn partial_overlap_is_rejected() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"tid":1},
            {"name":"b","ph":"X","ts":5,"dur":10,"tid":1}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
        // Same shapes on different tracks are fine.
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"tid":1},
            {"name":"b","ph":"X","ts":5,"dur":10,"tid":2}
        ]}"#;
        assert!(validate_chrome_trace(json).is_ok());
    }

    #[test]
    fn containment_and_adjacency_pass() {
        let json = r#"{"traceEvents":[
            {"name":"parent","ph":"X","ts":0,"dur":100,"tid":1},
            {"name":"child","ph":"X","ts":10,"dur":20,"tid":1},
            {"name":"sibling","ph":"X","ts":30,"dur":70,"tid":1},
            {"name":"next","ph":"X","ts":100,"dur":5,"tid":1}
        ]}"#;
        let s = validate_chrome_trace(json).unwrap();
        assert_eq!(s.spans, 4);
    }
}
