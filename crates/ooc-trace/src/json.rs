//! Minimal JSON parser and Chrome-trace validator.
//!
//! The workspace's `serde` is an offline no-op shim (marker traits only), so
//! trace validation cannot lean on `serde_json`. This module hand-rolls the
//! small strict subset needed to re-parse [`crate::perfetto`] output and
//! check it against the repo's checked-in schema
//! (`crates/bench/schemas/trace_schema.json`): required keys per event,
//! allowed phase letters, finite timestamps (JSON has no NaN literal, so a
//! NaN would fail to parse at emission), and monotone per-(pid, tid) clocks.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects preserve key order via `BTreeMap` — good
/// enough for validation, which never re-serializes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// String literal.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// As array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// As number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// As string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Why [`parse`] refused a document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Not JSON, or outside the strict subset; the message says where.
    Syntax(String),
    /// Arrays and objects nest deeper than the parser's fixed bound of
    /// `limit` levels. The parser recurses once per level, so without a
    /// bound a frame of nothing but `[` would overflow the stack of the
    /// thread decoding it.
    TooDeep {
        /// The bound.
        limit: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(detail) => f.write_str(detail),
            JsonError::TooDeep { limit } => {
                write!(f, "arrays and objects nest deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound of [`parse`]: far above any document the workspace
/// writes, far below what a 2 MiB thread stack survives.
const MAX_DEPTH: usize = 128;

fn syntax<T>(detail: String) -> Result<T, JsonError> {
    Err(JsonError::Syntax(detail))
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// Parse a JSON document. Strict: rejects trailing garbage, `NaN`,
/// `Infinity`, comments, unquoted keys and nesting deeper than 128 levels.
pub fn parse(s: &str) -> Result<Json, JsonError> {
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
        return syntax(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            syntax(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => syntax(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::TooDeep { limit: MAX_DEPTH });
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            syntax(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                other => {
                    return syntax(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                other => {
                    return syntax(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return syntax("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        other => {
                            return syntax(format!("bad escape {:?}", other.map(|b| b as char)))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash, copied as
                    // one slice. Both delimiters are ASCII, so in a `&str`
                    // they always sit on char boundaries.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// The character of a `\u` escape whose `u` is at `pos`, leaving `pos`
    /// on its last hex digit. A high surrogate followed by an escaped low
    /// one combines into the astral character they encode; a lone
    /// surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            let at = self.pos;
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return Ok(char::from_u32(c).expect("a surrogate pair encodes a scalar"));
            }
            self.pos = at; // not a pair: the next escape stands alone
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits after the `u` at `pos`; leaves `pos` on the
    /// last of them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 >= self.bytes.len() {
            return syntax("truncated \\u escape".into());
        }
        let code = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| JsonError::Syntax("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| JsonError::Syntax(format!("bad number {:?} at byte {}", text, start)))?;
        if !n.is_finite() {
            return syntax(format!("non-finite number {:?}", text));
        }
        Ok(Json::Num(n))
    }
}

/// Summary of a validated Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCheck {
    /// Total events (including metadata).
    pub events: usize,
    /// Span (`"X"`) events.
    pub spans: usize,
    /// Counter (`"C"`) samples.
    pub counters: usize,
    /// Distinct pids (ranks).
    pub ranks: usize,
}

fn schema_strings(schema: &Json, key: &str) -> Vec<String> {
    schema
        .get(key)
        .and_then(|v| v.as_arr())
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default()
}

/// Validate a Chrome trace document against a schema object (see
/// `crates/bench/schemas/trace_schema.json`). Checks required keys, allowed
/// `ph` letters, finite numeric timestamps/durations, and that `ts` is
/// monotone non-decreasing per `(pid, tid)` timeline.
pub fn validate_chrome_trace(trace: &Json, schema: &Json) -> Result<TraceCheck, String> {
    for key in schema_strings(schema, "top_required") {
        if trace.get(&key).is_none() {
            return Err(format!("missing top-level key {:?}", key));
        }
    }
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("traceEvents is not an array")?;
    let event_required = schema_strings(schema, "event_required");
    let span_required = schema_strings(schema, "span_required");
    let ph_allowed = schema_strings(schema, "ph_allowed");
    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    let mut last_ts: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    let mut ranks: Vec<i64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if !ph_allowed.is_empty() && !ph_allowed.iter().any(|a| a == ph) {
            return Err(format!("event {i}: disallowed ph {:?}", ph));
        }
        for key in &event_required {
            // Metadata events carry no timestamp.
            if ph == "M" && key == "ts" {
                continue;
            }
            if ev.get(key).is_none() {
                return Err(format!("event {i}: missing key {:?}", key));
            }
        }
        let pid = ev
            .get("pid")
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("event {i}: missing pid"))? as i64;
        if !ranks.contains(&pid) {
            ranks.push(pid);
        }
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_num())
            .ok_or_else(|| format!("event {i}: non-numeric ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i}: bad ts {ts}"));
        }
        let tid = ev.get("tid").and_then(|v| v.as_num()).unwrap_or(0.0) as i64;
        let key = (pid, tid);
        if let Some(prev) = last_ts.get(&key) {
            if ts < *prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on pid {pid} tid {tid} (prev {prev})"
                ));
            }
        }
        last_ts.insert(key, ts);
        match ph {
            "X" => {
                check.spans += 1;
                for key in &span_required {
                    if ev.get(key).is_none() {
                        return Err(format!("span event {i}: missing key {:?}", key));
                    }
                }
                let dur = ev
                    .get("dur")
                    .and_then(|v| v.as_num())
                    .ok_or_else(|| format!("span event {i}: non-numeric dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("span event {i}: bad dur {dur}"));
                }
            }
            "C" => check.counters += 1,
            _ => {}
        }
    }
    check.ranks = ranks.len();
    Ok(check)
}

/// The schema shipped in-repo, inlined so library tests don't depend on
/// bench crate paths. `tracerun --check` reads the checked-in file instead.
pub const DEFAULT_SCHEMA: &str = r#"{
  "top_required": ["traceEvents", "displayTimeUnit"],
  "event_required": ["ph", "pid", "ts", "name"],
  "span_required": ["dur", "cat", "tid", "args"],
  "ph_allowed": ["X", "i", "C", "M"]
}"#;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\nу"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_num(),
            Some(-2500.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_garbage_and_nan() {
        assert!(parse("{").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse(r#"{"a": NaN}"#).is_err());
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error() {
        let nest = |depth: usize| {
            let open: String = (0..depth)
                .map(|k| if k % 2 == 0 { "[" } else { "{\"k\":" })
                .collect();
            let close: String = (0..depth)
                .rev()
                .map(|k| if k % 2 == 0 { "]" } else { "}" })
                .collect();
            format!("{open}0{close}")
        };
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let too_deep = Err(JsonError::TooDeep { limit: MAX_DEPTH });
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), too_deep);
        // A frame of nothing but `[` stops at the bound instead of
        // recursing once per byte.
        assert_eq!(parse(&"[".repeat(200_000)), too_deep);
    }

    #[test]
    fn surrogate_pairs_decode_to_one_astral_character() {
        assert_eq!(parse(r#""😀""#), Ok(Json::Str("😀".into())));
        assert_eq!(parse(r#""a𝄞b""#), Ok(Json::Str("a𝄞b".into())));
        // Lone or reversed surrogates stay U+FFFD; the escape after a
        // lone high surrogate still decodes on its own.
        assert_eq!(parse(r#""\ud83d""#), Ok(Json::Str("\u{fffd}".into())));
        assert_eq!(parse(r#""\ude00x""#), Ok(Json::Str("\u{fffd}x".into())));
        assert_eq!(parse(r#""\ud83dA""#), Ok(Json::Str("\u{fffd}A".into())));
        assert_eq!(
            parse(r#""\ude00\ud83d""#),
            Ok(Json::Str("\u{fffd}\u{fffd}".into()))
        );
        assert!(parse(r#""\ud83d\u12""#).is_err());
    }

    /// `s` as a JSON string body with every non-ASCII character escaped,
    /// astral ones as surrogate pairs — what an ASCII-only encoder (such
    /// as Python's `json.dumps` default) sends.
    fn ascii_escaped(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                ' '..='~' => out.push(c),
                _ => {
                    let mut units = [0u16; 2];
                    for u in c.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{u:04X}"));
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escaped_strings_round_trip(chars in proptest::collection::vec(
            prop_oneof![
                Just('"'),
                Just('\\'),
                Just('/'),
                (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
                (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
                (0x80u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
                (0xe000u32..0x10000).prop_map(|c| char::from_u32(c).unwrap()),
                (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).unwrap()),
            ],
            0..24,
        )) {
            let s: String = chars.into_iter().collect();
            let quoted = format!("\"{}\"", crate::perfetto::escape_json(&s));
            prop_assert_eq!(parse(&quoted), Ok(Json::Str(s.clone())));
            let ascii = format!("\"{}\"", ascii_escaped(&s));
            prop_assert_eq!(parse(&ascii), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn validates_sample_export() {
        use crate::{Args, Category, Trace, TraceConfig, Tracer, Track};
        let tr = Tracer::new(0, TraceConfig::on());
        tr.span(
            Category::Compute,
            "compute",
            0.0,
            1e-3,
            Track::Main,
            Args::default(),
        );
        tr.counter("cache_used", 1e-3, 7.0);
        let doc = crate::perfetto::to_chrome_json(&Trace {
            ranks: vec![tr.finish()],
        });
        let parsed = parse(&doc).unwrap();
        let schema = parse(DEFAULT_SCHEMA).unwrap();
        let check = validate_chrome_trace(&parsed, &schema).unwrap();
        assert_eq!(check.spans, 1);
        assert_eq!(check.counters, 1);
        assert_eq!(check.ranks, 1);
    }

    #[test]
    fn flags_backwards_clock() {
        let doc = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"name":"a","cat":"compute","ph":"X","ts":5.0,"dur":1.0,"pid":0,"tid":0,"args":{}},
            {"name":"b","cat":"compute","ph":"X","ts":4.0,"dur":1.0,"pid":0,"tid":0,"args":{}}
        ]}"#;
        let parsed = parse(doc).unwrap();
        let schema = parse(DEFAULT_SCHEMA).unwrap();
        assert!(validate_chrome_trace(&parsed, &schema).is_err());
    }
}
