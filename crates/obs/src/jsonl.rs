//! The workspace's one JSON module: a minimal reader and writer, and the
//! JSONL trace-schema validator. Both halves preserve order (no hash maps —
//! the determinism rule applies to this crate end to end).
//!
//! The reader ([`parse`]) keeps objects as ordered `(key, value)` vectors,
//! numbers as `f64`, and reports errors with a byte offset. Every JSON file
//! the workspace writes goes through the writer ([`ToJson`], [`Object`],
//! [`to_string_pretty`]); the trace export keeps its own line layout but
//! escapes strings with [`write_string`].

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // egeria-lint: allow(float-exact-eq): integrality test — a
            // fractional part of exactly 0.0 is the definition of "is an
            // integer", not a tolerance question.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object members in source order, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Value::Bool(true)),
            Some(b'f') => self.parse_lit("false", Value::Bool(false)),
            Some(b'n') => self.parse_lit("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed for our own
                            // exports; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the remaining input.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one JSON document; trailing content is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after value"));
    }
    Ok(v)
}

/// A value the writer can print as JSON.
pub trait ToJson {
    /// Appends this value's compact JSON encoding to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display!(bool, u32, u64, usize);

macro_rules! display_float {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            /// Shortest round-trip `Display` of this width, so an `f32`
            /// never prints widened `f64` digits; JSON has no NaN or
            /// infinity, so those print `null`.
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    let _ = write!(out, "{self}");
                } else {
                    out.push_str("null");
                }
            }
        }
    )*};
}

display_float!(f32, f64);

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// A JSON object under construction; fields print in insertion order.
/// Arrays are `Vec`s of any [`ToJson`] value, objects included.
#[derive(Debug, Clone, Default)]
pub struct Object {
    /// The compact `"key":value` pairs so far, comma-separated.
    fields: String,
}

impl Object {
    /// An object with no fields.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `"key": value`.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Self {
        if !self.fields.is_empty() {
            self.fields.push(',');
        }
        write_string(&mut self.fields, key);
        self.fields.push(':');
        value.write_json(&mut self.fields);
        self
    }
}

impl ToJson for Object {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str(&self.fields);
        out.push('}');
    }
}

/// Appends `s` as a JSON string literal: quotes, backslash and the control
/// characters are escaped, everything else is written as is.
pub fn write_string(out: &mut String, s: &str) {
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

/// `value` as compact JSON.
fn to_string(value: &(impl ToJson + ?Sized)) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// `value` as JSON indented by two spaces, the form of every report file.
pub fn to_string_pretty(value: &(impl ToJson + ?Sized)) -> String {
    pretty(&to_string(value))
}

/// Re-indents compact JSON: one member per line, two spaces per level,
/// `": "` after keys, empty containers kept on one line, strings untouched.
fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = compact.chars().peekable();
    let newline =
        |out: &mut String, indent: usize| out.push_str(&format!("\n{}", "  ".repeat(indent)));
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                let closer = if c == '{' { '}' } else { ']' };
                if let Some(close) = chars.next_if_eq(&closer) {
                    out.push(close);
                } else {
                    indent += 1;
                    newline(&mut out, indent);
                }
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                newline(&mut out, indent);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, indent);
            }
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
    out
}

/// What the validator learned about a trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFileStats {
    /// Schema version from the meta line.
    pub schema_version: u64,
    /// `span` lines.
    pub spans: usize,
    /// `instant` lines.
    pub instants: usize,
    /// Events the ring evicted, from the meta line.
    pub dropped: u64,
}

fn validate_event_line(obj: &Value, lineno: usize, ty: &str) -> Result<(), String> {
    obj.get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("line {lineno}: {ty} missing string \"kind\""))?;
    obj.get("ts_us")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {lineno}: {ty} missing integer \"ts_us\""))?;
    if ty == "span" {
        obj.get("dur_us")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("line {lineno}: span missing integer \"dur_us\""))?;
    } else if obj.get("dur_us").is_some() {
        return Err(format!("line {lineno}: instant must not carry \"dur_us\""));
    }
    for key in ["iteration", "module"] {
        if let Some(v) = obj.get(key) {
            v.as_u64()
                .ok_or_else(|| format!("line {lineno}: \"{key}\" must be an integer"))?;
        }
    }
    if let Some(args) = obj.get("args") {
        args.as_obj()
            .ok_or_else(|| format!("line {lineno}: \"args\" must be an object"))?;
    }
    Ok(())
}

/// Validates a JSONL trace against the schema in DESIGN.md §5d:
/// a `meta` first line, `span`/`instant` event lines, and a final
/// `metrics` line. Returns counts on success and a line-addressed error
/// on the first violation.
pub fn validate_trace_jsonl(text: &str) -> Result<TraceFileStats, String> {
    let mut stats = TraceFileStats::default();
    let mut saw_meta = false;
    let mut saw_metrics = false;
    let mut lines = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        if saw_metrics {
            return Err(format!("line {lineno}: content after the metrics line"));
        }
        let obj = parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let ty = obj
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string \"type\""))?;
        match ty {
            "meta" => {
                if lines != 1 {
                    return Err(format!("line {lineno}: meta must be the first line"));
                }
                saw_meta = true;
                stats.schema_version = obj
                    .get("schema_version")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("line {lineno}: meta missing \"schema_version\""))?;
                if stats.schema_version != crate::export::SCHEMA_VERSION {
                    return Err(format!(
                        "line {lineno}: unsupported schema_version {}",
                        stats.schema_version
                    ));
                }
                stats.dropped = obj
                    .get("dropped")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("line {lineno}: meta missing \"dropped\""))?;
            }
            "span" | "instant" => {
                if !saw_meta {
                    return Err(format!("line {lineno}: event before the meta line"));
                }
                validate_event_line(&obj, lineno, ty)?;
                if ty == "span" {
                    stats.spans += 1;
                } else {
                    stats.instants += 1;
                }
            }
            "metrics" => {
                if !saw_meta {
                    return Err(format!("line {lineno}: metrics before the meta line"));
                }
                for key in ["counters", "gauges"] {
                    obj.get(key)
                        .and_then(Value::as_obj)
                        .ok_or_else(|| format!("line {lineno}: metrics missing object \"{key}\""))?;
                }
                obj.get("histograms")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| format!("line {lineno}: metrics missing array \"histograms\""))?;
                saw_metrics = true;
            }
            other => return Err(format!("line {lineno}: unknown line type \"{other}\"")),
        }
    }
    if !saw_meta {
        return Err("trace has no meta line".to_string());
    }
    if !saw_metrics {
        return Err("trace has no metrics line".to_string());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_jsonl;
    use crate::telemetry::Telemetry;
    use crate::trace::ArgValue;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a":[1,2.5,-3e2,true,null,"s\n"],"b":{"c":{}}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[3], Value::Bool(true));
        assert_eq!(a[4], Value::Null);
        assert_eq!(a[5].as_str(), Some("s\n"));
        assert!(v.get("b").unwrap().get("c").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut s = String::new();
        write_string(&mut s, "a\"b\\c\nd\re\tf\u{1}\u{1f} é");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001\\u001f é\"");
        assert_eq!(
            parse(&s).unwrap().as_str(),
            Some("a\"b\\c\nd\re\tf\u{1}\u{1f} é")
        );
    }

    #[test]
    fn numbers_print_with_their_own_width() {
        assert_eq!(to_string(&0.1f32), "0.1");
        assert_eq!(to_string(&f64::from(0.1f32)), "0.10000000149011612");
        assert_eq!(to_string(&0.317_972_72f32), "0.31797272");
        assert_eq!(to_string(&2.0f64), "2");
        assert_eq!(to_string(&1e-7f64), "0.0000001");
        assert_eq!(to_string(&u64::MAX), "18446744073709551615");
    }

    #[test]
    fn non_finite_numbers_and_none_print_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(to_string(&v), "null");
        }
        assert_eq!(to_string(&f32::NAN), "null");
        assert_eq!(to_string(&Option::<u32>::None), "null");
        assert_eq!(to_string(&Some(true)), "true");
    }

    #[test]
    fn objects_keep_insertion_order_and_nest() {
        let inner = Object::new().field("z", 1u32).field("a", "x");
        let obj = Object::new()
            .field("b", vec![inner.clone(), Object::new()])
            .field("a", Vec::<u32>::new())
            .field("c", Object::new());
        let compact = to_string(&obj);
        assert_eq!(compact, r#"{"b":[{"z":1,"a":"x"},{}],"a":[],"c":{}}"#);
        assert_eq!(
            to_string_pretty(&obj),
            "{\n  \"b\": [\n    {\n      \"z\": 1,\n      \"a\": \"x\"\n    },\n    {}\n  ],\n  \"a\": [],\n  \"c\": {}\n}"
        );
        let parsed = parse(&compact).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a", "c"]);
    }

    #[test]
    fn pretty_indents_and_preserves_strings() {
        assert_eq!(
            pretty(r#"{"a":[1,2],"b":"x{,}y","c":{}}"#),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": \"x{,}y\",\n  \"c\": {}\n}"
        );
        // Escaped quotes and a trailing escaped backslash stay inside the string.
        assert_eq!(
            pretty(r#"["q\":[,]\\",{}]"#),
            "[\n  \"q\\\":[,]\\\\\",\n  {}\n]"
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{}x").is_err());
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn own_export_round_trips_through_validator() {
        let t = Telemetry::enabled();
        t.counter("cache.hits").inc();
        t.histogram("step_us").observe(42);
        {
            let _s = t.span("train_step").iteration(0).arg("fp_cached", true);
        }
        t.instant("freeze_decision", Some(0), Some(1), vec![("sp", ArgValue::F64(0.5))]);
        let stats = validate_trace_jsonl(&export_jsonl(&t)).unwrap();
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.schema_version, crate::export::SCHEMA_VERSION);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_trace_jsonl("").is_err());
        // No meta line.
        assert!(validate_trace_jsonl(
            "{\"type\":\"span\",\"kind\":\"x\",\"ts_us\":0,\"dur_us\":1}\n"
        )
        .is_err());
        // Span without duration.
        let bad = format!(
            "{{\"type\":\"meta\",\"schema_version\":{},\"events\":1,\"dropped\":0}}\n\
             {{\"type\":\"span\",\"kind\":\"x\",\"ts_us\":0}}\n\
             {{\"type\":\"metrics\",\"counters\":{{}},\"gauges\":{{}},\"histograms\":[]}}\n",
            crate::export::SCHEMA_VERSION
        );
        let err = validate_trace_jsonl(&bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // Content after metrics.
        let tail = format!(
            "{{\"type\":\"meta\",\"schema_version\":{},\"events\":0,\"dropped\":0}}\n\
             {{\"type\":\"metrics\",\"counters\":{{}},\"gauges\":{{}},\"histograms\":[]}}\n\
             {{\"type\":\"metrics\",\"counters\":{{}},\"gauges\":{{}},\"histograms\":[]}}\n",
            crate::export::SCHEMA_VERSION
        );
        assert!(validate_trace_jsonl(&tail).is_err());
    }
}
