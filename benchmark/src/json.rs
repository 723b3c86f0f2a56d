//! A JSON object writer. Reading goes through `egeria_obs::jsonl::parse`;
//! the vendored `serde_json` stand-in only serializes derived types, and
//! the objects written here have run-time keys.

use std::fmt::Write;

/// Builds one JSON object, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        push_str(&mut self.body, key);
        self.body.push(':');
    }

    /// A number with all its digits; a non-finite value becomes `null`,
    /// which every reader here treats as a failed measurement.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_str(&mut self.body, value);
        self
    }

    /// `value` must already be JSON.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.body.push_str(value);
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON array of already-serialized items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::new();
    push_str(&mut out, s);
    out
}

fn push_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use egeria_obs::jsonl::parse;

    #[test]
    fn written_objects_parse_back() {
        let text = Obj::default()
            .num("a", 1.2034)
            .num("nan", f64::NAN)
            .int("n", 7)
            .bool("ok", true)
            .str("s", "q\"\\\n\u{1}")
            .raw("list", &array(vec![string("x"), "2".to_string()]))
            .finish();
        let v = parse(&text).expect("valid JSON");
        assert_eq!(v.get("a").and_then(|x| x.as_f64()), Some(1.2034));
        assert!(v.get("nan").is_some() && v.get("nan").unwrap().as_f64().is_none());
        assert_eq!(v.get("n").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("s").and_then(|x| x.as_str()), Some("q\"\\\n\u{1}"));
        assert_eq!(
            v.get("list").and_then(|x| x.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }
}
