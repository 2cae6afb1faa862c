//! Minimal JSON emission for reports and telemetry snapshots.
//!
//! The workspace builds offline (no serde); reports need exactly one
//! direction — Rust values → a JSON document on disk — so this module
//! implements just that: a [`Json`] tree with lossless `u64` tick values
//! and standards-compliant string escaping. It lives in `evolve-obs`, the
//! lowest crate that emits documents (metrics snapshots and Chrome
//! traces); sweep reports and the bench binaries render through it too.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, emitted losslessly (tick counts exceed the
    /// contiguous range of `f64`).
    U64(u64),
    /// A finite float, emitted with enough digits to round-trip.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            // C0 controls must be escaped per RFC 8259; DEL and the
            // line/paragraph separators are escaped defensively — hostile
            // `Load` model names reach trace output as span/track names,
            // and U+2028/U+2029 break JS-adjacent consumers fed verbatim.
            c if (c as u32) < 0x20 || c == '\u{7f}' || c == '\u{2028}' || c == '\u{2029}' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `true` iff `s` is one syntactically valid JSON document.
///
/// A minimal recursive-descent syntax checker (the workspace is offline
/// and has no JSON parser): used by tests and the serve-bench trace gate
/// to assert that exported documents — which can embed hostile
/// client-supplied names — remain well-formed. Validates syntax only; it
/// does not build a tree.
pub fn parses(s: &str) -> bool {
    let mut p = Checker {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    p.value() && {
        p.skip_ws();
        p.pos == p.bytes.len()
    }
}

struct Checker<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Checker<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> bool {
        if self.depth > 512 {
            return false;
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.lit("true"),
            Some(b'f') => self.lit("false"),
            Some(b'n') => self.lit("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    fn object(&mut self) -> bool {
        self.depth += 1;
        self.pos += 1; // '{'
        self.skip_ws();
        if self.eat(b'}') {
            self.depth -= 1;
            return true;
        }
        loop {
            self.skip_ws();
            if !self.string() {
                return false;
            }
            self.skip_ws();
            if !self.eat(b':') {
                return false;
            }
            self.skip_ws();
            if !self.value() {
                return false;
            }
            self.skip_ws();
            if self.eat(b'}') {
                self.depth -= 1;
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn array(&mut self) -> bool {
        self.depth += 1;
        self.pos += 1; // '['
        self.skip_ws();
        if self.eat(b']') {
            self.depth -= 1;
            return true;
        }
        loop {
            self.skip_ws();
            if !self.value() {
                return false;
            }
            self.skip_ws();
            if self.eat(b']') {
                self.depth -= 1;
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn string(&mut self) -> bool {
        if !self.eat(b'"') {
            return false;
        }
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    self.pos += 1;
                    return true;
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !matches!(
                                    self.peek(),
                                    Some(b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F')
                                ) {
                                    return false;
                                }
                                self.pos += 1;
                            }
                        }
                        _ => return false,
                    }
                }
                0x00..=0x1f => return false,
                _ => self.pos += 1,
            }
        }
        false
    }

    fn number(&mut self) -> bool {
        let _ = self.eat(b'-');
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return false; // leading zeros are not JSON numbers
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return false,
        }
        if self.eat(b'.') {
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return false;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return false;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::object([
            ("name", Json::str("sweep \"x\"\n")),
            ("ticks", Json::U64(u64::MAX)),
            ("ratio", Json::F64(2.5)),
            ("flags", Json::Array(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            doc.render(),
            "{\"name\":\"sweep \\\"x\\\"\\n\",\"ticks\":18446744073709551615,\
             \"ratio\":2.5,\"flags\":[true,null]}"
        );
    }

    #[test]
    fn non_finite_floats_degrade_to_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn hostile_strings_escape_controls_del_and_separators() {
        let doc = Json::str("a\u{1b}b\u{7f}c\u{2028}d\u{2029}e\"f\\g").render();
        assert_eq!(doc, "\"a\\u001bb\\u007fc\\u2028d\\u2029e\\\"f\\\\g\"");
        assert!(parses(&doc));
    }

    #[test]
    fn every_emitted_document_parses() {
        let doc = Json::object([
            ("hostile \u{0}\u{7f} key", Json::str("\u{1}\u{2028}")),
            ("nums", Json::Array(vec![Json::U64(0), Json::F64(-2.5e-3)])),
            ("nested", Json::object([("x", Json::Null)])),
        ]);
        assert!(parses(&doc.render()));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"unterminated",
            "\"raw \u{1} control\"",
            "{\"a\":1}trailing",
            "01",
            "--1",
            "1.e5",
            "\"bad \\u00zz escape\"",
        ] {
            assert!(!parses(bad), "accepted malformed input {bad:?}");
        }
        for good in ["null", "[\"\\u00ff\", -1.5e+3, {}]", " { \"a\" : [ ] } "] {
            assert!(parses(good), "rejected valid input {good:?}");
        }
    }
}
