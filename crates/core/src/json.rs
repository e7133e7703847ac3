//! JSON: one value type, one reader and one string writer.
//!
//! The vendored `serde` is a no-op stub, so everything in the workspace that
//! speaks JSON goes through this module: the `ipl serve` frames, the
//! `BENCH_*.json` documents and the tests that read either.  [`parse_json`]
//! reads RFC 8259 documents, every string escape included; [`string`] writes
//! a string literal, and [`Json`]'s `Display` writes any value back.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// How deeply [`parse_json`] nests arrays and objects.  The reader recurses
/// once per level, so a deeper document is refused with an error instead of
/// overflowing the reading thread's stack.  Every document the workspace
/// writes nests a few levels.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as f64.
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, insertion order not preserved.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer value, if this is an integral number.
    pub fn as_u128(&self) -> Option<u128> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u128)
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Writes the value as JSON in the frames' spacing (`{"k": v, "l": w}`,
/// `[a, b]`); object keys come out sorted.  A number too large for f64
/// (`1e999`) reads as infinity and is written as `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) if n.is_finite() => write!(f, "{n}"),
            Json::Number(_) => f.write_str("null"),
            Json::String(s) => f.write_str(&string(s)),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Object(map) => {
                f.write_char('{')?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {value}", string(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Encodes `s` as a JSON string literal, quotes included.  Control
/// characters are escaped (`\n`, `\r`, `\t`, `\b`, `\f`, else `\u00XX`);
/// everything else, non-ASCII included, is written as is.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, when
/// arrays and objects nest more than 64 deep, or when trailing
/// non-whitespace follows the document.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut reader = Reader {
        text: input,
        pos: 0,
        depth: 0,
    };
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != input.len() {
        return Err(format!("trailing characters at byte {}", reader.pos));
    }
    Ok(value)
}

/// A recursive-descent reader over one document.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Reads an array or an object one level deeper, up to [`MAX_DEPTH`].
    fn nested(&mut self, read: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = read(self);
        self.depth -= 1;
        value
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
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
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("invalid number {text:?} at byte {start}: {e}"))
    }

    /// A string literal.  Runs of plain characters are copied whole; only
    /// `"` and `\` stop the scan, and both are ASCII, so every run ends on a
    /// character boundary.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if rest[run] == b'"' {
                return Ok(out);
            }
            out.push(self.escape()?);
        }
    }

    /// The escape after a backslash: the RFC 8259 set, with `\uXXXX`
    /// surrogate pairs joined into one character.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        self.pos += 1;
        let simple = match self.text.as_bytes().get(at) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => return self.unicode_escape(at),
            other => return Err(format!("unsupported escape {other:?} at byte {at}")),
        };
        Ok(simple)
    }

    fn unicode_escape(&mut self, at: usize) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(format!("unpaired surrogate \\u{code:04x} at byte {at}"));
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        // Only a surrogate is not a char, and a paired one was joined above.
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate \\u{code:04x} at byte {at}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|digits| digits.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|digits| u32::from_str_radix(digits, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_the_basics() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-3.5").unwrap(), Json::Number(-3.5));
        assert_eq!(
            parse_json("\"a\\nb\"").unwrap(),
            Json::String("a\nb".into())
        );
        let doc = parse_json("{\"xs\": [1, 2], \"s\": \"hi\"}").unwrap();
        assert_eq!(doc.get("xs").and_then(Json::as_array).unwrap().len(), 2);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert!(parse_json("{\"x\": }").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn strings_round_trip_through_the_writer_and_the_reader() {
        let mut text: String = (0u8..0x20).map(char::from).collect();
        text.push_str("\"\\é😀\u{7f}\u{85}");
        let literal = string(&text);
        assert!(
            literal.chars().all(|c| !c.is_control()),
            "no raw control character: {literal:?}"
        );
        assert_eq!(parse_json(&literal).unwrap(), Json::String(text));
        assert_eq!(
            string("a\"b\\c\nd\te\r\u{1}é"),
            "\"a\\\"b\\\\c\\nd\\te\\r\\u0001é\""
        );
    }

    #[test]
    fn every_rfc_8259_escape_is_read() {
        let read = |s: &str| parse_json(s).map(|v| v.as_str().map(str::to_string));
        assert_eq!(
            read(r#""\"\\\/\b\f\n\r\t""#).unwrap().as_deref(),
            Some("\"\\/\u{8}\u{c}\n\r\t")
        );
        assert_eq!(read(r#""caf\u00e9""#).unwrap().as_deref(), Some("café"));
        assert_eq!(read(r#""\u00E9""#).unwrap().as_deref(), Some("é"));
        assert_eq!(read(r#""\ud83d\ude00!""#).unwrap().as_deref(), Some("😀!"));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\u00g9""#,
            r#""\u+0e9""#,
            r#""\u00""#,
            r#""\x41""#,
            r#""unterminated"#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn nesting_is_read_to_the_cap_and_refused_past_it() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"k\": ".repeat(n), "}".repeat(n));
        assert!(parse_json(&arrays(MAX_DEPTH)).is_ok() && parse_json(&objects(MAX_DEPTH)).is_ok());
        for deep in [
            arrays(MAX_DEPTH + 1),
            objects(MAX_DEPTH + 1),
            "[".repeat(20_000),
        ] {
            let error = parse_json(&deep).unwrap_err();
            assert!(error.starts_with("nested deeper than 64 levels"), "{error}");
        }
        // Depth is nesting, not count.
        assert!(parse_json(&format!("[{}[]]", "[[]], ".repeat(1_000))).is_ok());
    }

    #[test]
    fn display_writes_values_back_as_read() {
        for text in [
            "null",
            "true",
            "7",
            "-2.5",
            "\"s\\n\"",
            "[1, \"two\", [3]]",
            "{\"a\": {\"b\": [true, null]}, \"c\": 1}",
        ] {
            assert_eq!(parse_json(text).unwrap().to_string(), text);
        }
        assert_eq!(Json::Number(f64::INFINITY).to_string(), "null");
    }
}
