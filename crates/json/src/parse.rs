//! Recursive-descent JSON parser.

use crate::Json;
use std::fmt;

/// Parse failure: byte offset plus a short message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err("nesting too deep"))
        } else {
            Ok(())
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: must pair with \uXXXX low.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy the run up to the next byte that needs a
                    // decision. Those are all ASCII, so the run ends
                    // between scalars of the `&str` we were handed.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let digits = &self.bytes[start..self.pos];
        if digits[0] != b'-'
            && digits.len() <= 15
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))
        {
            // Digits and nothing else, below 10^15 < 2^53: the integer
            // is exact in an `f64`, so it is the value `str::parse`
            // rounds to. A sign goes the long way: `-0` is `-0.0`.
            let n = digits.iter().fold(0u64, |n, d| n * 10 + u64::from(d - b'0'));
            return Ok(Json::Num(n as f64));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
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
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("unparseable number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "tru",
            "01",
            "1.",
            "1e",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "\"unterminated",
            "{\"a\":1} extra",
            "nul",
            "+1",
            ".5",
            "\"\\x\"",
            "\"\\u12\"",
            "[,]",
            "{,}",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn accepts_whitespace_everywhere() {
        let v = parse(" \t\n{ \"a\" : [ 1 , 2 ] , \"b\" : null } \r\n").expect("parse");
        assert_eq!(v["a"][1].as_f64(), Some(2.0));
        assert!(v["b"].is_null());
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse(r#""\u0041""#).expect("bmp").as_str(), Some("A"));
        assert_eq!(parse(r#""\ud83d\ude00""#).expect("pair").as_str(), Some("😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn parses_number_forms() {
        for (src, expect) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("2.5", 2.5),
            ("-3e2", -300.0),
            ("1E-3", 0.001),
            ("1.25e+2", 125.0),
        ] {
            assert_eq!(parse(src).expect(src).as_f64(), Some(expect), "{src}");
        }
    }

    #[test]
    fn integer_tokens_equal_what_str_parse_reads() {
        // Either side of the direct path's limits: one digit, two,
        // fifteen, sixteen; and the tokens that must not take it.
        for src in [
            "0",
            "9",
            "10",
            "4096",
            "999999999999999",
            "1000000000000000",
            "9007199254740993",
            "18446744073709551615",
            "-0",
            "-7",
            "1e3",
            "1.0",
            "0.5",
            "0e0",
            "123456789012345.5",
            "123456789012345e1",
        ] {
            let expect: f64 = src.parse().expect(src);
            let got = parse(src).expect(src).as_f64().expect("a number");
            assert_eq!(got.to_bits(), expect.to_bits(), "{src}");
        }
        assert!(parse("-0").expect("-0").as_f64().expect("num").is_sign_negative());
        assert_eq!(parse("[7,42,0]").expect("array"), Json::arr([7, 42, 0].map(Json::from)));
        for bad in ["00", "07", "1.", "1e", "-", "1x"] {
            assert!(parse(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn strings_copied_by_the_run_decode_as_scalar_by_scalar() {
        for (src, expect) in [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            (r#""\n""#, "\n"),
            (r#""a\"b\\c\/d""#, "a\"b\\c/d"),
            (r#""\tlead and trail\n""#, "\tlead and trail\n"),
            (r#""é\u00e9ü ✓\"✓ 😀\ud83d\ude00😀""#, "ééü ✓\"✓ 😀😀😀"),
            (r#""\\\\""#, "\\\\"),
            (
                "\"del \u{7f} and nbsp \u{a0} are not control bytes\"",
                "del \u{7f} and nbsp \u{a0} are not control bytes",
            ),
        ] {
            assert_eq!(parse(src).expect(src).as_str(), Some(expect), "{src}");
        }
        // A control byte ends a run and is still refused, where it is.
        let err = parse("\"tab\there\"").expect_err("raw tab");
        assert_eq!(
            (err.offset, err.message.as_str()),
            (4, "unescaped control character in string")
        );
        assert_eq!(parse("\"ü\u{1}\"").expect_err("raw control").offset, 3);
        assert_eq!(
            parse("\"run to the end").expect_err("unterminated").message,
            "unterminated string"
        );
        assert_eq!(parse("\"ends in ü").expect_err("unterminated").message, "unterminated string");

        // Whatever the encoder writes, the run copier reads back: every
        // string of up to three of these, so every neighbourhood a run
        // can start or end in.
        let alphabet = ['a', '"', '\\', '/', '\n', '\u{1}', ' ', 'é', '✓', '😀', '\u{7f}'];
        let mut strings = vec![String::new()];
        for len in 0..3 {
            for i in 0..strings.len() {
                if strings[i].chars().count() == len {
                    strings.extend(alphabet.map(|c| format!("{}{c}", strings[i])));
                }
            }
        }
        for s in strings {
            let doc = Json::Str(s.clone()).to_string();
            assert_eq!(parse(&doc).expect(&doc).as_str(), Some(s.as_str()), "{doc}");
        }
    }

    #[test]
    fn depth_limit_prevents_stack_overflow() {
        let deep = "[".repeat(5000) + &"]".repeat(5000);
        assert!(parse(&deep).is_err());
    }
}
