//! A minimal JSON reader — the parsing side of [`crate::jsonout`].
//!
//! Artifacts this crate writes (`repro --json`, shard state) are parsed
//! back with this hand-rolled recursive-descent reader. It accepts exactly
//! RFC 8259 JSON, except that a `\u` escape must name a Unicode scalar value
//! on its own (the writer escapes only control characters, so it never
//! emits a surrogate pair). Numbers are parsed with Rust's
//! correctly-rounding `str::parse::<f64>`, which inverts `jsonout::num`'s
//! shortest-round-trip formatting **exactly** — write then read recovers
//! the original bits, the property the shard merge pipeline's
//! byte-identity guarantee rests on.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers, integers included, as `f64` (every integer the
    /// artifacts carry is well below 2⁵³).
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key–value pairs in document order (no deduplication).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.fail("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors with the missing key's name.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key {key:?}"))
    }

    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }

    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a bool, found {other:?}")),
        }
    }

    /// The number; `null` reads as NaN (the writer's encoding of non-finite
    /// values, used for unfilled trial slots in shard state).
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            Json::Null => Ok(f64::NAN),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    /// A non-negative integer that fits in `u32`.
    pub fn as_u32(&self) -> Result<u32, String> {
        match self {
            Json::Num(x) if *x >= 0.0 && *x <= u32::MAX as f64 && x.fract() == 0.0 => Ok(*x as u32),
            other => Err(format!("expected a u32, found {other:?}")),
        }
    }

    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, found {other:?}")),
        }
    }
}

/// Deepest container nesting `parse` accepts. The parser is recursive
/// descent, so unbounded nesting is unbounded stack — and a hostile
/// document (the work-server parses POSTs off the network) can pack one
/// nesting level per *byte*. Our artifacts nest a handful of levels;
/// 128 is comfortably past any honest document while keeping the stack
/// shallow.
const MAX_DEPTH: usize = 128;

/// The reader's cursor: `pos` is a byte offset into `text`, always on a
/// char boundary (structure is ASCII, and a string's text is consumed in
/// whole runs of chars).
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.pos)
    }

    /// Runs one container parse a level deeper, enforcing [`MAX_DEPTH`]
    /// with a clean error instead of a stack overflow.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(self.fail(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a value")),
        }
    }

    /// Skips a run of ASCII digits; returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// RFC 8259's `number`: `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // A leading zero stands alone; every other part needs a digit.
        let mut ok = if self.peek() == Some(b'0') {
            self.pos += 1;
            true
        } else {
            self.digits() > 0
        };
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        let token = &self.text[start..self.pos];
        let bad = || self.fail(&format!("bad number {token:?}"));
        if !ok {
            return Err(bad());
        }
        token.parse::<f64>().map(Json::Num).map_err(|_| bad())
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
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
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            // The writer never emits surrogate pairs (it
                            // only escapes control characters); reject
                            // anything that is not a scalar value.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.fail("non-scalar \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(..0x20) => return Err(self.fail("raw control character in a string")),
                Some(_) => {
                    // The run up to the next quote, escape or control
                    // character, in one step: each char is looked at once,
                    // whatever the length.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .find(|c| matches!(c, '"' | '\\' | '\0'..='\x1f'))
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonout::num;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": [1, -2.5, null, true, false], "b": {"c": "x\ty"}}"#;
        let v = Json::parse(doc).unwrap();
        let a = v.field("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64().unwrap(), 1.0);
        assert_eq!(a[1].as_f64().unwrap(), -2.5);
        assert!(a[2].as_f64().unwrap().is_nan());
        assert!(a[3].as_bool().unwrap());
        assert!(!a[4].as_bool().unwrap());
        let c = v.field("b").unwrap().field("c").unwrap();
        assert_eq!(c.as_str().unwrap(), "x\ty");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "nul", "1 2", "\"abc", "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        // RFC 8259 grammar: no leading zero, no bare point, no leading
        // plus, no raw control character in a string, and `\u` takes
        // exactly four hex digits.
        for bad in [
            "01",
            "1.",
            "-.5",
            "+1",
            ".5",
            "-",
            "1e",
            "1e+",
            "[01]",
            "\"a\tb\"",
            "\"\n\"",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u041\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        for (good, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("-1.25", -1.25),
            ("0.5e1", 5.0),
            ("1E+2", 100.0),
            ("2e-1", 0.2),
        ] {
            assert_eq!(Json::parse(good).unwrap(), Json::Num(value), "{good:?}");
        }
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".to_string())
        );
    }

    #[test]
    fn numbers_round_trip_the_writer_exactly() {
        // jsonout::num prints shortest-round-trip floats; parsing them back
        // must recover the exact bits.
        for x in [
            0.0,
            -0.0,
            1.5,
            10.0,
            0.1,
            1.0 / 3.0,
            6.02214076e23,
            f64::MIN_POSITIVE,
            f64::MAX,
            -987_654_321.123_456_8,
        ] {
            let text = num(x);
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        // Non-finite degrades to null on write, NaN on read-back.
        assert!(Json::parse(&num(f64::NAN))
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
        assert!(Json::parse(&num(f64::INFINITY))
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
    }

    #[test]
    fn strings_round_trip_the_writer() {
        for s in [
            "plain",
            "quo\"te",
            "back\\slash",
            "tab\tnewline\n",
            "µs — ∞",
        ] {
            let doc = format!("\"{}\"", crate::jsonout::escape(s));
            assert_eq!(Json::parse(&doc).unwrap().as_str().unwrap(), s);
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Regression: each unescaped char re-validated the rest of the input
        // as UTF-8, so a string-only document, which one POST to the
        // coordinator can carry, took time quadratic in its length (8 MiB:
        // about 25 minutes).
        let len = 8 << 20;
        let doc = format!("\"{}é\\n\"", "x".repeat(len));
        let (sender, receiver) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || sender.send(Json::parse(&doc)).unwrap());
        let parsed = receiver
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("an 8 MiB string parses within 10 s");
        parser.join().unwrap();
        let text = parsed.unwrap();
        assert_eq!(text.as_str().unwrap().len(), len + "é\n".len());
        assert!(text.as_str().unwrap().ends_with("xé\n"));
    }

    #[test]
    fn u32_extraction_is_strict() {
        assert_eq!(Json::parse("42").unwrap().as_u32().unwrap(), 42);
        assert!(Json::parse("-1").unwrap().as_u32().is_err());
        assert!(Json::parse("1.5").unwrap().as_u32().is_err());
        assert!(Json::parse("4294967296").unwrap().as_u32().is_err());
    }

    #[test]
    fn deep_nesting_errors_cleanly_instead_of_overflowing_the_stack() {
        // Regression: the recursive-descent parser had no depth limit, so a
        // 10⁵-deep document (one level per two bytes — trivially cheap for
        // an attacker POSTing to the work-server) overflowed the stack. It
        // must now be a clean parse error.
        for doc in [
            "[".repeat(100_000) + &"]".repeat(100_000),
            "{\"k\":".repeat(100_000) + "1" + &"}".repeat(100_000),
        ] {
            let err = Json::parse(&doc).expect_err("deep nesting must not parse");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        // Honest documents stay well inside the cap: 100 levels parse fine.
        let ok = "[".repeat(100) + "0" + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
        // And the cap is exact: MAX_DEPTH levels parse, MAX_DEPTH + 1 do not.
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&at_cap).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn the_golden_fixtures_parse() {
        // The reader must handle everything the writer emits; the checked-in
        // fixtures are the canonical sample.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        let mut parsed = 0;
        for entry in std::fs::read_dir(&dir).expect("tests/golden") {
            let path = entry.expect("a fixture").path();
            if path.extension().is_some_and(|ext| ext == "json") {
                let text = std::fs::read_to_string(&path).expect("fixture");
                let v = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(v.field("name").is_ok(), "{}", path.display());
                parsed += 1;
            }
        }
        assert!(parsed >= 17, "only {parsed} JSON fixtures");
        let text =
            std::fs::read_to_string(dir.join("fig5_cw_slots_abstract.json")).expect("fixture");
        let v = Json::parse(&text).unwrap();
        assert_eq!(
            v.field("name").unwrap().as_str().unwrap(),
            "fig5_cw_slots_abstract"
        );
        assert_eq!(v.field("series").unwrap().as_array().unwrap().len(), 4);
    }
}
