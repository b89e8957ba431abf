//! The workspace's one JSON module: a [`Json`] value, its writer
//! ([`Display`](fmt::Display)) and its parser ([`parse_json`]).
//!
//! Every document the workspace emits — metrics snapshots, Chrome
//! traces, remark streams, the bench reports — is built as a `Json` and
//! printed, so JSON syntax (escaping, separators, number formatting) is
//! known here and nowhere else. Std-only, like the rest of the crate:
//! the workspace has no registry access, hence no serde.
//!
//! `{}` prints compact JSON; `{:#}` indents two spaces per level with
//! one member or element per line, for documents people read and diff.
//! Numbers are `f64`: integral values print without a fraction (exactly
//! up to 2^53), and non-finite ones print as `null`, since JSON has no
//! spelling for them.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64 — fine for cycle counts < 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion order not preserved.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object of `(key, value)` members; a repeated key keeps its
    /// last value.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The f64 value of a number; `None` otherwise.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements; `None` otherwise.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Print `self` at nesting depth `indent` (`None`: compact).
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => json_escape(f, s),
            Json::Arr(items) => write_seq(f, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(m) => write_seq(f, indent, "{}", m.iter().map(|(k, v)| (Some(&**k), v))),
        }
    }
}

/// Print an array (`keys` all `None`) or an object between the two
/// characters of `brackets`.
fn write_seq<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let inner = indent.map(|d| d + 1);
    f.write_str(&brackets[..1])?;
    let mut empty = true;
    for (key, v) in members {
        if !empty {
            f.write_char(',')?;
        }
        empty = false;
        if let Some(d) = inner {
            write!(f, "\n{:1$}", "", 2 * d)?;
        }
        if let Some(k) = key {
            json_escape(f, k)?;
            f.write_str(if indent.is_some() { ": " } else { ":" })?;
        }
        v.write(f, inner)?;
    }
    if let (Some(d), false) = (indent, empty) {
        write!(f, "\n{:1$}", "", 2 * d)?;
    }
    f.write_str(&brackets[1..])
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
from_number!(f64, u64, u32, usize, i64);

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

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collect into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Write `s` as a JSON string literal, quotes included. Total: quotes,
/// backslashes and every control character are escaped, everything else
/// passes through.
fn json_escape(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        if c >= ' ' && c != '"' && c != '\\' {
            continue;
        }
        out.write_str(&s[plain..i])?;
        plain = i + 1; // every escaped character is one ASCII byte
        match c {
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '"' | '\\' => write!(out, "\\{c}")?,
            c => write!(out, "\\u{:04x}", c as u32)?,
        }
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {}", self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(
                self.items(b'}', Self::member)?.into_iter().collect(),
            )),
            Some(b'[') => Ok(Json::Arr(self.items(b']', Self::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The comma-separated elements or members after an opening bracket,
    /// through the closing `close`; `item` reads one.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.err(&format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    /// One `"key": value` member of an object.
    fn member(&mut self) -> Result<(String, Json), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok((key, self.value()?))
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let s = &self.src[start..self.pos];
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number '{s}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is literal text.
            let run = self.src[self.pos..]
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.eat(b'"') {
                return Ok(out);
            }
            let escape = self.src.as_bytes().get(self.pos + 1).copied();
            self.pos += 2;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let code = self.src.get(self.pos..self.pos + 4);
                    let code = code.and_then(|hex| u32::from_str_radix(hex, 16).ok());
                    let code = code.ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }
}

/// Parse a JSON document.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = Parser { src: input, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_testkit::Rng;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        json_escape(&mut out, s).expect("writing to a String");
        out
    }

    #[test]
    fn json_escape_is_total() {
        assert_eq!(escaped("plain b=4 (ok)"), "\"plain b=4 (ok)\"");
        assert_eq!(escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escaped("l1\nl2\r\tx"), "\"l1\\nl2\\r\\tx\"");
        assert_eq!(escaped("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(escaped("naïve →"), "\"naïve →\"");
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v =
            parse_json(r#"{"a":[1,2.5,-3],"s":"x\"\nA","b":true,"n":null}"#).expect("valid JSON");
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\"\nA"));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn writer_formats_numbers_and_layout() {
        let v = Json::obj([
            ("int", Json::from(1u64 << 53)),
            ("neg", (-3i64).into()),
            ("frac", 2.5.into()),
            ("nan", f64::NAN.into()),
            ("inf", f64::NEG_INFINITY.into()),
            ("none", Option::<u64>::None.into()),
            ("list", [1u64, 2].into_iter().collect()),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"empty":[],"frac":2.5,"inf":null,"int":9007199254740992,"list":[1,2],"nan":null,"neg":-3,"none":null}"#
        );
        let pretty = format!(
            "{:#}",
            Json::obj([("a", Json::from_iter([1u64])), ("b", Json::obj::<&str>([]))])
        );
        assert_eq!(pretty, "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
    }

    /// A random value up to `depth` levels deep, biased toward what the
    /// writer must get right: escapes, non-ASCII, integers up to 2^53,
    /// and non-finite numbers.
    fn random_json(rng: &mut Rng, depth: usize) -> Json {
        const TRICKY: &[char] = &[
            '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '→', '😀', 'a', ' ',
        ];
        let string = |rng: &mut Rng| {
            if rng.bool() {
                rng.string_from(TRICKY, 8)
            } else {
                rng.unicode_string(8)
            }
        };
        match rng.range_usize(0, if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.bool()),
            2 => Json::Num(match rng.range_usize(0, 4) {
                0 => rng.range_i64(-(1 << 53), (1 << 53) + 1) as f64,
                1 => f64::from_bits(rng.next_u64()),
                2 => *rng.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0]),
                _ => rng.range_i64(-1000, 1000) as f64 / 8.0,
            }),
            3 => Json::Str(string(rng)),
            4 => (0..rng.range_usize(0, 4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
            _ => Json::Obj(
                (0..rng.range_usize(0, 4))
                    .map(|_| (string(rng), random_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// What a value reads back as: non-finite numbers become `null`.
    fn written(v: Json) -> Json {
        match v {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.into_iter().map(written).collect()),
            Json::Obj(m) => Json::Obj(m.into_iter().map(|(k, v)| (k, written(v))).collect()),
            v => v,
        }
    }

    #[test]
    fn parse_inverts_write() {
        pdc_testkit::cases(500, "json_round_trip", |rng| {
            let v = random_json(rng, 4);
            for text in [v.to_string(), format!("{v:#}")] {
                let back = parse_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
                assert_eq!(back, written(v.clone()), "{text}");
            }
        });
    }
}
