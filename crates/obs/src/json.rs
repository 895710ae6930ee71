//! JSON, one way: the workspace's one value type, writer and parser.
//!
//! [`write()`] has one layout rule: containers at depth 0 and 1 put one
//! child per line, indented two spaces per level; deeper containers
//! are inline, with `", "` and `": "`; an empty container is `{}` or
//! `[]`; a document ends with a newline. [`parse`] accepts exactly
//! RFC 8259 — what CI's Python `json.load` accepts: no `+1`, `.5`,
//! `1.`, `01`, raw control character or trailing content.
//!
//! ```
//! use sift_obs::json::{self, Json};
//! let doc = Json::obj([("n", Json::from(32u64)), ("rate", Json::fixed(0.35, 4))]);
//! let text = json::write(&doc);
//! assert_eq!(text, "{\n  \"n\": 32,\n  \"rate\": 0.3500\n}\n");
//! assert_eq!(json::parse(&text), Ok(doc));
//! ```

/// A JSON value. Objects keep insertion order; a number is kept as its
/// text, so an integer round-trips exactly through [`Json::as_u64`] and
/// a rate keeps the decimals it was written with ([`Json::fixed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its RFC 8259 text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion (or source) order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` with exactly `decimals` digits after the point (the `{:.4}` /
    /// `{:.6}` rates); `null` if `x` is not finite.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        let text = x.is_finite().then(|| format!("{x:.decimals$}"));
        text.map_or(Json::Null, Json::Num)
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(fields) = self else { return None };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The items, if this is an array.
    pub fn items(&self) -> Option<&[Json]> {
        let Json::Arr(items) = self else { return None };
        Some(items)
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// The number, if this is an integer in `u64`'s range — exact,
    /// never through `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(text) = self else { return None };
        text.parse().ok()
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        let Json::Bool(b) = self else { return None };
        Some(*b)
    }
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    u64 => |n| Json::Num(n.to_string()),
    usize => |n| Json::Num(n.to_string()),
    bool => |b| Json::Bool(b),
    &str => |s| Json::Str(s.into()),
    String => |s| Json::Str(s),
}

/// Renders `value` as a document under the one layout rule (module
/// docs). Equal values give equal bytes.
pub fn write(value: &Json) -> String {
    render(value, 0) + "\n"
}

fn render(value: &Json, depth: usize) -> String {
    let (brackets, children): (_, Vec<String>) = match value {
        Json::Null => return "null".into(),
        Json::Bool(b) => return b.to_string(),
        Json::Num(text) => return text.clone(),
        Json::Str(s) => return quote(s),
        Json::Arr(items) => ("[]", items.iter().map(|v| render(v, depth + 1)).collect()),
        Json::Obj(fields) => {
            let field = |(k, v): &(String, Json)| format!("{}: {}", quote(k), render(v, depth + 1));
            ("{}", fields.iter().map(field).collect())
        }
    };
    let (open, close) = brackets.split_at(1);
    if depth >= 2 || children.is_empty() {
        return format!("{open}{}{close}", children.join(", "));
    }
    // Depth 0 and 1: one child per line, one level deeper than the brackets.
    let indent = "  ".repeat(depth);
    let children = children.join(&format!(",\n{indent}  "));
    format!("{open}\n{indent}  {children}\n{indent}{close}")
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How deeply [`parse`] nests arrays and objects before refusing the
/// document. Nothing the workspace writes nests deeper than five
/// levels (`--obs-json`); a fixed bound keeps the recursive parser's
/// stack bounded on any input.
pub const MAX_DEPTH: usize = 128;

/// Parses one RFC 8259 document (surrounding whitespace allowed),
/// nested at most [`MAX_DEPTH`] containers deep.
///
/// # Errors
///
/// A message naming the byte offset of the first thing that is not
/// JSON, or of the container that nests deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.error("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn rest(&self) -> &str {
        &self.text[self.pos..]
    }

    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Consumes the next byte if it is one of `set`.
    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.rest().bytes().next().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if !self.eat(&[byte]) {
            return Err(self.error(&format!("expected {:?}", byte as char)));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.eat(b" \t\n\r") {}
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.rest().bytes().next() {
            Some(b'[') => self.parse_seq(b']', Self::parse_value).map(Json::Arr),
            Some(b'{') => {
                let field = |p: &mut Self| {
                    p.skip_ws();
                    let key = p.parse_string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    Ok((key, p.parse_value()?))
                };
                self.parse_seq(b'}', field).map(Json::Obj)
            }
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The opening bracket, then comma-separated items (each read by
    /// `item`), then `close`, one nesting level deeper.
    fn parse_seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.eat(&[close]) {
            self.depth -= 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if !self.eat(b",") {
                self.depth -= 1;
                return self.expect(close).map(|()| items);
            }
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.rest().starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b"-");
        if !self.eat(b"0") {
            self.digits()?;
        }
        if self.eat(b".") {
            self.digits()?;
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            self.digits()?;
        }
        Ok(Json::Num(self.text[start..self.pos].into()))
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        let n = self.rest().bytes().take_while(u8::is_ascii_digit).count();
        if n == 0 {
            return Err(self.error("expected a digit"));
        }
        self.pos += n;
        Ok(())
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next_char()? {
                '"' => return Ok(out),
                '\0'..='\x1f' => return Err(self.error("raw control character in string")),
                '\\' => match self.next_char()? {
                    c @ ('"' | '\\' | '/') => out.push(c),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        // A run of `\uXXXX` escapes is UTF-16: surrogate
                        // pairs join, a lone surrogate becomes U+FFFD.
                        let mut units = vec![self.hex4()?];
                        while self.rest().starts_with("\\u") {
                            self.pos += 2;
                            units.push(self.hex4()?);
                        }
                        out.extend(char::decode_utf16(units).map(|c| c.unwrap_or('\u{FFFD}')));
                    }
                    _ => return Err(self.error("invalid escape")),
                },
                c => out.push(c),
            }
        }
    }

    /// The next character of a string, consumed.
    fn next_char(&mut self) -> Result<char, String> {
        let c = self.rest().chars().next();
        let c = c.ok_or_else(|| self.error("unterminated string"))?;
        self.pos += c.len_utf8();
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let hex = self
            .rest()
            .get(..4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let unit = hex.and_then(|h| u16::from_str_radix(h, 16).ok());
        let unit = unit.ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        let rendered = |s: &str| write(&Json::from(s));
        assert_eq!(rendered("plain"), "\"plain\"\n");
        assert_eq!(rendered("a\"b"), "\"a\\\"b\"\n");
        assert_eq!(rendered("a\\b"), "\"a\\\\b\"\n");
        assert_eq!(rendered("é\nb"), "\"é\\u000ab\"\n");
    }
}
