//! Schema validation for the tracked `BENCH_*.json` trajectory files.
//!
//! The repo tracks verdict files (`BENCH_conformance.json`,
//! `BENCH_adversary.json`) that CI diffs and downstream tooling
//! parses. A binary pointed at the wrong path — or
//! at a file another tool half-wrote — used to clobber it silently;
//! now every writer calls `validate_target` first and refuses (exit
//! 1, clear message) when the existing content does not parse as the
//! trajectory schema its filename promises:
//!
//! * `BENCH_conformance*.json` — a `rows` array where every row
//!   carries the sliding-window fields: string `claim`, numeric
//!   `scale`/`window`/`trials`/`violations`/`lcb`/`bound`, boolean
//!   `pass`.
//! * any other `BENCH_*.json` — well-formed JSON.
//!
//! The parser is a minimal recursive-descent JSON reader — the
//! workspace is dependency-free, so no serde.

use std::path::Path;

/// A parsed JSON value (just enough structure for validation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (all parsed as f64; the tracked files stay well
    /// inside f64's exact-integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub(crate) fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            byte as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not needed by any tracked
                        // file; map lone surrogates to the replacement
                        // character rather than failing.
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through byte by byte;
                // the input came from a &str so they are valid.
                let len = match b {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let end = (*pos + len).min(bytes.len());
                out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|_| "bad utf-8")?);
                *pos = end;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn require_num(row: &Json, field: &str, context: &str) -> Result<(), String> {
    match row.get(field) {
        Some(Json::Num(_)) => Ok(()),
        Some(_) => Err(format!("{context}: field {field:?} is not a number")),
        None => Err(format!("{context}: missing required field {field:?}")),
    }
}

/// Validates `text` against the row schema its filename (`name`, the
/// file stem or full basename) promises. Unknown `BENCH_*` kinds only
/// need to be well-formed JSON.
pub fn validate_bench_json(name: &str, text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    if name.starts_with("BENCH_conformance") {
        let rows = doc
            .get("rows")
            .and_then(Json::items)
            .ok_or("BENCH_conformance: missing \"rows\" array")?;
        for (i, row) in rows.iter().enumerate() {
            let context = format!("BENCH_conformance row {i}");
            match row.get("claim") {
                Some(Json::Str(_)) => {}
                _ => return Err(format!("{context}: missing string field \"claim\"")),
            }
            for field in ["scale", "window", "trials", "violations", "lcb", "bound"] {
                require_num(row, field, &context)?;
            }
            match row.get("pass") {
                Some(Json::Bool(_)) => {}
                _ => return Err(format!("{context}: missing boolean field \"pass\"")),
            }
        }
    }
    Ok(())
}

/// Pre-write check for a trajectory output target: a missing or empty
/// file is a fresh start; an existing file must already conform to the
/// schema its name promises, otherwise the caller is almost certainly
/// pointed at the wrong path and must refuse to clobber it.
pub(crate) fn validate_target(path: &Path) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        // Missing file (or unreadable — the write will surface that
        // error itself): nothing to protect.
        Err(_) => return Ok(()),
    };
    if text.trim().is_empty() {
        return Ok(());
    }
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    if !name.starts_with("BENCH_") {
        return Ok(());
    }
    validate_bench_json(name, &text).map_err(|e| {
        format!(
            "existing {} is not valid trajectory JSON ({e})",
            path.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_basic_shapes() {
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().items().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().items().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(doc.get("b"), Some(&Json::Str("x\ny".into())));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "{} trailing", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn conformance_rows_need_the_window_fields() {
        let good = r#"{"rows": [
            {"claim": "sift.steps", "scale": 16, "window": 0, "trials": 8,
             "violations": 0, "lcb": 0.0, "bound": 0.0, "pass": true}
        ]}"#;
        validate_bench_json("BENCH_conformance.json", good).unwrap();
        let missing = r#"{"rows": [
            {"claim": "sift.steps", "scale": 16, "trials": 8,
             "violations": 0, "lcb": 0.0, "bound": 0.0, "pass": true}
        ]}"#;
        let err = validate_bench_json("BENCH_conformance.json", missing).unwrap_err();
        assert!(err.contains("window"), "{err}");
    }

    #[test]
    fn target_validation_refuses_malformed_bench_files_only() {
        let dir = std::env::temp_dir().join(format!("sift_schema_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("BENCH_conformance.json");
        std::fs::write(&bench, "definitely not json").unwrap();
        assert!(validate_target(&bench).is_err());
        std::fs::write(&bench, "").unwrap();
        assert!(
            validate_target(&bench).is_ok(),
            "empty file is a fresh start"
        );
        let other = dir.join("notes.json");
        std::fs::write(&other, "not json either").unwrap();
        assert!(
            validate_target(&other).is_ok(),
            "non-BENCH files are not ours"
        );
        assert!(validate_target(&dir.join("BENCH_missing.json")).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_tracked_files_validate() {
        // Guard the actual tracked trajectory files at the workspace
        // root. A file that cannot be read fails the test: a wrong path
        // must not pass by checking nothing.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for name in ["BENCH_conformance.json", "BENCH_adversary.json"] {
            let text = std::fs::read_to_string(root.join(name))
                .unwrap_or_else(|e| panic!("tracked file {name} is unreadable: {e}"));
            validate_bench_json(name, &text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
