//! The tracked `BENCH_*.json` verdict files: their schema, and the one
//! way to write them.
//!
//! The repo tracks verdict files (`BENCH_conformance.json`,
//! `BENCH_adversary.json`) that CI diffs and downstream tooling
//! parses. A binary pointed at the wrong path — or at a file another
//! tool half-wrote — used to clobber it silently; now every writer goes
//! through [`write_tracked`], which refuses (exit 1, clear message)
//! when the existing content does not parse as the schema its filename
//! promises:
//!
//! * `BENCH_conformance*.json` — a `rows` array where every row
//!   carries the sliding-window fields: string `claim`, numeric
//!   `scale`/`window`/`trials`/`violations`/`lcb`/`bound`, boolean
//!   `pass`.
//! * any other `BENCH_*.json` — well-formed JSON.
//!
//! Parsing and rendering are [`sift_obs::json`]'s; this module holds
//! only the domain rules.

use std::io;
use std::path::Path;

use sift_obs::json::{self, Json};

/// Validates `text` against the row schema its filename (`name`, the
/// file stem or full basename) promises. Unknown `BENCH_*` kinds only
/// need to be well-formed JSON.
pub(crate) fn validate_bench_json(name: &str, text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    if name.starts_with("BENCH_conformance") {
        let rows = doc
            .get("rows")
            .and_then(Json::items)
            .ok_or("BENCH_conformance: missing \"rows\" array")?;
        for (i, row) in rows.iter().enumerate() {
            let context = format!("BENCH_conformance row {i}");
            if row.get("claim").and_then(Json::as_str).is_none() {
                return Err(format!("{context}: missing string field \"claim\""));
            }
            for field in ["scale", "window", "trials", "violations", "lcb", "bound"] {
                match row.get(field) {
                    Some(Json::Num(_)) => {}
                    Some(_) => return Err(format!("{context}: field {field:?} is not a number")),
                    None => return Err(format!("{context}: missing required field {field:?}")),
                }
            }
            if row.get("pass").and_then(Json::as_bool).is_none() {
                return Err(format!("{context}: missing boolean field \"pass\""));
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
    let name = file_name(path);
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

fn file_name(path: &Path) -> &str {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default()
}

/// Writes `doc` to `path`, the one way every JSON artifact (`exp soak`,
/// `exp adversary`, `--obs-json`) reaches disk: [`validate_target`]
/// (a malformed tracked target is refused and left untouched), render,
/// validate the rendering against the schema `path`'s name promises,
/// write.
///
/// # Errors
///
/// The refusal, a failed self-validation, or the filesystem error.
pub(crate) fn write_tracked(path: &Path, doc: &Json) -> io::Result<()> {
    validate_target(path).map_err(|message| {
        io::Error::other(format!(
            "refusing to overwrite trajectory target: {message}"
        ))
    })?;
    let rendered = json::write(doc);
    validate_bench_json(file_name(path), &rendered).map_err(|message| {
        io::Error::other(format!("rendered JSON failed self-validation: {message}"))
    })?;
    std::fs::write(path, rendered)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_basic_shapes() {
        let doc = json::parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#);
        let doc = doc.unwrap();
        let a = doc.get("a").and_then(Json::items).unwrap();
        assert_eq!(a, ["1", "2.5", "-3e2"].map(|n| Json::Num(n.into())));
        assert_eq!(doc.get("b"), Some(&Json::from("x\ny")));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
    }

    /// The validator accepts exactly what CI's Python `json.load` does.
    /// (At the parent any run of `[0-9+-.eE]` that `f64::from_str` took
    /// was a number, and raw control characters passed.)
    #[test]
    fn rejects_malformed_documents() {
        let malformed = [
            "", "{", "[1,]", "{} x", "nul", "[NaN]", "{'a':1}", "[+1]", "[1.]", "[.5]", "[01]",
            "[-.5]", "[1.e3]", "[1e]", "[-]", "\"\n\"", "\"\t\"", r#""\x""#, r#""\u1""#,
        ];
        for bad in malformed {
            let verdict = validate_bench_json("BENCH_any.json", bad);
            assert!(verdict.is_err(), "{bad:?} should not parse");
        }
        for good in ["0", "-0.0e-0", "[1E+2]", r#""é\/""#, " [] "] {
            validate_bench_json("BENCH_any.json", good).expect(good);
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
            // Tracked bytes are exactly what the writer renders.
            assert_eq!(json::write(&json::parse(&text).unwrap()), text, "{name}");
        }
    }
}
