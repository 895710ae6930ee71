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
//! * `BENCH_conformance*.json` — a `rows` array of verdict rows, each
//!   with the soak's numeric `window`;
//! * `BENCH_adversary*.json` — a `negative` array of verdict rows;
//! * any other `BENCH_*.json` — well-formed JSON.
//!
//! A verdict row is [`Verdict`](crate::conformance::Verdict)'s JSON,
//! checked field by field by one rule.
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
    // Each verdict file's row array, and the fields its rows add.
    let (kind, key, extra): (_, _, &[&str]) = if name.starts_with("BENCH_conformance") {
        ("BENCH_conformance", "rows", &["window"])
    } else if name.starts_with("BENCH_adversary") {
        ("BENCH_adversary", "negative", &[])
    } else {
        return Ok(());
    };
    let rows = doc
        .get(key)
        .and_then(Json::items)
        .ok_or(format!("{kind}: missing {key:?} array"))?;
    for (i, row) in rows.iter().enumerate() {
        check_row(row, extra).map_err(|e| format!("{kind} row {i}: {e}"))?;
    }
    Ok(())
}

/// The one rule of a verdict row (see the module docs), plus the
/// numeric fields in `extra`.
fn check_row(row: &Json, extra: &[&str]) -> Result<(), String> {
    let env = row.get("env").ok_or("missing object field \"env\"")?;
    for (object, field) in [(row, "claim"), (env, "strength"), (env, "registers")] {
        if object.get(field).and_then(Json::as_str).is_none() {
            return Err(format!("missing string field {field:?}"));
        }
    }
    let measure: &[&str] = match row.get("violations") {
        Some(_) => &["violations"],
        None => &["mean", "markov", "mean_lcb"],
    };
    let numbers = ["scale", "trials", "lcb", "bound"];
    for &field in numbers.iter().chain(extra).chain(measure) {
        if !matches!(row.get(field), Some(Json::Num(_))) {
            return Err(format!("missing numeric field {field:?}"));
        }
    }
    for field in ["expect_hold", "pass"] {
        if row.get(field).and_then(Json::as_bool).is_none() {
            return Err(format!("missing boolean field {field:?}"));
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

    const ENV: &str = r#""env": {"strength": "oblivious", "registers": "atomic"}"#;

    #[test]
    fn conformance_rows_need_the_window_fields() {
        let good = format!(
            r#"{{"rows": [
            {{"claim": "T2.steps", {ENV}, "scale": 16, "window": 0, "trials": 8,
             "violations": 0, "lcb": 0.0, "bound": 0.0, "expect_hold": true, "pass": true}}
        ]}}"#
        );
        validate_bench_json("BENCH_conformance.json", &good).unwrap();
        let missing = good.replace(r#""window": 0, "#, "");
        let err = validate_bench_json("BENCH_conformance.json", &missing).unwrap_err();
        assert!(err.contains("window"), "{err}");
    }

    #[test]
    fn adversary_rows_follow_the_same_rule() {
        let good = format!(
            r#"{{"negative": [
            {{"claim": "NEG.adaptive.decay", {ENV}, "scale": 128, "trials": 60,
             "mean": 127.0, "markov": 60, "mean_lcb": 127.0, "round": 3, "lcb": 0.93,
             "bound": 6.16, "expect_hold": false, "pass": true}}
        ]}}"#
        );
        validate_bench_json("BENCH_adversary.json", &good).unwrap();
        for (field, broken) in [
            ("markov", good.replace(r#""markov": 60, "#, "")),
            ("registers", good.replace(r#", "registers": "atomic""#, "")),
            ("expect_hold", good.replace(r#""expect_hold": false, "#, "")),
        ] {
            let err = validate_bench_json("BENCH_adversary.json", &broken).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
        let err = validate_bench_json("BENCH_adversary.json", "{}").unwrap_err();
        assert!(err.contains("negative"), "{err}");
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
