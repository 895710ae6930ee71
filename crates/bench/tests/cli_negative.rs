//! Negative-path coverage for the `exp` command line: malformed
//! `--obs-json` destinations must produce a clean diagnostic and exit
//! code 1 (never a panic); unknown flags, the deleted flags and
//! binary names, and a malformed value for *any* knob must exit 2 with
//! a diagnostic and write nothing.
//!
//! Drives the real `exp` binary via `CARGO_BIN_EXE_`, mostly as
//! `exp fuzz` (the cheapest experiment at a tiny campaign size).

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use sift_bench::cli::env_knob_names;
use sift_obs::json::{self, Json};

/// `exp <name>` with every knob unset, so the caller's environment
/// cannot leak into a test.
fn exp(name: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    cmd.arg(name);
    for knob in env_knob_names() {
        cmd.env_remove(knob);
    }
    cmd
}

/// A throwaway-cheap `exp fuzz` invocation.
fn exp_fuzz() -> Command {
    let mut cmd = exp("fuzz");
    cmd.env("SIFT_FUZZ_N", "3")
        .env("SIFT_FUZZ_GENERATIONS", "1")
        .env("SIFT_FUZZ_POPULATION", "2")
        .env("SIFT_THREADS", "1");
    cmd
}

#[test]
fn unwritable_obs_json_parent_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("sift-cli-neg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"file, not dir").unwrap();
    let target = blocker.join("obs.json");

    let out = exp_fuzz()
        .arg("--obs-json")
        .arg(&target)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1, stderr: {stderr}"
    );
    assert!(
        stderr.contains("failed to write observations"),
        "diagnostic missing: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must not panic on I/O errors: {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_obs_json_path_exits_cleanly() {
    // An empty path can never be created, regardless of privileges, so
    // this holds even in root-everything CI containers. (NUL-byte paths
    // are covered by the `obs::try_finish` unit tests — argv cannot
    // carry them.)
    let out = exp_fuzz()
        .arg("--obs-json")
        .arg("")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1, stderr: {stderr}"
    );
    assert!(
        stderr.contains("failed to write observations"),
        "diagnostic missing: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn writable_obs_json_still_works_end_to_end() {
    let dir = std::env::temp_dir().join(format!("sift-cli-pos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("obs.json");
    let out = exp_fuzz()
        .arg("--obs-json")
        .arg(&target)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let body = std::fs::read_to_string(&target).unwrap();
    assert!(body.starts_with('{'), "JSON object expected: {body}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_keep_exiting_two() {
    let out = exp_fuzz().arg("--no-such-flag").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--no-such-flag"), "stderr: {stderr}");
}

/// A throwaway-cheap `exp soak` invocation (one window).
fn exp_soak() -> Command {
    let mut cmd = exp("soak");
    cmd.env("SIFT_SOAK_WINDOWS", "1").env("SIFT_THREADS", "1");
    cmd
}

/// Points `cmd`'s `output` (a `SIFT_*_JSON` knob or `--obs-json`) at a
/// tracked `BENCH_{kind}.json` holding `content`, and checks the refusal
/// every writer shares: exit 1, the diagnostic, no panic, and the file
/// left exactly as it was.
fn assert_refuses_target(mut cmd: Command, output: &str, kind: &str, content: &[u8]) {
    // One directory per call: two tests may refuse the same target kind.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sift-{output}-neg-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join(format!("BENCH_{kind}.json"));
    std::fs::write(&target, content).unwrap();
    if output.starts_with("--") {
        cmd.arg(output).arg(&target);
    } else {
        cmd.env(output, &target);
    }
    let out = cmd.output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("refusing to overwrite trajectory target"),
        "diagnostic missing: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    // The malformed file is evidence — it must survive the refusal.
    assert_eq!(std::fs::read(&target).unwrap(), content, "target clobbered");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `BENCH_*` trajectory targets are append-style files tracked in git:
/// clobbering a malformed one would silently destroy history, so the
/// writer must refuse with exit 1 and leave the file untouched.
#[test]
fn malformed_tracked_soak_trajectory_target_is_refused() {
    assert_refuses_target(exp_soak(), "SIFT_SOAK_JSON", "conformance", b"garbage{");
}

/// Same refusal for `exp adversary`, which at the parent commit wrote
/// `SIFT_ADVERSARY_JSON` with a bare `std::fs::write` and so clobbered a
/// malformed tracked target.
#[test]
fn malformed_tracked_adversary_target_is_refused() {
    let mut adversary = exp("adversary");
    adversary.env("SIFT_TRIALS", "1");
    assert_refuses_target(adversary, "SIFT_ADVERSARY_JSON", "adversary", b"not json");
}

/// A tracked target nested past `sift_obs::json::MAX_DEPTH` is refused
/// like any other malformed one. (At the parent commit the parser
/// recursed without a limit and the process aborted on a stack
/// overflow instead.)
#[test]
fn deeply_nested_tracked_adversary_target_is_refused() {
    let mut adversary = exp("adversary");
    adversary.env("SIFT_TRIALS", "1");
    let content = "[".repeat(100_000);
    assert_refuses_target(
        adversary,
        "SIFT_ADVERSARY_JSON",
        "adversary",
        content.as_bytes(),
    );
}

/// Same refusal through the shared `--obs-json` path: a tracked
/// `BENCH_*` target with schema-violating contents (a row missing the
/// sliding-window fields) must abort the run.
#[test]
fn malformed_tracked_obs_target_is_refused() {
    let row_without_window = br#"{"rows": [{"claim": "sift.steps", "trials": 8}]}"#;
    assert_refuses_target(exp_fuzz(), "--obs-json", "conformance", row_without_window);
}

/// Polarity: a well-formed existing trajectory is a legal overwrite
/// target, and the freshly written trajectory must itself be valid.
#[test]
fn valid_soak_trajectory_target_is_overwritten_end_to_end() {
    let dir = std::env::temp_dir().join(format!("sift-soak-pos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("BENCH_conformance.json");

    // First write onto a nonexistent target, second onto the valid
    // file the first produced.
    for round in 0..2 {
        let out = exp_soak()
            .env("SIFT_SOAK_JSON", &target)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "round {round} stderr: {stderr}");
    }
    // `write_tracked` checked the row schema before writing.
    let doc = json::parse(&std::fs::read_to_string(&target).unwrap()).unwrap();
    assert!(doc
        .get("rows")
        .and_then(Json::items)
        .is_some_and(|rows| !rows.is_empty()));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every knob with a value space smaller than "any string", and
/// values outside it.
const MALFORMED: [(&str, &[&str]); 8] = [
    ("SIFT_TRIALS", &["many", "0", "-3", ""]),
    ("SIFT_THREADS", &["many", "0", "2.5"]),
    ("SIFT_SEED", &["seven", "-1", "0x10"]),
    ("SIFT_FUZZ_N", &["zero", "0"]),
    ("SIFT_FUZZ_GENERATIONS", &["zero", "0"]),
    ("SIFT_FUZZ_POPULATION", &["zero", "0"]),
    ("SIFT_SOAK_SECS", &["soon", "-1", "1.5"]),
    ("SIFT_SOAK_WINDOWS", &["zero", "0"]),
];

/// The knobs any string is a legal value of: three output paths and the
/// `0` / not-`0` switch.
const FREE_FORM: [&str; 4] = [
    "SIFT_ADVERSARY_JSON",
    "SIFT_FUZZ_OUT",
    "SIFT_FUZZ_EXTENDED",
    "SIFT_SOAK_JSON",
];

/// One contract for every knob: the diagnostic names the knob and the
/// value, the exit code is 2, and nothing runs — no table on stdout, no
/// artifact at any requested output path. (At the parent commit the
/// same mistake was a panic, an exit 2 or silently ignored, depending
/// on the knob.)
#[test]
fn every_knob_rejects_a_malformed_value_the_same_way() {
    for knob in env_knob_names() {
        assert!(
            MALFORMED.iter().any(|(k, _)| *k == knob) ^ FREE_FORM.contains(&knob),
            "{knob} needs a row in MALFORMED or FREE_FORM"
        );
    }
    let dir = std::env::temp_dir().join(format!("sift-knob-neg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (knob, values) in MALFORMED {
        for value in values {
            // `soak` reads the most knobs and writes two artifacts; the
            // parse fails before any of it starts.
            let out = exp_soak()
                .env("SIFT_SOAK_JSON", dir.join("BENCH_conformance.json"))
                .arg("--obs-json")
                .arg(dir.join("obs.json"))
                .env(knob, value)
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let case = format!("{knob}={value:?}");
            assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
            assert!(stderr.contains(knob), "{case} not named: {stderr}");
            assert!(
                stderr.contains(&format!("{value:?}")),
                "{case}: value not echoed: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
            assert!(out.stdout.is_empty(), "{case}: something ran");
            assert_eq!(
                std::fs::read_dir(&dir).unwrap().count(),
                0,
                "{case}: something was written"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One spelling per knob: the flags that duplicated `SIFT_TRIALS` /
/// `SIFT_THREADS` / `SIFT_SEED` and the per-experiment binary names are
/// gone, not aliased.
#[test]
fn deleted_spellings_are_rejected() {
    for flag in ["--trials", "--threads", "--seed"] {
        let out = exp_fuzz().args([flag, "2"]).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(flag));
    }
    let out = exp("exp_fuzz").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    // `SIFT_OBS_JSON` duplicated `--obs-json`; set, it is now inert.
    let dir = std::env::temp_dir().join(format!("sift-obs-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = exp_fuzz()
        .env("SIFT_OBS_JSON", dir.join("obs.json"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
