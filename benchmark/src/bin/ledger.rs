//! `ledger` — the end-to-end binary: system allocator, no spans.
//!
//! ```text
//! ledger --workload W [--seed N] [--seconds S] [--scale F] [--trace 0] [--out FILE]
//! ledger --check
//! ledger repeat [--runs R] [--seed N] [--seconds S]
//! ledger diff A B            (record files, or directories of them)
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use sift_ledger::cli::{parse_run, parse_seed, DEFAULT_SECONDS, DEFAULT_SEED};
use sift_ledger::report::{
    diff, exact_mismatches, print_diff, print_repeat, repeat_rows, Loaded, Record,
};
use sift_ledger::sys;
use sift_ledger::workloads::{self, Workload};

fn main() -> ExitCode {
    sys::start_clock();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--check") => check(),
        Some("repeat") => repeat(&args[1..]),
        Some("diff") => match &args[1..] {
            [a, b] => diff_paths(Path::new(a), Path::new(b)),
            _ => Err("usage: ledger diff A B".to_string()),
        },
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// One measured run. A run that measured wrong outputs still prints its
/// record and exits 0 — `correct: false` is the report; `run.sh` turns
/// it into a failing exit for people.
fn run(args: &[String]) -> Result<bool, String> {
    let run = parse_run(args)?;
    if run.trace {
        return Err(
            "--trace 1 is served by the ledger-traced binary (benchmark/run.sh picks it)".into(),
        );
    }
    let result = workloads::run(run.workload, run.seed, run.seconds, run.scale);
    Record::end_to_end(&run, &result)
        .emit()
        .map_err(|e| format!("writing the record: {e}"))?;
    Ok(true)
}

/// The path of the traced binary, if it was built beside this one.
fn traced_binary() -> Option<PathBuf> {
    let path = std::env::current_exe()
        .ok()?
        .with_file_name("ledger-traced");
    path.exists().then_some(path)
}

/// Runs one measurement in a child process — `binary` on `workload` —
/// to completion and parses the record on the last line of its
/// standard output.
fn run_child(
    binary: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
) -> Result<Loaded, String> {
    let traced = binary
        .file_name()
        .is_some_and(|name| name == "ledger-traced");
    let args = [
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--scale",
        &scale.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ];
    let output = Command::new(binary)
        .args(args)
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} {} exited with {}: {}",
            binary.display(),
            args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let mut record = Loaded::parse(last)?;
    record.workload = workload.name().to_string();
    record.traced = traced;
    Ok(record)
}

/// Every workload at about 1% size, every correctness check on, both
/// binaries, in a few seconds.
fn check() -> Result<bool, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let traced = traced_binary();
    if traced.is_none() {
        eprintln!("ledger --check: no ledger-traced beside this binary; checking end to end only");
    }
    let mut ok = true;
    for workload in Workload::ALL {
        for binary in std::iter::once(&me).chain(&traced) {
            let started = sys::now_s();
            let record = run_child(binary, workload, DEFAULT_SEED, 0.2, 0.01)?;
            let verdict = if record.failed == 0.0 { "ok" } else { "FAILED" };
            println!(
                "{:<14} trace={} {:>3} metrics  failed={}  {:.2}s  {verdict}",
                workload.name(),
                u8::from(record.traced),
                record.metrics.len(),
                record.failed,
                sys::now_s() - started
            );
            ok &= record.failed == 0.0;
        }
    }
    println!(
        "check: {} in {:.1}s",
        if ok { "ok" } else { "FAILED" },
        sys::now_s()
    );
    Ok(ok)
}

/// Two full sets of runs of this build; every end-to-end metric's two
/// medians must agree within its bound, every spread must be within
/// it, and every exact per-layer metric must be identical.
fn repeat(args: &[String]) -> Result<bool, String> {
    let (mut runs, mut seed, mut seconds) = (3usize, DEFAULT_SEED, DEFAULT_SECONDS);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => {
                runs = value
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or("--runs: not a positive number")?
            }
            "--seed" => seed = parse_seed(value)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds: not positive")?
            }
            other => return Err(format!("repeat: unknown argument '{other}'")),
        }
    }
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let traced = traced_binary();
    let mut sets: [Vec<(Vec<Loaded>, Option<Loaded>)>; 2] = [Vec::new(), Vec::new()];
    for (s, set) in sets.iter_mut().enumerate() {
        for workload in Workload::ALL {
            eprintln!("repeat: set {} of 2, {} × {runs}", s + 1, workload.name());
            let records = (0..runs as u64)
                .map(|r| run_child(&me, workload, seed + r, seconds, 1.0))
                .collect::<Result<Vec<_>, _>>()?;
            let exact = traced
                .as_ref()
                .map(|t| run_child(t, workload, seed, seconds, 1.0))
                .transpose()?;
            set.push((records, exact));
        }
    }
    let mut ok = true;
    let [set_a, set_b] = &sets;
    for ((workload, a), b) in Workload::ALL.iter().zip(set_a).zip(set_b) {
        let rows = repeat_rows(workload.name(), &a.0, &b.0);
        print_repeat(&rows);
        ok &= rows.iter().all(|row| row.ok());
        let failed: f64 = a.0.iter().chain(&b.0).map(|r| r.failed).sum();
        if failed > 0.0 {
            println!("{:<14} failed operations: {failed}  FAIL", workload.name());
            ok = false;
        }
        if let (Some(a), Some(b)) = (&a.1, &b.1) {
            let differing = exact_mismatches(a, b);
            println!(
                "{:<14} exact per-layer metrics: {}",
                workload.name(),
                if differing.is_empty() {
                    "identical in both sets".to_string()
                } else {
                    format!("DIFFER on {}  FAIL", differing.join(", "))
                }
            );
            ok &= differing.is_empty() && a.failed + b.failed == 0.0;
        }
    }
    println!("repeat: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// The records under `path`: the file itself, or a directory's
/// `<workload>.json` and `<workload>.traced.json`.
fn records_at(path: &Path) -> Result<Vec<Loaded>, String> {
    if !path.is_dir() {
        return Ok(vec![Loaded::read(path)?]);
    }
    let mut records = Vec::new();
    for workload in Workload::ALL {
        for suffix in ["json", "traced.json"] {
            let file = path.join(format!("{}.{suffix}", workload.name()));
            if file.exists() {
                records.push(Loaded::read(&file)?);
            }
        }
    }
    Ok(records)
}

/// The before/after table: one row per workload × metric present on
/// both sides. Exits non-zero if any gated metric is `worse`.
fn diff_paths(a: &Path, b: &Path) -> Result<bool, String> {
    let (before, after) = (records_at(a)?, records_at(b)?);
    let mut rows = Vec::new();
    for old in &before {
        if let Some(new) = after
            .iter()
            .find(|n| n.workload == old.workload && n.traced == old.traced)
        {
            rows.extend(diff(old, new));
        }
    }
    if rows.is_empty() {
        return Err(format!(
            "{} and {} share no workload",
            a.display(),
            b.display()
        ));
    }
    print_diff(&rows);
    Ok(rows
        .iter()
        .all(|row| row.verdict != Some(sift_ledger::report::Verdict::Worse)))
}
