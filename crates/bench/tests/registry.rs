//! The registry is the only list of experiments. These tests hold
//! everything derived from it — `run_all`, `exp list`, `--help`, the
//! README's experiment table — to it, and hold it to the order `exp_all`
//! ran its tables in before the registry existed.

use std::process::Command;

use sift_bench::experiments::{self, REGISTRY};

fn exp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp"))
}

/// `exp list`, as the binary prints it.
fn exp_list() -> String {
    let out = exp().arg("list").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    String::from_utf8(out.stdout).unwrap()
}

/// The experiments `exp_all` ran, in its order, when that order was a
/// hand-written sequence of calls.
const ALL: [&str; 15] = [
    "survivors",
    "agreement",
    "steps",
    "linear_work",
    "baselines",
    "adversary",
    "adopt_commit",
    "consensus",
    "priority_range",
    "max_register",
    "test_and_set",
    "tail",
    "width",
    "adaptive",
    "cost_model",
];

/// Entries whose tables take well under a second at one trial per
/// configuration in a debug build; the rest are checked by name only.
const CHEAP: [&str; 6] = [
    "agreement",
    "baselines",
    "adopt_commit",
    "priority_range",
    "width",
    "adaptive",
];

/// The `E<n>` numbers in `text`, e.g. `"E4/E5 — …"` → `[4, 5]`,
/// `"E19a — …"` → `[19]`. Only the part before the first space counts.
fn e_numbers(text: &str) -> Vec<u32> {
    let head = text.split(' ').next().unwrap_or("");
    head.split('/')
        .filter_map(|token| {
            let digits: String = token
                .strip_prefix('E')?
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

/// `run_all` is the registry's `all`-flagged entries in registry order,
/// that order is the historical one, and each cheap entry's function
/// really prints the tables its row claims: every title's `E<n>` label
/// appears in the row's index column.
#[test]
fn run_all_is_the_all_flagged_entries_in_order() {
    let flagged: Vec<&str> = REGISTRY
        .iter()
        .filter(|e| e.in_all().is_some())
        .map(|e| e.name)
        .collect();
    assert_eq!(flagged, ALL);

    sift_bench::runner::set_trials(1);
    for name in CHEAP {
        let entry = experiments::find(name).expect("cheap entries are registered");
        let claimed: Vec<u32> = entry.index.split('/').flat_map(e_numbers).collect();
        let tables = entry.in_all().expect("cheap entries are part of `all`")();
        assert!(!tables.is_empty(), "{name} printed nothing");
        for table in tables {
            let labels = e_numbers(table.title());
            assert!(
                !labels.is_empty() && labels.iter().all(|l| claimed.contains(l)),
                "{name} (index {}) printed {:?}",
                entry.index,
                table.title()
            );
        }
    }
    sift_bench::runner::set_trials(0);
}

#[test]
fn names_are_unique_and_listed_one_per_line() {
    let listed = exp_list();
    assert_eq!(listed, experiments::list());
    let lines: Vec<&str> = listed.lines().collect();
    assert_eq!(lines.len(), REGISTRY.len());
    for (line, entry) in lines.iter().zip(&REGISTRY) {
        assert_eq!(line.split_whitespace().next(), Some(entry.name));
        assert!(line.ends_with(entry.about));
        assert_eq!(
            REGISTRY.iter().filter(|e| e.name == entry.name).count(),
            1,
            "{} registered twice",
            entry.name
        );
    }
}

/// Every registered name is a subcommand: `--help` after it exits 0 and
/// describes it, and an unknown flag after it still exits 2.
#[test]
fn every_name_accepts_help_and_rejects_unknown_flags() {
    for entry in &REGISTRY {
        let out = exp().args([entry.name, "--help"]).output().expect("runs");
        assert_eq!(out.status.code(), Some(0), "{} --help", entry.name);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(entry.about), "{}: {stdout}", entry.name);
        assert!(stdout.contains("SIFT_TRIALS"), "{}: {stdout}", entry.name);

        let out = exp()
            .args([entry.name, "--no-such-flag"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{} --no-such-flag", entry.name);
        assert!(out.stdout.is_empty(), "{} ran", entry.name);
    }
}

/// No name, or a name the registry does not hold, is exit 2 with the
/// `exp list` output so the next attempt can be right.
#[test]
fn a_missing_or_unknown_name_exits_two_and_prints_the_list() {
    let listed = exp_list();
    for args in [&[][..], &["no_such_experiment"][..], &["exp_all"][..]] {
        let out = exp().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&listed), "{args:?}: {stderr}");
    }
}

/// README's experiment table is `exp list`, verbatim: the fenced block
/// that follows the `<!-- exp list -->` marker.
#[test]
fn readme_experiment_table_equals_exp_list() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(path).expect("README.md at the workspace root");
    let (_, after) = readme
        .split_once("<!-- exp list -->\n```text\n")
        .expect("README has an `<!-- exp list -->` marker followed by a ```text block");
    let (table, _) = after.split_once("```").expect("the block is closed");
    assert_eq!(
        table,
        exp_list(),
        "README's experiment table is stale: paste the output of `exp list`"
    );
}
