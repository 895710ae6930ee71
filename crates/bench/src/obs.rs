//! Harness-side observation collection behind `--obs-json`.
//!
//! When enabled (by the `--obs-json` flag or [`enable`]), every trial
//! that flows through
//! [`runner`](crate::runner) folds its step accounting into a
//! process-global [`ObsReport`], and [`try_finish`] writes the merged
//! report as JSON. Disabled (the default), recording is a single
//! relaxed atomic load per trial. Every experiment runs on the
//! simulator, so the report carries trial keys only.
//!
//! # Determinism
//!
//! Worker threads record trials in completion order, which varies with
//! `SIFT_THREADS` — but [`ObsReport::merge`] is commutative and
//! associative (property-tested in `sift-obs`), the trial set itself
//! depends only on `(master_seed, trial_index)`, and every value
//! recorded here is an integer, so the merged report — and its JSON
//! rendering — is byte-identical at any thread count.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use sift_obs::{json::Json, ObsReport};
use sift_sim::{Metrics, OpKind, StopReason};

use crate::runner::Trial;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<ObsReport>> = Mutex::new(None);
static OUTPUT: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Every op kind, for the `sim.ops.*` keys.
const OP_KINDS: [OpKind; 6] = [
    OpKind::RegisterRead,
    OpKind::RegisterWrite,
    OpKind::SnapshotUpdate,
    OpKind::SnapshotScan,
    OpKind::MaxRead,
    OpKind::MaxWrite,
];

/// Turns trial recording on and clears previously collected
/// observations (so one process can take several measurement windows).
pub fn enable() {
    *COLLECTOR.lock().unwrap_or_else(|e| e.into_inner()) = Some(ObsReport::new());
    ENABLED.store(true, Ordering::Release);
}

/// Whether trial recording is on.
pub(crate) fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Enables recording and registers `path` as the file [`try_finish`]
/// writes.
pub fn set_output(path: impl Into<PathBuf>) {
    enable();
    *OUTPUT.lock().unwrap_or_else(|e| e.into_inner()) = Some(path.into());
}

/// Folds one trial into the global report (no-op unless enabled).
/// Called by the shared trial runner; custom experiments that bypass it
/// can call this — or [`record_report`] — from their own per-trial
/// code.
pub(crate) fn record_trial(trial: &Trial) {
    if !is_enabled() {
        return;
    }
    let mut r = metrics_report(&trial.metrics);
    r.add_count("trials.agreed", trial.agreed as u64);
    r.add_count(
        "trials.truncated",
        (trial.stop_reason != StopReason::AllDone) as u64,
    );
    r.record_hist("trial.distinct_outputs", trial.distinct_outputs as u64);
    if let Some(survivors) = &trial.survivors {
        r.record_hist("trial.rounds", survivors.len() as u64);
        r.observe_max("sim.max_rounds", survivors.len() as u64);
    }
    record_report(&r);
}

/// Merges an arbitrary pre-built report (no-op unless enabled).
pub(crate) fn record_report(report: &ObsReport) {
    if !is_enabled() {
        return;
    }
    COLLECTOR
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_or_insert_with(ObsReport::new)
        .merge(report);
}

fn metrics_report(metrics: &Metrics) -> ObsReport {
    let mut r = ObsReport::new();
    r.add_count("trials", 1);
    r.add_count("sim.total_steps", metrics.total_steps);
    r.add_count("sim.total_ops", metrics.total_ops);
    r.add_count("sim.skipped_slots", metrics.skipped_slots);
    for kind in OP_KINDS {
        let count = metrics.ops_of_kind(kind);
        if count > 0 {
            let name = sift_sim::obs::op_kind_name(kind);
            r.add_count(&format!("sim.ops.{name}"), count);
        }
    }
    r.observe_max("sim.max_total_steps", metrics.total_steps);
    r.observe_max("sim.max_individual_steps", metrics.max_individual_steps());
    r.record_hist("trial.total_steps", metrics.total_steps);
    r.record_hist("trial.max_individual_steps", metrics.max_individual_steps());
    r
}

/// The merged observations so far: everything recorded through this
/// module.
pub fn collect() -> ObsReport {
    COLLECTOR
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_default()
}

/// Writes the merged observations as JSON to the file registered with
/// [`set_output`], if any, through `schema::write_tracked` (which
/// refuses to clobber a malformed tracked `BENCH_*.json` file).
///
/// Returns the path written (`None` when no output was requested) so
/// the caller owns the user-facing success/error reporting; the I/O
/// error of an unwritable path comes back instead of being swallowed.
///
/// # Errors
///
/// Propagates the underlying filesystem error (missing parent
/// directory, parent is a file, permission, invalid path, ...) or the
/// refusal.
pub fn try_finish() -> io::Result<Option<PathBuf>> {
    let path = OUTPUT.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let Some(path) = path else {
        return Ok(None);
    };
    crate::schema::write_tracked(&path, &Json::from(&collect()))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global collector (shared with
    /// other test binaries' threads only within this process).
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::new(2);
        // `record` is crate-private to sift-sim; set the public counters
        // directly.
        m.total_steps = 10;
        m.total_ops = 8;
        m.skipped_slots = 1;
        m.per_process_steps = vec![6, 4];
        m.per_process_ops = vec![4, 4];
        m.ops_by_kind = [2, 2, 0, 0, 1, 3];
        m
    }

    /// The metrics-to-report mapping, exercised as a pure function (no
    /// globals, so assertions are exact).
    #[test]
    fn metrics_report_maps_every_field() {
        let r = metrics_report(&sample_metrics());
        assert_eq!(r.count("trials"), 1);
        assert_eq!(r.count("sim.total_steps"), 10);
        assert_eq!(r.count("sim.total_ops"), 8);
        assert_eq!(r.count("sim.skipped_slots"), 1);
        assert_eq!(r.count("sim.ops.max_write"), 3);
        assert_eq!(r.count("sim.ops.register_read"), 2);
        // Zero-count kinds are omitted.
        assert_eq!(r.count("sim.ops.snapshot_scan"), 0);
        assert_eq!(r.max("sim.max_total_steps"), 10);
        assert_eq!(r.max("sim.max_individual_steps"), 6);
        assert_eq!(r.hist("trial.total_steps").unwrap().count(), 1);
    }

    // The global-collector tests below assert only on keys unique to
    // this module's tests: other tests of this binary run trials
    // concurrently and may fold standard `trials`/`sim.*` keys into the
    // collector while it is enabled.

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = obs_lock();
        ENABLED.store(false, Ordering::Release);
        let before = collect();
        let mut unique = ObsReport::new();
        unique.add_count("test.disabled_marker", 1);
        record_report(&unique);
        record_trial(&Trial {
            agreed: true,
            distinct_outputs: 1,
            metrics: sample_metrics(),
            stop_reason: StopReason::AllDone,
            survivors: None,
        });
        // Only tests holding `obs_lock` enable recording, so nothing
        // else can have moved the collector either.
        assert_eq!(collect(), before);
    }

    #[test]
    fn enabled_recording_reaches_collector() {
        let _guard = obs_lock();
        enable();
        let mut unique = ObsReport::new();
        unique.add_count("test.enabled_marker", 2);
        unique.record_hist("test.enabled_hist", 40);
        record_report(&unique);
        record_report(&unique);
        let report = collect();
        assert_eq!(report.count("test.enabled_marker"), 4);
        assert_eq!(report.hist("test.enabled_hist").unwrap().count(), 2);
        ENABLED.store(false, Ordering::Release);
    }

    #[test]
    fn enable_clears_previous_window() {
        let _guard = obs_lock();
        enable();
        let mut unique = ObsReport::new();
        unique.add_count("test.stale_marker", 1);
        record_report(&unique);
        enable();
        assert_eq!(collect().count("test.stale_marker"), 0);
        ENABLED.store(false, Ordering::Release);
    }

    /// Clears the registered output path (tests only — production code
    /// sets it once per process).
    fn clear_output() {
        *OUTPUT.lock().unwrap_or_else(|e| e.into_inner()) = None;
        ENABLED.store(false, Ordering::Release);
    }

    #[test]
    fn try_finish_without_an_output_is_a_silent_noop() {
        let _guard = obs_lock();
        clear_output();
        assert!(matches!(try_finish(), Ok(None)));
    }

    #[test]
    fn try_finish_writes_the_registered_file() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir().join(format!("sift-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs.json");
        set_output(&path);
        let written = try_finish().unwrap().expect("an output was registered");
        assert_eq!(written, path);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{'), "JSON object expected, got: {body}");
        std::fs::remove_dir_all(&dir).unwrap();
        clear_output();
    }

    #[test]
    fn try_finish_reports_a_parent_that_is_a_file() {
        let _guard = obs_lock();
        let blocker = std::env::temp_dir().join(format!("sift-obs-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        // The parent of the output path is a regular file: the write
        // must surface the OS error, not panic and not "succeed".
        set_output(blocker.join("obs.json"));
        let err = try_finish().expect_err("writing under a file must fail");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::NotADirectory | io::ErrorKind::NotFound | io::ErrorKind::Other
            ),
            "unexpected error kind: {err:?}"
        );
        std::fs::remove_file(&blocker).unwrap();
        clear_output();
    }

    #[test]
    fn try_finish_refuses_a_malformed_trajectory_target() {
        let _guard = obs_lock();
        let dir = std::env::temp_dir().join(format!("sift-obs-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_obs.json");
        std::fs::write(&path, "garbage{").unwrap();
        set_output(&path);
        let err = try_finish().expect_err("malformed trajectory target must be refused");
        assert!(err.to_string().contains("refusing"), "{err}");
        // The malformed file is left exactly as it was.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "garbage{");
        std::fs::remove_dir_all(&dir).unwrap();
        clear_output();
    }

    #[test]
    fn try_finish_reports_an_invalid_path() {
        let _guard = obs_lock();
        // A NUL byte is invalid in paths on every supported platform,
        // independent of privileges (chmod tricks are useless as root).
        set_output("sift-obs-\0-invalid.json");
        assert!(try_finish().is_err());
        clear_output();
    }
}
