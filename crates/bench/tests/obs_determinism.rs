//! Cross-thread-count determinism of the observation pipeline: the
//! merged `--obs-json` report must be **byte-identical** for any
//! `SIFT_THREADS`, because the trial set depends only on the master
//! seed and [`ObsReport::merge`] is commutative and associative — the
//! completion order in which workers fold their trials cannot show.
//!
//! [`ObsReport::merge`]: sift_obs::ObsReport::merge

use sift_bench::exec::{self, Batch};
use sift_core::{Epsilon, SiftingConciliator};
use sift_sim::schedule::ScheduleKind;

/// Serializes the tests: the thread override and the observation
/// collector are process-wide.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs a 96-trial sweep at `threads` workers with observation
/// collection on and returns the merged report's JSON rendering.
fn sweep_json(threads: usize) -> String {
    exec::set_threads(threads);
    sift_bench::obs::enable();
    let n = 16;
    let ops = Batch::new(n, 96, ScheduleKind::RandomInterleave).run(
        |b| SiftingConciliator::allocate(b, n, Epsilon::HALF),
        || 0u64,
        |acc, t| *acc += t.metrics.total_ops,
    );
    exec::set_threads(0);
    assert!(ops > 0, "sweep must execute operations");
    sift_obs::json::write(&sift_obs::json::Json::from(&sift_bench::obs::collect()))
}

#[test]
fn obs_json_is_byte_identical_for_1_4_and_8_threads() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = sweep_json(1);
    assert!(serial.contains("\"trials\": 96"), "{serial}");
    for threads in [4, 8] {
        let parallel = sweep_json(threads);
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the observation report"
        );
    }
}

#[test]
fn obs_json_reports_trial_aggregates_and_no_substrate_keys() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let json = sweep_json(2);
    for key in [
        "\"trials\"",
        "\"sim.total_steps\"",
        "\"sim.total_ops\"",
        "\"sim.ops.register_write\"",
        "\"trial.total_steps\"",
        "\"sim.max_individual_steps\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    // Experiments run on the simulator: the threaded substrate's
    // counters are not part of the report.
    assert!(!json.contains("\"substrate."), "{json}");
}

#[test]
fn obs_json_file_round_trips_through_finish() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join("sift_obs_determinism_roundtrip.json");
    sift_bench::obs::set_output(path.clone());
    let in_memory = sweep_json(2);
    let reported = sift_bench::obs::try_finish().expect("the temp dir is writable");
    assert_eq!(reported.as_deref(), Some(path.as_path()));
    let written = std::fs::read_to_string(&path).expect("finish wrote the file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(written, in_memory);
}
