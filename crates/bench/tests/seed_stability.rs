//! Seed-stability regression: golden digests for the fuzzer and the
//! conformance suite.
//!
//! Both pipelines promise byte-identical results for a fixed seed,
//! regardless of `SIFT_THREADS` — that promise is what makes CI
//! failures replayable on a laptop and golden digests meaningful at
//! all. These tests pin it twice over:
//!
//! 1. *Across thread counts*: the digest of one run must not move
//!    between 1, 4, and 8 workers.
//! 2. *Across history*: the digests must equal the hardcoded values
//!    captured when this suite was written. Any intentional change to
//!    schedule genomes, fingerprinting, claim definitions, or trial
//!    seeding will shift them — bump the constants consciously in the
//!    same commit and say why, exactly like a golden-file test.

use sift_bench::fuzz::{run_fuzz_with, FuzzConfig};
use sift_bench::runner::sifter;
use sift_bench::{conformance, exec};
use sift_obs::json::{self, Json};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that touch the global thread override (integration
/// tests in one binary may run concurrently).
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` under each thread override, restoring the default after.
fn under_thread_counts(f: impl Fn() -> u64) -> Vec<u64> {
    let digests = [1usize, 4, 8]
        .into_iter()
        .map(|t| {
            exec::set_threads(t);
            f()
        })
        .collect();
    exec::set_threads(0);
    digests
}

const FUZZ_GOLDEN: [(u64, u64); 3] = [
    (1, 0x7fb12f871e2729a5),
    (2, 0x31812e093604353c),
    (3, 0x2a5d489b693f1499),
];

#[test]
fn fuzzer_digests_match_golden_across_thread_counts() {
    let _guard = threads_lock();
    for (seed, golden) in FUZZ_GOLDEN {
        let config = FuzzConfig {
            seed,
            ..FuzzConfig::default()
        };
        for (t, digest) in [1, 4, 8].into_iter().zip(under_thread_counts(|| {
            run_fuzz_with(&config, &sifter).digest()
        })) {
            assert_eq!(
                digest, golden,
                "fuzz seed {seed} at {t} threads: digest {digest:#018x}, \
                 golden {golden:#018x}"
            );
        }
    }
}

const CONFORMANCE_GOLDEN: [(usize, u64); 3] = [
    (1, 0x384ff6e9b823604d),
    (2, 0x11afe05423e2dd3d),
    (3, 0x38ef119c4456cee3),
];

#[test]
fn conformance_digests_match_golden_across_thread_counts() {
    let _guard = threads_lock();
    for (scale, golden) in CONFORMANCE_GOLDEN {
        for (t, digest) in [1, 4, 8].into_iter().zip(under_thread_counts(|| {
            conformance::digest(&conformance::run(scale))
        })) {
            assert_eq!(
                digest, golden,
                "conformance scale {scale} at {t} threads: digest {digest:#018x}, \
                 golden {golden:#018x}"
            );
        }
    }
}

#[test]
fn conformance_keeps_passing_at_every_golden_scale() {
    let _guard = threads_lock();
    for (scale, _) in CONFORMANCE_GOLDEN {
        let results = conformance::run(scale);
        assert!(
            conformance::all_pass(&results),
            "scale {scale}: {:?}",
            results.iter().filter(|r| !r.pass).collect::<Vec<_>>()
        );
    }
}

/// Golden digest of the E24 adversary-lattice sweep at its default
/// shape (n = 32, 100 trials/cell). Integer tallies only, so the
/// digest is exact — any drift means the lattice seeds, the breaker,
/// or the regular-register resolution changed.
const LATTICE_GOLDEN: u64 = 0x1e9879224b49e644;

#[test]
fn adversary_lattice_digest_matches_golden_across_thread_counts() {
    use sift_bench::experiments::adversary;
    let _guard = threads_lock();
    for (t, digest) in [1, 4, 8].into_iter().zip(under_thread_counts(|| {
        adversary::run_lattice(adversary::LATTICE_N, adversary::LATTICE_TRIALS).digest()
    })) {
        assert_eq!(
            digest, LATTICE_GOLDEN,
            "lattice at {t} threads: digest {digest:#018x}, golden {LATTICE_GOLDEN:#018x}"
        );
    }
}

/// Golden digest of the negative conformance tier at scale 1. Pins
/// both the verdicts (adaptive/always-old refuted, controls hold) and
/// the rendered statistics behind them.
const NEGATIVE_GOLDEN: u64 = 0xce7e13b2f9f68eca;

#[test]
fn negative_conformance_digest_matches_golden_across_thread_counts() {
    let _guard = threads_lock();
    for (t, digest) in [1, 4, 8].into_iter().zip(under_thread_counts(|| {
        conformance::digest(&conformance::run_negative(1))
    })) {
        assert_eq!(
            digest, NEGATIVE_GOLDEN,
            "negative tier at {t} threads: digest {digest:#018x}, \
             golden {NEGATIVE_GOLDEN:#018x}"
        );
    }
}

#[test]
fn negative_conformance_keeps_its_expected_polarities() {
    let _guard = threads_lock();
    let results = conformance::run_negative(1);
    assert!(
        conformance::all_pass(&results),
        "a case landed on the wrong side of the obliviousness boundary: {:?}",
        results.iter().filter(|r| !r.pass).collect::<Vec<_>>()
    );
}

/// Golden digest of the default soak trajectory (E26: 6 windows of
/// width 4, crashes on, seed `0x50AC`). Covers every emitted row
/// (claim, window, trials, violations, LCB bits, verdict), every
/// violation, and the live service's commit-stream digest — the same
/// digest `BENCH_conformance.json` records, so this test is what
/// keeps the tracked trajectory honest.
const SOAK_GOLDEN: u64 = 0xc649731a5c911fa8;

#[test]
fn soak_trajectory_matches_golden_across_thread_counts() {
    use sift_bench::soak::{run_soak_with, SoakConfig};
    let _guard = threads_lock();
    let config = SoakConfig::default();
    let jsons = std::cell::RefCell::new(Vec::new());
    for (t, digest) in [1, 4, 8].into_iter().zip(under_thread_counts(|| {
        let report = run_soak_with(&config, sifter);
        jsons.borrow_mut().push(json::write(&Json::from(&report)));
        report.digest()
    })) {
        assert_eq!(
            digest, SOAK_GOLDEN,
            "soak at {t} threads: digest {digest:#018x}, golden {SOAK_GOLDEN:#018x}"
        );
    }
    // Not just the digest: the rendered trajectory must be
    // byte-identical across thread counts (it is tracked in git).
    let jsons = jsons.into_inner();
    assert_eq!(jsons[0], jsons[1]);
    assert_eq!(jsons[0], jsons[2]);
    assert!(jsons[0].contains(&format!("{SOAK_GOLDEN:#018x}")));
}

#[test]
fn soak_keeps_passing_at_the_golden_shape() {
    use sift_bench::soak::{run_soak_with, SoakConfig};
    let _guard = threads_lock();
    let report = run_soak_with(&SoakConfig::default(), sifter);
    assert!(
        report.violations.is_empty(),
        "unexpected violation: {}",
        report.violations[0]
    );
    assert!(report.all_pass(), "flagged: {:?}", report.flagged());
}
