//! Proof the inline register paths are actually taken: under a pure
//! small-payload register workload the substrate counters must show
//! **zero** Pile machinery (no reclamation pass over any retire chain,
//! no slot CAS retries), while the same workload over a pointer-
//! published payload shows a reclamation pass per interval.
//!
//! Deliberately a **single** test function: the substrate counters are
//! process-global, and the phases below reset and re-read them
//! sequentially — a sibling test running concurrently in this binary
//! would race the counters. Keeping this file to one test is what
//! makes the exact-equality assertions sound.

use sift_shmem::max_register::LockFreeMaxRegister;
use sift_shmem::obs::{self, SubstrateSnapshot};
use sift_shmem::register::LockFreeRegister;

/// At least three reclaim intervals (64 retires each) on the published
/// path.
const WRITES: u64 = 256;

fn assert_no_pile_traffic(snap: &SubstrateSnapshot) {
    assert_eq!(snap.reclaim_passes, 0, "no reclamation passes");
    assert_eq!(snap.reclaimed_nodes, 0, "no reclamation");
    assert_eq!(snap.retire_pile_hwm, 0, "no retire chain ever detached");
    assert_eq!(snap.slot_cas_retries, 0, "no slot CAS traffic");
}

#[test]
fn inline_paths_bypass_pile_machinery() {
    // Phase 1: pure register workload over an inline payload. Every
    // write goes through the seqlock cell; nothing touches a pile.
    obs::reset();
    let r: LockFreeRegister<(u64, u64)> = LockFreeRegister::new();
    assert!(r.is_inline());
    for k in 0..WRITES {
        r.write((k, k * 2));
        assert_eq!(r.read(), Some((k, k * 2)));
    }
    assert_no_pile_traffic(&obs::snapshot());

    // Phase 2: combining max register over an inline payload. Every
    // write either installs (claim winner) or returns covered, again
    // with zero pile traffic.
    obs::reset();
    let m: LockFreeMaxRegister<u64> = LockFreeMaxRegister::new();
    assert!(m.is_combining());
    for k in 0..WRITES {
        m.write(k, k);
    }
    for k in 0..WRITES {
        m.write(k, k); // dominated: the fast covered path
    }
    assert_eq!(m.read(), Some((WRITES - 1, WRITES - 1)));
    assert_no_pile_traffic(&obs::snapshot());

    // Phase 3 (control): an oversized payload must still go through
    // pointer publication — every write retires its predecessor, so
    // each reclaim interval runs a pass.
    obs::reset();
    let big: LockFreeRegister<String> = LockFreeRegister::new();
    assert!(!big.is_inline());
    for k in 0..WRITES {
        big.write(k.to_string());
    }
    let snap = obs::snapshot();
    assert!(snap.reclaim_passes >= 3, "published path reclaims");
}
