//! The substrate counters see the publication path: 256 register writes
//! of a `String` retire a node each, so every reclaim interval (64
//! retires) runs a reclamation pass.
//!
//! Deliberately a **single** test function: the substrate counters are
//! process-global, and the test resets and re-reads them — a sibling
//! test running concurrently in this binary would race the counters.

use sift_shmem::obs;
use sift_shmem::register::LockFreeRegister;

/// At least three reclaim intervals (64 retires each).
const WRITES: u64 = 256;

#[test]
fn published_writes_reclaim_every_interval() {
    obs::reset();
    let r: LockFreeRegister<String> = LockFreeRegister::new();
    for k in 0..WRITES {
        r.write(k.to_string());
    }
    let snap = obs::snapshot();
    assert!(snap.reclaim_passes >= 3, "published path reclaims");
}
