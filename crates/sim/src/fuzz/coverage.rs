//! Protocol-state fingerprints and the novelty (coverage) map.
//!
//! Coverage-guided fuzzing needs a cheap, deterministic digest of "what
//! happened" in a run so that schedules exercising new protocol states
//! are kept and mutated further. The fingerprint here mixes the charged
//! operation interleaving (from the engine [`Trace`]) with any
//! caller-supplied protocol state signature (e.g. per-round survivor
//! counts) through an FNV-1a accumulator.

use std::collections::HashSet;

use crate::metrics::op_kind_index;
use crate::trace::Trace;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a (64-bit) fingerprint accumulator.
///
/// Not a cryptographic hash; collisions merely make the fuzzer treat a
/// novel state as already seen, which costs coverage but never
/// soundness.
#[derive(Debug, Clone)]
pub struct FingerprintHasher {
    state: u64,
}

impl FingerprintHasher {
    /// Starts a fresh accumulator.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Mixes one word into the fingerprint, byte by byte.
    pub fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes a `usize` (as `u64`).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mixes raw bytes (length-prefixed, so concatenations of different
    /// splits hash differently).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The fingerprint accumulated so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for FingerprintHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Digest of the charged-operation interleaving of a run: who moved at
/// each charged slot and what kind of operation they performed.
///
/// Distinct from [`mc::trace_signature`](crate::mc::trace_signature),
/// which canonicalizes Mazurkiewicz traces for the DPOR explorer; this
/// one digests the literal engine [`Trace`].
pub fn interleaving_signature(trace: &Trace) -> u64 {
    let mut h = FingerprintHasher::new();
    for e in trace.events() {
        h.write_u64(((e.pid.index() as u64) << 3) | op_kind_index(e.kind) as u64);
    }
    h.finish()
}

/// The set of fingerprints observed so far; a schedule is *novel* when
/// its fingerprint has never been seen.
#[derive(Debug, Default)]
pub struct CoverageMap {
    seen: HashSet<u64>,
}

impl CoverageMap {
    /// Creates an empty map.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records `fingerprint`; returns `true` if it was novel.
    pub(crate) fn observe(&mut self, fingerprint: u64) -> bool {
        self.seen.insert(fingerprint)
    }

    /// Number of distinct fingerprints observed.
    pub(crate) fn len(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_deterministic_and_order_sensitive() {
        let mut a = FingerprintHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = FingerprintHasher::new();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = FingerprintHasher::new();
        c.write_u64(2);
        c.write_u64(1);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn empty_hasher_is_the_fnv_offset() {
        assert_eq!(FingerprintHasher::new().finish(), FNV_OFFSET);
        assert_eq!(FingerprintHasher::default().finish(), FNV_OFFSET);
    }

    #[test]
    fn byte_writes_are_length_prefixed() {
        let digest = |chunks: &[&[u8]]| {
            let mut h = FingerprintHasher::new();
            for c in chunks {
                h.write_bytes(c);
            }
            h.finish()
        };
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"ab", b"c"]));
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        assert_ne!(digest(&[b""]), digest(&[]));
    }

    #[test]
    fn trace_signature_distinguishes_interleavings() {
        use crate::ids::ProcessId;
        use crate::op::OpKind;
        use crate::trace::TraceEvent;
        let ev = |slot, pid, kind| TraceEvent {
            slot,
            pid: ProcessId(pid),
            kind,
        };
        let mut a = Trace::new();
        a.push(ev(0, 0, OpKind::RegisterWrite));
        a.push(ev(1, 1, OpKind::RegisterRead));
        let mut b = Trace::new();
        b.push(ev(0, 1, OpKind::RegisterRead));
        b.push(ev(1, 0, OpKind::RegisterWrite));
        assert_ne!(interleaving_signature(&a), interleaving_signature(&b));
        // The slot index itself is not mixed in: only order matters.
        let mut c = Trace::new();
        c.push(ev(7, 0, OpKind::RegisterWrite));
        c.push(ev(9, 1, OpKind::RegisterRead));
        assert_eq!(interleaving_signature(&a), interleaving_signature(&c));
    }

    #[test]
    fn coverage_map_tracks_novelty() {
        let mut map = CoverageMap::new();
        assert_eq!(map.len(), 0);
        assert!(map.observe(7));
        assert!(!map.observe(7));
        assert!(map.observe(8));
        assert_eq!(map.len(), 2);
    }
}
