//! Atomic multi-writer multi-reader registers for the simulator.

use crate::value::Value;

/// A multi-writer multi-reader atomic register, initially ⊥ (`None`).
///
/// In the simulator every operation executes atomically at its scheduled
/// step, so a plain cell is a faithful register. Registers are unbounded
/// (§1.1 of the paper).
///
/// # Examples
///
/// ```
/// use sift_sim::register::Register;
/// let mut r = Register::new();
/// assert_eq!(r.read(), None);
/// r.write(42u32);
/// assert_eq!(r.read(), Some(&42));
/// ```
#[derive(Debug, Clone)]
pub struct Register<V> {
    value: Option<V>,
    /// The value displaced by the most recent write (⊥ before the second
    /// write). Only consulted by the regular-register substrate mode.
    prev: Option<V>,
    /// Global op-clock times of the first and latest write
    /// (0 = never written; the clock starts at 1).
    first_write_at: u64,
    last_write_at: u64,
}

// Manual impl: the derive would demand `V: Default`, but an empty
// register is ⊥ for any value type (required by the paged lazy memory).
impl<V> Default for Register<V> {
    fn default() -> Self {
        Self {
            value: None,
            prev: None,
            first_write_at: 0,
            last_write_at: 0,
        }
    }
}

impl<V: Value> Register<V> {
    /// Creates a register holding ⊥.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the register; `None` is ⊥.
    pub fn read(&mut self) -> Option<&V> {
        self.value.as_ref()
    }

    /// Writes `value`.
    pub fn write(&mut self, value: V) {
        self.prev = self.value.replace(value);
    }

    /// Writes `value` at global op-clock time `now`, recording the
    /// timestamps the regular-register read path consults.
    pub(crate) fn write_at(&mut self, value: V, now: u64) {
        if self.first_write_at == 0 {
            self.first_write_at = now;
        }
        self.last_write_at = now;
        self.write(value);
    }

    /// A *regular* read by a process whose last scheduled step was at
    /// global op-clock time `epoch`: any write executed after `epoch`
    /// counts as concurrent with this read, and the resolution may
    /// legally return the superseded value instead of the newest one.
    ///
    /// This returns the stalest value a regular register may serve:
    ///
    /// * no write after `epoch` → the current value (the read does not
    ///   overlap any write; regularity forces the latest value);
    /// * *every* write is after `epoch` → ⊥ (no write preceded the
    ///   read's start, ⊥ is the initial value, and the overlapping
    ///   writes need not be observed);
    /// * otherwise → `prev`. When the displaced write executed at or
    ///   before `epoch` it is the last write preceding the read; when
    ///   it executed after `epoch` it overlaps the read. Either way a
    ///   regular register may return it.
    pub(crate) fn read_stale(&mut self, epoch: u64) -> Option<&V> {
        if self.last_write_at <= epoch {
            self.value.as_ref()
        } else if self.first_write_at > epoch {
            None
        } else {
            self.prev.as_ref()
        }
    }

    /// Whether a write has executed strictly after op-clock `epoch`
    /// (i.e. a read by a process last scheduled at `epoch` overlaps a
    /// write under the regular-register model).
    pub(crate) fn written_since(&self, epoch: u64) -> bool {
        self.last_write_at > epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_bottom() {
        let mut r: Register<u64> = Register::new();
        assert_eq!(r.read(), None);
    }

    #[test]
    fn last_write_wins() {
        let mut r = Register::new();
        r.write(1u8);
        r.write(2u8);
        assert_eq!(r.read(), Some(&2));
    }

    #[test]
    fn stale_read_tracks_epoch() {
        let mut r = Register::new();
        r.write_at(10u8, 3);
        r.write_at(20u8, 7);
        // A reader whose last step was after every write sees the latest
        // value: no concurrency, regularity pins the answer.
        assert_eq!(r.read_stale(7), Some(&20));
        assert_eq!(r.read_stale(9), Some(&20));
        // A reader from before the second write may see the displaced
        // value.
        assert_eq!(r.read_stale(5), Some(&10));
        // A reader from before *any* write may see ⊥.
        assert_eq!(r.read_stale(2), None);
        assert_eq!(r.read_stale(0), None);
        assert!(r.written_since(5));
        assert!(!r.written_since(7));
    }

    #[test]
    fn single_overlapping_write_resolves_to_bottom() {
        let mut r = Register::new();
        r.write_at(42u8, 4);
        // Read started before the only write: ⊥ preceded it.
        assert_eq!(r.read_stale(1), None);
        // Read started after it: forced to the written value.
        assert_eq!(r.read_stale(4), Some(&42));
    }
}
