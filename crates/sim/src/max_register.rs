//! Max registers for the simulator.
//!
//! A max register stores the `(key, value)` pair with the largest key ever
//! written. Footnote 1 of the paper observes that Algorithm 1 only uses
//! snapshots to obtain the maximum-priority persona, so max registers
//! suffice; [`MaxRegister`] is the model-level object backing that variant
//! (experiment E15). Reads and writes are O(1), which is what makes the
//! max-register variant of Algorithm 1 scale to millions of simulated
//! processes.

use crate::value::Value;

/// A max register holding the entry with the largest key written so far.
///
/// Keys are `u64`; ties on the key keep the *first* written value, so the
/// register's content is monotone: once `(k, v)` is readable, every later
/// read returns an entry with key ≥ `k`.
///
/// # Examples
///
/// ```
/// use sift_sim::max_register::MaxRegister;
/// let mut m = MaxRegister::new();
/// m.write(3, "low");
/// m.write(9, "high");
/// m.write(5, "mid");
/// assert_eq!(m.read(), Some((9, &"high")));
/// ```
#[derive(Debug, Clone)]
pub struct MaxRegister<V> {
    entry: Option<(u64, V)>,
    writes: u64,
    reads: u64,
}

// Manual impl: the derive would demand `V: Default`, but an empty max
// register is ⊥ for any value type (required by the paged lazy memory).
impl<V> Default for MaxRegister<V> {
    fn default() -> Self {
        Self {
            entry: None,
            writes: 0,
            reads: 0,
        }
    }
}

impl<V: Value> MaxRegister<V> {
    /// Creates an empty max register.
    pub fn new() -> Self {
        Self {
            entry: None,
            writes: 0,
            reads: 0,
        }
    }

    /// Writes `(key, value)`; retained only if `key` strictly exceeds the
    /// current maximum key.
    pub fn write(&mut self, key: u64, value: V) {
        self.writes += 1;
        match &self.entry {
            Some((current, _)) if *current >= key => {}
            _ => self.entry = Some((key, value)),
        }
    }

    /// Reads the current maximum entry; `None` if never written.
    pub fn read(&mut self) -> Option<(u64, &V)> {
        self.reads += 1;
        self.entry.as_ref().map(|(k, v)| (*k, v))
    }

    /// Returns the current maximum entry without counting a read.
    #[cfg(test)]
    pub(crate) fn peek(&self) -> Option<(u64, &V)> {
        self.entry.as_ref().map(|(k, v)| (*k, v))
    }

    /// Number of write operations executed.
    #[cfg(test)]
    pub(crate) fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of read operations executed.
    #[cfg(test)]
    pub(crate) fn read_count(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reads_none() {
        let mut m: MaxRegister<u8> = MaxRegister::new();
        assert_eq!(m.read(), None);
    }

    #[test]
    fn keeps_maximum() {
        let mut m = MaxRegister::new();
        m.write(5, 'a');
        m.write(2, 'b');
        assert_eq!(m.read(), Some((5, &'a')));
        m.write(7, 'c');
        assert_eq!(m.read(), Some((7, &'c')));
    }

    #[test]
    fn ties_keep_first_value() {
        let mut m = MaxRegister::new();
        m.write(5, 'a');
        m.write(5, 'b');
        assert_eq!(m.read(), Some((5, &'a')));
    }

    #[test]
    fn monotone_under_random_writes() {
        use crate::rng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let mut m = MaxRegister::new();
        let mut last_key = 0u64;
        for _ in 0..1000 {
            m.write(rng.range_u64(1000), ());
            let (k, _) = m.read().expect("written at least once");
            assert!(k >= last_key, "max register key must be monotone");
            last_key = k;
        }
    }

    #[test]
    fn counts_ops() {
        let mut m = MaxRegister::new();
        m.write(1, ());
        let _ = m.read();
        assert_eq!(m.write_count(), 1);
        assert_eq!(m.read_count(), 1);
        assert!(m.peek().is_some());
    }
}
