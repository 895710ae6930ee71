//! Bounded max register as a binary trie of switch bits
//! (after Aspnes, Attiya, Censor-Hillel, "Polylogarithmic concurrent
//! data structures from monotone circuits").
//!
//! Keys are `bits`-bit integers. Internal nodes hold a one-shot boolean
//! *switch* meaning "some key with a 1 at this position (given the
//! prefix so far) has been completely written below". A write parks its
//! value at the leaf first, then walks its key MSB-first: on a 1-bit it
//! recurses right and only then sets the switch; on a 0-bit it aborts if
//! the switch is already set (a larger key exists, so this write can
//! never be the maximum). A read simply follows switches: right if set,
//! left otherwise. Switches only ever turn on, so reads are monotone,
//! and a set switch implies a completed path to a parked leaf below —
//! which is why writers set switches bottom-up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use sift_sim::Value;

/// A bounded max register over keys `0..2^bits`.
///
/// Reads and writes touch `O(bits)` switches. Storage is a complete
/// implicit tree (`2^bits` leaves), so keep `bits` modest (≤ 24).
///
/// # Examples
///
/// ```
/// use sift_shmem::max_register::TreeMaxRegister;
/// let m: TreeMaxRegister<&str> = TreeMaxRegister::new(4);
/// m.write(3, "three");
/// m.write(12, "twelve");
/// m.write(7, "seven");
/// assert_eq!(m.read(), Some((12, "twelve")));
/// ```
#[derive(Debug)]
pub struct TreeMaxRegister<V> {
    bits: u32,
    /// Implicit heap-ordered internal nodes: root at 1, children of `i`
    /// at `2i` and `2i+1`. `switches[i]` is node `i`'s bit.
    switches: Vec<AtomicBool>,
    leaves: Vec<Mutex<Option<V>>>,
}

impl<V: Value> TreeMaxRegister<V> {
    /// Creates a max register over keys `0..2^bits`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 24`.
    pub fn new(bits: u32) -> Self {
        assert!((1..=24).contains(&bits), "bits must be in 1..=24");
        let leaves = 1usize << bits;
        Self {
            bits,
            switches: (0..leaves).map(|_| AtomicBool::new(false)).collect(),
            leaves: (0..leaves).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The key-space size `2^bits`.
    pub(crate) fn key_space(&self) -> u64 {
        1u64 << self.bits
    }

    /// Writes `(key, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `key >= 2^bits`.
    pub fn write(&self, key: u64, value: V) {
        assert!(key < self.key_space(), "key {key} out of range");
        {
            // Park the value before any switch becomes visible; first
            // writer of a key wins (the tie rule of the model object).
            let mut leaf = self.leaves[key as usize]
                .lock()
                .expect("leaf poisoned by a panicking write");
            if leaf.is_none() {
                *leaf = Some(value);
            }
        }
        self.write_path(key, 1, self.bits);
    }

    /// Recursive walk: `node` is the implicit index, `remaining` the
    /// number of key bits below it.
    fn write_path(&self, key: u64, node: usize, remaining: u32) {
        if remaining == 0 {
            return;
        }
        let bit = (key >> (remaining - 1)) & 1;
        if bit == 1 {
            self.write_path(key, 2 * node + 1, remaining - 1);
            // Set the switch only after the subtree write completed, so
            // readers never follow a dangling path.
            self.switches[node].store(true, Ordering::SeqCst);
        } else if !self.switches[node].load(Ordering::SeqCst) {
            self.write_path(key, 2 * node, remaining - 1);
        }
        // A set switch on a 0-bit means a larger key is present: this
        // write can never be the maximum, so it stops.
    }

    /// Reads the current maximum entry.
    pub fn read(&self) -> Option<(u64, V)> {
        let mut node = 1usize;
        let mut key = 0u64;
        for _ in 0..self.bits {
            let bit = self.switches[node].load(Ordering::SeqCst);
            key = (key << 1) | u64::from(bit);
            node = 2 * node + usize::from(bit);
        }
        self.leaves[key as usize]
            .lock()
            .expect("leaf poisoned by a panicking write")
            .clone()
            .map(|v| (key, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_reads_none() {
        let m: TreeMaxRegister<u8> = TreeMaxRegister::new(3);
        assert_eq!(m.read(), None);
    }

    #[test]
    fn sequential_max_semantics_match_reference() {
        use sift_sim::rng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let m: TreeMaxRegister<u64> = TreeMaxRegister::new(8);
        let mut reference: Option<u64> = None;
        for _ in 0..500 {
            let k = rng.range_u64(256);
            m.write(k, k * 10);
            reference = Some(reference.map_or(k, |r| r.max(k)));
            let (key, value) = m.read().unwrap();
            assert_eq!(Some(key), reference);
            assert_eq!(value, key * 10);
        }
    }

    #[test]
    fn zero_key_is_readable() {
        let m: TreeMaxRegister<&str> = TreeMaxRegister::new(2);
        m.write(0, "zero");
        assert_eq!(m.read(), Some((0, "zero")));
    }

    #[test]
    fn ties_keep_first_value() {
        let m: TreeMaxRegister<&str> = TreeMaxRegister::new(2);
        m.write(2, "first");
        m.write(2, "second");
        assert_eq!(m.read(), Some((2, "first")));
    }

    #[test]
    fn dominated_writes_are_absorbed() {
        let m: TreeMaxRegister<u32> = TreeMaxRegister::new(4);
        m.write(15, 1);
        m.write(3, 2);
        m.write(8, 3);
        assert_eq!(m.read(), Some((15, 1)));
    }

    #[test]
    fn concurrent_writers_yield_global_maximum_and_monotone_reads() {
        let m = Arc::new(TreeMaxRegister::<u64>::new(12));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut rng = sift_sim::rng::Xoshiro256StarStar::seed_from_u64(t);
                    for _ in 0..500 {
                        let k = rng.range_u64(1 << 12);
                        m.write(k, k);
                    }
                })
            })
            .collect();
        let reader = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..2000 {
                    if let Some((k, v)) = m.read() {
                        assert_eq!(k, v, "value corresponds to its key");
                        assert!(k >= last, "reads must be monotone: {last} -> {k}");
                        last = k;
                    }
                }
            })
        };
        for h in writers {
            h.join().unwrap();
        }
        reader.join().unwrap();
        // After all writes completed, the read is the true maximum of
        // everything written; it is at least the max any single writer
        // saw. Re-derive the overall max:
        let mut expect = 0u64;
        for t in 0..4u64 {
            let mut rng = sift_sim::rng::Xoshiro256StarStar::seed_from_u64(t);
            for _ in 0..500 {
                expect = expect.max(rng.range_u64(1 << 12));
            }
        }
        assert_eq!(m.read().unwrap().0, expect);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_key_panics() {
        let m: TreeMaxRegister<u8> = TreeMaxRegister::new(2);
        m.write(4, 0);
    }
}
