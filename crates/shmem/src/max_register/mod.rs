//! Max registers for real threads.
//!
//! * [`LockFreeMaxRegister`] — a compare-exchange loop on the monotone
//!   key over one publication slot, for any value type; what
//!   [`AtomicMemory`](crate::memory::AtomicMemory) uses. The suites
//!   check it against the model's max register under one lock.
//! * [`TreeMaxRegister`] — the Aspnes–Attiya–Censor-Hillel bounded max
//!   register: a binary trie of atomic switch bits over the key space,
//!   with values parked at the leaves. Reads and writes touch
//!   `O(log key_space)` switches, demonstrating that the max registers
//!   assumed by the paper's footnote 1 are cheaply constructible from
//!   plain shared bits.

mod lockfree;
mod tree;

pub use lockfree::LockFreeMaxRegister;
pub use tree::TreeMaxRegister;
