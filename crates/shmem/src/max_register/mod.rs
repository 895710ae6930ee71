//! Max registers for real threads.
//!
//! [`TreeMaxRegister`] is the Aspnes–Attiya–Censor-Hillel bounded max
//! register: a binary trie of atomic switch bits over the key space,
//! with values parked at the leaves. Reads and writes touch
//! `O(log key_space)` switches, demonstrating that the max registers
//! assumed by the paper's footnote 1 are cheaply constructible from
//! plain shared bits. [`AtomicMemory`](crate::memory::AtomicMemory)
//! serves the model's own max register under a lock instead.
//!
//! # Examples
//!
//! ```
//! use sift_shmem::AtomicMemory;
//! use sift_sim::{LayoutBuilder, Op};
//!
//! let mut b = LayoutBuilder::new();
//! let m = b.max_register();
//! let mem: AtomicMemory<u64> = AtomicMemory::new(&b.build());
//! for (key, v) in [(2, 10), (9, 90), (4, 40)] {
//!     mem.execute(Op::MaxWrite(m, key, v)).expect_ack();
//! }
//! assert_eq!(mem.execute(Op::MaxRead(m)).expect_max(), Some((9, 90)));
//! ```

mod tree;

pub use tree::TreeMaxRegister;
