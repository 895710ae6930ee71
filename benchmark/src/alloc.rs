//! A counting allocator: the system allocator plus per-thread tallies
//! of allocations and requested bytes.
//!
//! Only `ledger-traced` installs it (`#[global_allocator]`); `ledger`
//! keeps the plain system allocator so end-to-end numbers never pay for
//! the counting. Tallies are per thread, so a count taken around a
//! single-threaded section is exact — it repeats bit-for-bit for a seed
//! — whatever other threads are doing.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching these from
    // inside the allocator can neither allocate nor run after teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with per-thread counting.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

fn tally(size: usize) {
    // `try_with` only fails while a thread is being torn down; such an
    // allocation belongs to no measured section.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tallies touch only
// thread-local `Cell`s and never allocate, so they cannot re-enter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this `layout`; the caller guarantees both.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation tally of the calling thread since it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocations: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocCount {
    /// The calling thread's tally now. All zeros in a binary that did
    /// not install [`CountingAllocator`].
    pub fn now() -> Self {
        Self {
            allocations: ALLOCATIONS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// What this thread allocated since `earlier`.
    pub fn since(earlier: AllocCount) -> Self {
        let now = Self::now();
        Self {
            allocations: now.allocations - earlier.allocations,
            bytes: now.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The library's own test binary runs under the counting allocator,
    // which is the only way to observe it counting.
    #[global_allocator]
    static COUNTING: CountingAllocator = CountingAllocator;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let before = AllocCount::now();
        let boxed = std::hint::black_box(Box::new([0u8; 100]));
        let mut grown: Vec<u64> = Vec::with_capacity(4);
        grown.extend_from_slice(&[1, 2, 3, 4]);
        grown.push(5); // realloc to at least 5 * 8 bytes
        std::hint::black_box(&grown);
        let used = AllocCount::since(before);
        assert_eq!(used.allocations, 3, "box + vec + one growth");
        assert!(used.bytes >= 100 + 32 + 40);
        drop(boxed);
        assert_eq!(
            AllocCount::since(before).allocations,
            3,
            "frees are not counted"
        );
    }

    #[test]
    fn other_threads_do_not_leak_into_the_tally() {
        let before = AllocCount::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mine = AllocCount::now();
                std::hint::black_box(vec![0u8; 4096]);
                assert_eq!(AllocCount::since(mine).allocations, 1);
            });
        });
        // Spawning allocates on this thread; the 4096-byte buffer did not.
        assert!(AllocCount::since(before).bytes < 4096);
    }
}
