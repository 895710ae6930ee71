//! A lazily-populated fixed-length array backed by a page table.
//!
//! [`Memory`](crate::memory::Memory) used to allocate one
//! [`Register`](crate::register::Register) per declared layout slot up
//! front — O(n) space the moment an engine was built, even if the
//! schedule only ever touched a handful of processes. [`Paged`] keeps
//! the same indexed interface but allocates storage one fixed-size page
//! at a time, on first *write access* to any index in the page; pages
//! never touched cost one `Option` in the page table.

/// Entries per page. Small enough that a protocol touching one
/// register materializes ~kilobytes, large enough that a dense scan
/// stays cache-friendly.
const PAGE: usize = 1024;

/// A fixed-length array of `T` whose storage materializes per page on
/// first mutable access.
///
/// Reads of untouched indices see `None` (callers fall back to
/// `T::default()` semantics); mutable access materializes the page with
/// `T::default()` entries.
///
/// # Examples
///
/// The type is crate-private; [`Memory`](crate::memory::Memory) shows
/// it at work:
///
/// ```
/// use sift_sim::{LayoutBuilder, Memory, Op};
/// let mut b = LayoutBuilder::new();
/// let regs = b.registers(1_000_000);
/// let mut mem: Memory<u32> = Memory::new(&b.build());
/// assert_eq!(mem.materialized_registers(), 0);
/// mem.execute(Op::RegisterWrite(regs[123_456], 7)).expect_ack();
/// let read = mem.execute(Op::RegisterRead(regs[123_456]));
/// assert_eq!(read.expect_register(), Some(7));
/// assert_eq!(mem.materialized_registers(), 1024, "one page");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Paged<T> {
    pages: Vec<Option<Box<[T]>>>,
    len: usize,
}

impl<T: Default + Clone> Paged<T> {
    /// Creates a paged array of logical length `len` with no pages
    /// materialized.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            pages: vec![None; len.div_ceil(PAGE)],
            len,
        }
    }

    /// Entries whose backing page has been materialized. Untouched
    /// entries cost nothing beyond the page table itself.
    pub(crate) fn materialized(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count() * PAGE
    }

    /// Reads entry `i`; `None` if its page was never materialized.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        assert!(i < self.len, "index {i} out of range 0..{}", self.len);
        self.pages[i / PAGE].as_ref().map(|page| &page[i % PAGE])
    }

    /// Mutable access to entry `i`, materializing its page (with
    /// `T::default()` entries) on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of range 0..{}", self.len);
        let page =
            self.pages[i / PAGE].get_or_insert_with(|| vec![T::default(); PAGE].into_boxed_slice());
        &mut page[i % PAGE]
    }

    /// Drops every materialized page: all entries read as untouched
    /// again, as in a freshly constructed array of the same length.
    pub(crate) fn clear(&mut self) {
        self.pages.fill(None);
    }

    /// Iterates the materialized entries as `(index, &entry)`.
    #[cfg(test)]
    pub(crate) fn iter_materialized(&self) -> impl Iterator<Item = (usize, &T)> {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter().flat_map(move |entries| {
                entries
                    .iter()
                    .enumerate()
                    .map(move |(j, e)| (p * PAGE + j, e))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_pages_cost_nothing() {
        let p: Paged<u64> = Paged::new(1_000_000);
        assert_eq!(p.materialized(), 0);
        assert_eq!(p.get(999_999), None);
    }

    #[test]
    fn writes_materialize_only_their_page() {
        let mut p: Paged<u64> = Paged::new(10 * PAGE);
        *p.get_mut(0) = 1;
        *p.get_mut(5 * PAGE + 3) = 2;
        assert_eq!(p.materialized(), 2 * PAGE);
        assert_eq!(p.get(0), Some(&1));
        assert_eq!(p.get(1), Some(&0), "same page defaults are visible");
        assert_eq!(p.get(5 * PAGE + 3), Some(&2));
        assert_eq!(p.get(2 * PAGE), None);
    }

    #[test]
    fn iter_materialized_yields_touched_pages_in_order() {
        let mut p: Paged<u32> = Paged::new(3 * PAGE);
        *p.get_mut(2 * PAGE) = 9;
        let firsts: Vec<usize> = p
            .iter_materialized()
            .filter(|&(_, v)| *v == 9)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(firsts, vec![2 * PAGE]);
        assert_eq!(p.iter_materialized().count(), PAGE);
    }

    #[test]
    fn last_page_may_be_partial_logically() {
        let mut p: Paged<u8> = Paged::new(PAGE + 1);
        *p.get_mut(PAGE) = 3;
        assert_eq!(p.get(PAGE), Some(&3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let p: Paged<u8> = Paged::new(4);
        let _ = p.get(4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_mut_panics() {
        let mut p: Paged<u8> = Paged::new(4);
        let _ = p.get_mut(4);
    }

    #[test]
    fn zero_length_is_empty() {
        let p: Paged<u8> = Paged::new(0);
        assert_eq!(p.materialized(), 0);
    }
}
