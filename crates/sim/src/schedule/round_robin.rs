//! The round-robin schedule.

use super::Schedule;
use crate::ids::ProcessId;

/// Cyclic schedule `0, 1, …, n-1, 0, 1, …`, optionally starting at an
/// offset.
///
/// The most benign oblivious adversary: every process advances at the
/// same rate. Useful as the baseline strategy in sweeps.
///
/// # Examples
///
/// ```
/// use sift_sim::schedule::{RoundRobin, Schedule};
/// use sift_sim::ProcessId;
/// let mut s = RoundRobin::new(3);
/// assert_eq!(s.next_pid(), Some(ProcessId(0)));
/// assert_eq!(s.next_pid(), Some(ProcessId(1)));
/// assert_eq!(s.next_pid(), Some(ProcessId(2)));
/// assert_eq!(s.next_pid(), Some(ProcessId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin schedule over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::starting_at(n, 0)
    }

    /// Creates a round-robin schedule starting at process `start % n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn starting_at(n: usize, start: usize) -> Self {
        assert!(n > 0, "round-robin needs at least one process");
        Self { n, next: start % n }
    }
}

impl Schedule for RoundRobin {
    fn next_pid(&mut self) -> Option<ProcessId> {
        let pid = ProcessId(self.next);
        self.next = (self.next + 1) % self.n;
        Some(pid)
    }

    fn support(&self) -> Vec<ProcessId> {
        (0..self.n).map(ProcessId).collect()
    }

    fn completion_oblivious(&self) -> bool {
        // The cyclic order is fixed up front; on_done is ignored.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_through_all() {
        let mut s = RoundRobin::new(4);
        let seq: Vec<usize> = (0..9).map(|_| s.next_pid().unwrap().index()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn starting_offset_wraps() {
        let mut s = RoundRobin::starting_at(3, 5);
        assert_eq!(s.next_pid().unwrap().index(), 2);
        assert_eq!(s.next_pid().unwrap().index(), 0);
    }

    #[test]
    fn support_is_everyone() {
        let s = RoundRobin::new(3);
        assert_eq!(s.support().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_panics() {
        RoundRobin::new(0);
    }
}
