//! Sliding-window aggregation of [`ObsReport`]s.
//!
//! The soak tier re-checks statistical claims over the *last W* traffic
//! windows rather than the whole run, so one bad window cannot hide
//! inside an ever-growing denominator. [`WindowedReport`] is the
//! supporting structure: a ring of per-window reports with an
//! on-demand merge of the current window set. Because
//! [`ObsReport::merge`] is commutative and associative, the merged view
//! equals a fresh fold of the retained windows in any order — pushing
//! and re-merging is deterministic.

use crate::report::ObsReport;
use std::collections::VecDeque;

/// A bounded ring of per-window [`ObsReport`]s with sliding-window
/// merge.
///
/// # Examples
///
/// ```
/// use sift_obs::{ObsReport, WindowedReport};
///
/// let mut windows = WindowedReport::new(2);
/// for trials in [10u64, 20, 30] {
///     let mut report = ObsReport::new();
///     report.add_count("trials", trials);
///     windows.push(report);
/// }
/// // Only the last two windows are retained and merged.
/// assert_eq!(windows.len(), 2);
/// assert_eq!(windows.merged().count("trials"), 50);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedReport {
    width: usize,
    windows: VecDeque<ObsReport>,
}

impl WindowedReport {
    /// A ring retaining the last `width` windows.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "need at least one window");
        Self {
            width,
            windows: VecDeque::with_capacity(width),
        }
    }

    /// Windows currently retained (at most `width`).
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// `true` until the first push.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Appends one window, rolling the oldest off when full.
    pub fn push(&mut self, report: ObsReport) {
        if self.windows.len() == self.width {
            self.windows.pop_front();
        }
        self.windows.push_back(report);
    }

    /// The merge of every retained window (empty report before the
    /// first push). Maxima are maxima over the window set; counters and
    /// histograms are sums.
    pub fn merged(&self) -> ObsReport {
        let mut merged = ObsReport::new();
        for window in &self.windows {
            merged.merge(window);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(trials: u64, violations: u64, peak: u64) -> ObsReport {
        let mut report = ObsReport::new();
        report.add_count("trials", trials);
        report.add_count("violations", violations);
        report.observe_max("peak", peak);
        report.record_hist("steps", trials);
        report
    }

    #[test]
    fn merged_equals_manual_fold_of_retained_windows() {
        let mut ring = WindowedReport::new(3);
        let all = [
            window(10, 1, 5),
            window(20, 0, 9),
            window(30, 2, 3),
            window(40, 0, 7),
            window(50, 1, 2),
        ];
        for w in &all {
            ring.push(w.clone());
        }
        assert_eq!(ring.len(), 3);
        let mut manual = ObsReport::new();
        for w in &all[2..] {
            manual.merge(w);
        }
        let merged = ring.merged();
        assert_eq!(merged.count("trials"), manual.count("trials"));
        assert_eq!(merged.count("violations"), manual.count("violations"));
        assert_eq!(merged.max("peak"), manual.max("peak"));
        assert_eq!(merged, manual);
    }

    #[test]
    fn rolls_off_oldest_first() {
        let mut ring = WindowedReport::new(2);
        ring.push(window(1, 1, 1));
        ring.push(window(2, 0, 2));
        assert_eq!(ring.merged().count("trials"), 3);
        ring.push(window(4, 0, 4));
        // The violation from the first window rolled off.
        assert_eq!(ring.merged().count("violations"), 0);
        assert_eq!(ring.merged().count("trials"), 6);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn empty_ring_merges_to_empty_report() {
        let ring = WindowedReport::new(4);
        assert!(ring.is_empty());
        assert!(ring.merged().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_width_panics() {
        let _ = WindowedReport::new(0);
    }
}
