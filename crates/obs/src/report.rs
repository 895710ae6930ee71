//! Mergeable observation reports with a stable JSON value.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json::Json;

/// A named bag of observations: monotone counters, high-water maxima,
/// and log-bucketed histograms.
///
/// [`merge`](ObsReport::merge) combines two reports key-wise — counters
/// by sum, maxima by max, histograms bucket-wise — and is therefore
/// **commutative and associative**: folding any number of per-trial
/// reports produces the same result in any order and any grouping. That
/// is the property that lets the parallel experiment harness collect
/// observations from worker threads as trials complete (not in trial
/// order) and still emit byte-identical output at every `SIFT_THREADS`.
///
/// Keys are stored in `BTreeMap`s, so iteration — and the JSON
/// rendering — is deterministic.
///
/// # Examples
///
/// ```
/// use sift_obs::ObsReport;
/// let mut a = ObsReport::new();
/// a.add_count("trials", 1);
/// a.record_hist("steps", 120);
/// let mut b = ObsReport::new();
/// b.add_count("trials", 1);
/// b.record_hist("steps", 90);
/// a.merge(&b);
/// assert_eq!(a.count("trials"), 2);
/// assert_eq!(a.hist("steps").unwrap().count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsReport {
    counters: BTreeMap<String, u64>,
    maxima: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl ObsReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if nothing was recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.maxima.is_empty() && self.hists.is_empty()
    }

    /// Adds `n` to the counter `name` (created at zero on first use).
    pub fn add_count(&mut self, name: &str, n: u64) {
        with_slot(&mut self.counters, name, |slot| *slot += n);
    }

    /// Raises the maximum `name` to `value` if it is higher.
    pub fn observe_max(&mut self, name: &str, value: u64) {
        with_slot(&mut self.maxima, name, |slot| *slot = (*slot).max(value));
    }

    /// Records one observation of `value` into the histogram `name`.
    pub fn record_hist(&mut self, name: &str, value: u64) {
        with_slot(&mut self.hists, name, |hist| hist.record(value));
    }

    /// Merges a pre-built histogram into the histogram `name`.
    pub fn merge_hist(&mut self, name: &str, hist: &Histogram) {
        with_slot(&mut self.hists, name, |slot| slot.merge(hist));
    }

    /// The value of counter `name` (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The value of maximum `name` (0 when absent).
    pub fn max(&self, name: &str) -> u64 {
        self.maxima.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if any observation was recorded into it.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All maxima in key order.
    pub fn maxima(&self) -> impl Iterator<Item = (&str, u64)> {
        self.maxima.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Absorbs `other`: counters add, maxima take the larger side,
    /// histograms merge bucket-wise. Commutative and associative; no
    /// count is ever lost.
    pub fn merge(&mut self, other: &ObsReport) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.maxima {
            let slot = self.maxima.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }
}

/// The report as a JSON object of three sections. Key order is the
/// `BTreeMap` order and histograms are sparse, so equal reports give
/// equal values and [`json::write()`](crate::json::write()) byte-equal
/// documents.
impl From<&ObsReport> for Json {
    fn from(report: &ObsReport) -> Json {
        let section = |map: &BTreeMap<String, u64>| {
            Json::obj(map.iter().map(|(k, &v)| (k.as_str(), v.into())))
        };
        let hists = report.hists.iter().map(|(k, h)| (k.as_str(), h.into()));
        Json::obj([
            ("counters", section(&report.counters)),
            ("maxima", section(&report.maxima)),
            ("histograms", Json::obj(hists)),
        ])
    }
}

/// Applies `update` to the entry `name`, created at its default on
/// first use. The key is looked up by `&str` first: recording into an
/// existing entry — every call after the first, on the service's hot
/// paths — allocates nothing.
fn with_slot<V: Default>(map: &mut BTreeMap<String, V>, name: &str, update: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(slot) => update(slot),
        None => update(map.entry(name.to_string()).or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample(seed: u64) -> ObsReport {
        // A deterministic pseudo-random report (splitmix64 stream).
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut r = ObsReport::new();
        for _ in 0..16 {
            let v = next();
            r.add_count(["a", "b", "c"][(v % 3) as usize], v % 100);
            r.observe_max(["hwm_x", "hwm_y"][(v % 2) as usize], v % 1000);
            r.record_hist(["lat", "batch"][(v % 2) as usize], v % (1 << 20));
        }
        r
    }

    #[test]
    fn counters_maxima_hists_round_trip() {
        let mut r = ObsReport::new();
        assert!(r.is_empty());
        r.add_count("ops", 3);
        r.add_count("ops", 2);
        r.observe_max("hwm", 9);
        r.observe_max("hwm", 4);
        r.record_hist("lat", 100);
        assert_eq!(r.count("ops"), 5);
        assert_eq!(r.count("absent"), 0);
        assert_eq!(r.max("hwm"), 9);
        assert_eq!(r.hist("lat").unwrap().count(), 1);
        assert!(r.hist("absent").is_none());
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_is_commutative() {
        for seed in 0..8u64 {
            let (a, b) = (sample(seed), sample(seed + 100));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative (seed {seed})");
        }
    }

    #[test]
    fn merge_is_associative() {
        for seed in 0..8u64 {
            let (a, b, c) = (sample(seed), sample(seed + 50), sample(seed + 99));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "merge must be associative (seed {seed})");
        }
    }

    #[test]
    fn merge_conserves_totals() {
        let (a, b) = (sample(1), sample(2));
        let total = |r: &ObsReport, k: &str| r.hist(k).map(Histogram::count).unwrap_or(0);
        let expect_lat = total(&a, "lat") + total(&b, "lat");
        let expect_counts = a.count("a") + b.count("a");
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(total(&m, "lat"), expect_lat);
        assert_eq!(m.count("a"), expect_counts);
    }

    #[test]
    fn json_is_stable_and_well_formed() {
        let mut r = ObsReport::new();
        r.add_count("z", 1);
        r.add_count("a", 2);
        r.observe_max("m", 3);
        r.record_hist("h", 0);
        // BTreeMap order: "a" before "z" regardless of insertion order;
        // this is the `--obs-json` layout, byte for byte.
        let expected = r#"{
  "counters": {
    "a": 2,
    "z": 1
  },
  "maxima": {
    "m": 3
  },
  "histograms": {
    "h": {"count": 1, "buckets": [[0, 1]]}
  }
}
"#;
        assert_eq!(json::write(&Json::from(&r)), expected);
    }

    #[test]
    fn empty_report_renders_empty_sections() {
        let empty = r#"{"counters": {}, "maxima": {}, "histograms": {}}"#;
        assert_eq!(Ok(Json::from(&ObsReport::new())), json::parse(empty));
    }
}
