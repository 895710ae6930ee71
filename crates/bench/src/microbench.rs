//! A dependency-free micro-benchmark harness with a Criterion-shaped
//! API.
//!
//! The workspace builds fully offline, so the `benches/` targets cannot
//! link the external `criterion` crate. This module provides the small
//! slice of its API the benches use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `Bencher::iter`) backed by a
//! plain warmup-then-measure wall-clock loop, printing one line per
//! benchmark.
//!
//! Measurement splits each benchmark's budget into short batches and
//! reports the **median** batch's per-iteration time, which shrugs off
//! one-sided scheduling noise far better than a single long mean.
//!
//! Configuration is injected, not global: `Criterion::with_budget`
//! takes the per-benchmark measure window directly (tests use this —
//! nothing here mutates the process environment).
//! [`Criterion::from_env`] (what
//! [`criterion_main!`](crate::criterion_main) uses) reads the three
//! `SIFT_BENCH_*` knobs of [`BenchKnobs`] — the only place a bench
//! target's environment is read — under `exp`'s error contract: a
//! malformed value is a diagnostic on stderr naming the knob and the
//! value, exit code 2, nothing measured.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::cli::Env;

/// Every environment variable a bench target reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchKnobs {
    /// `SIFT_BENCH_MS` — measure window per benchmark in ms (200).
    pub budget_ms: Option<u64>,
    /// `SIFT_BENCH_THREADS` — a comma-separated thread sweep for
    /// `benches/contention.rs` (default: its own `{2, 4, 8, 16}`).
    pub threads: Option<Vec<usize>>,
    /// `SIFT_BENCH_MAX_N` — caps the process scales
    /// `benches/sim_engine.rs` sweeps (default: all of them).
    pub max_n: Option<usize>,
}

impl BenchKnobs {
    /// Reads every knob through `env`; the error names the knob and the
    /// value it could not use.
    fn parse(env: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let env = Env(env);
        Ok(Self {
            budget_ms: env.number("SIFT_BENCH_MS", false)?,
            threads: env.positive_list("SIFT_BENCH_THREADS")?,
            max_n: env.number("SIFT_BENCH_MAX_N", true)?,
        })
    }
}

/// Top-level handle mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    knobs: BenchKnobs,
}

impl Criterion {
    /// Builds a harness with an explicit per-benchmark measure budget.
    #[cfg(test)]
    pub(crate) fn with_budget(budget: Duration) -> Self {
        Self {
            knobs: BenchKnobs {
                budget_ms: Some(budget.as_millis() as u64),
                ..BenchKnobs::default()
            },
        }
    }

    /// Builds a harness configured from the process environment's
    /// `SIFT_BENCH_*` variables; a malformed one ends the process with
    /// exit code 2 before anything is measured.
    #[doc(hidden)]
    pub fn from_env() -> Self {
        match BenchKnobs::parse(|name| std::env::var(name).ok()) {
            Ok(knobs) => Self { knobs },
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    /// The knobs this harness was configured with.
    pub fn knobs(&self) -> &BenchKnobs {
        &self.knobs
    }

    fn budget(&self) -> Duration {
        Duration::from_millis(self.knobs.budget_ms.unwrap_or(200))
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchGroup<'_> {
        BenchGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }
}

/// A named benchmark id, mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and a parameter into one id.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{name}/{param}"),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchGroup<'_> {
    /// Caps the number of measured samples (Criterion compatibility; the
    /// wall-clock budget usually binds first).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher::new(self.criterion.budget(), self.sample_size);
        f(&mut b);
        self.record(&id.to_string(), &b);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher::new(self.criterion.budget(), self.sample_size);
        f(&mut b, input);
        let id = id.id.clone();
        self.record(&id, &b);
        self
    }

    fn record(&self, id: &str, b: &Bencher) {
        if b.samples == 0 {
            println!("{}/{id:<40} (not measured)", self.name);
            return;
        }
        println!(
            "{}/{id:<40} {:>12}/iter  ({} iters)",
            self.name,
            format_time(b.median_ns / 1e9),
            b.samples
        );
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Batches per measure budget; the reported figure is the median batch.
const BATCHES: u32 = 15;

/// Runs and times one benchmark body.
#[derive(Debug)]
pub struct Bencher {
    budget: Duration,
    sample_cap: Option<usize>,
    samples: u64,
    median_ns: f64,
}

impl Bencher {
    fn new(budget: Duration, sample_cap: Option<usize>) -> Self {
        Self {
            budget,
            sample_cap,
            samples: 0,
            median_ns: 0.0,
        }
    }

    /// Calls `f` repeatedly — a short warmup, then measured batches
    /// until the wall-clock budget (or the sample cap) is exhausted.
    /// The recorded figure is the median batch's per-iteration time.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let warmup_until = Instant::now() + self.budget / 10;
        let mut warmups = 0u64;
        while Instant::now() < warmup_until || warmups < 2 {
            black_box(f());
            warmups += 1;
        }
        let cap = self.sample_cap.map_or(u64::MAX, |c| c as u64);
        let window = self.budget / BATCHES;
        let mut batch_ns: Vec<f64> = Vec::with_capacity(BATCHES as usize);
        let mut total: u64 = 0;
        let overall_start = Instant::now();
        'outer: for _ in 0..BATCHES {
            let start = Instant::now();
            let mut iters = 0u64;
            loop {
                black_box(f());
                iters += 1;
                total += 1;
                if start.elapsed() >= window {
                    break;
                }
                if total >= cap {
                    batch_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
                    break 'outer;
                }
            }
            batch_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
            if total >= cap || overall_start.elapsed() >= self.budget {
                break;
            }
        }
        batch_ns.sort_by(|a, b| a.total_cmp(b));
        self.samples = total;
        self.median_ns = batch_ns[batch_ns.len() / 2];
    }
}

fn format_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

/// Mirrors `criterion::criterion_group!`: bundles benchmark functions
/// into one runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::microbench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: the entry point for a
/// `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($group:path) => {
        fn main() {
            let mut c = $crate::microbench::Criterion::from_env();
            $group(&mut c);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports() {
        let mut c = Criterion::with_budget(Duration::from_millis(5));
        let mut g = c.benchmark_group("test");
        g.sample_size(10);
        let mut runs = 0u64;
        g.bench_function("noop", |b| b.iter(|| runs += 1));
        g.bench_with_input(BenchmarkId::new("param", 4), &4usize, |b, &n| {
            b.iter(|| n * 2)
        });
        g.finish();
        assert!(runs >= 2);
        let mut b = Bencher::new(Duration::from_millis(5), Some(10));
        b.iter(|| ());
        assert!((1..=10).contains(&b.samples), "the sample cap binds");
        assert!(b.median_ns >= 0.0);
    }

    fn knobs_from(env: &[(&str, &str)]) -> Result<BenchKnobs, String> {
        BenchKnobs::parse(|name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn malformed_knobs_are_errors_naming_the_knob_and_the_value() {
        for (knob, value) in [
            ("SIFT_BENCH_MAX_N", "1e5"),
            ("SIFT_BENCH_MS", "abc"),
            ("SIFT_BENCH_THREADS", "2,x"),
            ("SIFT_BENCH_THREADS", "2,0"),
        ] {
            let message = knobs_from(&[(knob, value)]).unwrap_err();
            assert!(
                message.contains(knob) && message.contains(&format!("{value:?}")),
                "{message}"
            );
        }
        assert_eq!(knobs_from(&[]), Ok(BenchKnobs::default()));
        let set = knobs_from(&[
            ("SIFT_BENCH_MS", "20"),
            ("SIFT_BENCH_THREADS", "2, 8"),
            ("SIFT_BENCH_MAX_N", "100000"),
        ]);
        let expected = BenchKnobs {
            budget_ms: Some(20),
            threads: Some(vec![2, 8]),
            max_n: Some(100_000),
        };
        assert_eq!(set, Ok(expected));
    }

    #[test]
    fn time_formatting_covers_scales() {
        assert!(format_time(5e-9).ends_with("ns"));
        assert!(format_time(5e-6).ends_with("µs"));
        assert!(format_time(5e-3).ends_with("ms"));
        assert!(format_time(5.0).ends_with("s"));
    }
}
