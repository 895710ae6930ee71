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
//! Configuration is injected, not global: [`Criterion::with_budget`]
//! takes the per-benchmark measure window directly (tests use this —
//! nothing here mutates the process environment).
//! [`Criterion::from_env`] (what
//! [`criterion_main!`](crate::criterion_main) uses) reads the five
//! `SIFT_BENCH_*` knobs of [`BenchKnobs`] — the only place a bench
//! target's environment is read — under `exp`'s error contract: a
//! malformed value is a diagnostic on stderr naming the knob and the
//! value, exit code 2, nothing measured or written.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::cli::Env;

/// Every environment variable a bench target reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchKnobs {
    /// `SIFT_BENCH_MS` — measure window per benchmark in ms (200).
    pub budget_ms: Option<u64>,
    /// `SIFT_BENCH_JSON` — if set, a path to which the run's results
    /// are written as machine-readable JSON (one file per bench target;
    /// the file is overwritten, so point different targets at different
    /// paths or run one target per file). Cargo runs bench binaries
    /// with the *package* directory as cwd, so pass an absolute path to
    /// land the file somewhere predictable (`just bench-json` does).
    pub json: Option<PathBuf>,
    /// `SIFT_BENCH_OBS_JSON` — if set, where the observation report
    /// goes (see [`Criterion::write_obs_json_if_requested`]).
    pub obs_json: Option<PathBuf>,
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
            json: env.path("SIFT_BENCH_JSON"),
            obs_json: env.path("SIFT_BENCH_OBS_JSON"),
            threads: env.positive_list("SIFT_BENCH_THREADS")?,
            max_n: env.number("SIFT_BENCH_MAX_N", true)?,
        })
    }
}

/// One finished benchmark measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name (first path segment of the printed id).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Median batch per-iteration time, in nanoseconds.
    pub median_ns: f64,
    /// Total measured iterations across all batches.
    pub samples: u64,
    /// Worker threads driving the benchmarked object, when the
    /// benchmark is a multi-threaded contention run (set via
    /// [`BenchGroup::threads`]); `None` for single-threaded benches.
    pub threads: Option<u64>,
    /// Thread-placement policy of those workers (set via
    /// [`BenchGroup::pinning`]), e.g. `"cores"` when each worker is
    /// pinned round-robin to a core, `"none"` when the scheduler
    /// places them. `None` for single-threaded benches.
    pub pinning: Option<String>,
}

/// Top-level handle mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    knobs: BenchKnobs,
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Builds a harness with an explicit per-benchmark measure budget.
    pub fn with_budget(budget: Duration) -> Self {
        Self {
            knobs: BenchKnobs {
                budget_ms: Some(budget.as_millis() as u64),
                ..BenchKnobs::default()
            },
            results: Vec::new(),
        }
    }

    /// Builds a harness configured from the process environment's
    /// `SIFT_BENCH_*` variables; a malformed one ends the process with
    /// exit code 2 before anything is measured.
    pub fn from_env() -> Self {
        match BenchKnobs::parse(|name| std::env::var(name).ok()) {
            Ok(knobs) => Self {
                knobs,
                results: Vec::new(),
            },
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
            threads: None,
            pinning: None,
        }
    }

    /// All results measured so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes results as JSON to the path named by `SIFT_BENCH_JSON`,
    /// if that variable is set. Called by [`criterion_main!`] after all
    /// groups run; harmless to call when the variable is absent.
    pub fn write_json_if_requested(&self) {
        let Some(path) = &self.knobs.json else {
            return;
        };
        let shown = path.display();
        match std::fs::write(path, results_to_json(&self.results)) {
            Ok(()) => eprintln!("wrote {} bench results to {shown}", self.results.len()),
            Err(e) => eprintln!("failed to write bench json to {shown}: {e}"),
        }
    }

    /// Writes the observation report — the substrate's contention
    /// counters plus anything recorded through [`crate::obs`] — to the
    /// path named by `SIFT_BENCH_OBS_JSON`, if set. The `substrate.*`
    /// values are all zero unless the build carries the `obs` feature
    /// (`just bench-obs` turns both on). Called by [`criterion_main!`]
    /// after all groups run.
    pub fn write_obs_json_if_requested(&self) {
        let Some(path) = &self.knobs.obs_json else {
            return;
        };
        let shown = path.display();
        match crate::obs::write_json(path) {
            Ok(()) => eprintln!("wrote bench observations to {shown}"),
            Err(e) => eprintln!("failed to write bench observations to {shown}: {e}"),
        }
    }
}

/// Renders results as a stable, dependency-free JSON document. The
/// `threads`/`pinning` keys appear only on rows that declared them, so
/// single-threaded rows stay unchanged.
fn results_to_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let mut row = format!(
            "    {{\"group\": {}, \"id\": {}, \"median_ns\": {:.1}, \"samples\": {}",
            json_string(&r.group),
            json_string(&r.id),
            r.median_ns,
            r.samples
        );
        if let Some(t) = r.threads {
            row.push_str(&format!(", \"threads\": {t}"));
        }
        if let Some(p) = &r.pinning {
            row.push_str(&format!(", \"pinning\": {}", json_string(p)));
        }
        out.push_str(&format!("{row}}}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    threads: Option<u64>,
    pinning: Option<String>,
}

impl BenchGroup<'_> {
    /// Caps the number of measured samples (Criterion compatibility; the
    /// wall-clock budget usually binds first).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Declares the worker-thread count recorded on subsequently run
    /// benchmarks of this group (a thread-sweep sets it before each
    /// run).
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.threads = Some(n as u64);
        self
    }

    /// Declares the thread-placement policy recorded on subsequently
    /// run benchmarks of this group.
    pub fn pinning(&mut self, policy: impl Into<String>) -> &mut Self {
        self.pinning = Some(policy.into());
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

    fn record(&mut self, id: &str, b: &Bencher) {
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
        self.criterion.results.push(BenchResult {
            group: self.name.clone(),
            id: id.to_string(),
            median_ns: b.median_ns,
            samples: b.samples,
            threads: self.threads,
            pinning: self.pinning.clone(),
        });
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
/// `harness = false` bench target. Writes the JSON results file if
/// `SIFT_BENCH_JSON` is set and the observation report if
/// `SIFT_BENCH_OBS_JSON` is set.
#[macro_export]
macro_rules! criterion_main {
    ($group:path) => {
        fn main() {
            let mut c = $crate::microbench::Criterion::from_env();
            $group(&mut c);
            c.write_json_if_requested();
            c.write_obs_json_if_requested();
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
        g.threads(8).pinning("cores");
        g.bench_with_input(BenchmarkId::new("param", 4), &4usize, |b, &n| {
            b.iter(|| n * 2)
        });
        g.finish();
        assert!(runs >= 2);
        let results = c.results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].group, "test");
        assert_eq!(results[0].id, "noop");
        assert!(results[0].samples >= 1 && results[0].samples <= 10);
        assert_eq!(
            (results[0].threads, results[0].pinning.as_deref()),
            (None, None),
            "rows before the declaration stay unannotated"
        );
        assert_eq!(results[1].id, "param/4");
        assert!(results[1].median_ns >= 0.0);
        assert_eq!(results[1].threads, Some(8));
        assert_eq!(results[1].pinning.as_deref(), Some("cores"));
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
            ("SIFT_BENCH_JSON", "out.json"),
            ("SIFT_BENCH_OBS_JSON", ""),
        ]);
        let expected = BenchKnobs {
            budget_ms: Some(20),
            json: Some(PathBuf::from("out.json")),
            obs_json: None, // an empty path is unset
            threads: Some(vec![2, 8]),
            max_n: Some(100_000),
        };
        assert_eq!(set, Ok(expected));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let results = vec![
            BenchResult {
                group: "g".into(),
                id: "a/1".into(),
                median_ns: 12.34,
                samples: 100,
                threads: Some(8),
                pinning: Some("cores".into()),
            },
            BenchResult {
                group: "g".into(),
                id: "quote\"d".into(),
                median_ns: 5.0,
                samples: 7,
                threads: None,
                pinning: None,
            },
        ];
        let json = results_to_json(&results);
        assert!(json.contains("\"median_ns\": 12.3"));
        assert!(json.contains("\"samples\": 100"));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.contains("\"pinning\": \"cores\""));
        assert!(json.contains("quote\\\"d"));
        assert!(json.trim_end().ends_with('}'));
        // Exactly one separator between the two entries, none after the
        // last.
        assert_eq!(json.matches("},\n").count(), 1);
        // The optional keys appear only on the row that declared them.
        assert_eq!(json.matches("\"threads\"").count(), 1);
        assert_eq!(json.matches("\"pinning\"").count(), 1);
    }

    #[test]
    fn time_formatting_covers_scales() {
        assert!(format_time(5e-9).ends_with("ns"));
        assert!(format_time(5e-6).ends_with("µs"));
        assert!(format_time(5e-3).ends_with("ms"));
        assert!(format_time(5.0).ends_with("s"));
    }
}
