//! The spec-driven parallel trial executor.
//!
//! Every Monte-Carlo sweep in the experiment suite runs through this
//! module: a trial is *data* (a [`TrialSpec`]), a batch of trials is
//! fanned across a scoped thread pool, and per-trial results are folded
//! into mergeable accumulators (see [`Merge`] and
//! [`Welford`](crate::stats::Welford)).
//!
//! # Determinism
//!
//! Results are bit-identical regardless of thread count or completion
//! order:
//!
//! * Per-trial seeds depend only on `(master_seed, trial_index)` (see
//!   `trial_seed`), never on which worker runs the trial.
//! * Trials are folded into fixed-size chunks whose boundaries depend
//!   only on the trial count (never the thread count), and chunk
//!   accumulators are merged in index order at the barrier.
//!
//! One worker therefore reproduces the parallel numbers exactly, and
//! with the default master seed `0` the per-trial seeds are the trial
//! indices themselves — the layout the pre-executor serial harness
//! used — so historical tables are reproduced as well.
//!
//! # Knobs
//!
//! * [`set_threads`] — worker count (default: available parallelism).
//! * `set_master_seed` — master seed for a batch (default 0).
//!
//! This module never reads the environment: [`crate::cli`] parses
//! `SIFT_THREADS` / `SIFT_SEED` once and calls the setters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use sift_core::{Conciliator, Persona, RoundState};
use sift_sim::rng::SeedSplitter;
use sift_sim::schedule::ScheduleKind;
use sift_sim::{LayoutBuilder, Process};

use crate::runner::{run_trial, run_trial_with_history, Trial};

/// Accumulators that can absorb another accumulator of the same type.
///
/// `merge` must be order-respecting: merging chunk accumulators in
/// index order must be equivalent (to within float associativity) to
/// folding all samples serially. All integer-valued accumulators merge
/// exactly; float accumulators merge to within rounding, which is
/// invisible at table precision.
pub trait Merge: Sized {
    /// Absorbs `other`, which holds the samples that come *after* this
    /// accumulator's samples in trial order.
    fn merge(&mut self, other: Self);
}

impl Merge for () {
    fn merge(&mut self, _other: Self) {}
}

/// Plain counters merge by summation.
impl Merge for u64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

/// Plain counters merge by summation.
impl Merge for usize {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

/// Running sums merge by addition.
impl Merge for f64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

/// Ordered collections merge by concatenation (chunk order is trial
/// order).
impl<T> Merge for Vec<T> {
    fn merge(&mut self, other: Self) {
        self.extend(other);
    }
}

/// Per-trial step accounting rides the executor's shared merge path by
/// delegating to [`Metrics::merge`](sift_sim::Metrics::merge) — the one element-wise summing
/// implementation, so the simulator's aggregation and the harness's
/// cannot drift apart.
impl Merge for sift_sim::Metrics {
    fn merge(&mut self, other: Self) {
        sift_sim::Metrics::merge(self, &other);
    }
}

impl<A: Merge> Merge for Option<A> {
    fn merge(&mut self, other: Self) {
        match (self.as_mut(), other) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => *self = Some(b),
            (_, None) => {}
        }
    }
}

macro_rules! impl_merge_for_tuples {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Merge),+> Merge for ($($name,)+) {
            fn merge(&mut self, other: Self) {
                $(self.$idx.merge(other.$idx);)+
            }
        }
    )+};
}

impl_merge_for_tuples! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

static THREADS: AtomicUsize = AtomicUsize::new(0);
static MASTER_SEED: AtomicU64 = AtomicU64::new(0);

/// Serializes tests that mutate the global knobs.
#[cfg(test)]
pub(crate) fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sets the worker count for all subsequent batches (`0` restores the
/// default: the machine's available parallelism).
pub fn set_threads(threads: usize) {
    THREADS.store(threads, Ordering::Relaxed);
}

/// Sets the master seed for all subsequent batches (default 0).
pub(crate) fn set_master_seed(seed: u64) {
    MASTER_SEED.store(seed, Ordering::Relaxed);
}

/// The worker count used by [`map_reduce`]: the [`set_threads`] value,
/// else the machine's available parallelism.
pub(crate) fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        set => set,
    }
}

/// The master seed for a batch: the [`set_master_seed`] value, else 0.
pub(crate) fn master_seed() -> u64 {
    MASTER_SEED.load(Ordering::Relaxed)
}

/// Derives the seed of trial `index` from the batch's master seed.
///
/// With the default master seed 0 the trial seed *is* the trial index —
/// the layout the pre-executor serial harness used, preserved so
/// historical tables reproduce exactly. Any other master seed is
/// expanded through [`SeedSplitter`] into decorrelated per-trial seeds.
pub(crate) fn trial_seed(master: u64, index: u64) -> u64 {
    if master == 0 {
        index
    } else {
        SeedSplitter::new(master).seed("trial", index)
    }
}

/// Chunk size for a batch of `count` trials.
///
/// Depends only on the count — never the thread count — so the fold
/// grouping (and therefore every float result) is identical for any
/// `SIFT_THREADS`. Small batches use single-trial chunks for maximum
/// parallelism; large batches amortize the barrier merge.
fn chunk_size(count: usize) -> usize {
    (count / 64).clamp(1, 32)
}

/// Fans `count` trials across a scoped thread pool and folds each
/// trial's result into an accumulator, deterministically.
///
/// `run` receives the trial index and returns the trial's result;
/// `fold` absorbs one result into a chunk-local accumulator created by
/// `init`; chunk accumulators are [`Merge`]d in index order at the
/// barrier. Worker panics (failed in-trial assertions) propagate.
pub fn map_reduce<T, A>(
    count: usize,
    run: impl Fn(u64) -> T + Sync,
    init: impl Fn() -> A + Sync,
    fold: impl Fn(&mut A, T) + Sync,
) -> A
where
    T: Send,
    A: Merge + Send,
{
    let workers = threads();
    if count == 0 {
        return init();
    }
    let chunk = chunk_size(count);
    let n_chunks = count.div_ceil(chunk);
    let workers = workers.min(n_chunks);

    let run_chunk = |c: usize| {
        let mut local = init();
        let lo = c * chunk;
        let hi = (lo + chunk).min(count);
        for index in lo..hi {
            fold(&mut local, run(index as u64));
        }
        local
    };

    let mut slots: Vec<Option<A>> = if workers <= 1 {
        (0..n_chunks).map(|c| Some(run_chunk(c))).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots = Mutex::new((0..n_chunks).map(|_| None).collect::<Vec<_>>());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let local = run_chunk(c);
                        let mut guard = slots.lock().unwrap_or_else(|e| e.into_inner());
                        guard[c] = Some(local);
                    })
                })
                .collect();
            for h in handles {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        slots.into_inner().unwrap_or_else(|e| e.into_inner())
    };

    let mut acc = slots[0].take().expect("chunk 0 always runs");
    for slot in &mut slots[1..] {
        acc.merge(slot.take().expect("all chunks ran"));
    }
    acc
}

/// One conciliator trial as plain data: which protocol instance size,
/// which adversary family, which trial of the batch, and the derived
/// seed. Everything a worker needs to execute the trial, independent of
/// every other trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSpec {
    /// Number of participating processes.
    pub n: usize,
    /// Adversary schedule family.
    pub kind: ScheduleKind,
    /// Index of this trial within its batch.
    pub index: u64,
    /// Seed of this trial (see `trial_seed`).
    pub seed: u64,
}

/// A batch of trials over one protocol configuration — the unit the
/// executor schedules.
///
/// # Examples
///
/// ```
/// use sift_bench::exec::Batch;
/// use sift_bench::stats::Welford;
/// use sift_core::{Epsilon, SiftingConciliator};
/// use sift_sim::schedule::ScheduleKind;
///
/// let steps = Batch::new(8, 16, ScheduleKind::RoundRobin)
///     .run(
///         |b| SiftingConciliator::allocate(b, 8, Epsilon::HALF),
///         Welford::new,
///         |w, t| w.push(t.metrics.max_individual_steps() as f64),
///     );
/// assert_eq!(steps.count(), 16);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    n: usize,
    count: usize,
    kind: ScheduleKind,
    master_seed: u64,
}

impl Batch {
    /// A batch of `count` trials of an `n`-process protocol under the
    /// `kind` adversary, seeded from the session master seed
    /// (`master_seed`).
    pub fn new(n: usize, count: usize, kind: ScheduleKind) -> Self {
        Self {
            n,
            count,
            kind,
            master_seed: master_seed(),
        }
    }

    /// Uses an explicit master seed instead of the session default.
    pub fn with_master_seed(mut self, master: u64) -> Self {
        self.master_seed = master;
        self
    }

    /// The spec of trial `index`.
    pub(crate) fn spec(&self, index: u64) -> TrialSpec {
        TrialSpec {
            n: self.n,
            kind: self.kind,
            index,
            seed: trial_seed(self.master_seed, index),
        }
    }

    /// Runs every trial of the batch in parallel: builds the protocol
    /// with `build`, executes it, and folds the [`Trial`]s (in trial
    /// order) into the accumulator.
    pub fn run<C, A>(
        &self,
        build: impl Fn(&mut LayoutBuilder) -> C + Sync,
        init: impl Fn() -> A + Sync,
        fold: impl Fn(&mut A, Trial) + Sync,
    ) -> A
    where
        C: Conciliator,
        A: Merge + Send,
    {
        map_reduce(
            self.count,
            |index| {
                let spec = self.spec(index);
                run_trial(spec.n, spec.seed, spec.kind, &build)
            },
            init,
            fold,
        )
    }

    /// Like [`Batch::run`], for round-structured participants (survivor
    /// experiments): every trial records their history and collects
    /// per-round survivor counts.
    pub fn run_with_history<C, P, A>(
        &self,
        build: impl Fn(&mut LayoutBuilder) -> C + Sync,
        init: impl Fn() -> A + Sync,
        fold: impl Fn(&mut A, Trial) + Sync,
    ) -> A
    where
        C: Conciliator<Participant = P>,
        P: Process<Value = Persona, Output = Persona> + RoundState,
        A: Merge + Send,
    {
        map_reduce(
            self.count,
            |index| {
                let spec = self.spec(index);
                run_trial_with_history(spec.n, spec.seed, spec.kind, &build)
            },
            init,
            fold,
        )
    }

    /// Runs an arbitrary per-trial function over the batch's specs —
    /// the escape hatch for experiments that drive the [`Engine`]
    /// directly (consensus stacks, test-and-set, adopt-commit sweeps,
    /// adaptive adversaries).
    ///
    /// [`Engine`]: sift_sim::Engine
    pub(crate) fn run_with<T, A>(
        &self,
        run: impl Fn(TrialSpec) -> T + Sync,
        init: impl Fn() -> A + Sync,
        fold: impl Fn(&mut A, T) + Sync,
    ) -> A
    where
        T: Send,
        A: Merge + Send,
    {
        map_reduce(self.count, |index| run(self.spec(index)), init, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{RateCounter, Welford};
    use sift_core::{Epsilon, SiftingConciliator};

    #[test]
    fn map_reduce_sums_like_serial() {
        let total = map_reduce(100, |i| i, || 0u64, |acc: &mut u64, x| *acc += x);
        assert_eq!(total, 99 * 100 / 2);
    }

    #[test]
    fn map_reduce_empty_batch_returns_init() {
        let v = map_reduce(0, |_| 1u64, || 7u64, |a, b| *a += b);
        assert_eq!(v, 7);
    }

    #[test]
    fn chunking_depends_only_on_count() {
        assert_eq!(chunk_size(1), 1);
        assert_eq!(chunk_size(63), 1);
        assert_eq!(chunk_size(640), 10);
        assert_eq!(chunk_size(1 << 20), 32);
    }

    #[test]
    fn trial_seed_is_index_compatible_at_master_zero() {
        assert_eq!(trial_seed(0, 17), 17);
        assert_ne!(trial_seed(9, 17), 17 + 9);
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let _guard = override_lock();
        let run_at = |threads: usize| {
            set_threads(threads);
            let batch = Batch::new(16, 50, ScheduleKind::RandomInterleave);
            let out = batch.run(
                |b| SiftingConciliator::allocate(b, 16, Epsilon::HALF),
                || (Welford::new(), RateCounter::new()),
                |(w, r), t| {
                    w.push(t.metrics.total_steps as f64);
                    r.record(t.agreed);
                },
            );
            set_threads(0);
            out
        };
        let (w1, r1) = run_at(1);
        let (w2, r2) = run_at(2);
        let (w8, r8) = run_at(8);
        assert_eq!(w1.mean().to_bits(), w2.mean().to_bits());
        assert_eq!(w1.mean().to_bits(), w8.mean().to_bits());
        assert_eq!(r1, r2);
        assert_eq!(r1, r8);
    }

    #[test]
    fn worker_panics_propagate() {
        let _guard = override_lock();
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            map_reduce(
                64,
                |i| {
                    assert!(i != 40, "in-trial assertion");
                    i
                },
                || 0u64,
                |a, b| *a += b,
            )
        });
        set_threads(0);
        assert!(result.is_err(), "in-trial panic must propagate");
    }

    #[test]
    fn metrics_ride_the_shared_merge_path() {
        let _guard = override_lock();
        let run_at = |threads: usize| {
            set_threads(threads);
            let batch = Batch::new(8, 40, ScheduleKind::RoundRobin);
            let agg = batch.run(
                |b| SiftingConciliator::allocate(b, 8, Epsilon::HALF),
                sift_sim::Metrics::default,
                |m: &mut sift_sim::Metrics, t| Merge::merge(m, t.metrics),
            );
            set_threads(0);
            agg
        };
        let serial = run_at(1);
        let parallel = run_at(4);
        assert_eq!(
            serial, parallel,
            "Metrics merge must be thread-count invariant"
        );
        assert!(serial.total_steps > 0);
        assert_eq!(serial.total_ops, serial.ops_by_kind.iter().sum::<u64>());
    }

    #[test]
    fn option_and_tuple_merges_compose() {
        let mut a = Some((3u64, 4u64));
        a.merge(Some((10, 20)));
        assert_eq!(a, Some((13, 24)));
        let mut none: Option<(u64, u64)> = None;
        none.merge(Some((1, 2)));
        assert_eq!(none, Some((1, 2)));
    }
}
