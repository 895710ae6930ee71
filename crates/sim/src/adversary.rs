//! The adversary lattice: parameterized schedulers between the
//! oblivious and adaptive extremes.
//!
//! The paper's bounds (§1.1) hold against an **oblivious** adversary —
//! one that commits to the entire schedule before any process flips a
//! coin — and demonstrably fail against an **adaptive** one that
//! watches every coin (experiment E20; Attiya–Censor's `Ω(n²)` lower
//! bound explains why). Between the two sits a lattice of intermediate
//! adversaries, notably Robinson–Scheideler–Setzer's *late* adversary
//! (arXiv 1805.00774), which reacts to the computation with a one-round
//! delay. This module pins the whole lattice behind one knob:
//!
//! * [`AdversaryStrength::Oblivious`] — the paper's model. No chooser
//!   is involved: callers run a precommitted
//!   [`Schedule`](crate::schedule::Schedule) as usual.
//! * [`AdversaryStrength::Delayed`]`(k)` — the adversary sees a full
//!   snapshot of process states and memory, but **k steps stale**. Its
//!   scheduling decision at step `t` uses the observation taken at step
//!   `t - k`.
//! * [`AdversaryStrength::Late`] — `Delayed(1)`, the weakest
//!   non-oblivious point: reacting with a single step of lag.
//! * [`AdversaryStrength::Adaptive`] — `Delayed(0)`: the classic
//!   adaptive adversary of [`Engine::run_adaptive`].
//!
//! The delayed tiers are implemented by [`DelayedChooser`], a wrapper
//! that ring-buffers observations extracted from successive
//! [`AdaptiveView`]s and feeds the decision function the stale one.
//! Two modeling choices are deliberate:
//!
//! * **Liveness knowledge is always current.** The chooser must name a
//!   live process, so the decision function receives the current live
//!   set alongside the stale observation. Only *strategic* information
//!   (process states, pending operations, memory contents) is delayed.
//!   This matches the late-adversary model, where crashes/completions
//!   are visible but coin flips are not yet.
//! * **`Delayed(k)` degenerates to oblivious as `k` grows.** Once `k`
//!   reaches the run length, every decision uses the empty observation,
//!   so the decision function is a deterministic (or pre-seeded)
//!   function of the step index and live set — exactly a schedule the
//!   adversary could have committed to in advance. The lattice is
//!   therefore genuinely ordered: each tier's schedules are a superset
//!   of the weaker tier's.
//!
//! [`Engine::run_adaptive`]: crate::engine::Engine::run_adaptive
//! [`AdaptiveView`]: crate::engine::AdaptiveView

use std::collections::VecDeque;

use crate::engine::AdaptiveView;
use crate::ids::ProcessId;
use crate::process::Process;

/// How much of the computation the adversary sees when scheduling.
///
/// Ordered from weakest to strongest; see the [module docs](self) for
/// the semantics of each tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdversaryStrength {
    /// The schedule is fixed before the run (the paper's model).
    #[default]
    Oblivious,
    /// Scheduling decisions use observations `k` steps stale.
    Delayed(usize),
    /// The late adversary: `Delayed(1)`.
    Late,
    /// The adaptive adversary: `Delayed(0)`.
    Adaptive,
}

impl AdversaryStrength {
    /// The observation delay in steps, or `None` for the oblivious tier
    /// (which never observes the run at all).
    pub fn delay(self) -> Option<usize> {
        match self {
            Self::Oblivious => None,
            Self::Delayed(k) => Some(k),
            Self::Late => Some(1),
            Self::Adaptive => Some(0),
        }
    }

    /// Whether this is the oblivious tier.
    pub fn is_oblivious(self) -> bool {
        matches!(self, Self::Oblivious)
    }

    /// A short stable name for tables and JSON keys.
    pub fn name(self) -> String {
        match self {
            Self::Oblivious => "oblivious".into(),
            Self::Delayed(k) => format!("delayed({k})"),
            Self::Late => "late".into(),
            Self::Adaptive => "adaptive".into(),
        }
    }

    /// The standard sweep used by the experiments and the fuzz genome:
    /// oblivious → heavily delayed → mildly delayed → late → adaptive.
    pub fn lattice() -> [Self; 5] {
        [
            Self::Oblivious,
            Self::Delayed(64),
            Self::Delayed(8),
            Self::Late,
            Self::Adaptive,
        ]
    }
}

/// A chooser for [`Engine::run_adaptive`] whose strategic information
/// is `delay` steps stale.
///
/// `extract` digests each step's [`AdaptiveView`] into an owned
/// observation `O` (the view borrows the engine, so observations must
/// be owned to outlive it); `decide` receives the observation from
/// `delay` steps ago (`None` until the run is `delay` steps old, and
/// always `None` when `delay` exceeds the run length) plus the current
/// live set, and names the next process to schedule.
///
/// With `delay == 0` this is precisely the adaptive adversary: the
/// observation handed to `decide` is the one just extracted.
///
/// # Examples
///
/// ```
/// use sift_sim::adversary::{AdversaryStrength, DelayedChooser};
/// use sift_sim::schedule::Schedule;
/// use sift_sim::{Engine, LayoutBuilder, Op, OpResult, Process, Step};
///
/// struct Writer(sift_sim::RegisterId, bool);
/// impl Process for Writer {
///     type Value = u64;
///     type Output = u64;
///     fn step(&mut self, _prev: Option<OpResult<u64>>) -> Step<u64, u64> {
///         if self.1 { Step::Done(1) } else { self.1 = true; Step::Issue(Op::RegisterWrite(self.0, 7)) }
///     }
/// }
///
/// let mut b = LayoutBuilder::new();
/// let r = b.register();
/// let layout = b.build();
/// let procs = vec![Writer(r, false), Writer(r, false)];
/// let delay = AdversaryStrength::Late.delay().unwrap();
/// let mut chooser = DelayedChooser::new(
///     delay,
///     |view: &sift_sim::AdaptiveView<'_, Writer>| view.live.len(),
///     |stale: Option<&usize>, live: &[sift_sim::ProcessId]| {
///         // The late adversary schedules the lowest pid, breaking
///         // ties with the (stale) live count's parity.
///         live[stale.copied().unwrap_or(0) % live.len()]
///     },
/// );
/// let report = Engine::new(&layout, procs).run_adaptive(|view| chooser.choose(&view));
/// assert!(report.all_decided());
/// ```
///
/// [`Engine::run_adaptive`]: crate::engine::Engine::run_adaptive
#[derive(Debug)]
pub struct DelayedChooser<O, X, D> {
    delay: usize,
    buf: VecDeque<O>,
    extract: X,
    decide: D,
}

impl<O, X, D> DelayedChooser<O, X, D> {
    /// Creates a chooser with the given observation delay.
    pub fn new(delay: usize, extract: X, decide: D) -> Self {
        Self {
            delay,
            buf: VecDeque::with_capacity(delay.saturating_add(1).min(1024)),
            extract,
            decide,
        }
    }

    /// Chooses the next process for [`Engine::run_adaptive`]: extracts
    /// the current observation, then decides on the one from
    /// `delay` steps ago.
    ///
    /// [`Engine::run_adaptive`]: crate::engine::Engine::run_adaptive
    pub fn choose<P>(&mut self, view: &AdaptiveView<'_, P>) -> ProcessId
    where
        P: Process,
        X: FnMut(&AdaptiveView<'_, P>) -> O,
        D: FnMut(Option<&O>, &[ProcessId]) -> ProcessId,
    {
        self.buf.push_back((self.extract)(view));
        let stale = if self.buf.len() > self.delay {
            self.buf.get(self.buf.len() - 1 - self.delay)
        } else {
            None
        };
        let live: Vec<ProcessId> = view.live.iter().map(|(pid, _, _)| *pid).collect();
        let pid = (self.decide)(stale, &live);
        // The front observation is never consulted again once the
        // buffer holds more than `delay + 1` entries' worth of history,
        // so memory stays O(delay) regardless of run length.
        if self.buf.len() > self.delay {
            self.buf.pop_front();
        }
        pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::layout::LayoutBuilder;
    use crate::op::{Op, OpResult};
    use crate::process::Step;

    /// Issues `remaining` reads of one register, then finishes with the
    /// number of non-⊥ values it saw.
    struct Reader {
        reg: crate::ids::RegisterId,
        remaining: usize,
        seen: u64,
    }

    impl Process for Reader {
        type Value = u64;
        type Output = u64;

        fn step(&mut self, prev: Option<OpResult<u64>>) -> Step<u64, u64> {
            if let Some(OpResult::RegisterValue(Some(_))) = prev {
                self.seen += 1;
            }
            if self.remaining == 0 {
                Step::Done(self.seen)
            } else {
                self.remaining -= 1;
                Step::Issue(Op::RegisterRead(self.reg))
            }
        }
    }

    fn run_with_delay(delay: usize) -> (Vec<Option<usize>>, Vec<usize>) {
        let mut b = LayoutBuilder::new();
        let r = b.register();
        let layout = b.build();
        let procs: Vec<Reader> = (0..3)
            .map(|_| Reader {
                reg: r,
                remaining: 4,
                seen: 0,
            })
            .collect();
        // Observation: the live count. Record what `decide` is shown
        // alongside what was current at that step.
        let mut shown = Vec::new();
        let mut current = Vec::new();
        let mut chooser = DelayedChooser::new(
            delay,
            |view: &AdaptiveView<'_, Reader>| view.live.len(),
            |stale: Option<&usize>, live: &[ProcessId]| {
                shown.push(stale.copied());
                live[0]
            },
        );
        let report = Engine::new(&layout, procs).run_adaptive(|view| {
            current.push(view.live.len());
            chooser.choose(&view)
        });
        assert!(report.all_decided());
        (shown, current)
    }

    #[test]
    fn zero_delay_is_adaptive() {
        let (shown, current) = run_with_delay(0);
        let shown: Vec<usize> = shown.into_iter().map(|o| o.unwrap()).collect();
        assert_eq!(shown, current, "delay 0 must see the current observation");
    }

    #[test]
    fn delayed_observations_lag_by_k() {
        for delay in [1usize, 3, 7] {
            let (shown, current) = run_with_delay(delay);
            for (t, obs) in shown.iter().enumerate() {
                if t < delay {
                    assert_eq!(*obs, None, "delay {delay}, step {t}");
                } else {
                    assert_eq!(*obs, Some(current[t - delay]), "delay {delay}, step {t}");
                }
            }
        }
    }

    #[test]
    fn huge_delay_never_observes() {
        let (shown, _) = run_with_delay(10_000);
        assert!(
            shown.iter().all(Option::is_none),
            "a delay beyond the run length degenerates to oblivious"
        );
    }

    #[test]
    fn strength_knob_maps_to_delays() {
        assert_eq!(AdversaryStrength::Oblivious.delay(), None);
        assert!(AdversaryStrength::Oblivious.is_oblivious());
        assert_eq!(AdversaryStrength::Adaptive.delay(), Some(0));
        assert_eq!(AdversaryStrength::Late.delay(), Some(1));
        assert_eq!(AdversaryStrength::Delayed(9).delay(), Some(9));
        assert_eq!(AdversaryStrength::Delayed(2).name(), "delayed(2)");
        let lattice = AdversaryStrength::lattice();
        assert_eq!(lattice.len(), 5);
        assert!(lattice[0].is_oblivious());
        assert_eq!(lattice[4], AdversaryStrength::Adaptive);
    }
}
