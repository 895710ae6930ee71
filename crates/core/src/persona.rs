//! Personae: input values bundled with pre-flipped coins.
//!
//! Because the oblivious adversary cannot observe coin flips or process
//! states, each process can generate *all* the random bits its input
//! value will ever need up front; the bits then travel with the value as
//! other processes adopt it, so every copy of a value behaves identically
//! in each round (paper §1, "persona"). The number of surviving distinct
//! personae — not surviving processes — is the progress measure of both
//! conciliators.
//!
//! A persona has two representations ([`PersonaRepr`]):
//!
//! - a [`Persona`] carries its own bits behind an `Arc`, so a clone is a
//!   reference-count increment. Every conciliator in `sift-core` can
//!   store it, and every one but Algorithm 1 does: the simulator's
//!   experiments and `sift-shmem`'s substrate run on it.
//! - a [`PersonaName`] is the persona's origin and input, 16 bytes and
//!   `Copy`; its bits live in the [`CoinTable`] of the conciliator
//!   instance that minted it. Algorithm 1 can store either, and the
//!   served stack (`sift-service`) stores names, so a served operation
//!   touches no persona reference count.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::{ProcessId, Value};

#[derive(Debug)]
struct PersonaData {
    origin: ProcessId,
    input: u64,
    /// Shared-coin bit for Algorithm 3's combining stage.
    coin: bool,
    /// Per-round priorities for Algorithm 1 (empty when unused).
    priorities: Vec<u64>,
    /// Per-round write/read choices for Algorithm 2 (empty when unused).
    choose_write: Vec<bool>,
}

/// An input value together with its pre-flipped random bits.
///
/// Personae are identified by their *origin* (the process that generated
/// the bits): within one protocol instance, the origin determines the
/// input and every random bit, so equality and hashing use the origin
/// alone.
///
/// # Examples
///
/// ```
/// use sift_core::persona::{Persona, PersonaSpec};
/// use sift_sim::rng::Xoshiro256StarStar;
/// use sift_sim::ProcessId;
///
/// let spec = PersonaSpec {
///     priority_rounds: 3,
///     priority_range: 1_000,
///     write_probs: vec![0.5, 0.5],
/// };
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let p = Persona::generate(ProcessId(0), 42, &spec, &mut rng);
/// assert_eq!(p.input(), 42);
/// assert!(p.priority(2) >= 1 && p.priority(2) <= 1_000);
/// let _write_in_round_1: bool = p.wants_write(0);
/// ```
#[derive(Debug, Clone)]
pub struct Persona(Arc<PersonaData>);

/// How many random bits of each kind a persona needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersonaSpec {
    /// Number of per-round priorities to draw (Algorithm 1's `R`).
    pub priority_rounds: usize,
    /// Priorities are uniform in `1..=priority_range` (the paper's
    /// `⌈R n²/ε⌉`). Ignored when `priority_rounds == 0`.
    pub priority_range: u64,
    /// Per-round probabilities of choosing to write (Algorithm 2's
    /// `p_i`, index 0 = round 1).
    pub write_probs: Vec<f64>,
}

impl Persona {
    /// Generates a persona for `input` at `origin`, drawing all random
    /// bits from `rng` now.
    ///
    /// # Panics
    ///
    /// Panics if `spec.priority_rounds > 0` but `spec.priority_range == 0`.
    pub fn generate(
        origin: ProcessId,
        input: u64,
        spec: &PersonaSpec,
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        if spec.priority_rounds > 0 {
            assert!(spec.priority_range > 0, "priority range must be positive");
        }
        let priorities = (0..spec.priority_rounds)
            .map(|_| rng.range_u64_inclusive_from_one(spec.priority_range))
            .collect();
        let choose_write = spec.write_probs.iter().map(|&p| rng.bernoulli(p)).collect();
        Self(Arc::new(PersonaData {
            origin,
            input,
            coin: rng.coin(),
            priorities,
            choose_write,
        }))
    }

    /// A persona with no random bits (for tests and trivial protocols).
    pub fn bare(origin: ProcessId, input: u64) -> Self {
        Self(Arc::new(PersonaData {
            origin,
            input,
            coin: false,
            priorities: Vec::new(),
            choose_write: Vec::new(),
        }))
    }

    /// The process that generated this persona's bits.
    pub fn origin(&self) -> ProcessId {
        self.0.origin
    }

    /// The input value the persona carries.
    pub fn input(&self) -> u64 {
        self.0.input
    }

    /// The shared-coin bit used by Algorithm 3's combining stage.
    pub(crate) fn coin(&self) -> bool {
        self.0.coin
    }

    /// The priority for round `round` (0-based), for Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if the persona was generated without enough priority
    /// rounds.
    pub fn priority(&self, round: usize) -> u64 {
        self.0.priorities[round]
    }

    /// Whether this persona writes (rather than reads) in sifting round
    /// `round` (0-based), for Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics if the persona was generated without enough write choices.
    pub fn wants_write(&self, round: usize) -> bool {
        self.0.choose_write[round]
    }

    /// Number of sifting rounds the persona carries choices for.
    pub(crate) fn sifting_rounds(&self) -> usize {
        self.0.choose_write.len()
    }
}

impl PartialEq for Persona {
    fn eq(&self, other: &Self) -> bool {
        self.0.origin == other.0.origin
    }
}

impl Eq for Persona {}

impl std::hash::Hash for Persona {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.origin.hash(state);
    }
}

impl std::fmt::Display for Persona {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "persona({} from {})", self.0.input, self.0.origin)
    }
}

/// How a protocol holds a persona: whole, as a [`Persona`], or by its
/// [`PersonaName`], with its coins in the instance's [`CoinTable`].
/// Algorithm 1 ([`SnapshotConciliator`](crate::SnapshotConciliator)) is
/// generic over it, and both representations mint the same coins from
/// the same generator, so they decide alike.
pub trait PersonaRepr: Value {
    /// Where one conciliator instance keeps its personae's coins: `()`
    /// for a [`Persona`], which carries its own.
    type Coins: fmt::Debug + Send + Sync;

    /// Coin storage for `n` origins of `rounds` priorities each.
    fn coins(n: usize, rounds: usize) -> Self::Coins;

    /// Mints the persona for `input` at `origin`, drawing its bits from
    /// `rng` with the calls, in the order, of [`Persona::generate`].
    fn mint(
        origin: ProcessId,
        input: u64,
        spec: &PersonaSpec,
        rng: &mut Xoshiro256StarStar,
        coins: &Self::Coins,
    ) -> Self;

    /// The process that generated the persona's bits.
    fn origin(&self) -> ProcessId;

    /// The input value the persona carries.
    fn input(&self) -> u64;

    /// The Algorithm 1 priority for round `round` (0-based).
    fn priority(&self, round: usize, coins: &Self::Coins) -> u64;
}

impl PersonaRepr for Persona {
    type Coins = ();

    fn coins(_: usize, _: usize) {}

    fn mint(
        origin: ProcessId,
        input: u64,
        spec: &PersonaSpec,
        rng: &mut Xoshiro256StarStar,
        _: &(),
    ) -> Self {
        Persona::generate(origin, input, spec, rng)
    }

    #[inline]
    fn origin(&self) -> ProcessId {
        self.0.origin
    }

    #[inline]
    fn input(&self) -> u64 {
        self.0.input
    }

    #[inline]
    fn priority(&self, round: usize, _: &()) -> u64 {
        self.0.priorities[round]
    }
}

/// A persona by name: its origin and input. Within one conciliator
/// instance the origin determines every bit, which the instance's
/// [`CoinTable`] holds, so the name is all shared memory needs to store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PersonaName {
    /// The process that generated the persona's bits.
    pub origin: ProcessId,
    /// The input value the persona carries.
    pub input: u64,
}

impl PersonaRepr for PersonaName {
    type Coins = CoinTable;

    fn coins(n: usize, rounds: usize) -> CoinTable {
        CoinTable {
            rounds,
            priorities: (0..n * rounds).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn mint(
        origin: ProcessId,
        input: u64,
        spec: &PersonaSpec,
        rng: &mut Xoshiro256StarStar,
        coins: &CoinTable,
    ) -> Self {
        debug_assert_eq!(spec.priority_rounds, coins.rounds);
        assert!(spec.priority_range > 0, "priority range must be positive");
        let slot = coins.slot(origin);
        assert_eq!(slot[0].load(Ordering::Relaxed), 0, "{origin} minted twice");
        for priority in slot {
            priority.store(
                rng.range_u64_inclusive_from_one(spec.priority_range),
                Ordering::Relaxed,
            );
        }
        // The rest of `Persona::generate`'s draws, which the table does
        // not keep: Algorithm 1 reads neither.
        for &p in &spec.write_probs {
            rng.bernoulli(p);
        }
        rng.coin();
        PersonaName { origin, input }
    }

    #[inline]
    fn origin(&self) -> ProcessId {
        self.origin
    }

    #[inline]
    fn input(&self) -> u64 {
        self.input
    }

    #[inline]
    fn priority(&self, round: usize, coins: &CoinTable) -> u64 {
        let priority = coins.slot(self.origin)[round].load(Ordering::Relaxed);
        assert_ne!(
            priority, 0,
            "{} looked up before it was minted",
            self.origin
        );
        priority
    }
}

/// The coins of one conciliator instance's [`PersonaName`]s: `rounds`
/// priorities per origin, 0 until the origin is minted (a priority is at
/// least 1). A slot is written once per run, by the mint, and read
/// after: the memory operation that shows a name to another participant
/// follows its mint, so a lookup finds its slot filled, on one thread or
/// many. [`clear`](Self::clear) readies the table for the next run and
/// keeps its storage.
#[derive(Debug)]
pub struct CoinTable {
    rounds: usize,
    priorities: Box<[AtomicU64]>,
}

impl CoinTable {
    #[inline]
    fn slot(&self, origin: ProcessId) -> &[AtomicU64] {
        let start = origin.index() * self.rounds;
        &self.priorities[start..start + self.rounds]
    }

    /// Forgets every minted origin. Call it between runs, never while a
    /// participant that reads the table is live.
    pub fn clear(&self) {
        for priority in self.priorities.iter() {
            priority.store(0, Ordering::Relaxed);
        }
    }

    /// Whether no origin is minted.
    pub fn is_empty(&self) -> bool {
        self.priorities
            .iter()
            .all(|p| p.load(Ordering::Relaxed) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = PersonaSpec {
            priority_rounds: 4,
            priority_range: 100,
            write_probs: vec![0.3, 0.7],
        };
        let a = Persona::generate(ProcessId(1), 5, &spec, &mut rng(9));
        let b = Persona::generate(ProcessId(1), 5, &spec, &mut rng(9));
        for r in 0..4 {
            assert_eq!(a.priority(r), b.priority(r));
        }
        for r in 0..2 {
            assert_eq!(a.wants_write(r), b.wants_write(r));
        }
        assert_eq!(a.coin(), b.coin());
    }

    #[test]
    fn equality_and_hash_use_origin() {
        use std::collections::HashSet;
        let spec = PersonaSpec::default();
        let a = Persona::generate(ProcessId(1), 5, &spec, &mut rng(1));
        let b = Persona::generate(ProcessId(1), 5, &spec, &mut rng(2));
        let c = Persona::generate(ProcessId(2), 5, &spec, &mut rng(1));
        assert_eq!(a, b, "same origin, same persona identity");
        assert_ne!(a, c, "different origins are distinct personae");
        let set: HashSet<Persona> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn priorities_are_in_range() {
        let spec = PersonaSpec {
            priority_rounds: 64,
            priority_range: 10,
            write_probs: Vec::new(),
        };
        let p = Persona::generate(ProcessId(0), 0, &spec, &mut rng(3));
        for r in 0..64 {
            assert!((1..=10).contains(&p.priority(r)));
        }
        assert_eq!(p.0.priorities.len(), 64);
        assert_eq!(p.sifting_rounds(), 0);
    }

    #[test]
    fn write_probs_calibrate_choices() {
        let spec = PersonaSpec {
            priority_rounds: 0,
            priority_range: 0,
            write_probs: vec![0.0; 50].into_iter().chain(vec![1.0; 50]).collect(),
        };
        let p = Persona::generate(ProcessId(0), 0, &spec, &mut rng(4));
        for r in 0..50 {
            assert!(!p.wants_write(r), "probability 0 never writes");
        }
        for r in 50..100 {
            assert!(p.wants_write(r), "probability 1 always writes");
        }
    }

    #[test]
    fn bare_persona_has_no_bits() {
        let p = Persona::bare(ProcessId(3), 77);
        assert_eq!(p.input(), 77);
        assert_eq!(p.origin(), ProcessId(3));
        assert_eq!(p.0.priorities.len(), 0);
        assert_eq!(p.sifting_rounds(), 0);
        assert!(!p.coin());
    }

    #[test]
    fn clone_is_shallow_and_cheap() {
        let spec = PersonaSpec {
            priority_rounds: 1000,
            priority_range: 1 << 60,
            write_probs: vec![0.5; 1000],
        };
        let p = Persona::generate(ProcessId(0), 1, &spec, &mut rng(5));
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.0, &q.0));
    }

    #[test]
    fn display_is_informative() {
        let p = Persona::bare(ProcessId(2), 9);
        assert_eq!(p.to_string(), "persona(9 from p2)");
    }

    #[test]
    fn a_name_mints_what_generate_draws() {
        let spec = PersonaSpec {
            priority_rounds: 5,
            priority_range: 1_000,
            write_probs: vec![0.5; 3],
        };
        let table = PersonaName::coins(4, 5);
        let (mut by_name, mut whole) = (rng(6), rng(6));
        let name = PersonaName::mint(ProcessId(3), 8, &spec, &mut by_name, &table);
        let persona = Persona::generate(ProcessId(3), 8, &spec, &mut whole);
        for r in 0..5 {
            assert_eq!(name.priority(r, &table), persona.priority(r));
        }
        assert_eq!(by_name.next_u64(), whole.next_u64(), "same draws");
        assert!(!table.is_empty());
        table.clear();
        assert!(table.is_empty());
    }

    #[test]
    #[should_panic(expected = "p1 minted twice")]
    fn minting_an_origin_twice_in_one_run_panics() {
        let spec = PersonaSpec {
            priority_rounds: 2,
            priority_range: 10,
            write_probs: Vec::new(),
        };
        let table = PersonaName::coins(2, 2);
        PersonaName::mint(ProcessId(1), 0, &spec, &mut rng(0), &table);
        PersonaName::mint(ProcessId(1), 0, &spec, &mut rng(1), &table);
    }

    #[test]
    #[should_panic(expected = "p0 looked up before it was minted")]
    fn an_unminted_name_has_no_priority() {
        let table = PersonaName::coins(1, 1);
        let name = PersonaName {
            origin: ProcessId(0),
            input: 0,
        };
        name.priority(0, &table);
    }

    #[test]
    #[should_panic(expected = "priority range must be positive")]
    fn zero_range_with_rounds_panics() {
        let spec = PersonaSpec {
            priority_rounds: 1,
            priority_range: 0,
            write_probs: Vec::new(),
        };
        Persona::generate(ProcessId(0), 0, &spec, &mut rng(0));
    }
}
