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
//! A [`Persona`] is cheap to clone (`Arc`-backed) and is the value type
//! stored in shared memory by every protocol in `sift-core`.

use std::sync::Arc;

use sift_sim::rng::Xoshiro256StarStar;
use sift_sim::ProcessId;

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
