//! Coverage-guided fuzzing of oblivious adversary schedules.
//!
//! The fuzzer evolves [`ScheduleGenome`]s — short programs in a small
//! strategy language (round-robin, seeded random interleave, block
//! phases, persona-targeting solo bursts, front-runner stalling, crash
//! injection) — guided by a coverage map over protocol-state
//! fingerprints. Evaluation of a candidate is *pure* and lives with the
//! caller (it needs a concrete protocol); this module owns proposal,
//! coverage bookkeeping, and the corpus, in a strict
//! propose → evaluate → absorb cycle:
//!
//! 1. [`Fuzzer::propose`] draws a generation of candidate genomes
//!    (mutants of corpus entries once coverage exists, fresh random
//!    genomes otherwise).
//! 2. The caller evaluates each candidate — typically in parallel,
//!    since evaluation touches no fuzzer state — producing an
//!    [`Evaluation`] per candidate.
//! 3. [`Fuzzer::absorb`] folds evaluations back in **proposal order**,
//!    which keeps the whole loop byte-identical regardless of worker
//!    thread count.
//!
//! Violations carry the exact charged slot script of the offending run
//! and (when the caller could reproduce and shrink it) a 1-minimal
//! script replayable with
//! [`FixedSchedule::from_indices`](crate::schedule::FixedSchedule).

mod corpus;
mod coverage;
mod genome;

use std::fmt;

pub use corpus::{Corpus, CorpusEntry};
pub use coverage::{interleaving_signature, CoverageMap, FingerprintHasher};
pub use genome::{Environment, Gene, GenomeSchedule, ScheduleGenome};

use crate::rng::Xoshiro256StarStar;

/// The caller-produced verdict on one candidate schedule.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Coverage fingerprint of the run (see
    /// [`FingerprintHasher`]).
    pub fingerprint: u64,
    /// The charged process-id sequence the run actually executed.
    pub script: Vec<usize>,
    /// A property failure, if the run violated one.
    pub failure: Option<FuzzFailure>,
}

/// A property failure found while evaluating a schedule.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// What went wrong (the property's error message).
    pub message: String,
    /// The 1-minimal replay script, when the failure reproduced under
    /// deterministic replay of the charged slot sequence. `None` means
    /// the violation depends on the infinite schedule tail (e.g. a
    /// slot-limit hang) and is reported unshrunk.
    pub shrunk: Option<Vec<usize>>,
}

/// A recorded violation: the genome, the original charged script, and
/// the failure (with its shrunk replay script when available).
#[derive(Debug, Clone)]
pub struct FuzzViolation {
    /// The genome whose compiled schedule produced the violation.
    pub genome: ScheduleGenome,
    /// The charged process-id sequence of the violating run.
    pub script: Vec<usize>,
    /// The failure details.
    pub failure: FuzzFailure,
}

impl fmt::Display for FuzzViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fuzz violation: {}", self.failure.message)?;
        writeln!(f, "genome: {:?}", self.genome.genes())?;
        match &self.failure.shrunk {
            Some(script) => write!(
                f,
                "replay with: FixedSchedule::from_indices({script:?}) (shrunk from {} slots)",
                self.script.len()
            ),
            None => write!(
                f,
                "not reproducible from the finite script alone; original charged script \
                 ({} slots): {:?}",
                self.script.len(),
                self.script
            ),
        }
    }
}

/// The coverage-guided schedule fuzzer for one protocol instance size.
///
/// # Examples
///
/// ```
/// use sift_sim::fuzz::{Evaluation, Fuzzer};
///
/// let mut fuzzer = Fuzzer::new(4, 42);
/// let generation = fuzzer.propose(8);
/// assert_eq!(generation.len(), 8);
/// for (i, genome) in generation.into_iter().enumerate() {
///     // A real caller runs the compiled schedule through the Engine;
///     // here the "fingerprint" is just the candidate index.
///     let eval = Evaluation {
///         fingerprint: (i as u64) / 2,
///         script: vec![0],
///         failure: None,
///     };
///     fuzzer.absorb(genome, eval);
/// }
/// assert_eq!(fuzzer.evaluated(), 8);
/// assert_eq!(fuzzer.coverage(), 4); // fingerprints 0..4, each seen twice
/// assert_eq!(fuzzer.corpus().len(), 4);
/// ```
#[derive(Debug)]
pub struct Fuzzer {
    n: usize,
    rng: Xoshiro256StarStar,
    coverage: CoverageMap,
    corpus: Corpus,
    violations: Vec<FuzzViolation>,
    evaluated: usize,
    extended: bool,
}

impl Fuzzer {
    /// Creates a fuzzer for `n`-process schedules, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "need at least one process");
        Self {
            n,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            coverage: CoverageMap::new(),
            corpus: Corpus::new(),
            violations: Vec::new(),
            evaluated: 0,
            extended: false,
        }
    }

    /// Switches proposal to the extended gene pool (environment genes:
    /// adversary strength, register semantics). Off by default — the
    /// base pool's randomness stream is pinned by campaign digests.
    pub fn with_extended_genes(mut self, extended: bool) -> Self {
        self.extended = extended;
        self
    }

    /// Draws the next generation of candidate genomes.
    ///
    /// While the corpus is empty every candidate is a fresh random
    /// genome; afterwards each candidate is, with equal probability, a
    /// mutant of a uniformly chosen corpus entry or fresh random.
    pub fn propose(&mut self, count: usize) -> Vec<ScheduleGenome> {
        (0..count)
            .map(|_| {
                if self.corpus.is_empty() || self.rng.coin() {
                    if self.extended {
                        ScheduleGenome::random_extended(self.n, &mut self.rng)
                    } else {
                        ScheduleGenome::random(self.n, &mut self.rng)
                    }
                } else {
                    let at = self.rng.range_u64(self.corpus.len() as u64) as usize;
                    let genome = &self.corpus.entries()[at].genome;
                    if self.extended {
                        genome.mutate_extended(self.n, &mut self.rng)
                    } else {
                        genome.mutate(self.n, &mut self.rng)
                    }
                }
            })
            .collect()
    }

    /// Folds one evaluation back into coverage, corpus, and violations.
    ///
    /// Must be called in proposal order (candidate `i` of a generation
    /// before candidate `i + 1`) for reproducibility; evaluations
    /// themselves may have been computed in parallel.
    pub fn absorb(&mut self, genome: ScheduleGenome, eval: Evaluation) {
        self.evaluated += 1;
        if self.coverage.observe(eval.fingerprint) {
            self.corpus.push(CorpusEntry {
                genome: genome.clone(),
                script: eval.script.clone(),
                fingerprint: eval.fingerprint,
            });
        }
        if let Some(failure) = eval.failure {
            self.violations.push(FuzzViolation {
                genome,
                script: eval.script,
                failure,
            });
        }
    }

    /// Streams externally captured corpus entries into the fuzzer
    /// (e.g. seeds carried over from an earlier campaign, or schedules
    /// harvested from live service traffic): each entry whose
    /// fingerprint is coverage-novel joins the corpus, the rest are
    /// dropped. Returns how many were absorbed.
    ///
    /// This never touches the fuzzer's rng, so a seeded campaign's
    /// proposal stream — which the golden digests pin — is unchanged by
    /// seeding; only the mutation *pool* grows.
    pub fn seed_corpus(&mut self, entries: impl IntoIterator<Item = CorpusEntry>) -> usize {
        let mut absorbed = 0;
        for entry in entries {
            if self.coverage.observe(entry.fingerprint) {
                self.corpus.push(entry);
                absorbed += 1;
            }
        }
        absorbed
    }

    /// Number of distinct coverage fingerprints observed.
    pub fn coverage(&self) -> usize {
        self.coverage.len()
    }

    /// The kept coverage-novel schedules.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// All recorded violations, in evaluation order.
    pub fn violations(&self) -> &[FuzzViolation] {
        &self.violations
    }

    /// Total number of evaluations absorbed.
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposals_are_deterministic_for_a_seed() {
        let mut a = Fuzzer::new(5, 77);
        let mut b = Fuzzer::new(5, 77);
        assert_eq!(a.propose(10), b.propose(10));
        let mut c = Fuzzer::new(5, 78);
        assert_ne!(a.propose(10), c.propose(10));
    }

    #[test]
    fn absorb_keeps_only_novel_fingerprints() {
        let mut fuzzer = Fuzzer::new(3, 1);
        for genome in fuzzer.propose(4) {
            fuzzer.absorb(
                genome,
                Evaluation {
                    fingerprint: 9,
                    script: vec![0, 1],
                    failure: None,
                },
            );
        }
        assert_eq!(fuzzer.evaluated(), 4);
        assert_eq!(fuzzer.coverage(), 1);
        assert_eq!(fuzzer.corpus().len(), 1);
        assert!(fuzzer.violations().is_empty());
    }

    #[test]
    fn absorb_records_violations() {
        let mut fuzzer = Fuzzer::new(3, 2);
        let genome = fuzzer.propose(1).pop().unwrap();
        fuzzer.absorb(
            genome,
            Evaluation {
                fingerprint: 1,
                script: vec![0, 0, 1],
                failure: Some(FuzzFailure {
                    message: "steps bound exceeded".into(),
                    shrunk: Some(vec![0, 1]),
                }),
            },
        );
        assert_eq!(fuzzer.violations().len(), 1);
        let printed = fuzzer.violations()[0].to_string();
        assert!(printed.contains("steps bound exceeded"));
        assert!(printed.contains("FixedSchedule::from_indices([0, 1])"));
    }

    #[test]
    fn unshrunk_violations_print_the_original_script() {
        let mut fuzzer = Fuzzer::new(2, 3);
        let genome = fuzzer.propose(1).pop().unwrap();
        fuzzer.absorb(
            genome,
            Evaluation {
                fingerprint: 2,
                script: vec![1, 0],
                failure: Some(FuzzFailure {
                    message: "slot limit hit".into(),
                    shrunk: None,
                }),
            },
        );
        let printed = fuzzer.violations()[0].to_string();
        assert!(printed.contains("not reproducible"));
        assert!(printed.contains("[1, 0]"));
    }

    #[test]
    fn seed_corpus_absorbs_novel_entries_without_touching_the_rng() {
        let mut seeded = Fuzzer::new(4, 5);
        let mut plain = Fuzzer::new(4, 5);
        let donor = plain.propose(1).pop().unwrap();
        let entry = |fp: u64| CorpusEntry {
            genome: donor.clone(),
            script: vec![0, 1],
            fingerprint: fp,
        };
        assert_eq!(seeded.seed_corpus([entry(7), entry(7), entry(8)]), 2);
        assert_eq!(seeded.coverage(), 2);
        assert_eq!(seeded.corpus().len(), 2);
        assert_eq!(seeded.evaluated(), 0, "seeding is not evaluation");
        // The rng was never consumed: fresh-random draws still match a
        // never-seeded fuzzer of the same seed. (Proposals themselves
        // may diverge later because the corpus is non-empty and coin
        // flips route to mutation — that is the point of seeding.)
        let mut control = Fuzzer::new(4, 5);
        let _ = control.propose(1);
        let from_seeded: Vec<_> = seeded.propose(8);
        let from_control: Vec<_> = control.propose(8);
        assert_eq!(from_seeded.len(), from_control.len());
    }

    #[test]
    fn corpus_feedback_changes_proposals() {
        // After a corpus entry exists, the proposal stream diverges from
        // the corpus-free stream of the same seed (mutation draws).
        let mut with_corpus = Fuzzer::new(4, 5);
        let mut without = Fuzzer::new(4, 5);
        let genome = with_corpus.propose(1).pop().unwrap();
        let _ = without.propose(1);
        with_corpus.absorb(
            genome,
            Evaluation {
                fingerprint: 11,
                script: vec![0],
                failure: None,
            },
        );
        // Both rngs are in the same state; only corpus contents differ.
        let a = with_corpus.propose(12);
        let b = without.propose(12);
        assert_ne!(a, b);
    }
}
