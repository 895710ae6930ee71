//! Adversary-schedule genomes: the mutable blueprints the fuzzer evolves.
//!
//! A [`ScheduleGenome`] is a short program in a tiny strategy language
//! ([`Gene`]): round-robin passes, seeded random interleavings, solo
//! bursts targeting one persona's carrier, front-runner stalling
//! (everyone *except* a victim runs), block-sequential phases, and crash
//! injection. Compiling a genome yields a concrete oblivious schedule —
//! the gene sequence is fixed before any process flips a coin, so the
//! compiled schedule never depends on execution state, only on the
//! genome and its embedded seeds (§1.1 obliviousness by construction).
//!
//! Crashes need no special engine support: a crashed process simply
//! stops appearing in the compiled slot sequence, exactly like the
//! finite-schedule crash encoding used by the model checker.

use crate::adversary::AdversaryStrength;
use crate::ids::ProcessId;
use crate::memory::{RegisterSemantics, Resolution};
use crate::rng::Xoshiro256StarStar;
use crate::schedule::Schedule;

/// One strategy fragment of a schedule genome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gene {
    /// `rounds` full passes over the currently-alive processes in id
    /// order.
    RoundRobin {
        /// Number of passes.
        rounds: usize,
    },
    /// `slots` slots drawn uniformly (from `seed`) among alive
    /// processes.
    Random {
        /// Seed of the gene's private slot-choice stream.
        seed: u64,
        /// Number of slots to emit.
        slots: usize,
    },
    /// Each alive process solo for `per_proc` slots, in an order
    /// shuffled from `seed` (block-sequential phases).
    Block {
        /// Seed of the gene's private shuffle stream.
        seed: u64,
        /// Slots given to each process before moving on.
        per_proc: usize,
    },
    /// Front-runner stalling: `slots` slots round-robin over everyone
    /// *except* the victim, starving it while the rest race ahead.
    Stall {
        /// Index of the starved process (taken modulo the alive count).
        victim: usize,
        /// Number of slots the victim is starved for.
        slots: usize,
    },
    /// Persona targeting: one process runs solo for `slots` slots.
    Solo {
        /// Index of the favoured process (taken modulo the alive count).
        pid: usize,
        /// Number of consecutive slots it receives.
        slots: usize,
    },
    /// Crash a process: it never appears in any later gene. Ignored if
    /// it would crash the last alive process (wait-freedom needs a
    /// survivor).
    Crash {
        /// Index of the crashed process (taken modulo the alive count).
        victim: usize,
    },
    /// Environment gene (extended pool only): the adversary strength
    /// the campaign harness runs this genome under. Emits no slots —
    /// [`ScheduleGenome::compile`] skips it; read it back with
    /// [`ScheduleGenome::environment`] (last occurrence wins). The
    /// compiled slot sequence stays oblivious; strengths above
    /// [`AdversaryStrength::Oblivious`] tell the harness to *replace*
    /// the compiled schedule with a state-reactive chooser of that
    /// strength.
    Adversary {
        /// The lattice point to run under.
        strength: AdversaryStrength,
    },
    /// Environment gene (extended pool only): the register semantics
    /// the genome's runs execute under. Emits no slots; last occurrence
    /// wins (see [`ScheduleGenome::environment`]).
    Semantics {
        /// Atomic, or regular with a fixed resolution policy.
        semantics: RegisterSemantics,
    },
}

impl Gene {
    fn random(n: usize, rng: &mut Xoshiro256StarStar) -> Gene {
        // The kind draw MUST stay `range_u64(6)` here: campaign digests
        // (FUZZ_GOLDEN) replay this exact randomness stream. New gene
        // kinds go in `random_extended` below.
        let kind = rng.range_u64(6);
        Self::core(kind, n, rng)
    }

    /// Draws from the extended pool: the six schedule genes plus the
    /// two environment genes (adversary strength, register semantics).
    fn random_extended(n: usize, rng: &mut Xoshiro256StarStar) -> Gene {
        match rng.range_u64(8) {
            6 => {
                let lattice = AdversaryStrength::lattice();
                Gene::Adversary {
                    strength: lattice[rng.range_u64(lattice.len() as u64) as usize],
                }
            }
            7 => Gene::Semantics {
                semantics: match rng.range_u64(4) {
                    0 => RegisterSemantics::Atomic,
                    1 => RegisterSemantics::Regular(Resolution::AlwaysNew),
                    2 => RegisterSemantics::Regular(Resolution::AlwaysOld),
                    _ => RegisterSemantics::Regular(Resolution::Coin(rng.next_u64())),
                },
            },
            kind => Self::core(kind, n, rng),
        }
    }

    fn core(kind: u64, n: usize, rng: &mut Xoshiro256StarStar) -> Gene {
        let burst = (4 * n).max(4) as u64;
        match kind {
            0 => Gene::RoundRobin {
                rounds: 1 + rng.range_u64(4) as usize,
            },
            1 => Gene::Random {
                seed: rng.next_u64(),
                slots: 1 + rng.range_u64(burst) as usize,
            },
            2 => Gene::Block {
                seed: rng.next_u64(),
                per_proc: 1 + rng.range_u64(8) as usize,
            },
            3 => Gene::Stall {
                victim: rng.range_u64(n as u64) as usize,
                slots: 1 + rng.range_u64(burst) as usize,
            },
            4 => Gene::Solo {
                pid: rng.range_u64(n as u64) as usize,
                slots: 1 + rng.range_u64(8) as usize,
            },
            _ => Gene::Crash {
                victim: rng.range_u64(n as u64) as usize,
            },
        }
    }
}

/// The execution environment a genome asks for, aggregated from its
/// environment genes (defaults when it carries none): which adversary
/// strength the harness should drive the run with, and which register
/// semantics the memory should execute under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Environment {
    /// Adversary lattice point (default [`AdversaryStrength::Oblivious`]).
    pub strength: AdversaryStrength,
    /// Register semantics (default [`RegisterSemantics::Atomic`]).
    pub semantics: RegisterSemantics,
}

/// A mutable adversary blueprint: an ordered gene sequence for `n`
/// processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleGenome {
    genes: Vec<Gene>,
}

impl ScheduleGenome {
    /// Builds a genome from explicit genes (tests, replay).
    ///
    /// # Panics
    ///
    /// Panics if `genes` is empty.
    pub fn from_genes(genes: Vec<Gene>) -> Self {
        assert!(!genes.is_empty(), "a genome needs at least one gene");
        Self { genes }
    }

    /// Draws a fresh random genome of 1–6 genes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random(n: usize, rng: &mut Xoshiro256StarStar) -> Self {
        assert!(n > 0, "need at least one process");
        let count = 1 + rng.range_u64(6) as usize;
        Self {
            genes: (0..count).map(|_| Gene::random(n, rng)).collect(),
        }
    }

    /// Draws a fresh random genome of 1–6 genes from the extended pool
    /// (schedule genes plus environment genes).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub(crate) fn random_extended(n: usize, rng: &mut Xoshiro256StarStar) -> Self {
        assert!(n > 0, "need at least one process");
        let count = 1 + rng.range_u64(6) as usize;
        Self {
            genes: (0..count).map(|_| Gene::random_extended(n, rng)).collect(),
        }
    }

    /// Produces a mutated copy: insert, delete, replace, or swap one
    /// gene.
    pub(crate) fn mutate(&self, n: usize, rng: &mut Xoshiro256StarStar) -> Self {
        self.mutate_impl(n, rng, false)
    }

    /// [`mutate`](Self::mutate), drawing replacement/inserted genes
    /// from the extended pool.
    pub(crate) fn mutate_extended(&self, n: usize, rng: &mut Xoshiro256StarStar) -> Self {
        self.mutate_impl(n, rng, true)
    }

    fn mutate_impl(&self, n: usize, rng: &mut Xoshiro256StarStar, extended: bool) -> Self {
        let fresh = if extended {
            Gene::random_extended
        } else {
            Gene::random
        };
        let mut genes = self.genes.clone();
        match rng.range_u64(4) {
            0 => {
                let at = rng.range_u64(genes.len() as u64 + 1) as usize;
                genes.insert(at, fresh(n, rng));
            }
            1 if genes.len() > 1 => {
                let at = rng.range_u64(genes.len() as u64) as usize;
                genes.remove(at);
            }
            2 => {
                let at = rng.range_u64(genes.len() as u64) as usize;
                genes[at] = fresh(n, rng);
            }
            _ => {
                let a = rng.range_u64(genes.len() as u64) as usize;
                let b = rng.range_u64(genes.len() as u64) as usize;
                genes.swap(a, b);
            }
        }
        Self { genes }
    }

    /// The gene sequence.
    pub(crate) fn genes(&self) -> &[Gene] {
        &self.genes
    }

    /// The execution environment the genome's environment genes ask
    /// for, defaults where it carries none. Later genes win, matching
    /// the "last write" reading of the gene program.
    pub fn environment(&self) -> Environment {
        let mut env = Environment::default();
        for gene in &self.genes {
            match *gene {
                Gene::Adversary { strength } => env.strength = strength,
                Gene::Semantics { semantics } => env.semantics = semantics,
                _ => {}
            }
        }
        env
    }

    /// Compiles the genome into a concrete oblivious schedule for `n`
    /// processes: a finite slot prefix (every gene expanded against the
    /// alive-set evolution) followed by an infinite round-robin tail
    /// over the processes still alive at the end, which is the
    /// schedule's [`support`](Schedule::support).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn compile(&self, n: usize) -> GenomeSchedule {
        assert!(n > 0, "need at least one process");
        let mut alive: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let mut prefix = Vec::new();
        for gene in &self.genes {
            match *gene {
                Gene::RoundRobin { rounds } => {
                    for _ in 0..rounds {
                        prefix.extend_from_slice(&alive);
                    }
                }
                Gene::Random { seed, slots } => {
                    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
                    for _ in 0..slots {
                        prefix.push(alive[rng.range_u64(alive.len() as u64) as usize]);
                    }
                }
                Gene::Block { seed, per_proc } => {
                    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
                    let mut order = alive.clone();
                    // Fisher–Yates from the gene's private stream.
                    for i in (1..order.len()).rev() {
                        let j = rng.range_u64(i as u64 + 1) as usize;
                        order.swap(i, j);
                    }
                    for pid in order {
                        for _ in 0..per_proc {
                            prefix.push(pid);
                        }
                    }
                }
                Gene::Stall { victim, slots } => {
                    let victim = alive[victim % alive.len()];
                    let others: Vec<ProcessId> =
                        alive.iter().copied().filter(|&p| p != victim).collect();
                    // With one process alive there is no one else to run.
                    let pool = if others.is_empty() { &alive } else { &others };
                    for i in 0..slots {
                        prefix.push(pool[i % pool.len()]);
                    }
                }
                Gene::Solo { pid, slots } => {
                    let pid = alive[pid % alive.len()];
                    for _ in 0..slots {
                        prefix.push(pid);
                    }
                }
                Gene::Crash { victim } => {
                    if alive.len() > 1 {
                        alive.remove(victim % alive.len());
                    }
                }
                // Environment genes shape how the harness runs the
                // schedule, not the slot sequence itself.
                Gene::Adversary { .. } | Gene::Semantics { .. } => {}
            }
        }
        GenomeSchedule {
            prefix,
            cursor: 0,
            alive,
            tail_pos: 0,
        }
    }
}

/// A compiled [`ScheduleGenome`]: finite prefix, then an infinite
/// round-robin tail over the surviving (never-crashed) processes.
#[derive(Debug, Clone)]
pub struct GenomeSchedule {
    prefix: Vec<ProcessId>,
    cursor: usize,
    alive: Vec<ProcessId>,
    tail_pos: usize,
}

impl GenomeSchedule {
    /// Length of the finite compiled prefix.
    pub fn prefix_len(&self) -> usize {
        self.prefix.len()
    }
}

impl Schedule for GenomeSchedule {
    fn next_pid(&mut self) -> Option<ProcessId> {
        if self.cursor < self.prefix.len() {
            let pid = self.prefix[self.cursor];
            self.cursor += 1;
            return Some(pid);
        }
        let pid = self.alive[self.tail_pos % self.alive.len()];
        self.tail_pos += 1;
        Some(pid)
    }

    fn support(&self) -> Vec<ProcessId> {
        self.alive.clone()
    }

    fn completion_oblivious(&self) -> bool {
        // Prefix and round-robin tail are compiled before the run.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(seed)
    }

    #[test]
    fn compile_is_deterministic() {
        let g = ScheduleGenome::random(6, &mut rng(3));
        let a = g.compile(6);
        let b = g.compile(6);
        assert_eq!(a.prefix, b.prefix);
        assert_eq!(a.alive, b.alive);
    }

    #[test]
    fn prefix_pids_are_in_range() {
        for seed in 0..50 {
            let g = ScheduleGenome::random(5, &mut rng(seed));
            let s = g.compile(5);
            assert!(s.prefix.iter().all(|p| p.index() < 5), "{:?}", g);
        }
    }

    #[test]
    fn crash_removes_from_support_and_later_genes() {
        let g = ScheduleGenome::from_genes(vec![
            Gene::Crash { victim: 0 },
            Gene::RoundRobin { rounds: 1 },
        ]);
        let s = g.compile(3);
        assert_eq!(s.alive, &[ProcessId(1), ProcessId(2)]);
        assert_eq!(s.prefix, vec![ProcessId(1), ProcessId(2)]);
    }

    #[test]
    fn crash_never_empties_the_alive_set() {
        let g = ScheduleGenome::from_genes(vec![
            Gene::Crash { victim: 0 },
            Gene::Crash { victim: 0 },
            Gene::Crash { victim: 0 },
        ]);
        let s = g.compile(2);
        assert_eq!(s.alive.len(), 1);
    }

    #[test]
    fn stall_excludes_the_victim() {
        let g = ScheduleGenome::from_genes(vec![Gene::Stall {
            victim: 1,
            slots: 6,
        }]);
        let s = g.compile(3);
        assert!(s.prefix.iter().all(|&p| p != ProcessId(1)));
        assert_eq!(s.prefix.len(), 6);
    }

    #[test]
    fn stall_with_one_alive_falls_back_to_that_process() {
        let g = ScheduleGenome::from_genes(vec![Gene::Stall {
            victim: 0,
            slots: 3,
        }]);
        let s = g.compile(1);
        assert_eq!(s.prefix, vec![ProcessId(0); 3]);
    }

    #[test]
    fn tail_round_robins_over_alive_forever() {
        let g = ScheduleGenome::from_genes(vec![Gene::Crash { victim: 1 }]);
        let mut s = g.compile(3);
        assert_eq!(s.prefix_len(), 0);
        let picked: Vec<ProcessId> = (0..5).map(|_| s.next_pid().unwrap()).collect();
        assert_eq!(
            picked,
            vec![
                ProcessId(0),
                ProcessId(2),
                ProcessId(0),
                ProcessId(2),
                ProcessId(0)
            ]
        );
    }

    #[test]
    fn mutate_keeps_genomes_compilable() {
        let mut r = rng(9);
        let mut g = ScheduleGenome::random(4, &mut r);
        for _ in 0..100 {
            g = g.mutate(4, &mut r);
            assert!(!g.genes().is_empty());
            let s = g.compile(4);
            assert!(!s.alive.is_empty());
        }
    }

    #[test]
    fn base_pool_never_draws_environment_genes() {
        // The non-extended pool must keep the exact pre-existing gene
        // distribution: campaign digests replay its randomness stream.
        let mut r = rng(11);
        for _ in 0..200 {
            let g = ScheduleGenome::random(4, &mut r);
            assert!(!g
                .genes()
                .iter()
                .any(|g| matches!(g, Gene::Adversary { .. } | Gene::Semantics { .. })));
            assert_eq!(g.environment(), Environment::default());
        }
    }

    #[test]
    fn environment_genes_emit_no_slots_and_last_one_wins() {
        let g = ScheduleGenome::from_genes(vec![
            Gene::Adversary {
                strength: AdversaryStrength::Late,
            },
            Gene::RoundRobin { rounds: 1 },
            Gene::Semantics {
                semantics: RegisterSemantics::Regular(Resolution::AlwaysOld),
            },
            Gene::Adversary {
                strength: AdversaryStrength::Adaptive,
            },
        ]);
        let s = g.compile(3);
        assert_eq!(s.prefix_len(), 3, "env genes add no slots");
        let env = g.environment();
        assert_eq!(env.strength, AdversaryStrength::Adaptive);
        assert_eq!(
            env.semantics,
            RegisterSemantics::Regular(Resolution::AlwaysOld)
        );
    }

    #[test]
    fn extended_pool_eventually_draws_environment_genes() {
        let mut r = rng(13);
        let mut saw_adversary = false;
        let mut saw_semantics = false;
        for _ in 0..100 {
            let g = ScheduleGenome::random_extended(4, &mut r);
            for gene in g.genes() {
                match gene {
                    Gene::Adversary { .. } => saw_adversary = true,
                    Gene::Semantics { .. } => saw_semantics = true,
                    _ => {}
                }
            }
            // Every extended genome must still compile and run.
            let s = g.compile(4);
            assert!(!s.alive.is_empty());
        }
        assert!(saw_adversary && saw_semantics);
    }

    #[test]
    fn extended_mutation_keeps_genomes_compilable() {
        let mut r = rng(17);
        let mut g = ScheduleGenome::random_extended(4, &mut r);
        for _ in 0..100 {
            g = g.mutate_extended(4, &mut r);
            assert!(!g.genes().is_empty());
            let s = g.compile(4);
            assert!(!s.alive.is_empty());
        }
    }

    #[test]
    fn solo_and_block_target_alive_processes_only() {
        let g = ScheduleGenome::from_genes(vec![
            Gene::Crash { victim: 0 },
            Gene::Solo { pid: 0, slots: 2 },
            Gene::Block {
                seed: 5,
                per_proc: 1,
            },
        ]);
        let s = g.compile(2);
        assert_eq!(s.prefix, vec![ProcessId(1); 3]);
    }
}
