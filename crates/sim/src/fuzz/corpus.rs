//! The fuzzer corpus: coverage-novel schedules kept for further
//! mutation and for cross-substrate differential replay.

use crate::fuzz::genome::ScheduleGenome;

/// One kept schedule: the genome that produced it, the exact charged
/// slot script its evaluation executed (replayable with
/// [`FixedSchedule::from_indices`](crate::schedule::FixedSchedule)),
/// and the fingerprint that made it novel.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The genome the schedule was compiled from.
    pub genome: ScheduleGenome,
    /// The charged process-id sequence of the evaluated run.
    pub script: Vec<usize>,
    /// The coverage fingerprint of the evaluated run.
    pub fingerprint: u64,
}

/// An insertion-ordered collection of coverage-novel schedules.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// Creates an empty corpus.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a novel entry.
    pub(crate) fn push(&mut self, entry: CorpusEntry) {
        self.entries.push(entry);
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of kept schedules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing was kept yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::genome::Gene;

    #[test]
    fn corpus_preserves_insertion_order() {
        let mut corpus = Corpus::new();
        assert!(corpus.is_empty());
        for fp in [3u64, 1, 2] {
            corpus.push(CorpusEntry {
                genome: ScheduleGenome::from_genes(vec![Gene::RoundRobin { rounds: 1 }]),
                script: vec![0],
                fingerprint: fp,
            });
        }
        assert_eq!(corpus.len(), 3);
        let fps: Vec<u64> = corpus.entries().iter().map(|e| e.fingerprint).collect();
        assert_eq!(fps, vec![3, 1, 2]);
    }
}
