//! The experiment suite and its one registry.
//!
//! One module per table/figure of `DESIGN.md`'s experiment index
//! (E1–E26), and [`REGISTRY`]: the only list of experiments in the
//! repository. The `exp` binary dispatches over it, `run_all` is its
//! `all`-flagged entries in order, and [`list`] — what `exp list`
//! prints and what the README's experiment table must equal — is its
//! rendering.
//!
//! Every table function returns [`Table`]s pairing measured values with
//! the paper's analytical bound, so the output is directly comparable.
//! Trial counts scale with `SIFT_TRIALS` (see [`crate::cli`]).

mod adaptive;
pub mod adopt_commit;
pub mod adversary;
pub mod agreement;
mod baselines;
pub mod consensus;
mod cost_model;
mod linear_work;
pub mod max_register;
pub mod priority_range;
pub mod steps;
pub mod survivors;
mod tail;
mod test_and_set;
pub mod width;

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::cli::Knobs;
use crate::table::Table;

/// One row of the [`REGISTRY`]: what `exp <name>` runs.
#[derive(Debug)]
pub struct Experiment {
    /// The subcommand: `exp <name>`.
    pub name: &'static str,
    /// Rows of `DESIGN.md`'s experiment index this entry regenerates.
    pub index: &'static str,
    /// One line for `exp list`.
    pub about: &'static str,
    /// What runs.
    pub entry: Entry,
}

/// How an experiment runs.
#[derive(Debug)]
pub enum Entry {
    /// Tables only: `exp <name>` prints them and exits 0, and `exp all`
    /// prints them in registry order.
    Tables(fn() -> Vec<Table>),
    /// A main of its own: output beyond tables, artifacts, an exit code.
    Main {
        /// Runs the experiment, printing its output.
        run: fn(&Knobs) -> ExitCode,
        /// The tables `exp all` prints for this entry, if it is part of
        /// `all`.
        in_all: Option<fn() -> Vec<Table>>,
    },
}

use Entry::{Main, Tables};

/// Every experiment, in the order `exp list` prints and `exp all` runs.
pub static REGISTRY: [Experiment; 19] = [
    Experiment {
        name: "survivors",
        index: "E1/E4/E5",
        about: "survivor decay per round, both conciliators (Lemmas 1, 3, 4)",
        entry: Tables(survivors::run),
    },
    Experiment {
        name: "agreement",
        index: "E2/E6",
        about: "agreement probability vs epsilon (Theorems 1, 2)",
        entry: Tables(agreement::run),
    },
    Experiment {
        name: "steps",
        index: "E3/E6",
        about: "individual steps vs n: the log* n and log log n curves",
        entry: Tables(steps::run),
    },
    Experiment {
        name: "linear_work",
        index: "E7/E10",
        about: "Algorithm 3: linear total work, bounded individual steps (Theorem 3)",
        entry: Tables(linear_work::run),
    },
    Experiment {
        name: "baselines",
        index: "E11",
        about: "CIL vs the paper's conciliators, benign and adversarial schedules",
        entry: Tables(baselines::run),
    },
    Experiment {
        name: "adversary",
        index: "E12/E16/E24/E25",
        about: "schedule families, crash subsets, the adversary lattice, the negative tier",
        entry: Main {
            run: |knobs| adversary::main(knobs.adversary_json.as_deref()),
            in_all: Some(adversary::run),
        },
    },
    Experiment {
        name: "adopt_commit",
        index: "E9/E14",
        about: "adopt-commit objects: safety rates and cost vs code-space size m",
        entry: Tables(adopt_commit::run),
    },
    Experiment {
        name: "consensus",
        index: "E8/E9",
        about: "full consensus stacks: steps, phases, cost split (Corollaries 1-3)",
        entry: Tables(consensus::run),
    },
    Experiment {
        name: "priority_range",
        index: "E13",
        about: "duplicate-priority probability vs priority-range size (section 2)",
        entry: Tables(priority_range::run),
    },
    Experiment {
        name: "max_register",
        index: "E15",
        about: "Algorithm 1 on max registers, to a million processes (footnote 1)",
        entry: Tables(max_register::run),
    },
    Experiment {
        name: "test_and_set",
        index: "E17",
        about: "test-and-set from sifting: loser vs winner step split (section 5)",
        entry: Tables(test_and_set::run),
    },
    Experiment {
        name: "tail",
        index: "E18",
        about: "disagreement vs extra rounds: the log(1/epsilon) tail (Lemma 4)",
        entry: Tables(tail::run),
    },
    Experiment {
        name: "width",
        index: "E19",
        about: "register width with and without originating ids (section 3)",
        entry: Tables(width::run),
    },
    Experiment {
        name: "adaptive",
        index: "E20",
        about: "an adaptive adversary defeats both conciliators (section 1.1)",
        entry: Tables(adaptive::run),
    },
    Experiment {
        name: "cost_model",
        index: "E21",
        about: "Algorithm 1 under register-implemented snapshot costs (section 5)",
        entry: Tables(cost_model::run),
    },
    Experiment {
        name: "conformance",
        index: "E22",
        about: "every bound as a one-sided 99% test; exit 1 if a claim is refuted",
        entry: Main {
            run: |_| crate::conformance::main(),
            in_all: None,
        },
    },
    Experiment {
        name: "fuzz",
        index: "-",
        about: "coverage-guided adversary fuzzing campaign; exit 1 on a violation",
        entry: Main {
            run: |knobs| crate::fuzz::main(&knobs.fuzz, knobs.fuzz_out.as_deref()),
            in_all: None,
        },
    },
    Experiment {
        name: "soak",
        index: "E26",
        about: "soak-mode conformance with crash injection; exit 1 on a flagged claim",
        entry: Main {
            run: |knobs| {
                crate::soak::main(&knobs.soak, knobs.soak_secs, knobs.soak_json.as_deref())
            },
            in_all: None,
        },
    },
    Experiment {
        name: "all",
        index: "E1-E21, E24",
        about: "every table experiment above, in order (what EXPERIMENTS.md records)",
        entry: Main {
            run: |_| all_main(),
            in_all: None,
        },
    },
];

impl Experiment {
    /// The tables `exp all` prints for this entry, if it is part of
    /// `all`.
    pub fn in_all(&self) -> Option<fn() -> Vec<Table>> {
        match self.entry {
            Tables(tables) => Some(tables),
            Main { in_all, .. } => in_all,
        }
    }

    /// Runs the experiment, printing its output.
    pub(crate) fn run(&self, knobs: &Knobs) -> ExitCode {
        match self.entry {
            Tables(tables) => {
                print_tables(tables());
                ExitCode::SUCCESS
            }
            Main { run, .. } => run(knobs),
        }
    }
}

/// Looks an experiment up by its `exp <name>` subcommand.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The registry as `exp list` prints it: one aligned line per entry.
pub fn list() -> String {
    let mut out = String::new();
    for e in &REGISTRY {
        let _ = writeln!(out, "{:<15} {:<16} {}", e.name, e.index, e.about);
    }
    out
}

/// Runs every `all`-flagged experiment in registry order, returning all
/// tables.
///
/// This regenerates the full "evaluation section" recorded in
/// `EXPERIMENTS.md`.
pub(crate) fn run_all() -> Vec<Table> {
    REGISTRY
        .iter()
        .filter_map(Experiment::in_all)
        .flat_map(|tables| tables())
        .collect()
}

fn print_tables(tables: Vec<Table>) {
    for t in tables {
        t.print();
    }
}

fn all_main() -> ExitCode {
    let start = std::time::Instant::now();
    print_tables(run_all());
    eprintln!("total time: {:.1?}", start.elapsed());
    ExitCode::SUCCESS
}
