//! The `exp` command line: every knob of the harness, parsed once.
//!
//! This is the only module of `sift-bench` that reads the process
//! environment or arguments. [`main`] parses the subcommand, the one
//! flag (`--obs-json PATH`) and every `SIFT_*` variable in `ENV_KNOBS`
//! before anything runs, hands the common ones to the library's setters
//! ([`exec::set_threads`], `exec::set_master_seed`,
//! [`runner::set_trials`], [`obs::set_output`]) and the rest to the
//! experiment as a [`Knobs`].
//!
//! One error contract: a malformed value, an unknown experiment or an
//! unknown flag is a diagnostic on stderr naming the knob and the
//! value, exit code 2, and nothing run or written.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::experiments::{self, Experiment};
use crate::fuzz::FuzzConfig;
use crate::soak::SoakConfig;
use crate::{exec, obs, runner};

/// Every environment variable `exp` reads, one per line, as `--help`
/// prints them. A numeric knob rejects anything but a number in its
/// range; a path set to the empty string counts as unset.
pub(crate) const ENV_KNOBS: &str = "\
  SIFT_TRIALS             trials per configuration; the scale of `conformance` (default: per experiment)
  SIFT_THREADS            worker threads; never changes stdout (default: available parallelism)
  SIFT_SEED               master seed; 0, the default, is the historical seed layout
  SIFT_ADVERSARY_JSON     adversary: write the lattice sweep and negative-tier verdicts to this path
  SIFT_FUZZ_N             fuzz: processes per candidate schedule (8)
  SIFT_FUZZ_GENERATIONS   fuzz: propose/evaluate/absorb cycles (12)
  SIFT_FUZZ_POPULATION    fuzz: candidates per generation (16)
  SIFT_FUZZ_EXTENDED      fuzz, soak: any value but 0 adds the adversary-strength and register-semantics genes
  SIFT_FUZZ_OUT           fuzz: also write the campaign report to this path
  SIFT_SOAK_SECS          soak: wall-clock budget in seconds; 0, the default, is the deterministic tick budget
  SIFT_SOAK_WINDOWS       soak: windows in tick-budget mode (6)
  SIFT_SOAK_WIDTH         soak: sliding-window width of the checker (4)
  SIFT_SOAK_JSON          soak: write the conformance trajectory to this path
";

/// The names in `ENV_KNOBS`.
pub fn env_knob_names() -> impl Iterator<Item = &'static str> {
    ENV_KNOBS
        .lines()
        .filter_map(|line| line.split_whitespace().next())
}

/// Every knob, checked: the common ones (private; [`main`] hands them
/// to the library's setters) and each experiment's own. Whatever no
/// variable names is its config's `Default`.
#[derive(Debug)]
pub struct Knobs {
    threads: Option<usize>,
    trials: Option<usize>,
    seed: Option<u64>,
    obs_json: Option<PathBuf>,
    /// `SIFT_ADVERSARY_JSON`.
    pub adversary_json: Option<PathBuf>,
    /// `SIFT_FUZZ_{N,GENERATIONS,POPULATION,EXTENDED}`.
    pub fuzz: FuzzConfig,
    /// `SIFT_FUZZ_OUT`.
    pub fuzz_out: Option<PathBuf>,
    /// `SIFT_SOAK_{WINDOWS,WIDTH}` and `SIFT_FUZZ_EXTENDED`.
    pub soak: SoakConfig,
    /// `SIFT_SOAK_SECS`.
    pub soak_secs: u64,
    /// `SIFT_SOAK_JSON`.
    pub soak_json: Option<PathBuf>,
}

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    /// `-h` / `--help`, after an experiment's name or alone.
    Help(Option<&'static Experiment>),
    /// `exp list`.
    List,
    /// `exp <name>`.
    Run(&'static Experiment, Box<Knobs>),
}

/// The whole of the `exp` binary: parse, run, report.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args, |name| std::env::var(name).ok()) {
        Ok(Command::Help(exp)) => print!("{}", help(exp)),
        Ok(Command::List) => print!("{}", experiments::list()),
        Ok(Command::Run(exp, knobs)) => return run(exp, &knobs),
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// Applies the common knobs, runs the experiment, then writes the
/// `--obs-json` file: an unwritable path (missing or non-directory
/// parent, permission, ...) or a refused tracked target is a clean
/// diagnostic and exit code 1 — never a panic, and never a silent
/// success with the file missing.
fn run(exp: &Experiment, knobs: &Knobs) -> ExitCode {
    if let Some(threads) = knobs.threads {
        exec::set_threads(threads);
    }
    if let Some(trials) = knobs.trials {
        runner::set_trials(trials);
    }
    if let Some(seed) = knobs.seed {
        exec::set_master_seed(seed);
    }
    if let Some(path) = &knobs.obs_json {
        obs::set_output(path);
    }
    let code = exp.run(knobs);
    match obs::try_finish() {
        Ok(Some(path)) => eprintln!("wrote observations to {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: failed to write observations: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

const USAGE: &str = "\
usage: exp <name> [--obs-json PATH]
       exp list
";

fn help(exp: Option<&Experiment>) -> String {
    let mut out = String::from(USAGE);
    match exp {
        Some(e) => out.push_str(&format!("\n{} ({}): {}\n", e.name, e.index, e.about)),
        None => out.push_str(&format!("\nExperiments:\n{}", experiments::list())),
    }
    out.push_str(
        "\nOptions:\n  --obs-json PATH  write merged trial observations as JSON\n  \
         -h, --help       print this help\n\nEnvironment (a malformed value exits 2):\n",
    );
    out.push_str(ENV_KNOBS);
    out
}

/// Parses `args` (without the program name) and, for a run, every
/// variable of [`ENV_KNOBS`] through `env`.
fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Command, String> {
    let unusable = |problem: String| format!("{problem}\n{USAGE}\n{}", experiments::list());
    let Some((name, flags)) = args.split_first() else {
        return Err(unusable("no experiment named".into()));
    };
    let exp = match name.as_str() {
        "-h" | "--help" => return Ok(Command::Help(None)),
        "list" if flags.is_empty() => return Ok(Command::List),
        name => experiments::find(name)
            .ok_or_else(|| unusable(format!("unknown experiment {name:?}")))?,
    };
    let mut obs_json = None;
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "-h" | "--help" => return Ok(Command::Help(Some(exp))),
            "--obs-json" => {
                let path = flags
                    .next()
                    .ok_or_else(|| format!("--obs-json requires a value\n{USAGE}"))?;
                obs_json = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    let knobs = Knobs::from_env(Env(env), obs_json)?;
    Ok(Command::Run(exp, Box::new(knobs)))
}

/// Typed reads over an environment lookup.
struct Env<F>(F);

impl<F: Fn(&str) -> Option<String>> Env<F> {
    /// An unsigned integer, nonzero if `positive`.
    fn number<T: TryFrom<u64>>(&self, name: &str, positive: bool) -> Result<Option<T>, String> {
        let Some(text) = (self.0)(name) else {
            return Ok(None);
        };
        text.parse::<u64>()
            .ok()
            .filter(|&x| x > 0 || !positive)
            .and_then(|x| T::try_from(x).ok())
            .map(Some)
            .ok_or_else(|| {
                let what = if positive {
                    "a positive"
                } else {
                    "an unsigned"
                };
                format!("{name} must be {what} integer, got {text:?}")
            })
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        (self.0)(name).filter(|p| !p.is_empty()).map(PathBuf::from)
    }

    fn switch(&self, name: &str) -> bool {
        (self.0)(name).is_some_and(|v| v != "0")
    }
}

impl Knobs {
    fn from_env<F: Fn(&str) -> Option<String>>(
        env: Env<F>,
        obs_json: Option<PathBuf>,
    ) -> Result<Knobs, String> {
        let extended = env.switch("SIFT_FUZZ_EXTENDED");
        let fuzz = FuzzConfig::default();
        let soak = SoakConfig::default();
        Ok(Knobs {
            threads: env.number("SIFT_THREADS", true)?,
            trials: env.number("SIFT_TRIALS", true)?,
            seed: env.number("SIFT_SEED", false)?,
            obs_json,
            adversary_json: env.path("SIFT_ADVERSARY_JSON"),
            fuzz: FuzzConfig {
                n: env.number("SIFT_FUZZ_N", true)?.unwrap_or(fuzz.n),
                generations: env
                    .number("SIFT_FUZZ_GENERATIONS", true)?
                    .unwrap_or(fuzz.generations),
                population: env
                    .number("SIFT_FUZZ_POPULATION", true)?
                    .unwrap_or(fuzz.population),
                extended,
                ..fuzz
            },
            fuzz_out: env.path("SIFT_FUZZ_OUT"),
            soak: SoakConfig {
                windows: env
                    .number("SIFT_SOAK_WINDOWS", true)?
                    .unwrap_or(soak.windows),
                width: env.number("SIFT_SOAK_WIDTH", true)?.unwrap_or(soak.width),
                extended,
                ..soak
            },
            soak_secs: env.number("SIFT_SOAK_SECS", false)?.unwrap_or(0),
            soak_json: env.path("SIFT_SOAK_JSON"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_with(args: &[&str], env: &[(&str, &str)]) -> Result<Command, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&args, |name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    fn knobs(env: &[(&str, &str)]) -> Knobs {
        match parse_with(&["steps"], env) {
            Ok(Command::Run(_, knobs)) => *knobs,
            other => panic!("expected a run, got {other:?}"),
        }
    }

    #[test]
    fn unset_knobs_are_the_config_defaults() {
        let k = knobs(&[]);
        assert_eq!((k.threads, k.trials, k.seed), (None, None, None));
        let fuzz = FuzzConfig::default();
        assert_eq!((k.fuzz.n, k.fuzz.generations), (fuzz.n, fuzz.generations));
        assert_eq!(
            (k.fuzz.population, k.fuzz.seed),
            (fuzz.population, fuzz.seed)
        );
        let soak = SoakConfig::default();
        assert_eq!((k.soak.windows, k.soak.width), (soak.windows, soak.width));
        assert_eq!(
            (k.soak.seed, k.soak.crashes, k.soak_secs),
            (soak.seed, true, 0)
        );
        assert!(!k.fuzz.extended && !k.soak.extended);
    }

    #[test]
    fn set_knobs_land_in_their_configs() {
        let k = knobs(&[
            ("SIFT_THREADS", "3"),
            ("SIFT_TRIALS", "20"),
            ("SIFT_SEED", "9"),
            ("SIFT_FUZZ_N", "5"),
            ("SIFT_FUZZ_EXTENDED", "1"),
            ("SIFT_SOAK_SECS", "30"),
            ("SIFT_SOAK_JSON", "t.json"),
            ("SIFT_ADVERSARY_JSON", ""),
        ]);
        assert_eq!((k.threads, k.trials, k.seed), (Some(3), Some(20), Some(9)));
        assert_eq!(k.fuzz.n, 5);
        assert!(k.fuzz.extended && k.soak.extended);
        assert_eq!(k.soak_secs, 30);
        assert_eq!(k.soak_json, Some(PathBuf::from("t.json")));
        assert_eq!(k.adversary_json, None, "an empty path is unset");
    }

    #[test]
    fn flags_follow_the_name() {
        match parse_with(&["steps", "--obs-json", "o.json"], &[]) {
            Ok(Command::Run(exp, knobs)) => {
                assert_eq!(exp.name, "steps");
                assert_eq!(knobs.obs_json, Some(PathBuf::from("o.json")));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_with(&["fuzz", "-h"], &[]),
            Ok(Command::Help(Some(e))) if e.name == "fuzz"
        ));
        assert!(matches!(
            parse_with(&["--help"], &[]),
            Ok(Command::Help(None))
        ));
        assert!(matches!(parse_with(&["list"], &[]), Ok(Command::List)));
    }

    #[test]
    fn errors_name_what_was_wrong() {
        let err = |args: &[&str], env: &[(&str, &str)]| parse_with(args, env).unwrap_err();
        assert!(err(&[], &[]).contains("survivors"), "the list is printed");
        assert!(err(&["exp_steps"], &[]).contains("\"exp_steps\""));
        assert!(err(&["steps", "--trials", "3"], &[]).contains("\"--trials\""));
        assert!(err(&["steps", "--obs-json"], &[]).contains("requires a value"));
        let malformed = err(&["steps"], &[("SIFT_FUZZ_N", "0")]);
        assert!(malformed.contains("SIFT_FUZZ_N") && malformed.contains("\"0\""));
        // Help never depends on the environment being well-formed.
        assert!(parse_with(&["steps", "--help"], &[("SIFT_TRIALS", "x")]).is_ok());
    }

    #[test]
    fn help_documents_every_knob() {
        let text = help(None);
        assert_eq!(env_knob_names().count(), 13);
        assert!(env_knob_names().all(|name| name.starts_with("SIFT_")));
        assert!(text.contains(ENV_KNOBS) && text.contains(&experiments::list()));
    }
}
