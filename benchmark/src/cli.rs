//! Command-line arguments shared by `ledger` and `ledger-traced`.

use std::path::PathBuf;

use crate::workloads::Workload;

/// The workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5EED;
/// The measuring time when `--seconds` is not given; `BENCHMARK.json`
/// freezes the same number as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 24.0;

/// Arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// `--workload`
    pub workload: Workload,
    /// `--seed` (decimal or `0x` hex)
    pub seed: u64,
    /// `--seconds`: measuring time, shared by the two phases.
    pub seconds: f64,
    /// `--scale`: multiplier on every frozen size (1 in measured runs).
    pub scale: f64,
    /// `--trace 1` was passed. Each binary serves one value of it and
    /// refuses the other, so a wrapper cannot mix them up silently.
    pub trace: bool,
    /// `--out`: where to write the full record.
    pub out: Option<PathBuf>,
}

/// Parses a seed: decimal, or hexadecimal with a `0x` prefix.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed: '{text}' is not a 64-bit number"))
}

fn positive(flag: &str, text: &str, max: f64) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(value) if value > 0.0 && value <= max => Ok(value),
        _ => Err(format!("{flag}: '{text}' is not a number in (0, {max}]")),
    }
}

/// Parses `--workload W [--seed N] [--seconds S] [--scale F] [--trace 0|1]
/// [--out FILE]`.
///
/// # Errors
///
/// A message naming the offending flag.
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: Workload::ColdSingle,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        scale: 1.0,
        trace: false,
        out: None,
    };
    let mut workload = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("--workload: unknown '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => run.seed = parse_seed(value()?)?,
            // The contract caps a run at 60 s.
            "--seconds" => run.seconds = positive("--seconds", value()?, 60.0)?,
            "--scale" => run.scale = positive("--scale", value()?, 4.0)?,
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: '{other}' is not 0 or 1")),
                }
            }
            "--out" => run.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_invocation() {
        let run = parse_run(&args(
            "--workload hot-zipf --seed 17 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(run.workload, Workload::HotZipf);
        assert_eq!((run.seed, run.seconds, run.trace), (17, 10.0, true));
        assert_eq!(run.scale, 1.0);
    }

    #[test]
    fn seeds_read_as_decimal_or_hex() {
        assert_eq!(parse_seed("0x5EED"), Ok(0x5EED));
        assert_eq!(parse_seed("24301"), Ok(24301));
        assert!(parse_seed("seed").is_err());
        assert!(parse_seed("-1").is_err());
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        for bad in [
            "",
            "--workload warm",
            "--workload hot-zipf --seconds 0",
            "--workload hot-zipf --seconds 600",
            "--workload hot-zipf --trace 2",
            "--workload hot-zipf --seed",
            "--workload hot-zipf --fast",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?} should be refused");
        }
    }
}
