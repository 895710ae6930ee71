//! The experiment binary: `exp <name>`, `exp all`, `exp list`. The
//! experiments are `sift_bench::experiments::REGISTRY`; the command
//! line and every `SIFT_*` knob are `sift_bench::cli`.
fn main() -> std::process::ExitCode {
    sift_bench::cli::main()
}
