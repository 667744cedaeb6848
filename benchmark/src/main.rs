//! `benchmark` — see `README.md` and `--help`.

fn main() -> std::process::ExitCode {
    gcc_benchmark::cli::main()
}
