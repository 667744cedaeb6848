//! `perf_gate` — the CI perf-regression gate: the checks of
//! `gcc_bench::perf_gate` on a fresh `bench_frame` record against the
//! committed baseline (`--baseline` + `--current`), on a `bench_serve`
//! record alone (`--serve`), or both in one report. The rules, and how
//! to refresh a record on purpose, are in `ci/README.md`.
//!
//! ```text
//! cargo run --release -p gcc-bench --bin perf_gate -- \
//!     --baseline ci/bench_baseline.json --current BENCH_gate.json \
//!     [--serve BENCH_serve.json]
//! ```
//!
//! Exit code 0: every rule held; 1: a rule failed; 2: a record could not
//! be read or checked, or the command line is wrong.

use gcc_bench::perf_gate::{check_serve_record, compare, Report, FRAME_TOLERANCE, SERVE_TOLERANCE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut serve_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let slot = match a.as_str() {
            "--baseline" => &mut baseline_path,
            "--current" => &mut current_path,
            "--serve" => &mut serve_path,
            other => {
                eprintln!("unknown flag {other} (expected --baseline, --current, --serve)");
                std::process::exit(2);
            }
        };
        let Some(path) = it.next() else {
            eprintln!("perf_gate: {a} needs a path");
            std::process::exit(2);
        };
        *slot = Some(path.clone());
    }
    let frame_gate = baseline_path.is_some() || current_path.is_some();
    if !frame_gate && serve_path.is_none() {
        eprintln!("perf_gate: nothing to do (pass --baseline/--current and/or --serve)");
        std::process::exit(2);
    }

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perf_gate: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let or_exit = |checked: Result<Report, String>, what: &str| {
        checked.unwrap_or_else(|e| {
            eprintln!("perf_gate: {what}: {e}");
            std::process::exit(2);
        })
    };

    let mut report = Report::default();
    if frame_gate {
        let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
            eprintln!("perf_gate: the frame gate needs both --baseline and --current");
            std::process::exit(2);
        };
        let checked = compare(&read(&baseline_path), &read(&current_path), FRAME_TOLERANCE);
        report
            .checks
            .extend(or_exit(checked, "frame records").checks);
    }
    if let Some(serve_path) = serve_path {
        let checked = check_serve_record(&read(&serve_path), None, SERVE_TOLERANCE);
        report.checks.extend(or_exit(checked, &serve_path).checks);
    }
    print!("{}", report.render());
    if !report.passed() {
        eprintln!(
            "perf_gate: a rule failed — the rules, and how to refresh a record on purpose, \
             are in ci/README.md"
        );
        std::process::exit(1);
    }
}
