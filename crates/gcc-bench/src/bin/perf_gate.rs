//! `perf_gate` — the CI perf-regression gate.
//!
//! Two independent checks, either or both per invocation:
//!
//! * **Frame gate** (`--baseline` + `--current`): compares a freshly
//!   produced `BENCH_frame.json` against the committed
//!   `ci/bench_baseline.json` cell-by-cell and fails when any
//!   `(scene, scale, engine, parallelism)` cell slowed down beyond the
//!   tolerance, when baseline coverage is missing from the current
//!   run, or when any of the current record's `fixed2` cells is more
//!   than 10 % slower than the `sequential` cell beside it. The
//!   sequential Gaussian-wise ÷ standard ratio of each scene is printed
//!   and decides nothing.
//! * **Serve gate** (`--serve`): checks a `bench_serve/v3` record —
//!   committed or freshly measured — on its own contracts. The record
//!   must carry its `batched_lru` numbers and its own serve-vs-direct
//!   parity pass must have succeeded. Throughput and Interactive p95 are
//!   held to a reference where a reference exists: a full-mode
//!   `bench_serve` run compares itself with the committed record before
//!   it replaces it (`gcc_bench::perf_gate::replace_serve_record`).
//!   `speedup_vs_naive` is printed and not gated: it is a ratio to a
//!   strawman that gets faster whenever a scene load does. A record
//!   produced with `bench_serve --chaos` carries a `"chaos"` object, and
//!   the gate additionally requires its fault storm to have resolved
//!   cleanly: `all_resolved` and zero lost workers. Likewise a record
//!   produced with `bench_serve --lod` carries a `"lod"` object, and the
//!   gate requires the deadline-degradation contract: the quality-ladder
//!   run missed zero deadlines where the exact run missed at least one,
//!   every frame was delivered, and every rung met its documented
//!   PSNR/SSIM floor; and one produced with `--wire` a `"wire"` object:
//!   at least two shards, every request resolved, frame parity held.
//!
//! The comparison logic itself lives in `gcc_bench::perf_gate`, where
//! unit tests pin that an inflated timing record, a collapsed serve
//! throughput and a blown-up Interactive p95 each fail the gate.
//!
//! ```text
//! cargo run --release -p gcc-bench --bin perf_gate -- \
//!     --baseline ci/bench_baseline.json --current BENCH_gate.json \
//!     [--tolerance 0.25] [--serve BENCH_serve.json]
//! ```
//!
//! Refreshing the baseline (documented in README "Perf gate"): rerun
//! `bench_frame --smoke` on the reference machine class and copy the
//! record over `ci/bench_baseline.json` in the same PR that explains the
//! intentional change.

use gcc_bench::perf_gate::{check_serve_record, compare, SERVE_TOLERANCE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut serve_path = None;
    let mut tolerance = 0.25f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline_path = Some(it.next().expect("--baseline needs a path").clone())
            }
            "--current" => current_path = Some(it.next().expect("--current needs a path").clone()),
            "--serve" => serve_path = Some(it.next().expect("--serve needs a path").clone()),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance needs a number");
            }
            other => {
                eprintln!(
                    "unknown flag {other} (expected --baseline, --current, --tolerance, \
                     --serve)"
                );
                std::process::exit(2);
            }
        }
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

    let mut failed = false;
    if frame_gate {
        let (Some(baseline_path), Some(current_path)) = (baseline_path, current_path) else {
            eprintln!("perf_gate: the frame gate needs both --baseline and --current");
            std::process::exit(2);
        };
        let report = match compare(&read(&baseline_path), &read(&current_path), tolerance) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perf_gate: {e}");
                std::process::exit(2);
            }
        };
        print!("{}", report.render());
        if !report.passed() {
            eprintln!(
                "perf_gate: regression beyond +{:.0}% against {baseline_path}, lost \
                 coverage, or a cell slower on two threads than on one — if the first \
                 is intentional, refresh the baseline (see README \"Perf gate\")",
                tolerance * 100.0
            );
            failed = true;
        }
    }
    if let Some(serve_path) = serve_path {
        let report = match check_serve_record(&read(&serve_path), None, SERVE_TOLERANCE) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perf_gate: serve record {serve_path}: {e}");
                std::process::exit(2);
            }
        };
        print!("{}", report.render());
        if !report.passed() {
            eprintln!(
                "perf_gate: serve gate not held by {serve_path} — refresh the record (see \
                 README \"Serving layer\")"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
