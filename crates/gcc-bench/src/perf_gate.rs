//! The `bench_frame/v1` record and the CI perf gate over it. This module
//! owns the schema: [`write_record`] writes it and [`parse_bench_cells`]
//! reads it. The gate is one list of checks: a record is checked against
//! the committed baseline and against itself. Every rule reads the record
//! and returns one [`Check`]; a gate's [`Report`] is the list of them.
//! The rules, one line each with its reason, are in `ci/README.md`.
//!
//! `bench_frame --baseline` runs [`compare`] on the record it has just
//! written, so the code CI runs is the code the unit tests pin.

use gcc_scene::json::{self, Value};

/// How much slower than its baseline cell a frame cell may be (0.25 =
/// fail beyond +25 %).
pub const FRAME_TOLERANCE: f64 = 0.25;

/// How much slower than its `sequential` cell a `fixed2` cell may be
/// (run-to-run noise on cells that gain nothing from the second thread
/// sits within ±3 %).
pub const BORROW_TOLERANCE: f64 = 1.10;

/// How one check came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The rule held.
    Held,
    /// The rule did not hold: the gate fails.
    Failed,
    /// Printed for the reader; no rule.
    Reported,
}

/// One rule applied to one record.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked: a cell key, or a pair of cells such as
    /// `Lego@0.5/build_hierarchy fixed2 / sequential`.
    pub what: String,
    /// How it came out.
    pub status: Status,
    /// The printed line; a failed check's ends in its marker word.
    pub line: String,
}

impl Check {
    /// A rule on `what`: `detail` is what the record says, `marker` ends
    /// the line when the rule does not hold.
    fn new(what: impl Into<String>, held: bool, detail: String, marker: &str) -> Self {
        let what = what.into();
        let (status, line) = if held {
            (Status::Held, format!("{what}: {detail}"))
        } else {
            (Status::Failed, format!("{what}: {detail}  {marker}"))
        };
        Check { what, status, line }
    }

    /// A line printed for the reader, which decides nothing.
    fn reported(what: impl Into<String>, detail: String) -> Self {
        Check {
            status: Status::Reported,
            ..Check::new(what, true, detail, "")
        }
    }
}

/// A gate's outcome: its checks, in the order they were made.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every check of the gate.
    pub checks: Vec<Check>,
}

impl Report {
    /// `true` unless a check failed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.status != Status::Failed)
    }

    /// One line per check, the failed ones last — right above the
    /// verdict, where a CI log reader looks first.
    pub fn render(&self) -> String {
        let (failed, rest): (Vec<&Check>, Vec<&Check>) =
            self.checks.iter().partition(|c| c.status == Status::Failed);
        let mut out = String::new();
        for check in rest.iter().chain(&failed) {
            out.push_str(&check.line);
            out.push('\n');
        }
        let rules = self
            .checks
            .iter()
            .filter(|c| c.status != Status::Reported)
            .count();
        out.push_str(&match failed.len() {
            0 => format!("gate: PASS (rules held: {rules} of {rules})\n"),
            n => format!("gate: FAIL (rules failed: {n} of {rules})\n"),
        });
        out
    }
}

/// One measured cell of a `bench_frame` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Scene name.
    pub scene: String,
    /// Scene count scale.
    pub scale: f32,
    /// Engine id.
    pub engine: String,
    /// Parallelism label (`sequential` / `fixed2` / `auto`).
    pub parallelism: String,
    /// Measured milliseconds per frame.
    pub ms_per_frame: f64,
}

impl BenchCell {
    /// Stable identity of the cell across runs.
    pub fn key(&self) -> String {
        format!(
            "{}@{}/{}/{}",
            self.scene, self.scale, self.engine, self.parallelism
        )
    }
}

/// One measured row of a `bench_frame/v1` record: the cell it times, the
/// size of its scene's frame and cloud, and the threads that ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// What was measured, and how long it took.
    pub cell: BenchCell,
    /// Gaussians in the scene.
    pub gaussians: usize,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Threads the cell ran on.
    pub threads: usize,
}

/// Writes a `bench_frame/v1` record: whether it is a smoke run, the timed
/// repetitions per cell, the host's thread count and the SIMD backend
/// that ran, then one line per row with `ms_per_frame` to 4 decimals.
pub fn write_record(
    smoke: bool,
    reps: usize,
    host_threads: usize,
    backend: &str,
    rows: &[BenchRow],
) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"bench_frame/v1\",\n  \"smoke\": {smoke},\n  \"reps\": {reps},\n  \
         \"host_threads\": {host_threads},\n  \"backend\": \"{backend}\",\n  \"results\": [\n"
    );
    for (i, row) in rows.iter().enumerate() {
        let c = &row.cell;
        out.push_str(&format!(
            "    {{\"scene\": \"{}\", \"scale\": {}, \"gaussians\": {}, \"width\": {}, \"height\": {}, \"engine\": \"{}\", \"parallelism\": \"{}\", \"threads\": {}, \"ms_per_frame\": {:.4}}}{}\n",
            c.scene,
            c.scale,
            row.gaussians,
            row.width,
            row.height,
            c.engine,
            c.parallelism,
            row.threads,
            c.ms_per_frame,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses the `bench_frame/v1` schema into its cells.
///
/// # Errors
///
/// Returns a message for malformed JSON or a record missing required
/// fields.
pub fn parse_bench_cells(text: &str) -> Result<Vec<BenchCell>, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing 'schema'")?;
    if schema != "bench_frame/v1" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    let results = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("missing 'results' array")?;
    let mut cells = Vec::with_capacity(results.len());
    for (i, r) in results.iter().enumerate() {
        let str_field = |k: &str| -> Result<String, String> {
            r.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("result {i}: missing string '{k}'"))
        };
        let num_field = |k: &str| -> Result<f32, String> {
            r.get(k)
                .and_then(Value::as_f32)
                .ok_or(format!("result {i}: missing number '{k}'"))
        };
        let cell = BenchCell {
            scene: str_field("scene")?,
            scale: num_field("scale")?,
            engine: str_field("engine")?,
            parallelism: str_field("parallelism")?,
            ms_per_frame: f64::from(num_field("ms_per_frame")?),
        };
        if !(cell.ms_per_frame.is_finite() && cell.ms_per_frame > 0.0) {
            return Err(format!(
                "result {i}: non-positive ms_per_frame {}",
                cell.ms_per_frame
            ));
        }
        cells.push(cell);
    }
    if cells.is_empty() {
        return Err("empty 'results' array".into());
    }
    Ok(cells)
}

/// The per-cell frame comparison: the current run's cell of `baseline`'s
/// key must exist and may be at most `tolerance` (0.25 = 25 %) slower.
fn cell_check(baseline: &BenchCell, current: &[BenchCell], tolerance: f64) -> Check {
    let key = baseline.key();
    let Some(cell) = current.iter().find(|c| c.key() == key) else {
        return Check::new(
            key,
            false,
            "not measured".into(),
            "MISSING from current run",
        );
    };
    let (now, then) = (cell.ms_per_frame, baseline.ms_per_frame);
    let ratio = now / then;
    let detail = format!(
        "{now:.4} vs reference {then:.4} ({:+.1}%, {:.0}% tolerated)",
        (ratio - 1.0) * 100.0,
        tolerance * 100.0
    );
    Check::new(key, ratio <= 1.0 + tolerance, detail, "REGRESSION")
}

/// The `fixed2 ÷ sequential` pair of one scene and engine: a second
/// thread may cost at most [`BORROW_TOLERANCE`].
fn borrowed_core(sequential: &BenchCell, fixed2: &BenchCell) -> Check {
    let ratio = fixed2.ms_per_frame / sequential.ms_per_frame;
    Check::new(
        format!(
            "{}@{}/{} fixed2 / sequential",
            sequential.scene, sequential.scale, sequential.engine
        ),
        ratio <= BORROW_TOLERANCE,
        format!(
            "{:.4} / {:.4} ms = {ratio:.2}",
            fixed2.ms_per_frame, sequential.ms_per_frame
        ),
        "SLOWER on a borrowed core",
    )
}

/// The checks a `bench_frame` record makes of itself, in record order:
/// per scene, the sequential Gaussian-wise frame over the standard one
/// (reported), then per scene and engine the `fixed2 ÷ sequential` pair.
pub fn within_record(cells: &[BenchCell]) -> Vec<Check> {
    let find = |like: &BenchCell, engine: &str, parallelism: &str| {
        cells.iter().find(|c| {
            c.engine == engine
                && c.parallelism == parallelism
                && c.scene == like.scene
                && c.scale == like.scale
        })
    };
    let sequential = cells.iter().filter(|c| c.parallelism == "sequential");
    let orderings = sequential
        .clone()
        .filter(|s| s.engine == "standard_frame_engine")
        .filter_map(|s| {
            let g = find(s, "gaussian_wise_frame_engine", "sequential")?;
            let ratio = g.ms_per_frame / s.ms_per_frame;
            Some(Check::reported(
                format!(
                    "{}@{} gaussian_wise / standard (sequential)",
                    s.scene, s.scale
                ),
                format!(
                    "{:.4} / {:.4} ms = {ratio:.2}{}",
                    g.ms_per_frame,
                    s.ms_per_frame,
                    if ratio > 1.0 {
                        "  slower than standard (reported, not gated)"
                    } else {
                        ""
                    }
                ),
            ))
        });
    let borrowed = sequential.filter_map(|s| Some(borrowed_core(s, find(s, &s.engine, "fixed2")?)));
    orderings.chain(borrowed).collect()
}

/// Checks a `bench_frame` record against the baseline record, cell by
/// cell, then against itself ([`within_record`]). Cells new in the
/// current record are reported.
///
/// # Errors
///
/// Propagates parse errors from either record and rejects a non-finite
/// or negative tolerance.
pub fn compare(baseline_text: &str, current_text: &str, tolerance: f64) -> Result<Report, String> {
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!("invalid tolerance {tolerance}"));
    }
    let baseline = parse_bench_cells(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let current = parse_bench_cells(current_text).map_err(|e| format!("current: {e}"))?;
    let mut checks: Vec<Check> = baseline
        .iter()
        .map(|b| cell_check(b, &current, tolerance))
        .collect();
    checks.extend(
        current
            .iter()
            .filter(|c| !baseline.iter().any(|b| b.key() == c.key()))
            .map(|c| Check::reported(c.key(), "new (not in baseline)".into())),
    );
    checks.extend(within_record(&current));
    Ok(Report { checks })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the failed checks of `report` checked.
    fn failed(report: &Report) -> Vec<&str> {
        report
            .checks
            .iter()
            .filter(|c| c.status == Status::Failed)
            .map(|c| c.what.as_str())
            .collect()
    }

    /// The line of the check of `what`.
    fn line<'a>(report: &'a Report, what: &str) -> &'a str {
        &report
            .checks
            .iter()
            .find(|c| c.what == what)
            .unwrap_or_else(|| panic!("no check of {what}:\n{}", report.render()))
            .line
    }

    /// What the checks of `report` whose `what` ends in `suffix` checked.
    fn checked<'a>(report: &'a Report, suffix: &str) -> Vec<&'a str> {
        report
            .checks
            .iter()
            .map(|c| c.what.as_str())
            .filter(|w| w.ends_with(suffix))
            .collect()
    }

    fn record(cells: &[(&str, f32, &str, &str, f64)]) -> String {
        let mut out = String::from(
            "{\"schema\": \"bench_frame/v1\", \"smoke\": true, \"reps\": 1, \
             \"host_threads\": 1, \"results\": [\n",
        );
        for (i, (scene, scale, engine, par, ms)) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{{\"scene\": \"{scene}\", \"scale\": {scale}, \"gaussians\": 10, \
                 \"width\": 8, \"height\": 8, \"engine\": \"{engine}\", \
                 \"parallelism\": \"{par}\", \"threads\": 1, \"ms_per_frame\": {ms}}}{}",
                if i + 1 == cells.len() { "\n" } else { ",\n" }
            ));
        }
        out.push_str("]}");
        out
    }

    fn baseline() -> String {
        record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 10.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
            (
                "Train",
                0.02,
                "gaussian_wise_frame_engine",
                "sequential",
                20.0,
            ),
        ])
    }

    #[test]
    fn identical_records_pass() {
        let report = compare(&baseline(), &baseline(), 0.25).unwrap();
        assert!(report.passed());
        assert_eq!(report.checks.len(), 3, "one check per baseline cell");
        assert!(report.checks.iter().all(|c| c.status == Status::Held));
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn inflated_timing_fails_the_gate_and_names_the_cell() {
        // The acceptance check: an artificially inflated record must trip
        // the gate.
        let current = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 10.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
            (
                "Train",
                0.02,
                "gaussian_wise_frame_engine",
                "sequential",
                31.0,
            ),
        ]);
        let report = compare(&baseline(), &current, 0.25).unwrap();
        assert!(!report.passed());
        let cell = "Train@0.02/gaussian_wise_frame_engine/sequential";
        assert_eq!(failed(&report), [cell]);
        assert!(line(&report, cell).ends_with("(+55.0%, 25% tolerated)  REGRESSION"));
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn failure_summary_names_each_regressed_cell_with_both_timings() {
        let current = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 26.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
            (
                "Train",
                0.02,
                "gaussian_wise_frame_engine",
                "sequential",
                31.0,
            ),
        ]);
        let report = compare(&baseline(), &current, 0.25).unwrap();
        // Current and baseline side by side with the percent delta, the
        // failed lines last, right above the verdict.
        let rendered = report.render();
        let tail: Vec<&str> = rendered.lines().rev().take(3).collect();
        assert_eq!(
            tail,
            [
                "gate: FAIL (rules failed: 2 of 3)",
                "Train@0.02/gaussian_wise_frame_engine/sequential: \
                 31.0000 vs reference 20.0000 (+55.0%, 25% tolerated)  REGRESSION",
                "Lego@0.05/standard_frame_engine/sequential: \
                 26.0000 vs reference 10.0000 (+160.0%, 25% tolerated)  REGRESSION",
            ]
        );
        // A clean run fails nothing.
        assert!(failed(&compare(&baseline(), &baseline(), 0.25).unwrap()).is_empty());
    }

    #[test]
    fn gaussian_wise_slower_than_standard_is_reported_and_does_not_fail_the_gate() {
        // Every cell within tolerance of its baseline: the within-run
        // ordering of the schedules is printed either way and decides
        // nothing.
        let both = |gaussian_wise_ms| {
            record(&[
                ("Lego", 0.05, "standard_frame_engine", "sequential", 3.0),
                ("Lego", 0.05, "standard_frame_engine", "fixed2", 2.0),
                (
                    "Lego",
                    0.05,
                    "gaussian_wise_frame_engine",
                    "sequential",
                    gaussian_wise_ms,
                ),
                // Not a sequential cell: no part of the ratio.
                ("Lego", 0.05, "gaussian_wise_frame_engine", "fixed2", 2.6),
                ("Train", 0.02, "standard_frame_engine", "sequential", 4.0),
            ])
        };
        let ordering = "Lego@0.05 gaussian_wise / standard (sequential)";
        let report = compare(&both(2.7), &both(2.9), 0.25).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(
            checked(&report, "(sequential)"),
            [ordering],
            "Train has one schedule only"
        );
        assert!(line(&report, ordering).ends_with("2.9000 / 3.0000 ms = 0.97"));
        assert!(!report.render().contains("slower than standard"));

        let report = compare(&both(2.7), &both(3.3), 0.25).unwrap();
        assert!(report.passed(), "{}", report.render());
        let ordering_line = line(&report, ordering);
        assert!(ordering_line.ends_with("= 1.10  slower than standard (reported, not gated)"));
        assert!(report
            .checks
            .iter()
            .all(|c| c.what != ordering || c.status == Status::Reported));
        assert!(report.render().contains("PASS"));

        // What does hold the schedule: its own cell against the baseline.
        // A Gaussian-wise frame 30 % slower than its record fails, however
        // it compares with the standard frame beside it.
        let report = compare(&both(2.0), &both(2.6), 0.25).unwrap();
        assert!(line(&report, ordering).ends_with("= 0.87"));
        assert!(!report.passed());
        let cell = "Lego@0.05/gaussian_wise_frame_engine/sequential";
        assert_eq!(failed(&report), [cell]);
        assert_eq!(
            line(&report, cell),
            "Lego@0.05/gaussian_wise_frame_engine/sequential: \
             2.6000 vs reference 2.0000 (+30.0%, 25% tolerated)  REGRESSION"
        );
    }

    #[test]
    fn a_cell_slower_on_two_threads_fails_the_gate_within_one_record() {
        // Every cell within tolerance of its baseline: only the two-thread
        // cell of the hierarchy build against its own one-thread cell can
        // fail this.
        let with = |fixed2_ms| {
            record(&[
                ("Lego", 0.5, "standard_frame_engine", "sequential", 26.0),
                ("Lego", 0.5, "standard_frame_engine", "fixed2", 15.0),
                (
                    "Lego",
                    0.5,
                    "gaussian_wise_frame_engine",
                    "sequential",
                    18.0,
                ),
                ("Lego", 0.5, "gaussian_wise_frame_engine", "fixed2", 18.2),
                ("Lego", 0.5, "load_json", "sequential", 44.0),
                ("Lego", 0.5, "build_hierarchy", "sequential", 6.1),
                ("Lego", 0.5, "build_hierarchy", "fixed2", fixed2_ms),
                // Another scene's cell pairs with nothing here.
                ("Train", 0.2, "build_hierarchy", "fixed2", 9.0),
            ])
        };
        let report = compare(&with(6.4), &with(6.6), 0.25).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(
            checked(&report, "fixed2 / sequential"),
            [
                "Lego@0.5/standard_frame_engine fixed2 / sequential",
                "Lego@0.5/gaussian_wise_frame_engine fixed2 / sequential",
                "Lego@0.5/build_hierarchy fixed2 / sequential"
            ]
        );
        // The parent's builder: 8.0 ms on two threads against 6.1 on one.
        let report = compare(&with(6.6), &with(8.0), 0.25).unwrap();
        assert!(!report.passed());
        assert_eq!(
            failed(&report),
            ["Lego@0.5/build_hierarchy fixed2 / sequential"]
        );
        let rendered = report.render();
        assert!(rendered.contains("SLOWER on a borrowed core"));
        assert!(rendered.contains("FAIL"));
    }

    #[test]
    fn a_cold_load_slower_on_a_lent_core_fails_the_gate_within_one_record() {
        // The two scene sources that load on the lent threads, beside one
        // that has no use for them and so carries no `fixed2` cell.
        let with = |build2_ms, json2_ms| {
            record(&[
                ("Lego", 0.5, "build_preset", "sequential", 14.4),
                ("Lego", 0.5, "build_preset", "fixed2", build2_ms),
                ("Lego", 0.5, "load_json", "sequential", 19.0),
                ("Lego", 0.5, "load_json", "fixed2", json2_ms),
                ("Lego", 0.5, "load_binary", "sequential", 0.7),
            ])
        };
        let good = with(8.8, 12.4);
        let report = compare(&good, &good, 0.25).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(
            checked(&report, "fixed2 / sequential"),
            [
                "Lego@0.5/build_preset fixed2 / sequential",
                "Lego@0.5/load_json fixed2 / sequential"
            ]
        );
        // A scout that cannot keep its fillers fed, a span walk that costs
        // what it saves: each within 25 % of a baseline that already had
        // it (so no cell regressed), and each caught by its own pair.
        for (bad, pair) in [
            (
                with(16.2, 12.4),
                "Lego@0.5/build_preset fixed2 / sequential",
            ),
            (with(8.8, 21.5), "Lego@0.5/load_json fixed2 / sequential"),
        ] {
            let report = compare(&bad, &bad, 0.25).unwrap();
            assert_eq!(failed(&report), [pair]);
            assert!(line(&report, pair).ends_with("SLOWER on a borrowed core"));
        }
        // Up to the tolerance a lent core may cost: 10 %.
        let edge = with(15.8, 20.9);
        assert!(compare(&edge, &edge, 0.25).unwrap().passed());
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let current = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 12.4),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.9),
            (
                "Train",
                0.02,
                "gaussian_wise_frame_engine",
                "sequential",
                24.9,
            ),
        ]);
        assert!(compare(&baseline(), &current, 0.25).unwrap().passed());
        // The same run fails under a tighter tolerance.
        assert!(!compare(&baseline(), &current, 0.10).unwrap().passed());
    }

    #[test]
    fn speedups_always_pass() {
        let current = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 1.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 0.4),
            (
                "Train",
                0.02,
                "gaussian_wise_frame_engine",
                "sequential",
                2.0,
            ),
        ]);
        let report = compare(&baseline(), &current, 0.0).unwrap();
        assert!(report.passed());
        assert!(report.checks.iter().all(|c| c.line.contains("(-90.0%")));
    }

    #[test]
    fn missing_baseline_cell_fails_new_cell_does_not() {
        let current = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 10.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
        ]);
        let report = compare(&baseline(), &current, 0.25).unwrap();
        assert!(!report.passed());
        let lost = "Train@0.02/gaussian_wise_frame_engine/sequential";
        assert_eq!(failed(&report), [lost]);
        assert!(line(&report, lost).ends_with("MISSING from current run"));

        let current = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 10.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
            (
                "Train",
                0.02,
                "gaussian_wise_frame_engine",
                "sequential",
                20.0,
            ),
            ("Truck", 0.02, "standard_frame_engine", "sequential", 9.0),
        ]);
        let report = compare(&baseline(), &current, 0.25).unwrap();
        assert!(report.passed());
        assert_eq!(
            line(&report, "Truck@0.02/standard_frame_engine/sequential"),
            "Truck@0.02/standard_frame_engine/sequential: new (not in baseline)"
        );
    }

    #[test]
    fn unknown_keys_are_ignored_but_baseline_coverage_is_not() {
        // A newer `bench_frame` adds keys (the SIMD backend, per-row
        // extras) and cells (`fixed2`); an older baseline still gates it,
        // and a baseline cell the run no longer covers still fails.
        let newer = |cells: &[(&str, &str, f64)]| {
            let rows: Vec<String> = cells
                .iter()
                .map(|(scene, par, ms)| {
                    format!(
                        "{{\"scene\": \"{scene}\", \"scale\": 0.05, \"engine\": \
                         \"standard_frame_engine\", \"parallelism\": \"{par}\", \
                         \"ms_per_frame\": {ms}, \"tile_ms\": [1, 2], \"note\": null}}"
                    )
                })
                .collect();
            format!(
                "{{\"schema\": \"bench_frame/v1\", \"backend\": \"avx2\", \
                 \"host_threads\": 2, \"results\": [{}]}}",
                rows.join(",")
            )
        };
        let baseline = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 10.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
        ]);
        let current = newer(&[
            ("Lego", "sequential", 9.0),
            ("Lego", "fixed2", 5.0),
            ("Lego", "auto", 4.5),
        ]);
        let report = compare(&baseline, &current, 0.25).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(
            report
                .checks
                .iter()
                .find(|c| c.what == "Lego@0.05/standard_frame_engine/fixed2")
                .map(|c| c.status),
            Some(Status::Reported)
        );
        let shrunk = newer(&[("Lego", "sequential", 9.0), ("Lego", "fixed2", 5.0)]);
        let report = compare(&baseline, &shrunk, 0.25).unwrap();
        assert!(!report.passed());
        assert_eq!(failed(&report), ["Lego@0.05/standard_frame_engine/auto"]);
    }

    #[test]
    fn malformed_records_are_errors() {
        assert!(compare("not json", &baseline(), 0.25).is_err());
        assert!(compare(&baseline(), "{\"schema\": \"bench_frame/v1\"}", 0.25).is_err());
        let wrong_schema = baseline().replace("bench_frame/v1", "bench_frame/v9");
        assert!(compare(&wrong_schema, &baseline(), 0.25).is_err());
        let empty = record(&[]).replace("[\n]", "[]");
        assert!(parse_bench_cells(&empty).is_err());
        assert!(compare(&baseline(), &baseline(), f64::NAN).is_err());
        assert!(compare(&baseline(), &baseline(), -0.1).is_err());
    }

    #[test]
    fn the_committed_baseline_parses_and_holds_its_own_rules() {
        let cells = parse_bench_cells(include_str!("../../../ci/bench_baseline.json"))
            .expect("ci/bench_baseline.json is a bench_frame/v1 record");
        let checks = within_record(&cells);
        assert!(!checks.is_empty());
        let failed: Vec<&str> = checks
            .iter()
            .filter(|c| c.status == Status::Failed)
            .map(|c| c.line.as_str())
            .collect();
        assert!(
            failed.is_empty(),
            "the baseline fails its own rules: {failed:#?}"
        );
    }

    #[test]
    fn a_written_record_parses_back_to_its_cells() {
        let row = |scene: &str, scale, engine: &str, parallelism: &str, ms_per_frame| BenchRow {
            cell: BenchCell {
                scene: scene.into(),
                scale,
                engine: engine.into(),
                parallelism: parallelism.into(),
                ms_per_frame,
            },
            gaussians: 1700,
            width: 256,
            height: 256,
            threads: if parallelism == "sequential" { 1 } else { 2 },
        };
        let rows = [
            row(
                "Lego",
                0.05,
                "standard_frame_engine",
                "sequential",
                1.884_849,
            ),
            row("Lego", 0.05, "standard_frame_engine", "fixed2", 1.537_05),
            row("Lego", 0.5, "gscore_frame_engine", "sequential", 28.123_456),
            row("Train", 0.02, "load_binary", "sequential", 0.033_149_9),
            row("Train", 0.2, "build_hierarchy", "fixed2", 91.000_04),
        ];
        for smoke in [true, false] {
            let cells = parse_bench_cells(&write_record(smoke, 5, 2, "avx2", &rows)).unwrap();
            assert_eq!(cells.len(), rows.len());
            for (cell, row) in cells.iter().zip(&rows) {
                assert_eq!(cell.key(), row.cell.key());
                // Rounded to 4 decimals, read back through an `f32`.
                let (read, measured) = (cell.ms_per_frame, row.cell.ms_per_frame);
                assert!(
                    (read - measured).abs() <= 0.5e-4 + measured * f64::from(f32::EPSILON),
                    "{}: {measured} read back as {read}",
                    cell.key()
                );
            }
        }
    }

    #[test]
    fn zero_ms_cells_are_rejected_at_parse() {
        let zero = record(&[("Lego", 0.05, "standard_frame_engine", "sequential", 0.0)]);
        assert!(parse_bench_cells(&zero).is_err());
    }

    /// What the gate says of one fixture: it passes, it fails and prints
    /// the marker word of each rule that failed, or it is a parse error.
    #[derive(Debug)]
    enum Said {
        Pass,
        Fail(&'static [&'static str]),
        ParseError,
    }

    /// Every marker word a failed rule prints; a passing report prints
    /// none of them.
    const MARKERS: [&str; 3] = ["REGRESSION", "MISSING", "SLOWER on a borrowed core"];

    /// One fixture: its name, what the gate said of it, and what it must
    /// say.
    type Row = (&'static str, Option<(bool, String)>, Said);

    /// Every record fixture of the gate's unit tests through `compare`,
    /// with the verdict the gate gives it: what a rebuild of the gate must
    /// leave as it is.
    #[test]
    fn every_fixture_keeps_its_verdict_and_marker_words() {
        use Said::{Fail, ParseError, Pass};
        // A gate call reduced to `(passed, rendered)`; `None` for a parse
        // error.
        let frame = |baseline: &str, current: &str, tolerance: f64| {
            compare(baseline, current, tolerance)
                .map(|report| (report.passed(), report.render()))
                .ok()
        };
        let lego_train = |lego_seq: f64, lego_auto: f64, train: f64| {
            record(&[
                (
                    "Lego",
                    0.05,
                    "standard_frame_engine",
                    "sequential",
                    lego_seq,
                ),
                ("Lego", 0.05, "standard_frame_engine", "auto", lego_auto),
                (
                    "Train",
                    0.02,
                    "gaussian_wise_frame_engine",
                    "sequential",
                    train,
                ),
            ])
        };
        let schedules = |gaussian_wise_ms| {
            record(&[
                ("Lego", 0.05, "standard_frame_engine", "sequential", 3.0),
                ("Lego", 0.05, "standard_frame_engine", "fixed2", 2.0),
                (
                    "Lego",
                    0.05,
                    "gaussian_wise_frame_engine",
                    "sequential",
                    gaussian_wise_ms,
                ),
                ("Lego", 0.05, "gaussian_wise_frame_engine", "fixed2", 2.6),
                ("Train", 0.02, "standard_frame_engine", "sequential", 4.0),
            ])
        };
        let hierarchy = |fixed2_ms| {
            record(&[
                ("Lego", 0.5, "standard_frame_engine", "sequential", 26.0),
                ("Lego", 0.5, "standard_frame_engine", "fixed2", 15.0),
                (
                    "Lego",
                    0.5,
                    "gaussian_wise_frame_engine",
                    "sequential",
                    18.0,
                ),
                ("Lego", 0.5, "gaussian_wise_frame_engine", "fixed2", 18.2),
                ("Lego", 0.5, "load_json", "sequential", 44.0),
                ("Lego", 0.5, "build_hierarchy", "sequential", 6.1),
                ("Lego", 0.5, "build_hierarchy", "fixed2", fixed2_ms),
                ("Train", 0.2, "build_hierarchy", "fixed2", 9.0),
            ])
        };
        let loads = |build2_ms, json2_ms| {
            record(&[
                ("Lego", 0.5, "build_preset", "sequential", 14.4),
                ("Lego", 0.5, "build_preset", "fixed2", build2_ms),
                ("Lego", 0.5, "load_json", "sequential", 19.0),
                ("Lego", 0.5, "load_json", "fixed2", json2_ms),
                ("Lego", 0.5, "load_binary", "sequential", 0.7),
            ])
        };
        let newer = |cells: &[(&str, &str, f64)]| {
            let rows: Vec<String> = cells
                .iter()
                .map(|(scene, par, ms)| {
                    format!(
                        "{{\"scene\": \"{scene}\", \"scale\": 0.05, \"engine\": \
                         \"standard_frame_engine\", \"parallelism\": \"{par}\", \
                         \"ms_per_frame\": {ms}, \"tile_ms\": [1, 2], \"note\": null}}"
                    )
                })
                .collect();
            format!(
                "{{\"schema\": \"bench_frame/v1\", \"backend\": \"avx2\", \
                 \"host_threads\": 2, \"results\": [{}]}}",
                rows.join(",")
            )
        };
        let lego_only = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 10.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
        ]);
        let with_truck = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 10.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
            (
                "Train",
                0.02,
                "gaussian_wise_frame_engine",
                "sequential",
                20.0,
            ),
            ("Truck", 0.02, "standard_frame_engine", "sequential", 9.0),
        ]);
        let empty = record(&[]).replace("[\n]", "[]");
        let zero = record(&[("Lego", 0.05, "standard_frame_engine", "sequential", 0.0)]);
        let within = lego_train(12.4, 4.9, 24.9);
        let b = baseline();

        let table: Vec<Row> = vec![
            ("identical records", frame(&b, &b, 0.25), Pass),
            (
                "one inflated cell",
                frame(&b, &lego_train(10.0, 4.0, 31.0), 0.25),
                Fail(&["REGRESSION"]),
            ),
            (
                "two inflated cells",
                frame(&b, &lego_train(26.0, 4.0, 31.0), 0.25),
                Fail(&["REGRESSION"]),
            ),
            (
                "gaussian-wise a bit slower",
                frame(&schedules(2.7), &schedules(2.9), 0.25),
                Pass,
            ),
            (
                "gaussian-wise slower than standard",
                frame(&schedules(2.7), &schedules(3.3), 0.25),
                Pass,
            ),
            (
                "gaussian-wise slower than its record",
                frame(&schedules(2.0), &schedules(2.6), 0.25),
                Fail(&["REGRESSION"]),
            ),
            (
                "hierarchy build on two threads",
                frame(&hierarchy(6.4), &hierarchy(6.6), 0.25),
                Pass,
            ),
            (
                "hierarchy build slower on two threads",
                frame(&hierarchy(6.6), &hierarchy(8.0), 0.25),
                Fail(&["SLOWER on a borrowed core"]),
            ),
            (
                "cold loads on two threads",
                frame(&loads(8.8, 12.4), &loads(8.8, 12.4), 0.25),
                Pass,
            ),
            (
                "preset build slower on two threads",
                frame(&loads(16.2, 12.4), &loads(16.2, 12.4), 0.25),
                Fail(&["SLOWER on a borrowed core"]),
            ),
            (
                "json load slower on two threads",
                frame(&loads(8.8, 21.5), &loads(8.8, 21.5), 0.25),
                Fail(&["SLOWER on a borrowed core"]),
            ),
            (
                "lent cores at the tolerance",
                frame(&loads(15.8, 20.9), &loads(15.8, 20.9), 0.25),
                Pass,
            ),
            ("slowdown within 25 %", frame(&b, &within, 0.25), Pass),
            (
                "slowdown beyond 10 %",
                frame(&b, &within, 0.10),
                Fail(&["REGRESSION"]),
            ),
            (
                "speedups at zero tolerance",
                frame(&b, &lego_train(1.0, 0.4, 2.0), 0.0),
                Pass,
            ),
            (
                "a baseline cell missing",
                frame(&b, &lego_only, 0.25),
                Fail(&["MISSING"]),
            ),
            ("a new cell", frame(&b, &with_truck, 0.25), Pass),
            (
                "newer keys and cells",
                frame(
                    &lego_only,
                    &newer(&[
                        ("Lego", "sequential", 9.0),
                        ("Lego", "fixed2", 5.0),
                        ("Lego", "auto", 4.5),
                    ]),
                    0.25,
                ),
                Pass,
            ),
            (
                "newer keys, shrunk coverage",
                frame(
                    &lego_only,
                    &newer(&[("Lego", "sequential", 9.0), ("Lego", "fixed2", 5.0)]),
                    0.25,
                ),
                Fail(&["MISSING"]),
            ),
            ("baseline not json", frame("not json", &b, 0.25), ParseError),
            (
                "current without results",
                frame(&b, "{\"schema\": \"bench_frame/v1\"}", 0.25),
                ParseError,
            ),
            (
                "baseline of another schema",
                frame(&b.replace("bench_frame/v1", "bench_frame/v9"), &b, 0.25),
                ParseError,
            ),
            ("empty results", frame(&b, &empty, 0.25), ParseError),
            ("NaN tolerance", frame(&b, &b, f64::NAN), ParseError),
            ("negative tolerance", frame(&b, &b, -0.1), ParseError),
            ("a zero-ms cell", frame(&b, &zero, 0.25), ParseError),
        ];

        for (fixture, observed, expected) in table {
            match (&expected, &observed) {
                (ParseError, None) => {}
                (Pass, Some((true, rendered))) => {
                    for marker in MARKERS {
                        assert!(
                            !rendered.contains(marker),
                            "{fixture}: passes but prints {marker}:\n{rendered}"
                        );
                    }
                }
                (Fail(markers), Some((false, rendered))) => {
                    for marker in *markers {
                        assert!(
                            rendered.contains(marker),
                            "{fixture}: fails without {marker}:\n{rendered}"
                        );
                    }
                }
                _ => panic!("{fixture}: expected {expected:?}, the gate said {observed:?}"),
            }
        }
    }
}
