//! The CI perf gate as one list of checks. A `bench_frame/v1` record is
//! checked against the committed baseline and against itself; a
//! `bench_serve/v3` record alone, or against the record of the same
//! workload it is about to replace. Every rule reads the record and
//! returns one [`Check`]; a gate's [`Report`] is the list of them. The
//! rules, one line each with its reason, are in `ci/README.md`.
//!
//! The logic lives in the library (not the `perf_gate` binary) so the
//! gate's verdicts are pinned by unit tests: CI and `bench_serve` run
//! the same code the tests cover.

use gcc_scene::json::{self, Value};
use std::path::Path;

/// How much slower than its baseline cell a frame cell may be (0.25 =
/// fail beyond +25 %).
pub const FRAME_TOLERANCE: f64 = 0.25;

/// How much slower than its `sequential` cell a `fixed2` cell may be
/// (run-to-run noise on cells that gain nothing from the second thread
/// sits within ±3 %).
pub const BORROW_TOLERANCE: f64 = 1.10;

/// How far below the reference's throughput, or above its Interactive
/// p95, a serve record may land. Seven same-host full runs in one hour
/// spread 80.7–93.9 rps and, the p95 of a class with 24 requests being
/// its second-slowest one, 44.6–74.5 ms.
pub const SERVE_TOLERANCE: f64 = 0.25;

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
    /// What was checked: a cell key, or a record field such as
    /// `chaos.all_resolved`.
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

/// `field` of `section` (`""`: the record's top level), as messages name
/// it.
fn name(section: &str, field: &str) -> String {
    if section.is_empty() {
        field.to_string()
    } else {
        format!("{section}.{field}")
    }
}

/// A finite, non-negative number: every number a rule reads is a count,
/// a time, a rate or a ratio.
fn non_negative(v: Option<&Value>) -> Option<f64> {
    v.and_then(Value::as_f32)
        .map(f64::from)
        .filter(|v| v.is_finite() && *v >= 0.0)
}

fn number(obj: &Value, section: &str, field: &str) -> Result<f64, String> {
    non_negative(obj.get(field)).ok_or(format!("missing number '{}'", name(section, field)))
}

fn flag(obj: &Value, section: &str, field: &str) -> Result<bool, String> {
    match obj.get(field) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool '{}'", name(section, field))),
    }
}

/// `section.field` must be `true`.
fn must_be_true(obj: &Value, section: &str, field: &str, marker: &str) -> Result<Check, String> {
    let value = flag(obj, section, field)?;
    Ok(Check::new(
        name(section, field),
        value,
        value.to_string(),
        marker,
    ))
}

/// `section.field` must be at least `floor`.
fn min(obj: &Value, section: &str, field: &str, floor: f64, marker: &str) -> Result<Check, String> {
    let value = number(obj, section, field)?;
    Ok(Check::new(
        name(section, field),
        value >= floor,
        format!("{value} (min {floor})"),
        marker,
    ))
}

/// `section.field` must be at most `ceiling`.
fn max(
    obj: &Value,
    section: &str,
    field: &str,
    ceiling: f64,
    marker: &str,
) -> Result<Check, String> {
    let value = number(obj, section, field)?;
    Ok(Check::new(
        name(section, field),
        value <= ceiling,
        format!("{value} (max {ceiling})"),
        marker,
    ))
}

/// Which way a number gets better.
enum Better {
    Lower,
    Higher,
}

/// `now` may be worse than the reference's `then` by at most `tolerance`
/// (0.25 = 25 %).
fn max_regress(
    what: impl Into<String>,
    now: f64,
    then: f64,
    tolerance: f64,
    better: Better,
    marker: &str,
) -> Check {
    let ratio = now / then;
    let held = match better {
        Better::Lower => ratio <= 1.0 + tolerance,
        Better::Higher => ratio >= 1.0 - tolerance,
    };
    let detail = format!(
        "{now:.4} vs reference {then:.4} ({:+.1}%, {:.0}% tolerated)",
        (ratio - 1.0) * 100.0,
        tolerance * 100.0
    );
    Check::new(what, held, detail, marker)
}

fn valid_tolerance(tolerance: f64) -> Result<(), String> {
    if tolerance.is_finite() && tolerance >= 0.0 {
        Ok(())
    } else {
        Err(format!("invalid tolerance {tolerance}"))
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
/// key must exist and may be at most `tolerance` slower.
fn cell_check(baseline: &BenchCell, current: &[BenchCell], tolerance: f64) -> Check {
    let key = baseline.key();
    match current.iter().find(|c| c.key() == key) {
        Some(c) => max_regress(
            key,
            c.ms_per_frame,
            baseline.ms_per_frame,
            tolerance,
            Better::Lower,
            "REGRESSION",
        ),
        None => Check::new(
            key,
            false,
            "not measured".into(),
            "MISSING from current run",
        ),
    }
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
    valid_tolerance(tolerance)?;
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

/// The `batched_lru` numbers of a parsed `bench_serve/v3` record:
/// throughput, Interactive p95, Bulk p95.
fn batched_lru(doc: &Value) -> Result<(f64, Option<f64>, Option<f64>), String> {
    let batched = doc
        .get("configs")
        .and_then(Value::as_arr)
        .and_then(|configs| {
            configs
                .iter()
                .find(|c| c.get("name").and_then(Value::as_str) == Some("batched_lru"))
        })
        .ok_or("missing config 'batched_lru'")?;
    let throughput_rps = non_negative(batched.get("throughput_rps"))
        .filter(|v| *v > 0.0)
        .ok_or("batched_lru: missing positive number 'throughput_rps'")?;
    let (mut interactive, mut bulk) = (None, None);
    for p in batched
        .get("per_priority")
        .and_then(Value::as_arr)
        .unwrap_or_default()
    {
        let p95 = non_negative(p.get("latency_p95_ms"));
        match p.get("priority").and_then(Value::as_str) {
            Some("interactive") => interactive = p95,
            Some("bulk") => bulk = p95,
            _ => {}
        }
    }
    Ok((throughput_rps, interactive, bulk))
}

/// Parses a record of the `bench_serve/v3` schema.
fn parse_serve_record(text: &str) -> Result<Value, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing 'schema'")?;
    if schema != "bench_serve/v3" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    Ok(doc)
}

/// The ladder delivered quality, not just deadlines: the floor rung
/// holds at most half of the ladder run's frames, unless no better
/// rung's recorded cost × margin fits the deadline.
fn floor_justified(lod: &Value) -> Result<Check, String> {
    let list = |k: &str| {
        lod.get(k)
            .and_then(Value::as_arr)
            .ok_or(format!("missing array 'lod.{k}'"))
    };
    let frames_by_rung = list("frames_by_rung")?
        .iter()
        .map(|v| non_negative(Some(v)).map(|n| n as u64))
        .collect::<Option<Vec<u64>>>()
        .ok_or("'lod.frames_by_rung' is not a list of counts")?;
    let cost_ms = list("rungs")?
        .iter()
        .map(|r| number(r, "lod.rungs[]", "cost_ms"))
        .collect::<Result<Vec<f64>, String>>()?;
    if frames_by_rung.len() != cost_ms.len() {
        return Err(format!(
            "lod: {} rungs dispatched but {} priced",
            frames_by_rung.len(),
            cost_ms.len()
        ));
    }
    let deadline_ms = number(lod, "lod", "deadline_ms")?;
    let margin = number(lod, "lod", "margin")?;
    let on_floor = frames_by_rung.last().copied().unwrap_or(0);
    let frames: u64 = frames_by_rung.iter().sum();
    let better_fits = cost_ms[..cost_ms.len().saturating_sub(1)]
        .iter()
        .any(|cost| cost * margin <= deadline_ms);
    Ok(Check::new(
        "lod floor rung",
        on_floor * 2 <= frames || !better_fits,
        format!(
            "{on_floor} of {frames} frames (rungs {frames_by_rung:?}); a better rung \
             {} the {deadline_ms:.2} ms deadline at margin {margin:.2}",
            if better_fits { "fits" } else { "does not fit" }
        ),
        "STUCK ON THE FLOOR",
    ))
}

/// Checks a `bench_serve/v3` record: its own contracts — the sections a
/// `--chaos`, `--wire` or `--lod` run adds included — and, given the text
/// of a `reference` record, its `batched_lru` throughput and Interactive
/// p95 against the reference's, within `tolerance`.
///
/// # Errors
///
/// Returns a message for malformed JSON, a record of the wrong schema, a
/// missing field a rule reads (a present-but-malformed section too), an
/// invalid tolerance, or a reference that is not a record of the same
/// workload (a smoke run against a full one, another request count): its
/// numbers say nothing about this record's.
pub fn check_serve_record(
    text: &str,
    reference: Option<&str>,
    tolerance: f64,
) -> Result<Report, String> {
    valid_tolerance(tolerance)?;
    let doc = parse_serve_record(text)?;
    let speedup = number(&doc, "", "speedup_vs_naive")?;
    let smoke = flag(&doc, "", "smoke")?;
    let (rps, interactive, bulk) = batched_lru(&doc)?;
    let ms = |p95: Option<f64>| p95.map_or("-".into(), |v| format!("{v:.2}"));
    let mut checks = vec![
        Check::reported(
            "batched_lru",
            format!(
                "{rps:.2} rps, p95 interactive {} / bulk {} ms; {speedup:.2}x naive_evict \
                 (reported, not gated)",
                ms(interactive),
                ms(bulk)
            ),
        ),
        must_be_true(&doc, "", "parity_ok", "FAILED")?,
    ];
    if let Some(text) = reference {
        let reference = parse_serve_record(text).map_err(|e| format!("reference: {e}"))?;
        for key in ["smoke", "total_frames"] {
            if doc.get(key) != reference.get(key) {
                return Err(format!(
                    "reference: a different workload ('{key}' is {:?}, the record's {:?})",
                    reference.get(key),
                    doc.get(key)
                ));
            }
        }
        let (then_rps, then_interactive, _) =
            batched_lru(&reference).map_err(|e| format!("reference: {e}"))?;
        checks.push(max_regress(
            "batched_lru throughput_rps",
            rps,
            then_rps,
            tolerance,
            Better::Higher,
            "COLLAPSED",
        ));
        if let Some(then) = then_interactive {
            let what = "batched_lru interactive p95 ms";
            checks.push(match interactive {
                Some(now) => max_regress(what, now, then, tolerance, Better::Lower, "SLOWER"),
                None => Check::new(
                    what,
                    false,
                    "no interactive class where the reference has one".into(),
                    "MISSING",
                ),
            });
        }
    }
    if let (false, Some(interactive), Some(bulk)) = (smoke, interactive, bulk) {
        checks.push(Check::new(
            "batched_lru interactive p95 <= bulk p95",
            interactive <= bulk,
            format!("{interactive:.2} vs {bulk:.2} ms"),
            "CLASSES INVERTED",
        ));
    }
    if let Some(c) = doc.get("chaos") {
        checks.extend([
            must_be_true(c, "chaos", "all_resolved", "REQUESTS STRANDED")?,
            max(c, "chaos", "lost_workers", 0.0, "NOT RECOVERED")?,
        ]);
    }
    if let Some(w) = doc.get("wire") {
        checks.extend([
            min(w, "wire", "shards", 2.0, "FAILED")?,
            must_be_true(w, "wire", "all_resolved", "REQUESTS STRANDED")?,
            must_be_true(w, "wire", "parity_ok", "DIVERGED")?,
        ]);
    }
    if let Some(l) = doc.get("lod") {
        checks.extend([
            max(l, "lod", "misses_ladder_on", 0.0, "FAILED")?,
            min(l, "lod", "misses_ladder_off", 1.0, "FAILED")?,
            must_be_true(l, "lod", "all_resolved", "FRAMES LOST")?,
            must_be_true(l, "lod", "quality_ok", "BELOW FLOOR")?,
            floor_justified(l)?,
        ]);
    }
    Ok(Report { checks })
}

/// Holds the fresh full-mode record `fresh` to the record at `path` —
/// the committed one, which this run means to replace — and writes it
/// there only if it passes: a run that fails the gate leaves its
/// reference as it was, so the next run is compared with the same
/// numbers and not with the collapse. No file at `path` is a first
/// record, with nothing to hold against.
///
/// # Errors
///
/// As [`check_serve_record`], and for a filesystem failure. A record at
/// `path` that is unreadable or of another workload (a smoke record left
/// by `--smoke`, another request count) is an error too, with the file
/// untouched: an unchecked run does not become the reference by accident
/// — restore the committed record, or delete it to start a new one.
pub fn replace_serve_record(path: &Path, fresh: &str, tolerance: f64) -> Result<Report, String> {
    let at = |e: std::io::Error| format!("{}: {e}", path.display());
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(at(e)),
    };
    let report = check_serve_record(fresh, committed.as_deref(), tolerance)?;
    if report.passed() {
        std::fs::write(path, fresh).map_err(at)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve gate on `record` alone, as CI runs it on a record that
    /// has no reference of its own workload.
    fn check_alone(record: &str) -> Result<Report, String> {
        check_serve_record(record, None, SERVE_TOLERANCE)
    }

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
    fn zero_ms_cells_are_rejected_at_parse() {
        let zero = record(&[("Lego", 0.05, "standard_frame_engine", "sequential", 0.0)]);
        assert!(parse_bench_cells(&zero).is_err());
    }

    /// A full-mode record with the committed record's `batched_lru`
    /// numbers: 76.5 rps, Interactive p95 62.5 ms, Bulk p95 516 ms.
    fn serve_record(speedup: f64, parity_ok: bool) -> String {
        serve_record_at(76.5, 62.5, speedup, parity_ok)
    }

    fn serve_record_at(rps: f64, interactive_p95: f64, speedup: f64, parity_ok: bool) -> String {
        format!(
            "{{\"schema\": \"bench_serve/v3\", \"smoke\": false, \"total_frames\": 138, \
             \"parity_ok\": {parity_ok}, \"configs\": [\
             {{\"name\": \"batched_lru\", \"throughput_rps\": {rps}, \"per_priority\": [\
             {{\"priority\": \"interactive\", \"latency_p95_ms\": {interactive_p95}}}, \
             {{\"priority\": \"bulk\", \"latency_p95_ms\": 516.0}}]}}, \
             {{\"name\": \"naive_evict\", \"throughput_rps\": 51.5, \"per_priority\": []}}], \
             \"speedup_vs_naive\": {speedup}}}"
        )
    }

    #[test]
    fn serve_gate_reads_throughput_and_p95s_and_only_reports_the_speedup() {
        let report = check_alone(&serve_record(3.2, true)).unwrap();
        assert!(report.passed());
        assert_eq!(
            line(&report, "batched_lru"),
            "batched_lru: 76.50 rps, p95 interactive 62.50 / bulk 516.00 ms; 3.20x naive_evict \
             (reported, not gated)"
        );
        assert!(report.render().contains("PASS"));
        // A ratio under the old 1.3 floor — what a cheaper scene load does
        // to the strawman — is reported and passes, alone or against a
        // reference with a higher one.
        let cheap_loads = serve_record(1.1, true);
        for reference in [None, Some(serve_record(1.49, true))] {
            let report = check_serve_record(&cheap_loads, reference.as_deref(), 0.25).unwrap();
            assert!(report.passed(), "{}", report.render());
            assert!(line(&report, "batched_lru").contains("1.10x naive_evict (reported"));
        }
    }

    #[test]
    fn serve_gate_fails_on_a_throughput_collapse_against_the_reference() {
        // The acceptance check: the committed record's 76.5 rps, and a run
        // where the cache or the batcher stopped paying.
        let reference = serve_record(1.49, true);
        let check = |rps: f64| {
            let record = serve_record_at(rps, 62.5, 1.49, true);
            check_serve_record(&record, Some(&reference), SERVE_TOLERANCE).unwrap()
        };
        let collapsed = check(50.0);
        assert_eq!(failed(&collapsed), ["batched_lru throughput_rps"]);
        assert_eq!(
            line(&collapsed, "batched_lru throughput_rps"),
            "batched_lru throughput_rps: 50.0000 vs reference 76.5000 (-34.6%, 25% tolerated)  \
             COLLAPSED"
        );
        assert!(collapsed.render().contains("FAIL"));
        // Within the tolerance, at its edge, and faster: all pass.
        for rps in [70.0, 76.5 * 0.75, 76.5, 120.0] {
            let report = check(rps);
            assert!(report.passed(), "{}", report.render());
            assert!(!report.render().contains("COLLAPSED"));
        }
        assert!(!check(76.5 * 0.749).passed());
    }

    #[test]
    fn serve_gate_fails_on_an_interactive_p95_blowup_against_the_reference() {
        let reference = serve_record(1.49, true);
        let check = |p95: f64| {
            let record = serve_record_at(76.5, p95, 1.49, true);
            check_serve_record(&record, Some(&reference), SERVE_TOLERANCE).unwrap()
        };
        // Interactive frames queueing behind Bulk ones: the class's p95
        // heads for Bulk's.
        let p95 = "batched_lru interactive p95 ms";
        let slow = check(95.0);
        assert_eq!(failed(&slow), [p95]);
        assert!(line(&slow, "batched_lru").contains("p95 interactive 95.00 / bulk 516.00 ms"));
        assert!(line(&slow, p95).ends_with("vs reference 62.5000 (+52.0%, 25% tolerated)  SLOWER"));
        for p95 in [40.0, 62.5, 62.5 * 1.25] {
            assert!(check(p95).passed(), "{p95}");
        }
        assert!(!check(62.5 * 1.26).passed());
        // A record that lost the class the reference has does not pass.
        let classless = serve_record(1.49, true).replace("\"interactive\"", "\"background\"");
        let report = check_serve_record(&classless, Some(&reference), SERVE_TOLERANCE).unwrap();
        assert_eq!(failed(&report), [p95]);
        assert!(report.render().contains("no interactive class"));
    }

    #[test]
    fn full_mode_interactive_p95_may_not_exceed_bulk_p95() {
        // Interactive frames queued behind the Bulk class under a full
        // run's mixed load: 600 ms against Bulk's 516.
        let inverted = serve_record_at(76.5, 600.0, 1.49, true);
        let rule = "batched_lru interactive p95 <= bulk p95";
        let report = check_alone(&inverted).unwrap();
        assert_eq!(failed(&report), [rule]);
        assert_eq!(
            line(&report, rule),
            "batched_lru interactive p95 <= bulk p95: 600.00 vs 516.00 ms  CLASSES INVERTED"
        );
        assert!(line(&check_alone(&serve_record(1.49, true)).unwrap(), rule).ends_with("516.00 ms"));
        // A smoke run's load is too light for the order to mean anything.
        let smoke = inverted.replace("\"smoke\": false", "\"smoke\": true");
        let report = check_alone(&smoke).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert!(checked(&report, rule).is_empty());
        // The rule reads the record's mode: a record without one is refused.
        assert!(check_alone(&inverted.replace("\"smoke\": false, ", "")).is_err());
    }

    #[test]
    fn a_run_that_fails_the_serve_gate_keeps_its_reference() {
        let path = std::env::temp_dir().join(format!(
            "gcc_perf_gate_replace_{}_BENCH_serve.json",
            std::process::id()
        ));
        let on_disk = || std::fs::read_to_string(&path).ok();
        let replace = |fresh: &str| replace_serve_record(&path, fresh, SERVE_TOLERANCE);
        let _ = std::fs::remove_file(&path);
        // A first record has nothing to hold against and is written.
        let committed = serve_record(1.49, true);
        let first = replace(&committed).unwrap();
        assert!(checked(&first, "throughput_rps").is_empty());
        assert_eq!(on_disk(), Some(committed.clone()));
        // A collapse, in throughput or in Interactive p95, fails and is
        // not written — so a second failing run fails against the same
        // numbers instead of passing against the first one's. Nor is a
        // run that holds the numbers but fails a contract of its own.
        for failing in [
            serve_record_at(50.0, 62.5, 1.49, true),
            serve_record_at(76.5, 95.0, 1.49, true),
            serve_record_at(76.5, 62.5, 1.49, false),
        ] {
            for _ in 0..2 {
                let report = replace(&failing).unwrap();
                assert!(!report.passed(), "{}", report.render());
                assert_eq!(on_disk(), Some(committed.clone()));
            }
        }
        // A record it cannot be compared with is not replaced unchecked:
        // another workload, or text that is no record.
        let smoke = committed.replace("\"smoke\": false", "\"smoke\": true");
        for unusable in [smoke.as_str(), "{"] {
            std::fs::write(&path, unusable).unwrap();
            let err = replace(&committed).unwrap_err();
            assert!(err.starts_with("reference: "), "{err}");
            assert_eq!(on_disk().as_deref(), Some(unusable));
        }
        // A run that holds replaces the record, and is the next
        // reference: 55 rps is within 25 % of 70, not of 76.5.
        std::fs::write(&path, &committed).unwrap();
        let held = serve_record_at(70.0, 70.0, 1.2, true);
        assert!(replace(&held).unwrap().passed());
        assert_eq!(on_disk(), Some(held));
        let next = serve_record_at(55.0, 70.0, 1.2, true);
        assert!(replace(&next).unwrap().passed());
        assert_eq!(on_disk(), Some(next));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn serve_gate_ignores_the_scene_rows_and_their_load_ms() {
        // `bench_serve` reports each scene file's cold load beside its
        // size; the gate reads neither, so a record carrying the rows
        // gates exactly like one without them.
        let plain = serve_record(1.7, true);
        let with_rows = plain.replacen(
            "\"configs\"",
            "\"scenes\": [{\"id\": \"train\", \"gaussians\": 11000, \"bytes\": 2596141, \
             \"format\": \"json\", \"load_ms\": 35.567}], \"configs\"",
            1,
        );
        assert_ne!(with_rows, plain);
        let report = check_alone(&with_rows).unwrap();
        assert!(report.passed());
        assert_eq!(report.render(), check_alone(&plain).unwrap().render());
    }

    #[test]
    fn serve_gate_fails_on_broken_parity_regardless_of_speedup() {
        let report = check_alone(&serve_record(9.0, false)).unwrap();
        assert_eq!(failed(&report), ["parity_ok"]);
        assert!(report.render().contains("parity_ok: false  FAILED"));
    }

    fn chaos_record(speedup: f64, all_resolved: bool, lost_workers: u64) -> String {
        let base = serve_record(speedup, true);
        let chaos = format!(
            "\"chaos\": {{\"seed\": 7, \"storm_requests\": 24, \"resolved\": 20, \
             \"turned_away\": 4, \"respawns\": 3, \"lost_workers\": {lost_workers}, \
             \"all_resolved\": {all_resolved}}}, \"speedup_vs_naive\""
        );
        base.replace("\"speedup_vs_naive\"", &chaos)
    }

    #[test]
    fn serve_gate_reads_and_enforces_the_chaos_summary() {
        let report = check_alone(&chaos_record(3.0, true, 0)).unwrap();
        assert!(report.passed());
        assert_eq!(
            line(&report, "chaos.all_resolved"),
            "chaos.all_resolved: true"
        );
        assert_eq!(
            line(&report, "chaos.lost_workers"),
            "chaos.lost_workers: 0 (max 0)"
        );

        // A stranded storm fails the gate even above the floor.
        let report = check_alone(&chaos_record(9.0, false, 0)).unwrap();
        assert_eq!(failed(&report), ["chaos.all_resolved"]);
        assert!(report.render().contains("REQUESTS STRANDED"));

        // A pool that never recovered to width fails too.
        let report = check_alone(&chaos_record(9.0, true, 1)).unwrap();
        assert_eq!(failed(&report), ["chaos.lost_workers"]);
        assert!(report.render().contains("NOT RECOVERED"));
    }

    #[test]
    fn serve_gate_rejects_malformed_chaos_summaries() {
        // Present-but-incomplete chaos objects are parse errors, not
        // silent passes.
        let missing_resolved =
            chaos_record(3.0, true, 0).replace("\"all_resolved\": true", "\"all_resolved\": 1");
        assert!(check_alone(&missing_resolved).is_err());
        let missing_lost = chaos_record(3.0, true, 0).replace("\"lost_workers\": 0, ", "");
        assert!(check_alone(&missing_lost).is_err());
        // Records without a chaos object stay valid, with no chaos check
        // (pinned above by every other serve-gate test).
        let report = check_alone(&serve_record(3.0, true)).unwrap();
        assert!(report.checks.iter().all(|c| !c.what.starts_with("chaos")));
    }

    fn wire_record(speedup: f64, shards: u64, all_resolved: bool, parity_ok: bool) -> String {
        let base = serve_record(speedup, true);
        let wire = format!(
            "\"wire\": {{\"shards\": {shards}, \"clients\": 2, \"requests\": 8, \
             \"resolved\": 8, \"rejections\": 2, \"parity_frames\": 18, \
             \"delivered_frames\": 18, \"wall_ms\": 120.0, \"throughput_fps\": 150.0, \
             \"clean_exit\": true, \"all_resolved\": {all_resolved}, \
             \"parity_ok\": {parity_ok}}}, \"speedup_vs_naive\""
        );
        base.replace("\"speedup_vs_naive\"", &wire)
    }

    #[test]
    fn serve_gate_reads_and_enforces_the_wire_summary() {
        let report = check_alone(&wire_record(3.0, 2, true, true)).unwrap();
        assert!(report.passed());
        assert_eq!(line(&report, "wire.shards"), "wire.shards: 2 (min 2)");
        assert_eq!(line(&report, "wire.parity_ok"), "wire.parity_ok: true");

        // A stranded client request fails the gate even above the floor.
        let report = check_alone(&wire_record(9.0, 2, false, true)).unwrap();
        assert_eq!(failed(&report), ["wire.all_resolved"]);
        assert!(report.render().contains("REQUESTS STRANDED"));

        // A wire frame that diverged from its direct render fails too.
        let report = check_alone(&wire_record(9.0, 2, true, false)).unwrap();
        assert_eq!(failed(&report), ["wire.parity_ok"]);
        assert!(report.render().contains("DIVERGED"));

        // So does an unsharded "fleet": one backend is not a deployment.
        let report = check_alone(&wire_record(9.0, 1, true, true)).unwrap();
        assert_eq!(failed(&report), ["wire.shards"]);
    }

    #[test]
    fn serve_gate_rejects_malformed_wire_summaries() {
        // Present-but-incomplete wire objects are parse errors, not
        // silent passes.
        let bad_parity =
            wire_record(3.0, 2, true, true).replace("\"parity_ok\": true", "\"parity_ok\": 1");
        assert!(check_alone(&bad_parity).is_err());
        let missing_shards = wire_record(3.0, 2, true, true).replace("\"shards\": 2, ", "");
        assert!(check_alone(&missing_shards).is_err());
        // Records without a wire object stay valid, with no wire check.
        let report = check_alone(&serve_record(3.0, true)).unwrap();
        assert!(report.checks.iter().all(|c| !c.what.starts_with("wire")));
    }

    /// A lod record: the ladder run's frames per rung, and the rungs'
    /// recorded costs against a 31 ms deadline at margin 1.3.
    fn lod_record_with(
        misses: (u64, u64),
        all_resolved: bool,
        quality_ok: bool,
        frames_by_rung: [u64; 4],
        cost_ms: [f64; 4],
    ) -> String {
        let base = serve_record(3.0, true);
        let rungs: Vec<String> = ["full", "half_res", "coarse", "floor"]
            .iter()
            .zip(cost_ms)
            .map(|(name, cost)| {
                format!(
                    "{{\"name\": \"{name}\", \"cost_ms\": {cost}, \"psnr_db\": 99.0, \
                     \"ssim\": 1.0, \"min_psnr_db\": 12.5, \"min_ssim\": 0.12}}"
                )
            })
            .collect();
        let lod = format!(
            "\"lod\": {{\"scene\": \"lodscene\", \"frames\": 40, \"host_threads\": 2, \
             \"deadline_ms\": 31.0, \"margin\": 1.3, \"full_ms\": 45.3, \"floor_ms\": 7.8, \
             \"misses_ladder_on\": {}, \"misses_ladder_off\": {}, \"degraded_frames\": 40, \
             \"frames_by_rung\": {frames_by_rung:?}, \"all_resolved\": {all_resolved}, \
             \"quality_ok\": {quality_ok}, \"rungs\": [{}]}}, \"speedup_vs_naive\"",
            misses.0,
            misses.1,
            rungs.join(", ")
        );
        base.replace("\"speedup_vs_naive\"", &lod)
    }

    /// Costs of the Lego ladder: `half_res` fits the 31 ms deadline at
    /// margin 1.3 (18 × 1.3), `full` and `coarse` do not.
    const LEGO_COST_MS: [f64; 4] = [45.3, 18.0, 26.0, 7.8];

    fn lod_record(misses_on: u64, misses_off: u64, all_resolved: bool, quality_ok: bool) -> String {
        lod_record_with(
            (misses_on, misses_off),
            all_resolved,
            quality_ok,
            [0, 38, 1, 1],
            LEGO_COST_MS,
        )
    }

    #[test]
    fn serve_gate_reads_and_enforces_the_lod_summary() {
        let report = check_alone(&lod_record(0, 12, true, true)).unwrap();
        assert!(report.passed());
        assert_eq!(
            line(&report, "lod.misses_ladder_on"),
            "lod.misses_ladder_on: 0 (max 0)"
        );
        assert_eq!(
            line(&report, "lod.misses_ladder_off"),
            "lod.misses_ladder_off: 12 (min 1)"
        );
        assert!(line(&report, "lod floor rung").contains("1 of 40 frames (rungs [0, 38, 1, 1])"));

        // A ladder run that still missed a deadline fails the gate.
        let report = check_alone(&lod_record(1, 12, true, true)).unwrap();
        assert_eq!(failed(&report), ["lod.misses_ladder_on"]);
        // A deadline the exact run also met proves nothing — refused.
        let report = check_alone(&lod_record(0, 0, true, true)).unwrap();
        assert_eq!(failed(&report), ["lod.misses_ladder_off"]);
        // Dropped frames fail even with zero misses.
        let report = check_alone(&lod_record(0, 12, false, true)).unwrap();
        assert_eq!(failed(&report), ["lod.all_resolved"]);
        assert!(report.render().contains("FRAMES LOST"));
        // So does a rung below its documented quality floor.
        let report = check_alone(&lod_record(0, 12, true, false)).unwrap();
        assert_eq!(failed(&report), ["lod.quality_ok"]);
        assert!(report.render().contains("BELOW FLOOR"));
    }

    #[test]
    fn serve_gate_refuses_a_ladder_that_hides_on_the_floor() {
        let gate = |frames_by_rung, cost_ms| {
            let record = lod_record_with((0, 40), true, true, frames_by_rung, cost_ms);
            check_alone(&record).unwrap()
        };
        // The record PR 10 committed: zero misses, bought with 39 of 40
        // frames at the floor while `half_res` fit the deadline.
        let report = gate([0, 0, 1, 39], LEGO_COST_MS);
        assert_eq!(failed(&report), ["lod floor rung"]);
        assert!(line(&report, "lod floor rung").ends_with(
            "a better rung fits the 31.00 ms deadline at margin 1.30  STUCK ON THE FLOOR"
        ));
        // The same frames are fine when nothing better fits: 24 × 1.3
        // is past the 31 ms deadline.
        assert!(gate([0, 0, 1, 39], [45.3, 24.0, 26.0, 7.8]).passed());
        // And the floor may hold up to half of the frames regardless.
        assert!(gate([0, 20, 0, 20], LEGO_COST_MS).passed());
        assert!(!gate([0, 19, 0, 21], LEGO_COST_MS).passed());
    }

    #[test]
    fn serve_gate_rejects_malformed_lod_summaries() {
        // Present-but-incomplete lod objects are parse errors, not
        // silent passes.
        let good = lod_record(0, 12, true, true);
        for (what, bad) in [
            (
                "flag",
                good.replace("\"quality_ok\": true", "\"quality_ok\": 1"),
            ),
            ("misses", good.replace("\"misses_ladder_on\": 0, ", "")),
            ("margin", good.replace("\"margin\": 1.3, ", "")),
            ("rung cost", good.replace("\"cost_ms\": 18, ", "")),
            ("rung count", good.replace("[0, 38, 1, 1]", "[0, 38, 2]")),
            ("rung frames", good.replace("[0, 38, 1, 1]", "7")),
        ] {
            assert_ne!(bad, good, "{what}: the fixture did not change");
            assert!(check_alone(&bad).is_err(), "{what}");
        }
        // Records without a lod object stay valid, with no lod check.
        let report = check_alone(&serve_record(3.0, true)).unwrap();
        assert!(report.checks.iter().all(|c| !c.what.starts_with("lod")));
    }

    #[test]
    fn serve_gate_rejects_malformed_records() {
        assert!(check_alone("not json").is_err());
        assert!(check_alone("{\"schema\": \"bench_serve/v2\"}").is_err());
        assert!(
            check_alone("{\"schema\": \"bench_serve/v3\", \"parity_ok\": true}").is_err(),
            "missing speedup must be an error"
        );
        let no_throughput = serve_record(3.0, true).replace("\"throughput_rps\": 76.5, ", "");
        assert!(check_alone(&no_throughput).is_err());
        let record = serve_record(3.0, true);
        assert!(check_serve_record(&record, None, f64::NAN).is_err());
        assert!(check_serve_record(&record, None, -1.0).is_err());
        // A reference must be a record too, and of the same workload.
        assert!(check_serve_record(&record, Some("not json"), 0.25).is_err());
        let smoke = record.replace("\"smoke\": false", "\"smoke\": true");
        let err = check_serve_record(&record, Some(&smoke), 0.25).unwrap_err();
        assert!(err.contains("a different workload"), "{err}");
        let longer = record.replace("\"total_frames\": 138", "\"total_frames\": 276");
        assert!(check_serve_record(&record, Some(&longer), 0.25).is_err());
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
    const MARKERS: [&str; 12] = [
        "REGRESSION",
        "MISSING",
        "SLOWER on a borrowed core",
        "COLLAPSED",
        "SLOWER",
        "FAILED",
        "REQUESTS STRANDED",
        "NOT RECOVERED",
        "DIVERGED",
        "STUCK ON THE FLOOR",
        "FRAMES LOST",
        "BELOW FLOOR",
    ];

    /// A gate call reduced to `(passed, rendered)`; `None` for a parse
    /// error.
    macro_rules! said {
        ($call:expr) => {
            $call.map(|report| (report.passed(), report.render())).ok()
        };
    }

    /// One fixture: its name, what the gate said of it, and what it must
    /// say.
    type Row = (&'static str, Option<(bool, String)>, Said);

    /// Every record fixture of the gate's unit tests through `compare`,
    /// `check_serve_record` and `replace_serve_record`, with the verdict
    /// the gate gives it: what a rebuild of the gate must leave as it is.
    #[test]
    fn every_fixture_keeps_its_verdict_and_marker_words() {
        use Said::{Fail, ParseError, Pass};
        let frame = |baseline: &str, current: &str, tolerance: f64| {
            said!(compare(baseline, current, tolerance))
        };
        let serve = |record: &str, reference: Option<&str>, tolerance: f64| {
            said!(check_serve_record(record, reference, tolerance))
        };
        let alone = |record: &str| serve(record, None, SERVE_TOLERANCE);
        let path = std::env::temp_dir().join(format!(
            "gcc_perf_gate_table_{}_BENCH_serve.json",
            std::process::id()
        ));
        let replace = |on_disk: Option<&str>, fresh: &str| {
            match on_disk {
                Some(text) => std::fs::write(&path, text).unwrap(),
                None => {
                    let _ = std::fs::remove_file(&path);
                }
            }
            said!(replace_serve_record(&path, fresh, SERVE_TOLERANCE))
        };

        // The frame gate's fixtures.
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

        // The serve gate's fixtures.
        let committed = serve_record(1.49, true);
        let at = |rps: f64, p95: f64| serve_record_at(rps, p95, 1.49, true);
        let with_rows = serve_record(1.7, true).replacen(
            "\"configs\"",
            "\"scenes\": [{\"id\": \"train\", \"gaussians\": 11000, \"bytes\": 2596141, \
             \"format\": \"json\", \"load_ms\": 35.567}], \"configs\"",
            1,
        );
        let classless = committed.replace("\"interactive\"", "\"background\"");
        let smoke = committed.replace("\"smoke\": false", "\"smoke\": true");
        let longer = committed.replace("\"total_frames\": 138", "\"total_frames\": 276");
        let lod_good = lod_record(0, 12, true, true);
        let floor = |frames_by_rung, cost_ms| {
            alone(&lod_record_with(
                (0, 40),
                true,
                true,
                frames_by_rung,
                cost_ms,
            ))
        };

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
            ("serve record alone", alone(&serve_record(3.2, true)), Pass),
            ("cheap loads alone", alone(&serve_record(1.1, true)), Pass),
            (
                "cheap loads against a reference",
                serve(&serve_record(1.1, true), Some(&committed), 0.25),
                Pass,
            ),
            (
                "throughput collapsed",
                serve(&at(50.0, 62.5), Some(&committed), SERVE_TOLERANCE),
                Fail(&["COLLAPSED"]),
            ),
            (
                "throughput within 25 %",
                serve(&at(70.0, 62.5), Some(&committed), SERVE_TOLERANCE),
                Pass,
            ),
            (
                "throughput at the tolerance",
                serve(&at(76.5 * 0.75, 62.5), Some(&committed), SERVE_TOLERANCE),
                Pass,
            ),
            (
                "throughput unchanged",
                serve(&at(76.5, 62.5), Some(&committed), SERVE_TOLERANCE),
                Pass,
            ),
            (
                "throughput up",
                serve(&at(120.0, 62.5), Some(&committed), SERVE_TOLERANCE),
                Pass,
            ),
            (
                "throughput past the tolerance",
                serve(&at(76.5 * 0.749, 62.5), Some(&committed), SERVE_TOLERANCE),
                Fail(&["COLLAPSED"]),
            ),
            (
                "interactive p95 blown up",
                serve(&at(76.5, 95.0), Some(&committed), SERVE_TOLERANCE),
                Fail(&["SLOWER"]),
            ),
            (
                "interactive p95 down",
                serve(&at(76.5, 40.0), Some(&committed), SERVE_TOLERANCE),
                Pass,
            ),
            (
                "interactive p95 at the tolerance",
                serve(&at(76.5, 62.5 * 1.25), Some(&committed), SERVE_TOLERANCE),
                Pass,
            ),
            (
                "interactive p95 past the tolerance",
                serve(&at(76.5, 62.5 * 1.26), Some(&committed), SERVE_TOLERANCE),
                Fail(&["SLOWER"]),
            ),
            (
                "interactive class lost",
                serve(&classless, Some(&committed), SERVE_TOLERANCE),
                Fail(&[]),
            ),
            ("first record", replace(None, &committed), Pass),
            (
                "replacing with a collapse",
                replace(Some(&committed), &at(50.0, 62.5)),
                Fail(&["COLLAPSED"]),
            ),
            (
                "replacing with a p95 blow-up",
                replace(Some(&committed), &at(76.5, 95.0)),
                Fail(&["SLOWER"]),
            ),
            (
                "replacing a smoke record",
                replace(Some(&smoke), &committed),
                ParseError,
            ),
            (
                "replacing a broken record",
                replace(Some("{"), &committed),
                ParseError,
            ),
            (
                "replacing with a held run",
                replace(Some(&committed), &serve_record_at(70.0, 70.0, 1.2, true)),
                Pass,
            ),
            (
                "replacing the held run",
                replace(
                    Some(&serve_record_at(70.0, 70.0, 1.2, true)),
                    &serve_record_at(55.0, 70.0, 1.2, true),
                ),
                Pass,
            ),
            ("scene rows", alone(&with_rows), Pass),
            (
                "broken parity",
                alone(&serve_record(9.0, false)),
                Fail(&["FAILED"]),
            ),
            ("clean chaos", alone(&chaos_record(3.0, true, 0)), Pass),
            (
                "stranded chaos",
                alone(&chaos_record(9.0, false, 0)),
                Fail(&["REQUESTS STRANDED"]),
            ),
            (
                "chaos lost a worker",
                alone(&chaos_record(9.0, true, 1)),
                Fail(&["NOT RECOVERED"]),
            ),
            (
                "chaos all_resolved not a bool",
                alone(
                    &chaos_record(3.0, true, 0)
                        .replace("\"all_resolved\": true", "\"all_resolved\": 1"),
                ),
                ParseError,
            ),
            (
                "chaos without lost_workers",
                alone(&chaos_record(3.0, true, 0).replace("\"lost_workers\": 0, ", "")),
                ParseError,
            ),
            ("clean wire", alone(&wire_record(3.0, 2, true, true)), Pass),
            (
                "stranded wire",
                alone(&wire_record(9.0, 2, false, true)),
                Fail(&["REQUESTS STRANDED"]),
            ),
            (
                "diverged wire",
                alone(&wire_record(9.0, 2, true, false)),
                Fail(&["DIVERGED"]),
            ),
            (
                "one-shard wire",
                alone(&wire_record(9.0, 1, true, true)),
                Fail(&["FAILED"]),
            ),
            (
                "wire parity_ok not a bool",
                alone(
                    &wire_record(3.0, 2, true, true)
                        .replace("\"parity_ok\": true", "\"parity_ok\": 1"),
                ),
                ParseError,
            ),
            (
                "wire without shards",
                alone(&wire_record(3.0, 2, true, true).replace("\"shards\": 2, ", "")),
                ParseError,
            ),
            ("clean lod", alone(&lod_good), Pass),
            (
                "lod ladder missed",
                alone(&lod_record(1, 12, true, true)),
                Fail(&["FAILED"]),
            ),
            (
                "lod exact run met the deadline",
                alone(&lod_record(0, 0, true, true)),
                Fail(&["FAILED"]),
            ),
            (
                "lod frames lost",
                alone(&lod_record(0, 12, false, true)),
                Fail(&["FRAMES LOST"]),
            ),
            (
                "lod below a quality floor",
                alone(&lod_record(0, 12, true, false)),
                Fail(&["BELOW FLOOR"]),
            ),
            (
                "lod on the floor while half_res fits",
                floor([0, 0, 1, 39], LEGO_COST_MS),
                Fail(&["STUCK ON THE FLOOR"]),
            ),
            (
                "lod on the floor, nothing better fits",
                floor([0, 0, 1, 39], [45.3, 24.0, 26.0, 7.8]),
                Pass,
            ),
            (
                "lod half on the floor",
                floor([0, 20, 0, 20], LEGO_COST_MS),
                Pass,
            ),
            (
                "lod most on the floor",
                floor([0, 19, 0, 21], LEGO_COST_MS),
                Fail(&["STUCK ON THE FLOOR"]),
            ),
            (
                "lod quality_ok not a bool",
                alone(&lod_good.replace("\"quality_ok\": true", "\"quality_ok\": 1")),
                ParseError,
            ),
            (
                "lod without misses_ladder_on",
                alone(&lod_good.replace("\"misses_ladder_on\": 0, ", "")),
                ParseError,
            ),
            (
                "lod without margin",
                alone(&lod_good.replace("\"margin\": 1.3, ", "")),
                ParseError,
            ),
            (
                "lod rung without cost",
                alone(&lod_good.replace("\"cost_ms\": 18, ", "")),
                ParseError,
            ),
            (
                "lod rungs priced and dispatched differ",
                alone(&lod_good.replace("[0, 38, 1, 1]", "[0, 38, 2]")),
                ParseError,
            ),
            (
                "lod frames_by_rung not an array",
                alone(&lod_good.replace("[0, 38, 1, 1]", "7")),
                ParseError,
            ),
            ("serve record not json", alone("not json"), ParseError),
            (
                "serve record of another schema",
                alone("{\"schema\": \"bench_serve/v2\"}"),
                ParseError,
            ),
            (
                "serve record without speedup",
                alone("{\"schema\": \"bench_serve/v3\", \"parity_ok\": true}"),
                ParseError,
            ),
            (
                "serve record without throughput",
                alone(&committed.replace("\"throughput_rps\": 76.5, ", "")),
                ParseError,
            ),
            (
                "serve NaN tolerance",
                serve(&committed, None, f64::NAN),
                ParseError,
            ),
            (
                "serve negative tolerance",
                serve(&committed, None, -1.0),
                ParseError,
            ),
            (
                "reference not json",
                serve(&committed, Some("not json"), 0.25),
                ParseError,
            ),
            (
                "smoke reference",
                serve(&committed, Some(&smoke), 0.25),
                ParseError,
            ),
            (
                "reference of another length",
                serve(&committed, Some(&longer), 0.25),
                ParseError,
            ),
        ];
        let _ = std::fs::remove_file(&path);

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
