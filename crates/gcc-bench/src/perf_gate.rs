//! Comparison logic of the CI perf gate: `BENCH_frame.json` (current run)
//! vs `ci/bench_baseline.json` (committed reference), cell by cell.
//!
//! A *cell* is one `(scene, scale, engine, parallelism)` combination; the
//! gate fails when any cell's `ms_per_frame` exceeds its baseline by more
//! than the tolerance, or when a baseline cell is missing from the
//! current run (coverage must not silently shrink). Cells new in the
//! current run are reported but do not fail the gate, so adding sweep
//! points doesn't require touching the baseline in the same PR.
//!
//! One more rule reads the current record alone, as a ratio taken within
//! one run, which does not depend on the host the run was made on: on
//! every scene and engine that carries both a `sequential` and a `fixed2`
//! cell, the two-thread cell may not be more than [`BORROW_TOLERANCE`]
//! slower than the one-thread cell ([`borrowed_cores`]): `gcc-serve` lends
//! every frame and every load the idle cores, so work that cannot use a
//! second core must at least not pay for being offered one.
//!
//! The other within-record ratio is reported and does not gate: per scene,
//! the sequential Gaussian-wise frame over the standard one
//! ([`schedule_orderings`]). From PR 16 to PR 22 the gate failed a record
//! where that ratio exceeded 1, and it held at 0.68–0.76 — because PR 16
//! had vectorised the Gaussian-wise schedule's front half (`block_pass`,
//! `block_powers`) while the tile-wise baseline still solved its spans and
//! ran its power chains scalar. With `row_spans` and `span_powers` the
//! baseline's front half is vectorised too and the ratio sits at
//! 0.97–1.08: a rule that only a slow baseline satisfies rewards the
//! defect, the way `SERVE_SPEEDUP_FLOOR` rewarded a slow scene parser.
//! Each schedule's cells stay held to the baseline record by the per-cell
//! tolerance, so neither can get slower unnoticed; what the paper claims
//! for the schedule is less *work* (`FrameStats`, the simulator), and
//! wall-clock on two cores is ROADMAP item 2(b).
//!
//! The logic lives in the library (not the `perf_gate` binary) so the
//! gate's fail-on-regression behavior is pinned by unit tests — CI runs
//! the same code the tests cover.

use gcc_scene::json::{self, Value};
use std::path::Path;

/// One measured cell of a `bench_frame` record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Scene name.
    pub scene: String,
    /// Scene count scale.
    pub scale: f32,
    /// Engine id.
    pub engine: String,
    /// Parallelism label (`sequential` / `auto`).
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

/// The sequential cells of the two schedules on one scene of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOrdering {
    /// `scene@scale`.
    pub scene: String,
    /// `standard_frame_engine`, sequential, milliseconds per frame.
    pub standard_ms: f64,
    /// `gaussian_wise_frame_engine`, sequential, milliseconds per frame.
    pub gaussian_wise_ms: f64,
}

impl ScheduleOrdering {
    /// `gaussian_wise ÷ standard` (> 1: the paper's schedule is slower).
    /// Reported, not gated: see the module documentation.
    pub fn ratio(&self) -> f64 {
        self.gaussian_wise_ms / self.standard_ms
    }
}

/// Pairs the sequential standard and Gaussian-wise cells of every scene
/// of a record that has both, in record order.
pub fn schedule_orderings(cells: &[BenchCell]) -> Vec<ScheduleOrdering> {
    let sequential = |engine: &'static str| {
        cells
            .iter()
            .filter(move |c| c.engine == engine && c.parallelism == "sequential")
    };
    sequential("standard_frame_engine")
        .filter_map(|s| {
            let g = sequential("gaussian_wise_frame_engine")
                .find(|g| g.scene == s.scene && g.scale == s.scale)?;
            Some(ScheduleOrdering {
                scene: format!("{}@{}", s.scene, s.scale),
                standard_ms: s.ms_per_frame,
                gaussian_wise_ms: g.ms_per_frame,
            })
        })
        .collect()
}

/// How much slower than its `sequential` cell a `fixed2` cell may be
/// (run-to-run noise on cells that gain nothing from the second thread
/// sits within ±3 %).
pub const BORROW_TOLERANCE: f64 = 1.10;

/// The one-thread and two-thread cells of one scene and engine of a
/// record.
#[derive(Debug, Clone, PartialEq)]
pub struct BorrowedCore {
    /// `scene@scale/engine`.
    pub cell: String,
    /// The `sequential` cell, milliseconds.
    pub sequential_ms: f64,
    /// The `fixed2` cell, milliseconds.
    pub fixed2_ms: f64,
}

impl BorrowedCore {
    /// `fixed2 ÷ sequential` (> 1: the second thread cost time).
    pub fn ratio(&self) -> f64 {
        self.fixed2_ms / self.sequential_ms
    }

    /// `true` when the second thread cost at most [`BORROW_TOLERANCE`].
    pub fn holds(&self) -> bool {
        self.ratio() <= BORROW_TOLERANCE
    }
}

/// Pairs the `sequential` and `fixed2` cells of every scene and engine of
/// a record that has both, in record order.
pub fn borrowed_cores(cells: &[BenchCell]) -> Vec<BorrowedCore> {
    cells
        .iter()
        .filter(|c| c.parallelism == "sequential")
        .filter_map(|s| {
            let two = cells.iter().find(|c| {
                c.parallelism == "fixed2"
                    && c.engine == s.engine
                    && c.scene == s.scene
                    && c.scale == s.scale
            })?;
            Some(BorrowedCore {
                cell: format!("{}@{}/{}", s.scene, s.scale, s.engine),
                sequential_ms: s.ms_per_frame,
                fixed2_ms: two.ms_per_frame,
            })
        })
        .collect()
}

/// One baseline-vs-current cell comparison.
#[derive(Debug, Clone)]
pub struct CellComparison {
    /// Cell identity ([`BenchCell::key`]).
    pub key: String,
    /// Baseline milliseconds per frame.
    pub baseline_ms: f64,
    /// Current milliseconds per frame.
    pub current_ms: f64,
    /// `current / baseline` (> 1 is slower).
    pub ratio: f64,
    /// `true` when the slowdown exceeds the tolerance.
    pub regressed: bool,
}

/// Full gate outcome.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Relative tolerance the gate ran with (0.25 = fail beyond +25%).
    pub tolerance: f64,
    /// Matched cells, in baseline order.
    pub cells: Vec<CellComparison>,
    /// Baseline cells absent from the current run (fails the gate).
    pub missing_in_current: Vec<String>,
    /// Current cells absent from the baseline (informational).
    pub new_in_current: Vec<String>,
    /// Schedule ordering per scene of the current record (reported; no
    /// part of [`Self::passed`]).
    pub orderings: Vec<ScheduleOrdering>,
    /// What a second thread did to each scene and engine of the current
    /// record (fails the gate where it cost more than the tolerance).
    pub borrowed: Vec<BorrowedCore>,
}

impl GateReport {
    /// `true` when no cell regressed, no baseline coverage was lost and no
    /// engine of the current record is slower on two threads than on one.
    pub fn passed(&self) -> bool {
        self.missing_in_current.is_empty()
            && self.cells.iter().all(|c| !c.regressed)
            && self.borrowed.iter().all(BorrowedCore::holds)
    }

    /// One-line failure summaries, one per regressed cell: the offending
    /// cell's baseline and current milliseconds side by side plus the
    /// percentage delta against the tolerance. Empty when nothing
    /// regressed. These are the lines a CI log reader needs first, so
    /// [`Self::render`] repeats them in a block right above the verdict.
    pub fn regression_lines(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter(|c| c.regressed)
            .map(|c| {
                format!(
                    "REGRESSED {}: baseline {:.4} ms vs current {:.4} ms ({:+.1}% > +{:.0}% tolerated)",
                    c.key,
                    c.baseline_ms,
                    c.current_ms,
                    (c.ratio - 1.0) * 100.0,
                    self.tolerance * 100.0,
                )
            })
            .collect()
    }

    /// Human-readable per-cell report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "{} {:>10.4} ms -> {:>10.4} ms  ({:+.1}%){}\n",
                c.key,
                c.baseline_ms,
                c.current_ms,
                (c.ratio - 1.0) * 100.0,
                if c.regressed { "  REGRESSION" } else { "" },
            ));
        }
        for k in &self.missing_in_current {
            out.push_str(&format!("{k}  MISSING from current run\n"));
        }
        for k in &self.new_in_current {
            out.push_str(&format!("{k}  new (not in baseline)\n"));
        }
        for o in &self.orderings {
            out.push_str(&format!(
                "{} gaussian_wise / standard (sequential): {:.4} / {:.4} ms = {:.2}{}\n",
                o.scene,
                o.gaussian_wise_ms,
                o.standard_ms,
                o.ratio(),
                if o.ratio() > 1.0 {
                    "  slower than standard (reported, not gated)"
                } else {
                    ""
                },
            ));
        }
        for b in &self.borrowed {
            out.push_str(&format!(
                "{} fixed2 / sequential: {:.4} / {:.4} ms = {:.2}{}\n",
                b.cell,
                b.fixed2_ms,
                b.sequential_ms,
                b.ratio(),
                if b.holds() {
                    ""
                } else {
                    "  SLOWER on a borrowed core"
                },
            ));
        }
        for line in self.regression_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&format!(
            "perf gate: {} (tolerance +{:.0}%)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.tolerance * 100.0
        ));
        out
    }
}

/// Compares two `bench_frame` records cell-by-cell.
///
/// # Errors
///
/// Propagates parse errors from either record and rejects a non-finite
/// or negative tolerance.
pub fn compare(
    baseline_text: &str,
    current_text: &str,
    tolerance: f64,
) -> Result<GateReport, String> {
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!("invalid tolerance {tolerance}"));
    }
    let baseline = parse_bench_cells(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let current = parse_bench_cells(current_text).map_err(|e| format!("current: {e}"))?;
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline {
        match current.iter().find(|c| c.key() == b.key()) {
            Some(c) => {
                let ratio = c.ms_per_frame / b.ms_per_frame;
                cells.push(CellComparison {
                    key: b.key(),
                    baseline_ms: b.ms_per_frame,
                    current_ms: c.ms_per_frame,
                    ratio,
                    regressed: ratio > 1.0 + tolerance,
                });
            }
            None => missing.push(b.key()),
        }
    }
    let new_in_current = current
        .iter()
        .filter(|c| !baseline.iter().any(|b| b.key() == c.key()))
        .map(BenchCell::key)
        .collect();
    Ok(GateReport {
        tolerance,
        cells,
        missing_in_current: missing,
        new_in_current,
        orderings: schedule_orderings(&current),
        borrowed: borrowed_cores(&current),
    })
}

/// Chaos-phase summary of a record produced by `bench_serve --chaos`.
/// When present, the gate requires the storm to have resolved cleanly:
/// a stranded request or a worker lost for good fails the gate even if
/// the throughput floor holds.
#[derive(Debug, Clone)]
pub struct ChaosGate {
    /// Every storm request resolved (or was turned away with a typed
    /// error) and the fault-free recovery replay delivered every frame.
    pub all_resolved: bool,
    /// Panicked workers caught and respawned during the storm.
    pub respawns: u64,
    /// Workers that panicked past the restart budget and stayed lost.
    pub lost_workers: u64,
}

impl ChaosGate {
    /// `true` when the storm resolved cleanly and the pool recovered.
    pub fn passed(&self) -> bool {
        self.all_resolved && self.lost_workers == 0
    }
}

/// Wire-deployment summary of a record produced by `bench_serve --wire`:
/// real `gcc-served` shard processes behind a `gcc-shard` consistent-hash
/// proxy over loopback. When present, the gate requires a genuinely
/// sharded fleet (at least two backends), every client request resolved
/// (typed rejections count as resolved) and every frame delivered over
/// TCP bit-identical to a direct in-process render.
#[derive(Debug, Clone)]
pub struct WireGate {
    /// Backend `gcc-served` processes behind the proxy.
    pub shards: u64,
    /// Every client request through the proxy resolved and the fleet
    /// drained to clean exit codes on the wire `Shutdown` request.
    pub all_resolved: bool,
    /// Every wire-delivered frame matched its direct render bit-for-bit.
    pub parity_ok: bool,
}

impl WireGate {
    /// `true` when the fleet was sharded, nothing stranded, and the
    /// frames that crossed the wire were bit-identical.
    pub fn passed(&self) -> bool {
        self.shards >= 2 && self.all_resolved && self.parity_ok
    }
}

/// LOD-phase summary of a record produced by `bench_serve --lod`: the
/// same deadline-carrying orbit served with and without the adaptive
/// quality ladder. When present, the gate requires the degradation
/// contract to hold: the ladder run missed zero deadlines while the
/// exact run missed at least one (the deadline was genuinely
/// unmeetable at full quality), every frame of both runs was delivered,
/// every rung's measured PSNR/SSIM met its documented floor — and the
/// ladder delivered quality, not just deadlines: it did not spend most
/// of its frames on the floor rung while a better rung's recorded cost
/// fit the deadline ([`Self::floor_justified`]).
#[derive(Debug, Clone)]
pub struct LodGate {
    /// Deadline misses of the ladder-on run (must be zero).
    pub misses_ladder_on: u64,
    /// Deadline misses of the ladder-off run (must be at least one).
    pub misses_ladder_off: u64,
    /// Frames the ladder dispatched at a degraded rung.
    pub degraded_frames: u64,
    /// Every frame of both runs was delivered.
    pub all_resolved: bool,
    /// Every rung's measured quality met its documented floor.
    pub quality_ok: bool,
    /// The per-frame deadline of both runs, ms.
    pub deadline_ms: f64,
    /// The ladder run's dispatch margin: a rung fits when its cost times
    /// this is within the deadline.
    pub margin: f64,
    /// Frames the ladder run dispatched per rung, best rung first.
    pub frames_by_rung: Vec<u64>,
    /// Recorded served cost of each rung, ms, best rung first.
    pub rung_cost_ms: Vec<f64>,
}

impl LodGate {
    /// `true` unless the floor rung holds more than half of the ladder
    /// run's frames although a better rung's recorded cost × margin fits
    /// the deadline. Zero misses are cheap to get by never leaving the
    /// floor; only a deadline nothing better fits excuses it.
    pub fn floor_justified(&self) -> bool {
        let Some((&floor_frames, better)) = self.frames_by_rung.split_last() else {
            return true;
        };
        let frames = floor_frames + better.iter().sum::<u64>();
        let better_fits = self.rung_cost_ms[..better.len()]
            .iter()
            .any(|cost| cost * self.margin <= self.deadline_ms);
        floor_frames * 2 <= frames || !better_fits
    }

    /// `true` when the ladder beat the deadline the exact run could not,
    /// without dropping frames, violating a quality floor or hiding on
    /// the floor rung.
    pub fn passed(&self) -> bool {
        self.misses_ladder_on == 0
            && self.misses_ladder_off >= 1
            && self.all_resolved
            && self.quality_ok
            && self.floor_justified()
    }
}

/// What the serve gate holds a record to when it is given a reference
/// record of the same workload (the committed `BENCH_serve.json`): the
/// two numbers a client of the service feels.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReference {
    /// The reference's `batched_lru` `throughput_rps`.
    pub throughput_rps: f64,
    /// The reference's `batched_lru` Interactive p95 latency, ms.
    pub interactive_p95_ms: Option<f64>,
}

/// Outcome of the serve gate on a `bench_serve/v3` record: the record's
/// own serve-vs-direct parity pass must have succeeded and, against a
/// reference record of the same workload, the `batched_lru`
/// configuration's throughput may not have fallen, nor its Interactive
/// p95 latency risen, by more than the tolerance. `speedup_vs_naive` is
/// carried along and reported, not gated: it is `batched_lru` over the
/// load-render-evict strawman, so it *falls* whenever a scene load gets
/// cheaper (6.1 → 2.3 → 1.49 over three decoder PRs, with `batched_lru`
/// itself unchanged) — a gate on it punishes exactly that. The Bulk p95
/// of the batched configuration is reported too (the
/// Interactive-beats-Bulk ordering is enforced by `bench_serve` itself in
/// full mode, where the workload is heavy enough for the comparison to be
/// meaningful). A record carrying a `"chaos"` object additionally must
/// have resolved its fault storm cleanly ([`ChaosGate`]); one carrying a
/// `"wire"` object must have held the deployment contract ([`WireGate`]);
/// one carrying a `"lod"` object must have held the deadline-degradation
/// contract ([`LodGate`]).
#[derive(Debug, Clone)]
pub struct ServeGateReport {
    /// Relative tolerance against the reference (0.25 = fail beyond 25 %).
    pub tolerance: f64,
    /// The reference's numbers, when the gate was given one.
    pub reference: Option<ServeReference>,
    /// `batched_lru` throughput, requests per second.
    pub throughput_rps: f64,
    /// Measured batched/naive throughput ratio (reported only).
    pub speedup_vs_naive: f64,
    /// Whether the record's serve-vs-direct parity check passed.
    pub parity_ok: bool,
    /// Batched-config Interactive p95 latency, ms (absent when the
    /// workload had no interactive traffic).
    pub interactive_p95_ms: Option<f64>,
    /// Batched-config Bulk p95 latency, ms (absent when the workload had
    /// no bulk traffic).
    pub bulk_p95_ms: Option<f64>,
    /// Chaos-phase summary when the record was produced with `--chaos`.
    pub chaos: Option<ChaosGate>,
    /// Wire-deployment summary when the record was produced with
    /// `--wire`.
    pub wire: Option<WireGate>,
    /// LOD-phase summary when the record was produced with `--lod`.
    pub lod: Option<LodGate>,
}

impl ServeGateReport {
    /// `true` unless throughput fell below the reference's by more than
    /// the tolerance (no reference: nothing to fall below).
    pub fn throughput_holds(&self) -> bool {
        self.reference
            .as_ref()
            .is_none_or(|r| self.throughput_rps >= r.throughput_rps * (1.0 - self.tolerance))
    }

    /// `true` unless Interactive p95 rose above the reference's by more
    /// than the tolerance. A reference that has the class while the
    /// record lost it does not hold.
    pub fn interactive_p95_holds(&self) -> bool {
        let Some(reference) = self.reference.as_ref().and_then(|r| r.interactive_p95_ms) else {
            return true;
        };
        self.interactive_p95_ms
            .is_some_and(|ms| ms <= reference * (1.0 + self.tolerance))
    }

    /// Both comparisons with the reference: what a fresh record must
    /// hold before it may replace it ([`replace_serve_record`]).
    pub fn holds_reference(&self) -> bool {
        self.throughput_holds() && self.interactive_p95_holds()
    }

    /// `true` when parity held, throughput and Interactive p95 are within
    /// the tolerance of the reference's, and — for chaos/wire/lod records
    /// — the fault storm resolved cleanly, the sharded deployment held
    /// its contract, and the quality ladder beat its deadline within the
    /// documented quality floors.
    pub fn passed(&self) -> bool {
        self.parity_ok
            && self.holds_reference()
            && self.chaos.as_ref().is_none_or(ChaosGate::passed)
            && self.wire.as_ref().is_none_or(WireGate::passed)
            && self.lod.as_ref().is_none_or(LodGate::passed)
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let against = |now: f64, then: Option<f64>, holds: bool, worse: &str| match then {
            Some(then) => format!(
                " vs reference {then:.2} ({:+.1}%, {:.0}% tolerated){}",
                (now / then - 1.0) * 100.0,
                self.tolerance * 100.0,
                if holds { "" } else { worse },
            ),
            None => String::new(),
        };
        let reference = self.reference.as_ref();
        let mut out = format!(
            "serve throughput: {:.2} rps{}\n",
            self.throughput_rps,
            against(
                self.throughput_rps,
                reference.map(|r| r.throughput_rps),
                self.throughput_holds(),
                "  COLLAPSED",
            ),
        );
        out.push_str(&format!(
            "serve speedup vs naive: {:.2}x (reported, not gated)\n",
            self.speedup_vs_naive
        ));
        out.push_str(&format!(
            "serve parity: {}\n",
            if self.parity_ok { "ok" } else { "FAILED" }
        ));
        if let Some(i) = self.interactive_p95_ms {
            out.push_str(&format!("batched p95: interactive {i:.2} ms"));
            if let Some(b) = self.bulk_p95_ms {
                out.push_str(&format!(" vs bulk {b:.2} ms"));
            }
            out.push_str(&against(
                i,
                reference.and_then(|r| r.interactive_p95_ms),
                self.interactive_p95_holds(),
                "  SLOWER",
            ));
            out.push('\n');
        } else if !self.interactive_p95_holds() {
            out.push_str("batched p95: no interactive class where the reference has one\n");
        }
        if let Some(c) = &self.chaos {
            out.push_str(&format!(
                "chaos storm: {} ({} respawns, {} lost workers){}\n",
                if c.all_resolved {
                    "all requests resolved"
                } else {
                    "REQUESTS STRANDED"
                },
                c.respawns,
                c.lost_workers,
                if c.passed() { "" } else { "  NOT RECOVERED" },
            ));
        }
        if let Some(w) = &self.wire {
            out.push_str(&format!(
                "wire fleet: {} shards, {}, frame parity {}{}\n",
                w.shards,
                if w.all_resolved {
                    "all requests resolved"
                } else {
                    "REQUESTS STRANDED"
                },
                if w.parity_ok { "ok" } else { "DIVERGED" },
                if w.passed() { "" } else { "  FAILED" },
            ));
        }
        if let Some(l) = &self.lod {
            out.push_str(&format!(
                "lod ladder: {} misses vs {} ladder-off ({} degraded frames, rungs {:?}{}), {}, \
                 quality {}{}\n",
                l.misses_ladder_on,
                l.misses_ladder_off,
                l.degraded_frames,
                l.frames_by_rung,
                if l.floor_justified() {
                    ""
                } else {
                    " STUCK ON THE FLOOR"
                },
                if l.all_resolved {
                    "all frames delivered"
                } else {
                    "FRAMES LOST"
                },
                if l.quality_ok { "ok" } else { "BELOW FLOOR" },
                if l.passed() { "" } else { "  FAILED" },
            ));
        }
        out.push_str(&format!(
            "serve gate: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// How far below the reference's throughput, or above its Interactive
/// p95, a record may land before the serve gate fails: what a full-mode
/// `bench_serve` run holds itself to against the committed record before
/// it replaces it ([`replace_serve_record`]). Seven same-host
/// full runs in one hour spread 80.7–93.9 rps and, the p95 of a class
/// with 24 requests being its second-slowest one, 44.6–74.5 ms.
pub const SERVE_TOLERANCE: f64 = 0.25;

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
    let throughput_rps = batched
        .get("throughput_rps")
        .and_then(Value::as_f32)
        .map(f64::from)
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or("batched_lru: missing positive number 'throughput_rps'")?;
    // Per-priority p95s, if present.
    let (mut interactive, mut bulk) = (None, None);
    if let Some(prios) = batched.get("per_priority").and_then(Value::as_arr) {
        for p in prios {
            let p95 = p
                .get("latency_p95_ms")
                .and_then(Value::as_f32)
                .map(f64::from);
            match p.get("priority").and_then(Value::as_str) {
                Some("interactive") => interactive = p95,
                Some("bulk") => bulk = p95,
                _ => {}
            }
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

/// Checks a `bench_serve/v3` record: its own contracts, and — given the
/// text of a `reference` record, the committed one — its throughput and
/// Interactive p95 against the reference's, within `tolerance`.
///
/// # Errors
///
/// Returns a message for malformed JSON, a record of the wrong schema,
/// missing fields, an invalid tolerance, or a reference that is not a
/// record of the same workload (a smoke run against a full one, another
/// request count): its numbers say nothing about this record's.
pub fn check_serve_record(
    text: &str,
    reference: Option<&str>,
    tolerance: f64,
) -> Result<ServeGateReport, String> {
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!("invalid serve tolerance {tolerance}"));
    }
    let doc = parse_serve_record(text)?;
    // Read at full width: what is printed is what was recorded.
    let speedup = match doc.get("speedup_vs_naive") {
        Some(Value::Num(token)) => token.parse::<f64>().ok(),
        _ => None,
    }
    .filter(|v| v.is_finite())
    .ok_or("missing number 'speedup_vs_naive'")?;
    let parity_ok = match doc.get("parity_ok") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("missing bool 'parity_ok'".into()),
    };
    let (throughput_rps, interactive_p95_ms, bulk_p95_ms) = batched_lru(&doc)?;
    let reference = match reference {
        None => None,
        Some(text) => {
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
            let (throughput_rps, interactive_p95_ms, _) =
                batched_lru(&reference).map_err(|e| format!("reference: {e}"))?;
            Some(ServeReference {
                throughput_rps,
                interactive_p95_ms,
            })
        }
    };
    // A chaos record must carry a complete summary — a present-but-
    // malformed "chaos" object is an error, not a silent pass.
    let chaos = match doc.get("chaos") {
        None => None,
        Some(c) => {
            let all_resolved = match c.get("all_resolved") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("chaos: missing bool 'all_resolved'".into()),
            };
            let count = |k: &str| -> Result<u64, String> {
                c.get(k)
                    .and_then(Value::as_f32)
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .map(|v| v as u64)
                    .ok_or(format!("chaos: missing count '{k}'"))
            };
            Some(ChaosGate {
                all_resolved,
                respawns: count("respawns")?,
                lost_workers: count("lost_workers")?,
            })
        }
    };
    // Same contract for a wire record: a present-but-malformed "wire"
    // object is an error, not a silent pass.
    let wire = match doc.get("wire") {
        None => None,
        Some(w) => {
            let flag = |k: &str| -> Result<bool, String> {
                match w.get(k) {
                    Some(Value::Bool(b)) => Ok(*b),
                    _ => Err(format!("wire: missing bool '{k}'")),
                }
            };
            let shards = w
                .get("shards")
                .and_then(Value::as_f32)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .map(|v| v as u64)
                .ok_or("wire: missing count 'shards'")?;
            Some(WireGate {
                shards,
                all_resolved: flag("all_resolved")?,
                parity_ok: flag("parity_ok")?,
            })
        }
    };
    // And for a lod record: a present-but-malformed "lod" object is an
    // error, not a silent pass.
    let lod = match doc.get("lod") {
        None => None,
        Some(l) => {
            let flag = |k: &str| -> Result<bool, String> {
                match l.get(k) {
                    Some(Value::Bool(b)) => Ok(*b),
                    _ => Err(format!("lod: missing bool '{k}'")),
                }
            };
            let number = |v: Option<&Value>, what: &str| -> Result<f64, String> {
                v.and_then(Value::as_f32)
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .map(f64::from)
                    .ok_or(format!("lod: missing number '{what}'"))
            };
            let count = |k: &str| number(l.get(k), k).map(|n| n as u64);
            let list = |k: &str| {
                l.get(k)
                    .and_then(Value::as_arr)
                    .ok_or(format!("lod: missing array '{k}'"))
            };
            let frames_by_rung = list("frames_by_rung")?
                .iter()
                .map(|v| number(Some(v), "frames_by_rung").map(|n| n as u64))
                .collect::<Result<Vec<_>, _>>()?;
            let rung_cost_ms = list("rungs")?
                .iter()
                .map(|r| number(r.get("cost_ms"), "rungs[].cost_ms"))
                .collect::<Result<Vec<_>, _>>()?;
            if frames_by_rung.len() != rung_cost_ms.len() {
                return Err(format!(
                    "lod: {} rungs dispatched but {} priced",
                    frames_by_rung.len(),
                    rung_cost_ms.len()
                ));
            }
            Some(LodGate {
                misses_ladder_on: count("misses_ladder_on")?,
                misses_ladder_off: count("misses_ladder_off")?,
                degraded_frames: count("degraded_frames")?,
                all_resolved: flag("all_resolved")?,
                quality_ok: flag("quality_ok")?,
                deadline_ms: number(l.get("deadline_ms"), "deadline_ms")?,
                margin: number(l.get("margin"), "margin")?,
                frames_by_rung,
                rung_cost_ms,
            })
        }
    };
    Ok(ServeGateReport {
        tolerance,
        reference,
        throughput_rps,
        speedup_vs_naive: speedup,
        parity_ok,
        interactive_p95_ms,
        bulk_p95_ms,
        chaos,
        wire,
        lod,
    })
}

/// Holds the fresh full-mode record `fresh` to the record at `path` —
/// the committed one, which this run means to replace — and writes it
/// there only if it holds ([`ServeGateReport::holds_reference`]): a run
/// that fails the gate leaves its reference as it was, so the next run is
/// compared with the same numbers and not with the collapse. No file at
/// `path` is a first record, with nothing to hold against.
///
/// # Errors
///
/// As [`check_serve_record`], and for a filesystem failure. A record at
/// `path` that is unreadable or of another workload (a smoke record left
/// by `--smoke`, another request count) is an error too, with the file
/// untouched: an unchecked run does not become the reference by accident
/// — restore the committed record, or delete it to start a new one.
pub fn replace_serve_record(
    path: &Path,
    fresh: &str,
    tolerance: f64,
) -> Result<ServeGateReport, String> {
    let at = |e: std::io::Error| format!("{}: {e}", path.display());
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(at(e)),
    };
    let report = check_serve_record(fresh, committed.as_deref(), tolerance)?;
    if report.holds_reference() {
        std::fs::write(path, fresh).map_err(at)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve gate on `record` alone, as CI runs it on a record that
    /// has no reference of its own workload.
    fn check_alone(record: &str) -> Result<ServeGateReport, String> {
        check_serve_record(record, None, SERVE_TOLERANCE)
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
        assert_eq!(report.cells.len(), 3);
        assert!(report.missing_in_current.is_empty());
        assert!(report.new_in_current.is_empty());
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
        let bad: Vec<&CellComparison> = report.cells.iter().filter(|c| c.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(
            bad[0].key,
            "Train@0.02/gaussian_wise_frame_engine/sequential"
        );
        assert!((bad[0].ratio - 1.55).abs() < 1e-9);
        assert!(report.render().contains("REGRESSION"));
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
        let lines = report.regression_lines();
        assert_eq!(lines.len(), 2, "one line per regressed cell: {lines:?}");
        // Baseline and current land side by side with the percent delta.
        assert_eq!(
            lines[0],
            "REGRESSED Lego@0.05/standard_frame_engine/sequential: \
             baseline 10.0000 ms vs current 26.0000 ms (+160.0% > +25% tolerated)"
        );
        assert!(lines[1].contains("Train@0.02/gaussian_wise_frame_engine/sequential"));
        assert!(lines[1].contains("baseline 20.0000 ms vs current 31.0000 ms"));
        assert!(lines[1].contains("+55.0%"));
        // The rendered report carries the summary block too.
        let rendered = report.render();
        for line in &lines {
            assert!(rendered.contains(line.as_str()), "render misses: {line}");
        }
        // A clean run produces no summary lines.
        assert!(compare(&baseline(), &baseline(), 0.25)
            .unwrap()
            .regression_lines()
            .is_empty());
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
        let report = compare(&both(2.7), &both(2.9), 0.25).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.orderings.len(), 1, "Train has one schedule only");
        assert!((report.orderings[0].ratio() - 2.9 / 3.0).abs() < 1e-6);
        assert!(!report.render().contains("slower than standard"));

        let report = compare(&both(2.7), &both(3.3), 0.25).unwrap();
        assert!(report.cells.iter().all(|c| !c.regressed));
        assert!(report.passed(), "{}", report.render());
        let rendered = report.render();
        assert!(rendered.contains("Lego@0.05 gaussian_wise / standard (sequential)"));
        assert!(rendered.contains("= 1.10  slower than standard (reported, not gated)"));
        assert!(rendered.contains("PASS"));

        // What does hold the schedule: its own cell against the baseline.
        // A Gaussian-wise frame 30 % slower than its record fails, however
        // it compares with the standard frame beside it.
        let report = compare(&both(2.0), &both(2.6), 0.25).unwrap();
        assert!(report.orderings[0].ratio() < 1.0);
        assert!(!report.passed());
        assert_eq!(
            report.regression_lines(),
            [
                "REGRESSED Lego@0.05/gaussian_wise_frame_engine/sequential: \
              baseline 2.0000 ms vs current 2.6000 ms (+30.0% > +25% tolerated)"
            ]
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
        let cells: Vec<&str> = report.borrowed.iter().map(|b| b.cell.as_str()).collect();
        assert_eq!(
            cells,
            [
                "Lego@0.5/standard_frame_engine",
                "Lego@0.5/gaussian_wise_frame_engine",
                "Lego@0.5/build_hierarchy"
            ]
        );
        // The parent's builder: 8.0 ms on two threads against 6.1 on one.
        let report = compare(&with(6.6), &with(8.0), 0.25).unwrap();
        assert!(report.cells.iter().all(|c| !c.regressed));
        assert!(!report.passed());
        let rendered = report.render();
        assert!(rendered.contains("Lego@0.5/build_hierarchy fixed2 / sequential"));
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
        let cells: Vec<&str> = report.borrowed.iter().map(|b| b.cell.as_str()).collect();
        assert_eq!(cells, ["Lego@0.5/build_preset", "Lego@0.5/load_json"]);
        // A scout that cannot keep its fillers fed, a span walk that costs
        // what it saves: each within 25 % of a baseline that already had
        // it (so no cell "regressed"), and each caught by its own pair.
        for (bad, cell) in [
            (with(16.2, 12.4), "Lego@0.5/build_preset"),
            (with(8.8, 21.5), "Lego@0.5/load_json"),
        ] {
            let report = compare(&bad, &bad, 0.25).unwrap();
            assert!(report.cells.iter().all(|c| !c.regressed));
            assert!(!report.passed(), "{cell}");
            let line = format!("{cell} fixed2 / sequential");
            let rendered = report.render();
            let flagged: Vec<&str> = rendered
                .lines()
                .filter(|l| l.contains("SLOWER on a borrowed core"))
                .collect();
            assert_eq!(flagged.len(), 1, "{rendered}");
            assert!(flagged[0].starts_with(&line), "{rendered}");
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
        assert!(report.cells.iter().all(|c| c.ratio < 1.0 + 1e-12));
    }

    #[test]
    fn missing_baseline_cell_fails_new_cell_does_not() {
        let current = record(&[
            ("Lego", 0.05, "standard_frame_engine", "sequential", 10.0),
            ("Lego", 0.05, "standard_frame_engine", "auto", 4.0),
        ]);
        let report = compare(&baseline(), &current, 0.25).unwrap();
        assert!(!report.passed());
        assert_eq!(report.missing_in_current.len(), 1);

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
            report.new_in_current,
            vec!["Truck@0.02/standard_frame_engine/sequential".to_string()]
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
            report.new_in_current,
            vec!["Lego@0.05/standard_frame_engine/fixed2".to_string()]
        );
        let shrunk = newer(&[("Lego", "sequential", 9.0), ("Lego", "fixed2", 5.0)]);
        let report = compare(&baseline, &shrunk, 0.25).unwrap();
        assert!(!report.passed());
        assert_eq!(
            report.missing_in_current,
            vec!["Lego@0.05/standard_frame_engine/auto".to_string()]
        );
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
        assert!((report.speedup_vs_naive - 3.2).abs() < 1e-6);
        assert_eq!(report.throughput_rps, 76.5);
        assert_eq!(report.interactive_p95_ms, Some(62.5));
        assert_eq!(report.bulk_p95_ms, Some(516.0));
        assert!(report.render().contains("PASS"));
        // A ratio under the old 1.3 floor — what a cheaper scene load does
        // to the strawman — is reported and passes, alone or against a
        // reference with a higher one.
        let cheap_loads = serve_record(1.1, true);
        for reference in [None, Some(serve_record(1.49, true))] {
            let report = check_serve_record(&cheap_loads, reference.as_deref(), 0.25).unwrap();
            assert!(report.passed(), "{}", report.render());
            let rendered = report.render();
            assert!(rendered.contains("speedup vs naive: 1.10x (reported, not gated)"));
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
        assert!(!collapsed.throughput_holds());
        assert!(collapsed.interactive_p95_holds());
        assert!(!collapsed.passed());
        let rendered = collapsed.render();
        assert!(rendered.contains("50.00 rps vs reference 76.50 (-34.6%, 25% tolerated)"));
        assert!(rendered.contains("COLLAPSED"));
        assert!(rendered.contains("FAIL"));
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
        let slow = check(95.0);
        assert!(slow.throughput_holds());
        assert!(!slow.interactive_p95_holds());
        assert!(!slow.passed());
        let rendered = slow.render();
        assert!(rendered.contains("interactive 95.00 ms vs bulk 516.00 ms"));
        assert!(rendered.contains("vs reference 62.50 (+52.0%, 25% tolerated)  SLOWER"));
        for p95 in [40.0, 62.5, 62.5 * 1.25] {
            assert!(check(p95).passed(), "{p95}");
        }
        assert!(!check(62.5 * 1.26).passed());
        // A record that lost the class the reference has does not pass.
        let classless = serve_record(1.49, true).replace("\"interactive\"", "\"background\"");
        let report = check_serve_record(&classless, Some(&reference), SERVE_TOLERANCE).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("no interactive class"));
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
        assert!(replace(&committed).unwrap().reference.is_none());
        assert_eq!(on_disk(), Some(committed.clone()));
        // A collapse, in throughput or in Interactive p95, fails and is
        // not written — so a second failing run fails against the same
        // numbers instead of passing against the first one's.
        for collapsed in [
            serve_record_at(50.0, 62.5, 1.49, true),
            serve_record_at(76.5, 95.0, 1.49, true),
        ] {
            for _ in 0..2 {
                let report = replace(&collapsed).unwrap();
                assert!(!report.holds_reference(), "{}", report.render());
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
        assert!(replace(&held).unwrap().holds_reference());
        assert_eq!(on_disk(), Some(held));
        let next = serve_record_at(55.0, 70.0, 1.2, true);
        assert!(replace(&next).unwrap().holds_reference());
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
        assert!(!report.passed());
        assert!(report.render().contains("parity: FAILED"));
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
        let c = report.chaos.as_ref().expect("chaos summary parsed");
        assert!(c.all_resolved);
        assert_eq!(c.respawns, 3);
        assert_eq!(c.lost_workers, 0);
        assert!(report.render().contains("all requests resolved"));

        // A stranded storm fails the gate even above the floor.
        let report = check_alone(&chaos_record(9.0, false, 0)).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("REQUESTS STRANDED"));

        // A pool that never recovered to width fails too.
        let report = check_alone(&chaos_record(9.0, true, 1)).unwrap();
        assert!(!report.passed());
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
        // Records without a chaos object stay valid (pinned above by
        // every other serve-gate test).
        assert!(check_alone(&serve_record(3.0, true))
            .unwrap()
            .chaos
            .is_none());
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
        let w = report.wire.as_ref().expect("wire summary parsed");
        assert_eq!(w.shards, 2);
        assert!(w.all_resolved && w.parity_ok);
        assert!(report.render().contains("wire fleet: 2 shards"));

        // A stranded client request fails the gate even above the floor.
        let report = check_alone(&wire_record(9.0, 2, false, true)).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("REQUESTS STRANDED"));

        // A wire frame that diverged from its direct render fails too.
        let report = check_alone(&wire_record(9.0, 2, true, false)).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("DIVERGED"));

        // So does an unsharded "fleet": one backend is not a deployment.
        assert!(!check_alone(&wire_record(9.0, 1, true, true))
            .unwrap()
            .passed());
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
        // Records without a wire object stay valid.
        assert!(check_alone(&serve_record(3.0, true))
            .unwrap()
            .wire
            .is_none());
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
        let l = report.lod.as_ref().expect("lod summary parsed");
        assert_eq!(l.misses_ladder_on, 0);
        assert_eq!(l.misses_ladder_off, 12);
        assert_eq!(l.degraded_frames, 40);
        assert_eq!(l.frames_by_rung, [0, 38, 1, 1]);
        assert_eq!(l.rung_cost_ms.len(), 4);
        assert!(report
            .render()
            .contains("lod ladder: 0 misses vs 12 ladder-off"));

        // A ladder run that still missed a deadline fails the gate.
        assert!(!check_alone(&lod_record(1, 12, true, true))
            .unwrap()
            .passed());
        // A deadline the exact run also met proves nothing — refused.
        assert!(!check_alone(&lod_record(0, 0, true, true)).unwrap().passed());
        // Dropped frames fail even with zero misses.
        let report = check_alone(&lod_record(0, 12, false, true)).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("FRAMES LOST"));
        // So does a rung below its documented quality floor.
        let report = check_alone(&lod_record(0, 12, true, false)).unwrap();
        assert!(!report.passed());
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
        assert!(!report.passed());
        assert!(report.render().contains("STUCK ON THE FLOOR"));
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
        // Records without a lod object stay valid.
        assert!(check_alone(&serve_record(3.0, true)).unwrap().lod.is_none());
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
}
