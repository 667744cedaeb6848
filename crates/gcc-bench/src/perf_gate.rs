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
//! Two rules read the current record alone, as ratios taken within one
//! run, which do not depend on the host the run was made on. On every
//! scene that carries both schedules' sequential cells, the Gaussian-wise
//! frame may not be slower than the standard one
//! ([`schedule_orderings`]): the paper's claim is that ordering. And on
//! every scene and engine that carries both a `sequential` and a `fixed2`
//! cell, the two-thread cell may not be more than [`BORROW_TOLERANCE`]
//! slower than the one-thread cell ([`borrowed_cores`]): `gcc-serve` lends
//! every frame and every load the idle cores, so work that cannot use a
//! second core must at least not pay for being offered one.
//!
//! The logic lives in the library (not the `perf_gate` binary) so the
//! gate's fail-on-regression behavior is pinned by unit tests — CI runs
//! the same code the tests cover.

use gcc_scene::json::{self, Value};

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
    pub fn ratio(&self) -> f64 {
        self.gaussian_wise_ms / self.standard_ms
    }

    /// `true` when the Gaussian-wise frame is no slower than the
    /// standard one.
    pub fn holds(&self) -> bool {
        self.ratio() <= 1.0
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
    /// Schedule ordering per scene of the current record (fails the gate
    /// where it does not hold).
    pub orderings: Vec<ScheduleOrdering>,
    /// What a second thread did to each scene and engine of the current
    /// record (fails the gate where it cost more than the tolerance).
    pub borrowed: Vec<BorrowedCore>,
}

impl GateReport {
    /// `true` when no cell regressed, no baseline coverage was lost, the
    /// Gaussian-wise schedule is no slower than the standard one on any
    /// scene of the current record and no engine of it is slower on two
    /// threads than on one.
    pub fn passed(&self) -> bool {
        self.missing_in_current.is_empty()
            && self.cells.iter().all(|c| !c.regressed)
            && self.orderings.iter().all(ScheduleOrdering::holds)
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
                if o.holds() {
                    ""
                } else {
                    "  SLOWER than standard"
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

/// Outcome of the serve-throughput floor check against a
/// `bench_serve/v3` record: the speedup over the naive
/// load-render-evict configuration must hold a floor, and the record's
/// own serve-vs-direct parity pass must have succeeded. The per-priority
/// p95 latencies of the batched configuration are carried along for the
/// report (the Interactive-beats-Bulk ordering is enforced by
/// `bench_serve` itself in full mode, where the workload is heavy enough
/// for the comparison to be meaningful). A record carrying a `"chaos"`
/// object additionally must have resolved its fault storm cleanly
/// ([`ChaosGate`]); one carrying a `"lod"` object must have held the
/// deadline-degradation contract ([`LodGate`]).
#[derive(Debug, Clone)]
pub struct ServeGateReport {
    /// Minimum acceptable `speedup_vs_naive`.
    pub floor: f64,
    /// Measured batched/naive throughput ratio.
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
    /// `true` when parity held, the speedup clears the floor, and — for
    /// chaos/wire/lod records — the fault storm resolved cleanly, the
    /// sharded deployment held its contract, and the quality ladder beat
    /// its deadline within the documented quality floors.
    pub fn passed(&self) -> bool {
        self.parity_ok
            && self.speedup_vs_naive >= self.floor
            && self.chaos.as_ref().is_none_or(ChaosGate::passed)
            && self.wire.as_ref().is_none_or(WireGate::passed)
            && self.lod.as_ref().is_none_or(LodGate::passed)
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "serve speedup vs naive: {:.2}x (floor {:.2}x){}\n",
            self.speedup_vs_naive,
            self.floor,
            if self.speedup_vs_naive >= self.floor {
                ""
            } else {
                "  BELOW FLOOR"
            },
        );
        out.push_str(&format!(
            "serve parity: {}\n",
            if self.parity_ok { "ok" } else { "FAILED" }
        ));
        if let (Some(i), Some(b)) = (self.interactive_p95_ms, self.bulk_p95_ms) {
            out.push_str(&format!(
                "batched p95: interactive {i:.2} ms vs bulk {b:.2} ms\n"
            ));
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

/// Floor on a full-mode record's `speedup_vs_naive`: what `bench_serve`
/// enforces before it exits zero and `perf_gate --serve` defaults to.
///
/// The ratio is `batched_lru` throughput (every scene resident, requests
/// batched) over `naive_evict` throughput (load, render, evict on every
/// request), so it prices residency and batching *at what a load honestly
/// costs*. It was 2.0 while a JSON scene load cost ≈ 11 ms per thousand
/// Gaussians and eight of the strawman's eleven seconds were spent in
/// the parser — a floor a slower parser cleared more easily. With the
/// single-pass decoder the same workload lands near 1.7; 1.3 leaves the
/// host's run-to-run spread below that and still trips when the cache or
/// the batcher stops paying.
pub const SERVE_SPEEDUP_FLOOR: f64 = 1.3;

/// Checks a `bench_serve/v3` record against a throughput floor.
///
/// # Errors
///
/// Returns a message for malformed JSON, a record of the wrong schema,
/// missing fields, or an invalid floor.
pub fn check_serve_record(text: &str, floor: f64) -> Result<ServeGateReport, String> {
    if !(floor.is_finite() && floor >= 0.0) {
        return Err(format!("invalid serve floor {floor}"));
    }
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing 'schema'")?;
    if schema != "bench_serve/v3" {
        return Err(format!("unexpected schema '{schema}'"));
    }
    // Read at full width: through `f32` a recorded 1.3 would land just
    // under a floor of 1.3.
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
    // Per-priority p95s of the batched config, if present.
    let mut interactive_p95_ms = None;
    let mut bulk_p95_ms = None;
    if let Some(configs) = doc.get("configs").and_then(Value::as_arr) {
        let batched = configs
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some("batched_lru"));
        if let Some(prios) = batched
            .and_then(|c| c.get("per_priority"))
            .and_then(Value::as_arr)
        {
            for p in prios {
                let p95 = p
                    .get("latency_p95_ms")
                    .and_then(Value::as_f32)
                    .map(f64::from);
                match p.get("priority").and_then(Value::as_str) {
                    Some("interactive") => interactive_p95_ms = p95,
                    Some("bulk") => bulk_p95_ms = p95,
                    _ => {}
                }
            }
        }
    }
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
        floor,
        speedup_vs_naive: speedup,
        parity_ok,
        interactive_p95_ms,
        bulk_p95_ms,
        chaos,
        wire,
        lod,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The floor the serve-gate tests run at: the one CI enforces.
    const FLOOR: f64 = SERVE_SPEEDUP_FLOOR;

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
    fn gaussian_wise_slower_than_standard_fails_the_gate_within_one_record() {
        // Every cell within tolerance of its baseline: only the
        // within-run ordering of the current record can fail this.
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
                // Not a sequential cell: no part of the rule.
                ("Lego", 0.05, "gaussian_wise_frame_engine", "fixed2", 2.6),
                ("Train", 0.02, "standard_frame_engine", "sequential", 4.0),
            ])
        };
        let report = compare(&both(2.7), &both(2.9), 0.25).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.orderings.len(), 1, "Train has one schedule only");
        assert!((report.orderings[0].ratio() - 2.9 / 3.0).abs() < 1e-6);

        let report = compare(&both(2.7), &both(3.3), 0.25).unwrap();
        assert!(report.cells.iter().all(|c| !c.regressed));
        assert!(!report.passed());
        let rendered = report.render();
        assert!(rendered.contains("Lego@0.05 gaussian_wise / standard (sequential)"));
        assert!(rendered.contains("SLOWER than standard"));
        assert!(rendered.contains("FAIL"));
    }

    #[test]
    fn a_cell_slower_on_two_threads_fails_the_gate_within_one_record() {
        // Every cell within tolerance of its baseline and the schedules in
        // order: only the two-thread cell of the hierarchy build against
        // its own one-thread cell can fail this.
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
        assert!(report.orderings.iter().all(ScheduleOrdering::holds));
        assert!(!report.passed());
        let rendered = report.render();
        assert!(rendered.contains("Lego@0.5/build_hierarchy fixed2 / sequential"));
        assert!(rendered.contains("SLOWER on a borrowed core"));
        assert!(rendered.contains("FAIL"));
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

    fn serve_record(speedup: f64, parity_ok: bool) -> String {
        format!(
            "{{\"schema\": \"bench_serve/v3\", \"parity_ok\": {parity_ok}, \
             \"configs\": [\
             {{\"name\": \"batched_lru\", \"per_priority\": [\
             {{\"priority\": \"interactive\", \"latency_p95_ms\": 12.5}}, \
             {{\"priority\": \"bulk\", \"latency_p95_ms\": 80.0}}]}}, \
             {{\"name\": \"naive_evict\", \"per_priority\": []}}], \
             \"speedup_vs_naive\": {speedup}}}"
        )
    }

    #[test]
    fn serve_gate_passes_above_the_floor_and_reads_p95s() {
        let report = check_serve_record(&serve_record(3.2, true), FLOOR).unwrap();
        assert!(report.passed());
        assert!((report.speedup_vs_naive - 3.2).abs() < 1e-6);
        assert_eq!(report.interactive_p95_ms, Some(12.5));
        assert_eq!(report.bulk_p95_ms, Some(80.0));
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn serve_gate_fails_below_the_floor() {
        // The acceptance check: a throughput collapse must trip the gate.
        let report = check_serve_record(&serve_record(1.1, true), FLOOR).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("BELOW FLOOR"));
        assert!(report.render().contains("FAIL"));
        // Exactly at the floor passes.
        assert!(check_serve_record(&serve_record(FLOOR, true), FLOOR)
            .unwrap()
            .passed());
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
        let report = check_serve_record(&with_rows, FLOOR).unwrap();
        assert!(report.passed());
        assert_eq!(
            report.render(),
            check_serve_record(&plain, FLOOR).unwrap().render()
        );
    }

    #[test]
    fn serve_gate_fails_on_broken_parity_regardless_of_speedup() {
        let report = check_serve_record(&serve_record(9.0, false), FLOOR).unwrap();
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
        let report = check_serve_record(&chaos_record(3.0, true, 0), FLOOR).unwrap();
        assert!(report.passed());
        let c = report.chaos.as_ref().expect("chaos summary parsed");
        assert!(c.all_resolved);
        assert_eq!(c.respawns, 3);
        assert_eq!(c.lost_workers, 0);
        assert!(report.render().contains("all requests resolved"));

        // A stranded storm fails the gate even above the floor.
        let report = check_serve_record(&chaos_record(9.0, false, 0), FLOOR).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("REQUESTS STRANDED"));

        // A pool that never recovered to width fails too.
        let report = check_serve_record(&chaos_record(9.0, true, 1), FLOOR).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("NOT RECOVERED"));
    }

    #[test]
    fn serve_gate_rejects_malformed_chaos_summaries() {
        // Present-but-incomplete chaos objects are parse errors, not
        // silent passes.
        let missing_resolved =
            chaos_record(3.0, true, 0).replace("\"all_resolved\": true", "\"all_resolved\": 1");
        assert!(check_serve_record(&missing_resolved, FLOOR).is_err());
        let missing_lost = chaos_record(3.0, true, 0).replace("\"lost_workers\": 0, ", "");
        assert!(check_serve_record(&missing_lost, FLOOR).is_err());
        // Records without a chaos object stay valid (pinned above by
        // every other serve-gate test).
        assert!(check_serve_record(&serve_record(3.0, true), FLOOR)
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
        let report = check_serve_record(&wire_record(3.0, 2, true, true), FLOOR).unwrap();
        assert!(report.passed());
        let w = report.wire.as_ref().expect("wire summary parsed");
        assert_eq!(w.shards, 2);
        assert!(w.all_resolved && w.parity_ok);
        assert!(report.render().contains("wire fleet: 2 shards"));

        // A stranded client request fails the gate even above the floor.
        let report = check_serve_record(&wire_record(9.0, 2, false, true), FLOOR).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("REQUESTS STRANDED"));

        // A wire frame that diverged from its direct render fails too.
        let report = check_serve_record(&wire_record(9.0, 2, true, false), FLOOR).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("DIVERGED"));

        // So does an unsharded "fleet": one backend is not a deployment.
        assert!(!check_serve_record(&wire_record(9.0, 1, true, true), FLOOR)
            .unwrap()
            .passed());
    }

    #[test]
    fn serve_gate_rejects_malformed_wire_summaries() {
        // Present-but-incomplete wire objects are parse errors, not
        // silent passes.
        let bad_parity =
            wire_record(3.0, 2, true, true).replace("\"parity_ok\": true", "\"parity_ok\": 1");
        assert!(check_serve_record(&bad_parity, FLOOR).is_err());
        let missing_shards = wire_record(3.0, 2, true, true).replace("\"shards\": 2, ", "");
        assert!(check_serve_record(&missing_shards, FLOOR).is_err());
        // Records without a wire object stay valid.
        assert!(check_serve_record(&serve_record(3.0, true), FLOOR)
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
        let report = check_serve_record(&lod_record(0, 12, true, true), FLOOR).unwrap();
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
        assert!(!check_serve_record(&lod_record(1, 12, true, true), FLOOR)
            .unwrap()
            .passed());
        // A deadline the exact run also met proves nothing — refused.
        assert!(!check_serve_record(&lod_record(0, 0, true, true), FLOOR)
            .unwrap()
            .passed());
        // Dropped frames fail even with zero misses.
        let report = check_serve_record(&lod_record(0, 12, false, true), FLOOR).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("FRAMES LOST"));
        // So does a rung below its documented quality floor.
        let report = check_serve_record(&lod_record(0, 12, true, false), FLOOR).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("BELOW FLOOR"));
    }

    #[test]
    fn serve_gate_refuses_a_ladder_that_hides_on_the_floor() {
        let gate = |frames_by_rung, cost_ms| {
            let record = lod_record_with((0, 40), true, true, frames_by_rung, cost_ms);
            check_serve_record(&record, FLOOR).unwrap()
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
            assert!(check_serve_record(&bad, FLOOR).is_err(), "{what}");
        }
        // Records without a lod object stay valid.
        assert!(check_serve_record(&serve_record(3.0, true), FLOOR)
            .unwrap()
            .lod
            .is_none());
    }

    #[test]
    fn serve_gate_rejects_malformed_records() {
        assert!(check_serve_record("not json", FLOOR).is_err());
        assert!(check_serve_record("{\"schema\": \"bench_serve/v2\"}", FLOOR).is_err());
        assert!(
            check_serve_record(
                "{\"schema\": \"bench_serve/v3\", \"parity_ok\": true}",
                FLOOR
            )
            .is_err(),
            "missing speedup must be an error"
        );
        assert!(check_serve_record(&serve_record(3.0, true), f64::NAN).is_err());
        assert!(check_serve_record(&serve_record(3.0, true), -1.0).is_err());
    }
}
