//! The end-to-end pass: prepare → set-up (timed, repeated) → warm-up →
//! measured phase → score, for one workload in one process.

use std::time::{Duration, Instant};

use crate::fleet::Topology;
use crate::spec::Values;
use crate::stats::peak_rss_mib;
use crate::workloads::deadline_lod::DeadlineLod;
use crate::workloads::render_orbit::RenderOrbit;
use crate::workloads::served::{Served, ServedScript};
use crate::workloads::{Phase, Workload};

/// Fewest cold constructions behind `setup_s`.
pub const MIN_SETUPS: usize = 3;

/// How one run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Script seed.
    pub seed: u64,
    /// Measured-phase length.
    pub measured: Duration,
    /// Untimed warm-up of the same script before it.
    pub warm_up: Duration,
    /// How long set-up is repeated for (at least [`MIN_SETUPS`] times).
    pub set_up: Duration,
}

/// What one run of one workload reports.
#[derive(Debug)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// Metric values by name (every metric of the pass).
    pub values: Values,
    /// Frames attempted and failed in the measured phase(s).
    pub attempted: u64,
    /// Frames that were not delivered-and-verified.
    pub failed: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Cold constructions behind `setup_s`.
    pub setups: usize,
    /// Script hash.
    pub script_hash: u64,
    /// Service workers and client threads.
    pub threads: (usize, usize),
    /// Measured-phase length, seconds.
    pub measured_s: f64,
}

/// Sets the workload up again and again for `time_box` (at least
/// [`MIN_SETUPS`] times, torn down in between), keeping the last rig;
/// returns it with the fastest construction's time in seconds and the
/// number of constructions.
///
/// The fastest, not the median: a construction is 0.05–0.25 s of thread
/// starts, file reads and (over the wire) accept loops that poll every
/// 10 ms, and a busy host only ever adds to it. Over twelve runs of
/// `wire_loopback` the median of a run's constructions spread 32 %
/// (quartile distance ÷ median) and moved 33 % between the first and the
/// second six; the fastest spread 13 % and moved 10 %. A set-up that gets
/// slower moves every construction, the fastest too.
pub fn timed_set_up<W: Workload>(workload: &W, time_box: Duration) -> (W::Rig, f64, usize) {
    let until = Instant::now() + time_box;
    let mut times = Vec::new();
    let mut rig = None;
    while times.len() < MIN_SETUPS || Instant::now() < until {
        if let Some(previous) = rig.take() {
            workload.tear_down(previous);
        }
        let t0 = Instant::now();
        rig = Some(workload.set_up());
        times.push(t0.elapsed().as_secs_f64());
    }
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    (rig.expect("at least one set-up"), fastest, times.len())
}

fn end_to_end<W: Workload>(name: &'static str, workload: &W, plan: RunPlan) -> Record {
    let (mut rig, setup_s, setups) = timed_set_up(workload, plan.set_up);
    if !plan.warm_up.is_zero() {
        workload.run(&mut rig, plan.warm_up, false);
    }
    let phase = workload.run(&mut rig, plan.measured, false);
    // The whole process so far: prepare, every set-up, both phases.
    let peak_rss_mb = peak_rss_mib();
    workload.tear_down(rig);
    let mut values = phase_values(&phase);
    values.insert("setup_s", setup_s);
    values.insert("peak_rss_mb", peak_rss_mb);
    Record {
        workload: name,
        values,
        attempted: phase.tally.attempted,
        failed: phase.tally.failed(),
        samples: phase.samples_ms.len(),
        setups,
        script_hash: workload.script_hash(),
        threads: workload.threads(),
        measured_s: phase.length.as_secs_f64(),
    }
}

/// The six metrics a phase measures by itself, by name.
pub fn phase_values(phase: &Phase) -> Values {
    Values::from([
        ("frames_per_s", phase.frames_per_s()),
        ("frame_ms_p50", phase.latency_ms(0.50)),
        ("frame_ms_p90", phase.latency_ms(0.90)),
        ("deadline_met_share", phase.deadline_met_share()),
        ("verified_share", phase.tally.verified_share()),
        ("delivered_ssim_mean", phase.tally.ssim_mean()),
    ])
}

/// Runs the end-to-end pass of the workload called `name`.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates it first).
pub fn run_end_to_end(name: &str, plan: RunPlan) -> Record {
    match name {
        "render_orbit" => end_to_end("render_orbit", &RenderOrbit::prepare(plan.seed), plan),
        "serve_mixed" => {
            let prepared = ServedScript::prepare(plan.seed);
            let workload = Served::new(&prepared, Topology::InProcess { workers: 2 });
            end_to_end("serve_mixed", &workload, plan)
        }
        "wire_loopback" => {
            let prepared = ServedScript::prepare(plan.seed);
            let workload = Served::new(&prepared, Topology::Sharded);
            end_to_end("wire_loopback", &workload, plan)
        }
        "deadline_lod" => end_to_end("deadline_lod", &DeadlineLod::prepare(plan.seed), plan),
        other => panic!("unknown workload {other}"),
    }
}
