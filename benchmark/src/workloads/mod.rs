//! The four workloads, behind one [`Workload`] interface the harness
//! and the layer pass both drive: *set-up* (timed as `setup_s`) →
//! phases of the same script (warm-up, then measured) → tear-down.
//! Everything a workload needs before set-up — scenes, scene files, the
//! reference table — is built by its `prepare` constructor and is the
//! benchmark's own cost.

pub mod deadline_lod;
pub mod render_orbit;
pub mod served;

use std::time::{Duration, Instant};

use gcc_render::pipeline::{FrameScratch, RenderJob};
use gcc_render::{Image, RenderOptions, Renderer};
use gcc_scene::{Scene, ViewSpec};
use gcc_serve::{Priority, ServeStats};

use crate::fleet::Failure;
use crate::stats::{percentile, window_rate};
use crate::trace::SpanLog;
use crate::verify::Tally;

/// Everything one timed phase of a workload produced.
#[derive(Debug)]
pub struct Phase {
    /// The phase's time box.
    pub length: Duration,
    /// The workload's latency samples, ms, every one of the phase.
    pub samples_ms: Vec<f64>,
    /// When each verified frame was in hand, from the phase start (all
    /// clients, in no particular order).
    pub frames_at: Vec<Duration>,
    /// Attempted / verified / failed frames (all clients).
    pub tally: Tally,
    /// Deadline-carrying frames the service completed during the phase,
    /// and how many of those missed (`per_priority` counters, end minus
    /// start); `None` for a workload that sets no deadlines.
    pub deadlines: Option<(u64, u64)>,
    /// Pacing ticks of an open-loop client, and how many of them the
    /// client itself overran.
    pub ticks: (u64, u64),
    /// Frames (or stream opens) answered with a typed rejection, and
    /// ones lost to a transport error.
    pub undelivered: Undelivered,
    /// CPU seconds (user + system) this process spent in the phase.
    pub cpu_s: f64,
    /// Spans (empty unless the phase was traced).
    pub spans: SpanLog,
    /// The service's statistics when the phase ended (served workloads).
    pub stats: Option<ServeStats>,
}

impl Phase {
    /// An empty phase of `length`, recording spans when `trace`.
    pub fn new(length: Duration, trace: bool) -> Self {
        Self {
            length,
            samples_ms: Vec::new(),
            frames_at: Vec::new(),
            tally: Tally::default(),
            deadlines: None,
            ticks: (0, 0),
            undelivered: Undelivered::default(),
            cpu_s: 0.0,
            spans: SpanLog::new(Instant::now(), trace),
            stats: None,
        }
    }

    /// Verified frames in hand per second: the median over the phase's
    /// 5 s windows ([`crate::stats::window_rate`]).
    pub fn frames_per_s(&self) -> f64 {
        window_rate(&self.frames_at, self.length)
    }

    /// The `p`-th percentile of all latency samples, ms.
    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.samples_ms, p)
    }

    /// Deadline-carrying frames completed within their deadline over the
    /// ones attempted; `1.0` for a workload without deadlines. Every
    /// frame of a deadline workload carries one, so a frame the client
    /// attempted and the service never completed counts as a miss (the
    /// service may also complete one frame more than the client pulled:
    /// the one in flight when the phase ends).
    pub fn deadline_met_share(&self) -> f64 {
        let Some((completed, missed)) = self.deadlines else {
            return 1.0;
        };
        let attempted = completed.max(self.tally.attempted);
        if attempted == 0 {
            0.0
        } else {
            (completed - missed) as f64 / attempted as f64
        }
    }
}

/// Counts of frames the clients did not get.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Undelivered {
    /// Typed rejections.
    pub rejected: u64,
    /// Transport errors.
    pub transport: u64,
}

impl Undelivered {
    /// Counts `got` when it is a failure.
    pub fn note<T>(&mut self, got: &Result<T, Failure>) {
        match got {
            Ok(_) => {}
            Err(Failure::Rejected(_)) => self.rejected += 1,
            Err(Failure::Transport(_)) => self.transport += 1,
        }
    }

    /// Folds another client's counts in.
    pub fn merge(&mut self, other: Undelivered) {
        self.rejected += other.rejected;
        self.transport += other.transport;
    }
}

/// One benchmark workload.
pub trait Workload {
    /// What set-up builds and the phases run against.
    type Rig;

    /// Hash of the request script (equal ⇔ same requests).
    fn script_hash(&self) -> u64;

    /// Service worker threads and load-generating client threads.
    fn threads(&self) -> (usize, usize);

    /// Program set-up: load every scene through its `SceneSource`,
    /// start services/servers/proxy, connect, one warm frame per scene.
    fn set_up(&self) -> Self::Rig;

    /// Replays the script against `rig` for `length`.
    fn run(&self, rig: &mut Self::Rig, length: Duration, trace: bool) -> Phase;

    /// Stops everything set-up started and waits for it.
    fn tear_down(&self, rig: Self::Rig);
}

/// Renders `view` of `scene` directly (no serving) — how every
/// reference frame is made.
pub fn render_direct(
    scene: &Scene,
    view: &ViewSpec,
    options: &RenderOptions,
    renderer: &dyn Renderer,
    scratch: &mut FrameScratch,
) -> Image {
    let camera = scene
        .resolve_view(view, options)
        .expect("scripted views and options are valid");
    let job = RenderJob::with_options(&scene.gaussians, &camera, options.clone());
    renderer.render_job(&job, scratch).image
}

/// Maps `f` over `jobs` on two threads (reference tables are prepare
/// cost, so they may use the whole box), keeping job order.
pub fn on_two_threads<J: Sync, R: Send>(
    jobs: &[J],
    f: impl Fn(&J, &mut FrameScratch) -> R + Sync,
) -> Vec<R> {
    let half = jobs.len().div_ceil(2);
    let run = |part: &[J]| {
        let mut scratch = FrameScratch::new();
        part.iter().map(|j| f(j, &mut scratch)).collect::<Vec<R>>()
    };
    std::thread::scope(|s| {
        let (front, back) = jobs.split_at(half.min(jobs.len()));
        let back = s.spawn(|| run(back));
        let mut out = run(front);
        out.extend(back.join().expect("reference render thread panicked"));
        out
    })
}

/// Deadline-carrying Interactive frames the service completed, and how
/// many of them missed, as of `stats`.
pub fn deadline_counts(stats: &ServeStats) -> (u64, u64) {
    stats
        .per_priority
        .get(&Priority::Interactive)
        .map_or((0, 0), |p| (p.with_deadline, p.deadline_misses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Outcome;

    #[test]
    fn undelivered_deadline_frames_count_as_misses() {
        let mut phase = Phase::new(Duration::from_secs(1), false);
        assert_eq!(phase.deadline_met_share(), 1.0, "no deadlines set");
        for _ in 0..10 {
            phase.tally.record(Outcome::Verified(1.0));
        }
        phase.tally.record(Outcome::Rejected);
        phase.tally.record(Outcome::Rejected);
        // The service completed ten of the twelve attempted, two late.
        phase.deadlines = Some((10, 2));
        assert_eq!(phase.deadline_met_share(), 8.0 / 12.0);
        // It may complete one more than the client pulled.
        phase.deadlines = Some((13, 0));
        assert_eq!(phase.deadline_met_share(), 1.0);
    }
}
