//! `deadline_lod` — the only workload where `gcc-lod` decides the
//! outcome: a one-worker `RenderService` with the default `LodPolicy`
//! over Lego@0.5 at 256×256, one client playing 48-frame orbit streams
//! back to back (Interactive, window 1, a 33 ms deadline on every
//! frame), **paced open loop at 30 Hz**: frame `k` is due at
//! `t0 + k · 33.3 ms`, the client sleeps to each tick, then pulls.
//!
//! Pacing pins `frames_per_s` near 30 and the frame gap near 33.3 ms for
//! any ladder that keeps up, so a ladder fix can raise
//! `delivered_ssim_mean` without a timing metric falling (a closed loop
//! over 10 ms floor-rung frames would punish exactly that fix).
//!
//! Sample = frame gap: time a frame is in hand minus the time its
//! predecessor was (a stream's first frame counts from its open).
//! Verified = right size and SSIM at least the ladder's floor `min_ssim`
//! against the exact render of the view. Scoring happens on the client
//! thread between ticks; ticks the client itself overran are reported as
//! `loadgen.late_tick_share`.

use std::time::{Duration, Instant};

use gcc_render::Schedule;
use gcc_serve::{LodPolicy, SceneSource, ServeConfig, StreamSpec};

use super::served::one_frame;
use super::{deadline_counts, on_two_threads, render_direct, Phase, Workload};
use crate::fleet::{Conn, Failure, Fleet, Registry, Stream, Topology};
use crate::script::{options, LodScript, LOD_SCENE};
use crate::stats::cpu_seconds;
use crate::trace::SpanId;
use crate::verify::{judge, RefFrame, Rule};

/// Schedule of every `deadline_lod` frame.
pub const LOD_SCHEDULE: Schedule = Schedule::Standard;

/// The prepared workload.
pub struct DeadlineLod {
    /// The request script.
    pub script: LodScript,
    /// The ladder policy the service runs.
    pub policy: LodPolicy,
    registry: Registry,
    /// Exact full-quality render of every scripted view (pixels kept:
    /// delivered frames are scored by SSIM against them).
    pub reference: Vec<RefFrame>,
}

impl DeadlineLod {
    /// Builds the script for `seed` and the exact reference renders.
    pub fn prepare(seed: u64) -> Self {
        let script = LodScript::generate(seed);
        let source = SceneSource::Preset {
            preset: LOD_SCENE.preset,
            scale: LOD_SCENE.scale,
        };
        let scene = source.load().expect("the LOD preset builds");
        let renderer = LOD_SCHEDULE.renderer();
        let reference = on_two_threads(&script.views, |view, scratch| {
            let image = render_direct(
                &scene,
                view,
                &options(LOD_SCHEDULE),
                renderer.as_ref(),
                scratch,
            );
            RefFrame::of(image, true)
        });
        Self {
            script,
            policy: LodPolicy::default(),
            registry: vec![(LOD_SCENE.id.to_string(), source)],
            reference,
        }
    }

    /// The verification rule: SSIM at least the ladder floor's.
    pub fn rule(&self) -> Rule {
        let rungs = self.policy.ladder.rungs();
        Rule::MinSsim(rungs[self.policy.ladder.floor()].min_ssim)
    }

    fn open(&self, conn: &mut Conn<'_>) -> Result<Stream, Failure> {
        conn.open(
            LOD_SCENE.id,
            options(LOD_SCHEDULE),
            StreamSpec::ViewList(self.script.views.clone()),
            LodScript::config(),
        )
    }
}

impl Workload for DeadlineLod {
    type Rig = Fleet;

    fn script_hash(&self) -> u64 {
        self.script.hash()
    }

    fn threads(&self) -> (usize, usize) {
        (1, 1)
    }

    fn set_up(&self) -> Fleet {
        let config = ServeConfig {
            lod: Some(self.policy.clone()),
            ..ServeConfig::default()
        };
        let fleet = Fleet::start(Topology::InProcess { workers: 1 }, &config, &self.registry);
        // The warm frame is a frame of the workload's own kind: it
        // carries the deadline, so the cost model starts the way a
        // deadline client finds it (cold → floor rung).
        one_frame(
            &mut fleet.connect(),
            LOD_SCENE.id,
            LOD_SCHEDULE,
            self.script.views[0].clone(),
            LodScript::config(),
        )
        .expect("warm frame");
        fleet
    }

    fn run(&self, fleet: &mut Fleet, length: Duration, trace: bool) -> Phase {
        let mut phase = Phase::new(length, trace);
        let cpu0 = cpu_seconds();
        let (completed0, missed0) = deadline_counts(&fleet.stats());
        let mut conn = fleet.connect();
        let rule = self.rule();
        let start = Instant::now();
        let until = start + length;

        let mut request = 1u64;
        let mut root = phase.spans.open("request", SpanId::NONE, request);
        let mut stream = phase
            .spans
            .time("client.open", root, request, || self.open(&mut conn));
        let mut previous = Instant::now();
        let mut index = 0usize;
        let (mut ticks, mut late) = (0u64, 0u64);
        loop {
            ticks += 1;
            let due = start + LodScript::TICK * ticks as u32;
            if due >= until {
                break;
            }
            let now = Instant::now();
            if now > due {
                late += 1;
            } else {
                std::thread::sleep(due - now);
            }
            let wait = phase.spans.open("client.wait", root, request);
            let got = match &mut stream {
                Ok(s) => conn.expect_frame(s),
                Err(e) => Err(e.clone()),
            };
            phase.spans.close(wait);
            let in_hand = Instant::now();
            phase
                .samples_ms
                .push((in_hand - previous).as_secs_f64() * 1e3);
            previous = in_hand;
            let frame_index = index;
            index += 1;
            let finished = index == self.script.views.len() || stream.is_err();
            if finished {
                // Retire the stream and open the next one before
                // scoring, so its first frame renders meanwhile.
                if let Ok(s) = &mut stream {
                    phase
                        .spans
                        .time("client.close", root, request, || conn.next_frame(s));
                }
                phase.spans.close(root);
                request += 1;
                index = 0;
                root = phase.spans.open("request", SpanId::NONE, request);
                stream = phase
                    .spans
                    .time("client.open", root, request, || self.open(&mut conn));
                previous = Instant::now();
            }
            let verify = phase.spans.open("client.verify", root, request);
            phase.undelivered.note(&got);
            let verdict = judge(
                &self.reference[frame_index],
                rule,
                got.as_ref().map(|f| &f.image),
            );
            if phase.tally.record(verdict) {
                phase.frames_at.push(in_hand - start);
            }
            phase.spans.close(verify);
        }
        if let Ok(s) = stream {
            conn.cancel(s);
        }
        phase.spans.close(root);
        drop(conn);

        let stats = fleet.stats();
        let (completed, missed) = deadline_counts(&stats);
        phase.deadlines = Some((completed - completed0, missed - missed0));
        phase.ticks = (ticks - 1, late);
        phase.cpu_s = cpu_seconds() - cpu0;
        phase.stats = Some(stats);
        phase
    }

    fn tear_down(&self, fleet: Fleet) {
        fleet.shutdown();
    }
}
