//! `render_orbit` — one thread, no serving: Lego@0.25 at 256×256, a
//! 48-view trajectory lap through `Schedule::renderer().render_job(..)`
//! with one reused `FrameScratch`, laps alternating the Gaussian-wise
//! and the standard schedule.
//!
//! Sample = wall time of each `render_job`. Verified = the frame's
//! checksum equals the prepare-time render of the same (view, schedule)
//! pinned to the scalar kernel backend: dispatched ≡ scalar.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gcc_core::dispatch::Backend;
use gcc_core::Camera;
use gcc_render::gaussian_wise::GaussianWiseConfig;
use gcc_render::pipeline::{FrameScratch, RenderJob};
use gcc_render::standard::StandardConfig;
use gcc_render::{GaussianWiseRenderer, Renderer, Schedule, StandardRenderer};
use gcc_scene::Scene;
use gcc_serve::SceneSource;

use super::{on_two_threads, render_direct, Phase, Workload};
use crate::script::{options, OrbitScript, ORBIT_SCENE};
use crate::stats::cpu_seconds;
use crate::trace::SpanId;
use crate::verify::{judge, RefFrame, Rule};

/// The prepared workload: script, scene source and reference table.
pub struct RenderOrbit {
    /// The request script.
    pub script: OrbitScript,
    source: SceneSource,
    /// `reference[s][v]`: schedule `OrbitScript::SCHEDULES[s]`, view `v`.
    reference: [Vec<RefFrame>; 2],
}

/// The renderer of `schedule` pinned to the scalar kernel backend.
fn scalar_renderer(schedule: Schedule) -> Box<dyn Renderer + Send + Sync> {
    let backend = Some(Backend::Scalar);
    match schedule {
        Schedule::Standard => Box::new(StandardRenderer::new(StandardConfig {
            backend,
            ..StandardConfig::default()
        })),
        Schedule::GaussianWise => Box::new(GaussianWiseRenderer::new(GaussianWiseConfig {
            backend,
            ..GaussianWiseConfig::default()
        })),
        other => unreachable!("render_orbit scripts only standard and gaussian_wise, not {other}"),
    }
}

impl RenderOrbit {
    /// Builds the script for `seed` and its scalar-pinned reference table.
    pub fn prepare(seed: u64) -> Self {
        let script = OrbitScript::generate(seed);
        let source = SceneSource::Preset {
            preset: ORBIT_SCENE.preset,
            scale: ORBIT_SCENE.scale,
        };
        let scene = source.load().expect("the orbit preset builds");
        let reference = OrbitScript::SCHEDULES.map(|schedule| {
            let renderer = scalar_renderer(schedule);
            let opts = options(schedule);
            on_two_threads(&script.views, |view, scratch| {
                let image = render_direct(&scene, view, &opts, renderer.as_ref(), scratch);
                RefFrame::of(image, false)
            })
        });
        Self {
            script,
            source,
            reference,
        }
    }
}

/// What set-up builds: the loaded scene, the lap's cameras, the two
/// dispatched renderers and the one scratch every frame reuses.
pub struct OrbitRig {
    /// The loaded scene.
    pub scene: Arc<Scene>,
    /// The lap's resolved cameras.
    pub cameras: Vec<Camera>,
    renderers: [Box<dyn Renderer + Send + Sync>; 2],
    scratch: FrameScratch,
}

impl Workload for RenderOrbit {
    type Rig = OrbitRig;

    fn script_hash(&self) -> u64 {
        self.script.hash()
    }

    fn threads(&self) -> (usize, usize) {
        (0, 1)
    }

    fn set_up(&self) -> OrbitRig {
        let scene = self.source.load().expect("the orbit preset builds");
        let opts = options(OrbitScript::SCHEDULES[0]);
        let cameras: Vec<Camera> = self
            .script
            .views
            .iter()
            .map(|v| {
                scene
                    .resolve_view(v, &opts)
                    .expect("scripted views are valid")
            })
            .collect();
        let renderers = OrbitScript::SCHEDULES.map(Schedule::renderer);
        let mut scratch = FrameScratch::new();
        let warm = RenderJob::with_options(&scene.gaussians, &cameras[0], opts);
        std::hint::black_box(renderers[0].render_job(&warm, &mut scratch));
        OrbitRig {
            scene,
            cameras,
            renderers,
            scratch,
        }
    }

    fn run(&self, rig: &mut OrbitRig, length: Duration, trace: bool) -> Phase {
        let mut phase = Phase::new(length, trace);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let until = start + length;
        let mut frame_no = 0u64;
        'laps: for lap in 0.. {
            let s = lap % 2;
            let opts = options(OrbitScript::SCHEDULES[s]);
            for (v, camera) in rig.cameras.iter().enumerate() {
                if Instant::now() >= until {
                    break 'laps;
                }
                frame_no += 1;
                let job = RenderJob::with_options(&rig.scene.gaussians, camera, opts.clone());
                let root = phase.spans.open("request", SpanId::NONE, frame_no);
                let render = phase.spans.open("render_job", root, frame_no);
                let t0 = Instant::now();
                let frame = rig.renderers[s].render_job(&job, &mut rig.scratch);
                let in_hand = Instant::now();
                phase.spans.close(render);
                phase.samples_ms.push((in_hand - t0).as_secs_f64() * 1e3);
                let verdict = phase.spans.time("client.verify", root, frame_no, || {
                    judge::<&str>(&self.reference[s][v], Rule::Exact, Ok(&frame.image))
                });
                phase.spans.close(root);
                if phase.tally.record(verdict) {
                    phase.frames_at.push(in_hand - start);
                }
            }
        }
        phase.cpu_s = cpu_seconds() - cpu0;
        phase
    }

    fn tear_down(&self, _rig: OrbitRig) {}
}
