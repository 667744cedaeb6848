//! Batch rendering of camera trajectories through any [`Renderer`].
//!
//! The [`TrajectoryRunner`] samples a scene's [`crate::OrbitRig`] at `n`
//! evenly spaced parameters and renders every viewpoint through one
//! renderer — the workload of the paper's headset scenario (a continuous
//! orbit at 90 FPS) and of any batch-serving deployment. Frames are
//! independent, so the runner parallelizes *across* frames with
//! [`gcc_parallel`]; frame order in the result is the trajectory order
//! regardless of the thread count, and the aggregate statistics are the
//! order-independent sum of per-frame [`FrameStats`].
//!
//! Parallelism composition: frame-level parallelism here multiplies with
//! the renderer's intra-frame parallelism. For throughput over a long
//! trajectory, prefer a sequential renderer inside a parallel runner (one
//! frame per core); for latency on a single frame, prefer the reverse.
//!
//! Each worker keeps one [`FrameScratch`] for its whole share of the
//! batch (`gcc_parallel::par_map_indexed_with`), so the hot-path buffers
//! — depth keys, radix ping-pong, footprints, CSR bins — are allocated
//! once per worker instead of once per frame. Renders are bit-identical
//! to fresh-scratch renders, so frame results stay independent of which
//! worker rendered them.

use gcc_core::Camera;
use gcc_parallel::{par_map_indexed_with, Parallelism};
use gcc_render::pipeline::{Frame, FrameScratch, FrameStats, RenderJob, RenderOptions, Renderer};

use crate::{Scene, ViewSpec};

/// Renders a scene's camera trajectory as a batch through any renderer.
#[derive(Debug, Clone)]
pub struct TrajectoryRunner {
    /// Number of evenly spaced viewpoints on the rig (`t = i / frames`).
    pub frames: usize,
    /// Frame-level parallelism policy.
    pub parallelism: Parallelism,
}

impl Default for TrajectoryRunner {
    fn default() -> Self {
        Self {
            frames: 8,
            parallelism: Parallelism::Auto,
        }
    }
}

impl TrajectoryRunner {
    /// Runner over `frames` viewpoints with automatic parallelism.
    ///
    /// # Panics
    ///
    /// Panics when `frames` is zero.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "a trajectory needs at least one frame");
        Self {
            frames,
            ..Self::default()
        }
    }

    /// Sets the frame-level parallelism policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The view requests this runner emits, in trajectory order:
    /// [`ViewSpec::Trajectory`] at `t = i / frames`. This is the runner's
    /// half of the request-model API — pair each view with
    /// [`RenderOptions`] and any scene to get concrete render jobs.
    pub fn views(&self) -> Vec<ViewSpec> {
        (0..self.frames)
            .map(|i| ViewSpec::trajectory(i as f32 / self.frames as f32))
            .collect()
    }

    /// An endpoint-inclusive trajectory sweep: `frames` views evenly
    /// spaced from `t0` to `t1` (a single frame sits at `t0`; the last
    /// frame is exactly `t1`, and intermediate samples are clamped into
    /// `[min(t0,t1), max(t0,t1)]` so valid endpoints can never round a
    /// sample out of range). `t1 < t0` sweeps backwards. This is the
    /// view-list behind `gcc_serve`'s `TrajectorySweep` streams; unlike
    /// [`Self::views`] it hits both endpoints, which is what a playback
    /// client scrubbing a sub-range wants.
    pub fn sweep_views(t0: f32, t1: f32, frames: usize) -> Vec<ViewSpec> {
        let (lo, hi) = (t0.min(t1), t0.max(t1));
        (0..frames)
            .map(|i| {
                let t = if i == 0 {
                    t0
                } else if i + 1 == frames {
                    t1
                } else {
                    (t0 + (t1 - t0) * (i as f32 / (frames - 1) as f32)).clamp(lo, hi)
                };
                ViewSpec::trajectory(t)
            })
            .collect()
    }

    /// One full orbit loop as absolute-angle [`ViewSpec::Orbit`] views:
    /// `frames` evenly spaced angles over `[0, 2π)` (endpoint-exclusive,
    /// like [`Self::views`], so consecutive loops tile seamlessly) at a
    /// common radius scale and height offset. The view-list behind
    /// `gcc_serve`'s `OrbitLoop` streams.
    pub fn orbit_views(frames: usize, radius_scale: f32, height_offset: f32) -> Vec<ViewSpec> {
        (0..frames)
            .map(|i| ViewSpec::Orbit {
                angle: std::f32::consts::TAU * i as f32 / frames as f32,
                radius_scale,
                height_offset,
            })
            .collect()
    }

    /// The cameras this runner samples, in trajectory order.
    pub fn cameras(&self, scene: &Scene) -> Vec<Camera> {
        (0..self.frames)
            .map(|i| scene.camera(i as f32 / self.frames as f32))
            .collect()
    }

    /// Renders the whole trajectory through `renderer` with default
    /// options. Frame `i` of the result is viewpoint `t = i / frames`,
    /// independent of the thread count.
    pub fn run(&self, scene: &Scene, renderer: &dyn Renderer) -> TrajectoryResult {
        self.run_with_options(scene, renderer, &RenderOptions::default())
    }

    /// Renders the whole trajectory with per-request [`RenderOptions`]
    /// applied to every frame (resolution override, ROI, background and
    /// quality knobs). With default options this is exactly [`Self::run`].
    ///
    /// # Panics
    ///
    /// Panics when the options are invalid for this scene (direct callers
    /// get the typed error from [`Scene::resolve_view`]; the serving layer
    /// validates at submit).
    pub fn run_with_options(
        &self,
        scene: &Scene,
        renderer: &dyn Renderer,
        options: &RenderOptions,
    ) -> TrajectoryResult {
        let views = self.views();
        let cameras: Vec<Camera> = views
            .iter()
            .map(|v| {
                scene
                    .resolve_view(v, options)
                    .expect("trajectory views are valid by construction")
            })
            .collect();
        let frames = par_map_indexed_with(
            cameras.len(),
            self.parallelism.threads(),
            FrameScratch::new,
            |scratch, i| {
                renderer.render_job(
                    &RenderJob::with_options(&scene.gaussians, &cameras[i], options.clone()),
                    scratch,
                )
            },
        );
        TrajectoryResult { frames }
    }
}

/// The frames of one trajectory run, in trajectory order.
#[derive(Debug, Clone)]
pub struct TrajectoryResult {
    /// Rendered frames (image + stats per viewpoint).
    pub frames: Vec<Frame>,
}

impl TrajectoryResult {
    /// Sum of all per-frame statistics (every counter is additive across
    /// frames; `total_gaussians` etc. accumulate per-frame contributions,
    /// so divide by [`Self::len`] for per-frame means). Note that the
    /// aggregate's `windows` counts frames×windows — feed *per-frame*
    /// stats, not this sum, to `gcc_sim::scaling::scale_stats`.
    pub fn aggregate_stats(&self) -> FrameStats {
        let mut total = FrameStats::default();
        for f in &self.frames {
            total.merge_add(&f.stats);
        }
        total
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when the trajectory rendered no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SceneConfig, ScenePreset};
    use gcc_render::pipeline::{GaussianWiseRenderer, StandardRenderer};

    fn scene() -> Scene {
        ScenePreset::Lego.build(&SceneConfig::with_scale(0.03))
    }

    #[test]
    fn trajectory_covers_requested_viewpoints() {
        let scene = scene();
        let runner = TrajectoryRunner::new(5).with_parallelism(Parallelism::Sequential);
        let cams = runner.cameras(&scene);
        assert_eq!(cams.len(), 5);
        let result = runner.run(&scene, &StandardRenderer::default());
        assert_eq!(result.len(), 5);
        assert!(!result.is_empty());
        for f in &result.frames {
            assert_eq!(f.image.width(), scene.resolution.0);
            assert_eq!(f.stats.total_gaussians, scene.len() as u64);
        }
    }

    #[test]
    fn parallel_batch_matches_sequential_batch_exactly() {
        let scene = scene();
        let renderer = GaussianWiseRenderer::default();
        let seq = TrajectoryRunner::new(6)
            .with_parallelism(Parallelism::Sequential)
            .run(&scene, &renderer);
        let par = TrajectoryRunner::new(6)
            .with_parallelism(Parallelism::fixed(4))
            .run(&scene, &renderer);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.frames.iter().zip(&par.frames) {
            assert_eq!(a.image, b.image);
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(seq.aggregate_stats(), par.aggregate_stats());
    }

    #[test]
    fn nested_maps_over_a_threaded_renderer_match_the_sequential_batch() {
        // Frames across the runner's workers, and each frame's own maps on
        // the same parked helpers inside them.
        let scene = scene();
        let seq = TrajectoryRunner::new(6)
            .with_parallelism(Parallelism::Sequential)
            .run(&scene, &StandardRenderer::default());
        let threaded = StandardRenderer::default().with_parallelism(Parallelism::fixed(2));
        for runner in [1, 2, 8]
            .map(Parallelism::fixed)
            .into_iter()
            .chain([Parallelism::Auto])
        {
            let par = TrajectoryRunner::new(6)
                .with_parallelism(runner)
                .run(&scene, &threaded);
            for (a, b) in seq.frames.iter().zip(&par.frames) {
                assert_eq!(a.image, b.image, "{runner:?}");
                assert_eq!(a.stats, b.stats, "{runner:?}");
            }
        }
    }

    #[test]
    fn aggregate_sums_per_frame_counters() {
        let scene = scene();
        let runner = TrajectoryRunner::new(3).with_parallelism(Parallelism::Sequential);
        let result = runner.run(&scene, &StandardRenderer::gscore());
        let agg = result.aggregate_stats();
        let manual: u64 = result.frames.iter().map(|f| f.stats.pixels_blended).sum();
        assert_eq!(agg.pixels_blended, manual);
        assert_eq!(agg.total_gaussians, 3 * scene.len() as u64);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_rejected() {
        let _ = TrajectoryRunner::new(0);
    }

    #[test]
    fn sweep_views_hit_both_endpoints_and_stay_in_range() {
        let views = TrajectoryRunner::sweep_views(0.2, 1.0, 5);
        assert_eq!(views.len(), 5);
        assert_eq!(views[0], ViewSpec::trajectory(0.2));
        assert_eq!(views[4], ViewSpec::trajectory(1.0));
        for v in &views {
            assert!(v.validate().is_ok(), "{v:?}");
        }
        // Backwards sweep and the single-frame degenerate case.
        let back = TrajectoryRunner::sweep_views(0.9, 0.1, 3);
        assert_eq!(back[0], ViewSpec::trajectory(0.9));
        assert_eq!(back[2], ViewSpec::trajectory(0.1));
        assert_eq!(
            TrajectoryRunner::sweep_views(0.4, 0.8, 1),
            vec![ViewSpec::trajectory(0.4)]
        );
        assert!(TrajectoryRunner::sweep_views(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn orbit_views_tile_the_circle_endpoint_exclusive() {
        let views = TrajectoryRunner::orbit_views(4, 1.5, -0.2);
        assert_eq!(views.len(), 4);
        for (i, v) in views.iter().enumerate() {
            match v {
                ViewSpec::Orbit {
                    angle,
                    radius_scale,
                    height_offset,
                } => {
                    let want = std::f32::consts::TAU * i as f32 / 4.0;
                    assert!((angle - want).abs() < 1e-6);
                    assert_eq!(*radius_scale, 1.5);
                    assert_eq!(*height_offset, -0.2);
                }
                other => panic!("expected orbit view, got {other:?}"),
            }
            assert!(v.validate().is_ok());
        }
    }
}
