//! The traced per-layer pass (`--trace 1`): never mixed with the
//! end-to-end pass.
//!
//! One invocation prints every per-layer metric, so it replays every
//! workload's script traced and runs the stage / codec / rung probes,
//! recording a span around each call into a layer; every per-layer
//! timing is derived from those spans. The workload named on the command
//! line replays for [`TRACED_SHARE`] of `--seconds` (8 s of the default
//! 20), once untraced and once traced: `trace.overhead_share` is the
//! `frames_per_s` it loses to tracing, and its traced phase supplies the
//! `loadgen.*` numbers. The other scripts replay for a third of that,
//! which keeps a traced run within the driver's time cap.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use gcc_core::bounds::PixelRect;
use gcc_core::dispatch::{self, Backend};
use gcc_core::sort::{sort_group, SortRecord, SortStats};
use gcc_lod::{attach_hierarchy, CostModel};
use gcc_parallel::{radix_sort_indices_into, Parallelism};
use gcc_render::pipeline::stages::{self, TileBins};
use gcc_render::pipeline::{FrameScratch, FrameStats, RenderJob};
use gcc_render::quality::ssim;
use gcc_render::standard::StandardConfig;
use gcc_render::upscale::upscale_bilinear;
use gcc_render::{Frame, Renderer, Roi, Schedule, StandardRenderer};
use gcc_scene::rng::StdRng;
use gcc_scene::{Scene, SceneConfig, ALL_PRESETS};
use gcc_serve::{LruSceneCache, ServeConfig, ServeStats, StreamSpec};
use gcc_sim::gcc::{simulate_gcc, GccSimConfig};
use gcc_sim::gscore::{simulate_gscore, GscoreConfig};
use gcc_wire::{Request, Response};

use crate::fleet::{ring_owners, Fleet, Topology};
use crate::harness::{phase_values, Record, RunPlan};
use crate::script::{
    options, LodScript, ServeScript, LOD_SCENE, ORBIT_SCENE, RESOLUTION, SERVED_SCENES,
};
use crate::spec::{Values, UNBOUNDED};
use crate::stats::{geomean, mean, median, peak_rss_mib, percentile};
use crate::trace::{SpanId, SpanLog};
use crate::verify::Tally;
use crate::workloads::deadline_lod::{DeadlineLod, LOD_SCHEDULE};
use crate::workloads::render_orbit::{OrbitRig, RenderOrbit};
use crate::workloads::served::{one_frame, Served, ServedScript, WorkDir};
use crate::workloads::{Phase, Workload};

/// Every how-many-th view of a lap the render probes replay.
const VIEW_STRIDE: usize = 4;

/// Share of `--seconds` the named workload's two replays each last.
pub const TRACED_SHARE: f64 = 0.4;

/// State of one traced pass.
struct Pass {
    named: String,
    /// Length of the named workload's untraced and traced replays.
    named_length: Duration,
    /// Length of every other replay.
    side_length: Duration,
    values: Values,
    log: SpanLog,
    tally: Tally,
    named_threads: (usize, usize),
    named_hash: u64,
}

impl Pass {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Median duration (ms) of the spans called `name`.
    fn span_ms(&self, name: &str) -> f64 {
        median(&self.log.durations_ms(name))
    }

    /// Runs `f` `reps` times, each inside a probe span `name`, and
    /// returns the median span in nanoseconds per element.
    fn ns_per_elem(
        &mut self,
        name: &'static str,
        elems: usize,
        reps: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let first = self.log.len();
        for _ in 0..reps {
            self.log.time(name, SpanId::NONE, 0, &mut f);
        }
        let ms: Vec<f64> = self.log.spans()[first..]
            .iter()
            .map(crate::trace::Span::ms)
            .collect();
        median(&ms) * 1e6 / elems as f64
    }

    /// Sets the workload up and replays its script for one traced
    /// phase. The workload named on the command line first runs an
    /// untraced phase of the same length, which prices the tracing, and
    /// its traced phase supplies the load-generator numbers.
    fn replay<W: Workload>(&mut self, name: &str, workload: &W) -> Phase {
        let mut rig = workload.set_up();
        let named = name == self.named;
        let length = if named {
            self.named_length
        } else {
            self.side_length
        };
        let untraced = named.then(|| workload.run(&mut rig, length, false));
        let phase = workload.run(&mut rig, length, true);
        workload.tear_down(rig);
        if let Some(untraced) = untraced {
            // The unbounded metrics of the issue's eight, from the replay
            // tracing did not touch.
            for (metric, value) in phase_values(&untraced) {
                if UNBOUNDED.contains(&metric) {
                    self.set(metric, value);
                }
            }
            let (plain, traced) = (untraced.frames_per_s(), phase.frames_per_s());
            self.set(
                "trace.overhead_share",
                if plain > 0.0 {
                    1.0 - traced / plain
                } else {
                    0.0
                },
            );
            let frames = phase.tally.attempted.max(1) as f64;
            self.set("loadgen.cpu_ms_per_frame", phase.cpu_s * 1e3 / frames);
            let (ticks, late) = phase.ticks;
            self.set(
                "loadgen.late_tick_share",
                if ticks > 0 {
                    late as f64 / ticks as f64
                } else {
                    0.0
                },
            );
            self.named_threads = workload.threads();
            self.named_hash = workload.script_hash();
        }
        self.tally.merge(&phase.tally);
        phase
    }

    /// Keeps a finished phase's spans.
    fn keep(&mut self, phase: Phase) {
        self.log.absorb(phase.spans);
    }
}

/// Runs the traced pass for the workload called `name`; writes the spans
/// to `out` as JSON lines when given.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates it first) or
/// when `out` cannot be written.
pub fn run_traced(name: &str, plan: RunPlan, out: Option<&Path>) -> Record {
    let workload = crate::spec::workload(name)
        .unwrap_or_else(|| panic!("unknown workload {name}"))
        .name;
    let named_length = plan.measured.mul_f64(TRACED_SHARE);
    let mut pass = Pass {
        named: name.to_string(),
        named_length,
        side_length: named_length / 3,
        values: Values::new(),
        log: SpanLog::recording(),
        tally: Tally::default(),
        named_threads: (0, 0),
        named_hash: 0,
    };

    let orbit = RenderOrbit::prepare(plan.seed);
    let phase = pass.replay("render_orbit", &orbit);
    pass.keep(phase);
    let rig = orbit.set_up();
    let orbit_stats = render_layers(&mut pass, &rig);
    kernel_layers(&mut pass, &rig);
    drop(rig);
    scene_layers(&mut pass);
    sim_layers(&mut pass, &orbit_stats);
    drop(orbit);
    {
        let served = ServedScript::prepare(plan.seed);
        let in_process = serve_layers(&mut pass, &served);
        wire_layers(&mut pass, &served, in_process);
    }
    lod_layers(&mut pass, &DeadlineLod::prepare(plan.seed));

    // Of this process: every script and probe above, not one workload.
    pass.set("peak_rss_mb", peak_rss_mib());
    pass.set("trace.spans", pass.log.len() as f64);
    if let Some(path) = out {
        pass.log.write_jsonl(path).expect("write the span file");
    }
    Record {
        workload,
        attempted: pass.tally.attempted,
        failed: pass.tally.failed(),
        samples: pass.log.len(),
        setups: 0,
        script_hash: pass.named_hash,
        threads: pass.named_threads,
        measured_s: named_length.as_secs_f64(),
        values: pass.values,
    }
}

/// Every [`VIEW_STRIDE`]-th item.
fn sampled<T>(items: &[T]) -> impl Iterator<Item = &T> {
    items.iter().step_by(VIEW_STRIDE)
}

/// Renders the sampled lap views through `renderer` inside spans called
/// `name`, reusing `scratch` (or a fresh scratch per frame when `None`);
/// returns the frames.
fn render_lap(
    pass: &mut Pass,
    name: &'static str,
    rig: &OrbitRig,
    renderer: &dyn Renderer,
    opts: &gcc_render::RenderOptions,
    mut scratch: Option<&mut FrameScratch>,
) -> Vec<Frame> {
    sampled(&rig.cameras)
        .map(|camera| {
            let job = RenderJob::with_options(&rig.scene.gaussians, camera, opts.clone());
            pass.log
                .time(name, SpanId::NONE, 0, || match scratch.as_deref_mut() {
                    Some(s) => renderer.render_job(&job, s),
                    None => renderer.render_job(&job, &mut FrameScratch::new()),
                })
        })
        .collect()
}

fn merged(frames: &[FrameStats]) -> FrameStats {
    let mut total = FrameStats::default();
    for stats in frames {
        total.merge_add(stats);
    }
    total
}

/// `gcc-render.*` and `gcc-parallel.frame_speedup_t2`: the stage probes
/// on the orbit views, and the per-schedule, ROI, fresh-scratch and
/// upscale probes. Returns the sampled frames' stats under the standard
/// and the Gaussian-wise schedule.
fn render_layers(pass: &mut Pass, rig: &OrbitRig) -> [Vec<FrameStats>; 2] {
    let scene = &rig.scene;
    let cfg = StandardConfig::default();
    let kernels = dispatch::active();
    let (w, h) = RESOLUTION;
    let tiles_x = w.div_ceil(cfg.tile_size);
    let n_tiles = (tiles_x * h.div_ceil(cfg.tile_size)) as usize;
    let (mut rects, mut keys, mut order, mut radix): (Vec<PixelRect>, _, _, _) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bins = TileBins::new();
    let mut scratch = FrameScratch::new();
    let mut stats: [Vec<FrameStats>; 2] = [Vec::new(), Vec::new()];
    let standard_renderer = Schedule::Standard.renderer();
    // Each view through the standard schedule, then the schedule's
    // stages replayed one by one as children of that job's span: the
    // job's self time is what the replayed stages do not cover.
    for camera in sampled(&rig.cameras) {
        let log = &mut pass.log;
        let job = RenderJob::with_options(&scene.gaussians, camera, options(Schedule::Standard));
        let root = log.open("render_job.standard", SpanId::NONE, 0);
        stats[0].push(standard_renderer.render_job(&job, &mut scratch).stats);
        log.close(root);
        let mut projected = log.time("stages.project_all", root, 0, || {
            stages::project_all(&scene.gaussians, camera, cfg.law, 1)
        });
        let dirs: Vec<_> = projected
            .iter()
            .map(|p| camera.view_dir(scene.gaussians[p.id as usize].mean))
            .collect();
        let column = |f: fn(&gcc_math::Vec3) -> f32| dirs.iter().map(f).collect::<Vec<f32>>();
        let (dx, dy, dz) = (column(|d| d.x), column(|d| d.y), column(|d| d.z));
        log.time("stages.shade_all_soa", root, 0, || {
            stages::shade_all_soa(
                &mut projected,
                &scene.gaussians,
                &dx,
                &dy,
                &dz,
                cfg.sh_degree,
                1,
                kernels,
            )
        });
        let mean_x: Vec<f32> = projected.iter().map(|p| p.mean2d.x).collect();
        let mean_y: Vec<f32> = projected.iter().map(|p| p.mean2d.y).collect();
        let radius: Vec<f32> = projected.iter().map(|p| p.radius).collect();
        let depth: Vec<f32> = projected.iter().map(|p| p.depth).collect();
        log.time("stages.footprint_rects_soa_into", root, 0, || {
            stages::footprint_rects_soa_into(&mean_x, &mean_y, &radius, w, h, 1, &mut rects)
        });
        log.time("stages.global_depth_order_soa", root, 0, || {
            stages::global_depth_order_soa(&depth, 1, &mut keys, &mut order, &mut radix, kernels)
        });
        log.time("TileBins.build", root, 0, || {
            bins.build(&rects, &order, cfg.tile_size, tiles_x, n_tiles)
        });
    }

    for (schedule, span, metric) in [
        (
            Schedule::Reference,
            "render_job.reference",
            "gcc-render.reference.frame_ms_p50",
        ),
        (
            Schedule::Gscore,
            "render_job.gscore",
            "gcc-render.gscore.frame_ms_p50",
        ),
        (
            Schedule::GaussianWise,
            "render_job.gaussian_wise",
            "gcc-render.gaussian_wise.frame_ms_p50",
        ),
        (
            Schedule::GccHardware,
            "render_job.gcc_hardware",
            "gcc-render.gcc_hardware.frame_ms_p50",
        ),
    ] {
        let renderer = schedule.renderer();
        let opts = options(schedule);
        let frames = render_lap(
            pass,
            span,
            rig,
            renderer.as_ref(),
            &opts,
            Some(&mut scratch),
        );
        pass.set(metric, pass.span_ms(span));
        if schedule == Schedule::GaussianWise {
            stats[1] = frames.iter().map(|f| f.stats).collect();
        }
    }
    let whole = pass.span_ms("render_job.standard");
    pass.set("gcc-render.standard.frame_ms_p50", whole);

    for (metric, span) in [
        ("gcc-render.project_ms", "stages.project_all"),
        ("gcc-render.shade_ms", "stages.shade_all_soa"),
        ("gcc-render.depth_order_ms", "stages.global_depth_order_soa"),
        ("gcc-render.footprint_ms", "stages.footprint_rects_soa_into"),
        ("gcc-render.bin_ms", "TileBins.build"),
    ] {
        pass.set(metric, pass.span_ms(span));
    }
    // Self time of the whole job: what the replayed stages do not cover
    // (SoA packing, blending, resolve).
    let blend_ms = median(&pass.log.self_ms("render_job.standard"));
    pass.set("gcc-render.blend_resolve_ms", blend_ms);

    let frames = stats[0].len().max(1) as f64;
    let (standard, gaussian_wise) = (merged(&stats[0]), merged(&stats[1]));
    let blended = standard.pixels_blended as f64 / frames;
    pass.set("gcc-render.ns_per_blend", blend_ms * 1e6 / blended.max(1.0));
    pass.set(
        "gcc-render.projected_per_frame",
        standard.projected as f64 / frames,
    );
    pass.set("gcc-render.pixels_blended_per_frame", blended);
    pass.set(
        "gcc-render.kv_pairs_per_frame",
        standard.kv_pairs as f64 / frames,
    );
    pass.set("gcc-render.unused_fraction", standard.unused_fraction());
    pass.set(
        "gcc-render.geometry_load_fraction",
        gaussian_wise.geometry_load_fraction(),
    );
    let share = |part: u64, rest: u64| {
        if part + rest == 0 {
            0.0
        } else {
            part as f64 / (part + rest) as f64
        }
    };
    pass.set(
        "gcc-render.groups_skipped_share",
        share(gaussian_wise.groups_skipped, gaussian_wise.groups_processed),
    );
    pass.set(
        "gcc-render.blocks_masked_skip_share",
        share(
            gaussian_wise.blocks_masked_skips,
            gaussian_wise.blocks_dispatched,
        ),
    );

    let quarter = options(Schedule::Standard).with_roi(Roi::new(w / 4, h / 4, w / 2, h / 2));
    render_lap(
        pass,
        "render_job.roi_quarter",
        rig,
        standard_renderer.as_ref(),
        &quarter,
        Some(&mut scratch),
    );
    pass.set(
        "gcc-render.roi_quarter.frame_ms_p50",
        pass.span_ms("render_job.roi_quarter"),
    );
    let opts = options(Schedule::Standard);
    render_lap(
        pass,
        "render_job.fresh_scratch",
        rig,
        standard_renderer.as_ref(),
        &opts,
        None,
    );
    pass.set(
        "gcc-render.fresh_scratch_penalty_ms",
        pass.span_ms("render_job.fresh_scratch") - whole,
    );
    let threaded = StandardRenderer::default().with_parallelism(Parallelism::fixed(2));
    render_lap(
        pass,
        "render_job.standard_t2",
        rig,
        &threaded,
        &opts,
        Some(&mut scratch),
    );
    pass.set(
        "gcc-parallel.frame_speedup_t2",
        whole / pass.span_ms("render_job.standard_t2").max(1e-9),
    );
    let half = options(Schedule::Standard).at_resolution(w / 2, h / 2);
    let camera = scene
        .resolve_view(&gcc_scene::ViewSpec::trajectory(0.0), &half)
        .expect("scripted views are valid");
    let small = standard_renderer
        .render_job(
            &RenderJob::with_options(&scene.gaussians, &camera, half),
            &mut scratch,
        )
        .image;
    for _ in 0..9 {
        pass.log.time("upscale_bilinear", SpanId::NONE, 0, || {
            std::hint::black_box(upscale_bilinear(&small, w, h))
        });
    }
    pass.set("gcc-render.upscale_ms", pass.span_ms("upscale_bilinear"));
    stats
}

/// `gcc-math.*`, `gcc-core.*` and the radix numbers of `gcc-parallel`.
fn kernel_layers(pass: &mut Pass, rig: &OrbitRig) {
    const N: usize = 1 << 16;
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    let active = dispatch::active();
    let scalar = dispatch::kernel_set(Backend::Scalar).expect("the scalar backend always exists");

    // The alpha domain the datapath clamps to, plus both clamped tails.
    let powers: Vec<f32> = (0..N).map(|_| rng.gen_range(-6.0f32..0.5)).collect();
    let in_domain: Vec<f32> = powers.iter().map(|p| p.clamp(-5.5, -1e-3)).collect();
    let ns = pass.ns_per_elem("gcc_math.det_exp", N, 15, || {
        let sum: f32 = in_domain.iter().map(|&x| gcc_math::exp::det_exp(x)).sum();
        std::hint::black_box(sum);
    });
    pass.set("gcc-math.det_exp_ns", ns);

    let mut buffer = powers.clone();
    let mut alpha = |pass: &mut Pass, name, kernel: dispatch::AlphaPowersFn| {
        pass.ns_per_elem(name, N, 15, || {
            buffer.copy_from_slice(&powers);
            kernel(std::hint::black_box(&mut buffer));
        })
    };
    let alpha_active = alpha(pass, "KernelSet.alpha_powers", active.alpha_powers);
    let alpha_scalar = alpha(pass, "KernelSet.alpha_powers.scalar", scalar.alpha_powers);
    pass.set("gcc-core.alpha_powers_ns_per_elem", alpha_active);
    pass.set(
        "gcc-core.simd_speedup_alpha",
        alpha_scalar / alpha_active.max(1e-9),
    );

    let depths: Vec<f32> = (0..N).map(|_| rng.gen_range(0.2f32..40.0)).collect();
    let mut keys = vec![0u32; N];
    let ns = pass.ns_per_elem("KernelSet.depth_keys", N, 15, || {
        (active.depth_keys)(std::hint::black_box(&depths), &mut keys);
    });
    pass.set("gcc-core.depth_keys_ns_per_elem", ns);

    let scene = &rig.scene;
    let camera = &rig.cameras[0];
    let mut projected =
        stages::project_all(&scene.gaussians, camera, StandardConfig::default().law, 1);
    let dirs: Vec<_> = projected
        .iter()
        .map(|p| camera.view_dir(scene.gaussians[p.id as usize].mean))
        .collect();
    let (dx, dy, dz): (Vec<f32>, Vec<f32>, Vec<f32>) = (
        dirs.iter().map(|d| d.x).collect(),
        dirs.iter().map(|d| d.y).collect(),
        dirs.iter().map(|d| d.z).collect(),
    );
    let survivors = projected.len();
    let ns = pass.ns_per_elem("KernelSet.sh_colors", survivors, 15, || {
        (active.sh_colors)(
            &scene.gaussians,
            &dx,
            &dy,
            &dz,
            3,
            std::hint::black_box(&mut projected),
        );
    });
    pass.set("gcc-core.sh_colors_ns_per_elem", ns);

    let groups: Vec<Vec<SortRecord>> = (0..64)
        .map(|_| {
            (0..gcc_core::MAX_GROUP_SIZE as u32)
                .map(|id| SortRecord {
                    key: rng.gen_range(0.2f32..40.0),
                    id,
                })
                .collect()
        })
        .collect();
    let ns = pass.ns_per_elem("sort_group", 64 * gcc_core::MAX_GROUP_SIZE, 15, || {
        let mut stats = SortStats::default();
        for group in &groups {
            let mut records = group.clone();
            sort_group(&mut records, &mut stats);
            std::hint::black_box(&records);
        }
    });
    pass.set("gcc-core.sort_group_ns_per_elem", ns);

    let radix_keys: Vec<u32> = (0..4 * N).map(|_| rng.gen::<u64>() as u32).collect();
    let (mut order, mut scratch) = (Vec::new(), Vec::new());
    let t1 = pass.ns_per_elem("radix_sort_indices_into.t1", radix_keys.len(), 9, || {
        radix_sort_indices_into(&radix_keys, 1, &mut order, &mut scratch);
    });
    let t2 = pass.ns_per_elem("radix_sort_indices_into.t2", radix_keys.len(), 9, || {
        radix_sort_indices_into(&radix_keys, 2, &mut order, &mut scratch);
    });
    pass.set("gcc-parallel.radix_ns_per_key_t1", t1);
    pass.set("gcc-parallel.radix_speedup_t2", t1 / t2.max(1e-9));
}

/// `gcc-scene.*`: synthesis, both file codecs and view resolution on the
/// orbit scene.
fn scene_layers(pass: &mut Pass) {
    let dir = WorkDir::create("layers");
    let config = SceneConfig::with_scale(ORBIT_SCENE.scale);
    let mut scene = ORBIT_SCENE.preset.build(&config);
    let (binary, text) = (dir.path().join("scene.gcc"), dir.path().join("scene.json"));
    gcc_scene::io::write_json_file(&scene, &text).expect("write the JSON scene");
    for _ in 0..3 {
        let log = &mut pass.log;
        scene = log.time("ScenePreset.build", SpanId::NONE, 0, || {
            ORBIT_SCENE.preset.build(&config)
        });
        log.time("io.write_binary_file", SpanId::NONE, 0, || {
            gcc_scene::io::write_binary_file(&scene, &binary).expect("write the binary scene")
        });
        log.time("io.load_scene_file.binary", SpanId::NONE, 0, || {
            std::hint::black_box(
                gcc_scene::io::load_scene_file(&binary).expect("load the binary scene"),
            )
        });
        log.time("io.load_scene_file.json", SpanId::NONE, 0, || {
            std::hint::black_box(
                gcc_scene::io::load_scene_file(&text).expect("load the JSON scene"),
            )
        });
    }
    pass.set(
        "gcc-scene.build_preset_ms",
        pass.span_ms("ScenePreset.build"),
    );
    pass.set(
        "gcc-scene.write_binary_ms",
        pass.span_ms("io.write_binary_file"),
    );
    pass.set(
        "gcc-scene.load_binary_ms",
        pass.span_ms("io.load_scene_file.binary"),
    );
    pass.set(
        "gcc-scene.load_json_ms",
        pass.span_ms("io.load_scene_file.json"),
    );
    pass.set("gcc-scene.scene_bytes", scene.approx_bytes() as f64);
    let views = crate::script::OrbitScript::generate(0).views;
    let opts = options(Schedule::Standard);
    let ns = pass.ns_per_elem("Scene.resolve_view", views.len(), 15, || {
        for view in &views {
            std::hint::black_box(scene.resolve_view(view, &opts).expect("valid view"));
        }
    });
    pass.set("gcc-scene.resolve_view_us", ns / 1e3);
}

/// `gcc-sim.*`: host time of the report builders on the orbit frames'
/// stats, host time of a full simulation, and the simulated headline
/// ratios over the six presets (exact: a change that moves them is a
/// model change).
fn sim_layers(pass: &mut Pass, orbit_stats: &[Vec<FrameStats>; 2]) {
    let pixels = f64::from(RESOLUTION.0) * f64::from(RESOLUTION.1);
    let (gscore_cfg, gcc_cfg) = (GscoreConfig::default(), GccSimConfig::default());
    let frames = orbit_stats[0].len();
    let ns = pass.ns_per_elem("report_from_stats", frames, 15, || {
        for (standard, gaussian_wise) in orbit_stats[0].iter().zip(&orbit_stats[1]) {
            std::hint::black_box(gcc_sim::gscore::report_from_stats(
                standard,
                &gscore_cfg,
                "lego",
            ));
            std::hint::black_box(gcc_sim::gcc::report_from_stats(
                gaussian_wise,
                pixels,
                &gcc_cfg,
                "lego",
            ));
        }
    });
    pass.set("gcc-sim.report_us_per_frame", ns / 1e3);

    let (mut speedup, mut energy, mut fps, mut traffic) = (vec![], vec![], vec![], vec![]);
    for preset in ALL_PRESETS {
        let scene = preset.build(&SceneConfig::with_scale(0.1));
        let camera = scene.default_camera();
        let (gs, gc) = pass.log.time("simulate", SpanId::NONE, 0, || {
            let (gs, _) = simulate_gscore(&scene.gaussians, &camera, &gscore_cfg, &scene.name);
            let (gc, _) = simulate_gcc(&scene.gaussians, &camera, &gcc_cfg, &scene.name);
            (gs, gc)
        });
        // Area-normalized, as the paper reports them (Fig. 10).
        speedup.push(gc.fps_per_mm2() / gs.fps_per_mm2());
        energy.push(
            (gs.energy_per_frame_mj() * gs.area_mm2) / (gc.energy_per_frame_mj() * gc.area_mm2),
        );
        fps.push(gc.fps());
        traffic.push(gc.traffic.total() / gs.traffic.total());
    }
    // One span covers both accelerators' frames.
    pass.set(
        "gcc-sim.simulate_ms_per_frame",
        pass.span_ms("simulate") / 2.0,
    );
    pass.set("gcc-sim.speedup_vs_gscore_geomean", geomean(&speedup));
    pass.set("gcc-sim.energy_ratio_vs_gscore_geomean", geomean(&energy));
    pass.set("gcc-sim.gcc_fps_geomean", geomean(&fps));
    pass.set("gcc-sim.dram_traffic_ratio_geomean", geomean(&traffic));
}

/// Client A's request latencies (open + wait, ms) of a traced phase.
fn interactive_ms(spans: &SpanLog) -> Vec<f64> {
    let opens = spans.children_ms("request.interactive", "client.open");
    let waits = spans.children_ms("request.interactive", "client.wait");
    opens
        .iter()
        .zip(&waits)
        .map(|(o, w)| o.iter().sum::<f64>() + w.iter().sum::<f64>())
        .collect()
}

/// `gcc-serve.*`: the served script in process at two workers and at
/// one, a churn script under a budget that holds two of three scenes,
/// and the cache itself. Returns the two-worker Interactive p50 (ms).
fn serve_layers(pass: &mut Pass, served: &ServedScript) -> f64 {
    let two = pass.replay(
        "serve_mixed",
        &Served::new(served, Topology::InProcess { workers: 2 }),
    );
    let stats = two.stats.clone().expect("served phases carry stats");
    let latencies = interactive_ms(&two.spans);
    let p50 = median(&latencies);
    pass.set("gcc-serve.overhead_ms_p50", p50 - median(&served.direct_ms));
    pass.set("gcc-serve.interactive_ms_p99", percentile(&latencies, 0.99));
    let opens: Vec<f64> = two
        .spans
        .children_ms("request.interactive", "client.open")
        .concat();
    pass.set("gcc-serve.open_us_p50", median(&opens) * 1e3);
    let bulk_waits = two.spans.children_ms("request.bulk", "client.wait");
    let firsts: Vec<f64> = bulk_waits
        .iter()
        .filter_map(|w| w.first().copied())
        .collect();
    let gaps: Vec<f64> = bulk_waits
        .iter()
        .flat_map(|w| w.iter().skip(1).copied())
        .collect();
    pass.set("gcc-serve.first_frame_ms_p50", median(&firsts));
    pass.set("gcc-serve.bulk_gap_ms_p50", median(&gaps));
    let bulk_frames: usize = bulk_waits.iter().map(Vec::len).sum();
    pass.set(
        "gcc-serve.bulk_frames_per_s",
        bulk_frames as f64 / two.length.as_secs_f64(),
    );
    pass.set(
        "gcc-serve.stats_us_p50",
        median(&two.spans.durations_ms("client.stats")) * 1e3,
    );
    pass.set("gcc-serve.frames_per_batch", stats.frames_per_batch());
    pass.set("gcc-serve.max_queue_depth", stats.max_queue_depth as f64);
    pass.set(
        "gcc-serve.server_latency_p50_ms",
        interactive_server_p50(&stats),
    );
    pass.set("gcc-serve.hit_rate", stats.hit_rate());
    pass.set("gcc-serve.rejected", two.undelivered.rejected as f64);
    pass.set("gcc-serve.respawns", stats.respawns as f64);
    let two_fps = two.frames_per_s();
    pass.keep(two);

    let one = pass.replay("", &Served::new(served, Topology::InProcess { workers: 1 }));
    pass.set(
        "gcc-serve.scaling_w2",
        two_fps / one.frames_per_s().max(1e-9),
    );
    pass.keep(one);

    // Churn: a budget one half-scene short of all three, so a cyclic
    // walk over the scenes misses (and evicts) on every request.
    let bytes: Vec<usize> = served.scenes.iter().map(Scene::approx_bytes).collect();
    let smallest = bytes.iter().copied().min().unwrap_or(0);
    let budget = bytes.iter().sum::<usize>() - smallest / 2;
    let config = ServeConfig {
        cache_budget_bytes: budget,
        ..ServeConfig::default()
    };
    let fleet = Fleet::start(
        Topology::InProcess { workers: 2 },
        &config,
        &served.registry,
    );
    let mut conn = fleet.connect();
    let view = served.script.interactive[0].view.clone();
    for k in 0..4 * SERVED_SCENES.len() {
        let def = &SERVED_SCENES[k % SERVED_SCENES.len()];
        pass.log.time("churn.request", SpanId::NONE, 0, || {
            one_frame(
                &mut conn,
                def.id,
                Schedule::Standard,
                view.clone(),
                ServeScript::interactive_config(),
            )
            .expect("churn frame")
        });
    }
    drop(conn);
    pass.set(
        "gcc-serve.cold_first_frame_ms_p50",
        pass.span_ms("churn.request"),
    );
    pass.set("gcc-serve.evictions", fleet.stats().evictions() as f64);
    fleet.shutdown();

    let scenes: Vec<Arc<Scene>> = served.scenes.iter().cloned().map(Arc::new).collect();
    let mut cache = LruSceneCache::new(budget);
    let inserts = 300;
    let ns = pass.ns_per_elem("LruSceneCache.insert", inserts, 9, || {
        for k in 0..inserts {
            let i = k % scenes.len();
            std::hint::black_box(cache.insert(SERVED_SCENES[i].id, Arc::clone(&scenes[i])));
        }
    });
    pass.set("gcc-serve.cache_insert_us", ns / 1e3);
    p50
}

/// The service's own Interactive p50 (ms), to compare with the client's.
fn interactive_server_p50(stats: &ServeStats) -> f64 {
    stats
        .per_priority
        .get(&gcc_serve::Priority::Interactive)
        .map_or(0.0, |p| p.latency_p50_ms)
}

/// Median ping round trip (µs) through `fleet`'s front.
fn ping_us(pass: &mut Pass, name: &'static str, fleet: &Fleet) -> f64 {
    let mut conn = fleet.connect();
    for _ in 0..200 {
        pass.log.time(name, SpanId::NONE, 0, || {
            conn.ping().expect("ping over loopback")
        });
    }
    pass.span_ms(name) * 1e3
}

/// `gcc-wire.*`: the served script straight into one two-worker
/// `WireServer` and through the sharded proxy, pings on both, and the
/// codecs on a real frame, request and stats snapshot.
fn wire_layers(pass: &mut Pass, served: &ServedScript, in_process_p50: f64) {
    let direct_workload = Served::new(served, Topology::WireDirect { workers: 2 });
    let direct = pass.replay("", &direct_workload);
    let direct_p50 = median(&interactive_ms(&direct.spans));
    pass.set(
        "gcc-wire.direct_overhead_ms_p50",
        direct_p50 - in_process_p50,
    );
    let mut undelivered = direct.undelivered;
    pass.keep(direct);

    let sharded_workload = Served::new(served, Topology::Sharded);
    let sharded = pass.replay("wire_loopback", &sharded_workload);
    let stats = sharded.stats.clone().expect("served phases carry stats");
    pass.set(
        "gcc-wire.proxy_hop_ms_p50",
        median(&interactive_ms(&sharded.spans)) - direct_p50,
    );
    let opens: Vec<f64> = sharded
        .spans
        .children_ms("request.interactive", "client.open")
        .concat();
    pass.set("gcc-wire.open_ms_p50", median(&opens));
    pass.set(
        "gcc-wire.stats_rtt_ms_p50",
        median(&sharded.spans.durations_ms("client.stats")),
    );
    undelivered.merge(sharded.undelivered);
    pass.set("gcc-wire.rejected", undelivered.rejected as f64);
    pass.set("gcc-wire.transport_errors", undelivered.transport as f64);
    pass.keep(sharded);

    let fleet = direct_workload.set_up();
    let us = ping_us(pass, "ping.direct", &fleet);
    pass.set("gcc-wire.ping_us_p50_direct", us);
    // A real frame for the codec probes.
    let frame = one_frame(
        &mut fleet.connect(),
        SERVED_SCENES[0].id,
        Schedule::Standard,
        served.script.interactive[0].view.clone(),
        ServeScript::interactive_config(),
    )
    .expect("codec probe frame");
    fleet.shutdown();
    let fleet = sharded_workload.set_up();
    let us = ping_us(pass, "ping.proxy", &fleet);
    pass.set("gcc-wire.ping_us_p50_proxy", us);
    fleet.shutdown();

    let response = Response::Frame {
        stream: 1,
        index: 0,
        frame,
    };
    let (kind, payload) = response.encode();
    pass.set("gcc-wire.frame_bytes", payload.len() as f64);
    for _ in 0..15 {
        let log = &mut pass.log;
        log.time("Response.encode.frame", SpanId::NONE, 0, || {
            std::hint::black_box(response.encode())
        });
        log.time("Response.decode.frame", SpanId::NONE, 0, || {
            std::hint::black_box(Response::decode(kind, &payload).expect("decode a frame"))
        });
    }
    pass.set(
        "gcc-wire.encode_frame_ms",
        pass.span_ms("Response.encode.frame"),
    );
    pass.set(
        "gcc-wire.decode_frame_ms",
        pass.span_ms("Response.decode.frame"),
    );

    let bulk = &served.script.bulk[0];
    let request = Request::Open {
        scene: SERVED_SCENES[bulk.scene].id.to_string(),
        defaults: options(Schedule::Standard),
        spec: StreamSpec::ViewList(bulk.views.clone()),
        config: ServeScript::bulk_config(),
    };
    let (kind, payload) = request.encode();
    let reps = 200;
    let ns = pass.ns_per_elem("Request.encode", reps, 9, || {
        for _ in 0..reps {
            std::hint::black_box(request.encode());
        }
    });
    pass.set("gcc-wire.encode_request_us", ns / 1e3);
    let ns = pass.ns_per_elem("Request.decode", reps, 9, || {
        for _ in 0..reps {
            std::hint::black_box(Request::decode(kind, &payload).expect("decode a request"));
        }
    });
    pass.set("gcc-wire.decode_request_us", ns / 1e3);
    let snapshot = Response::Stats(Box::new(stats));
    let ns = pass.ns_per_elem("Response.encode.stats", reps, 9, || {
        for _ in 0..reps {
            std::hint::black_box(snapshot.encode());
        }
    });
    pass.set("gcc-wire.encode_stats_us", ns / 1e3);

    let owners = ring_owners(SERVED_SCENES.iter().map(|d| d.id), 2);
    let most = owners.iter().copied().max().unwrap_or(0);
    pass.set(
        "gcc-wire.ring_max_share",
        most as f64 / SERVED_SCENES.len() as f64,
    );
}

/// `gcc-lod.*`: the hierarchy builder, the cost model, every rung
/// rendered directly on the script's views, and the deadline script's
/// traced replay scored against the oracle rung.
fn lod_layers(pass: &mut Pass, lod: &DeadlineLod) {
    let config = SceneConfig::with_scale(LOD_SCENE.scale);
    let mut scene = LOD_SCENE.preset.build(&config);
    for _ in 0..3 {
        scene.lod = None;
        pass.log.time("attach_hierarchy", SpanId::NONE, 0, || {
            attach_hierarchy(&mut scene, &lod.policy.hierarchy)
        });
    }
    pass.set(
        "gcc-lod.build_hierarchy_ms",
        pass.span_ms("attach_hierarchy"),
    );

    let ladder = &lod.policy.ladder;
    let mut model = CostModel::new();
    for (rung, spec) in ladder.rungs().iter().enumerate() {
        model.observe(LOD_SCENE.id, rung, RESOLUTION, 60.0 * spec.nominal_cost);
    }
    let reps = 1000;
    let ns = pass.ns_per_elem("CostModel.select_rung", reps, 9, || {
        for k in 0..reps {
            let budget = 5.0 + (k % 64) as f64;
            std::hint::black_box(model.select_rung(
                ladder,
                LOD_SCENE.id,
                RESOLUTION,
                budget,
                lod.policy.margin,
            ));
        }
    });
    pass.set("gcc-lod.select_rung_us", ns / 1e3);

    // Every rung the way the service renders it: rung options, hierarchy
    // level, upscale back to the target size.
    const RUNG_SPANS: [&str; 4] = [
        "rung0.render",
        "rung1.render",
        "rung2.render",
        "rung3.render",
    ];
    assert_eq!(
        ladder.len(),
        RUNG_SPANS.len(),
        "the metric names assume the four-rung ladder"
    );
    let renderer = LOD_SCHEDULE.renderer();
    let mut scratch = FrameScratch::new();
    let hierarchy = scene.lod.as_ref().expect("hierarchy attached above");
    let mut rung_ssim = Vec::new();
    for (rung, spec) in ladder.rungs().iter().enumerate() {
        let opts = spec.apply(&options(LOD_SCHEDULE), RESOLUTION);
        let gaussians = hierarchy.level_gaussians(&scene.gaussians, spec.lod_level);
        let mut scores = Vec::new();
        for (view, reference) in sampled(&lod.script.views).zip(sampled(&lod.reference)) {
            let camera = scene
                .resolve_view(view, &opts)
                .expect("scripted views are valid");
            let job = RenderJob::with_options(gaussians, &camera, opts.clone());
            let image = pass.log.time(RUNG_SPANS[rung], SpanId::NONE, 0, || {
                let image = renderer.render_job(&job, &mut scratch).image;
                upscale_bilinear(&image, RESOLUTION.0, RESOLUTION.1)
            });
            let exact = reference
                .exact
                .as_ref()
                .expect("deadline_lod keeps exact pixels");
            scores.push(ssim(exact, &image));
        }
        rung_ssim.push(mean(&scores));
    }
    let rung_ms = |pass: &Pass, p: f64| -> Vec<f64> {
        RUNG_SPANS
            .iter()
            .map(|name| percentile(&pass.log.durations_ms(name), p))
            .collect()
    };
    let (p50, p90) = (rung_ms(pass, 0.5), rung_ms(pass, 0.9));
    pass.set("gcc-lod.rung0_ms_p50", p50[0]);
    pass.set("gcc-lod.rung1_ms_p50", p50[1]);
    pass.set("gcc-lod.rung2_ms_p50", p50[2]);
    pass.set("gcc-lod.rung3_ms_p50", p50[3]);
    pass.set("gcc-lod.rung1_ssim", rung_ssim[1]);
    pass.set("gcc-lod.rung2_ssim", rung_ssim[2]);
    pass.set("gcc-lod.rung3_ssim", rung_ssim[3]);
    // The oracle plays the best rung whose measured p90 fits the deadline.
    let deadline_ms = LodScript::DEADLINE.as_secs_f64() * 1e3;
    let oracle = (0..ladder.len())
        .find(|&r| p90[r] <= deadline_ms)
        .unwrap_or(ladder.floor());
    pass.set("gcc-lod.oracle_ssim", rung_ssim[oracle]);

    let phase = pass.replay("deadline_lod", lod);
    let counters = phase.stats.clone().expect("served phases carry stats").lod;
    let dispatched = counters.ladder_frames().max(1) as f64;
    let share = |r: usize| counters.frames_by_rung.get(r).copied().unwrap_or(0) as f64 / dispatched;
    pass.set("gcc-lod.rung0_share", share(0));
    pass.set("gcc-lod.rung1_share", share(1));
    pass.set("gcc-lod.rung2_share", share(2));
    pass.set("gcc-lod.rung3_share", share(3));
    let errors: Vec<f64> = counters
        .recent
        .iter()
        .filter(|d| d.predicted_us > 0)
        .map(|d| d.predicted_us.abs_diff(d.actual_us) as f64 / 1e3)
        .collect();
    pass.set("gcc-lod.predict_abs_err_ms_p50", median(&errors));
    pass.set("gcc-lod.degradations", counters.degradations as f64);
    pass.set("gcc-lod.recoveries", counters.recoveries as f64);
    pass.set(
        "gcc-lod.quality_vs_oracle",
        phase.tally.ssim_mean() / rung_ssim[oracle].max(1e-9),
    );
    pass.keep(phase);
}
