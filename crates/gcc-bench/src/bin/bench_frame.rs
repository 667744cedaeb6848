//! `bench_frame` — the frame-time harness and the CI perf gate.
//!
//! Renders preset scenes at several scales through both dataflows
//! (standard tile-wise and GCC Gaussian-wise), each under sequential,
//! two-thread and auto-threaded intra-frame parallelism, and records
//! wall-clock frame times together with what ran them: the SIMD backend
//! the dispatcher selected and the host's thread count. The tile-wise
//! schedule's OBB-clipped variant (`engine: "gscore_frame_engine"`, what
//! `Schedule::Gscore` serves) gets one `sequential` cell per scene: its
//! tile stage differs from the standard one by the clip alone. Each scene also
//! gets its cold-load cells under the same cell schema — `engine:
//! "build_preset"` (one `ScenePreset::build_on`) and `"load_json"` (one
//! `gcc_scene::io::load_scene_file_on` of the scene's JSON file) on one
//! thread and on two, the two scene sources a lent core speeds up, and
//! `"load_binary"` on one, a copy no second thread helps — and the scenes
//! big enough for it to matter two `engine: "build_hierarchy"` cells, one
//! `gcc_lod::build_hierarchy` of the cloud on one thread and on two, so
//! the frame gate's missing-cell, slower-than-tolerance and
//! slower-on-two-threads rules watch scene loads with no gate code of
//! their own.
//!
//! ```text
//! cargo run --release -p gcc-bench --bin bench_frame            # full sweep, table only
//! cargo run --release -p gcc-bench --bin bench_frame -- --smoke --reps 5 \
//!     --baseline ci/bench_baseline.json --out BENCH_gate.json  # the CI gate
//! ```
//!
//! Flags: `--smoke` (tiny scene set, 1 rep by default), `--reps N` (timed
//! repetitions per case, best-of; default 3), `--out PATH` (write the
//! `bench_frame/v1` record there; nothing is written without it) and
//! `--baseline PATH` (check the record against that one with
//! [`gcc_bench::perf_gate::compare`] and print the report). Exit code 0:
//! every rule held (or no baseline was given); 1: a rule failed; 2: the
//! baseline could not be read or checked, the record could not be
//! written, or the command line is wrong.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

use gcc_bench::perf_gate::{compare, write_record, BenchCell, BenchRow, FRAME_TOLERANCE};
use gcc_bench::TablePrinter;
use gcc_core::Gaussian3D;
use gcc_lod::{build_hierarchy, HierarchyConfig};
use gcc_parallel::{available_threads, Parallelism};
use gcc_render::pipeline::{
    Frame, FrameScratch, GaussianWiseRenderer, RenderJob, Renderer, StandardRenderer,
};
use gcc_scene::{io, Scene, SceneConfig, ScenePreset};

/// One (scene, scale) point of the sweep, and whether it carries
/// `build_hierarchy` cells.
type Case = (ScenePreset, f32, bool);

/// The CI gate's sweep (`--smoke`): the cells of `ci/bench_baseline.json`.
const SMOKE: [Case; 2] = [
    (ScenePreset::Lego, 0.05, true),
    (ScenePreset::Train, 0.02, true),
];
/// The full sweep.
const FULL: [Case; 5] = [
    (ScenePreset::Lego, 0.25, false),
    // The repo benchmark's `deadline_lod` scene.
    (ScenePreset::Lego, 0.5, true),
    (ScenePreset::Lego, 1.0, true),
    (ScenePreset::Train, 0.05, false),
    (ScenePreset::Train, 0.2, true),
];

/// The engines swept over every parallelism; [`build_engine`] is the
/// single constructor.
const ENGINES: [&str; 2] = ["standard_frame_engine", "gaussian_wise_frame_engine"];
/// The standard schedule under GSCore's OBB footprint: one sequential
/// cell (its threads scale as the standard engine's do).
const GSCORE_ENGINE: &str = "gscore_frame_engine";

fn build_engine(engine: &str, parallelism: Parallelism) -> Box<dyn Renderer> {
    match engine {
        "standard_frame_engine" => {
            Box::new(StandardRenderer::default().with_parallelism(parallelism))
        }
        "gaussian_wise_frame_engine" => {
            Box::new(GaussianWiseRenderer::default().with_parallelism(parallelism))
        }
        GSCORE_ENGINE => Box::new(StandardRenderer::gscore().with_parallelism(parallelism)),
        other => unreachable!("unknown engine {other}"),
    }
}

/// Best-of-`reps` frame time in milliseconds (one warmup render first).
fn time_frames(scene: &Scene, renderer: &dyn Renderer, reps: usize) -> f64 {
    let cam = scene.default_camera();
    let job = RenderJob::new(&scene.gaussians, &cam);
    let mut scratch = FrameScratch::new();
    let _warmup: Frame = renderer.render_job(&job, &mut scratch);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let frame = renderer.render_job(&job, &mut scratch);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // Keep the frame alive through the timer so the render cannot be
        // optimized away.
        assert!(frame.image.width() > 0);
        best = best.min(ms);
    }
    best
}

/// `io::write_json_file` / `io::write_binary_file`.
type WriteSceneFile = fn(&Scene, &Path) -> Result<(), io::SceneIoError>;

/// Shortest timed sample of a load cell: the load repeats until this much
/// time has passed and the sample is the mean. A small binary scene
/// decodes in tens of microseconds, too short for one load to be a
/// sample a 25 % gate can hold; a large JSON one is a sample by itself.
const LOAD_SAMPLE_FLOOR: Duration = Duration::from_millis(20);

/// Best-of-`reps` cost of one `load()` in milliseconds (one warmup call
/// first, like [`time_frames`]' warmup render).
fn time_loads(reps: usize, load: impl Fn()) -> f64 {
    load();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let mut loads = 0u32;
        while loads == 0 || start.elapsed() < LOAD_SAMPLE_FLOOR {
            load();
            loads += 1;
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e3 / f64::from(loads));
    }
    best
}

/// One `load_scene_file_on(path, threads)`, checked.
fn load_file(path: &Path, threads: usize, gaussians: usize) {
    let scene = io::load_scene_file_on(path, threads).expect("read the scene file back");
    assert_eq!(scene.len(), gaussians);
}

/// One default-policy hierarchy build over `cloud` on `threads` threads —
/// what a cold load under a `LodPolicy` adds to the file's decode.
fn build_levels(cloud: &[Gaussian3D], threads: usize) {
    let cfg = HierarchyConfig {
        threads,
        ..HierarchyConfig::default()
    };
    assert!(build_hierarchy(cloud, &cfg).depth() > 0);
}

/// The directory a run's scene files live in, removed when the run
/// ends — by a panicking cell too.
struct SceneDir(PathBuf);

impl Drop for SceneDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A wrong command line: exit 2.
fn usage(problem: &str) -> ! {
    eprintln!("bench_frame: {problem} (flags: --smoke, --reps N, --out PATH, --baseline PATH)");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut reps = if smoke { 1 } else { 3 };
    let mut out_path = None;
    let mut baseline = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--smoke" => {}
            "--reps" => {
                reps = value()
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--reps needs a positive integer"));
            }
            "--out" => out_path = Some(PathBuf::from(value())),
            "--baseline" => {
                let path = value();
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("bench_frame: cannot read {path}: {e}");
                    exit(2);
                });
                baseline = Some(text);
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let auto_threads = available_threads();
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut table = TablePrinter::new();
    table.row(["scene", "scale", "gaussians", "engine", "par", "ms/frame"]);

    let dir =
        SceneDir(std::env::temp_dir().join(format!("gcc_bench_frame_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).expect("create scene dir");
    for &(preset, scale, hierarchy) in if smoke { &SMOKE[..] } else { &FULL } {
        let config = SceneConfig::with_scale(scale);
        let scene = preset.build(&config);
        let mut push = |engine: &'static str, par_name: &'static str, threads, ms: f64| {
            table.row([
                scene.name.clone(),
                format!("{scale}"),
                format!("{}", scene.len()),
                engine.to_string(),
                par_name.to_string(),
                format!("{ms:.3}"),
            ]);
            rows.push(BenchRow {
                cell: BenchCell {
                    scene: preset.params().name.into(),
                    scale,
                    engine: engine.into(),
                    parallelism: par_name.into(),
                    ms_per_frame: ms,
                },
                gaussians: scene.len(),
                width: scene.resolution.0,
                height: scene.resolution.1,
                threads,
            });
        };
        for engine in ENGINES {
            for (par_name, par, threads) in [
                ("sequential", Parallelism::Sequential, 1),
                // What `gcc-serve` lends a frame on an idle 2-core host.
                ("fixed2", Parallelism::fixed(2), 2),
                ("auto", Parallelism::Auto, auto_threads),
            ] {
                let renderer = build_engine(engine, par);
                let ms = time_frames(&scene, renderer.as_ref(), reps);
                push(engine, par_name, threads, ms);
            }
        }
        let gscore = build_engine(GSCORE_ENGINE, Parallelism::Sequential);
        let ms = time_frames(&scene, gscore.as_ref(), reps);
        push(GSCORE_ENGINE, "sequential", 1, ms);
        // What a cold load is lent on an idle 2-core host, beside what it
        // costs alone.
        const LENT: [(&str, usize); 2] = [("sequential", 1), ("fixed2", 2)];
        for (par_name, threads) in LENT {
            let ms = time_loads(reps, || {
                assert_eq!(preset.build_on(&config, threads).len(), scene.len());
            });
            push("build_preset", par_name, threads, ms);
        }
        let path = dir.0.join("scene");
        // A binary file's decode is a copy: one thread is all it uses.
        let formats: [(&'static str, WriteSceneFile, usize); 2] = [
            ("load_json", io::write_json_file, 2),
            ("load_binary", io::write_binary_file, 1),
        ];
        for (engine, write, cells) in formats {
            write(&scene, &path).expect("write the scene file");
            for (par_name, threads) in LENT.into_iter().take(cells) {
                let ms = time_loads(reps, || load_file(&path, threads, scene.len()));
                push(engine, par_name, threads, ms);
            }
        }
        if hierarchy {
            for (par_name, threads) in LENT {
                let ms = time_loads(reps, || build_levels(&scene.gaussians, threads));
                push("build_hierarchy", par_name, threads, ms);
            }
        }
    }
    drop(dir);
    table.print();

    let backend = gcc_core::dispatch::active_backend().name();
    let record = write_record(smoke, reps, auto_threads, backend, &rows);
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &record) {
            eprintln!("bench_frame: cannot write {}: {e}", path.display());
            exit(2);
        }
        println!("wrote {} ({} results)", path.display(), rows.len());
    }
    let Some(baseline) = baseline else { return };
    let report = compare(&baseline, &record, FRAME_TOLERANCE).unwrap_or_else(|e| {
        eprintln!("bench_frame: frame records: {e}");
        exit(2);
    });
    print!("{}", report.render());
    if !report.passed() {
        eprintln!(
            "bench_frame: a rule failed — the rules, and how to refresh the baseline on \
             purpose, are in ci/README.md"
        );
        exit(1);
    }
}
