//! `bench_frame` — the machine-readable frame-time harness behind
//! `BENCH_frame.json`.
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
//! their own. The output is the
//! start of the repository's perf trajectory:
//! every PR that touches the hot path regenerates the file and compares
//! against the previous run.
//!
//! ```text
//! cargo run --release -p gcc-bench --bin bench_frame            # full sweep
//! cargo run --release -p gcc-bench --bin bench_frame -- --smoke # CI smoke
//! ```
//!
//! Flags: `--smoke` (tiny scene set, 1 rep — CI), `--reps N` (timed
//! repetitions per case, best-of; default 3), `--out PATH` (default
//! `BENCH_frame.json` at the repository root, resolved via
//! [`gcc_bench::default_artifact_path`] so a run from any subdirectory
//! doesn't scatter artifacts). The binary re-parses the JSON it wrote and
//! exits non-zero if the file is invalid, so CI can treat a zero exit as
//! "valid perf record produced"; it also prints the lines of the checks
//! the gate makes of one record by itself
//! ([`gcc_bench::perf_gate::within_record`]). CI compares the record
//! against `ci/bench_baseline.json` with the `perf_gate` binary.

use std::path::Path;
use std::time::{Duration, Instant};

use gcc_bench::perf_gate::{parse_bench_cells, within_record};
use gcc_bench::TablePrinter;
use gcc_core::Gaussian3D;
use gcc_lod::{build_hierarchy, HierarchyConfig};
use gcc_parallel::{available_threads, Parallelism};
use gcc_render::pipeline::{
    Frame, FrameScratch, GaussianWiseRenderer, RenderJob, Renderer, StandardRenderer,
};
use gcc_scene::{io, Scene, SceneConfig, ScenePreset};

/// One (scene, scale) point of the sweep.
struct Case {
    preset: ScenePreset,
    scale: f32,
    /// Whether the point carries `build_hierarchy` cells.
    hierarchy: bool,
}

/// One measured row of the output.
struct Row {
    scene: &'static str,
    scale: f32,
    gaussians: usize,
    width: u32,
    height: u32,
    engine: &'static str,
    parallelism: &'static str,
    threads: usize,
    ms_per_frame: f64,
}

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

fn push_json_row(out: &mut String, row: &Row, last: bool) {
    out.push_str(&format!(
        "    {{\"scene\": \"{}\", \"scale\": {}, \"gaussians\": {}, \"width\": {}, \"height\": {}, \"engine\": \"{}\", \"parallelism\": \"{}\", \"threads\": {}, \"ms_per_frame\": {:.4}}}{}\n",
        row.scene,
        row.scale,
        row.gaussians,
        row.width,
        row.height,
        row.engine,
        row.parallelism,
        row.threads,
        row.ms_per_frame,
        if last { "" } else { "," },
    ));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut reps = if smoke { 1 } else { 3 };
    let mut out_path = gcc_bench::default_artifact_path("BENCH_frame.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a positive integer");
            }
            "--out" => {
                out_path = it.next().expect("--out needs a path").into();
            }
            "--smoke" => {}
            other => panic!("unknown flag {other} (expected --smoke, --reps N, --out PATH)"),
        }
    }
    assert!(reps > 0, "--reps must be positive");

    let cases: Vec<Case> = if smoke {
        vec![
            Case {
                preset: ScenePreset::Lego,
                scale: 0.05,
                hierarchy: true,
            },
            Case {
                preset: ScenePreset::Train,
                scale: 0.02,
                hierarchy: true,
            },
        ]
    } else {
        vec![
            Case {
                preset: ScenePreset::Lego,
                scale: 0.25,
                hierarchy: false,
            },
            // The repo benchmark's `deadline_lod` scene.
            Case {
                preset: ScenePreset::Lego,
                scale: 0.5,
                hierarchy: true,
            },
            Case {
                preset: ScenePreset::Lego,
                scale: 1.0,
                hierarchy: true,
            },
            Case {
                preset: ScenePreset::Train,
                scale: 0.05,
                hierarchy: false,
            },
            Case {
                preset: ScenePreset::Train,
                scale: 0.2,
                hierarchy: true,
            },
        ]
    };

    let auto_threads = available_threads();
    let mut rows: Vec<Row> = Vec::new();
    let mut table = TablePrinter::new();
    table.row(["scene", "scale", "gaussians", "engine", "par", "ms/frame"]);

    let dir = std::env::temp_dir().join(format!("gcc_bench_frame_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scene dir");
    for case in &cases {
        let scene = case.preset.build(&SceneConfig::with_scale(case.scale));
        let mut push = |engine: &'static str, par_name: &'static str, threads, ms: f64| {
            table.row([
                scene.name.clone(),
                format!("{}", case.scale),
                format!("{}", scene.len()),
                engine.to_string(),
                par_name.to_string(),
                format!("{ms:.3}"),
            ]);
            rows.push(Row {
                scene: case.preset.params().name,
                scale: case.scale,
                gaussians: scene.len(),
                width: scene.resolution.0,
                height: scene.resolution.1,
                engine,
                parallelism: par_name,
                threads,
                ms_per_frame: ms,
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
        let config = SceneConfig::with_scale(case.scale);
        for (par_name, threads) in LENT {
            let ms = time_loads(reps, || {
                assert_eq!(case.preset.build_on(&config, threads).len(), scene.len());
            });
            push("build_preset", par_name, threads, ms);
        }
        let path = dir.join("scene");
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
        if case.hierarchy {
            for (par_name, threads) in LENT {
                let ms = time_loads(reps, || build_levels(&scene.gaussians, threads));
                push("build_hierarchy", par_name, threads, ms);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    table.print();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench_frame/v1\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"host_threads\": {auto_threads},\n"));
    json.push_str(&format!(
        "  \"backend\": \"{}\",\n",
        gcc_core::dispatch::active_backend()
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        push_json_row(&mut json, row, i + 1 == rows.len());
    }
    json.push_str("  ]\n}\n");

    // Self-validate before declaring success: CI keys off the exit code.
    let cells = match parse_bench_cells(&json) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("bench_frame produced an invalid record: {e}");
            std::process::exit(1);
        }
    };
    for check in within_record(&cells) {
        println!("{}", check.line);
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_frame could not write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} results)", out_path.display(), rows.len());
}
