//! `bench_serve` — the machine-readable serving-layer harness behind
//! `BENCH_serve.json` (schema `bench_serve/v3`).
//!
//! Drives `gcc_serve::RenderService` with a deterministic synthetic
//! *streaming* workload over the session API: a mixed scene set written
//! to on-disk binary/JSON files (loads go through `gcc_scene::io`, like
//! production residency misses would), skewed scene popularity drawn
//! from the in-tree PRNG, and two closed-loop client populations running
//! concurrently:
//!
//! * **Bulk stream clients** — each opens sessions and replays
//!   `Bulk`-priority [`gcc_serve::StreamSpec`] streams (trajectory
//!   sweeps, orbit loops, explicit view lists; 4–8 frames each, window
//!   4) with heterogeneous per-stream schedules and occasional
//!   resolution overrides, consuming every frame in order.
//! * **Interactive clients** — each submits deadline-carrying
//!   single-frame interactive streams (the `submit` shim shape) with
//!   mixed views, schedules, resolutions and ROIs.
//!
//! The same workload replays against two configurations:
//!
//! * `batched_lru` — cache budget fits the whole scene set, requests
//!   coalesce into `(scene, schedule, resolution, priority)` batches;
//! * `naive_evict` — zero cache budget and `max_batch = 1`, i.e. the
//!   load-render-evict-per-request regime a serverless renderer would be
//!   stuck in.
//!
//! The record includes throughput, per-priority p50/p95 latency and
//! deadline-miss counts, stream lifecycle counters, cache hit rate, the
//! per-schedule breakdown, each scene file's cold `load_ms` and the
//! batched/naive speedup. Every run first checks a sample of served
//! frames — streamed and submitted, including posed, ROI'd and
//! resolution-overridden ones — bit-identical against direct
//! `Renderer::render_job` output, and ends in the gate
//! (`gcc_bench::perf_gate`, rules in `ci/README.md`) on the record it
//! produced: a smoke record is written and checked alone; a full record
//! is checked against the record at `--out` — the committed one it means
//! to replace — and written only if it passes. It prints the gate's
//! report and exits non-zero exactly when the report fails.
//!
//! With `--chaos` the harness first replays the workload through a
//! *fault-injected* copy of the service — a seeded
//! [`gcc_serve::FaultPlan`] storm of transient/fatal load failures, load
//! panics, slow loads and render panics — consuming every stream
//! tolerantly (typed errors allowed, stranded streams are the failure),
//! then disarms the plan and replays the workload strictly on the same
//! service to measure **recovery throughput**. The record gains a
//! `"chaos"` object (injected fault counts, respawns, lost workers,
//! quarantines, recovery throughput, `all_resolved`). The measured
//! fault-free configurations run on separate clean services, so the
//! storm does not touch their numbers.
//!
//! With `--wire` the harness additionally exercises the TCP deployment
//! shape from `gcc-wire`: it spawns two real `gcc-served` backend
//! *processes* plus a `gcc-shard` consistent-hash proxy over loopback
//! (binaries located next to the bench executable), drives seeded
//! clients through the proxy, compares every delivered frame with a
//! direct in-process render, counts the client requests that resolve
//! (typed rejections count), then drains the fleet via the wire
//! `Shutdown` request and checks the child exit codes. The record gains
//! a `"wire"` object.
//!
//! With `--lod` the harness exercises the deadline-aware quality ladder
//! (`gcc-lod` + `ServeConfig::lod`): it prices every rung *through the
//! service* (frames render on the cores the service lends them),
//! calibrates a per-frame deadline that full-quality rendering
//! cannot meet but the better degraded rungs can, replays the same
//! deadline-carrying orbit with the ladder on (expecting **zero**
//! misses) and off (expecting misses), and measures every rung's
//! PSNR/SSIM against full renders of the same views. The record gains a
//! `"lod"` object.
//!
//! ```text
//! cargo run --release -p gcc-bench --bin bench_serve            # full
//! cargo run --release -p gcc-bench --bin bench_serve -- --smoke # CI
//! cargo run --release -p gcc-bench --bin bench_serve -- --smoke --chaos
//! cargo run --release -p gcc-bench --bin bench_serve -- --smoke --wire
//! cargo run --release -p gcc-bench --bin bench_serve -- --smoke --lod
//! ```
//!
//! Flags: `--smoke` (tiny scenes, short workload — CI), `--chaos`
//! (fault-injected storm + recovery phase, recorded under `"chaos"`),
//! `--wire` (multi-process shard deployment over loopback, recorded
//! under `"wire"`; needs the `gcc-served`/`gcc-shard` binaries built),
//! `--lod` (deadline-aware quality ladder on/off replay + per-rung
//! quality, recorded under `"lod"`), `--out PATH` (default
//! `BENCH_serve.json` at the repository root).

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gcc_bench::perf_gate::{check_serve_record, replace_serve_record, SERVE_TOLERANCE};
use gcc_bench::TablePrinter;
use gcc_lod::cost::NEAR_RETRY_INTERVAL;
use gcc_lod::{attach_hierarchy, QualityLadder, QualityRung};
use gcc_math::Vec3;
use gcc_parallel::available_threads;
use gcc_render::pipeline::FrameScratch;
use gcc_render::quality::{psnr, ssim};
use gcc_render::upscale::upscale_bilinear;
use gcc_render::{RenderJob, RenderOptions, Roi, Schedule};
use gcc_scene::io::RetryPolicy;
use gcc_scene::rng::StdRng;
use gcc_scene::{io, Scene, SceneConfig, ScenePreset, ViewSpec};
use gcc_serve::{
    ChaosRenderer, FaultPlan, LodPolicy, Priority, RenderService, SceneSource, ScheduleRenderers,
    ServeConfig, ServeError, ServeStats, StreamConfig, StreamSpec,
};
use gcc_wire::{WireClient, WireError, WireRejection};

/// One scene of the benchmark set.
struct BenchScene {
    id: &'static str,
    preset: ScenePreset,
    scale: f32,
    /// Write the scene as JSON (slow loads) instead of binary.
    json: bool,
    /// Relative popularity in the skewed workload.
    weight: f32,
}

fn scene_set(smoke: bool) -> Vec<BenchScene> {
    if smoke {
        vec![
            BenchScene {
                id: "lego",
                preset: ScenePreset::Lego,
                scale: 0.05,
                json: false,
                weight: 0.5,
            },
            BenchScene {
                id: "palace",
                preset: ScenePreset::Palace,
                scale: 0.05,
                json: true,
                weight: 0.3,
            },
            BenchScene {
                id: "train",
                preset: ScenePreset::Train,
                scale: 0.02,
                json: false,
                weight: 0.2,
            },
        ]
    } else {
        vec![
            BenchScene {
                id: "train",
                preset: ScenePreset::Train,
                scale: 0.10,
                json: true,
                weight: 0.40,
            },
            BenchScene {
                id: "lego",
                preset: ScenePreset::Lego,
                scale: 0.50,
                json: true,
                weight: 0.25,
            },
            BenchScene {
                id: "palace",
                preset: ScenePreset::Palace,
                scale: 0.50,
                json: false,
                weight: 0.15,
            },
            BenchScene {
                id: "truck",
                preset: ScenePreset::Truck,
                scale: 0.05,
                json: false,
                weight: 0.12,
            },
            BenchScene {
                id: "drjohnson",
                preset: ScenePreset::Drjohnson,
                scale: 0.02,
                json: false,
                weight: 0.08,
            },
        ]
    }
}

/// Registry entries, direct copies of the scenes behind them, and what
/// one cold load of each scene file costs (ms).
type RegistryAndScenes = (
    Vec<(String, SceneSource)>,
    Vec<(String, Arc<Scene>)>,
    Vec<f64>,
);

/// Builds the scene files and the service registry; returns the registry,
/// each scene held directly (for parity checks and size totals) and the
/// fastest of three `load_scene_file`s of each file — what `naive_evict`
/// pays on every request, so the record shows how much of the strawman's
/// wall time is loading.
fn build_registry(scenes: &[BenchScene], dir: &PathBuf) -> RegistryAndScenes {
    std::fs::create_dir_all(dir).expect("create scene dir");
    let mut registry = Vec::new();
    let mut loaded = Vec::new();
    let mut load_ms = Vec::new();
    for s in scenes {
        let scene = s.preset.build(&SceneConfig::with_scale(s.scale));
        let path = dir.join(format!("{}.{}", s.id, if s.json { "json" } else { "bin" }));
        if s.json {
            io::write_json_file(&scene, &path).expect("write scene json");
        } else {
            io::write_binary_file(&scene, &path).expect("write scene binary");
        }
        load_ms.push(
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let back = io::load_scene_file(&path).expect("read the scene file back");
                    assert_eq!(back.len(), scene.len());
                    start.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min),
        );
        registry.push((s.id.to_string(), SceneSource::File(path)));
        loaded.push((s.id.to_string(), Arc::new(scene)));
    }
    (registry, loaded, load_ms)
}

/// Schedule mix of the heterogeneous workload, skewed toward the cheap
/// standard-family schedules so the acceptance speedup stays load-bound.
const SCHEDULE_MIX: [(Schedule, f32); 4] = [
    (Schedule::Reference, 0.45),
    (Schedule::Gscore, 0.20),
    (Schedule::GccHardware, 0.20),
    (Schedule::GaussianWise, 0.15),
];

/// Resolution overrides the workload samples (besides native).
const RESOLUTIONS: [(u32, u32); 2] = [(320, 180), (256, 192)];

/// Per-frame deadline the interactive clients request (generous on a
/// warm cache, routinely missed by a naive load-render-evict service —
/// which is exactly what the deadline-miss counters should show).
const INTERACTIVE_DEADLINE: Duration = Duration::from_millis(250);

fn pick_weighted<T: Copy>(rng: &mut StdRng, choices: &[(T, f32)]) -> T {
    let total: f32 = choices.iter().map(|(_, w)| w).sum();
    let mut pick = rng.gen::<f32>() * total;
    for (v, w) in choices {
        if pick < *w {
            return *v;
        }
        pick -= w;
    }
    choices.last().expect("non-empty choices").0
}

fn random_view(rng: &mut StdRng) -> ViewSpec {
    match rng.gen::<f32>() {
        v if v < 0.70 => ViewSpec::trajectory(rng.gen::<f32>().min(1.0)),
        v if v < 0.90 => ViewSpec::Orbit {
            angle: rng.gen::<f32>() * std::f32::consts::TAU,
            radius_scale: 0.8 + 0.6 * rng.gen::<f32>(),
            height_offset: rng.gen::<f32>() - 0.5,
        },
        _ => ViewSpec::look_at(
            Vec3::new(
                2.0 + 2.0 * rng.gen::<f32>(),
                0.5 + rng.gen::<f32>(),
                -4.0 + rng.gen::<f32>(),
            ),
            Vec3::ZERO,
        ),
    }
}

/// One bulk stream of the workload: scene, spec, session defaults.
#[derive(Clone)]
struct BulkStream {
    scene: String,
    spec: StreamSpec,
    options: RenderOptions,
}

/// One interactive request: scene, view, options (always
/// submit-validatable: ROIs only ride on explicit resolutions).
#[derive(Clone)]
struct InteractiveReq {
    scene: String,
    view: ViewSpec,
    options: RenderOptions,
}

/// A client's scripted work, replayed identically against both
/// configurations.
#[derive(Clone)]
enum ClientScript {
    Bulk(Vec<BulkStream>),
    Interactive(Vec<InteractiveReq>),
}

fn random_bulk_stream(rng: &mut StdRng, scenes: &[BenchScene]) -> BulkStream {
    let scene_mix: Vec<(&str, f32)> = scenes.iter().map(|s| (s.id, s.weight)).collect();
    let id = pick_weighted(rng, &scene_mix);
    let frames = 4 + (rng.gen::<u64>() % 5) as usize; // 4..=8
    let spec = match rng.gen::<f32>() {
        v if v < 0.45 => {
            let a = rng.gen::<f32>().min(1.0);
            let b = rng.gen::<f32>().min(1.0);
            StreamSpec::TrajectorySweep {
                t0: a.min(b),
                t1: a.max(b),
                frames,
            }
        }
        v if v < 0.80 => StreamSpec::OrbitLoop {
            frames,
            radius_scale: 0.8 + 0.6 * rng.gen::<f32>(),
            height_offset: rng.gen::<f32>() - 0.5,
        },
        _ => StreamSpec::ViewList((0..frames).map(|_| random_view(rng)).collect()),
    };
    let mut options = RenderOptions::default().with_schedule(pick_weighted(rng, &SCHEDULE_MIX));
    if rng.gen::<f32>() < 0.25 {
        let (w, h) = RESOLUTIONS[(rng.gen::<u64>() % RESOLUTIONS.len() as u64) as usize];
        options = options.at_resolution(w, h);
    }
    BulkStream {
        scene: id.to_string(),
        spec,
        options,
    }
}

fn random_interactive(rng: &mut StdRng, scenes: &[BenchScene]) -> InteractiveReq {
    let scene_mix: Vec<(&str, f32)> = scenes.iter().map(|s| (s.id, s.weight)).collect();
    let id = pick_weighted(rng, &scene_mix);
    let view = random_view(rng);
    let mut options = RenderOptions::default().with_schedule(pick_weighted(rng, &SCHEDULE_MIX));
    // 35% of interactive requests override the resolution; half of those
    // also ask for an ROI (bounds are known at submit for overridden
    // resolutions, so the whole request validates up front).
    if rng.gen::<f32>() < 0.35 {
        let (w, h) = RESOLUTIONS[(rng.gen::<u64>() % RESOLUTIONS.len() as u64) as usize];
        options = options.at_resolution(w, h);
        if rng.gen::<f32>() < 0.5 {
            let rw = w / 4 + (rng.gen::<u64>() % u64::from(w / 4)) as u32;
            let rh = h / 4 + (rng.gen::<u64>() % u64::from(h / 4)) as u32;
            let rx = (rng.gen::<u64>() % u64::from(w - rw + 1)) as u32;
            let ry = (rng.gen::<u64>() % u64::from(h - rh + 1)) as u32;
            options = options.with_roi(Roi::new(rx, ry, rw, rh));
        }
    }
    InteractiveReq {
        scene: id.to_string(),
        view,
        options,
    }
}

/// Deterministic client scripts: `bulk_clients` stream replayers plus
/// `interactive_clients` single-frame submitters. A pure function of
/// `(scene set, counts, seed)` — both service configurations replay
/// exactly the same work.
fn workload(
    scenes: &[BenchScene],
    bulk_clients: usize,
    streams_per_client: usize,
    interactive_clients: usize,
    frames_per_interactive: usize,
    seed: u64,
) -> Vec<ClientScript> {
    let mut scripts = Vec::new();
    for c in 0..bulk_clients {
        let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        scripts.push(ClientScript::Bulk(
            (0..streams_per_client)
                .map(|_| random_bulk_stream(&mut rng, scenes))
                .collect(),
        ));
    }
    for c in 0..interactive_clients {
        let mut rng = StdRng::seed_from_u64(
            (seed ^ 0xA5A5_A5A5).wrapping_add((c as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        scripts.push(ClientScript::Interactive(
            (0..frames_per_interactive)
                .map(|_| random_interactive(&mut rng, scenes))
                .collect(),
        ));
    }
    scripts
}

fn total_frames(scripts: &[ClientScript]) -> usize {
    scripts
        .iter()
        .map(|s| match s {
            ClientScript::Bulk(streams) => streams.iter().map(|b| b.spec.len()).sum(),
            ClientScript::Interactive(reqs) => reqs.len(),
        })
        .sum()
}

/// One measured service configuration.
struct ConfigRow {
    name: &'static str,
    cache_budget_bytes: usize,
    max_batch: usize,
    workers: usize,
    wall_ms: f64,
    throughput_rps: f64,
    stats: ServeStats,
}

/// Replays every client script on `service`, one thread per client,
/// strictly: every stream admits and every frame arrives. Interactive
/// frames carry `deadline`.
fn replay(service: &RenderService, scripts: &[ClientScript], deadline: Option<Duration>) {
    std::thread::scope(|scope| {
        for script in scripts {
            scope.spawn(move || match script {
                ClientScript::Bulk(streams) => {
                    for b in streams {
                        let session = service
                            .session(b.scene.clone(), b.options.clone())
                            .expect("replay session");
                        let stream = session
                            .stream_with(b.spec.clone(), StreamConfig::bulk().with_window(4))
                            .expect("replay stream admits");
                        for item in stream {
                            item.expect("bulk stream frame failed");
                        }
                    }
                }
                ClientScript::Interactive(reqs) => {
                    for r in reqs {
                        let session = service
                            .session(r.scene.clone(), r.options.clone())
                            .expect("replay session");
                        let config = StreamConfig {
                            deadline,
                            ..StreamConfig::default().with_window(1)
                        };
                        let mut stream = session
                            .stream_with(StreamSpec::ViewList(vec![r.view.clone()]), config)
                            .expect("replay submit admits");
                        stream
                            .next_frame()
                            .expect("interactive frame present")
                            .expect("interactive frame failed");
                    }
                }
            });
        }
    });
}

/// Replays the workload through a fresh service with `cfg`.
fn run_config(
    name: &'static str,
    cfg: ServeConfig,
    registry: &[(String, SceneSource)],
    scripts: &[ClientScript],
) -> ConfigRow {
    let service = RenderService::new(cfg.clone(), registry.to_vec());
    let workers = service.workers();
    let start = Instant::now();
    replay(&service, scripts, Some(INTERACTIVE_DEADLINE));
    let wall = start.elapsed().as_secs_f64();
    let total = total_frames(scripts);
    let stats = service.shutdown();
    assert_eq!(stats.frames as usize, total, "lost frames in {name}");
    ConfigRow {
        name,
        cache_budget_bytes: cfg.cache_budget_bytes,
        max_batch: cfg.max_batch,
        workers,
        wall_ms: wall * 1e3,
        throughput_rps: total as f64 / wall,
        stats,
    }
}

/// Outcome of the `--chaos` phase: storm accounting plus the disarmed
/// recovery replay's throughput.
struct ChaosOutcome {
    seed: u64,
    /// Streams/requests the storm attempted to open.
    storm_requests: u64,
    /// Admitted streams that ran to an ordinary end (all frames Ok, or a
    /// typed terminal error) — nothing stranded.
    resolved: u64,
    /// Streams turned away at admission (quarantine or overload).
    turned_away: u64,
    /// Frames delivered despite the storm.
    delivered_frames: u64,
    /// Admitted streams that absorbed at least one injected failure.
    failed_streams: u64,
    injected_load_faults: u64,
    injected_render_panics: u64,
    respawns: u64,
    lost_workers: u64,
    quarantines: u64,
    /// Frames of the fault-free recovery replay (all must succeed).
    recovery_frames: u64,
    recovery_wall_ms: f64,
    recovery_throughput_rps: f64,
    /// Every storm request resolved or was turned away with a typed
    /// error, the recovery replay delivered every frame, and the pool
    /// recovered to full width.
    all_resolved: bool,
}

/// Replays the workload through a fault-injected service (seeded load
/// failures/panics/stalls plus render panics), then disarms the plan,
/// lets quarantines lapse, and replays the same workload *fault-free on
/// the same service* with strict expectations — the recovery throughput
/// is the headline number: a service that survives the storm but limps
/// afterwards fails here.
fn run_chaos(
    registry: &[(String, SceneSource)],
    scripts: &[ClientScript],
    scene_bytes: usize,
    seed: u64,
) -> ChaosOutcome {
    use std::sync::atomic::{AtomicU64, Ordering};

    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_retryable_load_failures(120)
            .with_fatal_load_failures(40)
            .with_load_panics(30)
            .with_slow_loads(30, Duration::from_millis(1))
            .with_render_panics(25),
    );
    let faulty: Vec<(String, SceneSource)> = registry
        .iter()
        .map(|(id, src)| {
            (
                id.clone(),
                SceneSource::faulty(id.clone(), src.clone(), Arc::clone(&plan)),
            )
        })
        .collect();
    let mut renderers = ScheduleRenderers::default();
    for schedule in Schedule::ALL {
        renderers = renderers.with(
            schedule,
            Box::new(ChaosRenderer::new(schedule.renderer(), Arc::clone(&plan))),
        );
    }
    let quarantine = Duration::from_millis(10);
    let service = RenderService::with_renderers(
        ServeConfig {
            workers: 0,
            cache_budget_bytes: scene_bytes * 2,
            max_batch: 8,
            quarantine_for: quarantine,
            load_retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
            },
            ..ServeConfig::default()
        },
        faulty,
        renderers,
    );

    // The storm: the same scripted workload, consumed tolerantly — a
    // frame may fail with a typed error and a stream may be turned away
    // at admission, but every admitted stream must still resolve (a
    // stranded stream hangs the bench, which is the failure this phase
    // exists to catch). Rounds are paced so quarantine windows lapse
    // mid-storm and half-open probes actually run.
    let resolved = AtomicU64::new(0);
    let turned_away = AtomicU64::new(0);
    let delivered = AtomicU64::new(0);
    let failed_streams = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for script in scripts {
            let service = &service;
            let (resolved, turned_away, delivered, failed_streams) =
                (&resolved, &turned_away, &delivered, &failed_streams);
            scope.spawn(move || {
                let drain = |open: Result<gcc_serve::FrameStream, ServeError>| match open {
                    Ok(stream) => {
                        let mut saw_failure = false;
                        for item in stream {
                            match item {
                                Ok(_) => {
                                    delivered.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(
                                    ServeError::Load { .. }
                                    | ServeError::WorkerPanicked
                                    | ServeError::ShuttingDown,
                                ) => saw_failure = true,
                                Err(other) => {
                                    panic!("chaos storm: unexpected frame error: {other}")
                                }
                            }
                        }
                        if saw_failure {
                            failed_streams.fetch_add(1, Ordering::Relaxed);
                        }
                        resolved.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ServeError::Quarantined { .. } | ServeError::Overloaded { .. }) => {
                        turned_away.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("chaos storm: unexpected admission error: {other}"),
                };
                match script {
                    ClientScript::Bulk(streams) => {
                        for b in streams {
                            std::thread::sleep(Duration::from_millis(2));
                            let session = service
                                .session(b.scene.clone(), b.options.clone())
                                .expect("chaos storm: sessions always open");
                            drain(
                                session.stream_with(
                                    b.spec.clone(),
                                    StreamConfig::bulk().with_window(4),
                                ),
                            );
                        }
                    }
                    ClientScript::Interactive(reqs) => {
                        for r in reqs {
                            std::thread::sleep(Duration::from_millis(1));
                            let session = service
                                .session(r.scene.clone(), r.options.clone())
                                .expect("chaos storm: sessions always open");
                            drain(session.stream_with(
                                StreamSpec::ViewList(vec![r.view.clone()]),
                                StreamConfig::default().with_window(1),
                            ));
                        }
                    }
                }
            });
        }
    });
    let storm_requests: u64 = scripts
        .iter()
        .map(|s| match s {
            ClientScript::Bulk(streams) => streams.len() as u64,
            ClientScript::Interactive(reqs) => reqs.len() as u64,
        })
        .sum();
    let resolved = resolved.into_inner();
    let turned_away = turned_away.into_inner();

    // Fault-free recovery on the same service: disarm, let every
    // quarantine window lapse, then replay the workload strictly — the
    // respawned pool and readmitted scenes must deliver every frame.
    plan.disarm();
    std::thread::sleep(quarantine * 3);
    let start = Instant::now();
    replay(&service, scripts, None);
    let recovery_wall = start.elapsed().as_secs_f64();
    let recovery_frames = total_frames(scripts) as u64;
    let stats = service.shutdown();

    ChaosOutcome {
        seed,
        storm_requests,
        resolved,
        turned_away,
        delivered_frames: delivered.into_inner(),
        failed_streams: failed_streams.into_inner(),
        injected_load_faults: plan.injected_load_faults(),
        injected_render_panics: plan.injected_render_panics(),
        respawns: stats.respawns,
        lost_workers: stats.lost_workers,
        quarantines: stats.quarantines(),
        recovery_frames,
        recovery_wall_ms: recovery_wall * 1e3,
        recovery_throughput_rps: recovery_frames as f64 / recovery_wall,
        all_resolved: resolved + turned_away == storm_requests && stats.lost_workers == 0,
    }
}

/// Serve-path determinism, streamed and submitted: a sample of streams
/// and single-frame requests rendered through the service must be
/// bit-identical to direct `render_job` calls on the file-loaded scenes
/// — including the posed / overridden / ROI'd ones. Returns the number
/// of frames checked.
fn parity_check(
    registry: &[(String, SceneSource)],
    loaded: &[(String, Arc<Scene>)],
    scripts: &[ClientScript],
) -> usize {
    let service = RenderService::new(ServeConfig::default(), registry.to_vec());
    let mut checked = 0;

    let direct_frame = |scene: &Scene, view: &ViewSpec, options: &RenderOptions| {
        let cam = scene
            .resolve_view(view, options)
            .expect("parity request resolves");
        options.schedule.renderer().render_job(
            &RenderJob::with_options(&scene.gaussians, &cam, options.clone()),
            &mut FrameScratch::new(),
        )
    };
    let scene_by_id = |id: &str| {
        &loaded
            .iter()
            .find(|(sid, _)| sid == id)
            .expect("sample scene registered")
            .1
    };

    // One heterogeneous single-frame request per scene, via the session
    // submit shim.
    for (id, _) in loaded {
        let options = RenderOptions::default()
            .with_schedule(Schedule::Gscore)
            .at_resolution(256, 192)
            .with_roi(Roi::new(32, 24, 128, 96));
        let session = service
            .session(id.clone(), options.clone())
            .expect("session");
        let served = session
            .render_blocking(ViewSpec::orbit(1.2))
            .expect("parity submit");
        let want = direct_frame(scene_by_id(id), &ViewSpec::orbit(1.2), &options);
        assert_eq!(served.image, want.image, "submit parity diverged on {id}");
        assert_eq!(served.stats, want.stats);
        checked += 1;
    }

    // The head of the first bulk client's first stream, frame by frame,
    // against direct renders of the same view list.
    let first = scripts.iter().find_map(|s| match s {
        ClientScript::Bulk(streams) => streams.first(),
        ClientScript::Interactive(_) => None,
    });
    if let Some(b) = first {
        let session = service
            .session(b.scene.clone(), b.options.clone())
            .expect("session");
        let stream = session
            .stream_with(b.spec.clone(), StreamConfig::bulk().with_window(2))
            .expect("parity stream");
        let scene = scene_by_id(&b.scene);
        for (item, view) in stream.zip(b.spec.views()) {
            let served = item.expect("parity stream frame");
            let want = direct_frame(scene, &view, &b.options);
            assert_eq!(
                served.image, want.image,
                "stream parity diverged on {} {view:?}",
                b.scene
            );
            assert_eq!(served.stats, want.stats);
            checked += 1;
        }
    }
    checked
}

/// Outcome of the multi-process `--wire` phase.
struct WireOutcome {
    shards: usize,
    clients: usize,
    requests: usize,
    resolved: usize,
    rejections: usize,
    parity_frames: usize,
    delivered_frames: usize,
    wall_ms: f64,
    throughput_fps: f64,
    clean_exit: bool,
    all_resolved: bool,
    parity_ok: bool,
}

/// Finds a sibling wire binary next to the bench executable (cargo puts
/// all workspace bins of one profile in the same `target/<profile>/`).
fn locate_wire_binary(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let mut dir = exe.parent().expect("exe dir").to_path_buf();
    // Test harnesses run from target/<profile>/deps/.
    if dir.ends_with("deps") {
        dir.pop();
    }
    let path = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if !path.is_file() {
        eprintln!(
            "bench_serve: --wire needs the {name} binary at {} — build it first with \
             `cargo build --release --workspace --all-targets`",
            path.display()
        );
        std::process::exit(1);
    }
    path
}

/// Spawns a wire process and parses its `… listening on <addr>` banner.
/// A drain thread keeps reading the child's stdout so it never blocks on
/// a full pipe.
fn spawn_listening(mut cmd: Command, what: &str) -> (Child, SocketAddr) {
    cmd.stdout(Stdio::piped());
    let mut child = cmd.spawn().unwrap_or_else(|e| {
        eprintln!("bench_serve: spawning {what} failed: {e}");
        std::process::exit(1);
    });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("child banner");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|a| a.parse::<SocketAddr>().ok())
        .unwrap_or_else(|| {
            eprintln!("bench_serve: {what} printed no listening address, got {line:?}");
            std::process::exit(1);
        });
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, addr)
}

/// Waits for a wire child to exit cleanly, with a hang backstop.
fn wait_child(mut child: Child, what: &str) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("child status") {
            Some(status) => {
                if !status.success() {
                    eprintln!("bench_serve: {what} exited with {status}");
                }
                return status.success();
            }
            None if Instant::now() >= deadline => {
                eprintln!("bench_serve: {what} did not exit within 30s; killing it");
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The multi-process wire deployment: two `gcc-served` backends and a
/// `gcc-shard` consistent-hash proxy as real child processes over
/// loopback, seeded clients driving streams through the proxy, every
/// delivered frame compared bit-identical against direct in-process
/// renders, then a wire-`Shutdown` drain of the whole fleet.
fn run_wire(
    scenes: &[BenchScene],
    dir: &Path,
    loaded: &[(String, Arc<Scene>)],
    wire_clients: usize,
) -> WireOutcome {
    const SHARDS: usize = 2;
    let served_bin = locate_wire_binary("gcc-served");
    let shard_bin = locate_wire_binary("gcc-shard");

    // Every backend registers every scene file; the proxy's hash ring
    // decides which shard actually serves (and therefore loads) each.
    let mut backends = Vec::new();
    for _ in 0..SHARDS {
        let mut cmd = Command::new(&served_bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", "2"]).args([
            "--handlers",
            "4",
            "--cache-mb",
            "64",
        ]);
        for s in scenes {
            let path = dir.join(format!("{}.{}", s.id, if s.json { "json" } else { "bin" }));
            cmd.arg("--scene")
                .arg(format!("{}={}", s.id, path.display()));
        }
        backends.push(spawn_listening(cmd, "gcc-served"));
    }
    let mut cmd = Command::new(&shard_bin);
    cmd.args(["--addr", "127.0.0.1:0", "--probe-ms", "100"]);
    for (_, addr) in &backends {
        cmd.arg("--backend").arg(addr.to_string());
    }
    let (proxy_child, proxy_addr) = spawn_listening(cmd, "gcc-shard");

    // Reference frames rendered in-process: every client streams the
    // same per-scene orbit, so one direct render per scene suffices for
    // the bit-identity check.
    let spec = StreamSpec::orbit(3);
    let options = RenderOptions::default()
        .with_schedule(Schedule::GccHardware)
        .at_resolution(192, 144);
    let expected: Arc<Vec<(String, Vec<gcc_render::Frame>)>> = Arc::new(
        loaded
            .iter()
            .map(|(id, scene)| {
                let frames = spec
                    .views()
                    .into_iter()
                    .map(|view| {
                        let cam = scene
                            .resolve_view(&view, &options)
                            .expect("wire parity view resolves");
                        options.schedule.renderer().render_job(
                            &RenderJob::with_options(&scene.gaussians, &cam, options.clone()),
                            &mut FrameScratch::new(),
                        )
                    })
                    .collect();
                (id.clone(), frames)
            })
            .collect(),
    );

    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..wire_clients {
        let expected = Arc::clone(&expected);
        let spec = spec.clone();
        let options = options.clone();
        handles.push(std::thread::spawn(move || {
            let (mut requests, mut resolved, mut rejections) = (0usize, 0usize, 0usize);
            let (mut parity_frames, mut mismatches, mut delivered) = (0usize, 0usize, 0usize);
            let mut client = WireClient::connect(proxy_addr).expect("connect shard proxy");
            let config = if c % 2 == 0 {
                StreamConfig::default()
                    .with_priority(Priority::Interactive)
                    .with_deadline(INTERACTIVE_DEADLINE)
                    .with_window(2)
            } else {
                StreamConfig::bulk().with_window(4)
            };
            for (id, want_frames) in expected.iter() {
                requests += 1;
                // A freshly probed fleet can transiently report a shard
                // unavailable; that is backpressure, not failure.
                let mut attempts = 0;
                let mut stream = loop {
                    match client.open(id, options.clone(), spec.clone(), config) {
                        Ok(s) => break s,
                        Err(WireError::Rejected(
                            WireRejection::Unavailable { .. } | WireRejection::Overloaded { .. },
                        )) if attempts < 100 => {
                            attempts += 1;
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(e) => panic!("wire open of {id} failed: {e}"),
                    }
                };
                let mut index = 0usize;
                loop {
                    match client.next_frame(&mut stream) {
                        Ok(Some(frame)) => {
                            delivered += 1;
                            parity_frames += 1;
                            let want = &want_frames[index];
                            if frame.image != want.image || frame.stats != want.stats {
                                mismatches += 1;
                                eprintln!(
                                    "bench_serve: wire frame {index} of {id} diverged from the \
                                     direct render"
                                );
                            }
                            index += 1;
                        }
                        Ok(None) => break,
                        Err(WireError::Rejected(_)) => {
                            rejections += 1;
                            index += 1;
                        }
                        Err(e) => panic!("wire stream on {id} failed: {e}"),
                    }
                }
                if index == want_frames.len() {
                    resolved += 1;
                }
            }
            // One unknown-scene open per client: the typed rejection
            // must cross proxy and backend intact, and counts as
            // resolved.
            requests += 1;
            match client.open(
                "atlantis",
                RenderOptions::default(),
                StreamSpec::orbit(1),
                StreamConfig::default(),
            ) {
                Err(WireError::Rejected(WireRejection::UnknownScene(_))) => {
                    rejections += 1;
                    resolved += 1;
                }
                Ok(_) => panic!("unknown scene opened over the wire"),
                Err(e) => panic!("expected a typed UnknownScene rejection, got {e}"),
            }
            (
                requests,
                resolved,
                rejections,
                parity_frames,
                mismatches,
                delivered,
            )
        }));
    }

    let (mut requests, mut resolved, mut rejections) = (0usize, 0usize, 0usize);
    let (mut parity_frames, mut mismatches, mut delivered_frames) = (0usize, 0usize, 0usize);
    for handle in handles {
        let (req, res, rej, par, mis, del) = handle.join().expect("wire client thread");
        requests += req;
        resolved += res;
        rejections += rej;
        parity_frames += par;
        mismatches += mis;
        delivered_frames += del;
    }
    let wall = started.elapsed().as_secs_f64();

    // Drain the fleet over the wire — the protocol's SIGTERM. Proxy
    // first (its upstream connections close with it), then each backend
    // directly.
    let mut clean_exit = true;
    let mut shutter = WireClient::connect(proxy_addr).expect("connect proxy for shutdown");
    shutter.shutdown_server().expect("proxy shutdown ack");
    drop(shutter);
    clean_exit &= wait_child(proxy_child, "gcc-shard");
    for (child, addr) in backends {
        let mut shutter = WireClient::connect(addr).expect("connect backend for shutdown");
        shutter.shutdown_server().expect("backend shutdown ack");
        drop(shutter);
        clean_exit &= wait_child(child, "gcc-served");
    }

    WireOutcome {
        shards: SHARDS,
        clients: wire_clients,
        requests,
        resolved,
        rejections,
        parity_frames,
        delivered_frames,
        wall_ms: wall * 1e3,
        throughput_fps: delivered_frames as f64 / wall,
        clean_exit,
        all_resolved: resolved == requests && clean_exit,
        parity_ok: mismatches == 0 && parity_frames > 0,
    }
}

/// Measured quality of one ladder rung against the full-quality render
/// of the same views, plus the floors the ladder documents for it.
struct RungQuality {
    name: &'static str,
    /// Best served cost of a frame at this rung, on the cores the service
    /// lent it.
    cost_ms: f64,
    psnr_db: f64,
    ssim: f64,
    min_psnr_db: f64,
    min_ssim: f64,
}

/// Outcome of the `--lod` phase: the same deadline-carrying orbit served
/// with and without the adaptive quality ladder, plus the per-rung
/// quality deltas versus full renders.
struct LodOutcome {
    scene: String,
    frames: u64,
    host_threads: usize,
    deadline_ms: f64,
    /// The dispatch margin of the ladder run's policy.
    margin: f64,
    full_ms: f64,
    floor_ms: f64,
    misses_ladder_on: u64,
    misses_ladder_off: u64,
    degraded_frames: u64,
    frames_by_rung: Vec<u64>,
    /// Every frame of both runs was delivered.
    all_resolved: bool,
    rungs: Vec<RungQuality>,
    /// Every rung's measured PSNR/SSIM met its documented floor.
    quality_ok: bool,
}

/// Renders `view` of a hierarchy-attached scene the way the serve layer
/// dispatches `rung`: knobs merged into the options, the camera resolved
/// at the reduced resolution, the rung's hierarchy level, and the
/// filtered upscale back to the native frame size.
fn render_rung(
    scene: &Scene,
    rung: &QualityRung,
    view: &ViewSpec,
    scratch: &mut FrameScratch,
) -> gcc_render::Frame {
    let target = scene.resolution;
    let options = rung.apply(&RenderOptions::default(), target);
    let cam = scene
        .resolve_view(view, &options)
        .expect("lod bench view resolves");
    let gaussians = scene.lod.as_ref().map_or(&scene.gaussians[..], |l| {
        l.level_gaussians(&scene.gaussians, rung.lod_level)
    });
    let mut frame = Schedule::Reference
        .renderer()
        .render_job(&RenderJob::with_options(gaussians, &cam, options), scratch);
    if (frame.image.width(), frame.image.height()) != target {
        frame.image = upscale_bilinear(&frame.image, target.0, target.1);
    }
    frame
}

/// Frame size of the `--lod` replay. Twice the scene's native size: the
/// per-frame preprocessing does not shrink with resolution, and on lent
/// cores it is a large enough share of a native frame that `half_res`
/// costs over half of `full` — too close for a deadline between them to
/// survive a noisy host. At this size the rungs sit well apart again.
const LOD_RESOLUTION: (u32, u32) = (512, 512);

/// Streams `frames` deadline-carrying orbit frames of `id` through
/// `service`, one at a time (window 1, so each dispatch sees the cost
/// observations of its predecessors).
fn lod_stream(service: &RenderService, id: &str, frames: usize, deadline: Duration) {
    let options = RenderOptions::default().at_resolution(LOD_RESOLUTION.0, LOD_RESOLUTION.1);
    let session = service.session(id, options).expect("lod session");
    let stream = session
        .stream_with(
            StreamSpec::OrbitLoop {
                frames,
                radius_scale: 1.0,
                height_offset: 0.0,
            },
            StreamConfig::default()
                .with_window(1)
                .with_deadline(deadline),
        )
        .expect("lod stream");
    for item in stream {
        item.expect("lod frame failed");
    }
}

/// The `--lod` phase: prices every rung through the service, calibrates
/// a deadline that full-quality rendering cannot meet but the better
/// degraded rungs can, replays the same deadline-carrying orbit
/// ladder-on and ladder-off, and measures each rung's PSNR/SSIM against
/// full renders of the same views.
fn run_lod(dir: &Path, smoke: bool) -> LodOutcome {
    // The shared bench scenes are deliberately small (the cache-pressure
    // workloads want many cheap scenes), which leaves the rungs
    // overhead-dominated and too close in cost to separate a deadline.
    // The LOD phase builds its own heavier scene so full and floor costs
    // sit an order of magnitude apart.
    let id = "lodscene";
    let built = ScenePreset::Lego.build(&SceneConfig::with_scale(0.5));
    let path = dir.join("lodscene.bin");
    io::write_binary_file(&built, &path).expect("write lod scene");
    let registry = vec![(id.to_string(), SceneSource::File(path))];
    let policy = LodPolicy::default();
    let ladder = policy.ladder.clone();
    let floor = ladder.floor();
    let serve = |lod: Option<LodPolicy>| {
        RenderService::new(
            ServeConfig {
                workers: 2,
                lod,
                ..ServeConfig::default()
            },
            registry.clone(),
        )
    };
    // Calibration, through the service: a deadline-carrying frame renders
    // on every core no other worker is using, so a direct sequential
    // render would not say what the rungs cost here. Each rung is priced
    // on a two-rung ladder of `full` above it: a deadline nothing can meet
    // pins every frame to that ladder's floor. Best of three.
    let hopeless = Duration::from_nanos(1);
    let cost_ms: Vec<f64> = (0..ladder.len())
        .map(|rung| {
            let mut pinned = vec![ladder.rungs()[0].clone()];
            pinned.extend((rung > 0).then(|| ladder.rungs()[rung].clone()));
            let service = serve(Some(LodPolicy {
                ladder: QualityLadder::new(pinned),
                ..policy.clone()
            }));
            lod_stream(&service, id, 3, hopeless);
            let decisions = service.shutdown().lod.recent;
            assert_eq!(decisions.len(), 3, "three pinned frames were traced");
            decisions
                .iter()
                .map(|d| d.actual_us as f64 / 1e3)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    // The deadline goes between what the best degraded rung that can be
    // told apart from `full` needs to fit with the policy's margin, and
    // what `full` costs — geometrically, with an absolute floor against
    // timer noise — so full quality *must* miss while that rung has its
    // headroom.
    let (full_ms, floor_ms) = (cost_ms[0], cost_ms[floor]);
    let anchor_ms = cost_ms[1..]
        .iter()
        .map(|cost| cost * policy.margin)
        .find(|&needs| needs < 0.9 * full_ms)
        .unwrap_or_else(|| {
            panic!("no degraded rung is meaningfully cheaper than full: {cost_ms:?} ms")
        });
    let deadline_ms = (anchor_ms * full_ms).sqrt().max(2.0);
    let deadline = Duration::from_secs_f64(deadline_ms / 1e3);

    // Per-rung quality versus the full render, worst case over a spread
    // of views. The full rung is exact by construction (PSNR capped for
    // the record).
    let mut qscene = built;
    attach_hierarchy(&mut qscene, &policy.hierarchy);
    let mut scratch = FrameScratch::new();
    let views = [
        ViewSpec::trajectory(0.15),
        ViewSpec::trajectory(0.5),
        ViewSpec::trajectory(0.85),
    ];
    let full_frames: Vec<gcc_render::Frame> = views
        .iter()
        .map(|v| render_rung(&qscene, &ladder.rungs()[0], v, &mut scratch))
        .collect();
    let mut rungs = Vec::new();
    let mut quality_ok = true;
    for (rung, &cost_ms) in ladder.rungs().iter().zip(&cost_ms) {
        let (mut worst_psnr, mut worst_ssim) = (f64::INFINITY, f64::INFINITY);
        for (v, want) in views.iter().zip(&full_frames) {
            let got = render_rung(&qscene, rung, v, &mut scratch);
            worst_psnr = worst_psnr.min(psnr(&got.image, &want.image).min(99.0));
            worst_ssim = worst_ssim.min(ssim(&got.image, &want.image));
        }
        quality_ok &= worst_psnr >= rung.min_psnr_db && worst_ssim >= rung.min_ssim;
        rungs.push(RungQuality {
            name: rung.name,
            cost_ms,
            psnr_db: worst_psnr,
            ssim: worst_ssim,
            min_psnr_db: rung.min_psnr_db,
            min_ssim: rung.min_ssim,
        });
    }

    // The same deadline-carrying orbit, ladder-on then ladder-off, each
    // on a fresh service. Only steady state counts: a cold ladder prices
    // each rung from one frame rendered on cold buffers, and may spend a
    // near-retry interval or two correcting that, so the orbit first runs
    // uncounted for that long and the stats are deltas over the warm-up.
    let frames = if smoke { 12 } else { 40 };
    let warm_frames = ladder.len() + 2 * NEAR_RETRY_INTERVAL as usize;
    let run = |lod: Option<LodPolicy>| {
        let service = serve(lod);
        lod_stream(&service, id, warm_frames, deadline);
        let warm = service.stats();
        lod_stream(&service, id, frames, deadline);
        (warm, service.shutdown())
    };
    let (on_warm, on) = run(Some(policy.clone()));
    let (off_warm, off) = run(None);
    let served = |warm: &ServeStats, done: &ServeStats| done.frames - warm.frames;
    let by_rung =
        |stats: &ServeStats, rung: usize| stats.lod.frames_by_rung.get(rung).copied().unwrap_or(0);
    LodOutcome {
        scene: id.to_string(),
        frames: frames as u64,
        host_threads: available_threads(),
        deadline_ms,
        margin: policy.margin,
        full_ms,
        floor_ms,
        misses_ladder_on: on.deadline_misses() - on_warm.deadline_misses(),
        misses_ladder_off: off.deadline_misses() - off_warm.deadline_misses(),
        degraded_frames: on.lod.degraded_frames - on_warm.lod.degraded_frames,
        frames_by_rung: (0..ladder.len())
            .map(|rung| by_rung(&on, rung) - by_rung(&on_warm, rung))
            .collect(),
        all_resolved: served(&on_warm, &on) == frames as u64
            && served(&off_warm, &off) == frames as u64,
        rungs,
        quality_ok,
    }
}

fn json_escape_free(s: &str) -> &str {
    // Ids/names here are ASCII identifiers; keep the writer simple.
    assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let chaos = args.iter().any(|a| a == "--chaos");
    let wire = args.iter().any(|a| a == "--wire");
    let lod = args.iter().any(|a| a == "--lod");
    let mut out_path = gcc_bench::default_artifact_path("BENCH_serve.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_path = it.next().expect("--out needs a path").into();
            }
            "--smoke" | "--chaos" | "--wire" | "--lod" => {}
            other => panic!(
                "unknown flag {other} (expected --smoke, --chaos, --wire, --lod, --out PATH)"
            ),
        }
    }
    // Bulk stream clients and streams per client; interactive clients
    // ride along and submit three frames per bulk stream.
    let (clients, per_client) = if smoke { (2, 2) } else { (5, 4) };
    let interactive_clients = (clients / 2).max(1);
    let frames_per_interactive = per_client * 3;

    let scenes = scene_set(smoke);
    let dir = std::env::temp_dir().join(format!("gcc_bench_serve_{}", std::process::id()));
    let (registry, loaded, load_ms) = build_registry(&scenes, &dir);
    let scene_bytes: usize = loaded.iter().map(|(_, s)| s.approx_bytes()).sum();
    let scripts = workload(
        &scenes,
        clients,
        per_client,
        interactive_clients,
        frames_per_interactive,
        0x5EC7_E5E5,
    );
    let total = total_frames(&scripts);

    let parity_frames = parity_check(&registry, &loaded, &scripts);

    // The chaos phase runs on its own fault-injected service, so the
    // measured fault-free configurations below are unaffected — the
    // committed record's speedup floor is judged on clean runs.
    let chaos_outcome = chaos.then(|| run_chaos(&registry, &scripts, scene_bytes, 0xC4A0_5EED));

    // The wire phase spawns real gcc-served/gcc-shard child processes
    // reading the same on-disk scene files, so it must run before the
    // scene directory is removed. It does not touch the in-process
    // services the measured configurations use.
    let wire_outcome = wire.then(|| run_wire(&scenes, &dir, &loaded, clients));

    // The LOD phase replays one deadline-carrying orbit with and without
    // the quality ladder on fresh services over its own heavier scene
    // file in the same directory, so it too runs before cleanup.
    let lod_outcome = lod.then(|| run_lod(&dir, smoke));

    let batched = run_config(
        "batched_lru",
        ServeConfig {
            workers: 0,
            cache_budget_bytes: scene_bytes * 2,
            max_batch: 8,
            ..ServeConfig::default()
        },
        &registry,
        &scripts,
    );
    let naive = run_config(
        "naive_evict",
        ServeConfig {
            workers: 0,
            cache_budget_bytes: 0,
            max_batch: 1,
            ..ServeConfig::default()
        },
        &registry,
        &scripts,
    );
    let speedup = batched.throughput_rps / naive.throughput_rps;
    let _ = std::fs::remove_dir_all(&dir);

    let mut table = TablePrinter::new();
    table.row([
        "config",
        "req/s",
        "int p95 ms",
        "bulk p95 ms",
        "ddl miss",
        "hit rate",
        "loads",
        "frames/batch",
    ]);
    for row in [&batched, &naive] {
        table.row([
            row.name.to_string(),
            format!("{:.1}", row.throughput_rps),
            format!(
                "{:.2}",
                row.stats.priority(Priority::Interactive).latency_p95_ms
            ),
            format!("{:.2}", row.stats.priority(Priority::Bulk).latency_p95_ms),
            format!("{}", row.stats.deadline_misses()),
            format!("{:.2}", row.stats.hit_rate()),
            format!("{}", row.stats.loads()),
            format!("{:.2}", row.stats.frames_per_batch()),
        ]);
    }
    table.print();
    let mut sched_table = TablePrinter::new();
    sched_table.row(["schedule", "requests", "frames", "batches"]);
    for (schedule, c) in &batched.stats.per_schedule {
        sched_table.row([
            schedule.name().to_string(),
            c.requests.to_string(),
            c.frames.to_string(),
            c.batches.to_string(),
        ]);
    }
    sched_table.print();
    println!("speedup vs naive: {speedup:.2}x (parity: {parity_frames} frames bit-identical)");
    if let Some(c) = &chaos_outcome {
        println!(
            "chaos: {}/{} storm requests resolved ({} turned away), {} frames delivered, \
             {} faulted streams; injected {} load faults + {} render panics; \
             {} respawns, {} lost workers, {} quarantines; \
             recovery {:.1} req/s over {} frames",
            c.resolved,
            c.storm_requests,
            c.turned_away,
            c.delivered_frames,
            c.failed_streams,
            c.injected_load_faults,
            c.injected_render_panics,
            c.respawns,
            c.lost_workers,
            c.quarantines,
            c.recovery_throughput_rps,
            c.recovery_frames,
        );
    }
    if let Some(l) = &lod_outcome {
        println!(
            "lod: {} frames of {} under a {:.2} ms deadline (served on {} host threads: full \
             {:.2} ms, floor {:.2} ms): ladder-on missed {}, ladder-off missed {}; {} degraded \
             frames, rungs {:?}",
            l.frames,
            l.scene,
            l.deadline_ms,
            l.host_threads,
            l.full_ms,
            l.floor_ms,
            l.misses_ladder_on,
            l.misses_ladder_off,
            l.degraded_frames,
            l.frames_by_rung,
        );
        for r in &l.rungs {
            println!(
                "  rung {:>8}: psnr {:>5.1} dB (floor {:>4.1}), ssim {:.3} (floor {:.3})",
                r.name, r.psnr_db, r.min_psnr_db, r.ssim, r.min_ssim
            );
        }
    }
    if let Some(w) = &wire_outcome {
        println!(
            "wire: {} shards behind one proxy, {} clients, {}/{} requests resolved \
             ({} typed rejections), {} frames delivered at {:.1} fps, \
             {} compared with direct renders",
            w.shards,
            w.clients,
            w.resolved,
            w.requests,
            w.rejections,
            w.delivered_frames,
            w.throughput_fps,
            w.parity_frames,
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench_serve/v3\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"bulk_clients\": {clients},\n"));
    json.push_str(&format!("  \"streams_per_client\": {per_client},\n"));
    json.push_str(&format!(
        "  \"interactive_clients\": {interactive_clients},\n"
    ));
    json.push_str(&format!(
        "  \"frames_per_interactive\": {frames_per_interactive},\n"
    ));
    json.push_str(&format!("  \"total_frames\": {total},\n"));
    json.push_str(&format!("  \"workers\": {},\n", batched.workers));
    json.push_str(&format!("  \"parity_checked_frames\": {parity_frames},\n"));
    json.push_str("  \"parity_ok\": true,\n");
    json.push_str("  \"scenes\": [\n");
    for (i, (id, scene)) in loaded.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"gaussians\": {}, \"bytes\": {}, \"format\": \"{}\", \
             \"load_ms\": {:.3}}}{}\n",
            json_escape_free(id),
            scene.len(),
            scene.approx_bytes(),
            if scenes[i].json { "json" } else { "binary" },
            load_ms[i],
            if i + 1 == loaded.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"configs\": [\n");
    for (i, row) in [&batched, &naive].into_iter().enumerate() {
        let s = &row.stats;
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cache_budget_bytes\": {}, \"max_batch\": {}, \
             \"wall_ms\": {:.2}, \"throughput_rps\": {:.3}, \
             \"latency_p50_ms\": {:.3}, \"latency_p95_ms\": {:.3}, \
             \"hit_rate\": {:.4}, \"hits\": {}, \"misses\": {}, \"loads\": {}, \
             \"evictions\": {}, \"frames\": {}, \"batches\": {}, \
             \"frames_per_batch\": {:.3}, \"max_queue_depth\": {},\n",
            row.name,
            row.cache_budget_bytes,
            row.max_batch,
            row.wall_ms,
            row.throughput_rps,
            s.latency_p50_ms,
            s.latency_p95_ms,
            s.hit_rate(),
            s.hits(),
            s.misses(),
            s.loads(),
            s.evictions(),
            s.frames,
            s.batches,
            s.frames_per_batch(),
            s.max_queue_depth,
        ));
        json.push_str(&format!(
            "     \"streams\": {{\"opened\": {}, \"completed\": {}, \"cancelled\": {}, \
             \"frames_discarded\": {}}},\n",
            s.streams.opened, s.streams.completed, s.streams.cancelled, s.streams.frames_discarded,
        ));
        json.push_str("     \"per_priority\": [");
        for (j, (priority, c)) in s.per_priority.iter().enumerate() {
            json.push_str(&format!(
                "{}{{\"priority\": \"{}\", \"requests\": {}, \"frames\": {}, \
                 \"max_queued\": {}, \"with_deadline\": {}, \"deadline_misses\": {}, \
                 \"latency_p50_ms\": {:.3}, \"latency_p95_ms\": {:.3}}}",
                if j == 0 { "" } else { ", " },
                json_escape_free(priority.name()),
                c.requests,
                c.frames,
                c.max_queued,
                c.with_deadline,
                c.deadline_misses,
                c.latency_p50_ms,
                c.latency_p95_ms,
            ));
        }
        json.push_str("],\n");
        json.push_str("     \"per_schedule\": [");
        for (j, (schedule, c)) in s.per_schedule.iter().enumerate() {
            json.push_str(&format!(
                "{}{{\"schedule\": \"{}\", \"requests\": {}, \"frames\": {}, \"batches\": {}}}",
                if j == 0 { "" } else { ", " },
                json_escape_free(schedule.name()),
                c.requests,
                c.frames,
                c.batches,
            ));
        }
        json.push_str("]}");
        json.push_str(if i == 1 { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    if let Some(c) = &chaos_outcome {
        json.push_str(&format!(
            "  \"chaos\": {{\"seed\": {}, \"storm_requests\": {}, \"resolved\": {}, \
             \"turned_away\": {}, \"delivered_frames\": {}, \"failed_streams\": {}, \
             \"injected_load_faults\": {}, \"injected_render_panics\": {}, \
             \"respawns\": {}, \"lost_workers\": {}, \"quarantines\": {}, \
             \"recovery_frames\": {}, \"recovery_wall_ms\": {:.2}, \
             \"recovery_throughput_rps\": {:.3}, \"all_resolved\": {}}},\n",
            c.seed,
            c.storm_requests,
            c.resolved,
            c.turned_away,
            c.delivered_frames,
            c.failed_streams,
            c.injected_load_faults,
            c.injected_render_panics,
            c.respawns,
            c.lost_workers,
            c.quarantines,
            c.recovery_frames,
            c.recovery_wall_ms,
            c.recovery_throughput_rps,
            c.all_resolved,
        ));
    }
    if let Some(l) = &lod_outcome {
        json.push_str(&format!(
            "  \"lod\": {{\"scene\": \"{}\", \"frames\": {}, \"host_threads\": {}, \
             \"deadline_ms\": {:.3}, \"margin\": {:.3}, \
             \"full_ms\": {:.3}, \"floor_ms\": {:.3}, \"misses_ladder_on\": {}, \
             \"misses_ladder_off\": {}, \"degraded_frames\": {}, \"frames_by_rung\": [{}], \
             \"all_resolved\": {}, \"quality_ok\": {},\n",
            json_escape_free(&l.scene),
            l.frames,
            l.host_threads,
            l.deadline_ms,
            l.margin,
            l.full_ms,
            l.floor_ms,
            l.misses_ladder_on,
            l.misses_ladder_off,
            l.degraded_frames,
            l.frames_by_rung
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            l.all_resolved,
            l.quality_ok,
        ));
        json.push_str("   \"rungs\": [");
        for (j, r) in l.rungs.iter().enumerate() {
            json.push_str(&format!(
                "{}{{\"name\": \"{}\", \"cost_ms\": {:.3}, \"psnr_db\": {:.3}, \
                 \"ssim\": {:.4}, \"min_psnr_db\": {:.3}, \"min_ssim\": {:.4}}}",
                if j == 0 { "" } else { ", " },
                json_escape_free(r.name),
                r.cost_ms,
                r.psnr_db,
                r.ssim,
                r.min_psnr_db,
                r.min_ssim,
            ));
        }
        json.push_str("]},\n");
    }
    if let Some(w) = &wire_outcome {
        json.push_str(&format!(
            "  \"wire\": {{\"shards\": {}, \"clients\": {}, \"requests\": {}, \
             \"resolved\": {}, \"rejections\": {}, \"parity_frames\": {}, \
             \"delivered_frames\": {}, \"wall_ms\": {:.2}, \"throughput_fps\": {:.3}, \
             \"clean_exit\": {}, \"all_resolved\": {}, \"parity_ok\": {}}},\n",
            w.shards,
            w.clients,
            w.requests,
            w.resolved,
            w.rejections,
            w.parity_frames,
            w.delivered_frames,
            w.wall_ms,
            w.throughput_fps,
            w.clean_exit,
            w.all_resolved,
            w.parity_ok,
        ));
    }
    json.push_str(&format!("  \"speedup_vs_naive\": {speedup:.3}\n"));
    json.push_str("}\n");

    // Self-validate before declaring success: CI keys off the exit code.
    if let Err(e) = gcc_scene::json::parse(&json) {
        eprintln!("bench_serve produced invalid JSON: {e}");
        std::process::exit(1);
    }
    // A smoke record has no reference and is written as it is; a full
    // record is held to the one at `out_path` first, and a run that fails
    // leaves that record as it was, so the next run is compared with the
    // same numbers.
    let checked = if smoke {
        std::fs::write(&out_path, &json)
            .map_err(|e| format!("{}: {e}", out_path.display()))
            .and_then(|()| check_serve_record(&json, None, SERVE_TOLERANCE))
    } else {
        replace_serve_record(&out_path, &json, SERVE_TOLERANCE)
    };
    let passed = match checked {
        Ok(report) => {
            print!("{}", report.render());
            report.passed()
        }
        Err(e) => {
            eprintln!("bench_serve: {e}");
            false
        }
    };
    if !passed {
        if !smoke {
            eprintln!(
                "bench_serve: {} left as it was — to move the reference on purpose, delete it \
                 and rerun",
                out_path.display()
            );
        }
        std::process::exit(1);
    }
    println!("wrote {}", out_path.display());
}
