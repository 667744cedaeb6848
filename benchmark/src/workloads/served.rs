//! `serve_mixed` and `wire_loopback` — one request script, two
//! topologies.
//!
//! Three file-backed scenes (two binary, one JSON) behind a
//! `RenderService` with two workers in total. Client A replays
//! Interactive one-frame streams, one outstanding, rotating scene ×
//! schedule; client B replays Bulk window-4 orbit streams on `standard`.
//! `serve_mixed` calls the service in process; `wire_loopback` sends the
//! same requests through `WireClient`s → `ShardProxy` → two one-worker
//! `WireServer`s, so the difference between the two is wire + sharding
//! cost on identical traffic.
//!
//! Sample = client A's request open → frame in hand. Verified = the
//! frame's checksum equals a prepare-time direct `render_job` of the
//! same job on the scene as loaded from its file: served ≡ direct.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gcc_render::Schedule;
use gcc_scene::Scene;
use gcc_serve::{SceneSource, ServeConfig, StreamConfig, StreamSpec};

use super::{on_two_threads, render_direct, Phase, Undelivered, Workload};
use crate::fleet::{Conn, Failure, Fleet, Registry, Topology};
use crate::script::{options, SceneFormat, ServeScript, SERVED_SCENES};
use crate::stats::cpu_seconds;
use crate::trace::{SpanId, SpanLog};
use crate::verify::{judge, RefFrame, Rule, Tally};

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<pid>-<label>`.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn create(label: &str) -> Self {
        let path = PathBuf::from(".bench_work").join(format!("{}-{label}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create the benchmark work directory");
        Self(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // The (ignored) parent stays: removing it could race a concurrent
        // run creating its own directory inside.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The prepared script: scene files, the registry over them and the
/// reference tables. Shared by every topology that replays it.
pub struct ServedScript {
    /// The request script.
    pub script: ServeScript,
    /// Scene id → file-backed source.
    pub registry: Registry,
    /// The scenes as loaded back from their files, in `SERVED_SCENES`
    /// order.
    pub scenes: Vec<Scene>,
    /// Wall time of each Interactive job rendered directly (ms), in
    /// script order — the baseline of `gcc-serve.overhead_ms_p50`.
    pub direct_ms: Vec<f64>,
    interactive_ref: Vec<RefFrame>,
    bulk_ref: Vec<Vec<RefFrame>>,
    _files: WorkDir,
}

impl ServedScript {
    /// Builds the script for `seed`, writes the scene files and renders
    /// the reference tables.
    pub fn prepare(seed: u64) -> Self {
        let script = ServeScript::generate(seed);
        let files = WorkDir::create("scenes");
        let mut registry = Registry::new();
        let mut scenes = Vec::new();
        for def in SERVED_SCENES {
            let built = def
                .preset
                .build(&gcc_scene::SceneConfig::with_scale(def.scale));
            let path = match def.format {
                SceneFormat::Binary => files.path().join(format!("{}.gcc", def.id)),
                SceneFormat::Json => files.path().join(format!("{}.json", def.id)),
            };
            match def.format {
                SceneFormat::Binary => gcc_scene::io::write_binary_file(&built, &path),
                SceneFormat::Json => gcc_scene::io::write_json_file(&built, &path),
            }
            .expect("write a scene file");
            scenes.push(gcc_scene::io::load_scene_file(&path).expect("read the scene file back"));
            registry.push((def.id.to_string(), SceneSource::File(path)));
        }

        let interactive = on_two_threads(&script.interactive, |req, scratch| {
            let renderer = req.schedule.renderer();
            let t0 = Instant::now();
            let image = render_direct(
                &scenes[req.scene],
                &req.view,
                &options(req.schedule),
                renderer.as_ref(),
                scratch,
            );
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (RefFrame::of(image, false), ms)
        });
        let (interactive_ref, direct_ms) = interactive.into_iter().unzip();
        let standard = Schedule::Standard.renderer();
        let bulk_ref = script
            .bulk
            .iter()
            .map(|stream| {
                on_two_threads(&stream.views, |view, scratch| {
                    let image = render_direct(
                        &scenes[stream.scene],
                        view,
                        &options(Schedule::Standard),
                        standard.as_ref(),
                        scratch,
                    );
                    RefFrame::of(image, false)
                })
            })
            .collect();
        Self {
            script,
            registry,
            scenes,
            direct_ms,
            interactive_ref,
            bulk_ref,
            _files: files,
        }
    }
}

/// One topology replaying a [`ServedScript`].
pub struct Served<'a> {
    /// The prepared script.
    pub prepared: &'a ServedScript,
    /// Where the service runs.
    pub topology: Topology,
    /// Service configuration, the same on every topology (`workers`
    /// comes from the topology).
    pub config: ServeConfig,
}

impl<'a> Served<'a> {
    /// `prepared` on `topology` with the workloads' service
    /// configuration: a cache budget that holds every scene, batches of
    /// up to 8, no LOD.
    pub fn new(prepared: &'a ServedScript, topology: Topology) -> Self {
        Self {
            prepared,
            topology,
            config: ServeConfig {
                max_batch: 8,
                ..ServeConfig::default()
            },
        }
    }
}

/// What one client thread hands back.
struct ClientOutput {
    samples_ms: Vec<f64>,
    frames_at: Vec<Duration>,
    tally: Tally,
    undelivered: Undelivered,
    spans: SpanLog,
}

impl ClientOutput {
    fn new(spans: SpanLog) -> Self {
        Self {
            samples_ms: Vec::new(),
            frames_at: Vec::new(),
            tally: Tally::default(),
            undelivered: Undelivered::default(),
            spans,
        }
    }

    /// Judges one frame off the timed path and counts it; `in_hand` is
    /// when the client had it, from the phase start.
    fn score(
        &mut self,
        reference: &RefFrame,
        got: Result<gcc_render::Frame, Failure>,
        in_hand: Duration,
        parent: SpanId,
        request: u64,
    ) {
        let verify = self.spans.open("client.verify", parent, request);
        self.undelivered.note(&got);
        let verdict = judge(reference, Rule::Exact, got.as_ref().map(|f| &f.image));
        if self.tally.record(verdict) {
            self.frames_at.push(in_hand);
        }
        self.spans.close(verify);
    }
}

/// Client A: Interactive one-frame streams, one outstanding.
fn interactive_client(
    conn: &mut Conn<'_>,
    prepared: &ServedScript,
    start: Instant,
    until: Instant,
    spans: SpanLog,
) -> ClientOutput {
    let script = &prepared.script.interactive;
    let mut out = ClientOutput::new(spans);
    for k in 0.. {
        if Instant::now() >= until {
            break;
        }
        let req = &script[k % script.len()];
        let id = 2 * k as u64 + 1; // odd ids: client A
        let root = out.spans.open("request.interactive", SpanId::NONE, id);
        let t0 = Instant::now();
        let open = out.spans.open("client.open", root, id);
        let opened = conn.open(
            SERVED_SCENES[req.scene].id,
            options(req.schedule),
            StreamSpec::ViewList(vec![req.view.clone()]),
            ServeScript::interactive_config(),
        );
        out.spans.close(open);
        let wait = out.spans.open("client.wait", root, id);
        let (got, stream) = match opened {
            Ok(mut stream) => (conn.expect_frame(&mut stream), Some(stream)),
            Err(e) => (Err(e), None),
        };
        out.spans.close(wait);
        let in_hand = Instant::now();
        out.samples_ms.push((in_hand - t0).as_secs_f64() * 1e3);
        let reference = &prepared.interactive_ref[k % script.len()];
        out.score(reference, got, in_hand - start, root, id);
        if let Some(mut stream) = stream {
            // Pull past the end so the server retires the stream.
            out.spans
                .time("client.close", root, id, || conn.next_frame(&mut stream));
        }
        out.spans.close(root);
        // Traced passes sample the stats round trip under load (a
        // snapshot holds the service lock); off the latency sample.
        if out.spans.is_on() && k % 16 == 15 {
            let snapshot = out
                .spans
                .time("client.stats", SpanId::NONE, id, || conn.stats());
            out.undelivered.note(&snapshot);
        }
    }
    out
}

/// Client B: Bulk window-4 orbit streams (throughput only).
fn bulk_client(
    conn: &mut Conn<'_>,
    prepared: &ServedScript,
    start: Instant,
    until: Instant,
    spans: SpanLog,
) -> ClientOutput {
    let script = &prepared.script.bulk;
    let mut out = ClientOutput::new(spans);
    'streams: for k in 0.. {
        if Instant::now() >= until {
            break;
        }
        let entry = &script[k % script.len()];
        let reference = &prepared.bulk_ref[k % script.len()];
        let id = 2 * k as u64 + 2; // even ids: client B
        let root = out.spans.open("request.bulk", SpanId::NONE, id);
        let opened = out.spans.time("client.open", root, id, || {
            conn.open(
                SERVED_SCENES[entry.scene].id,
                options(Schedule::Standard),
                StreamSpec::ViewList(entry.views.clone()),
                ServeScript::bulk_config(),
            )
        });
        let mut stream = match opened {
            Ok(stream) => stream,
            Err(e) => {
                out.score(&reference[0], Err(e), start.elapsed(), root, id);
                out.spans.close(root);
                continue;
            }
        };
        for expected in reference {
            if Instant::now() >= until {
                conn.cancel(stream);
                out.spans.close(root);
                break 'streams;
            }
            let wait = out.spans.open("client.wait", root, id);
            let got = conn.expect_frame(&mut stream);
            out.spans.close(wait);
            out.score(expected, got, start.elapsed(), root, id);
        }
        out.spans
            .time("client.close", root, id, || conn.next_frame(&mut stream));
        out.spans.close(root);
    }
    out
}

/// One Interactive frame through `conn` (warm frames, churn probes).
pub fn one_frame(
    conn: &mut Conn<'_>,
    scene: &str,
    schedule: Schedule,
    view: gcc_scene::ViewSpec,
    config: StreamConfig,
) -> Result<gcc_render::Frame, Failure> {
    let mut stream = conn.open(
        scene,
        options(schedule),
        StreamSpec::ViewList(vec![view]),
        config,
    )?;
    let frame = conn.expect_frame(&mut stream);
    conn.next_frame(&mut stream);
    frame
}

impl Workload for Served<'_> {
    type Rig = Fleet;

    fn script_hash(&self) -> u64 {
        self.prepared.script.hash()
    }

    fn threads(&self) -> (usize, usize) {
        (self.topology.workers(), 2)
    }

    fn set_up(&self) -> Fleet {
        let fleet = Fleet::start(self.topology, &self.config, &self.prepared.registry);
        let mut conn = fleet.connect();
        for def in SERVED_SCENES {
            one_frame(
                &mut conn,
                def.id,
                Schedule::Standard,
                self.prepared.script.interactive[0].view.clone(),
                ServeScript::interactive_config(),
            )
            .expect("warm frame");
        }
        drop(conn);
        fleet
    }

    fn run(&self, fleet: &mut Fleet, length: Duration, trace: bool) -> Phase {
        let mut phase = Phase::new(length, trace);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        let until = start + length;
        let prepared = self.prepared;
        let fleet = &*fleet;
        let (a_spans, b_spans) = (phase.spans.fork(), phase.spans.fork());
        let (a, b) = std::thread::scope(|s| {
            let b = s.spawn(move || {
                let mut conn = fleet.connect();
                bulk_client(&mut conn, prepared, start, until, b_spans)
            });
            let mut conn = fleet.connect();
            let a = interactive_client(&mut conn, prepared, start, until, a_spans);
            (a, b.join().expect("bulk client panicked"))
        });
        phase.cpu_s = cpu_seconds() - cpu0;
        phase.stats = Some(fleet.stats());
        phase.samples_ms = a.samples_ms;
        phase.frames_at = a.frames_at;
        phase.frames_at.extend(b.frames_at);
        phase.tally = a.tally;
        phase.tally.merge(&b.tally);
        phase.undelivered = a.undelivered;
        phase.undelivered.merge(b.undelivered);
        phase.spans.absorb(a.spans);
        phase.spans.absorb(b.spans);
        phase
    }

    fn tear_down(&self, fleet: Fleet) {
        fleet.shutdown();
    }
}
