//! The deployment binaries as processes: two `gcc-served` backends and a
//! `gcc-shard` proxy in front of them, over loopback.
//!
//! Cargo builds both binaries for this test (`CARGO_BIN_EXE_*`). Each
//! backend serves the same two scene files, one binary and one JSON; the
//! proxy's ring sends each scene id to its own backend. Every frame that
//! crosses both hops must equal a direct render, a typed rejection must
//! cross both hops intact, and a wire `Shutdown` must end every process
//! with status 0. The flags that would leave a process running in a
//! degenerate state are refused before it binds.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use gcc_render::pipeline::FrameScratch;
use gcc_render::{Frame, RenderJob, RenderOptions, Schedule};
use gcc_scene::{io, Scene, SceneConfig, ScenePreset};
use gcc_serve::{Priority, StreamConfig, StreamSpec};
use gcc_wire::{ShardRing, WireClient, WireError, WireRejection};

const SERVED: &str = env!("CARGO_BIN_EXE_gcc-served");
const SHARD: &str = env!("CARGO_BIN_EXE_gcc-shard");

/// How long a process may take to exit before the test kills it and
/// fails.
const BACKSTOP: Duration = Duration::from_secs(30);

/// A child process, killed if the test panics while it still runs.
struct Process {
    child: Child,
    what: &'static str,
    /// Held open to the end: both binaries print two short lines, far
    /// below a pipe's capacity, and a closed pipe would fail the last one.
    stdout: BufReader<ChildStdout>,
}

impl Process {
    /// Starts `bin` with `args` and its stdout piped.
    fn start(bin: &str, what: &'static str, args: &[String]) -> Self {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawning {what}: {e}"));
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Process {
            child,
            what,
            stdout,
        }
    }

    /// The first line the process prints; empty if it exits first.
    fn first_line(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("read stdout");
        line
    }

    /// The address of the `<what> listening on <addr>` banner.
    fn listening_addr(&mut self) -> SocketAddr {
        let banner = self.first_line();
        let prefix = format!("{} listening on ", self.what);
        banner
            .trim()
            .strip_prefix(&prefix)
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("{}: no listening banner, got {banner:?}", self.what))
    }

    /// Waits for the process to exit; one still running after
    /// [`BACKSTOP`] is killed and fails the test.
    fn exit_status(mut self) -> ExitStatus {
        let deadline = Instant::now() + BACKSTOP;
        loop {
            if let Some(status) = self.child.try_wait().expect("child status") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "{} still running after {BACKSTOP:?}",
                self.what
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| a.to_string()).collect()
}

/// Sends the wire `Shutdown` to `addr` and requires a clean exit.
fn shut_down(process: Process, addr: SocketAddr) {
    let what = process.what;
    let mut client = WireClient::connect(addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown ack");
    drop(client);
    let status = process.exit_status();
    assert!(status.success(), "{what} exited with {status}");
}

/// The frames of `spec` rendered directly, with a fresh scratch each.
fn direct_frames(scene: &Scene, options: &RenderOptions, spec: &StreamSpec) -> Vec<Frame> {
    spec.views()
        .iter()
        .map(|view| {
            let camera = scene.resolve_view(view, options).expect("view resolves");
            options.schedule.renderer().render_job(
                &RenderJob::with_options(&scene.gaussians, &camera, options.clone()),
                &mut FrameScratch::new(),
            )
        })
        .collect()
}

#[test]
fn a_two_backend_fleet_serves_both_classes_bit_identically_and_exits_cleanly() {
    // Scene ids the ring places on different backends, so each backend
    // loads and serves one of them.
    let scenes = [
        ("lego", ScenePreset::Lego, "bin"),
        ("palace-json", ScenePreset::Palace, "json"),
    ];
    let ring = ShardRing::new(2);
    let homes: Vec<Option<usize>> = scenes
        .iter()
        .map(|(id, ..)| ring.route(id, &[true, true]))
        .collect();
    assert!(
        homes[0].is_some() && homes[0] != homes[1],
        "the ring puts both scenes on one backend: {homes:?}"
    );

    let dir = std::env::temp_dir().join(format!("gcc_wire_fleet_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scene dir");
    let mut registry = Vec::new();
    let mut built = Vec::new();
    for (id, preset, format) in scenes {
        let scene = preset.build(&SceneConfig::with_scale(0.02));
        let path = dir.join(format!("{id}.{format}"));
        match format {
            "bin" => io::write_binary_file(&scene, &path),
            _ => io::write_json_file(&scene, &path),
        }
        .expect("write the scene file");
        registry.extend(["--scene".to_string(), format!("{id}={}", path.display())]);
        built.push((id, scene));
    }

    let mut backends = Vec::new();
    for _ in 0..2 {
        let mut flags = args(&["--addr", "127.0.0.1:0", "--workers", "1"]);
        flags.extend(registry.iter().cloned());
        let mut backend = Process::start(SERVED, "gcc-served", &flags);
        let addr = backend.listening_addr();
        backends.push((backend, addr));
    }
    let mut flags = args(&["--addr", "127.0.0.1:0", "--probe-ms", "100"]);
    for (_, addr) in &backends {
        flags.extend(["--backend".to_string(), addr.to_string()]);
    }
    let mut proxy = Process::start(SHARD, "gcc-shard", &flags);
    let proxy_addr = proxy.listening_addr();

    let options = RenderOptions::default()
        .with_schedule(Schedule::GccHardware)
        .at_resolution(48, 36);
    let spec = StreamSpec::orbit(3);
    let classes = [
        StreamConfig::default()
            .with_priority(Priority::Interactive)
            .with_window(2),
        StreamConfig::bulk().with_window(4),
    ];
    let mut client = WireClient::connect(proxy_addr).expect("connect the proxy");
    for (id, scene) in &built {
        let want = direct_frames(scene, &options, &spec);
        for config in classes {
            let what = format!("{id} {:?}", config.priority);
            let mut stream = client
                .open(id, options.clone(), spec.clone(), config)
                .unwrap_or_else(|e| panic!("{what}: open: {e}"));
            for (i, want) in want.iter().enumerate() {
                let frame = client
                    .next_frame(&mut stream)
                    .unwrap_or_else(|e| panic!("{what}: frame {i}: {e}"))
                    .unwrap_or_else(|| panic!("{what}: ended after {i} frames"));
                assert!(frame.image == want.image, "{what}: frame {i} image");
                assert!(frame.stats == want.stats, "{what}: frame {i} stats");
            }
            let end = client.next_frame(&mut stream).expect("stream end");
            assert!(end.is_none() && stream.is_done(), "{what}: no StreamEnd");
        }
    }
    match client.open(
        "atlantis",
        options,
        StreamSpec::orbit(1),
        StreamConfig::default(),
    ) {
        Err(WireError::Rejected(WireRejection::UnknownScene(s))) => assert_eq!(s, "atlantis"),
        other => panic!("expected UnknownScene through both hops, got {other:?}"),
    }
    drop(client);

    // The proxy first: the backends belong to their own operators and
    // outlive it.
    shut_down(proxy, proxy_addr);
    for (backend, addr) in backends {
        shut_down(backend, addr);
    }
    std::fs::remove_dir_all(&dir).expect("remove the scene dir");
}

#[test]
fn degenerate_deployment_flags_are_usage_errors() {
    // A zero probe interval would ping every backend in a tight loop; a
    // cache size past `usize` bytes would wrap to a smaller budget; a
    // preset scale out of range would fail every load of its scene.
    let cases = [
        (
            SHARD,
            "gcc-shard",
            args(&["--backend", "127.0.0.1:9", "--probe-ms", "0"]),
        ),
        (
            SERVED,
            "gcc-served",
            args(&[
                "--scene",
                "lego=preset:lego:0.02",
                "--cache-mb",
                "17592186044416",
            ]),
        ),
        (
            SERVED,
            "gcc-served",
            args(&["--scene", "lego=preset:lego:-1"]),
        ),
    ];
    for (bin, what, flags) in cases {
        let mut process = Process::start(bin, what, &flags);
        let stdout = process.first_line();
        assert!(!stdout.contains("listening"), "{what} {flags:?} bound");
        assert_eq!(process.exit_status().code(), Some(2), "{what} {flags:?}");
    }
}
