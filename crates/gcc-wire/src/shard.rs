//! Consistent-hash sharding: a SplitMix64 ring over N backends and a TCP
//! proxy that routes wire sessions by scene id.
//!
//! # Ring semantics
//!
//! Each backend owns [`ShardRing::VNODES`] pseudo-random points on a
//! `u64` ring; a scene id hashes to a point and is owned by the first
//! backend point at or clockwise-after it. Routing around a dead backend
//! walks further clockwise to the next *alive* owner, so:
//!
//! * scene → backend assignment is stable across proxy restarts and
//!   across proxies (the hash is [`gcc_scene::rng::splitmix64`], a pinned
//!   cross-process contract — no `DefaultHasher`, whose output may change
//!   between Rust releases);
//! * killing one of N backends remaps only the dead backend's scenes
//!   (≈ 1/N of them), and they return home when it recovers;
//! * adding a backend to the *configuration* moves ≈ 1/(N+1) of the
//!   scenes — but membership is fixed for a proxy's lifetime; only
//!   liveness changes at runtime.
//!
//! # The proxy
//!
//! [`ShardProxy`] speaks the same wire protocol on both sides: clients
//! talk to it exactly as they would to one big `gcc-served`, and it opens
//! one upstream [`WireClient`] per (connection, backend) — session
//! affinity falls out of routing by scene id over a fixed ring. Backend
//! rejections ([`crate::proto::WireRejection`]) are forwarded verbatim,
//! retry hints intact. A health prober pings every backend on an
//! interval; opens routed at a dead backend fail over clockwise, and
//! when no owner is alive the client gets a typed
//! [`WireRejection::Unavailable`] instead of a hung connect.

use std::collections::hash_map::{Entry, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gcc_scene::rng::splitmix64;
use gcc_serve::{PriorityCounters, SceneCounters, ScheduleCounters, ServeStats, StreamCounters};

use crate::client::{RemoteStream, WireClient};
use crate::frame::WireError;
use crate::listener::{not_dispatched, Listener, Service};
use crate::proto::{Request, Response, WireRejection};

/// Backoff hint attached to [`WireRejection::Unavailable`] — roughly two
/// probe intervals, after which a recovered backend would be visible.
const UNAVAILABLE_RETRY: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

/// A consistent-hash ring mapping scene ids onto backend indices.
#[derive(Debug, Clone)]
pub struct ShardRing {
    /// `(point, backend)` sorted by point — the ring, unrolled.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl ShardRing {
    /// Virtual points per backend. 64 keeps the ownership split of a
    /// handful of backends within a few percent of even without making
    /// the ring walk measurable.
    pub const VNODES: usize = 64;

    /// A ring over `backends` members (indices `0..backends`).
    pub fn new(backends: usize) -> Self {
        let mut points = Vec::with_capacity(backends * Self::VNODES);
        for b in 0..backends {
            for v in 0..Self::VNODES {
                points.push((Self::point(b, v), b));
            }
        }
        points.sort_unstable();
        Self { points, backends }
    }

    /// Number of ring members.
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The ring point of backend `b`'s virtual node `v`: two chained
    /// SplitMix64 rounds over the packed pair, so points are pseudo-random
    /// yet identical in every process that builds the same ring.
    fn point(b: usize, v: usize) -> u64 {
        splitmix64(splitmix64(((b as u64) << 32) | v as u64))
    }

    /// The stable hash of a scene id: SplitMix64 folded over the UTF-8
    /// bytes in 8-byte little-endian chunks, with the length mixed in so
    /// zero-padded tails of different lengths cannot collide trivially.
    pub fn scene_key(scene: &str) -> u64 {
        let bytes = scene.as_bytes();
        let mut h = splitmix64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = splitmix64(h ^ u64::from_le_bytes(word));
        }
        h
    }

    /// The backend owning `scene`, skipping members whose `alive` slot is
    /// `false`. `None` when every backend is dead (or the ring is empty).
    ///
    /// # Panics
    ///
    /// Panics if `alive` is shorter than the member count.
    pub fn route(&self, scene: &str, alive: &[bool]) -> Option<usize> {
        assert!(alive.len() >= self.backends, "alive vector too short");
        if self.points.is_empty() {
            return None;
        }
        let key = Self::scene_key(scene);
        // First point at or clockwise-after the key, wrapping at the top.
        let start = self.points.partition_point(|(p, _)| *p < key) % self.points.len();
        // Walk clockwise; each backend appears VNODES times, so scanning
        // every point visits every backend.
        for i in 0..self.points.len() {
            let (_, b) = self.points[(start + i) % self.points.len()];
            if alive[b] {
                return Some(b);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// The proxy
// ---------------------------------------------------------------------------

/// Tuning for [`ShardProxy`].
#[derive(Debug, Clone)]
pub struct ShardProxyConfig {
    /// Connection-handler threads (the concurrent-client ceiling).
    pub handlers: usize,
    /// How often the health prober pings every backend.
    pub probe_interval: Duration,
    /// Connect + response budget for one probe; a dead backend costs the
    /// prober at most this per round instead of an OS connect timeout.
    pub probe_timeout: Duration,
    /// How long [`ShardProxy::shutdown`] waits for live connections.
    pub drain: Duration,
}

impl Default for ShardProxyConfig {
    fn default() -> Self {
        Self {
            handlers: 8,
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            drain: Duration::from_secs(5),
        }
    }
}

/// What the proxy's handlers and its health prober share: the backends,
/// the ring over them and what is known of their health.
#[derive(Debug)]
struct Backends {
    addrs: Vec<SocketAddr>,
    ring: ShardRing,
    /// Health-prober verdicts; handlers also clear a slot on hard
    /// upstream failures so the next open fails over immediately.
    alive: Vec<AtomicBool>,
    probe_timeout: Duration,
}

/// A running sharding proxy bound to a TCP address.
#[derive(Debug)]
pub struct ShardProxy {
    listener: Listener<Arc<Backends>>,
    backends: Arc<Backends>,
    /// The health prober, and the channel whose hang-up stops it.
    prober: Option<(Sender<()>, JoinHandle<()>)>,
}

impl ShardProxy {
    /// Binds the proxy and starts its accept loop, handler pool and
    /// health prober. Backends start presumed-alive; the first probe
    /// round corrects that within one `probe_interval`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures. An empty backend list is an
    /// `InvalidInput` error — a proxy with nothing behind it is a
    /// misconfiguration, not a degraded state.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<SocketAddr>,
        cfg: ShardProxyConfig,
    ) -> io::Result<Self> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a shard proxy needs at least one backend",
            ));
        }
        let backends = Arc::new(Backends {
            ring: ShardRing::new(backends.len()),
            alive: backends.iter().map(|_| AtomicBool::new(true)).collect(),
            addrs: backends,
            probe_timeout: cfg.probe_timeout,
        });
        let listener = Listener::bind(
            addr,
            Arc::clone(&backends),
            "gcc-shard",
            cfg.handlers,
            cfg.drain,
        )?;
        let (stop, stopped) = mpsc::channel();
        let prober = {
            let backends = Arc::clone(&backends);
            std::thread::Builder::new()
                .name("gcc-shard-probe".into())
                .spawn(move || backends.probe_loop(cfg.probe_interval, &stopped))?
        };
        Ok(Self {
            listener,
            backends,
            prober: Some((stop, prober)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Which backends the last health information considers alive.
    pub fn alive(&self) -> Vec<bool> {
        self.backends.alive_snapshot()
    }

    /// Whether any client has sent [`Request::Shutdown`]. Shutting down
    /// the proxy drains the proxy only — backends belong to their own
    /// operators (the bench harness shuts them down explicitly).
    pub fn shutdown_requested(&self) -> bool {
        self.listener.shutdown_requested()
    }

    /// Drains and stops the proxy: waits up to the drain window for live
    /// client connections, then stops the accept loop, handler pool and
    /// prober.
    pub fn shutdown(mut self) {
        self.listener.shutdown();
        // Dropping `self` stops the prober.
    }
}

impl Drop for ShardProxy {
    fn drop(&mut self) {
        if let Some((stop, prober)) = self.prober.take() {
            drop(stop);
            let _ = prober.join();
        }
    }
}

impl Backends {
    fn alive_snapshot(&self) -> Vec<bool> {
        self.alive
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .collect()
    }

    /// Pings every backend, updating its alive slot, once per `interval`
    /// until the proxy hangs up `stopped` — which ends the wait at once,
    /// so proxy shutdown is not gated on a probe interval.
    fn probe_loop(&self, interval: Duration, stopped: &Receiver<()>) {
        loop {
            for (addr, alive) in self.addrs.iter().zip(&self.alive) {
                alive.store(self.probe_one(addr), Ordering::Release);
            }
            if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                return;
            }
        }
    }

    fn probe_one(&self, addr: &SocketAddr) -> bool {
        let Ok(mut client) = WireClient::connect_timeout(addr, self.probe_timeout) else {
            return false;
        };
        if client.set_read_timeout(Some(self.probe_timeout)).is_err() {
            return false;
        }
        client.ping().is_ok()
    }
}

/// Per-client-connection proxy state: one upstream client per backend
/// (session affinity), and the proxy-id → (backend, upstream stream)
/// table.
#[derive(Default)]
struct ProxyConn {
    upstreams: HashMap<usize, WireClient>,
    streams: HashMap<u64, (usize, RemoteStream)>,
    last_id: u64,
}

impl ProxyConn {
    /// The upstream client for backend `b`, connecting on first use.
    fn upstream(&mut self, backends: &Backends, b: usize) -> Result<&mut WireClient, WireError> {
        Ok(match self.upstreams.entry(b) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(WireClient::connect_timeout(
                &backends.addrs[b],
                backends.probe_timeout,
            )?),
        })
    }

    /// Marks backend `b` dead (the prober will re-admit it), drops the
    /// upstream to it and fails its streams: the next pull on any of
    /// them answers `StreamEnd` (their frames are gone with the backend).
    fn lose_backend(&mut self, backends: &Backends, b: usize) {
        backends.alive[b].store(false, Ordering::Release);
        self.upstreams.remove(&b);
        self.streams.retain(|_, (owner, _)| *owner != b);
    }
}

fn unavailable(message: impl Into<String>) -> Response {
    Response::Rejected(WireRejection::Unavailable {
        message: message.into(),
        retry_after: UNAVAILABLE_RETRY,
    })
}

impl Service for Arc<Backends> {
    type Conn = ProxyConn;

    fn dispatch(&self, conn: &mut ProxyConn, req: Request) -> Response {
        match req {
            Request::Open {
                scene,
                defaults,
                spec,
                config,
            } => {
                // Fail over at most once per backend: a connect or
                // transport failure marks the target dead and re-routes
                // clockwise.
                for _attempt in 0..self.addrs.len() {
                    let Some(b) = self.ring.route(&scene, &self.alive_snapshot()) else {
                        return unavailable("no alive backend");
                    };
                    let open = conn
                        .upstream(self, b)
                        .and_then(|up| up.open(&scene, defaults.clone(), spec.clone(), config));
                    match open {
                        Ok(remote) => {
                            conn.last_id += 1;
                            let frames = remote.len();
                            conn.streams.insert(conn.last_id, (b, remote));
                            return Response::Opened {
                                stream: conn.last_id,
                                frames,
                            };
                        }
                        // A typed refusal means the backend is healthy
                        // and said no — forward it verbatim, hints intact.
                        Err(WireError::Rejected(rej)) => return Response::Rejected(rej),
                        Err(_) => conn.lose_backend(self, b),
                    }
                }
                unavailable("every backend failed the open")
            }
            Request::NextFrame { stream } => {
                let Some((b, mut remote)) = conn.streams.remove(&stream) else {
                    return Response::StreamEnd { stream };
                };
                let pulled = conn
                    .upstream(self, b)
                    .and_then(|up| up.next_frame(&mut remote));
                match pulled {
                    Ok(Some(frame)) => {
                        let index = remote.delivered() - 1;
                        conn.streams.insert(stream, (b, remote));
                        Response::Frame {
                            stream,
                            index,
                            frame,
                        }
                    }
                    Ok(None) => Response::StreamEnd { stream },
                    Err(WireError::Rejected(error)) => {
                        let index = remote.delivered() - 1;
                        conn.streams.insert(stream, (b, remote));
                        Response::FrameError {
                            stream,
                            index,
                            error,
                        }
                    }
                    // The backend died mid-stream. Its undelivered frames
                    // are gone; new opens will fail over, but this stream
                    // cannot (frames must stay in order and the
                    // replacement backend never saw the stream).
                    Err(_) => {
                        conn.lose_backend(self, b);
                        Response::FrameError {
                            stream,
                            index: remote.delivered(),
                            error: WireRejection::Unavailable {
                                message: format!("backend {b} lost mid-stream"),
                                retry_after: UNAVAILABLE_RETRY,
                            },
                        }
                    }
                }
            }
            Request::Cancel { stream } => {
                if let Some((b, mut remote)) = conn.streams.remove(&stream) {
                    if let Ok(up) = conn.upstream(self, b) {
                        let _ = up.cancel(&mut remote);
                    }
                }
                Response::Cancelled { stream }
            }
            Request::Stats => {
                // Merged view over every alive backend, through this
                // connection's affine upstreams.
                let mut merged = ServeStats::default();
                let mut reached = 0usize;
                for b in 0..self.addrs.len() {
                    if !self.alive[b].load(Ordering::Acquire) {
                        continue;
                    }
                    match conn.upstream(self, b).and_then(WireClient::stats) {
                        Ok(s) => {
                            merge_stats(&mut merged, &s);
                            reached += 1;
                        }
                        Err(_) => conn.lose_backend(self, b),
                    }
                }
                if reached == 0 {
                    unavailable("no alive backend for stats")
                } else {
                    Response::Stats(Box::new(merged))
                }
            }
            req @ (Request::Ping | Request::Shutdown) => not_dispatched(&req),
        }
    }
}

/// Folds one stats struct into another, field by field: `acc.f += f` for
/// the fields in the braces, `acc.f = acc.f.max(f)` for those under `max`.
/// The struct is taken apart without `..`, so a field that is added to it
/// and not folded here does not compile.
macro_rules! fold {
    ($acc:expr, $ty:ident { $($add:ident),* } = $from:expr $(, max($($max:ident),*))?) => {{
        let (acc, $ty { $($add,)* $($($max,)*)? }) = ($acc, $from);
        $(acc.$add += *$add;)*
        $($(acc.$max = acc.$max.max(*$max);)*)?
    }};
}

/// Folds one backend's snapshot into a fleet-wide view: counters add,
/// gauges add (`queue_depth`, residency — each backend holds distinct
/// scenes), and latency percentiles take the worst backend (a merged
/// percentile of percentiles has no exact answer; the max is the
/// conservative bound an operator alarms on).
fn merge_stats(acc: &mut ServeStats, s: &ServeStats) {
    let ServeStats {
        per_scene,
        per_schedule,
        per_priority,
        streams,
        completed,
        queue_depth,
        max_queue_depth,
        batches,
        frames,
        latency_p50_ms,
        latency_p95_ms,
        frame_stats,
        resident_bytes,
        resident_scenes,
        respawns,
        lost_workers,
        quarantined_scenes,
        lod,
    } = s;
    for (scene, c) in per_scene {
        fold!(
            acc.per_scene.entry(scene.clone()).or_default(),
            SceneCounters {
                requests,
                hits,
                misses,
                loads,
                evictions,
                frames,
                batches,
                retries,
                quarantines
            } = c
        );
    }
    for (schedule, c) in per_schedule {
        fold!(
            acc.per_schedule.entry(*schedule).or_default(),
            ScheduleCounters {
                requests,
                frames,
                batches
            } = c
        );
    }
    for (priority, c) in per_priority {
        fold!(
            acc.per_priority.entry(*priority).or_default(),
            PriorityCounters {
                requests,
                frames,
                completed,
                queued,
                max_queued,
                with_deadline,
                deadline_misses,
                rejected,
                shed
            } = c,
            max(latency_p50_ms, latency_p95_ms)
        );
    }
    fold!(
        &mut acc.streams,
        StreamCounters {
            opened,
            completed,
            cancelled,
            frames_discarded
        } = streams
    );
    acc.completed += completed;
    acc.queue_depth += queue_depth;
    acc.max_queue_depth += max_queue_depth;
    acc.batches += batches;
    acc.frames += frames;
    acc.latency_p50_ms = acc.latency_p50_ms.max(*latency_p50_ms);
    acc.latency_p95_ms = acc.latency_p95_ms.max(*latency_p95_ms);
    acc.frame_stats.merge_add(frame_stats);
    acc.resident_bytes += resident_bytes;
    acc.resident_scenes += resident_scenes;
    acc.respawns += respawns;
    acc.lost_workers += lost_workers;
    acc.quarantined_scenes += quarantined_scenes;
    acc.lod.merge_add(lod);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_stats_folds_lod_counters() {
        // A fleet where only some backends run the ladder must still
        // surface it in the merged snapshot (regression: the lod field
        // was once dropped by the fold entirely).
        let mut acc = ServeStats::default();
        let mut on = ServeStats::default();
        on.lod.enabled = true;
        on.lod.frames_by_rung = vec![10, 3];
        on.lod.degraded_frames = 3;
        on.lod.degradations = 2;
        on.lod.recoveries = 1;
        on.lod.recent.push(gcc_serve::LodDecision {
            rung: 1,
            predicted_us: 900,
            actual_us: 1000,
            budget_us: 4000,
            missed: false,
        });
        merge_stats(&mut acc, &ServeStats::default()); // ladder-off backend
        merge_stats(&mut acc, &on);
        assert!(acc.lod.enabled);
        assert_eq!(acc.lod.frames_by_rung, vec![10, 3]);
        assert_eq!(acc.lod.degraded_frames, 3);
        assert_eq!(acc.lod.degradations, 2);
        assert_eq!(acc.lod.recoveries, 1);
        assert_eq!(acc.lod.recent.len(), 1);
        merge_stats(&mut acc, &on);
        assert_eq!(acc.lod.frames_by_rung, vec![20, 6]);
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = ShardRing::new(3);
        let alive = [true, true, true];
        for scene in ["palace", "lego", "train", "truck", "playroom", "drjohnson"] {
            let a = ring.route(scene, &alive).unwrap();
            let b = ring.route(scene, &alive).unwrap();
            assert_eq!(a, b, "route of {scene} not stable");
            assert!(a < 3);
        }
        // A fresh ring over the same member count agrees (cross-process
        // stability stands in for cross-restart stability here).
        let other = ShardRing::new(3);
        for scene in ["palace", "lego", "train"] {
            assert_eq!(ring.route(scene, &alive), other.route(scene, &alive));
        }
    }

    #[test]
    fn dead_backends_remap_only_their_scenes() {
        let ring = ShardRing::new(3);
        let all = [true, true, true];
        let scenes: Vec<String> = (0..200).map(|i| format!("scene-{i}")).collect();
        let home: Vec<usize> = scenes
            .iter()
            .map(|s| ring.route(s, &all).unwrap())
            .collect();
        // Every backend owns something (the vnode spread is working).
        for b in 0..3 {
            assert!(home.contains(&b), "backend {b} owns nothing");
        }
        // Kill backend 1: its scenes move, everyone else's stay put.
        let degraded = [true, false, true];
        for (scene, h) in scenes.iter().zip(&home) {
            let now = ring.route(scene, &degraded).unwrap();
            if *h == 1 {
                assert_ne!(now, 1, "{scene} routed to the dead backend");
            } else {
                assert_eq!(now, *h, "{scene} moved although its owner is alive");
            }
        }
        // All dead: typed None, not a spin.
        assert_eq!(ring.route("palace", &[false, false, false]), None);
    }

    #[test]
    fn scene_keys_disperse() {
        // Not a hash-quality suite — just that obviously-related ids do
        // not collide, which the chunk-fold with length mixing ensures.
        let keys: Vec<u64> = (0..64)
            .map(|i| ShardRing::scene_key(&format!("s{i}")))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "scene keys collided");
        assert_ne!(ShardRing::scene_key(""), ShardRing::scene_key("\0"));
    }
}
