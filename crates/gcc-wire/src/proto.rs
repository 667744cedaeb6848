//! Typed requests, responses and their binary codecs.
//!
//! Every message is one wire frame (see [`crate::frame`]): the frame's
//! `kind` byte selects the variant, the payload is the variant's fields in
//! declaration order, encoded with the same little-endian primitives scene
//! files use ([`gcc_scene::codec`]). Requests use kinds `0x01..=0x06`,
//! responses `0x81..=0x8A` — the high bit marks the direction, so a peer
//! can reject a message sent the wrong way without guessing.
//!
//! # Versioning rules
//!
//! The frame header's `version` byte covers *everything* in this module:
//! any change to a payload layout, a tag value, or the meaning of a field
//! bumps [`crate::frame::WIRE_VERSION`]. Within one version the rules are:
//!
//! * fields are appended, never reordered or resized;
//! * decoders reject trailing bytes (`Malformed`), so payloads cannot be
//!   silently extended — extension *is* a version bump;
//! * enum tags are append-only and never reused.
//!
//! # Limits
//!
//! Strings are capped at [`MAX_STR_LEN`] bytes, explicit view lists at
//! [`MAX_VIEWS`] entries and images at [`MAX_PIXELS`] pixels. The caps are
//! validated before any allocation is sized from wire data, so a hostile
//! peer cannot force a huge allocation with a short frame.

use std::io::{self, Read};
use std::time::Duration;

use gcc_math::Vec3;
use gcc_render::{Frame, FrameStats, Image, RenderOptions, Roi, Schedule};
use gcc_scene::codec;
use gcc_scene::ViewSpec;
use gcc_serve::{
    LodCounters, LodDecision, Priority, PriorityCounters, SceneCounters, ScheduleCounters,
    ServeError, ServeStats, StreamConfig, StreamCounters, StreamSpec,
};

use crate::frame::WireError;

/// Longest string (scene id, error message) a codec will read.
pub const MAX_STR_LEN: usize = 4096;

/// Most entries an explicit [`StreamSpec::ViewList`] may carry on the wire.
pub const MAX_VIEWS: usize = 1 << 20;

/// Most pixels a wire-decoded [`Image`] may have (64 Mpx ≈ the transport's
/// frame cap divided by the 12-byte pixel).
pub const MAX_PIXELS: u64 = 1 << 26;

// ---------------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------------

/// A client → server message. One request yields exactly one [`Response`]
/// on the same connection, in order — the protocol is strict
/// request/response, so client-side backpressure is simply the pull
/// cadence of [`Request::NextFrame`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a frame stream on a scene (the wire form of
    /// `RenderService::session` + `Session::stream_with`). Answered with
    /// [`Response::Opened`] or [`Response::Rejected`].
    Open {
        /// Scene id in the server's registry.
        scene: String,
        /// Session-default render options (schedule, resolution, quality
        /// knobs) applied to every frame of the stream.
        defaults: RenderOptions,
        /// What to render.
        spec: StreamSpec,
        /// Priority, per-frame deadline and in-flight window.
        config: StreamConfig,
    },
    /// Pull the next in-order frame of an open stream. Answered with
    /// [`Response::Frame`], [`Response::FrameError`] or
    /// [`Response::StreamEnd`].
    NextFrame {
        /// Stream id from [`Response::Opened`].
        stream: u64,
    },
    /// Cancel an open stream, discarding undelivered frames. Answered
    /// with [`Response::Cancelled`] (idempotent: cancelling an unknown or
    /// finished stream still acks).
    Cancel {
        /// Stream id from [`Response::Opened`].
        stream: u64,
    },
    /// Snapshot the server's service statistics. Answered with
    /// [`Response::Stats`].
    Stats,
    /// Liveness probe. Answered with [`Response::Pong`]; the shard
    /// proxy's health prober sends these.
    Ping,
    /// Ask the server to drain and exit — the wire equivalent of SIGTERM.
    /// Answered with [`Response::ShutdownAck`]; afterwards the server
    /// rejects new [`Request::Open`]s with
    /// [`WireRejection::ShuttingDown`] while letting open streams finish.
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// A stream was admitted.
    Opened {
        /// Connection-scoped stream id for subsequent
        /// [`Request::NextFrame`] / [`Request::Cancel`].
        stream: u64,
        /// Total frames the stream will deliver.
        frames: u64,
    },
    /// The next in-order frame of a stream.
    Frame {
        /// The stream the frame belongs to.
        stream: u64,
        /// Zero-based index of this frame within the stream.
        index: u64,
        /// The rendered frame, bit-identical to an in-process render.
        frame: Frame,
    },
    /// A frame slot resolved to an error (the stream may still deliver
    /// later frames only if the error is per-frame; stream-fatal errors
    /// end the stream server-side and subsequent pulls see
    /// [`Response::StreamEnd`]).
    FrameError {
        /// The stream the error belongs to.
        stream: u64,
        /// Zero-based index of the failed frame slot.
        index: u64,
        /// Why the frame failed.
        error: WireRejection,
    },
    /// All frames of the stream were delivered (or the stream failed and
    /// has nothing further); the id is now dead.
    StreamEnd {
        /// The finished stream.
        stream: u64,
    },
    /// Acknowledges [`Request::Cancel`].
    Cancelled {
        /// The cancelled stream.
        stream: u64,
    },
    /// An [`Request::Open`] was refused with a typed, retryable-or-not
    /// reason.
    Rejected(WireRejection),
    /// Snapshot answering [`Request::Stats`] (boxed: a [`ServeStats`]
    /// with its per-scene maps and LOD decision trace dwarfs every
    /// other variant).
    Stats(Box<ServeStats>),
    /// Answers [`Request::Ping`].
    Pong,
    /// Acknowledges [`Request::Shutdown`].
    ShutdownAck,
    /// The peer sent something the server could not parse (unknown kind,
    /// malformed payload, bad version, oversized frame). The connection
    /// survives; the offending request is dropped.
    Error {
        /// Human-readable description of the protocol violation.
        message: String,
    },
}

/// A typed refusal carried on the wire — the serializable image of
/// [`ServeError`], plus [`WireRejection::Unavailable`] which only the
/// shard proxy emits. `retry_after` hints survive the trip, so remote
/// clients can back off exactly like in-process ones.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRejection {
    /// No such scene in the server's registry.
    UnknownScene(String),
    /// View or option validation failed (message is the stringified
    /// [`gcc_scene::ViewError`] — the typed payload does not cross the
    /// wire, the retry decision never depends on its fields).
    InvalidRequest(String),
    /// A zero-frame stream spec.
    EmptyStream,
    /// The scene's source failed to load.
    Load {
        /// Scene id whose load failed.
        scene: String,
        /// Human-readable cause.
        message: String,
    },
    /// The server is draining and accepts no new streams.
    ShuttingDown,
    /// The worker rendering the batch panicked.
    WorkerPanicked,
    /// The scene is quarantined behind the load circuit breaker.
    Quarantined {
        /// The quarantined scene id.
        scene: String,
        /// Remaining quarantine time at rejection.
        retry_after: Duration,
    },
    /// The server shed the stream under load.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after: Duration,
    },
    /// Proxy-only: the shard owning the scene is unreachable and no
    /// failover target is alive.
    Unavailable {
        /// What the proxy observed.
        message: String,
        /// Suggested backoff before retrying.
        retry_after: Duration,
    },
}

impl From<&ServeError> for WireRejection {
    fn from(e: &ServeError) -> Self {
        match e {
            ServeError::UnknownScene(s) => WireRejection::UnknownScene(s.clone()),
            ServeError::InvalidRequest(v) => WireRejection::InvalidRequest(v.to_string()),
            ServeError::EmptyStream => WireRejection::EmptyStream,
            ServeError::Load { scene, message } => WireRejection::Load {
                scene: scene.clone(),
                message: message.clone(),
            },
            ServeError::ShuttingDown => WireRejection::ShuttingDown,
            ServeError::WorkerPanicked => WireRejection::WorkerPanicked,
            ServeError::Quarantined { scene, retry_after } => WireRejection::Quarantined {
                scene: scene.clone(),
                retry_after: *retry_after,
            },
            ServeError::Overloaded { retry_after } => WireRejection::Overloaded {
                retry_after: *retry_after,
            },
        }
    }
}

impl std::fmt::Display for WireRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireRejection::UnknownScene(s) => write!(f, "unknown scene {s:?}"),
            WireRejection::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            WireRejection::EmptyStream => write!(f, "stream spec describes zero frames"),
            WireRejection::Load { scene, message } => {
                write!(f, "loading scene {scene:?} failed: {message}")
            }
            WireRejection::ShuttingDown => write!(f, "server is shutting down"),
            WireRejection::WorkerPanicked => write!(f, "render worker panicked"),
            WireRejection::Quarantined { scene, retry_after } => write!(
                f,
                "scene {scene:?} quarantined, retry in {:.0} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            WireRejection::Overloaded { retry_after } => write!(
                f,
                "server overloaded, retry in {:.0} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            WireRejection::Unavailable {
                message,
                retry_after,
            } => write!(
                f,
                "shard unavailable ({message}), retry in {:.0} ms",
                retry_after.as_secs_f64() * 1e3
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Frame kinds
// ---------------------------------------------------------------------------

mod kind {
    pub const OPEN: u8 = 0x01;
    pub const NEXT_FRAME: u8 = 0x02;
    pub const CANCEL: u8 = 0x03;
    pub const STATS: u8 = 0x04;
    pub const PING: u8 = 0x05;
    pub const SHUTDOWN: u8 = 0x06;

    pub const OPENED: u8 = 0x81;
    pub const FRAME: u8 = 0x82;
    pub const FRAME_ERROR: u8 = 0x83;
    pub const STREAM_END: u8 = 0x84;
    pub const CANCELLED: u8 = 0x85;
    pub const REJECTED: u8 = 0x86;
    pub const STATS_SNAPSHOT: u8 = 0x87;
    pub const PONG: u8 = 0x88;
    pub const SHUTDOWN_ACK: u8 = 0x89;
    pub const ERROR: u8 = 0x8A;
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// An `InvalidData` error with a message — the shared "semantically bad
/// bytes" failure all decoders funnel through.
fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes to `Vec<u8>` cannot fail; this collapses the codec's
/// `io::Result` plumbing at the message boundary.
fn infallible<T>(r: io::Result<T>) -> T {
    r.expect("writes to Vec<u8> are infallible")
}

fn dur_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn write_duration(out: &mut Vec<u8>, d: Duration) -> io::Result<()> {
    codec::write_u64(out, dur_to_nanos(d))
}

fn read_duration<R: Read>(r: &mut R) -> io::Result<Duration> {
    Ok(Duration::from_nanos(codec::read_u64(r)?))
}

fn write_opt<T>(
    out: &mut Vec<u8>,
    v: Option<&T>,
    f: impl FnOnce(&mut Vec<u8>, &T) -> io::Result<()>,
) -> io::Result<()> {
    match v {
        None => codec::write_u8(out, 0),
        Some(v) => {
            codec::write_u8(out, 1)?;
            f(out, v)
        }
    }
}

fn read_opt<R: Read, T>(
    r: &mut R,
    f: impl FnOnce(&mut R) -> io::Result<T>,
) -> io::Result<Option<T>> {
    match codec::read_u8(r)? {
        0 => Ok(None),
        1 => Ok(Some(f(r)?)),
        t => Err(bad(format!("bad option tag {t}"))),
    }
}

fn write_vec3(out: &mut Vec<u8>, v: Vec3) -> io::Result<()> {
    codec::write_f32(out, v.x)?;
    codec::write_f32(out, v.y)?;
    codec::write_f32(out, v.z)
}

fn read_vec3<R: Read>(r: &mut R) -> io::Result<Vec3> {
    Ok(Vec3 {
        x: codec::read_f32(r)?,
        y: codec::read_f32(r)?,
        z: codec::read_f32(r)?,
    })
}

fn schedule_tag(s: Schedule) -> u8 {
    Schedule::ALL
        .iter()
        .position(|v| *v == s)
        .expect("Schedule::ALL covers every schedule") as u8
}

fn read_schedule<R: Read>(r: &mut R) -> io::Result<Schedule> {
    let tag = codec::read_u8(r)?;
    Schedule::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| bad(format!("bad schedule tag {tag}")))
}

fn priority_tag(p: Priority) -> u8 {
    match p {
        Priority::Interactive => 0,
        Priority::Bulk => 1,
    }
}

fn read_priority<R: Read>(r: &mut R) -> io::Result<Priority> {
    match codec::read_u8(r)? {
        0 => Ok(Priority::Interactive),
        1 => Ok(Priority::Bulk),
        t => Err(bad(format!("bad priority tag {t}"))),
    }
}

fn read_usize<R: Read>(r: &mut R) -> io::Result<usize> {
    let v = codec::read_u64(r)?;
    usize::try_from(v).map_err(|_| bad(format!("count {v} exceeds this platform's usize")))
}

fn read_bool<R: Read>(r: &mut R) -> io::Result<bool> {
    match codec::read_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(bad(format!("bad bool tag {t}"))),
    }
}

fn write_view_spec(out: &mut Vec<u8>, v: &ViewSpec) -> io::Result<()> {
    match v {
        ViewSpec::Trajectory { t } => {
            codec::write_u8(out, 0)?;
            codec::write_f32(out, *t)
        }
        ViewSpec::LookAt {
            eye,
            target,
            up,
            fov_y_deg,
        } => {
            codec::write_u8(out, 1)?;
            write_vec3(out, *eye)?;
            write_vec3(out, *target)?;
            write_vec3(out, *up)?;
            write_opt(out, fov_y_deg.as_ref(), |o, v| codec::write_f32(o, *v))
        }
        ViewSpec::Orbit {
            angle,
            radius_scale,
            height_offset,
        } => {
            codec::write_u8(out, 2)?;
            codec::write_f32(out, *angle)?;
            codec::write_f32(out, *radius_scale)?;
            codec::write_f32(out, *height_offset)
        }
    }
}

fn read_view_spec<R: Read>(r: &mut R) -> io::Result<ViewSpec> {
    match codec::read_u8(r)? {
        0 => Ok(ViewSpec::Trajectory {
            t: codec::read_f32(r)?,
        }),
        1 => Ok(ViewSpec::LookAt {
            eye: read_vec3(r)?,
            target: read_vec3(r)?,
            up: read_vec3(r)?,
            fov_y_deg: read_opt(r, |r| codec::read_f32(r))?,
        }),
        2 => Ok(ViewSpec::Orbit {
            angle: codec::read_f32(r)?,
            radius_scale: codec::read_f32(r)?,
            height_offset: codec::read_f32(r)?,
        }),
        t => Err(bad(format!("bad view spec tag {t}"))),
    }
}

fn write_stream_spec(out: &mut Vec<u8>, s: &StreamSpec) -> io::Result<()> {
    match s {
        StreamSpec::TrajectorySweep { t0, t1, frames } => {
            codec::write_u8(out, 0)?;
            codec::write_f32(out, *t0)?;
            codec::write_f32(out, *t1)?;
            codec::write_u64(out, *frames as u64)
        }
        StreamSpec::OrbitLoop {
            frames,
            radius_scale,
            height_offset,
        } => {
            codec::write_u8(out, 1)?;
            codec::write_u64(out, *frames as u64)?;
            codec::write_f32(out, *radius_scale)?;
            codec::write_f32(out, *height_offset)
        }
        StreamSpec::ViewList(views) => {
            codec::write_u8(out, 2)?;
            codec::write_u32(out, views.len() as u32)?;
            for v in views {
                write_view_spec(out, v)?;
            }
            Ok(())
        }
    }
}

fn read_stream_spec<R: Read>(r: &mut R) -> io::Result<StreamSpec> {
    match codec::read_u8(r)? {
        0 => Ok(StreamSpec::TrajectorySweep {
            t0: codec::read_f32(r)?,
            t1: codec::read_f32(r)?,
            frames: read_usize(r)?,
        }),
        1 => Ok(StreamSpec::OrbitLoop {
            frames: read_usize(r)?,
            radius_scale: codec::read_f32(r)?,
            height_offset: codec::read_f32(r)?,
        }),
        2 => {
            let n = codec::read_u32(r)? as usize;
            if n > MAX_VIEWS {
                return Err(bad(format!("view list of {n} exceeds cap {MAX_VIEWS}")));
            }
            let mut views = Vec::with_capacity(n);
            for _ in 0..n {
                views.push(read_view_spec(r)?);
            }
            Ok(StreamSpec::ViewList(views))
        }
        t => Err(bad(format!("bad stream spec tag {t}"))),
    }
}

fn write_stream_config(out: &mut Vec<u8>, c: &StreamConfig) -> io::Result<()> {
    codec::write_u8(out, priority_tag(c.priority))?;
    write_opt(out, c.deadline.as_ref(), |o, d| write_duration(o, *d))?;
    codec::write_u64(out, c.window as u64)
}

fn read_stream_config<R: Read>(r: &mut R) -> io::Result<StreamConfig> {
    Ok(StreamConfig {
        priority: read_priority(r)?,
        deadline: read_opt(r, read_duration)?,
        window: read_usize(r)?,
    })
}

fn write_render_options(out: &mut Vec<u8>, o: &RenderOptions) -> io::Result<()> {
    codec::write_u8(out, schedule_tag(o.schedule))?;
    write_opt(out, o.resolution.as_ref(), |b, (w, h)| {
        codec::write_u32(b, *w)?;
        codec::write_u32(b, *h)
    })?;
    write_opt(out, o.roi.as_ref(), |b, roi| {
        codec::write_u32(b, roi.x0)?;
        codec::write_u32(b, roi.y0)?;
        codec::write_u32(b, roi.width)?;
        codec::write_u32(b, roi.height)
    })?;
    write_opt(out, o.background.as_ref(), |b, v| write_vec3(b, *v))?;
    write_opt(out, o.alpha_min.as_ref(), |b, v| codec::write_f32(b, *v))?;
    write_opt(out, o.sh_degree.as_ref(), |b, v| codec::write_u8(b, *v))
}

fn read_render_options<R: Read>(r: &mut R) -> io::Result<RenderOptions> {
    Ok(RenderOptions {
        schedule: read_schedule(r)?,
        resolution: read_opt(r, |r| Ok((codec::read_u32(r)?, codec::read_u32(r)?)))?,
        roi: read_opt(r, |r| {
            Ok(Roi {
                x0: codec::read_u32(r)?,
                y0: codec::read_u32(r)?,
                width: codec::read_u32(r)?,
                height: codec::read_u32(r)?,
            })
        })?,
        background: read_opt(r, read_vec3)?,
        alpha_min: read_opt(r, |r| codec::read_f32(r))?,
        sh_degree: read_opt(r, |r| codec::read_u8(r))?,
    })
}

/// [`FrameStats`] fields in declaration order — the wire layout is this
/// list, 24 `u64`s, and the round-trip test pins the count so a new field
/// cannot be forgotten silently.
fn stats_fields(s: &FrameStats) -> [u64; 24] {
    [
        s.total_gaussians,
        s.geometry_loads,
        s.projected,
        s.sh_loads,
        s.rendered,
        s.render_invocations,
        s.pixels_blended,
        s.sort_elements,
        s.windows,
        s.tiles,
        s.kv_pairs,
        s.tile_loads,
        s.unique_loaded,
        s.pixels_tested,
        s.pixels_tested_aabb,
        s.pixels_tested_obb,
        s.near_culled,
        s.groups_total,
        s.groups_processed,
        s.groups_skipped,
        s.blocks_dispatched,
        s.blocks_masked_skips,
        s.pixels_evaluated,
        s.alpha_lane_evals,
    ]
}

fn write_frame_stats(out: &mut Vec<u8>, s: &FrameStats) -> io::Result<()> {
    for v in stats_fields(s) {
        codec::write_u64(out, v)?;
    }
    Ok(())
}

fn read_frame_stats<R: Read>(r: &mut R) -> io::Result<FrameStats> {
    let mut f = [0u64; 24];
    for v in &mut f {
        *v = codec::read_u64(r)?;
    }
    Ok(FrameStats {
        total_gaussians: f[0],
        geometry_loads: f[1],
        projected: f[2],
        sh_loads: f[3],
        rendered: f[4],
        render_invocations: f[5],
        pixels_blended: f[6],
        sort_elements: f[7],
        windows: f[8],
        tiles: f[9],
        kv_pairs: f[10],
        tile_loads: f[11],
        unique_loaded: f[12],
        pixels_tested: f[13],
        pixels_tested_aabb: f[14],
        pixels_tested_obb: f[15],
        near_culled: f[16],
        groups_total: f[17],
        groups_processed: f[18],
        groups_skipped: f[19],
        blocks_dispatched: f[20],
        blocks_masked_skips: f[21],
        pixels_evaluated: f[22],
        alpha_lane_evals: f[23],
    })
}

fn write_image(out: &mut Vec<u8>, img: &Image) -> io::Result<()> {
    codec::write_u32(out, img.width())?;
    codec::write_u32(out, img.height())?;
    for p in img.pixels() {
        write_vec3(out, *p)?;
    }
    Ok(())
}

fn read_image<R: Read>(r: &mut R) -> io::Result<Image> {
    let w = codec::read_u32(r)?;
    let h = codec::read_u32(r)?;
    let count = u64::from(w) * u64::from(h);
    if count > MAX_PIXELS {
        return Err(bad(format!("{w}x{h} image exceeds the {MAX_PIXELS}px cap")));
    }
    let mut img = Image::new(w, h);
    for p in img.pixels_mut() {
        *p = read_vec3(r)?;
    }
    Ok(img)
}

fn write_render_frame(out: &mut Vec<u8>, f: &Frame) -> io::Result<()> {
    write_image(out, &f.image)?;
    write_frame_stats(out, &f.stats)
}

fn read_render_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    Ok(Frame {
        image: read_image(r)?,
        stats: read_frame_stats(r)?,
    })
}

fn write_serve_stats(out: &mut Vec<u8>, s: &ServeStats) -> io::Result<()> {
    codec::write_u32(out, s.per_scene.len() as u32)?;
    for (scene, c) in &s.per_scene {
        codec::write_str(out, scene)?;
        for v in [
            c.requests,
            c.hits,
            c.misses,
            c.loads,
            c.evictions,
            c.frames,
            c.batches,
            c.retries,
            c.quarantines,
        ] {
            codec::write_u64(out, v)?;
        }
    }
    codec::write_u32(out, s.per_schedule.len() as u32)?;
    for (sched, c) in &s.per_schedule {
        codec::write_u8(out, schedule_tag(*sched))?;
        for v in [c.requests, c.frames, c.batches] {
            codec::write_u64(out, v)?;
        }
    }
    codec::write_u32(out, s.per_priority.len() as u32)?;
    for (p, c) in &s.per_priority {
        codec::write_u8(out, priority_tag(*p))?;
        for v in [
            c.requests,
            c.frames,
            c.completed,
            c.queued as u64,
            c.max_queued as u64,
            c.with_deadline,
            c.deadline_misses,
            c.rejected,
            c.shed,
        ] {
            codec::write_u64(out, v)?;
        }
        codec::write_f64(out, c.latency_p50_ms)?;
        codec::write_f64(out, c.latency_p95_ms)?;
    }
    for v in [
        s.streams.opened,
        s.streams.completed,
        s.streams.cancelled,
        s.streams.frames_discarded,
        s.completed,
        s.queue_depth as u64,
        s.max_queue_depth as u64,
        s.batches,
        s.frames,
    ] {
        codec::write_u64(out, v)?;
    }
    codec::write_f64(out, s.latency_p50_ms)?;
    codec::write_f64(out, s.latency_p95_ms)?;
    write_frame_stats(out, &s.frame_stats)?;
    for v in [
        s.resident_bytes as u64,
        s.resident_scenes as u64,
        s.respawns,
        s.lost_workers,
        s.quarantined_scenes as u64,
    ] {
        codec::write_u64(out, v)?;
    }
    write_lod_counters(out, &s.lod)?;
    Ok(())
}

fn write_lod_counters(out: &mut Vec<u8>, lod: &LodCounters) -> io::Result<()> {
    codec::write_u8(out, u8::from(lod.enabled))?;
    codec::write_u32(out, lod.frames_by_rung.len() as u32)?;
    for v in &lod.frames_by_rung {
        codec::write_u64(out, *v)?;
    }
    for v in [lod.degraded_frames, lod.degradations, lod.recoveries] {
        codec::write_u64(out, v)?;
    }
    codec::write_u32(out, lod.recent.len() as u32)?;
    for d in &lod.recent {
        codec::write_u32(out, d.rung)?;
        codec::write_u64(out, d.predicted_us)?;
        codec::write_u64(out, d.actual_us)?;
        codec::write_u64(out, d.budget_us)?;
        codec::write_u8(out, u8::from(d.missed))?;
    }
    Ok(())
}

fn read_lod_counters<R: Read>(r: &mut R) -> io::Result<LodCounters> {
    let mut lod = LodCounters {
        enabled: read_bool(r)?,
        ..LodCounters::default()
    };
    for _ in 0..codec::read_u32(r)? {
        lod.frames_by_rung.push(codec::read_u64(r)?);
    }
    lod.degraded_frames = codec::read_u64(r)?;
    lod.degradations = codec::read_u64(r)?;
    lod.recoveries = codec::read_u64(r)?;
    for _ in 0..codec::read_u32(r)? {
        lod.recent.push(LodDecision {
            rung: codec::read_u32(r)?,
            predicted_us: codec::read_u64(r)?,
            actual_us: codec::read_u64(r)?,
            budget_us: codec::read_u64(r)?,
            missed: read_bool(r)?,
        });
    }
    Ok(lod)
}

fn read_serve_stats<R: Read>(r: &mut R) -> io::Result<ServeStats> {
    let mut stats = ServeStats::default();
    for _ in 0..codec::read_u32(r)? {
        let scene = codec::read_str(r, MAX_STR_LEN)?;
        let c = SceneCounters {
            requests: codec::read_u64(r)?,
            hits: codec::read_u64(r)?,
            misses: codec::read_u64(r)?,
            loads: codec::read_u64(r)?,
            evictions: codec::read_u64(r)?,
            frames: codec::read_u64(r)?,
            batches: codec::read_u64(r)?,
            retries: codec::read_u64(r)?,
            quarantines: codec::read_u64(r)?,
        };
        stats.per_scene.insert(scene, c);
    }
    for _ in 0..codec::read_u32(r)? {
        let sched = read_schedule(r)?;
        let c = ScheduleCounters {
            requests: codec::read_u64(r)?,
            frames: codec::read_u64(r)?,
            batches: codec::read_u64(r)?,
        };
        stats.per_schedule.insert(sched, c);
    }
    for _ in 0..codec::read_u32(r)? {
        let p = read_priority(r)?;
        let c = PriorityCounters {
            requests: codec::read_u64(r)?,
            frames: codec::read_u64(r)?,
            completed: codec::read_u64(r)?,
            queued: read_usize(r)?,
            max_queued: read_usize(r)?,
            with_deadline: codec::read_u64(r)?,
            deadline_misses: codec::read_u64(r)?,
            rejected: codec::read_u64(r)?,
            shed: codec::read_u64(r)?,
            latency_p50_ms: codec::read_f64(r)?,
            latency_p95_ms: codec::read_f64(r)?,
        };
        stats.per_priority.insert(p, c);
    }
    stats.streams = StreamCounters {
        opened: codec::read_u64(r)?,
        completed: codec::read_u64(r)?,
        cancelled: codec::read_u64(r)?,
        frames_discarded: codec::read_u64(r)?,
    };
    stats.completed = codec::read_u64(r)?;
    stats.queue_depth = read_usize(r)?;
    stats.max_queue_depth = read_usize(r)?;
    stats.batches = codec::read_u64(r)?;
    stats.frames = codec::read_u64(r)?;
    stats.latency_p50_ms = codec::read_f64(r)?;
    stats.latency_p95_ms = codec::read_f64(r)?;
    stats.frame_stats = read_frame_stats(r)?;
    stats.resident_bytes = read_usize(r)?;
    stats.resident_scenes = read_usize(r)?;
    stats.respawns = codec::read_u64(r)?;
    stats.lost_workers = codec::read_u64(r)?;
    stats.quarantined_scenes = read_usize(r)?;
    stats.lod = read_lod_counters(r)?;
    Ok(stats)
}

fn write_rejection(out: &mut Vec<u8>, rej: &WireRejection) -> io::Result<()> {
    match rej {
        WireRejection::UnknownScene(s) => {
            codec::write_u8(out, 0)?;
            codec::write_str(out, s)
        }
        WireRejection::InvalidRequest(m) => {
            codec::write_u8(out, 1)?;
            codec::write_str(out, m)
        }
        WireRejection::EmptyStream => codec::write_u8(out, 2),
        WireRejection::Load { scene, message } => {
            codec::write_u8(out, 3)?;
            codec::write_str(out, scene)?;
            codec::write_str(out, message)
        }
        WireRejection::ShuttingDown => codec::write_u8(out, 4),
        WireRejection::WorkerPanicked => codec::write_u8(out, 5),
        WireRejection::Quarantined { scene, retry_after } => {
            codec::write_u8(out, 6)?;
            codec::write_str(out, scene)?;
            write_duration(out, *retry_after)
        }
        WireRejection::Overloaded { retry_after } => {
            codec::write_u8(out, 7)?;
            write_duration(out, *retry_after)
        }
        WireRejection::Unavailable {
            message,
            retry_after,
        } => {
            codec::write_u8(out, 8)?;
            codec::write_str(out, message)?;
            write_duration(out, *retry_after)
        }
    }
}

fn read_rejection<R: Read>(r: &mut R) -> io::Result<WireRejection> {
    match codec::read_u8(r)? {
        0 => Ok(WireRejection::UnknownScene(codec::read_str(
            r,
            MAX_STR_LEN,
        )?)),
        1 => Ok(WireRejection::InvalidRequest(codec::read_str(
            r,
            MAX_STR_LEN,
        )?)),
        2 => Ok(WireRejection::EmptyStream),
        3 => Ok(WireRejection::Load {
            scene: codec::read_str(r, MAX_STR_LEN)?,
            message: codec::read_str(r, MAX_STR_LEN)?,
        }),
        4 => Ok(WireRejection::ShuttingDown),
        5 => Ok(WireRejection::WorkerPanicked),
        6 => Ok(WireRejection::Quarantined {
            scene: codec::read_str(r, MAX_STR_LEN)?,
            retry_after: read_duration(r)?,
        }),
        7 => Ok(WireRejection::Overloaded {
            retry_after: read_duration(r)?,
        }),
        8 => Ok(WireRejection::Unavailable {
            message: codec::read_str(r, MAX_STR_LEN)?,
            retry_after: read_duration(r)?,
        }),
        t => Err(bad(format!("bad rejection tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Message encode / decode
// ---------------------------------------------------------------------------

/// Finishes a decode: maps I/O truncation / semantic errors to
/// [`WireError::Malformed`] and rejects payloads with trailing bytes.
fn finish<T>(what: &str, rest: &[u8], decoded: io::Result<T>) -> Result<T, WireError> {
    let v = decoded.map_err(|e| WireError::Malformed(format!("{what}: {e}")))?;
    if rest.is_empty() {
        Ok(v)
    } else {
        Err(WireError::Malformed(format!(
            "{what}: {} trailing bytes",
            rest.len()
        )))
    }
}

impl Request {
    /// Encodes the request as a `(kind, payload)` pair for
    /// [`crate::frame::write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let kind = match self {
            Request::Open {
                scene,
                defaults,
                spec,
                config,
            } => {
                infallible(codec::write_str(&mut out, scene));
                infallible(write_render_options(&mut out, defaults));
                infallible(write_stream_spec(&mut out, spec));
                infallible(write_stream_config(&mut out, config));
                kind::OPEN
            }
            Request::NextFrame { stream } => {
                infallible(codec::write_u64(&mut out, *stream));
                kind::NEXT_FRAME
            }
            Request::Cancel { stream } => {
                infallible(codec::write_u64(&mut out, *stream));
                kind::CANCEL
            }
            Request::Stats => kind::STATS,
            Request::Ping => kind::PING,
            Request::Shutdown => kind::SHUTDOWN,
        };
        (kind, out)
    }

    /// Decodes a request from a frame's `(kind, payload)`. Unknown kinds
    /// (including any response kind) and short, hostile or over-long
    /// payloads are [`WireError::Malformed`] — the connection survives,
    /// the request does not.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = payload;
        let decoded = match kind {
            kind::OPEN => (|r: &mut &[u8]| {
                Ok(Request::Open {
                    scene: codec::read_str(r, MAX_STR_LEN)?,
                    defaults: read_render_options(r)?,
                    spec: read_stream_spec(r)?,
                    config: read_stream_config(r)?,
                })
            })(&mut r),
            kind::NEXT_FRAME => codec::read_u64(&mut r).map(|stream| Request::NextFrame { stream }),
            kind::CANCEL => codec::read_u64(&mut r).map(|stream| Request::Cancel { stream }),
            kind::STATS => Ok(Request::Stats),
            kind::PING => Ok(Request::Ping),
            kind::SHUTDOWN => Ok(Request::Shutdown),
            k => {
                return Err(WireError::Malformed(format!(
                    "unknown request kind {k:#04x}"
                )))
            }
        };
        finish("request", r, decoded)
    }
}

impl Response {
    /// Encodes the response as a `(kind, payload)` pair for
    /// [`crate::frame::write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut out = Vec::new();
        let kind = match self {
            Response::Opened { stream, frames } => {
                infallible(codec::write_u64(&mut out, *stream));
                infallible(codec::write_u64(&mut out, *frames));
                kind::OPENED
            }
            Response::Frame {
                stream,
                index,
                frame,
            } => {
                infallible(codec::write_u64(&mut out, *stream));
                infallible(codec::write_u64(&mut out, *index));
                infallible(write_render_frame(&mut out, frame));
                kind::FRAME
            }
            Response::FrameError {
                stream,
                index,
                error,
            } => {
                infallible(codec::write_u64(&mut out, *stream));
                infallible(codec::write_u64(&mut out, *index));
                infallible(write_rejection(&mut out, error));
                kind::FRAME_ERROR
            }
            Response::StreamEnd { stream } => {
                infallible(codec::write_u64(&mut out, *stream));
                kind::STREAM_END
            }
            Response::Cancelled { stream } => {
                infallible(codec::write_u64(&mut out, *stream));
                kind::CANCELLED
            }
            Response::Rejected(rej) => {
                infallible(write_rejection(&mut out, rej));
                kind::REJECTED
            }
            Response::Stats(stats) => {
                infallible(write_serve_stats(&mut out, stats));
                kind::STATS_SNAPSHOT
            }
            Response::Pong => kind::PONG,
            Response::ShutdownAck => kind::SHUTDOWN_ACK,
            Response::Error { message } => {
                infallible(codec::write_str(&mut out, message));
                kind::ERROR
            }
        };
        (kind, out)
    }

    /// Decodes a response from a frame's `(kind, payload)`.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = payload;
        let decoded = match kind {
            kind::OPENED => (|r: &mut &[u8]| {
                Ok(Response::Opened {
                    stream: codec::read_u64(r)?,
                    frames: codec::read_u64(r)?,
                })
            })(&mut r),
            kind::FRAME => (|r: &mut &[u8]| {
                Ok(Response::Frame {
                    stream: codec::read_u64(r)?,
                    index: codec::read_u64(r)?,
                    frame: read_render_frame(r)?,
                })
            })(&mut r),
            kind::FRAME_ERROR => (|r: &mut &[u8]| {
                Ok(Response::FrameError {
                    stream: codec::read_u64(r)?,
                    index: codec::read_u64(r)?,
                    error: read_rejection(r)?,
                })
            })(&mut r),
            kind::STREAM_END => {
                codec::read_u64(&mut r).map(|stream| Response::StreamEnd { stream })
            }
            kind::CANCELLED => codec::read_u64(&mut r).map(|stream| Response::Cancelled { stream }),
            kind::REJECTED => read_rejection(&mut r).map(Response::Rejected),
            kind::STATS_SNAPSHOT => read_serve_stats(&mut r).map(|s| Response::Stats(Box::new(s))),
            kind::PONG => Ok(Response::Pong),
            kind::SHUTDOWN_ACK => Ok(Response::ShutdownAck),
            kind::ERROR => {
                codec::read_str(&mut r, MAX_STR_LEN).map(|message| Response::Error { message })
            }
            k => {
                return Err(WireError::Malformed(format!(
                    "unknown response kind {k:#04x}"
                )))
            }
        };
        finish("response", r, decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let (kind, payload) = req.encode();
        let back = Request::decode(kind, &payload).expect("decode");
        assert_eq!(*req, back);
    }

    /// `Response` carries `Frame` / `ServeStats`, which do not implement
    /// `PartialEq`; since the codec is deterministic, byte-identical
    /// re-encoding is equality.
    fn roundtrip_response(resp: &Response) {
        let (kind, payload) = resp.encode();
        let back = Response::decode(kind, &payload).expect("decode");
        let (kind2, payload2) = back.encode();
        assert_eq!(kind, kind2);
        assert_eq!(payload, payload2, "re-encode of {resp:?} diverged");
    }

    #[test]
    fn all_request_variants_roundtrip() {
        let open = Request::Open {
            scene: "palace".into(),
            defaults: RenderOptions::default()
                .with_schedule(Schedule::GccHardware)
                .at_resolution(64, 48)
                .with_roi(Roi::new(1, 2, 30, 20))
                .on_background(Vec3::new(0.1, 0.2, 0.3))
                .with_alpha_min(0.01)
                .with_sh_degree(2),
            spec: StreamSpec::TrajectorySweep {
                t0: 0.25,
                t1: 0.75,
                frames: 12,
            },
            config: StreamConfig::default()
                .with_priority(Priority::Bulk)
                .with_deadline(Duration::from_millis(33))
                .with_window(7),
        };
        roundtrip_request(&open);
        roundtrip_request(&Request::Open {
            scene: "lego".into(),
            defaults: RenderOptions::default(),
            spec: StreamSpec::ViewList(vec![
                ViewSpec::Trajectory { t: 0.5 },
                ViewSpec::LookAt {
                    eye: Vec3::new(1.0, 2.0, 3.0),
                    target: Vec3::new(0.0, 0.0, 0.0),
                    up: Vec3::new(0.0, 1.0, 0.0),
                    fov_y_deg: Some(55.0),
                },
                ViewSpec::Orbit {
                    angle: 1.25,
                    radius_scale: 0.9,
                    height_offset: -0.1,
                },
            ]),
            config: StreamConfig::default(),
        });
        roundtrip_request(&Request::Open {
            scene: "train".into(),
            defaults: RenderOptions::default(),
            spec: StreamSpec::OrbitLoop {
                frames: 8,
                radius_scale: 1.1,
                height_offset: 0.2,
            },
            config: StreamConfig::default(),
        });
        roundtrip_request(&Request::NextFrame { stream: 42 });
        roundtrip_request(&Request::Cancel { stream: u64::MAX });
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Ping);
        roundtrip_request(&Request::Shutdown);
    }

    #[test]
    fn all_response_variants_roundtrip() {
        let mut image = Image::new(3, 2);
        for (i, p) in image.pixels_mut().iter_mut().enumerate() {
            *p = Vec3::new(i as f32 * 0.25, 1.0 - i as f32 * 0.1, 0.5);
        }
        let frame = Frame {
            image,
            stats: FrameStats {
                total_gaussians: 100,
                rendered: 42,
                tiles: 7,
                alpha_lane_evals: 9,
                ..FrameStats::default()
            },
        };
        roundtrip_response(&Response::Opened {
            stream: 3,
            frames: 24,
        });
        roundtrip_response(&Response::Frame {
            stream: 3,
            index: 5,
            frame,
        });
        roundtrip_response(&Response::FrameError {
            stream: 3,
            index: 6,
            error: WireRejection::WorkerPanicked,
        });
        roundtrip_response(&Response::StreamEnd { stream: 3 });
        roundtrip_response(&Response::Cancelled { stream: 3 });
        for rej in [
            WireRejection::UnknownScene("mystery".into()),
            WireRejection::InvalidRequest("t out of range".into()),
            WireRejection::EmptyStream,
            WireRejection::Load {
                scene: "palace".into(),
                message: "file vanished".into(),
            },
            WireRejection::ShuttingDown,
            WireRejection::WorkerPanicked,
            WireRejection::Quarantined {
                scene: "truck".into(),
                retry_after: Duration::from_millis(250),
            },
            WireRejection::Overloaded {
                retry_after: Duration::from_micros(1500),
            },
            WireRejection::Unavailable {
                message: "shard 1 down".into(),
                retry_after: Duration::from_millis(100),
            },
        ] {
            roundtrip_response(&Response::Rejected(rej));
        }
        roundtrip_response(&Response::Pong);
        roundtrip_response(&Response::ShutdownAck);
        roundtrip_response(&Response::Error {
            message: "unknown request kind 0x7f".into(),
        });
    }

    #[test]
    fn serve_stats_roundtrip_preserves_every_counter() {
        let mut stats = ServeStats::default();
        stats.per_scene.insert(
            "palace".into(),
            SceneCounters {
                requests: 10,
                hits: 8,
                misses: 2,
                loads: 2,
                evictions: 1,
                frames: 40,
                batches: 5,
                retries: 1,
                quarantines: 0,
            },
        );
        stats.per_schedule.insert(
            Schedule::GaussianWise,
            ScheduleCounters {
                requests: 10,
                frames: 40,
                batches: 5,
            },
        );
        stats.per_priority.insert(
            Priority::Interactive,
            PriorityCounters {
                requests: 6,
                frames: 24,
                completed: 24,
                queued: 2,
                max_queued: 4,
                with_deadline: 6,
                deadline_misses: 1,
                rejected: 0,
                shed: 0,
                latency_p50_ms: 1.5,
                latency_p95_ms: 3.25,
            },
        );
        stats.streams.opened = 3;
        stats.streams.completed = 2;
        stats.streams.cancelled = 1;
        stats.streams.frames_discarded = 4;
        stats.completed = 40;
        stats.queue_depth = 1;
        stats.max_queue_depth = 9;
        stats.batches = 5;
        stats.frames = 40;
        stats.latency_p50_ms = 1.75;
        stats.latency_p95_ms = 4.5;
        stats.frame_stats.total_gaussians = 123_456;
        stats.frame_stats.alpha_lane_evals = 789;
        stats.resident_bytes = 1 << 20;
        stats.resident_scenes = 2;
        stats.respawns = 1;
        stats.lost_workers = 0;
        stats.quarantined_scenes = 1;
        stats.lod = LodCounters {
            enabled: true,
            frames_by_rung: vec![30, 6, 3, 1],
            degraded_frames: 10,
            degradations: 3,
            recoveries: 2,
            recent: vec![
                LodDecision {
                    rung: 3,
                    predicted_us: 0,
                    actual_us: 1_200,
                    budget_us: 4_000,
                    missed: false,
                },
                LodDecision {
                    rung: 0,
                    predicted_us: 9_500,
                    actual_us: 9_800,
                    budget_us: 33_000,
                    missed: true,
                },
            ],
        };

        let (kind, payload) = Response::Stats(Box::new(stats.clone())).encode();
        let back = match Response::decode(kind, &payload).expect("decode") {
            Response::Stats(s) => s,
            other => panic!("decoded {other:?}"),
        };
        assert_eq!(back.per_scene["palace"].hits, 8);
        assert_eq!(
            back.per_schedule[&Schedule::GaussianWise].frames,
            stats.per_schedule[&Schedule::GaussianWise].frames
        );
        let p = back.priority(Priority::Interactive);
        assert_eq!(p.max_queued, 4);
        assert_eq!(p.latency_p95_ms, 3.25);
        assert_eq!(back.streams.frames_discarded, 4);
        assert_eq!(back.frame_stats.total_gaussians, 123_456);
        assert_eq!(back.resident_bytes, 1 << 20);
        assert_eq!(back.quarantined_scenes, 1);
        assert_eq!(back.lod, stats.lod);
    }

    /// FNV-1a over the payload bytes (the fold of `tests/golden_frames.rs`).
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn pinned_stats() -> ServeStats {
        let mut stats = ServeStats::default();
        let scene = |k: u64| SceneCounters {
            requests: k,
            hits: k + 1,
            misses: k + 2,
            loads: k + 3,
            evictions: k + 4,
            frames: k + 5,
            batches: k + 6,
            retries: k + 7,
            quarantines: k + 8,
        };
        stats.per_scene.insert("palace".into(), scene(10));
        stats.per_scene.insert("lego".into(), scene(200));
        let schedule = |k: u64| ScheduleCounters {
            requests: k,
            frames: k + 1,
            batches: k + 2,
        };
        stats.per_schedule.insert(Schedule::Reference, schedule(30));
        stats.per_schedule.insert(Schedule::Gscore, schedule(40));
        let priority = |k: u64| PriorityCounters {
            requests: k,
            frames: k + 1,
            completed: k + 2,
            queued: k as usize + 3,
            max_queued: k as usize + 4,
            with_deadline: k + 5,
            deadline_misses: k + 6,
            rejected: k + 7,
            shed: k + 8,
            latency_p50_ms: k as f64 + 0.5,
            latency_p95_ms: k as f64 + 0.75,
        };
        stats
            .per_priority
            .insert(Priority::Interactive, priority(50));
        stats.per_priority.insert(Priority::Bulk, priority(60));
        stats.streams = StreamCounters {
            opened: 70,
            completed: 71,
            cancelled: 72,
            frames_discarded: 73,
        };
        stats.completed = 80;
        stats.queue_depth = 81;
        stats.max_queue_depth = 82;
        stats.batches = 83;
        stats.frames = 84;
        stats.latency_p50_ms = 8.5;
        stats.latency_p95_ms = 8.75;
        stats.frame_stats = pinned_frame_stats(1000);
        stats.resident_bytes = 90;
        stats.resident_scenes = 91;
        stats.respawns = 92;
        stats.lost_workers = 93;
        stats.quarantined_scenes = 94;
        stats.lod = LodCounters {
            enabled: true,
            frames_by_rung: vec![30, 6, 3],
            degraded_frames: 9,
            degradations: 4,
            recoveries: 2,
            recent: vec![
                LodDecision {
                    rung: 2,
                    predicted_us: 0,
                    actual_us: 1_200,
                    budget_us: 4_000,
                    missed: false,
                },
                LodDecision {
                    rung: 0,
                    predicted_us: 9_500,
                    actual_us: 9_800,
                    budget_us: 33_000,
                    missed: true,
                },
            ],
        };
        stats
    }

    /// Every counter non-zero and distinct, so two fields swapping on
    /// both sides of the codec at once moves the digest.
    fn pinned_frame_stats(k: u64) -> FrameStats {
        FrameStats {
            total_gaussians: k + 1,
            geometry_loads: k + 2,
            projected: k + 3,
            sh_loads: k + 4,
            rendered: k + 5,
            render_invocations: k + 6,
            pixels_blended: k + 7,
            sort_elements: k + 8,
            windows: k + 9,
            tiles: k + 10,
            kv_pairs: k + 11,
            tile_loads: k + 12,
            unique_loaded: k + 13,
            pixels_tested: k + 14,
            pixels_tested_aabb: k + 15,
            pixels_tested_obb: k + 16,
            near_culled: k + 17,
            groups_total: k + 18,
            groups_processed: k + 19,
            groups_skipped: k + 20,
            blocks_dispatched: k + 21,
            blocks_masked_skips: k + 22,
            pixels_evaluated: k + 23,
            alpha_lane_evals: k + 24,
        }
    }

    /// One fixed instance of every message kind as `(name, kind,
    /// payload, is_request)`: between them every arm of `ViewSpec`,
    /// `StreamSpec` and `WireRejection`, and every `Option` field both
    /// ways.
    fn pinned_payloads() -> Vec<(String, u8, Vec<u8>, bool)> {
        let requests = vec![
            (
                "open_sweep",
                Request::Open {
                    scene: "palace".into(),
                    defaults: RenderOptions::default()
                        .with_schedule(Schedule::GccHardware)
                        .at_resolution(64, 48)
                        .with_roi(Roi::new(1, 2, 30, 20))
                        .on_background(Vec3::new(0.1, 0.2, 0.3))
                        .with_alpha_min(0.01)
                        .with_sh_degree(2),
                    spec: StreamSpec::TrajectorySweep {
                        t0: 0.25,
                        t1: 0.75,
                        frames: 12,
                    },
                    config: StreamConfig::default()
                        .with_priority(Priority::Bulk)
                        .with_deadline(Duration::from_millis(33))
                        .with_window(7),
                },
            ),
            (
                "open_views",
                Request::Open {
                    scene: "lego".into(),
                    defaults: RenderOptions {
                        schedule: Schedule::Standard,
                        resolution: None,
                        roi: None,
                        background: None,
                        alpha_min: None,
                        sh_degree: None,
                    },
                    spec: StreamSpec::ViewList(vec![
                        ViewSpec::Trajectory { t: 0.5 },
                        ViewSpec::LookAt {
                            eye: Vec3::new(1.0, 2.0, 3.0),
                            target: Vec3::new(0.0, -0.5, 0.25),
                            up: Vec3::new(0.0, 1.0, 0.0),
                            fov_y_deg: Some(55.0),
                        },
                        ViewSpec::LookAt {
                            eye: Vec3::new(-4.0, 5.0, -6.0),
                            target: Vec3::new(0.5, 0.0, 0.0),
                            up: Vec3::new(0.0, 0.0, 1.0),
                            fov_y_deg: None,
                        },
                        ViewSpec::Orbit {
                            angle: 1.25,
                            radius_scale: 0.9,
                            height_offset: -0.1,
                        },
                    ]),
                    config: StreamConfig {
                        priority: Priority::Interactive,
                        deadline: None,
                        window: 3,
                    },
                },
            ),
            (
                "open_orbit",
                Request::Open {
                    scene: "train".into(),
                    defaults: RenderOptions::default().with_schedule(Schedule::GaussianWise),
                    spec: StreamSpec::OrbitLoop {
                        frames: 8,
                        radius_scale: 1.1,
                        height_offset: 0.2,
                    },
                    config: StreamConfig::default(),
                },
            ),
            ("next_frame", Request::NextFrame { stream: 42 }),
            ("cancel", Request::Cancel { stream: u64::MAX }),
            ("stats", Request::Stats),
            ("ping", Request::Ping),
            ("shutdown", Request::Shutdown),
        ];

        let mut image = Image::new(4, 3);
        for (i, p) in image.pixels_mut().iter_mut().enumerate() {
            *p = Vec3::new(i as f32 * 0.25, 1.0 - i as f32 * 0.125, 0.5 + i as f32);
        }
        let rejections = vec![
            (
                "unknown_scene",
                WireRejection::UnknownScene("mystery".into()),
            ),
            (
                "invalid_request",
                WireRejection::InvalidRequest("t out of range".into()),
            ),
            ("empty_stream", WireRejection::EmptyStream),
            (
                "load",
                WireRejection::Load {
                    scene: "palace".into(),
                    message: "file vanished".into(),
                },
            ),
            ("shutting_down", WireRejection::ShuttingDown),
            ("worker_panicked", WireRejection::WorkerPanicked),
            (
                "quarantined",
                WireRejection::Quarantined {
                    scene: "truck".into(),
                    retry_after: Duration::from_millis(250),
                },
            ),
            (
                "overloaded",
                WireRejection::Overloaded {
                    retry_after: Duration::from_micros(1500),
                },
            ),
            (
                "unavailable",
                WireRejection::Unavailable {
                    message: "shard 1 down".into(),
                    retry_after: Duration::from_millis(100),
                },
            ),
        ];
        let mut responses = vec![
            (
                "opened".to_string(),
                Response::Opened {
                    stream: 3,
                    frames: 24,
                },
            ),
            (
                "frame".into(),
                Response::Frame {
                    stream: 3,
                    index: 5,
                    frame: Frame {
                        image,
                        stats: pinned_frame_stats(0),
                    },
                },
            ),
            (
                "frame_error".into(),
                Response::FrameError {
                    stream: 3,
                    index: 6,
                    error: WireRejection::Load {
                        scene: "lego".into(),
                        message: "décodage échoué".into(),
                    },
                },
            ),
            ("stream_end".into(), Response::StreamEnd { stream: 3 }),
            ("cancelled".into(), Response::Cancelled { stream: 4 }),
            (
                "stats_snapshot".into(),
                Response::Stats(Box::new(pinned_stats())),
            ),
            ("pong".into(), Response::Pong),
            ("shutdown_ack".into(), Response::ShutdownAck),
            (
                "error".into(),
                Response::Error {
                    message: "unknown request kind 0x7f".into(),
                },
            ),
        ];
        responses.extend(
            rejections
                .into_iter()
                .map(|(name, rej)| (format!("rejected_{name}"), Response::Rejected(rej))),
        );

        let mut out = Vec::new();
        for (name, req) in requests {
            let (kind, payload) = req.encode();
            out.push((name.to_string(), kind, payload, true));
        }
        for (name, resp) in responses {
            let (kind, payload) = resp.encode();
            out.push((name, kind, payload, false));
        }
        out
    }

    /// `(name, kind, payload length, FNV-1a digest)` of every pinned
    /// message, computed with the hand-written codecs this table was
    /// committed beside. A mismatch means a payload byte moved: that is
    /// a `WIRE_VERSION` bump, never an edit of this table.
    const PINNED: [(&str, u8, usize, u64); 26] = [
        ("open_sweep", 0x01, 92, 0x366888650f036606),
        ("open_views", 0x01, 127, 0xfa32734893798343),
        ("open_orbit", 0x01, 42, 0xc6c28ccbc3e6fc0f),
        ("next_frame", 0x02, 8, 0xff3add6b3789daef),
        ("cancel", 0x03, 8, 0x8cf51a8bfca3883d),
        ("stats", 0x04, 0, 0xcbf29ce484222325),
        ("ping", 0x05, 0, 0xcbf29ce484222325),
        ("shutdown", 0x06, 0, 0xcbf29ce484222325),
        ("opened", 0x81, 16, 0xbea0de5a7a836fbe),
        ("frame", 0x82, 360, 0x9591950f5b43471f),
        ("frame_error", 0x83, 47, 0x797a5fd33912de4a),
        ("stream_end", 0x84, 8, 0xc7c2bf3b330983e6),
        ("cancelled", 0x85, 8, 0x2cdcdc0dfc5d1141),
        ("stats_snapshot", 0x87, 837, 0x1d099c548f35f87f),
        ("pong", 0x88, 0, 0xcbf29ce484222325),
        ("shutdown_ack", 0x89, 0, 0xcbf29ce484222325),
        ("error", 0x8a, 29, 0x9a83903db15b65e4),
        ("rejected_unknown_scene", 0x86, 12, 0xab65c0d9aa3bddad),
        ("rejected_invalid_request", 0x86, 19, 0xf6514d0ac9b1ae5a),
        ("rejected_empty_stream", 0x86, 1, 0xaf63bf4c8601bb45),
        ("rejected_load", 0x86, 28, 0x49db1d4c62fecc03),
        ("rejected_shutting_down", 0x86, 1, 0xaf63b94c8601b113),
        ("rejected_worker_panicked", 0x86, 1, 0xaf63b84c8601af60),
        ("rejected_quarantined", 0x86, 18, 0xe6c7b99dcc2f0c95),
        ("rejected_overloaded", 0x86, 9, 0xb1d94a120b5aa02d),
        ("rejected_unavailable", 0x86, 25, 0x73eb8ef47cde0983),
    ];

    #[test]
    fn payload_bytes_are_pinned() {
        let actual: Vec<(String, u8, usize, u64)> = pinned_payloads()
            .into_iter()
            .map(|(name, kind, payload, _)| (name, kind, payload.len(), fnv(&payload)))
            .collect();
        let expected: Vec<(String, u8, usize, u64)> = PINNED
            .iter()
            .map(|(name, kind, len, digest)| (name.to_string(), *kind, *len, *digest))
            .collect();
        if actual != expected {
            for (name, kind, len, digest) in &actual {
                eprintln!("        ({name:?}, {kind:#04x}, {len}, {digest:#018x}),");
            }
            panic!("a wire payload moved; the table above is what the codecs produce now");
        }
    }

    #[test]
    fn every_truncation_and_extension_of_a_pinned_payload_is_malformed() {
        for (name, kind, payload, is_request) in pinned_payloads() {
            let decode = |bytes: &[u8]| {
                if is_request {
                    Request::decode(kind, bytes).map(drop)
                } else {
                    Response::decode(kind, bytes).map(drop)
                }
            };
            decode(&payload).unwrap_or_else(|e| panic!("{name}: whole payload: {e}"));
            for cut in 0..payload.len() {
                assert!(
                    matches!(decode(&payload[..cut]), Err(WireError::Malformed(_))),
                    "{name}: the {cut}-byte prefix of {} bytes decoded",
                    payload.len()
                );
            }
            let mut longer = payload.clone();
            longer.push(0);
            assert!(
                matches!(decode(&longer), Err(WireError::Malformed(_))),
                "{name}: a trailing byte was accepted"
            );
        }
    }

    #[test]
    fn wire_rejection_mirrors_serve_error() {
        let err = ServeError::Quarantined {
            scene: "lego".into(),
            retry_after: Duration::from_millis(40),
        };
        assert_eq!(
            WireRejection::from(&err),
            WireRejection::Quarantined {
                scene: "lego".into(),
                retry_after: Duration::from_millis(40),
            }
        );
        let err = ServeError::Overloaded {
            retry_after: Duration::from_millis(25),
        };
        assert_eq!(
            WireRejection::from(&err),
            WireRejection::Overloaded {
                retry_after: Duration::from_millis(25),
            }
        );
    }

    #[test]
    fn trailing_bytes_and_bad_tags_are_malformed() {
        let (kind, mut payload) = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(kind, &payload),
            Err(WireError::Malformed(_))
        ));

        // Response kind on the request side.
        assert!(matches!(
            Request::decode(kind::PONG, &[]),
            Err(WireError::Malformed(_))
        ));

        // Truncated payload.
        let (kind, payload) = Request::NextFrame { stream: 7 }.encode();
        assert!(matches!(
            Request::decode(kind, &payload[..3]),
            Err(WireError::Malformed(_))
        ));

        // Hostile view-list length with a short payload: rejected by the
        // cap, not by a failed allocation.
        let mut payload = Vec::new();
        codec::write_str(&mut payload, "palace").unwrap();
        write_render_options(&mut payload, &RenderOptions::default()).unwrap();
        codec::write_u8(&mut payload, 2).unwrap(); // ViewList tag
        codec::write_u32(&mut payload, u32::MAX).unwrap();
        let err = Request::decode(kind::OPEN, &payload).unwrap_err();
        assert!(matches!(err, WireError::Malformed(ref m) if m.contains("cap")));

        // Bad schedule tag.
        let mut payload = Vec::new();
        codec::write_str(&mut payload, "palace").unwrap();
        codec::write_u8(&mut payload, 250).unwrap();
        assert!(matches!(
            Request::decode(kind::OPEN, &payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn huge_image_header_is_rejected_before_allocation() {
        let mut payload = Vec::new();
        codec::write_u64(&mut payload, 1).unwrap(); // stream
        codec::write_u64(&mut payload, 0).unwrap(); // index
        codec::write_u32(&mut payload, u32::MAX).unwrap(); // width
        codec::write_u32(&mut payload, u32::MAX).unwrap(); // height
        let err = Response::decode(kind::FRAME, &payload).unwrap_err();
        assert!(matches!(err, WireError::Malformed(ref m) if m.contains("cap")));
    }
}
