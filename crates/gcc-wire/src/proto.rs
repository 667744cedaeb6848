//! Typed requests, responses and the one description of how each travels.
//!
//! Every message is one wire frame (see [`crate::frame`]): the frame's
//! `kind` byte selects the variant, the payload is the variant's fields in
//! declaration order, encoded with the same little-endian primitives scene
//! files use ([`gcc_scene::codec`]). Requests use kinds `0x01..=0x06`,
//! responses `0x81..=0x8A` — the high bit marks the direction, so a peer
//! can reject a message sent the wrong way without guessing.
//!
//! Nothing here is written twice: a crate-private `Wire` trait is
//! implemented once for each primitive and container the protocol is made
//! of, and one field list per struct / one tagged-arm list per enum
//! generates both directions for everything else. Decoding builds each
//! value with a literal, so a field added to [`ServeStats`] or
//! [`FrameStats`] and not listed here is a compile error.
//!
//! # Versioning rules
//!
//! The frame header's `version` byte covers *everything* in this module:
//! any change to a payload layout, a tag value, or the meaning of a field
//! bumps [`crate::frame::WIRE_VERSION`] (the unit test
//! `payload_bytes_are_pinned` holds the bytes of one instance of every
//! message). Within one version the rules are:
//!
//! * fields are appended, never reordered or resized;
//! * decoders reject trailing bytes (`Malformed`), so payloads cannot be
//!   silently extended — extension *is* a version bump;
//! * enum tags are append-only and never reused.
//!
//! # Limits
//!
//! Strings are capped at [`MAX_STR_LEN`] bytes — refused beyond it on the
//! way in, cut to it at a character boundary on the way out — and
//! explicit view lists at [`MAX_VIEWS`] entries. Every declared size (a
//! collection's count, an image's width × height) is checked against the
//! bytes that remain in the payload before anything is allocated from it,
//! so a hostile peer cannot force a large allocation with a short frame.

use std::collections::BTreeMap;
use std::io;
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

/// Most entries an explicit [`StreamSpec::ViewList`] — the one collection
/// of the protocol that a client sizes — may carry on the wire; no counted
/// collection decodes past it.
pub const MAX_VIEWS: usize = 1 << 20;

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
// One description per type
// ---------------------------------------------------------------------------

/// How a type is laid out in a payload. Every type says it once: the
/// `put` and `get` of each struct and enum below are generated from one
/// field list, so the two directions cannot disagree, and `get` builds the
/// value with a literal, so a field that is not listed does not compile.
trait Wire: Sized {
    /// Fewest bytes a value encodes to — what a counted collection
    /// multiplies its declared count by before it allocates.
    const MIN_LEN: usize;
    /// Appends the value's encoding.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value off the front of `r`.
    fn get(r: &mut &[u8]) -> io::Result<Self>;
}

/// An enum whose arms are told apart by a one-byte tag: the first payload
/// byte when nested in a message (the blanket [`Wire`] impl), the frame's
/// kind byte for [`Request`] and [`Response`] themselves.
pub(crate) trait Tagged: Sized {
    /// Fewest bytes any arm's fields encode to.
    const MIN_BODY: usize;
    /// The arm's name — what the client reports an unexpected answer as
    /// (a `Stats` or `Frame` payload is too large to print).
    fn arm(&self) -> &'static str;
    fn tag(&self) -> u8;
    fn put_body(&self, out: &mut Vec<u8>);
    fn get_body(tag: u8, r: &mut &[u8]) -> io::Result<Self>;
}

impl<T: Tagged> Wire for T {
    const MIN_LEN: usize = 1 + T::MIN_BODY;
    fn put(&self, out: &mut Vec<u8>) {
        self.tag().put(out);
        self.put_body(out);
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        let tag = u8::get(r)?;
        T::get_body(tag, r)
    }
}

/// An `InvalidData` error with a message — the shared "semantically bad
/// bytes" failure every `get` funnels through.
fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The smallest of `lens`, for an enum's cheapest arm.
const fn min_of(lens: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// The little-endian primitives, through the workspace's one byte-order
/// module.
macro_rules! wire_primitive {
    ($($ty:ty: $write:ident, $read:ident;)*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();
            fn put(&self, out: &mut Vec<u8>) {
                codec::$write(out, *self).expect("writes to a Vec<u8> cannot fail");
            }
            fn get(r: &mut &[u8]) -> io::Result<Self> {
                codec::$read(r)
            }
        }
    )*};
}

/// A struct is its fields, in this order.
macro_rules! wire_struct {
    ($ty:ident { $($f:ident: $t:ty),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$t as Wire>::MIN_LEN)*;
            fn put(&self, out: &mut Vec<u8>) {
                let Self { $($f),* } = self;
                $($f.put(out);)*
            }
            fn get(r: &mut &[u8]) -> io::Result<Self> {
                Ok(Self { $($f: <$t as Wire>::get(r)?),* })
            }
        }
    };
}

/// An enum is a tag and the fields of the arm it selects. An arm is a
/// unit, a `{ field: Type, .. }` list, or one unnamed field written
/// `(name: Type)` — `Type` being what travels, which `get` converts
/// `.into()` the field (the identity but for the one boxed arm).
macro_rules! wire_enum {
    ($ty:ident, $what:literal, {
        $($tag:literal => $arm:ident $({ $($f:ident: $t:ty),* })? $(($x:ident: $xt:ty))?,)*
    }) => {
        // Unit arms bind nothing, and an all-unit enum reads no bytes.
        #[allow(unused_variables)]
        impl Tagged for $ty {
            const MIN_BODY: usize = min_of(&[$(
                0 $($(+ <$t as Wire>::MIN_LEN)*)? $(+ <$xt as Wire>::MIN_LEN)?
            ),*]);
            fn arm(&self) -> &'static str {
                match self {
                    $(Self::$arm $({ $($f),* })? $(($x))? => stringify!($arm),)*
                }
            }
            fn tag(&self) -> u8 {
                match self {
                    $(Self::$arm $({ $($f),* })? $(($x))? => $tag,)*
                }
            }
            fn put_body(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$arm $({ $($f),* })? $(($x))? => {
                        $($($f.put(out);)*)?
                        $($x.put(out);)?
                    })*
                }
            }
            fn get_body(tag: u8, r: &mut &[u8]) -> io::Result<Self> {
                match tag {
                    $($tag => Ok(Self::$arm
                        $({ $($f: <$t as Wire>::get(r)?),* })?
                        $((<$xt as Wire>::get(r)?.into()))?
                    ),)*
                    t => Err(bad(format!("unknown {} {t:#04x}", $what))),
                }
            }
        }
    };
}

wire_primitive! {
    u8: write_u8, read_u8;
    u32: write_u32, read_u32;
    u64: write_u64, read_u64;
    f32: write_f32, read_f32;
    f64: write_f64, read_f64;
}

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(bad(format!("bad bool tag {t}"))),
        }
    }
}

/// A `usize` travels as a `u64`.
impl Wire for usize {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| bad(format!("count {v} exceeds this platform's usize")))
    }
}

/// A `Duration` travels as whole nanoseconds in a `u64`, saturating.
impl Wire for Duration {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).put(out);
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        Ok(Duration::from_nanos(u64::get(r)?))
    }
}

/// A string is capped at [`MAX_STR_LEN`] bytes in both directions: `get`
/// refuses a longer one, so `put` sends the longest prefix that fits and
/// ends on a character boundary — a long error message arrives cut short
/// inside the typed rejection that carries it, not as a decode failure.
impl Wire for String {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        let mut end = self.len().min(MAX_STR_LEN);
        while !self.is_char_boundary(end) {
            end -= 1;
        }
        codec::write_str(out, &self[..end]).expect("writes to a Vec<u8> cannot fail");
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        codec::read_str(r, MAX_STR_LEN)
    }
}

/// An option travels as a `bool` and, when set, the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// The one rule for a declared size: before anything is allocated from
/// it, `count` elements of at least `min_len` bytes each must fit the
/// bytes that remain. A short hostile payload therefore cannot reserve
/// more than a small multiple of its own length.
fn check_count(count: u64, min_len: usize, r: &[u8]) -> io::Result<usize> {
    match count.checked_mul(min_len as u64) {
        Some(bytes) if bytes <= r.len() as u64 => Ok(count as usize),
        _ => Err(bad(format!(
            "{count} elements of {min_len}+ bytes declared with {} bytes left",
            r.len()
        ))),
    }
}

/// Reads a collection's `u32` element count, under [`MAX_VIEWS`] and
/// [`check_count`].
fn get_count<T: Wire>(r: &mut &[u8]) -> io::Result<usize> {
    let count = u32::get(r)?;
    if count as usize > MAX_VIEWS {
        return Err(bad(format!("count {count} exceeds the cap {MAX_VIEWS}")));
    }
    check_count(count.into(), T::MIN_LEN, r)
}

/// A collection travels as a `u32` count and its elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        let count = get_count::<T>(r)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// A map travels as its `(key, value)` entries in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        let count = get_count::<(K, V)>(r)?;
        (0..count).map(|_| <(K, V)>::get(r)).collect()
    }
}

/// The one hot codec (786 648 bytes per 256² frame), written out by hand:
/// width, height, then 12 bytes per pixel, checked against the bytes that
/// remain before the pixel buffer exists. Each direction is one pass over
/// the pixel bytes as a single slice, sized once — not a call per `f32`.
impl Wire for Image {
    const MIN_LEN: usize = 8 + Vec3::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.width().put(out);
        self.height().put(out);
        let start = out.len();
        out.resize(start + self.pixels().len() * Vec3::MIN_LEN, 0);
        let pixels = out[start..].chunks_exact_mut(Vec3::MIN_LEN);
        for (bytes, p) in pixels.zip(self.pixels()) {
            bytes[..4].copy_from_slice(&p.x.to_le_bytes());
            bytes[4..8].copy_from_slice(&p.y.to_le_bytes());
            bytes[8..].copy_from_slice(&p.z.to_le_bytes());
        }
    }
    fn get(r: &mut &[u8]) -> io::Result<Self> {
        let (w, h) = (u32::get(r)?, u32::get(r)?);
        if w == 0 || h == 0 {
            return Err(bad(format!("degenerate {w}x{h} image")));
        }
        let count = check_count(u64::from(w) * u64::from(h), Vec3::MIN_LEN, r)?;
        let (pixels, rest) = r.split_at(count * Vec3::MIN_LEN);
        *r = rest;
        let mut img = Image::new(w, h);
        for (p, b) in img
            .pixels_mut()
            .iter_mut()
            .zip(pixels.chunks_exact(Vec3::MIN_LEN))
        {
            let le = |i: usize| f32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
            *p = Vec3::new(le(0), le(4), le(8));
        }
        Ok(img)
    }
}

// ---------------------------------------------------------------------------
// The messages and what they are made of
// ---------------------------------------------------------------------------

wire_enum! { Schedule, "schedule tag", {
    0 => Reference,
    1 => Standard,
    2 => Gscore,
    3 => GaussianWise,
    4 => GccHardware,
}}

wire_enum! { Priority, "priority tag", {
    0 => Interactive,
    1 => Bulk,
}}

wire_struct! { Vec3 { x: f32, y: f32, z: f32 }}

wire_struct! { Roi { x0: u32, y0: u32, width: u32, height: u32 }}

wire_struct! { RenderOptions {
    schedule: Schedule,
    resolution: Option<(u32, u32)>,
    roi: Option<Roi>,
    background: Option<Vec3>,
    alpha_min: Option<f32>,
    sh_degree: Option<u8>,
}}

wire_struct! { StreamConfig { priority: Priority, deadline: Option<Duration>, window: usize }}

wire_enum! { ViewSpec, "view spec tag", {
    0 => Trajectory { t: f32 },
    1 => LookAt { eye: Vec3, target: Vec3, up: Vec3, fov_y_deg: Option<f32> },
    2 => Orbit { angle: f32, radius_scale: f32, height_offset: f32 },
}}

wire_enum! { StreamSpec, "stream spec tag", {
    0 => TrajectorySweep { t0: f32, t1: f32, frames: usize },
    1 => OrbitLoop { frames: usize, radius_scale: f32, height_offset: f32 },
    2 => ViewList(views: Vec<ViewSpec>),
}}

wire_struct! { FrameStats {
    total_gaussians: u64,
    geometry_loads: u64,
    projected: u64,
    sh_loads: u64,
    rendered: u64,
    render_invocations: u64,
    pixels_blended: u64,
    sort_elements: u64,
    windows: u64,
    tiles: u64,
    kv_pairs: u64,
    tile_loads: u64,
    unique_loaded: u64,
    pixels_tested: u64,
    pixels_tested_aabb: u64,
    pixels_tested_obb: u64,
    near_culled: u64,
    groups_total: u64,
    groups_processed: u64,
    groups_skipped: u64,
    blocks_dispatched: u64,
    blocks_masked_skips: u64,
    pixels_evaluated: u64,
    alpha_lane_evals: u64,
}}

wire_struct! { Frame { image: Image, stats: FrameStats }}

wire_struct! { SceneCounters {
    requests: u64,
    hits: u64,
    misses: u64,
    loads: u64,
    evictions: u64,
    frames: u64,
    batches: u64,
    retries: u64,
    quarantines: u64,
}}

wire_struct! { ScheduleCounters { requests: u64, frames: u64, batches: u64 }}

wire_struct! { PriorityCounters {
    requests: u64,
    frames: u64,
    completed: u64,
    queued: usize,
    max_queued: usize,
    with_deadline: u64,
    deadline_misses: u64,
    rejected: u64,
    shed: u64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
}}

wire_struct! { StreamCounters {
    opened: u64,
    completed: u64,
    cancelled: u64,
    frames_discarded: u64,
}}

wire_struct! { LodDecision {
    rung: u32,
    predicted_us: u64,
    actual_us: u64,
    budget_us: u64,
    missed: bool,
}}

wire_struct! { LodCounters {
    enabled: bool,
    frames_by_rung: Vec<u64>,
    degraded_frames: u64,
    degradations: u64,
    recoveries: u64,
    recent: Vec<LodDecision>,
}}

wire_struct! { ServeStats {
    per_scene: BTreeMap<String, SceneCounters>,
    per_schedule: BTreeMap<Schedule, ScheduleCounters>,
    per_priority: BTreeMap<Priority, PriorityCounters>,
    streams: StreamCounters,
    completed: u64,
    queue_depth: usize,
    max_queue_depth: usize,
    batches: u64,
    frames: u64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
    frame_stats: FrameStats,
    resident_bytes: usize,
    resident_scenes: usize,
    respawns: u64,
    lost_workers: u64,
    quarantined_scenes: usize,
    lod: LodCounters,
}}

wire_enum! { WireRejection, "rejection tag", {
    0 => UnknownScene(scene: String),
    1 => InvalidRequest(message: String),
    2 => EmptyStream,
    3 => Load { scene: String, message: String },
    4 => ShuttingDown,
    5 => WorkerPanicked,
    6 => Quarantined { scene: String, retry_after: Duration },
    7 => Overloaded { retry_after: Duration },
    8 => Unavailable { message: String, retry_after: Duration },
}}

wire_enum! { Request, "request kind", {
    0x01 => Open { scene: String, defaults: RenderOptions, spec: StreamSpec, config: StreamConfig },
    0x02 => NextFrame { stream: u64 },
    0x03 => Cancel { stream: u64 },
    0x04 => Stats,
    0x05 => Ping,
    0x06 => Shutdown,
}}

wire_enum! { Response, "response kind", {
    0x81 => Opened { stream: u64, frames: u64 },
    0x82 => Frame { stream: u64, index: u64, frame: Frame },
    0x83 => FrameError { stream: u64, index: u64, error: WireRejection },
    0x84 => StreamEnd { stream: u64 },
    0x85 => Cancelled { stream: u64 },
    0x86 => Rejected(rejection: WireRejection),
    0x87 => Stats(stats: ServeStats),
    0x88 => Pong,
    0x89 => ShutdownAck,
    0x8A => Error { message: String },
}}

// ---------------------------------------------------------------------------
// Message encode / decode
// ---------------------------------------------------------------------------

fn encode<M: Tagged>(message: &M) -> (u8, Vec<u8>) {
    let mut out = Vec::new();
    message.put_body(&mut out);
    (message.tag(), out)
}

/// Short, hostile and over-long payloads alike are
/// [`WireError::Malformed`]: a truncated field, a bad tag, a count the
/// remaining bytes cannot hold, or bytes left over after the last field.
fn decode<M: Tagged>(kind: u8, payload: &[u8]) -> Result<M, WireError> {
    let mut r = payload;
    let message = M::get_body(kind, &mut r).map_err(|e| WireError::Malformed(e.to_string()))?;
    if r.is_empty() {
        Ok(message)
    } else {
        Err(WireError::Malformed(format!("{} trailing bytes", r.len())))
    }
}

impl Request {
    /// Encodes the request as a `(kind, payload)` pair for
    /// [`crate::frame::write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        encode(self)
    }

    /// Decodes a request from a frame's `(kind, payload)`. Unknown kinds
    /// (including any response kind) and short, hostile or over-long
    /// payloads are [`WireError::Malformed`] — the connection survives,
    /// the request does not.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
        decode(kind, payload)
    }
}

impl Response {
    /// Encodes the response as a `(kind, payload)` pair for
    /// [`crate::frame::write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        encode(self)
    }

    /// Decodes a response from a frame's `(kind, payload)`.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
        decode(kind, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kind bytes the hand-built payloads below are sent under.
    mod kind {
        pub const OPEN: u8 = 0x01;
        pub const FRAME: u8 = 0x82;
        pub const PONG: u8 = 0x88;
    }

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
        assert!(matches!(
            Response::decode(kind::OPEN, &[]),
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
        RenderOptions::default().put(&mut payload);
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
        // No pixel cap any more: the declared size is held against the
        // bytes that remain.
        assert!(matches!(err, WireError::Malformed(ref m) if m.contains("0 bytes left")));
    }

    #[test]
    fn declared_sizes_are_checked_against_the_bytes_that_remain() {
        let view_list = |count: u32, views: usize| {
            let mut payload = Vec::new();
            "palace".to_string().put(&mut payload);
            RenderOptions::default().put(&mut payload);
            2u8.put(&mut payload); // StreamSpec::ViewList
            count.put(&mut payload);
            for _ in 0..views {
                ViewSpec::Trajectory { t: 0.5 }.put(&mut payload);
            }
            StreamConfig::default().put(&mut payload);
            Request::decode(kind::OPEN, &payload)
        };
        assert!(view_list(2, 2).is_ok());
        // More views declared than the bytes behind the count can hold —
        // the 13-byte `StreamConfig` after them is not two 5-byte views.
        assert!(matches!(view_list(3, 0), Err(WireError::Malformed(_))));
        assert!(matches!(
            view_list(u32::MAX, 2),
            Err(WireError::Malformed(_))
        ));

        let frame = |w: u32, h: u32, pixels: usize| {
            let mut payload = Vec::new();
            (1u64, 0u64).put(&mut payload); // stream, index
            (w, h).put(&mut payload);
            payload.resize(payload.len() + pixels * 12, 0);
            FrameStats::default().put(&mut payload);
            Response::decode(kind::FRAME, &payload)
        };
        assert!(frame(2, 2, 4).is_ok());
        // 8192 x 8192 pixels declared in front of 192 bytes of counters.
        assert!(matches!(frame(8192, 8192, 0), Err(WireError::Malformed(_))));
        assert!(matches!(
            frame(u32::MAX, u32::MAX, 1),
            Err(WireError::Malformed(_))
        ));
        // A zero-sized image is refused, not handed to `Image::new`.
        assert!(matches!(frame(0, 7, 0), Err(WireError::Malformed(_))));
    }

    #[test]
    fn strings_are_cut_at_a_character_boundary_on_the_way_out() {
        // '€' is three bytes and 4096 is not a multiple of three.
        let long = "€".repeat(2000);
        let (kind, payload) = Response::Error {
            message: long.clone(),
        }
        .encode();
        match Response::decode(kind, &payload).expect("a capped string decodes") {
            Response::Error { message } => {
                assert_eq!(message.len(), 4095);
                assert!(long.starts_with(&message));
            }
            other => panic!("decoded {other:?}"),
        }
        let short = "€".repeat(1365);
        let (_, payload) = Response::Error {
            message: short.clone(),
        }
        .encode();
        assert_eq!(payload.len(), 4 + short.len(), "4095 bytes travel whole");
    }
}
