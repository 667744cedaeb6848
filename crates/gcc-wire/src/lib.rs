//! TCP wire protocol, standalone server and consistent-hash sharding
//! proxy for [`gcc_serve`].
//!
//! `gcc-serve` turns the renderers into an in-process service; this crate
//! puts that service behind a socket without adding a single dependency —
//! `std::net` TCP, binary codecs over [`gcc_scene::codec`], and the
//! workspace's own supervision and hashing primitives:
//!
//! * [`frame`] — the transport: length-prefixed, versioned frames over any
//!   `Read`/`Write`, with resync-or-fail rules for malformed input.
//! * [`proto`] — typed [`Request`]/[`Response`] messages covering the full
//!   session surface (open with priority/deadline/window, in-order pulls,
//!   cancel, stats, shutdown) and [`WireRejection`], the serializable
//!   image of [`gcc_serve::ServeError`] — `Overloaded`/`Quarantined`
//!   retry hints survive the trip.
//! * [`client`] — a blocking [`WireClient`] with [`RemoteStream`] pulls.
//! * `listener` (private) — what the server and the proxy share: an
//!   accept loop feeding a supervised handler pool (a panicking
//!   connection handler is respawned, the listener survives), the request
//!   loop of a connection, and graceful drain on shutdown.
//! * [`server`] — [`WireServer`]: that listener multiplexing every
//!   connection onto one [`gcc_serve::RenderService`].
//! * [`shard`] — [`ShardRing`] + [`ShardProxy`]: the same listener over a
//!   consistent hashing of scene ids onto N backends (SplitMix64 ring,
//!   session affinity), health-probed failover, typed rejections
//!   forwarded verbatim.
//!
//! Two binaries ship with the crate: `gcc-served` (a standalone server)
//! and `gcc-shard` (the proxy). The crate's `tests/fleet.rs` runs both as
//! real processes over loopback and checks bit-identical frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
mod listener;
pub mod proto;
pub mod server;
pub mod shard;

pub use client::{RemoteStream, WireClient};
pub use frame::{read_event, write_frame, FrameEvent, WireError, MAX_FRAME_LEN, WIRE_VERSION};
pub use proto::{Request, Response, WireRejection};
pub use server::{WireServer, WireServerConfig};
pub use shard::{ShardProxy, ShardProxyConfig, ShardRing};
