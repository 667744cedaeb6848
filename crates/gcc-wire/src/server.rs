//! The standalone wire server: every connection of one listener
//! multiplexed onto one [`RenderService`].
//!
//! The crate's `listener` module owns the sockets, the handler pool and
//! shutdown (its docs have the threading model and the drain protocol);
//! what is left here is what a request means to a render service — the
//! connection's table of open [`FrameStream`]s and the four requests that
//! touch it.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use gcc_serve::session::FrameStream;
use gcc_serve::{RenderService, ServeStats};

use crate::listener::{not_dispatched, Listener, Service};
use crate::proto::{Request, Response, WireRejection};

/// Tuning for [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Connection-handler threads — the concurrent-client ceiling
    /// (further connections queue). Values below 1 are treated as 1.
    pub handlers: usize,
    /// How long [`WireServer::shutdown`] waits for live connections to
    /// quiesce before stopping their handlers mid-stream.
    pub drain: Duration,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        Self {
            handlers: 8,
            drain: Duration::from_secs(5),
        }
    }
}

/// A running wire server bound to a TCP address.
#[derive(Debug)]
pub struct WireServer {
    listener: Listener<RenderService>,
}

impl WireServer {
    /// Binds the listener and starts the accept loop and handler pool.
    /// Bind to port 0 for an ephemeral port; [`Self::local_addr`] reports
    /// the real one.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: RenderService,
        cfg: WireServerConfig,
    ) -> io::Result<Self> {
        let listener = Listener::bind(addr, service, "gcc-wire", cfg.handlers, cfg.drain)?;
        Ok(Self { listener })
    }

    /// The bound address (with the real port after an ephemeral bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Whether any client has sent [`Request::Shutdown`]. The hosting
    /// binary polls this and then calls [`Self::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.listener.shutdown_requested()
    }

    /// Drains and stops the server: rejects new streams, waits up to the
    /// configured drain window for live connections to quiesce, stops the
    /// accept loop and handler pool, and shuts the underlying service
    /// down. Returns the service's final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        let service = self.listener.shutdown();
        service.expect("first shutdown").shutdown()
    }
}

/// One connection's open streams.
#[derive(Default)]
pub(crate) struct ServerConn {
    streams: HashMap<u64, StreamEntry>,
    last_id: u64,
}

struct StreamEntry {
    frames: FrameStream,
    /// Index of the next frame slot to resolve.
    next_index: u64,
}

impl Service for RenderService {
    type Conn = ServerConn;

    fn dispatch(&self, conn: &mut ServerConn, req: Request) -> Response {
        match req {
            Request::Open {
                scene,
                defaults,
                spec,
                config,
            } => {
                let opened = self
                    .session(scene, defaults)
                    .and_then(|session| session.stream_with(spec, config));
                match opened {
                    Ok(frames) => {
                        conn.last_id += 1;
                        let total = frames.len() as u64;
                        let entry = StreamEntry {
                            frames,
                            next_index: 0,
                        };
                        conn.streams.insert(conn.last_id, entry);
                        Response::Opened {
                            stream: conn.last_id,
                            frames: total,
                        }
                    }
                    Err(e) => Response::Rejected(WireRejection::from(&e)),
                }
            }
            Request::NextFrame { stream } => {
                // Unknown or finished ids answer `StreamEnd` instead of a
                // protocol error: a client draining a stream races its
                // own cancel, and idempotent pulls keep that race
                // harmless.
                let Some(entry) = conn.streams.get_mut(&stream) else {
                    return Response::StreamEnd { stream };
                };
                let Some(resolved) = entry.frames.next_frame() else {
                    conn.streams.remove(&stream);
                    return Response::StreamEnd { stream };
                };
                let index = entry.next_index;
                entry.next_index += 1;
                match resolved {
                    Ok(frame) => Response::Frame {
                        stream,
                        index,
                        frame,
                    },
                    Err(e) => Response::FrameError {
                        stream,
                        index,
                        error: WireRejection::from(&e),
                    },
                }
            }
            Request::Cancel { stream } => {
                if let Some(mut entry) = conn.streams.remove(&stream) {
                    entry.frames.cancel();
                }
                Response::Cancelled { stream }
            }
            Request::Stats => Response::Stats(Box::new(self.stats())),
            req @ (Request::Ping | Request::Shutdown) => not_dispatched(&req),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gcc_render::RenderOptions;
    use gcc_scene::{SceneConfig, ScenePreset};
    use gcc_serve::{FaultPlan, SceneSource, ServeConfig, StreamConfig, StreamSpec};

    use super::*;
    use crate::proto::MAX_STR_LEN;
    use crate::{WireClient, WireError};

    /// A rejection whose message outgrows the string cap (here a load
    /// failure quoting a 5 000-byte label) reaches the client as the typed
    /// rejection it is, cut short — not as a decode failure — and the
    /// connection keeps serving.
    #[test]
    fn an_overlong_rejection_message_arrives_typed_and_the_connection_survives() {
        let label = "€".repeat(1667); // 5 001 bytes, three per character
        let scene = Arc::new(ScenePreset::Lego.build(&SceneConfig::with_scale(0.01)));
        let plan = Arc::new(FaultPlan::new(7).with_fatal_load_failures(1000));
        let doomed = SceneSource::faulty(label.clone(), SceneSource::Memory(scene), plan);
        let service = RenderService::new(ServeConfig::default(), [("doomed".to_string(), doomed)]);
        let server =
            WireServer::bind("127.0.0.1:0", service, WireServerConfig::default()).expect("bind");
        let mut client = WireClient::connect(server.local_addr()).expect("connect");

        let opened = client.open(
            "doomed",
            RenderOptions::default(),
            StreamSpec::orbit(2),
            StreamConfig::default(),
        );
        let failed = match opened {
            Ok(mut stream) => client.next_frame(&mut stream).map(drop),
            Err(e) => Err(e),
        };
        match failed {
            Err(WireError::Rejected(WireRejection::Load { scene, message })) => {
                assert_eq!(scene, "doomed");
                assert!(message.len() <= MAX_STR_LEN, "{} bytes", message.len());
                assert!(message.len() > MAX_STR_LEN - 3, "cut at the last boundary");
                let whole = format!("injected fatal load failure for '{label}'");
                assert!(whole.starts_with(&message), "not a prefix: {message:?}");
            }
            other => panic!("expected the typed Load rejection, got {other:?}"),
        }
        client.ping().expect("the connection still answers");
        drop(client);
        server.shutdown();
    }
}
