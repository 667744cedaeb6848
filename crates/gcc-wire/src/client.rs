//! A blocking wire client: one TCP connection, strict request/response.
//!
//! The protocol is pull-based: after [`WireClient::open`] the server
//! holds the stream's frames behind its own in-flight window and the
//! client fetches them one [`WireClient::next_frame`] at a time. Client
//! pull cadence composes with the server-side window into end-to-end
//! backpressure — a slow client never forces the server to buffer more
//! than `StreamConfig::window` undelivered frames.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use gcc_render::{Frame, RenderOptions};
use gcc_serve::{ServeStats, StreamConfig, StreamSpec};

use crate::frame::{read_event, write_frame, FrameEvent, WireError};
use crate::proto::{Request, Response, Tagged};

/// A client-side handle to one open wire stream. Plain data: all I/O goes
/// through the [`WireClient`] that opened it.
#[derive(Debug, Clone)]
pub struct RemoteStream {
    id: u64,
    total: u64,
    delivered: u64,
    done: bool,
}

impl RemoteStream {
    /// The connection-scoped stream id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Total frames the stream will resolve (delivery or typed error).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether the stream resolves zero frames (never true for admitted
    /// streams — zero-frame specs are rejected at open).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Frame slots resolved so far (delivered frames + typed per-frame
    /// errors).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Whether the stream has ended (all frames resolved, cancelled, or
    /// ended by the server).
    pub fn is_done(&self) -> bool {
        self.done
    }
}

/// A blocking client for one `gcc-served` (or `gcc-shard`) connection.
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl std::fmt::Debug for WireClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireClient")
            .field("peer", &self.reader.get_ref().peer_addr().ok())
            .finish()
    }
}

impl WireClient {
    /// Connects to a wire server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connects with a bounded connect timeout — what health probes use,
    /// so one dead backend cannot stall the prober for the OS default
    /// (minutes).
    ///
    /// # Errors
    ///
    /// Propagates connection failures and the timeout.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Self> {
        // Frames are written in one flush per turn; Nagle would add a
        // delayed-ACK round trip to every pull.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Bounds how long one response may take to start arriving. `None`
    /// blocks indefinitely (the default).
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// One request/response turn. Responses arrive in request order;
    /// [`Response::Error`] (the server could not parse what we sent) is
    /// surfaced as [`WireError::Protocol`].
    ///
    /// # Errors
    ///
    /// Transport and protocol failures as described.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let (kind, payload) = req.encode();
        write_frame(&mut self.writer, kind, &payload)?;
        self.writer.flush().map_err(WireError::Io)?;
        loop {
            match read_event(&mut self.reader)? {
                FrameEvent::Frame { kind, payload } => {
                    let resp = Response::decode(kind, &payload)?;
                    if let Response::Error { message } = resp {
                        return Err(WireError::Protocol(format!(
                            "server rejected our frame: {message}"
                        )));
                    }
                    return Ok(resp);
                }
                FrameEvent::Eof => {
                    return Err(WireError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-call",
                    )))
                }
                // A read timeout while a response is pending: keep
                // waiting. Callers bound the total wait with
                // `set_read_timeout` plus their own clocks if they need a
                // hard deadline.
                FrameEvent::Idle => {}
            }
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`WireError::Protocol`] on a non-`Pong`
    /// answer.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Snapshots the server's service statistics.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`WireError::Protocol`] on an unexpected
    /// answer.
    pub fn stats(&mut self) -> Result<ServeStats, WireError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(*s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Asks the server to drain and exit (the wire SIGTERM).
    ///
    /// # Errors
    ///
    /// Transport failures, or [`WireError::Protocol`] on an unexpected
    /// answer.
    pub fn shutdown_server(&mut self) -> Result<(), WireError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }

    /// Opens a frame stream. A typed refusal ([`Response::Rejected`])
    /// surfaces as [`WireError::Rejected`] so callers can match on
    /// `Overloaded`/`Quarantined` retry hints.
    ///
    /// # Errors
    ///
    /// Transport failures and typed rejections as described.
    pub fn open(
        &mut self,
        scene: &str,
        defaults: RenderOptions,
        spec: StreamSpec,
        config: StreamConfig,
    ) -> Result<RemoteStream, WireError> {
        let req = Request::Open {
            scene: scene.to_string(),
            defaults,
            spec,
            config,
        };
        match self.call(&req)? {
            Response::Opened { stream, frames } => Ok(RemoteStream {
                id: stream,
                total: frames,
                delivered: 0,
                done: false,
            }),
            Response::Rejected(rej) => Err(WireError::Rejected(rej)),
            other => Err(unexpected("Opened", &other)),
        }
    }

    /// Pulls the stream's next in-order frame.
    ///
    /// `Ok(Some(frame))` is the next frame; `Ok(None)` means the stream
    /// has delivered everything (the handle is marked done). A per-frame
    /// typed error arrives as `Err(WireError::Rejected(..))` — the stream
    /// slot is consumed and later frames may still follow; check
    /// [`RemoteStream::is_done`].
    ///
    /// # Errors
    ///
    /// Transport failures, per-frame rejections, and protocol violations.
    pub fn next_frame(&mut self, stream: &mut RemoteStream) -> Result<Option<Frame>, WireError> {
        if stream.done {
            return Ok(None);
        }
        match self.call(&Request::NextFrame { stream: stream.id })? {
            Response::Frame {
                stream: id, frame, ..
            } if id == stream.id => {
                stream.delivered += 1;
                Ok(Some(frame))
            }
            Response::FrameError {
                stream: id, error, ..
            } if id == stream.id => {
                stream.delivered += 1;
                Err(WireError::Rejected(error))
            }
            Response::StreamEnd { stream: id } if id == stream.id => {
                stream.done = true;
                Ok(None)
            }
            other => Err(unexpected("Frame/FrameError/StreamEnd", &other)),
        }
    }

    /// Cancels the stream, discarding undelivered frames. Idempotent.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`WireError::Protocol`] on an unexpected
    /// answer.
    pub fn cancel(&mut self, stream: &mut RemoteStream) -> Result<(), WireError> {
        match self.call(&Request::Cancel { stream: stream.id })? {
            Response::Cancelled { .. } => {
                stream.done = true;
                Ok(())
            }
            other => Err(unexpected("Cancelled", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> WireError {
    WireError::Protocol(format!("expected {wanted}, got {}", got.arm()))
}
