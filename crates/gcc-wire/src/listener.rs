//! The one listener under both `gcc-served` and `gcc-shard`: a TCP accept
//! loop feeding a supervised connection-handler pool, the request loop of
//! a connection, and drain-then-stop shutdown. What a request *means* is
//! the [`Service`] behind it — a [`gcc_serve::RenderService`] for
//! [`crate::WireServer`], the backend ring for [`crate::ShardProxy`].
//!
//! # Threading model
//!
//! One plain thread blocks in `accept` and enqueues sockets; a
//! [`gcc_parallel::WorkerPool`] of handler threads dequeues them, and
//! each handler owns one live connection end-to-end (a client gets a
//! dedicated handler thread for the life of its connection; excess
//! connections queue until a handler frees up). Handlers run under the
//! pool's supervision: a panic inside a connection handler closes that
//! one socket, the worker respawns with fresh state, and the listener —
//! and every other connection — survives.
//!
//! # Shutdown
//!
//! There is no dependency-free portable signal handling, so the wire
//! [`Request::Shutdown`] *is* the SIGTERM equivalent: it flips the
//! listener into draining (new `Open`s are rejected with
//! [`WireRejection::ShuttingDown`], open streams keep delivering), and
//! [`Listener::shutdown_requested`] lets the hosting binary observe it
//! and call [`Listener::shutdown`], which waits up to the drain window
//! for connections to quiesce before stopping the pool and handing the
//! service back.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gcc_parallel::{RestartPolicy, WorkerPool, WorkerStep};

use crate::frame::{read_event, write_frame, FrameEvent, WireError};
use crate::proto::{Request, Response, Tagged, WireRejection};

/// How long a handler blocks in a socket read before polling its stop
/// flag. Bounds shutdown latency for idle connections.
const READ_TICK: Duration = Duration::from_millis(200);

/// What a listener serves: per-connection state (open streams), fresh
/// for each accepted connection, and the answer to one request.
pub(crate) trait Service: Send + Sync + 'static {
    /// State one connection carries between its requests.
    type Conn: Default;

    /// Answers one request of a connection. `Shared::answer` is the one
    /// place that says which requests never get here ([`Request::Ping`],
    /// [`Request::Shutdown`], an `Open` while draining); an implementation
    /// answers those with [`not_dispatched`], so that moving one out of
    /// the listener shows up as a typed error and not as a dead handler.
    fn dispatch(&self, conn: &mut Self::Conn, req: Request) -> Response;
}

/// The answer to a request the listener should have answered itself.
pub(crate) fn not_dispatched(req: &Request) -> Response {
    Response::Error {
        message: format!("{} is answered by the listener", req.arm()),
    }
}

/// Everything the accept thread, the handler pool and the shutdown path
/// share.
#[derive(Debug)]
struct Shared<S> {
    service: S,
    /// Accepted connections waiting for a handler. The accept thread
    /// holds the sending end, so its exit is what stops idle handlers.
    conns: Mutex<Receiver<TcpStream>>,
    /// The accept loop and busy handlers exit when set.
    stop: AtomicBool,
    /// Set by a client's [`Request::Shutdown`] — the hosting binary polls
    /// it — and by [`Listener::shutdown`]: new streams are rejected with
    /// `ShuttingDown`, open streams keep delivering.
    draining: AtomicBool,
    /// Connections accepted and not yet closed (drain waits on this).
    active: AtomicUsize,
}

/// A running listener bound to a TCP address.
#[derive(Debug)]
pub(crate) struct Listener<S: Service> {
    addr: SocketAddr,
    drain: Duration,
    /// The shared state, the accept thread and the handler pool; `None`
    /// once stopped.
    running: Option<(Arc<Shared<S>>, JoinHandle<()>, WorkerPool)>,
}

impl<S: Service> Listener<S> {
    /// Binds the listener and starts the accept loop (a thread named
    /// `<name>-accept`) and a pool of `handlers` connection handlers —
    /// the concurrent-client ceiling; values below 1 are treated as 1.
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        service: S,
        name: &str,
        handlers: usize,
        drain: Duration,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (queue, conns) = mpsc::channel();
        let shared = Arc::new(Shared {
            service,
            conns: Mutex::new(conns),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || shared.accept_loop(&listener, &queue))?
        };

        let pool = {
            let shared = Arc::clone(&shared);
            WorkerPool::spawn_supervised(
                handlers.max(1),
                || (),
                move |_worker, ()| shared.handler_step(),
                RestartPolicy::default(),
            )
        };

        Ok(Self {
            addr,
            drain,
            running: Some((shared, accept, pool)),
        })
    }

    /// The bound address (with the real port after an ephemeral bind).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether any client has sent [`Request::Shutdown`].
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.running
            .as_ref()
            .is_some_and(|(shared, ..)| shared.draining.load(Ordering::Acquire))
    }

    /// Drains and stops the listener: rejects new streams, waits up to
    /// the drain window for live connections to quiesce, stops the accept
    /// loop and handler pool, and hands the service back (`None` when it
    /// already ran).
    pub(crate) fn shutdown(&mut self) -> Option<S> {
        let (shared, ..) = self.running.as_ref()?;
        shared.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + self.drain;
        while shared.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.stop()
    }

    /// Sets the stop flag, wakes every blocked thread, joins them — after
    /// which no other clone of the shared state remains — and hands the
    /// service back.
    fn stop(&mut self) -> Option<S> {
        let (shared, accept, pool) = self.running.take()?;
        shared.stop.store(true, Ordering::Release);
        // The accept thread blocks in `accept`; a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        pool.join();
        Arc::into_inner(shared).map(|shared| shared.service)
    }
}

impl<S: Service> Drop for Listener<S> {
    /// For listeners dropped without [`Listener::shutdown`] (tests, error
    /// paths): stops without the drain wait.
    fn drop(&mut self) {
        self.stop();
    }
}

impl<S: Service> Shared<S> {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn accept_loop(&self, listener: &TcpListener, queue: &Sender<TcpStream>) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.stopped() {
                        return; // the wake-up connection, or a late arrival
                    }
                    self.active.fetch_add(1, Ordering::AcqRel);
                    queue.send(stream).expect("the receiver lives in `self`");
                }
                Err(_) if self.stopped() => return,
                // Transient accept errors (EMFILE, aborted handshake)
                // leave the listener usable; keep serving.
                Err(_) => {}
            }
        }
    }

    /// One supervised pool step: wait for a connection, own it to
    /// completion.
    fn handler_step(&self) -> WorkerStep {
        let Ok(stream) = self.conns.lock().expect("conns lock").recv() else {
            return WorkerStep::Stop; // the accept thread is gone
        };
        // Balance the counter even if the handler panics (the pool
        // catches the panic and respawns the worker; a stuck counter
        // would make drain wait its full window for a connection that is
        // already gone).
        struct ActiveGuard<'a>(&'a AtomicUsize);
        impl Drop for ActiveGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _guard = ActiveGuard(&self.active);
        self.serve_connection(stream);
        WorkerStep::Continue
    }

    /// Serves one connection until EOF, a fatal transport error, or
    /// listener stop. Malformed payloads, bad versions and oversized
    /// frames get a [`Response::Error`] and the connection survives (the
    /// transport guarantees the stream is resynced; see
    /// [`crate::frame::read_event`]).
    fn serve_connection(&self, stream: TcpStream) {
        if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(READ_TICK)).is_err() {
            return;
        }
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        let mut conn = S::Conn::default();

        while !self.stopped() {
            let decoded = match read_event(&mut reader) {
                Ok(FrameEvent::Frame { kind, payload }) => Request::decode(kind, &payload),
                Ok(FrameEvent::Eof) => return,
                Ok(FrameEvent::Idle) => continue,
                // Typed, resynced transport errors: tell the peer, keep
                // the connection.
                Err(e @ (WireError::BadVersion { .. } | WireError::Oversized { .. })) => Err(e),
                // Truncation, I/O failure: the frame boundary is gone.
                Err(_) => return,
            };
            let resp = match decoded {
                Ok(req) => self.answer(&mut conn, req),
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            };
            if respond(&mut writer, &resp).is_err() {
                return;
            }
        }
    }

    fn answer(&self, conn: &mut S::Conn, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Shutdown => {
                self.draining.store(true, Ordering::Release);
                Response::ShutdownAck
            }
            Request::Open { .. } if self.draining.load(Ordering::Acquire) => {
                Response::Rejected(WireRejection::ShuttingDown)
            }
            req => self.service.dispatch(conn, req),
        }
    }
}

/// Writes one response frame and flushes. A response too large for the
/// transport (a frame image past [`crate::frame::MAX_FRAME_LEN`]) is
/// downgraded to a [`Response::Error`] so the connection stays in sync
/// instead of dying mid-write.
fn respond(writer: &mut BufWriter<TcpStream>, resp: &Response) -> Result<(), WireError> {
    let (kind, payload) = resp.encode();
    match write_frame(writer, kind, &payload) {
        Ok(()) => {}
        Err(WireError::Oversized { len, max }) => {
            let fallback = Response::Error {
                message: format!("response frame of {len} bytes exceeds the {max}-byte ceiling"),
            };
            let (kind, payload) = fallback.encode();
            write_frame(writer, kind, &payload)?;
        }
        Err(e) => return Err(e),
    }
    writer.flush().map_err(WireError::Io)
}
