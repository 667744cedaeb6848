//! Serving topologies: the same client code drives an in-process
//! `RenderService`, one `WireServer`, or a `ShardProxy` over two
//! `WireServer`s. Servers and the proxy are threads of this process,
//! bound to `127.0.0.1:0`.

use std::net::SocketAddr;

use gcc_render::{Frame, RenderOptions};
use gcc_serve::{
    FrameStream, RenderService, SceneSource, ServeConfig, ServeError, ServeStats, StreamConfig,
    StreamSpec,
};
use gcc_wire::{
    RemoteStream, ShardProxy, ShardProxyConfig, ShardRing, WireClient, WireError, WireServer,
    WireServerConfig,
};

/// Where the service runs relative to its clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Clients call one `RenderService` directly.
    InProcess {
        /// Worker threads of the service.
        workers: usize,
    },
    /// Clients are `WireClient`s of one `WireServer`.
    WireDirect {
        /// Worker threads of the server's service.
        workers: usize,
    },
    /// Clients are `WireClient`s of a `ShardProxy` in front of two
    /// `WireServer`s, each a one-worker service.
    Sharded,
}

impl Topology {
    /// Service worker threads in total.
    pub fn workers(self) -> usize {
        match self {
            Self::InProcess { workers } | Self::WireDirect { workers } => workers,
            Self::Sharded => 2,
        }
    }
}

/// The scene registry every service of a fleet is started over.
pub type Registry = Vec<(String, SceneSource)>;

/// A running topology.
#[derive(Debug)]
pub struct Fleet {
    service: Option<RenderService>,
    servers: Vec<WireServer>,
    proxy: Option<ShardProxy>,
    front: Option<SocketAddr>,
}

impl Fleet {
    /// Starts `topology` over `registry`; `config.workers` is set per
    /// the topology.
    ///
    /// # Panics
    ///
    /// Panics when a loopback bind fails, or when the sharded ring would
    /// leave a backend without a scene (one shard would idle and the
    /// workload would measure half a fleet).
    pub fn start(topology: Topology, config: &ServeConfig, registry: &Registry) -> Self {
        let service = |workers: usize| {
            RenderService::new(
                ServeConfig {
                    workers,
                    ..config.clone()
                },
                registry.iter().cloned(),
            )
        };
        let serve = |workers: usize| {
            WireServer::bind("127.0.0.1:0", service(workers), WireServerConfig::default())
                .expect("bind a loopback wire server")
        };
        match topology {
            Topology::InProcess { workers } => Self {
                service: Some(service(workers)),
                servers: Vec::new(),
                proxy: None,
                front: None,
            },
            Topology::WireDirect { workers } => {
                let server = serve(workers);
                Self {
                    front: Some(server.local_addr()),
                    service: None,
                    servers: vec![server],
                    proxy: None,
                }
            }
            Topology::Sharded => {
                let owners = ring_owners(registry.iter().map(|(id, _)| id.as_str()), 2);
                assert!(
                    owners.iter().all(|&n| n > 0),
                    "scene ids must load both shards, ring places them {owners:?}"
                );
                let servers = vec![serve(1), serve(1)];
                let backends = servers.iter().map(WireServer::local_addr).collect();
                let proxy = ShardProxy::bind("127.0.0.1:0", backends, ShardProxyConfig::default())
                    .expect("bind a loopback shard proxy");
                Self {
                    front: Some(proxy.local_addr()),
                    service: None,
                    servers,
                    proxy: Some(proxy),
                }
            }
        }
    }

    /// A new client connection to the fleet's front.
    ///
    /// # Panics
    ///
    /// Panics when the loopback connect fails.
    pub fn connect(&self) -> Conn<'_> {
        match (&self.service, self.front) {
            (Some(service), _) => Conn::Local(service),
            (None, Some(addr)) => {
                Conn::Wire(WireClient::connect(addr).expect("connect to the loopback front"))
            }
            (None, None) => unreachable!("a fleet has a service or a front address"),
        }
    }

    /// The fleet's statistics, as a client of this topology sees them
    /// (merged across shards by the proxy).
    pub fn stats(&self) -> ServeStats {
        match self.connect() {
            Conn::Local(service) => service.stats(),
            Conn::Wire(mut client) => client.stats().expect("stats over loopback"),
        }
    }

    /// Drains and stops everything, front first.
    pub fn shutdown(self) {
        if let Some(proxy) = self.proxy {
            proxy.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
        if let Some(service) = self.service {
            service.shutdown();
        }
    }
}

/// How many of `ids` a `backends`-member ring places on each backend.
pub fn ring_owners<'a>(ids: impl Iterator<Item = &'a str>, backends: usize) -> Vec<usize> {
    let ring = ShardRing::new(backends);
    let alive = vec![true; backends];
    let mut owners = vec![0usize; backends];
    for id in ids {
        owners[ring.route(id, &alive).expect("a live ring routes every id")] += 1;
    }
    owners
}

/// Why a client did not get what it asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The service answered with a typed rejection.
    Rejected(String),
    /// The wire failed: I/O, framing or protocol.
    Transport(String),
}

impl From<WireError> for Failure {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Rejected(r) => Self::Rejected(r.to_string()),
            other => Self::Transport(other.to_string()),
        }
    }
}

impl From<ServeError> for Failure {
    fn from(e: ServeError) -> Self {
        Self::Rejected(e.to_string())
    }
}

/// One client's connection.
#[derive(Debug)]
pub enum Conn<'a> {
    /// Direct calls into the service.
    Local(&'a RenderService),
    /// A wire connection (to a server or the proxy).
    Wire(WireClient),
}

/// One open stream of a [`Conn`].
#[derive(Debug)]
pub enum Stream {
    /// An in-process stream handle.
    Local(FrameStream),
    /// A wire stream handle.
    Wire(RemoteStream),
}

impl Conn<'_> {
    /// Opens a stream.
    pub fn open(
        &mut self,
        scene: &str,
        options: RenderOptions,
        spec: StreamSpec,
        config: StreamConfig,
    ) -> Result<Stream, Failure> {
        match self {
            Self::Local(service) => Ok(Stream::Local(
                service
                    .session(scene, options)
                    .and_then(|session| session.stream_with(spec, config))?,
            )),
            Self::Wire(client) => Ok(Stream::Wire(client.open(scene, options, spec, config)?)),
        }
    }

    /// Pulls the stream's next frame; `None` once it has ended.
    pub fn next_frame(&mut self, stream: &mut Stream) -> Option<Result<Frame, Failure>> {
        match (self, stream) {
            (Self::Local(_), Stream::Local(s)) => s.next_frame().map(|r| r.map_err(Failure::from)),
            (Self::Wire(client), Stream::Wire(s)) => {
                client.next_frame(s).map_err(Failure::from).transpose()
            }
            _ => unreachable!("a stream is pulled through the connection that opened it"),
        }
    }

    /// Pulls a frame that the stream must still hold.
    pub fn expect_frame(&mut self, stream: &mut Stream) -> Result<Frame, Failure> {
        self.next_frame(stream).unwrap_or_else(|| {
            Err(Failure::Transport(
                "stream ended before its last frame".into(),
            ))
        })
    }

    /// Ends a stream early, releasing its queued frames. Dropping a
    /// local handle cancels it; a wire stream needs the round trip.
    pub fn cancel(&mut self, stream: Stream) {
        if let (Self::Wire(client), Stream::Wire(mut s)) = (self, stream) {
            // Best effort: the connection closes right after anyway.
            let _ = client.cancel(&mut s);
        }
    }

    /// One `stats()` round trip.
    pub fn stats(&mut self) -> Result<ServeStats, Failure> {
        match self {
            Self::Local(service) => Ok(service.stats()),
            Self::Wire(client) => Ok(client.stats()?),
        }
    }

    /// One ping round trip (a no-op in process).
    pub fn ping(&mut self) -> Result<(), Failure> {
        match self {
            Self::Local(_) => Ok(()),
            Self::Wire(client) => Ok(client.ping()?),
        }
    }
}
