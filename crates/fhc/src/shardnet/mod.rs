//! Distributed shard serving: reference-set shards behind a transport.
//!
//! Reference *classes* are partitioned across shard worker processes, each
//! worker scores its `(view, class)` cells, and the partial rows max-merge
//! into the full similarity row:
//!
//! * [`wire`] — the versioned, checksummed, length-prefixed protocol
//!   (built on [`hpcutil::frame`]): a [`Hello`](wire::Hello) handshake
//!   carrying the protocol version, the reference-set fingerprint and the
//!   worker's class partition; [`ScoreRequest`](wire::ScoreRequest) frames
//!   carrying prepared query hashes; [`ScoreResponse`](wire::ScoreResponse)
//!   frames carrying partial max-score rows.
//! * [`worker`] — [`ShardWorker`], the serving side:
//!   it owns a reference set (typically loaded from a classifier artifact),
//!   scores its class partition through the same block-size-bucketed index
//!   as [`IndexedBackend`](crate::backend::IndexedBackend), and answers
//!   score requests over any `Read + Write` stream through one serving
//!   loop, [`TenantHost::serve_requests`]. The `fhc-shardd` binary serves
//!   it through the accept loop of this module.
//! * [`fleet`] — [`FleetBackend`], the one client: a
//!   [`SimilarityBackend`](crate::backend::SimilarityBackend) whose
//!   `max_scores_into` fans out to its shards over persistent connections
//!   and max-merges their partial rows, with replicas raced by hedged
//!   requests. Byte-identical to every in-process backend by the existing
//!   equivalence suites. Connections are driven by a [`hpcutil::Mux`], so
//!   concurrent callers pipeline over one socket per worker instead of
//!   serializing behind a connection lock.
//! * [`gateway`] — [`Gateway`], a batching front
//!   door: it accepts many client connections, coalesces concurrently
//!   arriving queries into [`ScoreBatchRequest`](wire::ScoreBatchRequest)
//!   frames per shard, and presents the whole fleet to its clients as one
//!   worker serving every class. Its shard side is a [`FleetView`], driven
//!   one member per batcher thread. The `fhc-gateway` binary serves it; a
//!   `gateway:EP` backend spec is a one-shard fleet pointed at it.
//! * [`remote`] — the handshake helpers of the fleet's connect path.
//!
//! Failure is a first-class outcome: a worker that dies mid-batch surfaces
//! as a typed [`NetError`] through the `try_*` serving APIs — never as a
//! wrong or partial similarity row.

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

pub mod deadlines;
pub mod fleet;
pub mod gateway;
pub mod remote;
pub mod wire;
pub mod worker;

pub use fleet::{
    BackoffPolicy, FleetBackend, FleetShard, FleetTopology, FleetTuning, FleetView, StaleWorkers,
};
pub use gateway::{Gateway, GatewayOptions};
pub use worker::{ShardWorker, TenantHost, WorkerHost};

/// Where a shard worker listens.
///
/// Parses from (and displays back to) `tcp:HOST:PORT` or `unix:PATH`; a
/// bare `HOST:PORT` is accepted as TCP for convenience.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A TCP socket address (`host:port`).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

pub use deadlines::IO_TIMEOUT;
pub(crate) use deadlines::{IDLE_TIMEOUT, MUX_POLL_INTERVAL};

/// Check a named failpoint and map an injected fault to the typed
/// [`NetError`] a real fault at that site would produce. Compiles to an
/// inlined `None` check (one relaxed atomic load when the `failpoints`
/// feature is on, nothing at all when it is off).
#[inline]
pub(crate) fn inject(site: &'static str, peer: &str) -> Result<(), NetError> {
    // fhc-lint: allow(failpoint_named) -- pass-through helper: every caller's site argument is a literal R7 checks at the call site
    match hpcutil::failpoint::hit(site) {
        None => Ok(()),
        Some(hpcutil::failpoint::Fault::CloseConn) => Err(NetError::WorkerLost {
            peer: peer.to_string(),
            detail: format!("failpoint {site}: injected connection loss"),
        }),
        Some(_) => Err(NetError::Io {
            peer: peer.to_string(),
            source: std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                format!("failpoint {site}: injected i/o failure"),
            ),
        }),
    }
}

/// Spawn a named, deliberately-detached serving thread.
///
/// This is the **single** sanctioned detach point in the serving tier;
/// everything else keeps its `JoinHandle`. It exists for per-connection
/// threads whose lifetime is bounded by the peer socket (both directions
/// carry deadlines, so the thread cannot outlive a dead peer by more than a
/// timeout) and whose accept loop never returns to a place that could join
/// them. Funneling every such spawn through here keeps the detach in one
/// place and gives each thread a name for debuggers.
pub(crate) fn spawn_detached(name: &str, f: impl FnOnce() + Send + 'static) {
    let spawned = std::thread::Builder::new()
        .name(name.to_string())
        // Detached by design: the handle is dropped once the spawn succeeds.
        .spawn(f);
    if let Err(e) = spawned {
        // Out of threads: shed this connection instead of crashing the
        // accept loop; the peer sees a dropped socket and may retry.
        eprintln!("shardnet: could not spawn {name}: {e}");
    }
}

/// A listening socket a serving daemon accepts connections from: TCP or
/// Unix-domain. The serving-side operations on an accepted connection are
/// associated functions, so [`serve_listener`] is written once for both.
pub(crate) trait Listener {
    /// An accepted connection.
    type Conn: Read + Write + Send + 'static;
    /// Accept the next connection and name its peer. TCP connections get
    /// `TCP_NODELAY`: score requests are small and latency-bound.
    fn accept(&self) -> std::io::Result<(Self::Conn, String)>;
    /// Set `conn`'s read deadline.
    fn set_read_timeout(conn: &Self::Conn, timeout: Duration) -> std::io::Result<()>;
    /// Set `conn`'s write deadline.
    fn set_write_timeout(conn: &Self::Conn, timeout: Duration) -> std::io::Result<()>;
    /// A second handle on `conn`, for a reader thread.
    fn try_clone(conn: &Self::Conn) -> std::io::Result<Self::Conn>;
    /// Shut down both directions of `conn`, unblocking its other handles.
    fn shutdown(conn: &Self::Conn);
}

impl Listener for TcpListener {
    type Conn = TcpStream;

    fn accept(&self) -> std::io::Result<(TcpStream, String)> {
        let (stream, addr) = TcpListener::accept(self)?;
        let _ = stream.set_nodelay(true);
        Ok((stream, addr.to_string()))
    }

    fn set_read_timeout(conn: &TcpStream, timeout: Duration) -> std::io::Result<()> {
        conn.set_read_timeout(Some(timeout))
    }

    fn set_write_timeout(conn: &TcpStream, timeout: Duration) -> std::io::Result<()> {
        conn.set_write_timeout(Some(timeout))
    }

    fn try_clone(conn: &TcpStream) -> std::io::Result<TcpStream> {
        conn.try_clone()
    }

    fn shutdown(conn: &TcpStream) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
}

impl Listener for UnixListener {
    type Conn = UnixStream;

    fn accept(&self) -> std::io::Result<(UnixStream, String)> {
        let (stream, _) = UnixListener::accept(self)?;
        Ok((stream, "unix client".to_string()))
    }

    fn set_read_timeout(conn: &UnixStream, timeout: Duration) -> std::io::Result<()> {
        conn.set_read_timeout(Some(timeout))
    }

    fn set_write_timeout(conn: &UnixStream, timeout: Duration) -> std::io::Result<()> {
        conn.set_write_timeout(Some(timeout))
    }

    fn try_clone(conn: &UnixStream) -> std::io::Result<UnixStream> {
        conn.try_clone()
    }

    fn shutdown(conn: &UnixStream) {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
}

/// The accept loop of every serving daemon: one detached thread per
/// connection running `serve`, reads bounded by [`IDLE_TIMEOUT`] and
/// writes by [`IO_TIMEOUT`], failures logged to stderr under `name`.
/// Returns when the listener itself fails (e.g. it was closed out from
/// under the loop).
pub(crate) fn serve_listener<L: Listener>(
    listener: L,
    name: &'static str,
    serve: impl Fn(L::Conn, &str) -> Result<(), NetError> + Send + Sync + 'static,
) {
    let serve = Arc::new(serve);
    while let Ok((conn, peer)) = listener.accept() {
        let _ = L::set_read_timeout(&conn, IDLE_TIMEOUT);
        // A client that stops reading must not pin its serving thread in
        // write_all forever.
        let _ = L::set_write_timeout(&conn, IO_TIMEOUT);
        let serve = Arc::clone(&serve);
        spawn_detached(name, move || {
            if let Err(e) = serve(conn, &peer) {
                eprintln!("{name}: connection with {peer} failed: {e}");
            }
        });
    }
}

impl Endpoint {
    /// Open a connection to this endpoint, with [`IO_TIMEOUT`] applied to
    /// every read and write (and to the TCP connect itself).
    pub fn connect(&self) -> std::io::Result<Box<dyn Transport>> {
        match self {
            Endpoint::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::AddrNotAvailable,
                        format!("{addr} resolves to no address"),
                    )
                })?;
                let stream = TcpStream::connect_timeout(&resolved, IO_TIMEOUT)?;
                // Score requests are small and latency-bound; never batch
                // them behind Nagle.
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                Ok(Box::new(stream))
            }
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                Ok(Box::new(stream))
            }
        }
    }

    /// Open a connection split into independently owned read/write halves
    /// (see [`SplitConn`]), with [`IO_TIMEOUT`] applied to reads, writes,
    /// and the TCP connect — the handshake runs under the same deadlines as
    /// [`Endpoint::connect`]. Once the handshake is done, narrow the read
    /// timeout to the mux's poll interval before spawning the mux.
    pub fn connect_split(&self) -> std::io::Result<SplitConn> {
        match self {
            Endpoint::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::AddrNotAvailable,
                        format!("{addr} resolves to no address"),
                    )
                })?;
                let stream = TcpStream::connect_timeout(&resolved, IO_TIMEOUT)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                Ok(SplitConn {
                    reader: Box::new(stream.try_clone()?),
                    writer: Box::new(stream.try_clone()?),
                    control: ConnControl::Tcp(stream),
                })
            }
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                Ok(SplitConn {
                    reader: Box::new(stream.try_clone()?),
                    writer: Box::new(stream.try_clone()?),
                    control: ConnControl::Unix(stream),
                })
            }
        }
    }
}

/// A connected stream split into independently owned halves, so a
/// [`hpcutil::Mux`]'s reader thread and its submitters, which write their
/// own frames, can drive the same socket concurrently.
///
/// The halves are OS-level duplicates of one socket: timeouts set through
/// [`SplitConn::set_read_timeout`] apply to both, and shutting the socket
/// down through the closer returned by [`SplitConn::into_mux_parts`]
/// unblocks whichever half is parked in a syscall.
pub struct SplitConn {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    control: ConnControl,
}

enum ConnControl {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl SplitConn {
    /// The read half, for driving a handshake before the mux takes over.
    pub fn reader(&mut self) -> &mut (dyn Read + Send) {
        &mut *self.reader
    }

    /// The write half, for driving a handshake before the mux takes over.
    pub fn writer(&mut self) -> &mut (dyn Write + Send) {
        &mut *self.writer
    }

    /// Set the socket's read timeout (shared by both halves).
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        match &self.control {
            ConnControl::Tcp(stream) => stream.set_read_timeout(timeout),
            ConnControl::Unix(stream) => stream.set_read_timeout(timeout),
        }
    }

    /// Consume the split connection into the three parts a
    /// [`hpcutil::Mux`] spawns from: the read half, the write half, and a
    /// closer that shuts the socket down (idempotent, callable from any
    /// thread).
    #[allow(clippy::type_complexity)]
    pub fn into_mux_parts(
        self,
    ) -> (
        Box<dyn Read + Send>,
        Box<dyn Write + Send>,
        Box<dyn Fn() + Send + Sync>,
    ) {
        let control = self.control;
        let closer: Box<dyn Fn() + Send + Sync> = Box::new(move || match &control {
            ConnControl::Tcp(stream) => {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            ConnControl::Unix(stream) => {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        });
        (self.reader, self.writer, closer)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl FromStr for Endpoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        let addr = s.strip_prefix("tcp:").unwrap_or(s);
        if addr.rsplit_once(':').is_none_or(|(host, port)| {
            host.is_empty() || port.is_empty() || port.parse::<u16>().is_err()
        }) {
            return Err(format!(
                "invalid endpoint {s:?}: expected tcp:HOST:PORT, HOST:PORT, or unix:PATH"
            ));
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }
}

/// A bidirectional byte stream a shard conversation runs over.
pub trait Transport: Read + Write + Send {}

impl<T: Read + Write + Send> Transport for T {}

/// Errors raised by the shard-serving subsystem.
///
/// Every variant names the peer it concerns, so a dead worker in an N-way
/// fan-out is diagnosable from the error alone.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed while talking to `peer`.
    Io {
        /// The peer the conversation was with.
        peer: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The stream bytes were not a valid frame (truncation, checksum
    /// mismatch, oversized length prefix).
    Frame {
        /// The peer the conversation was with.
        peer: String,
        /// The underlying framing error.
        source: hpcutil::FrameError,
    },
    /// A structurally valid frame carried an invalid or unexpected payload.
    Protocol {
        /// The peer the conversation was with.
        peer: String,
        /// What was wrong.
        detail: String,
    },
    /// The handshake failed: protocol version or reference-set fingerprint
    /// did not match.
    Handshake {
        /// The peer the conversation was with.
        peer: String,
        /// What did not match.
        detail: String,
    },
    /// The workers' class partitions do not cover every class exactly once.
    Partition(
        /// What is wrong with the ensemble of advertised partitions.
        String,
    ),
    /// A worker connection died mid-conversation (degraded mode): the query
    /// cannot be answered without inventing a wrong or partial row.
    WorkerLost {
        /// The worker that was lost.
        peer: String,
        /// What the transport reported.
        detail: String,
    },
    /// The remote side reported an error of its own.
    Remote {
        /// The peer that sent the error frame.
        peer: String,
        /// The error message it sent.
        message: String,
    },
    /// The peer is shedding load: a gateway's per-tenant quota or global
    /// in-flight ceiling rejected the request *before* any scoring ran.
    /// Deliberate and non-retried by the serving backends — the peer told
    /// us when to come back, and hammering it sooner defeats the point.
    Overload {
        /// The peer that shed the request.
        peer: String,
        /// How long the peer asked us to wait before retrying.
        retry_after_ms: u32,
    },
    /// A handshake named a tenant the other side does not serve, or a
    /// worker answered for a different tenant than the one selected. Never
    /// a generic decode error or a silent empty row: the offending tenant
    /// travels in the error.
    Tenant {
        /// The peer the conversation was with.
        peer: String,
        /// The tenant that was requested or wrongly answered for.
        tenant: String,
        /// What went wrong (unknown tenant, mismatched greeting, ...).
        detail: String,
    },
}

impl NetError {
    /// Whether this error means a worker is gone (as opposed to a local
    /// configuration or protocol problem).
    pub fn is_worker_lost(&self) -> bool {
        matches!(self, NetError::WorkerLost { .. })
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io { peer, source } => write!(f, "i/o error with {peer}: {source}"),
            NetError::Frame { peer, source } => write!(f, "framing error with {peer}: {source}"),
            NetError::Protocol { peer, detail } => {
                write!(f, "protocol violation from {peer}: {detail}")
            }
            NetError::Handshake { peer, detail } => {
                write!(f, "handshake with {peer} failed: {detail}")
            }
            NetError::Partition(detail) => write!(f, "invalid shard partition: {detail}"),
            NetError::WorkerLost { peer, detail } => {
                write!(f, "shard worker {peer} lost: {detail}")
            }
            NetError::Remote { peer, message } => {
                write!(f, "remote error from {peer}: {message}")
            }
            NetError::Overload {
                peer,
                retry_after_ms,
            } => {
                write!(f, "{peer} is shedding load: retry after {retry_after_ms}ms")
            }
            NetError::Tenant {
                peer,
                tenant,
                detail,
            } => {
                write!(f, "tenant {tenant:?} rejected by {peer}: {detail}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            NetError::Frame { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parses_and_roundtrips() {
        let tcp: Endpoint = "127.0.0.1:9000".parse().unwrap();
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1:9000".into()));
        let tagged: Endpoint = "tcp:10.0.0.1:80".parse().unwrap();
        assert_eq!(tagged, Endpoint::Tcp("10.0.0.1:80".into()));
        let unix: Endpoint = "unix:/tmp/fhc.sock".parse().unwrap();
        assert_eq!(unix, Endpoint::Unix(PathBuf::from("/tmp/fhc.sock")));

        for endpoint in [tcp, tagged, unix] {
            let display = endpoint.to_string();
            let reparsed: Endpoint = display.parse().expect("display form reparses");
            assert_eq!(reparsed, endpoint, "{display} must round-trip");
        }
    }

    #[test]
    fn bad_endpoints_are_rejected() {
        for bad in ["", "unix:", "localhost", "host:", ":80", "host:notaport"] {
            assert!(bad.parse::<Endpoint>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn net_error_display_names_the_peer() {
        let e = NetError::WorkerLost {
            peer: "tcp:10.1.2.3:9000".into(),
            detail: "connection reset".into(),
        };
        assert!(e.is_worker_lost());
        assert!(e.to_string().contains("10.1.2.3"));
        let e = NetError::Handshake {
            peer: "w0".into(),
            detail: "fingerprint mismatch".into(),
        };
        assert!(!e.is_worker_lost());
        assert!(e.to_string().contains("fingerprint"));
        let io = NetError::Io {
            peer: "w1".into(),
            source: std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe"),
        };
        assert!(std::error::Error::source(&io).is_some());
    }
}
