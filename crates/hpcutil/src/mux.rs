//! A connection multiplexer: many callers, one stream, one reader thread.
//!
//! [`par`](crate::par) parallelizes compute; this module parallelizes
//! *conversations*. A [`Mux`] owns one bidirectional stream (typically a
//! socket already past its application handshake):
//!
//! * each **submitter** writes its own pre-encoded frame on its own
//!   thread, as one `write_all` under a lock around the write half, so
//!   frames never interleave;
//! * one dedicated **reader** thread incrementally reassembles
//!   [`frame`](crate::frame)s from the stream and routes each decoded reply
//!   to the caller that asked for it, by the request id the caller-supplied
//!   decode function extracts from the payload.
//!
//! Callers interact through [`Mux::submit`]: hand over the complete wire
//! bytes of a request, get a [`PendingReply`] back, and
//! [`PendingReply::wait`] for the decoded response. Any number of threads
//! may submit concurrently; their requests *pipeline* over the single
//! stream, and no caller ever holds a lock across a round trip — only
//! across its own write. The reader drains replies independently of the
//! submitters, so a peer blocked writing its replies cannot deadlock a
//! submitter.
//!
//! Backpressure: a peer (or network) that stops reading blocks submitters
//! once the kernel's send buffer is full. The stream's write timeout then
//! fails the blocked write, which poisons the mux like any transport
//! failure and unblocks everyone with a typed error.
//!
//! Failure is sticky: the first transport, framing, decode, or stall error
//! **poisons** the multiplexer. Every in-flight and future request fails
//! with (a clone of) the same [`MuxError`], and the closer hook supplied at
//! spawn is invoked so a thread blocked in `read` or `write` on the same
//! stream is woken — for sockets, a `shutdown`. A poisoned mux never hands
//! out data from a stream whose framing can no longer be trusted.
//!
//! Stall detection: the reader performs raw `read` calls into a reassembly
//! buffer, so a socket read timeout does not tear a frame — it simply wakes
//! the reader, which checks whether any in-flight request has been waiting
//! longer than [`MuxOptions::reply_deadline`] and poisons the mux if so.
//! Without a read timeout on the underlying stream (or with a deadline of
//! `None`) the reader blocks indefinitely and stalls are never detected.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame header length on the wire (tag byte + `u32` payload length).
const HEADER_LEN: usize = 5;
/// Frame trailer length on the wire (`u64` FNV-1a checksum).
const CHECKSUM_LEN: usize = 8;
/// Read granularity of the reader thread's reassembly loop.
const READ_CHUNK: usize = 64 * 1024;

/// Why a multiplexed request failed. Cloneable so one connection failure
/// can fan out to every caller that had a request in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxErrorKind {
    /// The underlying transport failed (includes EOF from the peer).
    Io,
    /// The stream bytes stopped forming valid frames (bad length prefix,
    /// checksum mismatch).
    Frame,
    /// A structurally valid frame could not be decoded into a reply, or a
    /// reply arrived for an id that was never submitted.
    Decode,
    /// The peer reported an application-level error instead of a reply.
    Remote,
    /// An in-flight request outlived the reply deadline.
    Stalled,
    /// The multiplexer was dropped.
    Closed,
}

/// A failure of the multiplexed connection, delivered to every affected
/// caller.
#[derive(Debug, Clone)]
pub struct MuxError {
    /// What class of failure this is.
    pub kind: MuxErrorKind,
    /// Human-readable detail.
    pub detail: String,
}

impl MuxError {
    /// An error of `kind` with `detail`.
    pub fn new(kind: MuxErrorKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for MuxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let detail = &self.detail;
        match self.kind {
            MuxErrorKind::Io => write!(f, "multiplexed connection i/o error: {detail}"),
            MuxErrorKind::Frame => write!(f, "malformed frame on multiplexed connection: {detail}"),
            MuxErrorKind::Decode => {
                write!(f, "undecodable reply on multiplexed connection: {detail}")
            }
            MuxErrorKind::Remote => write!(f, "peer reported an error: {detail}"),
            MuxErrorKind::Stalled => write!(f, "multiplexed connection stalled: {detail}"),
            MuxErrorKind::Closed => write!(f, "multiplexer closed: {detail}"),
        }
    }
}

impl std::error::Error for MuxError {}

/// Tuning knobs for [`Mux::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct MuxOptions {
    /// Largest frame payload the reader will accept; a length prefix above
    /// this poisons the mux without allocating.
    pub max_payload: usize,
    /// How long an in-flight request may wait before the connection is
    /// declared stalled and poisoned. Checked whenever the underlying
    /// stream's read times out, so detection granularity is the socket
    /// read timeout. `None` disables stall detection.
    pub reply_deadline: Option<Duration>,
}

impl Default for MuxOptions {
    fn default() -> Self {
        Self {
            max_payload: 16 << 20,
            reply_deadline: None,
        }
    }
}

/// How many abandoned request ids the mux remembers. Hedged requests
/// abandon their losing duplicate as a matter of course, so the set must
/// not grow without bound on a long-lived connection; the oldest entries
/// are reaped once the cap is hit. A late reply for a *reaped* id is still
/// discarded quietly — the submit high-water mark (see
/// [`MuxState::high_water`]) proves the id was once ours.
const ABANDONED_LIMIT: usize = 1024;

/// What a waiter receives: the reply (or the connection's failure) and
/// when the reader thread delivered it.
type Delivery<R> = (Result<R, MuxError>, Instant);

/// Book-keeping protected by one short-lived lock: requests awaiting a
/// reply, requests whose caller gave up, and the sticky first error.
struct MuxState<R> {
    pending: HashMap<u64, (Instant, SyncSender<Delivery<R>>)>,
    /// Ids whose [`PendingReply`] was dropped before the reply arrived; a
    /// late reply for one of these is discarded instead of treated as a
    /// protocol violation. Bounded by [`ABANDONED_LIMIT`].
    abandoned: HashSet<u64>,
    /// Insertion order of `abandoned`, for oldest-first reaping. May hold
    /// stale entries for ids already drained by a late reply; reaping
    /// skips those.
    abandoned_order: VecDeque<u64>,
    /// The highest request id ever submitted on this mux. A reply whose id
    /// is neither pending nor abandoned but at or below this mark belongs
    /// to a reaped abandoned request (or is a duplicate of an answered
    /// one) and is discarded quietly; an id *above* it was invented by the
    /// peer and poisons the connection.
    high_water: Option<u64>,
    poisoned: Option<MuxError>,
}

struct Shared<R> {
    state: Mutex<MuxState<R>>,
    closer: Box<dyn Fn() + Send + Sync>,
    closed: AtomicBool,
    peer: String,
}

impl<R> Shared<R> {
    fn lock(&self) -> std::sync::MutexGuard<'_, MuxState<R>> {
        // A panic can only occur in caller code outside the lock; the
        // guarded state is always internally consistent.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record the first error, fail every in-flight request with it, and
    /// fire the closer hook (once) to unblock the reader and any blocked
    /// submitter.
    fn poison(&self, err: MuxError) {
        let (err, drained) = {
            let mut st = self.lock();
            let err = st.poisoned.get_or_insert(err).clone();
            let drained: Vec<_> = st.pending.drain().map(|(_, (_, tx))| tx).collect();
            st.abandoned.clear();
            st.abandoned_order.clear();
            (err, drained)
        };
        let now = Instant::now();
        for tx in drained {
            let _ = tx.send((Err(err.clone()), now));
        }
        if !self.closed.swap(true, Ordering::SeqCst) {
            (self.closer)();
        }
    }

    /// Route one decoded reply to its waiter. A reply for an abandoned id
    /// — or for an id at or below the submit high-water mark whose
    /// abandoned entry was already reaped or drained — is discarded
    /// quietly. Returns `false` (after poisoning) only when the id was
    /// *never* submitted — a stream that invents correlation ids cannot be
    /// trusted.
    fn deliver(&self, id: u64, reply: R) -> bool {
        enum Route<R> {
            Waiter(SyncSender<Delivery<R>>),
            Discard,
            Unknown,
        }
        let route = {
            let mut st = self.lock();
            match st.pending.remove(&id) {
                Some((_, tx)) => Route::Waiter(tx),
                None if st.abandoned.remove(&id) => Route::Discard,
                // The id was once submitted here but is no longer tracked:
                // its abandoned entry was reaped at ABANDONED_LIMIT, or
                // the peer answered it twice. Either way this is a stale
                // duplicate of our own traffic, not an invented id.
                None if st.high_water.is_some_and(|hw| id <= hw) => Route::Discard,
                None => Route::Unknown,
            }
        };
        match route {
            Route::Waiter(tx) => {
                // A failed send means the waiter gave up between our map
                // lookup and the send; the reply is simply discarded.
                let _ = tx.send((Ok(reply), Instant::now()));
                true
            }
            Route::Discard => true,
            Route::Unknown => {
                self.poison(MuxError::new(
                    MuxErrorKind::Decode,
                    format!("reply for unknown request id {id}"),
                ));
                false
            }
        }
    }

    fn has_stalled(&self, deadline: Option<Duration>) -> bool {
        let Some(deadline) = deadline else {
            return false;
        };
        self.lock()
            .pending
            .values()
            .any(|(since, _)| since.elapsed() >= deadline)
    }
}

/// A multiplexed request/reply connection; see the [module docs](self).
///
/// `R` is the decoded reply type produced by the decode function given to
/// [`Mux::spawn`]. Dropping the mux closes the stream, fails all in-flight
/// requests with [`MuxErrorKind::Closed`], and joins the reader thread.
pub struct Mux<R> {
    shared: Arc<Shared<R>>,
    /// The write half. Its lock is held only across one frame's write,
    /// never across a poison (which fires the closer).
    writer: Mutex<Box<dyn Write + Send>>,
    reader: Option<JoinHandle<()>>,
}

impl<R> std::fmt::Debug for Mux<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mux")
            .field("peer", &self.shared.peer)
            .field("in_flight", &self.in_flight())
            .field("poisoned", &self.is_poisoned())
            .finish()
    }
}

impl<R: Send + 'static> Mux<R> {
    /// Take ownership of the two halves of a connected stream and start the
    /// reader thread.
    ///
    /// `decode` turns one verified frame (tag + payload) into
    /// `(request id, reply)`; returning an error poisons the mux with it —
    /// use [`MuxErrorKind::Remote`] for application-level error frames and
    /// [`MuxErrorKind::Decode`] for frames that should not occur.
    ///
    /// `closer` must unblock a thread stuck in `read`/`write` on the same
    /// stream (for sockets: `shutdown`); it is called at most once, on
    /// poison or drop, and must be idempotent-safe.
    ///
    /// Fails with [`MuxErrorKind::Io`] if the reader thread cannot be
    /// spawned (resource exhaustion); the stream halves are dropped.
    pub fn spawn<D>(
        peer: impl Into<String>,
        reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
        closer: Box<dyn Fn() + Send + Sync>,
        options: MuxOptions,
        decode: D,
    ) -> Result<Self, MuxError>
    where
        D: Fn(u8, Vec<u8>) -> Result<(u64, R), MuxError> + Send + 'static,
    {
        let shared = Arc::new(Shared {
            state: Mutex::new(MuxState {
                pending: HashMap::new(),
                abandoned: HashSet::new(),
                abandoned_order: VecDeque::new(),
                high_water: None,
                poisoned: None,
            }),
            closer,
            closed: AtomicBool::new(false),
            peer: peer.into(),
        });
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("mux-reader".into())
            .spawn(move || reader_loop(reader, &reader_shared, &decode, options))
            .map_err(|e| {
                MuxError::new(MuxErrorKind::Io, format!("spawning the mux reader: {e}"))
            })?;
        Ok(Self {
            shared,
            writer: Mutex::new(writer),
            reader: Some(reader),
        })
    }

    /// Register `id` for reply correlation and write one pre-encoded
    /// request frame on the calling thread. Returns once the frame is
    /// handed to the stream; the reply arrives on the reader thread while
    /// the caller does other work (or [`PendingReply::wait`]s). A failed
    /// write poisons the mux with [`MuxErrorKind::Io`], which this and
    /// every other in-flight request then receive.
    ///
    /// `id` must be unique among this mux's in-flight *and* abandoned
    /// requests — the natural source is a per-connection or shared atomic
    /// counter. A submit that reuses such an id is rejected with a typed
    /// [`MuxErrorKind::Decode`] error (through the returned handle, without
    /// poisoning the connection): registering it anyway could cross-wire
    /// the old request's late reply into the new caller.
    pub fn submit(&self, id: u64, frame: &[u8]) -> PendingReply<R> {
        // Oneshot: exactly one of deliver/poison ever sends, so capacity 1
        // means the sender can never block.
        let (tx, rx) = sync_channel(1);
        let pending = PendingReply {
            rx,
            id,
            shared: Arc::clone(&self.shared),
            arrived: None,
        };
        {
            let mut st = self.shared.lock();
            if let Some(err) = &st.poisoned {
                let _ = tx.send((Err(err.clone()), Instant::now()));
                return pending;
            }
            if st.pending.contains_key(&id) || st.abandoned.contains(&id) {
                let _ = tx.send((
                    Err(MuxError::new(
                        MuxErrorKind::Decode,
                        format!("request id {id} is already in flight or awaiting reply drain"),
                    )),
                    Instant::now(),
                ));
                return pending;
            }
            st.high_water = Some(st.high_water.map_or(id, |hw| hw.max(id)));
            st.pending.insert(id, (Instant::now(), tx));
        }
        // Failpoint: corrupt a copy of this frame (caught downstream by a
        // checksum or a reply deadline) or fail it as the transport would.
        let written = match crate::failpoint::hit("mux.writer") {
            None => self.write(frame),
            Some(crate::failpoint::Fault::CorruptByte(i)) => {
                let mut copy = frame.to_vec();
                if let Some(byte) = copy.get_mut(i % frame.len().max(1)) {
                    *byte ^= 0x40;
                }
                self.write(&copy)
            }
            Some(_) => Err(std::io::Error::other("failpoint mux.writer: injected")),
        };
        if let Err(e) = written {
            self.shared.poison(MuxError::new(
                MuxErrorKind::Io,
                format!("write failed: {e}"),
            ));
        }
        pending
    }

    /// Put one frame on the wire. The write lock is released on return,
    /// before the caller poisons on failure.
    fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        writer.write_all(bytes).and_then(|()| writer.flush())
    }
}

impl<R> Mux<R> {
    /// The peer name given at spawn (used in error details).
    pub fn peer(&self) -> &str {
        &self.shared.peer
    }

    /// Whether the connection has failed; every subsequent submit returns
    /// the original error.
    pub fn is_poisoned(&self) -> bool {
        self.shared.lock().poisoned.is_some()
    }

    /// Number of requests currently awaiting a reply.
    pub fn in_flight(&self) -> usize {
        self.shared.lock().pending.len()
    }
}

impl<R> Drop for Mux<R> {
    fn drop(&mut self) {
        self.shared
            .poison(MuxError::new(MuxErrorKind::Closed, "multiplexer dropped"));
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// A handle to one in-flight request; [`PendingReply::wait`] blocks until
/// the reply (or the connection's failure) arrives. Dropping it without
/// waiting abandons the request: a late reply is discarded quietly.
pub struct PendingReply<R> {
    rx: Receiver<Delivery<R>>,
    id: u64,
    shared: Arc<Shared<R>>,
    /// When the reply was delivered, once it has been received.
    arrived: Option<Instant>,
}

impl<R> std::fmt::Debug for PendingReply<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingReply")
            .field("id", &self.id)
            .finish()
    }
}

impl<R> PendingReply<R> {
    /// Block until the reply arrives, the connection fails, or the mux is
    /// dropped.
    pub fn wait(mut self) -> Result<R, MuxError> {
        match self.rx.recv() {
            Ok((result, at)) => {
                self.arrived = Some(at);
                result
            }
            // Unreachable in practice: the sender is either in the pending
            // map (drained with an error on poison) or used to deliver.
            Err(_) => {
                self.arrived = Some(Instant::now());
                Err(MuxError::new(
                    MuxErrorKind::Closed,
                    "reply channel closed without a reply",
                ))
            }
        }
    }

    /// Wait up to `timeout` for the reply without consuming the handle —
    /// the primitive a *hedged* request is built from: poll the primary
    /// for its hedge deadline, fire the replica on `None`, then alternate
    /// polls until one connection answers and drop the loser (its late
    /// reply is drained quietly).
    ///
    /// Returns `Some` the first time the reply (or the connection's
    /// failure) arrives; the handle is spent after that — keep the result,
    /// further polls would time out forever. A zero `timeout` only checks,
    /// without the spin-then-yield a channel runs before it blocks.
    pub fn poll_timeout(&mut self, timeout: Duration) -> Option<Result<R, MuxError>> {
        let received = if timeout.is_zero() {
            self.rx.try_recv().map_err(|e| match e {
                TryRecvError::Empty => RecvTimeoutError::Timeout,
                TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
            })
        } else {
            self.rx.recv_timeout(timeout)
        };
        match received {
            Ok((result, at)) => {
                self.arrived = Some(at);
                Some(result)
            }
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                self.arrived = Some(Instant::now());
                Some(Err(MuxError::new(
                    MuxErrorKind::Closed,
                    "reply channel closed without a reply",
                )))
            }
        }
    }

    /// When the reader thread delivered the reply (or the failure) a poll
    /// returned; `None` until then. A caller polling several replies in
    /// turn measures latency from this, not from when its poll returned.
    pub fn arrived_at(&self) -> Option<Instant> {
        self.arrived
    }
}

impl<R> Drop for PendingReply<R> {
    fn drop(&mut self) {
        if self.arrived.is_some() {
            return;
        }
        let mut st = self.shared.lock();
        if st.pending.remove(&self.id).is_some() {
            st.abandoned.insert(self.id);
            st.abandoned_order.push_back(self.id);
            // Reap oldest-first past the cap; entries already drained by a
            // late reply are skipped (their set entry is gone).
            while st.abandoned.len() > ABANDONED_LIMIT {
                match st.abandoned_order.pop_front() {
                    Some(old) => {
                        st.abandoned.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }
}

/// If `buf` starts with a complete frame, its total length; `None` when
/// more bytes are needed; an error when the length prefix is over budget.
fn frame_extent(buf: &[u8], max_payload: usize) -> Result<Option<usize>, MuxError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
    if len > max_payload {
        return Err(MuxError::new(
            MuxErrorKind::Frame,
            format!("frame payload of {len} bytes exceeds the {max_payload}-byte limit"),
        ));
    }
    Ok((buf.len() >= HEADER_LEN + len + CHECKSUM_LEN).then_some(HEADER_LEN + len + CHECKSUM_LEN))
}

fn reader_loop<R>(
    mut reader: Box<dyn Read + Send>,
    shared: &Shared<R>,
    decode: &(impl Fn(u8, Vec<u8>) -> Result<(u64, R), MuxError> + Send),
    options: MuxOptions,
) {
    // Raw reads into a reassembly buffer instead of blocking `read_exact`
    // calls: a read timeout then never tears a frame mid-parse, it just
    // wakes the loop for the stall check below.
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        // Drain every complete frame currently buffered.
        loop {
            let total = match frame_extent(&buf, options.max_payload) {
                Ok(Some(total)) => total,
                Ok(None) => break,
                Err(e) => {
                    shared.poison(e);
                    return;
                }
            };
            // Re-read the complete frame through the checksummed codec so
            // corruption is caught exactly as on the blocking path.
            let parsed = crate::frame::read_frame(
                &mut std::io::Cursor::new(&buf[..total]),
                options.max_payload,
            );
            buf.drain(..total);
            let (tag, payload) = match parsed {
                Ok(frame) => frame,
                Err(e) => {
                    shared.poison(MuxError::new(MuxErrorKind::Frame, e.to_string()));
                    return;
                }
            };
            match decode(tag, payload) {
                Ok((id, reply)) => {
                    if !shared.deliver(id, reply) {
                        return;
                    }
                }
                Err(e) => {
                    shared.poison(e);
                    return;
                }
            }
        }
        // Failpoint: fail the reader thread before the next read, exactly
        // as a dropped or reset connection would surface here.
        if crate::failpoint::hit("mux.reader").is_some() {
            shared.poison(MuxError::new(
                MuxErrorKind::Io,
                "failpoint mux.reader: injected read failure",
            ));
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => {
                shared.poison(MuxError::new(MuxErrorKind::Io, "connection closed by peer"));
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if let Some(deadline) = options.reply_deadline {
                    if shared.has_stalled(Some(deadline)) {
                        shared.poison(MuxError::new(
                            MuxErrorKind::Stalled,
                            format!("no reply within {deadline:?}"),
                        ));
                        return;
                    }
                }
            }
            Err(e) => {
                shared.poison(MuxError::new(MuxErrorKind::Io, e.to_string()));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use std::net::{Shutdown, TcpListener, TcpStream};

    /// Spawn a one-connection frame server; `serve` gets the accepted
    /// stream. Returns the address to dial.
    fn frame_server(serve: impl FnOnce(TcpStream) + Send + 'static) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            serve(stream);
        });
        (addr, handle)
    }

    /// Connect to `addr` and build a mux whose replies are `(tag, payload)`
    /// with the id parsed from the payload's first 8 bytes.
    fn connect_mux(addr: &str, options: MuxOptions) -> Mux<(u8, Vec<u8>)> {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .expect("read timeout");
        let reader = stream.try_clone().expect("clone for reader");
        let closer = stream.try_clone().expect("clone for closer");
        Mux::spawn(
            addr.to_string(),
            Box::new(reader),
            Box::new(stream),
            Box::new(move || {
                let _ = closer.shutdown(Shutdown::Both);
            }),
            options,
            |tag, payload: Vec<u8>| {
                if payload.len() < 8 {
                    return Err(MuxError::new(MuxErrorKind::Decode, "reply too short"));
                }
                let id = u64::from_le_bytes(payload[..8].try_into().expect("fixed-size slice"));
                Ok((id, (tag, payload)))
            },
        )
        .expect("spawn mux threads")
    }

    fn request_bytes(tag: u8, id: u64, body: &[u8]) -> Vec<u8> {
        let mut payload = id.to_le_bytes().to_vec();
        payload.extend_from_slice(body);
        let mut frame = Vec::new();
        write_frame(&mut frame, tag, &payload).expect("vec write");
        frame
    }

    #[test]
    fn concurrent_submits_correlate_over_one_stream() {
        let (addr, server) = frame_server(|mut stream| {
            // Echo every frame back until the client hangs up.
            while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
                write_frame(&mut stream, tag, &payload).expect("echo");
            }
        });
        let mux = Arc::new(connect_mux(&addr, MuxOptions::default()));
        let mut threads = Vec::new();
        for t in 0..8u64 {
            let mux = Arc::clone(&mux);
            threads.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let id = t * 1000 + i;
                    let body = format!("thread {t} request {i}").into_bytes();
                    let pending = mux.submit(id, &request_bytes(7, id, &body));
                    let (tag, payload) = pending.wait().expect("echoed reply");
                    assert_eq!(tag, 7);
                    assert_eq!(&payload[8..], &body[..]);
                    assert_eq!(u64::from_le_bytes(payload[..8].try_into().unwrap()), id);
                }
            }));
        }
        for thread in threads {
            thread.join().expect("submitter thread");
        }
        assert_eq!(mux.in_flight(), 0);
        assert!(!mux.is_poisoned());
        let Ok(mux) = Arc::try_unwrap(mux) else {
            panic!("sole owner")
        };
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn out_of_order_replies_reach_the_right_waiters() {
        let (addr, server) = frame_server(|mut stream| {
            let first = read_frame(&mut stream, 1 << 20).expect("first request");
            let second = read_frame(&mut stream, 1 << 20).expect("second request");
            // Answer in reverse arrival order.
            write_frame(&mut stream, second.0, &second.1).expect("reply");
            write_frame(&mut stream, first.0, &first.1).expect("reply");
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        let p1 = mux.submit(1, &request_bytes(3, 1, b"first"));
        let p2 = mux.submit(2, &request_bytes(3, 2, b"second"));
        let (_, payload2) = p2.wait().expect("reply for id 2");
        let (_, payload1) = p1.wait().expect("reply for id 1");
        assert_eq!(&payload1[8..], b"first");
        assert_eq!(&payload2[8..], b"second");
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn peer_hangup_fails_pending_and_future_requests() {
        let (addr, server) = frame_server(|mut stream| {
            let _ = read_frame(&mut stream, 1 << 20);
            // Close without replying.
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        let err = mux
            .submit(1, &request_bytes(3, 1, b"doomed"))
            .wait()
            .expect_err("peer hung up");
        assert_eq!(err.kind, MuxErrorKind::Io);
        assert!(mux.is_poisoned());
        // Subsequent submits fail immediately with the original error.
        let err = mux
            .submit(2, &request_bytes(3, 2, b"late"))
            .wait()
            .expect_err("mux is poisoned");
        assert_eq!(err.kind, MuxErrorKind::Io);
        server.join().expect("server thread");
    }

    #[test]
    fn a_reply_for_an_unknown_id_poisons_the_mux() {
        let (addr, server) = frame_server(|mut stream| {
            let (tag, payload) = read_frame(&mut stream, 1 << 20).expect("request");
            let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
            let mut bad = (id + 1000).to_le_bytes().to_vec();
            bad.extend_from_slice(&payload[8..]);
            write_frame(&mut stream, tag, &bad).expect("reply");
            // Hold the connection open until the client shuts it down.
            let _ = read_frame(&mut stream, 1 << 20);
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        let err = mux
            .submit(5, &request_bytes(3, 5, b"x"))
            .wait()
            .expect_err("unknown id must poison");
        assert_eq!(err.kind, MuxErrorKind::Decode);
        assert!(err.detail.contains("unknown request id"));
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn an_abandoned_reply_is_discarded_quietly() {
        let (addr, server) = frame_server(|mut stream| {
            let (tag, payload) = read_frame(&mut stream, 1 << 20).expect("request");
            write_frame(&mut stream, tag, &payload).expect("late echo");
            while read_frame(&mut stream, 1 << 20).is_ok() {
                // Swallow follow-ups without replying; the test only needs
                // the connection to stay up.
            }
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        // Submit and immediately drop the handle: the echo arrives for an
        // abandoned id and must NOT poison the connection.
        drop(mux.submit(1, &request_bytes(3, 1, b"abandoned")));
        std::thread::sleep(Duration::from_millis(200));
        assert!(!mux.is_poisoned(), "abandoned reply must not poison");
        assert_eq!(mux.in_flight(), 0);
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_stalled_peer_is_detected_through_the_reply_deadline() {
        let (addr, server) = frame_server(|mut stream| {
            // Read the request, never answer, keep the socket open until
            // the client gives up and shuts it down.
            let _ = read_frame(&mut stream, 1 << 20);
            let _ = read_frame(&mut stream, 1 << 20);
        });
        let options = MuxOptions {
            reply_deadline: Some(Duration::from_millis(100)),
            ..MuxOptions::default()
        };
        let mux = connect_mux(&addr, options);
        let start = Instant::now();
        let err = mux
            .submit(1, &request_bytes(3, 1, b"never answered"))
            .wait()
            .expect_err("stall must surface");
        assert_eq!(err.kind, MuxErrorKind::Stalled);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "stall detection took {:?}",
            start.elapsed()
        );
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_corrupted_length_prefix_is_detected_at_the_reply_deadline() {
        let (addr, server) = frame_server(|mut stream| {
            let (tag, payload) = read_frame(&mut stream, 1 << 20).expect("first request");
            let _ = read_frame(&mut stream, 1 << 20).expect("second request");
            // Echo the first with the low byte of its length prefix
            // flipped, as `corrupt:` does: 48 ^ 0x40 = 112, so the client
            // waits for 64 bytes that never come.
            let mut reply = Vec::new();
            write_frame(&mut reply, tag, &payload).expect("vec write");
            assert_eq!(reply[1], 48);
            reply[1] ^= 0x40;
            stream.write_all(&reply).expect("torn reply");
            let _ = read_frame(&mut stream, 1 << 20);
        });
        let options = MuxOptions {
            reply_deadline: Some(Duration::from_millis(100)),
            ..MuxOptions::default()
        };
        let mux = connect_mux(&addr, options);
        let first = mux.submit(1, &request_bytes(3, 1, &[7u8; 40]));
        let second = mux.submit(2, &request_bytes(3, 2, b"also in flight"));
        for pending in [first, second] {
            let err = pending.wait().expect_err("the torn frame must surface");
            assert_eq!(err.kind, MuxErrorKind::Stalled);
        }
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_failed_write_poisons_the_submit_and_fires_the_closer_once() {
        /// Blocks every read until the closer fires, then reports EOF.
        struct GatedReader(Arc<(Mutex<bool>, std::sync::Condvar)>);
        impl Read for GatedReader {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                let (closed, cv) = &*self.0;
                let guard = closed.lock().unwrap();
                drop(cv.wait_while(guard, |closed| !*closed).unwrap());
                Ok(0)
            }
        }
        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let closes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (closer_gate, closer_count) = (Arc::clone(&gate), Arc::clone(&closes));
        let mux: Mux<()> = Mux::spawn(
            "broken",
            Box::new(GatedReader(Arc::clone(&gate))),
            Box::new(BrokenPipe),
            Box::new(move || {
                closer_count.fetch_add(1, Ordering::SeqCst);
                *closer_gate.0.lock().unwrap() = true;
                closer_gate.1.notify_all();
            }),
            MuxOptions::default(),
            |_, _| Err(MuxError::new(MuxErrorKind::Decode, "no replies expected")),
        )
        .expect("spawn mux");
        let err = mux
            .submit(1, &request_bytes(3, 1, b"x"))
            .wait()
            .expect_err("the write fails");
        assert_eq!(err.kind, MuxErrorKind::Io);
        assert!(mux.is_poisoned());
        assert_eq!(closes.load(Ordering::SeqCst), 1);
        let later = mux
            .submit(2, &request_bytes(3, 2, b"y"))
            .wait()
            .expect_err("sticky");
        assert_eq!((later.kind, later.detail), (err.kind, err.detail));
        drop(mux);
        assert_eq!(closes.load(Ordering::SeqCst), 1, "the closer fires once");
    }

    #[test]
    fn a_decode_rejection_poisons_with_the_callback_error() {
        let (addr, server) = frame_server(|mut stream| {
            let _ = read_frame(&mut stream, 1 << 20).expect("request");
            // Reply with a frame too short to carry an id.
            write_frame(&mut stream, 9, b"tiny").expect("reply");
            let _ = read_frame(&mut stream, 1 << 20);
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        let err = mux
            .submit(1, &request_bytes(3, 1, b"x"))
            .wait()
            .expect_err("decode rejection");
        assert_eq!(err.kind, MuxErrorKind::Decode);
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_late_reply_for_a_reaped_abandoned_id_is_discarded_quietly() {
        // More abandons than the cap, so the first id is reaped from the
        // abandoned set before its late reply arrives.
        const FLOOD: usize = ABANDONED_LIMIT + 8;
        let (addr, server) = frame_server(move |mut stream| {
            // Stash the first request, swallow the abandon flood, then
            // answer the stashed request long after its caller gave up —
            // and was reaped. Echo everything after that.
            let first = read_frame(&mut stream, 1 << 20).expect("first request");
            for _ in 0..FLOOD {
                let _ = read_frame(&mut stream, 1 << 20).expect("flood request");
            }
            write_frame(&mut stream, first.0, &first.1).expect("late echo");
            while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
                write_frame(&mut stream, tag, &payload).expect("echo");
            }
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        drop(mux.submit(1, &request_bytes(3, 1, b"will be reaped")));
        for i in 0..FLOOD as u64 {
            drop(mux.submit(1000 + i, &request_bytes(3, 1000 + i, b"flood")));
        }
        // A fresh request still round-trips — the late reply for the
        // reaped id 1 was discarded via the high-water mark instead of
        // poisoning the connection.
        let (_, payload) = mux
            .submit(50_000, &request_bytes(3, 50_000, b"fresh"))
            .wait()
            .expect("fresh request after the reaped late reply");
        assert_eq!(&payload[8..], b"fresh");
        assert!(!mux.is_poisoned(), "reaped late reply must not poison");
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_reused_id_is_rejected_while_abandoned_and_safe_after_the_drain() {
        let (addr, server) = frame_server(|mut stream| {
            // Swallow the first request (tag 4); echo everything else on
            // command (tag 3).
            while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
                if tag == 3 {
                    write_frame(&mut stream, tag, &payload).expect("echo");
                }
            }
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        // Abandon id 7 with its reply still outstanding (the server
        // swallows tag 4, so nothing ever drains it).
        drop(mux.submit(7, &request_bytes(4, 7, b"abandoned")));
        // Reusing the id now would let the old request's late reply
        // cross-wire into the new caller: typed rejection, no poison.
        let err = mux
            .submit(7, &request_bytes(3, 7, b"reused too early"))
            .wait()
            .expect_err("reuse while abandoned must be rejected");
        assert_eq!(err.kind, MuxErrorKind::Decode);
        assert!(err.detail.contains("already in flight"));
        assert!(!mux.is_poisoned(), "a rejected reuse must not poison");
        // A duplicate of a *pending* id is rejected the same way.
        let pending = mux.submit(9, &request_bytes(4, 9, b"still in flight"));
        let err = mux
            .submit(9, &request_bytes(3, 9, b"duplicate"))
            .wait()
            .expect_err("duplicate of a pending id must be rejected");
        assert_eq!(err.kind, MuxErrorKind::Decode);
        drop(pending);
        // Other ids are unaffected throughout.
        let (_, payload) = mux
            .submit(8, &request_bytes(3, 8, b"unaffected"))
            .wait()
            .expect("fresh id still round-trips");
        assert_eq!(&payload[8..], b"unaffected");
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_drained_duplicate_reply_does_not_corrupt_a_later_reused_id() {
        // The hedge-loser shape: a request is abandoned, its late reply
        // drains, and the id is then reused for a fresh request. The fresh
        // caller must get *its own* reply, never the stale one.
        let (addr, server) = frame_server(|mut stream| {
            while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
                if tag == 3 {
                    write_frame(&mut stream, tag, &payload).expect("echo");
                }
            }
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        // Abandon id 5; the echo arrives afterwards and is drained.
        drop(mux.submit(5, &request_bytes(3, 5, b"stale loser reply")));
        let deadline = Instant::now() + Duration::from_secs(10);
        while mux.shared.lock().abandoned.contains(&5) {
            assert!(Instant::now() < deadline, "late reply never drained");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!mux.is_poisoned(), "drained duplicate must not poison");
        // Reuse the id: the new request correlates to the new reply.
        let (_, payload) = mux
            .submit(5, &request_bytes(3, 5, b"fresh winner reply"))
            .wait()
            .expect("reused id after the drain");
        assert_eq!(&payload[8..], b"fresh winner reply");
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn arrival_time_is_the_delivery_not_the_poll() {
        let (addr, server) = frame_server(|mut stream| {
            while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
                write_frame(&mut stream, tag, &payload).expect("echo");
            }
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        let submitted = Instant::now();
        let mut pending = mux.submit(1, &request_bytes(3, 1, b"stamp"));
        assert_eq!(pending.arrived_at(), None);
        // The echo lands long before this poll runs.
        std::thread::sleep(Duration::from_millis(200));
        let polled = Instant::now();
        let reply = pending.poll_timeout(Duration::from_secs(5));
        assert!(matches!(reply, Some(Ok(_))), "echoed reply");
        let arrived = pending.arrived_at().expect("stamped on receipt");
        assert!(submitted <= arrived && arrived < polled);
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn poll_timeout_times_out_then_delivers() {
        let (addr, server) = frame_server(|mut stream| {
            // Answer only the second request ever received; swallow the
            // first (tag 4) to force the poll timeout path.
            while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
                if tag == 3 {
                    write_frame(&mut stream, tag, &payload).expect("echo");
                }
            }
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        let mut slow = mux.submit(1, &request_bytes(4, 1, b"never answered"));
        assert!(
            slow.poll_timeout(Duration::from_millis(50)).is_none(),
            "an unanswered request polls to None"
        );
        let mut fast = mux.submit(2, &request_bytes(3, 2, b"hedge"));
        let reply = loop {
            if let Some(reply) = fast.poll_timeout(Duration::from_millis(50)) {
                break reply;
            }
        };
        let (_, payload) = reply.expect("hedged reply");
        assert_eq!(&payload[8..], b"hedge");
        // Dropping the loser abandons it quietly.
        drop(slow);
        assert!(!mux.is_poisoned());
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn error_display_names_the_kind() {
        let e = MuxError::new(MuxErrorKind::Stalled, "no reply within 30s");
        assert!(e.to_string().contains("stalled"));
        let e = MuxError::new(MuxErrorKind::Remote, "fingerprint mismatch");
        assert!(e.to_string().contains("fingerprint mismatch"));
    }
}
