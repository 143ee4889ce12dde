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
//!   [`frame`](crate::frame)s from the stream and hands each decoded reply
//!   to the completion its caller registered, by the request id the
//!   caller-supplied decode function extracts from the payload.
//!
//! Callers interact through [`Mux::submit`]: hand over the complete wire
//! bytes of a request and a completion, which runs exactly once, on the
//! reader thread, with the decoded response (or the connection's failure)
//! and the instant the reader delivered it. Every reply behind a
//! completion waits for it, so a completion must never block; it
//! typically moves its reply into a bounded channel. Any number of
//! threads may submit concurrently; their requests *pipeline* over the
//! single stream, and no caller holds a lock across a round trip — only
//! across its own write.
//!
//! Backpressure: a peer (or network) that stops reading blocks submitters
//! once the kernel's send buffer is full. The stream's write timeout then
//! fails the blocked write, which poisons the mux.
//!
//! Failure is sticky: the first transport, framing, decode, or stall error
//! **poisons** the multiplexer. Every later submit is refused with (a
//! clone of) that [`MuxError`], and the closer hook supplied at spawn is
//! invoked so a thread blocked in `read` or `write` on the stream is woken
//! — for sockets, a `shutdown`. Whoever poisons (the reader, a submitter
//! whose write failed, or the mux's `Drop`), the reader thread then runs
//! every registered completion with that error. A poisoned mux never hands
//! out data from a stream whose framing can no longer be trusted.
//!
//! Stall detection: the reader performs raw `read` calls into a reassembly
//! buffer, so a socket read timeout does not tear a frame — it simply wakes
//! the reader, which checks whether any in-flight request has been waiting
//! longer than [`MuxOptions::reply_deadline`] and poisons the mux if so.
//! Without a read timeout on the underlying stream (or with a deadline of
//! `None`) the reader blocks indefinitely and stalls are never detected.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// An undecodable frame, a reply for an id never submitted, or a
    /// submit reusing an id still in flight.
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

/// A request's completion: its reply (or failure) and when it arrived.
type Completion<R> = Box<dyn FnOnce(Result<R, MuxError>, Instant) + Send>;

/// Book-keeping protected by one short-lived lock: requests awaiting a
/// reply and the sticky first error.
struct MuxState<R> {
    /// Every submitted id whose completion has not run — a hedge's loser
    /// included — with when it was submitted, for stall detection.
    pending: HashMap<u64, (Instant, Completion<R>)>,
    /// The highest request id ever submitted on this mux. A reply whose id
    /// is not pending but at or below this mark is a stale duplicate of
    /// our own traffic and is discarded quietly; an id *above* it was
    /// invented by the peer and poisons the connection.
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
        // Completions run outside the lock, which guards consistent state.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Record the first error and fire the closer hook, once, to unblock
    /// the reader and any blocked submitter; returns the first error.
    fn poison(&self, err: MuxError) -> MuxError {
        let first = self.lock().poisoned.get_or_insert(err).clone();
        if !self.closed.swap(true, Ordering::SeqCst) {
            (self.closer)();
        }
        first
    }

    /// Run one decoded reply's completion; a stale duplicate (an id at or
    /// below the high-water mark, no longer pending) is discarded. Fails,
    /// so the reader stops, once the mux is poisoned or when the id was
    /// *never* submitted: a stream that invents ids cannot be trusted.
    fn deliver(&self, id: u64, reply: R) -> Result<(), MuxError> {
        let complete = {
            let mut st = self.lock();
            if let Some(err) = &st.poisoned {
                return Err(err.clone());
            }
            match st.pending.remove(&id) {
                Some((_, complete)) => complete,
                None if st.high_water.is_some_and(|hw| id <= hw) => return Ok(()),
                None => {
                    return Err(MuxError::new(
                        MuxErrorKind::Decode,
                        format!("reply for unknown request id {id}"),
                    ))
                }
            }
        };
        complete(Ok(reply), Instant::now());
        Ok(())
    }
}

/// Poisons the mux and runs every registered completion with the poison
/// when the reader thread ends, however it ends (a panic included).
struct DrainOnExit<'a, R>(&'a Shared<R>);

impl<R> Drop for DrainOnExit<'_, R> {
    fn drop(&mut self) {
        // Submits fail from here on, so nothing registers after the take.
        let err = self
            .0
            .poison(MuxError::new(MuxErrorKind::Closed, "mux reader exited"));
        let drained = std::mem::take(&mut self.0.lock().pending);
        let now = Instant::now();
        for (_, (_, complete)) in drained {
            complete(Err(err.clone()), now);
        }
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
            .spawn(move || {
                let _drain_on_exit = DrainOnExit(&reader_shared);
                reader_shared.poison(reader_loop(reader, &reader_shared, &decode, options));
            })
            .map_err(|e| {
                MuxError::new(MuxErrorKind::Io, format!("spawning the mux reader: {e}"))
            })?;
        Ok(Self {
            shared,
            writer: Mutex::new(writer),
            reader: Some(reader),
        })
    }

    /// Register `id` with its completion and write one pre-encoded request
    /// frame on the calling thread; the completion runs later, exactly
    /// once, on the reader thread. A failed write poisons the mux with
    /// [`MuxErrorKind::Io`], which every registered completion receives.
    ///
    /// Registers nothing, and returns the error without running
    /// `complete`, when the mux is poisoned or `id` is still in flight
    /// ([`MuxErrorKind::Decode`], without poisoning: a second registration
    /// could cross-wire the old request's late reply into the new caller).
    pub fn submit(
        &self,
        id: u64,
        frame: &[u8],
        complete: impl FnOnce(Result<R, MuxError>, Instant) + Send + 'static,
    ) -> Result<(), MuxError> {
        {
            let mut st = self.shared.lock();
            if let Some(err) = &st.poisoned {
                return Err(err.clone());
            }
            if st.pending.contains_key(&id) {
                return Err(MuxError::new(
                    MuxErrorKind::Decode,
                    format!("request id {id} is already in flight"),
                ));
            }
            st.high_water = Some(st.high_water.map_or(id, |hw| hw.max(id)));
            st.pending.insert(id, (Instant::now(), Box::new(complete)));
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
        Ok(())
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

    /// Number of requests whose completion has not run yet.
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

/// Read, decode and deliver replies until the connection fails or another
/// thread poisons the mux; returns why.
fn reader_loop<R>(
    mut reader: Box<dyn Read + Send>,
    shared: &Shared<R>,
    decode: &(impl Fn(u8, Vec<u8>) -> Result<(u64, R), MuxError> + Send),
    options: MuxOptions,
) -> MuxError {
    // Raw reads into a reassembly buffer instead of blocking `read_exact`
    // calls: a read timeout then never tears a frame mid-parse, it just
    // wakes the loop for the stall check below.
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        // Drain every complete frame currently buffered.
        while let Some(total) = match frame_extent(&buf, options.max_payload) {
            Ok(total) => total,
            Err(e) => return e,
        } {
            // Re-read the complete frame through the checksummed codec so
            // corruption is caught exactly as on the blocking path.
            let parsed = crate::frame::read_frame(
                &mut std::io::Cursor::new(&buf[..total]),
                options.max_payload,
            );
            buf.drain(..total);
            let delivered = match parsed {
                Ok((tag, payload)) => {
                    decode(tag, payload).and_then(|(id, reply)| shared.deliver(id, reply))
                }
                Err(e) => Err(MuxError::new(MuxErrorKind::Frame, e.to_string())),
            };
            if let Err(e) = delivered {
                return e;
            }
        }
        // Failpoint: fail the reader thread before the next read, exactly
        // as a dropped or reset connection would surface here.
        if crate::failpoint::hit("mux.reader").is_some() {
            return MuxError::new(
                MuxErrorKind::Io,
                "failpoint mux.reader: injected read failure",
            );
        }
        match reader.read(&mut chunk) {
            Ok(0) => return MuxError::new(MuxErrorKind::Io, "connection closed by peer"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let st = shared.lock();
                if let Some(err) = &st.poisoned {
                    return err.clone();
                }
                if let Some(deadline) = options.reply_deadline {
                    if st.pending.values().any(|(at, _)| at.elapsed() >= deadline) {
                        let detail = format!("no reply within {deadline:?}");
                        return MuxError::new(MuxErrorKind::Stalled, detail);
                    }
                }
            }
            Err(e) => return MuxError::new(MuxErrorKind::Io, e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::sync::mpsc::{sync_channel, Receiver};

    type Reply = Result<(u8, Vec<u8>), MuxError>;

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

    /// Submit a request whose completion forwards its outcome (and the
    /// delivery instant) to the returned receiver.
    fn submit<R: Send + 'static>(
        mux: &Mux<R>,
        id: u64,
        frame: &[u8],
    ) -> Receiver<(Result<R, MuxError>, Instant)> {
        let (tx, rx) = sync_channel(1);
        mux.submit(id, frame, move |reply, at| {
            let _ = tx.send((reply, at));
        })
        .expect("the request registers");
        rx
    }

    fn wait(rx: Receiver<(Reply, Instant)>) -> Reply {
        rx.recv().expect("the completion ran").0
    }

    /// Echo every frame back until the client hangs up.
    fn echo(mut stream: TcpStream) {
        while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
            write_frame(&mut stream, tag, &payload).expect("echo");
        }
    }

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

    /// A write half whose every write fails.
    struct BrokenPipe;
    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(ErrorKind::BrokenPipe))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A mux over a write half that always fails and a read half that
    /// blocks until the closer fires; `closes` counts the closer calls.
    fn broken_mux(closes: &Arc<std::sync::atomic::AtomicUsize>) -> Mux<()> {
        let gate = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let (closer_gate, closer_count) = (Arc::clone(&gate), Arc::clone(closes));
        Mux::spawn(
            "broken",
            Box::new(GatedReader(gate)),
            Box::new(BrokenPipe),
            Box::new(move || {
                closer_count.fetch_add(1, Ordering::SeqCst);
                *closer_gate.0.lock().unwrap() = true;
                closer_gate.1.notify_all();
            }),
            MuxOptions::default(),
            |_, _| Err(MuxError::new(MuxErrorKind::Decode, "no replies expected")),
        )
        .expect("spawn mux")
    }

    #[test]
    fn concurrent_submits_correlate_over_one_stream() {
        let (addr, server) = frame_server(echo);
        let mux = Arc::new(connect_mux(&addr, MuxOptions::default()));
        let mut threads = Vec::new();
        for t in 0..8u64 {
            let mux = Arc::clone(&mux);
            threads.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let id = t * 1000 + i;
                    let body = format!("thread {t} request {i}").into_bytes();
                    let pending = submit(&mux, id, &request_bytes(7, id, &body));
                    let (tag, payload) = wait(pending).expect("echoed reply");
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
        let p1 = submit(&mux, 1, &request_bytes(3, 1, b"first"));
        let p2 = submit(&mux, 2, &request_bytes(3, 2, b"second"));
        let (_, payload2) = wait(p2).expect("reply for id 2");
        let (_, payload1) = wait(p1).expect("reply for id 1");
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
        let err = wait(submit(&mux, 1, &request_bytes(3, 1, b"doomed"))).expect_err("peer hung up");
        assert_eq!(err.kind, MuxErrorKind::Io);
        assert!(mux.is_poisoned());
        // Subsequent submits are refused with the original error, and
        // their completion never runs.
        let err = mux
            .submit(2, &request_bytes(3, 2, b"late"), |_, _| {
                panic!("a refused submit registers nothing")
            })
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
        let err =
            wait(submit(&mux, 5, &request_bytes(3, 5, b"x"))).expect_err("unknown id must poison");
        assert_eq!(err.kind, MuxErrorKind::Decode);
        assert!(err.detail.contains("unknown request id"));
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
        let err = wait(submit(&mux, 1, &request_bytes(3, 1, b"never answered")))
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
        let first = submit(&mux, 1, &request_bytes(3, 1, &[7u8; 40]));
        let second = submit(&mux, 2, &request_bytes(3, 2, b"also in flight"));
        for pending in [first, second] {
            let err = wait(pending).expect_err("the torn frame must surface");
            assert_eq!(err.kind, MuxErrorKind::Stalled);
        }
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_failed_write_poisons_the_submit_and_fires_the_closer_once() {
        let closes = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mux = broken_mux(&closes);
        let (err, _) = submit(&mux, 1, &request_bytes(3, 1, b"x"))
            .recv()
            .expect("the completion ran");
        let err = err.expect_err("the write fails");
        assert_eq!(err.kind, MuxErrorKind::Io);
        assert!(mux.is_poisoned());
        assert_eq!(closes.load(Ordering::SeqCst), 1);
        let later = mux
            .submit(2, &request_bytes(3, 2, b"y"), |_, _| {})
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
        let err = wait(submit(&mux, 1, &request_bytes(3, 1, b"x"))).expect_err("decode rejection");
        assert_eq!(err.kind, MuxErrorKind::Decode);
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_reused_id_is_rejected_while_abandoned_and_safe_after_the_drain() {
        let (addr, server) = frame_server(|mut stream| {
            // Hold tag-4 requests; answer each tag-3 request after echoing
            // everything held before it.
            let mut held = Vec::new();
            while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
                held.push((tag, payload));
                if tag == 3 {
                    for (tag, payload) in held.drain(..) {
                        write_frame(&mut stream, tag, &payload).expect("echo");
                    }
                }
            }
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        // A hedge's loser: its caller no longer cares, but id 7 stays
        // registered until its reply arrives.
        let loser = submit(&mux, 7, &request_bytes(4, 7, b"loser"));
        // Reusing the id now would let the old request's late reply
        // cross-wire into the new caller: typed refusal, no poison.
        let err = mux
            .submit(7, &request_bytes(3, 7, b"reused too early"), |_, _| {
                panic!("a refused submit registers nothing")
            })
            .expect_err("reuse while in flight must be refused");
        assert_eq!(err.kind, MuxErrorKind::Decode);
        assert!(err.detail.contains("already in flight"));
        assert!(!mux.is_poisoned(), "a refused reuse must not poison");
        // Another id is unaffected, and its reply follows the loser's.
        let (_, payload) = wait(submit(&mux, 8, &request_bytes(3, 8, b"unaffected")))
            .expect("fresh id still round-trips");
        assert_eq!(&payload[8..], b"unaffected");
        let (_, payload) = wait(loser).expect("the loser's reply drained");
        assert_eq!(&payload[8..], b"loser");
        // Drained, the id is free again.
        let (_, payload) = wait(submit(&mux, 7, &request_bytes(3, 7, b"reused")))
            .expect("reused id after the drain");
        assert_eq!(&payload[8..], b"reused");
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_drained_duplicate_reply_does_not_corrupt_a_later_reused_id() {
        // The peer answers id 5 twice. The second copy is a stale
        // duplicate of our own traffic (at or below the submit high-water
        // mark): discarded quietly, and a later request reusing the id
        // gets *its own* reply, never the stale one.
        let (addr, server) = frame_server(|mut stream| {
            while let Ok((tag, payload)) = read_frame(&mut stream, 1 << 20) {
                write_frame(&mut stream, tag, &payload).expect("echo");
                if tag == 5 {
                    write_frame(&mut stream, tag, &payload).expect("duplicate");
                }
            }
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        let (_, payload) =
            wait(submit(&mux, 5, &request_bytes(5, 5, b"stale loser reply"))).expect("first copy");
        assert_eq!(&payload[8..], b"stale loser reply");
        // Replies arrive in order, so once id 6 is answered the duplicate
        // has been read and discarded.
        wait(submit(&mux, 6, &request_bytes(3, 6, b"barrier"))).expect("barrier reply");
        assert!(!mux.is_poisoned(), "a drained duplicate must not poison");
        let (_, payload) = wait(submit(&mux, 5, &request_bytes(3, 5, b"fresh winner reply")))
            .expect("reused id after the drain");
        assert_eq!(&payload[8..], b"fresh winner reply");
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn arrival_time_is_the_delivery_not_the_poll() {
        let (addr, server) = frame_server(echo);
        let mux = connect_mux(&addr, MuxOptions::default());
        let submitted = Instant::now();
        let pending = submit(&mux, 1, &request_bytes(3, 1, b"stamp"));
        // The echo lands long before this receive runs.
        std::thread::sleep(Duration::from_millis(200));
        let polled = Instant::now();
        let (reply, arrived) = pending.recv().expect("the completion ran");
        assert!(reply.is_ok(), "echoed reply");
        assert!(submitted <= arrived && arrived < polled);
        drop(mux);
        server.join().expect("server thread");
    }

    #[test]
    fn a_completion_runs_once_on_the_reader_thread_for_every_outcome() {
        /// A completion that logs the thread it ran on and the outcome's
        /// error kind (`None` for a reply).
        type Log = Arc<Mutex<Vec<(Option<String>, Option<MuxErrorKind>)>>>;
        fn logging<R>(log: &Log) -> impl FnOnce(Result<R, MuxError>, Instant) + Send + 'static {
            let log = Arc::clone(log);
            move |reply, _| {
                let thread = std::thread::current().name().map(str::to_string);
                log.lock()
                    .unwrap()
                    .push((thread, reply.err().map(|e| e.kind)));
            }
        }
        let reader = Some("mux-reader".to_string());

        // A reply.
        let log = Log::default();
        let (addr, server) = frame_server(echo);
        let mux = connect_mux(&addr, MuxOptions::default());
        mux.submit(1, &request_bytes(3, 1, b"answered"), logging(&log))
            .expect("registers");
        let deadline = Instant::now() + Duration::from_secs(10);
        while mux.in_flight() > 0 {
            assert!(Instant::now() < deadline, "the echo never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(mux);
        server.join().expect("server thread");
        assert_eq!(*log.lock().unwrap(), vec![(reader.clone(), None)]);

        // A peer hangup.
        let log = Log::default();
        let (addr, server) = frame_server(|mut stream| {
            let _ = read_frame(&mut stream, 1 << 20);
        });
        let mux = connect_mux(&addr, MuxOptions::default());
        mux.submit(1, &request_bytes(3, 1, b"hung up"), logging(&log))
            .expect("registers");
        server.join().expect("server thread");
        while !mux.is_poisoned() {
            assert!(Instant::now() < deadline, "the hangup was never seen");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(mux);
        assert_eq!(
            *log.lock().unwrap(),
            vec![(reader.clone(), Some(MuxErrorKind::Io))]
        );

        // A failed write, poisoned by the submitter.
        let log = Log::default();
        let mux = broken_mux(&Arc::default());
        mux.submit(1, &request_bytes(3, 1, b"unwritable"), logging(&log))
            .expect("registers before the write fails");
        drop(mux);
        assert_eq!(
            *log.lock().unwrap(),
            vec![(reader.clone(), Some(MuxErrorKind::Io))]
        );

        // A drop with the request still unanswered.
        let log = Log::default();
        let (addr, server) = frame_server(
            |mut stream| {
                while read_frame(&mut stream, 1 << 20).is_ok() {}
            },
        );
        let mux = connect_mux(&addr, MuxOptions::default());
        mux.submit(1, &request_bytes(3, 1, b"never answered"), logging(&log))
            .expect("registers");
        drop(mux);
        server.join().expect("server thread");
        assert_eq!(
            *log.lock().unwrap(),
            vec![(reader, Some(MuxErrorKind::Closed))]
        );
    }

    #[test]
    fn error_display_names_the_kind() {
        let e = MuxError::new(MuxErrorKind::Stalled, "no reply within 30s");
        assert!(e.to_string().contains("stalled"));
        let e = MuxError::new(MuxErrorKind::Remote, "fingerprint mismatch");
        assert!(e.to_string().contains("fingerprint mismatch"));
    }
}
