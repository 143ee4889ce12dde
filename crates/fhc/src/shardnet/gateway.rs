//! `fhc-gateway` — a pipelined, batching front door for the shard fleet.
//!
//! A [`Gateway`] sits between many serving clients and the `fhc-shardd`
//! workers. It speaks the same wire protocol on both sides: to its clients
//! it looks like a single worker serving *every* class (so a one-shard
//! [`FleetBackend`](crate::shardnet::FleetBackend) — the `gateway:EP`
//! spec — connects to it unchanged), while behind it the fleet's real
//! partitions stay hidden.
//! What the extra hop buys is **coalescing**: queries arriving concurrently
//! from any number of client connections are packed into
//! [`ScoreBatchRequest`](wire::ScoreBatchRequest) frames — one checksummed
//! frame, many queries — so the per-frame wire and syscall overhead is paid
//! once per burst instead of once per query.
//!
//! ```text
//!  clients                  gateway                                 workers
//!  ───────                  ──────────────────────────────────────  ───────
//!  conn A ──┐               per-conn reader ─┬─► queue ─► batcher ═══ shard 0
//!  conn B ──┼─ TCP/UDS ──►  (a job per shard)└─► queue ─► batcher ═══ shard 1
//!  conn C ──┘               per-conn writer ◄──── rows ── mux readers
//!                           (merges, answers in order)   (completions)
//! ```
//!
//! The shard side is a [`FleetView`]: each shard is a fleet member, a
//! primary endpoint plus any replicas, driven by one **batcher** thread.
//! It drains the shard's job queue, packs up to
//! [`GatewayOptions::max_batch`] queries into one batch frame and starts a
//! race with it on the member, writing the frame on its own thread. When
//! the reply lands, the completion on the node's mux reader splits its
//! rows straight into the reply slots of the queries that asked. Starting
//! never waits for a reply, so the shard sockets stay full. The batcher
//! also fires hedges and failovers: it waits on its queue no longer than
//! the earliest hedge deadline, and a failed node wakes it through the
//! queue. A replica-less member has no deadline; its batcher sleeps until
//! the next job.
//!
//! Client connections are pipelined the same way: a reader thread submits
//! every incoming query to the shard queues the moment it is decoded, and
//! the connection's writer answers in request order as the merged rows
//! complete — on a thread of its own, so a client that stops reading
//! stalls only itself, never the mux readers that carry every client's
//! rows. Every worker must advertise batch scoring
//! ([`wire::FEATURE_SCORE_BATCH`]); one that does not is refused.
//!
//! Backpressure runs from a slow shard to the clients: its socket's send
//! buffer fills, the batcher's write blocks, the 1024-deep shard queue
//! fills, and the client readers block on it.
//!
//! Failure keeps the fleet client's contract, because it is the fleet
//! client: the classes are dealt round-robin over the members, a slow node
//! is hedged onto its replicas, a failed one fails over to them, and a lost
//! connection is re-dialed on a later batch once the node's backoff gate
//! opens. Only when every node of a shard has failed does a query see an
//! error, and then as a typed error frame — never a wrong or partial row.

use crate::features::PreparedSampleFeatures;
use crate::shardnet::fleet::{
    batch_reply, FleetMember, FleetTopology, FleetView, HedgedRequest, RaceOutcome,
};
use crate::shardnet::remote::merge_partial_row;
use crate::shardnet::wire::{self, Frame, Hello, ScoreBatchResponse, ScoreResponse};
use crate::shardnet::{serve_listener, Listener, NetError};
use crate::similarity::ReferenceSet;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Most responses a client connection may have outstanding before its
/// reader stops decoding new requests. The bound is what creates
/// backpressure: once the writer falls this far behind — a client that
/// keeps sending but never reads its responses — the reader blocks, the
/// connection's receive buffer fills, and the client's own sends stall,
/// instead of the gateway buffering an unbounded queue of merged rows for
/// a peer that takes none. Far above any sane pipelining depth, so a
/// well-behaved client never feels it.
const CLIENT_PIPELINE_LIMIT: usize = 128;

/// Bound on each shard's job queue. Several clients bursting at
/// [`CLIENT_PIPELINE_LIMIT`] fit comfortably; past that, submitting blocks
/// the client readers — backpressure all the way to the client sockets —
/// instead of queueing unboundedly in front of a slow shard.
const SHARD_QUEUE_DEPTH: usize = 1024;

/// Tunables for a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayOptions {
    /// **Cap** on the adaptive batch target: the most queries ever packed
    /// into one batch frame per shard. The actual target floats between
    /// `MIN_BATCH_TARGET` and this cap with load (see
    /// `next_batch_target`), so an idle gateway keeps head-of-line
    /// latency low while a loaded one amortizes framing across large
    /// packs. Clamped per shard by [`wire::max_batch_rows_for`] over the
    /// shard's partition width, so the dense batch *response* can never
    /// exceed [`wire::MAX_FRAME_PAYLOAD`].
    pub max_batch: usize,
    /// The tenant this gateway serves, on both sides of the hop: it is
    /// selected on every worker dial and advertised in the gateway's
    /// own client [`Hello`]. `None` means the default tenant
    /// ([`wire::DEFAULT_TENANT`]). A gateway fronts exactly one tenant;
    /// run one gateway per tenant to multiplex.
    pub tenant: Option<String>,
    /// Per-tenant request-rate quotas, `(tenant, requests_per_second)`.
    /// A gateway fronts exactly one tenant, so only the entry naming its
    /// own tenant arms a `TokenBucket`; entries for other tenants are
    /// inert here, which lets a fleet of per-tenant gateways share one
    /// flag set. Each admitted query costs one token (a batch of `k`
    /// costs `k`); an empty bucket answers with a wire
    /// [`Overload`](wire::Overload) frame instead of scoring.
    pub quotas: Vec<(String, u32)>,
    /// Global ceiling on queries admitted but not yet answered, across
    /// every client connection. `None` means unlimited. At the ceiling
    /// the gateway sheds — again as a typed `Overload` frame — rather
    /// than queueing without bound in front of a saturated fleet.
    pub max_inflight: Option<usize>,
}

impl Default for GatewayOptions {
    fn default() -> Self {
        Self {
            max_batch: 256,
            tenant: None,
            quotas: Vec::new(),
            max_inflight: None,
        }
    }
}

/// Floor of the adaptive batch target: even a freshly idle shard packs up
/// to this many queued queries into one frame, since a pack this small
/// costs no measurable head-of-line latency.
const MIN_BATCH_TARGET: usize = 8;

/// The load-adaptive batch target, advanced after every pack.
///
/// `drained` is how many queries the last pack actually took (bounded by
/// the `current` target). A pack that *filled* its target means the queue
/// had more waiting — the target doubles toward `cap` so the next frame
/// amortizes better. A pack under half the target means the burst has
/// passed — the target halves toward the floor so a lone query stops
/// waiting on a big-batch drain. In between, the target holds. Pure and
/// deterministic, so the growth/shrink schedule is unit-testable without a
/// gateway.
fn next_batch_target(current: usize, drained: usize, cap: usize) -> usize {
    let cap = cap.max(1);
    let floor = MIN_BATCH_TARGET.min(cap);
    if drained >= current {
        current.saturating_mul(2).clamp(floor, cap)
    } else if drained < current / 2 {
        (current / 2).clamp(floor, cap)
    } else {
        current.clamp(floor, cap)
    }
}

/// What a shed request is told to wait when the rejection has no natural
/// deadline (the inflight ceiling, unlike an empty token bucket, gives no
/// refill schedule to quote). Queries complete in milliseconds, so a short
/// backoff is honest.
const INFLIGHT_RETRY_MS: u32 = 25;

/// A token-bucket rate limiter: `capacity` tokens, refilled continuously
/// at `refill_per_sec`. Admission takes one token per query; an empty
/// bucket reports how long until enough tokens will have dripped back in,
/// which becomes the `retry_after_ms` the client is told on the wire.
struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    state: Mutex<BucketState>,
}

struct BucketState {
    tokens: f64,
    refilled_at: Instant,
}

impl TokenBucket {
    fn new(rps: u32, now: Instant) -> Self {
        Self {
            capacity: f64::from(rps),
            refill_per_sec: f64::from(rps),
            state: Mutex::new(BucketState {
                tokens: f64::from(rps),
                refilled_at: now,
            }),
        }
    }

    /// Take `n` tokens, or report how many milliseconds until they will be
    /// available. A request wider than the whole bucket is charged a full
    /// bucket instead of being unadmittable forever.
    fn try_take(&self, n: usize, now: Instant) -> Result<(), u32> {
        let cost = (n as f64).min(self.capacity);
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let elapsed = now.saturating_duration_since(state.refilled_at);
        state.tokens =
            (state.tokens + elapsed.as_secs_f64() * self.refill_per_sec).min(self.capacity);
        state.refilled_at = now;
        if state.tokens >= cost {
            state.tokens -= cost;
            return Ok(());
        }
        let deficit = cost - state.tokens;
        let wait_ms = (deficit / self.refill_per_sec * 1000.0).ceil();
        Err((wait_ms as u32).max(1))
    }
}

/// The gateway-wide count of admitted-but-unanswered queries, checked
/// against [`GatewayOptions::max_inflight`].
struct InflightGauge {
    current: AtomicUsize,
    limit: usize,
}

impl InflightGauge {
    /// Reserve `n` slots, or refuse without touching the gauge. The CAS
    /// loop keeps concurrent reader threads from conspiring past the
    /// limit.
    fn try_admit(self: &Arc<Self>, n: usize) -> Option<InflightGuard> {
        let mut current = self.current.load(Ordering::Relaxed);
        loop {
            if current.saturating_add(n) > self.limit {
                return None;
            }
            match self.current.compare_exchange_weak(
                current,
                current + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(InflightGuard {
                        gauge: Arc::clone(self),
                        n,
                    })
                }
                Err(actual) => current = actual,
            }
        }
    }
}

/// Releases its reservation on drop, so every exit path — merged rows
/// written, shard fault, client hangup with work still queued — returns
/// the slots.
struct InflightGuard {
    gauge: Arc<InflightGauge>,
    n: usize,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.gauge.current.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// The gateway's armed admission controls; both `None` when unconfigured,
/// which keeps the admit check on the hot path to two `Option` tests.
struct Admission {
    bucket: Option<TokenBucket>,
    inflight: Option<Arc<InflightGauge>>,
}

impl Admission {
    fn from_options(options: &GatewayOptions, tenant: &str, now: Instant) -> Self {
        let bucket = options
            .quotas
            .iter()
            .find(|(quota_tenant, _)| quota_tenant == tenant)
            .map(|&(_, rps)| TokenBucket::new(rps, now));
        let inflight = options.max_inflight.map(|limit| {
            Arc::new(InflightGauge {
                current: AtomicUsize::new(0),
                limit,
            })
        });
        Self { bucket, inflight }
    }

    /// Admit `n` queries or say how long the client should wait. The
    /// bucket is charged before the gauge is consulted: a shed request
    /// still spends its quota, so a client hammering an overloaded
    /// gateway drains its own allowance, not its neighbours' service.
    fn try_admit(&self, n: usize) -> Result<Option<InflightGuard>, u32> {
        if let Some(bucket) = &self.bucket {
            bucket.try_take(n, Instant::now())?;
        }
        match &self.inflight {
            None => Ok(None),
            Some(gauge) => gauge.try_admit(n).map(Some).ok_or(INFLIGHT_RETRY_MS),
        }
    }
}

/// One query's partial row from one shard, or why the shard could not
/// answer it.
type RowResult = Result<Vec<(u32, f64)>, String>;

/// One query enqueued to one shard's batcher.
struct ShardJob {
    query: Arc<PreparedSampleFeatures>,
    reply: SyncSender<RowResult>,
}

/// What a shard's batcher receives: a query, a wake from one of its races,
/// or the gateway's close.
enum ShardInput {
    Job(ShardJob),
    Wake,
    Close,
}

/// The gateway's handle on one shard: where to enqueue jobs, and the
/// partition the shard's rows are validated against. `peer` names the
/// shard's primary endpoint.
struct ShardHandle {
    peer: String,
    classes: Vec<usize>,
    queue: SyncSender<ShardInput>,
}

/// The batching front door itself: validated connections to the whole
/// shard fleet, one batcher thread per shard.
///
/// Built with [`Gateway::connect`] (handshake, fingerprint and
/// batch-support validation, partition assignment) and served with
/// [`serve_tcp`] / [`serve_unix`] — or driven in process through
/// [`serve_client`]. Dropping the gateway closes the shard queues; each
/// batcher starts what was queued, waits until every batch it started is
/// answered, and is joined.
pub struct Gateway {
    reference: Arc<ReferenceSet>,
    /// Computed once: a full reference walk, served on every client
    /// handshake.
    fingerprint: u64,
    /// The tenant this gateway serves (see [`GatewayOptions::tenant`]).
    tenant: String,
    /// Armed admission controls (quota bucket, inflight gauge); shared
    /// with every connection's reader thread.
    admission: Arc<Admission>,
    shards: Vec<ShardHandle>,
    /// One batcher thread per shard, reaped in [`Drop`] after the shard
    /// queues close.
    batchers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("n_shards", &self.shards.len())
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Connect the shard fleet declared by `topology` (see
    /// [`FleetView::connect`]) and spawn one batching pipeline per
    /// member. A worker that fails the handshake — including one without
    /// batch scoring — is a typed [`NetError::Handshake`]. The classes are
    /// dealt round-robin over the shards in topology order and assigned
    /// over the wire to any worker advertising another partition.
    pub fn connect(
        reference: Arc<ReferenceSet>,
        topology: FleetTopology,
        options: GatewayOptions,
    ) -> Result<Self, NetError> {
        if options.max_batch == 0 {
            return Err(NetError::Partition(
                "gateway max_batch must be at least 1".into(),
            ));
        }
        if let Some((tenant, _)) = options.quotas.iter().find(|&&(_, rps)| rps == 0) {
            return Err(NetError::Partition(format!(
                "quota for tenant {tenant:?} must be at least 1 request per second"
            )));
        }
        if options.max_inflight == Some(0) {
            return Err(NetError::Partition(
                "gateway max_inflight must be at least 1".into(),
            ));
        }
        let tenant = options
            .tenant
            .clone()
            .unwrap_or_else(|| wire::DEFAULT_TENANT.to_string());
        if !wire::valid_tenant(&tenant) {
            return Err(NetError::Tenant {
                peer: "gateway".into(),
                tenant,
                detail: format!(
                    "not a valid tenant id (want 1..={} characters of [A-Za-z0-9._-])",
                    wire::MAX_TENANT_LEN
                ),
            });
        }
        let admission = Arc::new(Admission::from_options(&options, &tenant, Instant::now()));
        let view = Arc::new(FleetView::connect(
            Arc::clone(&reference),
            topology,
            options.tenant.as_deref(),
        )?);
        let fingerprint = reference.fingerprint();
        // Columns per class across the active views; a shard's dense
        // partial row carries classes * kinds cells.
        let n_kinds = match reference.n_classes() {
            0 => 0,
            n => reference.n_columns() / n,
        };
        let members = view.members();
        // On an early return the half-built gateway drops: its Drop closes
        // the batchers already spawned and joins them.
        let mut gateway = Self {
            reference,
            fingerprint,
            tenant,
            admission,
            shards: Vec::with_capacity(members.len()),
            batchers: Vec::with_capacity(members.len()),
        };
        // Members are built in topology order.
        for (shard, member) in view.topology().shards.iter().zip(members) {
            let peer = shard.primary.to_string();
            let classes = member.classes().to_vec();
            let (queue, inputs) = mpsc::sync_channel::<ShardInput>(SHARD_QUEUE_DEPTH);
            // Clamp the batch per shard so its worst-case dense batch
            // response stays under the frame budget even on wide
            // geometries.
            let max_batch = options
                .max_batch
                .min(wire::max_batch_rows_for(classes.len() * n_kinds));
            let (view, batcher_peer, wake) = (Arc::clone(&view), peer.clone(), queue.clone());
            let batcher = std::thread::Builder::new()
                .name("gw-batcher".into())
                .spawn(move || {
                    batcher_loop(&view, &member, &batcher_peer, &inputs, &wake, max_batch)
                })
                .map_err(|e| NetError::Io {
                    peer: peer.clone(),
                    source: e,
                })?;
            gateway.batchers.push(batcher);
            gateway.shards.push(ShardHandle {
                peer,
                classes,
                queue,
            });
        }
        Ok(gateway)
    }

    /// The reference set the fleet serves.
    pub fn reference(&self) -> &ReferenceSet {
        &self.reference
    }

    /// The tenant this gateway serves.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Number of shards (fleet members) behind this gateway.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The handshake the gateway answers clients with: it presents as one
    /// worker serving every class, so the real fleet partition never
    /// leaks past the gateway. [`wire::FEATURE_OVERLOAD`] is advertised
    /// because the gateway may answer any request with a wire
    /// [`Overload`](wire::Overload) frame when admission sheds it.
    fn hello(&self) -> Hello {
        Hello {
            protocol: wire::PROTOCOL_VERSION,
            features: wire::FEATURE_SCORE_BATCH | wire::FEATURE_OVERLOAD,
            fingerprint: self.fingerprint,
            n_classes: self.reference.n_classes(),
            n_columns: self.reference.n_columns(),
            classes: (0..self.reference.n_classes()).collect(),
            tenant: self.tenant.clone(),
        }
    }

    /// Await one query's partial rows from every shard and max-merge them
    /// into the full dense row, validated cell by cell against each
    /// shard's partition (a buggy or malicious worker cannot write columns
    /// it does not own).
    fn collect_full_row(
        &self,
        replies: Vec<Receiver<RowResult>>,
    ) -> Result<Vec<(u32, f64)>, NetError> {
        let n_classes = self.reference.n_classes();
        let mut row = vec![0.0f64; self.reference.n_columns()];
        for (shard, reply) in self.shards.iter().zip(replies) {
            let cells = reply
                .recv()
                .unwrap_or_else(|_| Err("shard pipeline closed".into()))
                .map_err(|detail| NetError::WorkerLost {
                    peer: shard.peer.clone(),
                    detail,
                })?;
            merge_partial_row(&shard.peer, &shard.classes, n_classes, cells, &mut row)?;
        }
        Ok(row
            .into_iter()
            .enumerate()
            .map(|(column, score)| (column as u32, score))
            .collect())
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // Close each shard queue behind the jobs already in it.
        for shard in self.shards.drain(..) {
            let _ = shard.queue.send(ShardInput::Close);
        }
        for batcher in self.batchers.drain(..) {
            let _ = batcher.join();
        }
    }
}

/// Enqueue one query to every shard, returning the reply receivers in
/// shard order. Sending never waits on the network — the batcher threads
/// do that — though a shard queue at [`SHARD_QUEUE_DEPTH`] blocks here
/// until its batcher drains a slot, which is the backpressure that keeps a
/// slow shard from buffering an unbounded backlog. A send to a dead
/// batcher is deliberately ignored: the dropped reply sender surfaces the
/// loss at collect time, attributed to the right peer.
fn submit_to_shards(
    queues: &[SyncSender<ShardInput>],
    query: &Arc<PreparedSampleFeatures>,
) -> Vec<Receiver<RowResult>> {
    queues
        .iter()
        .map(|queue| {
            // Oneshot: each job is answered at most once (row or fault), so
            // capacity 1 means the sender — usually a mux completion —
            // never blocks.
            let (reply, rx) = mpsc::sync_channel(1);
            let _ = queue.send(ShardInput::Job(ShardJob {
                query: Arc::clone(query),
                reply,
            }));
            rx
        })
        .collect()
}

/// Drive one shard: pack queued queries into batch frames, start each as a
/// race on the shard's member without awaiting replies, and fire hedges
/// and failovers as they fall due; completions route the rows
/// ([`route_rows`]). On the close, exits once every race has finished.
fn batcher_loop(
    view: &FleetView,
    member: &Arc<FleetMember>,
    peer: &str,
    inputs: &Receiver<ShardInput>,
    wake: &SyncSender<ShardInput>,
    max_batch: usize,
) {
    let mut next_id = 0u64;
    // The batch target adapts to load between MIN_BATCH_TARGET and
    // max_batch; an idle gateway sends small frames fast, a loaded one
    // packs big frames.
    let mut target = MIN_BATCH_TARGET.min(max_batch);
    let mut open: Vec<HedgedRequest> = Vec::new();
    let mut closing = false;
    while !closing || !open.is_empty() {
        match view.drive(inputs, &open) {
            Ok(ShardInput::Job(first)) if !closing => {
                // The coalescing moment: everything already queued — from
                // any client connection — rides in this frame, up to the
                // current adaptive target.
                let mut pack = vec![first];
                while pack.len() < target {
                    match inputs.try_recv() {
                        Ok(ShardInput::Job(job)) => pack.push(job),
                        Ok(input) => closing |= matches!(input, ShardInput::Close),
                        Err(_) => break,
                    }
                }
                target = next_batch_target(target, pack.len(), max_batch);
                // Failpoint: losing a pack at the coalescing moment must
                // fault exactly the queries it carried, never wedge the
                // batcher.
                if let Err(e) = crate::shardnet::inject("gateway.coalesce", peer) {
                    fault_jobs(pack, &e.to_string());
                    continue;
                }
                let bytes =
                    wire::score_batch_request_bytes(next_id, pack.iter().map(|j| j.query.as_ref()));
                let (route_peer, wake) = (peer.to_string(), wake.clone());
                let deliver = move |outcome| route_rows(pack, &route_peer, outcome);
                // A wake lost to a full queue is harmless: a job wakes it.
                let wake = move || drop(wake.try_send(ShardInput::Wake));
                open.push(view.start_request(member, next_id, bytes, deliver, wake));
                next_id += 1;
            }
            // (The batcher's own sender keeps the queue connected.)
            Ok(ShardInput::Close) | Err(RecvTimeoutError::Disconnected) => closing = true,
            // A wake, a due hedge, or a job after the close: its query sees
            // the shard pipeline close.
            _ => {}
        }
        open.retain(|request| request.is_running(closing));
    }
}

/// Route one batch's outcome to the queries it carried: each row to its
/// query's one-slot reply channel, or one fault to them all. Usually runs
/// in the winning node's mux completion.
fn route_rows(jobs: Vec<ShardJob>, peer: &str, outcome: RaceOutcome) {
    // Failpoint: a completion that cannot route its reply faults exactly
    // the batch it was for.
    let routed = crate::shardnet::inject("gateway.distribute", peer)
        .and_then(|()| batch_reply(outcome, jobs.len()));
    match routed {
        Ok((_, batch)) => {
            for (job, row) in jobs.into_iter().zip(batch.rows) {
                let _ = job.reply.try_send(Ok(row));
            }
        }
        // A worker shedding load behind the gateway is a shard fault for
        // the queries in flight, not the gateway's own overload.
        Err(e) => fault_jobs(jobs, &e.to_string()),
    }
}

fn fault_jobs(jobs: Vec<ShardJob>, detail: &str) {
    for job in jobs {
        let _ = job.reply.try_send(Err(detail.to_string()));
    }
}

/// Work items handed from a client connection's reader thread to its
/// writer: each one's shard replies were already submitted, so the writer
/// only collects, merges, and answers — in request order.
enum ClientWork {
    Row {
        id: u64,
        replies: Vec<Receiver<RowResult>>,
        /// Inflight reservation, released when the row is answered (or
        /// the connection dies with the work still queued).
        guard: Option<InflightGuard>,
    },
    Batch {
        id: u64,
        queries: Vec<Vec<Receiver<RowResult>>>,
        guard: Option<InflightGuard>,
    },
    /// Admission shed this request: answer it with a wire
    /// [`Overload`](wire::Overload) frame — the connection stays open and
    /// later requests are admitted on their own merits.
    Reject {
        id: u64,
        retry_after_ms: u32,
    },
    /// A tenant-select [`Hello`] from the client: confirmed with the
    /// gateway's own greeting when the tenant matches, refused with a
    /// typed error otherwise (a gateway fronts exactly one tenant).
    Greet {
        tenant: String,
    },
    Fail {
        detail: String,
    },
}

/// Serve one client connection: handshake, then answer score requests
/// until the client says goodbye (a `Shutdown` frame, a clean EOF, or the
/// idle read deadline).
///
/// The connection is **pipelined**: `reader` moves to a dedicated thread
/// that decodes frames and submits every query to the shard queues the
/// moment it arrives, while this thread writes the merged responses back
/// in request order. A client that keeps several requests in flight
/// therefore overlaps its round trips end to end — through the gateway
/// *and* through the shard sockets behind it.
///
/// A shard failure or a protocol violation answers the client with a
/// best-effort `Error` frame, then returns the typed error; the caller
/// owns closing the transport (which also unblocks the reader thread).
pub fn serve_client<R, W>(
    gateway: &Gateway,
    reader: R,
    mut writer: W,
    peer: &str,
) -> Result<(), NetError>
where
    R: Read + Send + 'static,
    W: Write,
{
    Frame::Hello(gateway.hello()).write_to(&mut writer, peer)?;
    let queues: Vec<SyncSender<ShardInput>> =
        gateway.shards.iter().map(|s| s.queue.clone()).collect();
    // Bounded on purpose (see [`CLIENT_PIPELINE_LIMIT`]): a client that
    // stops reading responses eventually blocks its own reader instead of
    // growing this queue without limit.
    let (work_tx, work_rx) = mpsc::sync_channel::<ClientWork>(CLIENT_PIPELINE_LIMIT);
    // The gateway answers every class, so a client batch's response rows
    // are dense over the full geometry; batches whose response could not
    // fit in one frame are rejected up front.
    let max_client_batch = wire::max_batch_rows_for(gateway.reference.n_columns());
    let reader_peer = peer.to_string();
    let admission = Arc::clone(&gateway.admission);
    // Detached on purpose: the reader is connection-scoped and exits when
    // the caller closes the transport. If the spawn itself fails, the moved
    // `work_tx` drops and the writer below sees a clean close immediately.
    super::spawn_detached("gw-client-reader", move || {
        client_reader_loop(
            reader,
            &queues,
            &work_tx,
            &admission,
            max_client_batch,
            &reader_peer,
        )
    });

    let mut answer = || -> Result<(), NetError> {
        // When the reader hangs up, buffered work still drains: every
        // already-submitted request is answered before the clean close.
        for work in &work_rx {
            match work {
                ClientWork::Row { id, replies, guard } => {
                    let cells = gateway.collect_full_row(replies)?;
                    Frame::ScoreResponse(ScoreResponse { id, cells })
                        .write_to(&mut writer, peer)?;
                    drop(guard);
                }
                ClientWork::Batch { id, queries, guard } => {
                    let rows = queries
                        .into_iter()
                        .map(|replies| gateway.collect_full_row(replies))
                        .collect::<Result<Vec<_>, _>>()?;
                    Frame::ScoreBatchResponse(ScoreBatchResponse { id, rows })
                        .write_to(&mut writer, peer)?;
                    drop(guard);
                }
                ClientWork::Reject { id, retry_after_ms } => {
                    Frame::Overload(wire::Overload { id, retry_after_ms })
                        .write_to(&mut writer, peer)?;
                }
                ClientWork::Greet { tenant } => {
                    if tenant == gateway.tenant {
                        Frame::Hello(gateway.hello()).write_to(&mut writer, peer)?;
                    } else {
                        return Err(NetError::Tenant {
                            peer: peer.to_string(),
                            tenant,
                            detail: format!("this gateway serves only tenant {:?}", gateway.tenant),
                        });
                    }
                }
                ClientWork::Fail { detail } => {
                    return Err(NetError::Protocol {
                        peer: peer.to_string(),
                        detail,
                    });
                }
            }
        }
        Ok(())
    };
    let result = answer();
    if let Err(e) = &result {
        let _ = Frame::Error(e.to_string()).write_to(&mut writer, peer);
    }
    result
}

/// The reader half of [`serve_client`]: decode client frames and submit
/// each query to every shard queue immediately. The writer learns of each
/// request through the work channel; dropping the channel's sender is the
/// reader's clean-goodbye signal.
fn client_reader_loop<R: Read>(
    mut reader: R,
    queues: &[SyncSender<ShardInput>],
    work: &SyncSender<ClientWork>,
    admission: &Admission,
    max_client_batch: usize,
    peer: &str,
) {
    loop {
        match Frame::read_from(&mut reader, peer) {
            Ok(Frame::ScoreRequest(request)) => {
                let wire::ScoreRequest { id, query } = *request;
                let guard = match admission.try_admit(1) {
                    Ok(guard) => guard,
                    Err(retry_after_ms) => {
                        // Shed before submitting anything; the connection
                        // stays open for the retry.
                        if work
                            .send(ClientWork::Reject { id, retry_after_ms })
                            .is_err()
                        {
                            return;
                        }
                        continue;
                    }
                };
                let replies = submit_to_shards(queues, &Arc::new(query));
                if work.send(ClientWork::Row { id, replies, guard }).is_err() {
                    return;
                }
            }
            Ok(Frame::ScoreBatchRequest(batch)) if batch.queries.len() > max_client_batch => {
                // The dense response to this batch could not fit in one
                // frame; reject it before scoring anything.
                let _ = work.send(ClientWork::Fail {
                    detail: format!(
                        "batch of {} queries would overflow the response frame \
                         (at most {max_client_batch} for this geometry)",
                        batch.queries.len()
                    ),
                });
                return;
            }
            Ok(Frame::ScoreBatchRequest(batch)) => {
                // A batch of k queries costs k admission tokens and k
                // inflight slots: quota cannot be dodged by batching.
                let guard = match admission.try_admit(batch.queries.len().max(1)) {
                    Ok(guard) => guard,
                    Err(retry_after_ms) => {
                        let rejected = ClientWork::Reject {
                            id: batch.id,
                            retry_after_ms,
                        };
                        if work.send(rejected).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                // Submit the whole batch before handing it to the writer:
                // the shard batchers see the burst at once and pack it
                // into few wire frames.
                let queries = batch
                    .queries
                    .into_iter()
                    .map(|query| submit_to_shards(queues, &Arc::new(query)))
                    .collect();
                if work
                    .send(ClientWork::Batch {
                        id: batch.id,
                        queries,
                        guard,
                    })
                    .is_err()
                {
                    return;
                }
            }
            Ok(Frame::Hello(request)) => {
                // A tenant-select exchange; the writer half confirms or
                // refuses it in request order.
                if work
                    .send(ClientWork::Greet {
                        tenant: request.tenant,
                    })
                    .is_err()
                {
                    return;
                }
            }
            Ok(Frame::Shutdown) => return,
            Ok(unexpected) => {
                // Assign included: the gateway's advertised partition is
                // the whole class set and is not negotiable per client.
                let _ = work.send(ClientWork::Fail {
                    detail: format!("unexpected frame {unexpected:?} from client"),
                });
                return;
            }
            // A clean EOF between frames is a client hangup, not an error.
            Err(NetError::Io { ref source, .. })
                if source.kind() == std::io::ErrorKind::UnexpectedEof =>
            {
                return;
            }
            // The idle deadline fired: the client is likely gone — close
            // quietly, mirroring the worker's serving loop.
            Err(NetError::Io { ref source, .. })
                if matches!(
                    source.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return;
            }
            Err(e) => {
                let _ = work.send(ClientWork::Fail {
                    detail: format!("could not read client frame: {e}"),
                });
                return;
            }
        }
    }
}

/// Serve `gateway` on a TCP listener through the shared accept loop: one
/// pipelined [`serve_client`] per connection, reads bounded by
/// [`IDLE_TIMEOUT`](crate::shardnet::worker::IDLE_TIMEOUT) and writes by
/// [`IO_TIMEOUT`](crate::shardnet::IO_TIMEOUT). Returns when the listener
/// itself fails.
pub fn serve_tcp(gateway: Arc<Gateway>, listener: TcpListener) {
    serve(gateway, listener);
}

/// [`serve_tcp`] over a Unix-domain listener.
pub fn serve_unix(gateway: Arc<Gateway>, listener: UnixListener) {
    serve(gateway, listener);
}

fn serve<L: Listener>(gateway: Arc<Gateway>, listener: L) {
    serve_listener(listener, "fhc-gateway", move |mut conn, peer| {
        let reader = L::try_clone(&conn).map_err(|source| NetError::Io {
            peer: peer.to_string(),
            source,
        })?;
        let result = serve_client(&gateway, reader, &mut conn, peer);
        // Unblocks the reader thread if the writer bailed first.
        L::shutdown(&conn);
        result
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AnyBackend, BackendConfig, SimilarityBackend};
    use crate::error::FhcError;
    use crate::features::{FeatureKind, SampleFeatures};
    use crate::shardnet::worker::{self, ShardWorker, TenantHost};
    use crate::shardnet::Endpoint;

    fn reference() -> Arc<ReferenceSet> {
        let train = vec![
            SampleFeatures::extract(b"the velvet assembler executable body one"),
            SampleFeatures::extract(b"the velvet assembler executable body two"),
            SampleFeatures::extract(b"an openmalaria simulation binary payload"),
        ];
        Arc::new(ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into()],
            &train,
            &[0, 0, 1],
            &FeatureKind::ALL,
        ))
    }

    fn spawn_worker(reference: Arc<ReferenceSet>) -> Endpoint {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
        let addr = listener.local_addr().unwrap().to_string();
        let shard = Arc::new(ShardWorker::all_classes(reference));
        std::thread::spawn(move || worker::serve_tcp(shard, listener));
        Endpoint::Tcp(addr)
    }

    /// A `gateway:` backend (a one-shard fleet) pointed at `front`.
    fn dial(rs: &Arc<ReferenceSet>, front: &Endpoint) -> AnyBackend {
        format!("gateway:{front}")
            .parse::<BackendConfig>()
            .expect("gateway spec")
            .try_build(Arc::clone(rs))
            .expect("dial gateway")
    }

    fn spawn_gateway(gateway: Gateway) -> Endpoint {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback gateway");
        let addr = listener.local_addr().unwrap().to_string();
        let gateway = Arc::new(gateway);
        std::thread::spawn(move || serve_tcp(gateway, listener));
        Endpoint::Tcp(addr)
    }

    #[test]
    fn gateway_rows_are_byte_identical_to_the_indexed_backend() {
        let rs = reference();
        let endpoints = vec![spawn_worker(rs.clone()), spawn_worker(rs.clone())];
        let gateway = Gateway::connect(
            rs.clone(),
            FleetTopology::replica_less(endpoints),
            GatewayOptions::default(),
        )
        .expect("connect");
        assert_eq!(gateway.n_shards(), 2);
        let front = spawn_gateway(gateway);

        let backend = dial(&rs, &front);
        let indexed = BackendConfig::Indexed.build(rs.clone());
        for body in [
            b"the velvet assembler executable body five".as_slice(),
            b"an openmalaria simulation binary probe".as_slice(),
            b"entirely unrelated probe bytes".as_slice(),
        ] {
            let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(body));
            let mut via_gateway = vec![0.0f64; rs.n_columns()];
            backend
                .try_max_scores_into(&query, &mut via_gateway)
                .expect("gateway scoring");
            let mut direct = vec![0.0f64; rs.n_columns()];
            indexed.max_scores_into(&query, &mut direct);
            let gw_bits: Vec<u64> = via_gateway.iter().map(|s| s.to_bits()).collect();
            let direct_bits: Vec<u64> = direct.iter().map(|s| s.to_bits()).collect();
            assert_eq!(gw_bits, direct_bits, "row diverged for {body:?}");
        }
    }

    #[test]
    fn a_lost_shard_connection_heals_behind_the_gateway() {
        let rs = reference();
        // A worker whose every accepted connection answers exactly one
        // request and then drops without a goodbye — each query costs the
        // gateway its shard connection.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
        let addr = listener.local_addr().unwrap().to_string();
        let shard = Arc::new(TenantHost::single(Some(ShardWorker::all_classes(
            rs.clone(),
        ))));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    let _ = shard.serve_requests(stream, "one-shot", Some(1));
                });
            }
        });

        let gateway = Gateway::connect(
            rs.clone(),
            FleetTopology::replica_less([Endpoint::Tcp(addr)]),
            GatewayOptions::default(),
        )
        .expect("connect");
        let front = spawn_gateway(gateway);
        let backend = dial(&rs, &front);

        let indexed = crate::backend::BackendConfig::Indexed.build(rs.clone());
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(
            b"the velvet assembler executable heal probe",
        ));
        let mut expected = vec![0.0f64; rs.n_columns()];
        indexed.max_scores_into(&query, &mut expected);

        // Individual queries may still fail while a poison is settling
        // (always as a typed error, never a wrong row), but the stack must
        // keep healing: multiple successes require the gateway to re-dial
        // the shard, and the client to re-dial the gateway, repeatedly.
        let mut successes = 0;
        for _ in 0..200 {
            let mut row = vec![0.0f64; rs.n_columns()];
            match backend.try_max_scores_into(&query, &mut row) {
                Ok(()) => {
                    assert_eq!(row, expected, "healed path must stay byte-identical");
                    successes += 1;
                    if successes >= 3 {
                        break;
                    }
                }
                Err(FhcError::Net(_)) => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(other) => panic!("expected a typed net error, got {other}"),
            }
        }
        assert!(
            successes >= 3,
            "gateway never recovered from the dropped shard connection \
             ({successes} successes)"
        );
    }

    #[test]
    fn an_oversized_client_batch_is_rejected_before_scoring() {
        // Drive the reader loop directly with a batch one query over the
        // response budget: it must emit a Fail work item (which the writer
        // half answers with an Error frame) without submitting anything.
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(b"overflow probe"));
        let frame_bytes = wire::score_batch_request_bytes(7, vec![&query; 3]);
        let queues: Vec<SyncSender<ShardInput>> = Vec::new();
        let (work_tx, work_rx) = mpsc::sync_channel::<ClientWork>(8);
        client_reader_loop(
            std::io::Cursor::new(frame_bytes),
            &queues,
            &work_tx,
            &open_admission(),
            2,
            "test client",
        );
        drop(work_tx);
        match work_rx.recv().expect("a work item") {
            ClientWork::Fail { detail } => assert!(
                detail.contains("overflow the response frame"),
                "error names the violation: {detail}"
            ),
            other => panic!("expected a Fail work item, got a {}", work_name(&other)),
        }
        assert!(work_rx.recv().is_err(), "reader stops after the rejection");
    }

    fn open_admission() -> Admission {
        Admission {
            bucket: None,
            inflight: None,
        }
    }

    fn work_name(work: &ClientWork) -> &'static str {
        match work {
            ClientWork::Row { .. } => "Row",
            ClientWork::Batch { .. } => "Batch",
            ClientWork::Greet { .. } => "Greet",
            ClientWork::Fail { .. } => "Fail",
            ClientWork::Reject { .. } => "Reject",
        }
    }

    #[test]
    fn the_token_bucket_refills_on_schedule() {
        let start = Instant::now();
        let bucket = TokenBucket::new(10, start);
        // A full bucket admits its capacity immediately...
        assert_eq!(bucket.try_take(10, start), Ok(()));
        // ...then an empty one quotes the refill schedule: 1 token at 10
        // rps is 100ms away.
        assert_eq!(bucket.try_take(1, start), Err(100));
        // 5 tokens would take 500ms.
        assert_eq!(bucket.try_take(5, start), Err(500));
        // After 250ms, 2.5 tokens dripped back: 2 admits, 3 does not.
        let later = start + std::time::Duration::from_millis(250);
        assert_eq!(bucket.try_take(2, later), Ok(()));
        assert!(bucket.try_take(3, later).is_err());
        // A request wider than the bucket is charged a full bucket, never
        // left unadmittable.
        let refilled = start + std::time::Duration::from_secs(10);
        assert_eq!(bucket.try_take(500, refilled), Ok(()));
        // The quoted wait is never zero.
        assert!(bucket.try_take(1, refilled).unwrap_err() >= 1);
    }

    #[test]
    fn an_exhausted_quota_sheds_with_a_typed_rejection() {
        // Quota of 2 rps, three single queries in one burst: the first two
        // are admitted, the third is shed — and the reader keeps going
        // (the connection is not torn down by a rejection).
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(b"quota probe"));
        let mut frames = Vec::new();
        for id in 0..3u64 {
            frames.extend_from_slice(&wire::score_request_bytes(id, &query));
        }
        let admission = Admission {
            bucket: Some(TokenBucket::new(2, Instant::now())),
            inflight: None,
        };
        let queues: Vec<SyncSender<ShardInput>> = Vec::new();
        let (work_tx, work_rx) = mpsc::sync_channel::<ClientWork>(8);
        client_reader_loop(
            std::io::Cursor::new(frames),
            &queues,
            &work_tx,
            &admission,
            64,
            "test client",
        );
        drop(work_tx);
        let work: Vec<ClientWork> = work_rx.into_iter().collect();
        assert_eq!(work.len(), 3, "every request is answered, shed or not");
        assert!(matches!(work[0], ClientWork::Row { id: 0, .. }));
        assert!(matches!(work[1], ClientWork::Row { id: 1, .. }));
        match &work[2] {
            ClientWork::Reject { id, retry_after_ms } => {
                assert_eq!(*id, 2);
                assert!(*retry_after_ms >= 1, "a rejection always quotes a wait");
            }
            other => panic!(
                "expected the third request shed, got a {}",
                work_name(other)
            ),
        }
    }

    #[test]
    fn the_inflight_ceiling_sheds_and_recovers() {
        // Ceiling of 2; a batch of 2 fills it, a following single query is
        // shed while the batch's guard is alive, and admitted again once
        // the guard drops.
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(b"inflight probe"));
        let mut frames = Vec::new();
        frames.extend_from_slice(&wire::score_batch_request_bytes(0, vec![&query; 2]));
        frames.extend_from_slice(&wire::score_request_bytes(1, &query));
        let gauge = Arc::new(InflightGauge {
            current: AtomicUsize::new(0),
            limit: 2,
        });
        let admission = Admission {
            bucket: None,
            inflight: Some(Arc::clone(&gauge)),
        };
        let queues: Vec<SyncSender<ShardInput>> = Vec::new();
        let (work_tx, work_rx) = mpsc::sync_channel::<ClientWork>(8);
        client_reader_loop(
            std::io::Cursor::new(frames),
            &queues,
            &work_tx,
            &admission,
            64,
            "test client",
        );
        drop(work_tx);
        let mut work = work_rx.into_iter();
        let batch = work.next().expect("the batch work item");
        assert!(matches!(batch, ClientWork::Batch { id: 0, .. }));
        assert_eq!(gauge.current.load(Ordering::Relaxed), 2, "ceiling reached");
        match work.next().expect("the shed single query") {
            ClientWork::Reject { id, retry_after_ms } => {
                assert_eq!(id, 1);
                assert_eq!(retry_after_ms, INFLIGHT_RETRY_MS);
            }
            other => panic!(
                "expected the single query shed, got a {}",
                work_name(&other)
            ),
        }
        // Answering (here: dropping) the batch releases its reservation.
        drop(batch);
        assert_eq!(gauge.current.load(Ordering::Relaxed), 0);
        assert!(gauge.try_admit(2).is_some(), "slots admit again");
    }

    #[test]
    fn a_shed_client_query_surfaces_as_a_typed_overload_error() {
        // End to end through real sockets: quota of 1 rps on the served
        // tenant, so a burst's first query scores byte-identically and a
        // follow-up is shed as NetError::Overload — never a wrong row,
        // and the connection survives to serve again after the refill.
        let rs = reference();
        let endpoints = vec![spawn_worker(rs.clone())];
        let options = GatewayOptions {
            quotas: vec![(wire::DEFAULT_TENANT.to_string(), 1)],
            ..GatewayOptions::default()
        };
        let gateway = Gateway::connect(rs.clone(), FleetTopology::replica_less(endpoints), options)
            .expect("connect");
        let front = spawn_gateway(gateway);
        let backend = dial(&rs, &front);

        let indexed = BackendConfig::Indexed.build(rs.clone());
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(
            b"the velvet assembler executable overload probe",
        ));
        let mut expected = vec![0.0f64; rs.n_columns()];
        indexed.max_scores_into(&query, &mut expected);

        let mut row = vec![0.0f64; rs.n_columns()];
        backend
            .try_max_scores_into(&query, &mut row)
            .expect("the in-quota query scores");
        assert_eq!(row, expected, "in-quota row stays byte-identical");

        let mut retry_after = None;
        for _ in 0..5 {
            let mut shed = vec![f64::NAN; rs.n_columns()];
            match backend.try_max_scores_into(&query, &mut shed) {
                Err(FhcError::Net(NetError::Overload { retry_after_ms, .. })) => {
                    retry_after = Some(retry_after_ms);
                    break;
                }
                // The bucket may have refilled between queries on a slow
                // machine; a success must still be byte-identical.
                Ok(()) => assert_eq!(shed, expected, "admitted row stays byte-identical"),
                Err(other) => panic!("expected a typed overload, got {other}"),
            }
        }
        let retry_after = retry_after.expect("a burst past 1 rps must be shed");
        assert!(retry_after >= 1, "the rejection quotes a wait");

        // The same connection heals once the bucket refills.
        std::thread::sleep(std::time::Duration::from_millis(1100));
        let mut healed = vec![0.0f64; rs.n_columns()];
        backend
            .try_max_scores_into(&query, &mut healed)
            .expect("the refilled bucket admits again");
        assert_eq!(healed, expected, "healed row stays byte-identical");
    }

    #[test]
    fn the_batch_target_grows_under_load_and_shrinks_when_idle() {
        let cap = 256;
        // Sustained load: a filled pack doubles the target until the cap.
        let mut target = MIN_BATCH_TARGET;
        let mut growth = vec![target];
        for _ in 0..8 {
            target = next_batch_target(target, target, cap);
            growth.push(target);
        }
        assert_eq!(growth, vec![8, 16, 32, 64, 128, 256, 256, 256, 256]);

        // Load passes: near-empty packs halve back down to the floor.
        let mut shrink = vec![target];
        for _ in 0..8 {
            target = next_batch_target(target, 1, cap);
            shrink.push(target);
        }
        assert_eq!(shrink, vec![256, 128, 64, 32, 16, 8, 8, 8, 8]);

        // A half-full pack holds steady.
        assert_eq!(next_batch_target(64, 40, cap), 64);

        // The target respects a cap below the floor (narrow geometries).
        assert_eq!(next_batch_target(3, 3, 3), 3);
        assert_eq!(next_batch_target(8, 8, 5), 5);
        // And never collapses to zero even with a degenerate cap.
        assert_eq!(next_batch_target(1, 0, 1), 1);
    }

    #[test]
    fn a_zero_max_batch_is_rejected_up_front() {
        let rs = reference();
        let err = Gateway::connect(
            rs,
            FleetTopology::replica_less([]),
            GatewayOptions {
                max_batch: 0,
                ..GatewayOptions::default()
            },
        );
        assert!(matches!(err, Err(NetError::Partition(_))));
    }

    #[test]
    fn degenerate_admission_options_are_rejected_up_front() {
        let rs = reference();
        let err = Gateway::connect(
            rs.clone(),
            FleetTopology::replica_less([]),
            GatewayOptions {
                quotas: vec![("acme".into(), 0)],
                ..GatewayOptions::default()
            },
        );
        assert!(matches!(err, Err(NetError::Partition(_))));
        let err = Gateway::connect(
            rs,
            FleetTopology::replica_less([]),
            GatewayOptions {
                max_inflight: Some(0),
                ..GatewayOptions::default()
            },
        );
        assert!(matches!(err, Err(NetError::Partition(_))));
    }

    #[test]
    fn an_assign_from_a_client_is_a_typed_error() {
        let rs = reference();
        let gateway = Gateway::connect(
            rs.clone(),
            FleetTopology::replica_less([spawn_worker(rs.clone())]),
            GatewayOptions::default(),
        )
        .expect("connect");
        let front = spawn_gateway(gateway);

        let mut conn = front.connect().expect("dial gateway");
        let hello = match Frame::read_from(&mut conn, "gateway").unwrap() {
            Frame::Hello(h) => h,
            other => panic!("expected Hello, got {other:?}"),
        };
        assert!(hello.supports(wire::FEATURE_SCORE_BATCH));
        assert_eq!(hello.classes, vec![0, 1]);
        Frame::Assign(wire::Assign { classes: vec![0] })
            .write_to(&mut conn, "gateway")
            .unwrap();
        match Frame::read_from(&mut conn, "gateway").unwrap() {
            Frame::Error(message) => assert!(
                message.contains("unexpected frame"),
                "error names the violation: {message}"
            ),
            other => panic!("expected Error, got {other:?}"),
        }
    }
}
