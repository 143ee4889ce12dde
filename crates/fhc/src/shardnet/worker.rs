//! The serving side of the shard protocol.
//!
//! A [`ShardWorker`] owns a reference set (typically the one inside a
//! classifier artifact) and answers [`ScoreRequest`](wire::ScoreRequest)s
//! for a subset of its classes, scoring through the same
//! block-size-bucketed index as
//! [`IndexedBackend`](crate::backend::IndexedBackend) — which is what makes
//! the remote path byte-identical to the in-process ones. One serving loop,
//! [`TenantHost::serve_requests`], answers every connection: `fhc-shardd`
//! runs it through the shared accept loop, [`serve_tcp`] serves a single
//! worker through it, and tests drive it directly over in-process streams.

use crate::artifact::ArtifactDelta;
use crate::features::PreparedSampleFeatures;
use crate::shardnet::wire::{
    self, DeltaAck, Frame, Hello, PushAck, ScoreBatchResponse, ScoreResponse,
};
use crate::shardnet::{serve_listener, NetError, Transport};
use crate::similarity::ReferenceSet;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::{Arc, RwLock};

/// How long an accepted connection may sit idle (no complete frame
/// arriving) before the worker closes it quietly. Lives in
/// [`deadlines`](crate::shardnet::deadlines) with the rest of the serving
/// deadline hierarchy; re-exported here because it is the *worker's*
/// accept-loop deadline. A dead or hung client —
/// a machine that vanished without an RST, a process wedged mid-request —
/// can therefore pin a serving thread for at most this long, instead of
/// forever. Generous on purpose: clients hold persistent connections that
/// legitimately idle between batches. Closing one is safe because the one
/// shard client, the fleet (which also drives the gateway's shard side),
/// **re-dials a closed connection on a later query**, so the reap costs
/// at most the queries that were in flight — it never wedges a client —
/// and the deadline only needs to beat "forever", not a round trip.
pub use crate::shardnet::deadlines::IDLE_TIMEOUT;

/// Upper bound on the slice count one [`wire::PushSlice`] sequence may
/// declare. Each slice payload is already capped by
/// [`wire::MAX_FRAME_PAYLOAD`]; bounding the count keeps a hostile client
/// from declaring a `u32::MAX`-slice push and growing the worker's
/// reassembly buffer without limit. Real pushes carry one slice per class,
/// so this is far above any reachable artifact.
pub const MAX_PUSH_SLICES: usize = 4096;

/// One shard-serving worker: a reference set plus the class partition it
/// scores.
#[derive(Debug, Clone)]
pub struct ShardWorker {
    reference: Arc<ReferenceSet>,
    classes: Vec<usize>,
    /// The reference set's fingerprint, computed once at construction —
    /// it is a full walk of every reference hash, far too expensive to
    /// recompute per handshake.
    fingerprint: u64,
    /// For a worker bootstrapped from pushed slices
    /// ([`ShardWorker::from_pushed`]): the classes actually populated with
    /// reference samples. An `Assign` outside this set is rejected — a
    /// sparse worker silently scoring an absent class would return
    /// all-zero cells instead of real similarities. `None` for
    /// artifact-loaded workers, where every class is scoreable.
    available: Option<Vec<usize>>,
}

impl ShardWorker {
    /// A worker scoring `classes` (sorted and validated against the
    /// reference set) of `reference`.
    pub fn new(reference: Arc<ReferenceSet>, classes: Vec<usize>) -> Result<Self, NetError> {
        let classes = validate_classes(&reference, classes)?;
        let fingerprint = reference.fingerprint();
        Ok(Self {
            reference,
            classes,
            fingerprint,
            available: None,
        })
    }

    /// A worker scoring *every* class of `reference` (the natural start
    /// state for a worker whose partition will be assigned over the wire).
    pub fn all_classes(reference: Arc<ReferenceSet>) -> Self {
        let classes = (0..reference.n_classes()).collect();
        let fingerprint = reference.fingerprint();
        Self {
            reference,
            classes,
            fingerprint,
            available: None,
        }
    }

    /// A worker serving a *sparse* reference set reassembled from pushed
    /// slices ([`ReferenceSet::from_slices`]): it scores exactly the
    /// populated classes and advertises `declared_fingerprint` — the
    /// fingerprint of the full set the slices were cut from, which is what
    /// clients validate against. (A sparse set's own fingerprint walk
    /// would differ, because the unpushed classes are empty.)
    pub fn from_pushed(reference: Arc<ReferenceSet>, declared_fingerprint: u64) -> Self {
        let classes: Vec<usize> = (0..reference.n_classes())
            .filter(|&class| !reference.prepared_class_features(class).is_empty())
            .collect();
        Self {
            reference,
            classes: classes.clone(),
            fingerprint: declared_fingerprint,
            available: Some(classes),
        }
    }

    /// The reference set this worker scores against.
    pub fn reference(&self) -> &ReferenceSet {
        &self.reference
    }

    /// The classes this worker scores (its default partition; a connection
    /// can narrow it with an `Assign` frame without affecting others).
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// Range-check an `Assign`ed class list and, for a pushed worker,
    /// reject classes whose slices were never pushed (see
    /// [`ShardWorker::from_pushed`]).
    fn validate_assignment(&self, classes: Vec<usize>) -> Result<Vec<usize>, NetError> {
        let narrowed = validate_classes(&self.reference, classes)?;
        if let Some(available) = &self.available {
            if let Some(&missing) = narrowed
                .iter()
                .find(|c| available.binary_search(c).is_err())
            {
                return Err(NetError::Partition(format!(
                    "class {missing} was not pushed to this worker: \
                     push its slice before assigning it"
                )));
            }
        }
        Ok(narrowed)
    }

    /// The partial max-score row of `query` over `classes`: one
    /// `(column, score)` cell per `(view, class)`, scored through the
    /// prepared block-size-bucketed index with the cell's running maximum
    /// threaded down as an early-exit score budget — the same pruned
    /// primitive as the in-process backends, so remote partial rows stay
    /// byte-identical to local ones.
    pub fn partial_row(
        &self,
        classes: &[usize],
        query: &PreparedSampleFeatures,
    ) -> Vec<(u32, f64)> {
        self.reference
            .partial_row_cells(classes, query)
            .into_iter()
            // fhc-lint: allow(no_panic) -- a column index needs n_classes * kinds > u32::MAX to overflow, far beyond any loadable reference set; truncating instead would corrupt rows silently
            .map(|(column, score)| (u32::try_from(column).expect("column index fits u32"), score))
            .collect()
    }
}

/// One tenant's worker slot: the swappable [`ShardWorker`] serving a
/// single reference set, shared across connections through an `RwLock`.
///
/// A completed push (or delta patch) builds a fresh worker and swaps it
/// in: connections accepted afterwards serve the new set, while
/// connections already mid-conversation keep their `Arc` to the old one —
/// a rolling upgrade, caught on reconnect by the fingerprint handshake.
/// The serving loop lives on [`TenantHost`], which routes each connection
/// to the slot of the tenant it selected.
#[derive(Debug)]
pub struct WorkerHost {
    slot: RwLock<Option<Arc<ShardWorker>>>,
}

/// A partially received chunked push — reference slices or a delta: the
/// declared chunk count and the chunks accepted so far, in order.
struct PushBuffer {
    total: u32,
    chunks: Vec<Vec<u8>>,
}

impl PushBuffer {
    /// Accept chunk `index` of `total` into `buffer` (opened by the first
    /// chunk), returning every chunk once the last has arrived. A chunk out
    /// of order, a changed `total`, or a `total` over [`MAX_PUSH_SLICES`] is
    /// refused with a message naming `what`.
    fn accept(
        buffer: &mut Option<PushBuffer>,
        what: &str,
        index: u32,
        total: u32,
        payload: Vec<u8>,
    ) -> Result<Option<Vec<Vec<u8>>>, String> {
        let open = buffer.get_or_insert_with(|| PushBuffer {
            total,
            chunks: Vec::new(),
        });
        if total != open.total
            || index as usize != open.chunks.len()
            || open.total as usize > MAX_PUSH_SLICES
        {
            return Err(format!(
                "{what} {index}/{total} arrived out of order (have {} of {}, cap {MAX_PUSH_SLICES})",
                open.chunks.len(),
                open.total
            ));
        }
        open.chunks.push(payload);
        if open.chunks.len() < open.total as usize {
            return Ok(None);
        }
        Ok(buffer.take().map(|complete| complete.chunks))
    }
}

impl WorkerHost {
    /// A host serving `initial` — `None` starts diskless, answering
    /// handshakes with fingerprint `0` and no classes until a push seeds
    /// it.
    pub fn new(initial: Option<ShardWorker>) -> Self {
        Self {
            slot: RwLock::new(initial.map(Arc::new)),
        }
    }

    /// The currently installed worker, if any.
    pub fn worker(&self) -> Option<Arc<ShardWorker>> {
        self.slot.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Swap `worker` into the slot, returning the shared handle.
    fn install(&self, worker: ShardWorker) -> Arc<ShardWorker> {
        let worker = Arc::new(worker);
        *self.slot.write().unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(&worker));
        worker
    }
}

/// The daemon-wide tenant registry behind `fhc-shardd`: many [`WorkerHost`]
/// slots keyed by tenant name, serving one shared protocol loop. A
/// connection starts bound to [`wire::DEFAULT_TENANT`] (or the first
/// registered tenant) and may re-bind by sending a client [`Hello`] naming
/// another tenant; every subsequent score, assign, push, and delta frame
/// routes to the bound tenant's slot. An unknown tenant is a typed
/// [`NetError::Tenant`] naming the offender — never a silent empty row.
///
/// Beyond scoring and `Assign`, the host serves the push extensions:
/// [`wire::PushSlice`] reassembly (a worker process can start **diskless**
/// and be seeded over the wire) and [`wire::PushDelta`] patching (an
/// installed set evolves in place through an [`ArtifactDelta`] instead of
/// a full re-push).
#[derive(Debug, Default)]
pub struct TenantHost {
    tenants: BTreeMap<String, Arc<WorkerHost>>,
}

impl TenantHost {
    /// An empty registry; populate it with [`TenantHost::register`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The single-tenant host every pre-tenant deployment ran: `initial`
    /// (or a diskless slot) registered under [`wire::DEFAULT_TENANT`].
    pub fn single(initial: Option<ShardWorker>) -> Self {
        let mut host = Self::new();
        host.register(wire::DEFAULT_TENANT, initial)
            // fhc-lint: allow(no_panic) -- DEFAULT_TENANT is a valid constant id and the registry is empty, so registration cannot fail
            .expect("registering the default tenant in an empty registry");
        host
    }

    /// Register tenant `name` serving `initial` (`None` starts the slot
    /// diskless, awaiting a seed push). Rejects malformed tenant ids and
    /// duplicates as typed errors.
    pub fn register(&mut self, name: &str, initial: Option<ShardWorker>) -> Result<(), NetError> {
        if !wire::valid_tenant(name) {
            return Err(NetError::Tenant {
                peer: "local registry".to_string(),
                tenant: name.to_string(),
                detail: format!(
                    "malformed tenant id (want 1..={} characters of [A-Za-z0-9._-])",
                    wire::MAX_TENANT_LEN
                ),
            });
        }
        if self.tenants.contains_key(name) {
            return Err(NetError::Tenant {
                peer: "local registry".to_string(),
                tenant: name.to_string(),
                detail: "tenant registered twice".to_string(),
            });
        }
        self.tenants
            .insert(name.to_string(), Arc::new(WorkerHost::new(initial)));
        Ok(())
    }

    /// The slot serving `tenant`, if registered.
    pub fn slot(&self, tenant: &str) -> Option<&Arc<WorkerHost>> {
        self.tenants.get(tenant)
    }

    /// The registered tenant names, sorted.
    pub fn tenants(&self) -> impl Iterator<Item = &str> {
        self.tenants.keys().map(String::as_str)
    }

    /// The binding a fresh connection starts with: the default tenant if
    /// registered, otherwise the first tenant in name order.
    pub fn initial_slot(&self) -> Option<(String, Arc<WorkerHost>)> {
        if let Some(slot) = self.tenants.get(wire::DEFAULT_TENANT) {
            return Some((wire::DEFAULT_TENANT.to_string(), Arc::clone(slot)));
        }
        self.tenants
            .iter()
            .next()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
    }

    /// The sorted tenant list, comma-joined (rejection messages and the
    /// daemon's announce line).
    pub fn served_list(&self) -> String {
        self.tenants
            .keys()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The handshake for a connection bound to `tenant`, currently serving
    /// `worker` over `classes`. It always advertises batch scoring,
    /// [`wire::FEATURE_REFERENCE_PUSH`] and [`wire::FEATURE_DELTA_PUSH`];
    /// an empty slot advertises fingerprint `0`, no geometry and no
    /// classes, which is how a fleet client recognizes a worker awaiting
    /// its seed push.
    fn hello(worker: Option<&ShardWorker>, classes: &[usize], tenant: &str) -> Hello {
        Hello {
            protocol: wire::PROTOCOL_VERSION,
            features: wire::FEATURE_SCORE_BATCH
                | wire::FEATURE_REFERENCE_PUSH
                | wire::FEATURE_DELTA_PUSH,
            fingerprint: worker.map_or(0, |w| w.fingerprint),
            n_classes: worker.map_or(0, |w| w.reference.n_classes()),
            n_columns: worker.map_or(0, |w| w.reference.n_columns()),
            classes: classes.to_vec(),
            tenant: tenant.to_string(),
        }
    }

    /// Serve one connection until the client says goodbye (a `Shutdown`
    /// frame, a clean EOF, or the [`IDLE_TIMEOUT`] read deadline): send the
    /// handshake, then answer tenant selection, score, `Assign`,
    /// [`wire::PushSlice`] and [`wire::PushDelta`] frames. Score and
    /// `Assign` frames on an unseeded slot are protocol errors (push
    /// first); a completed push answers with [`wire::PushAck`] (a completed
    /// delta with [`wire::DeltaAck`]) followed by a refreshed handshake,
    /// the same confirmation shape as an `Assign`.
    ///
    /// With `Some(limit)`, after `limit` answered score frames the host
    /// drops the connection *without* a goodbye — exactly what a crashed
    /// worker looks like from the client side. Tests use this to exercise
    /// degraded mode deterministically; serving passes `None`.
    pub fn serve_requests(
        &self,
        mut stream: impl Transport,
        peer: &str,
        limit: Option<u64>,
    ) -> Result<(), NetError> {
        let Some((mut tenant, mut slot)) = self.initial_slot() else {
            return refuse(
                &mut stream,
                peer,
                "no tenants registered on this host".into(),
            );
        };
        let mut worker = slot.worker();
        let mut classes: Vec<usize> = worker.as_ref().map_or_else(Vec::new, |w| w.classes.clone());
        Frame::Hello(Self::hello(worker.as_deref(), &classes, &tenant))
            .write_to(&mut stream, peer)?;
        let mut push: Option<PushBuffer> = None;
        let mut delta: Option<PushBuffer> = None;
        let mut served = 0u64;
        loop {
            if limit.is_some_and(|max| served >= max) {
                // Simulated crash: vanish mid-conversation.
                return Ok(());
            }
            match Frame::read_from(&mut stream, peer) {
                Ok(Frame::Hello(request)) => {
                    // A client-sent Hello selects a tenant: re-bind the
                    // connection to that slot and confirm with its own
                    // greeting. In-progress pushes die with the binding.
                    match self.tenants.get(&request.tenant) {
                        Some(selected) => {
                            tenant = request.tenant;
                            slot = Arc::clone(selected);
                            worker = slot.worker();
                            classes = worker.as_ref().map_or_else(Vec::new, |w| w.classes.clone());
                            push = None;
                            delta = None;
                            Frame::Hello(Self::hello(worker.as_deref(), &classes, &tenant))
                                .write_to(&mut stream, peer)?;
                        }
                        None => {
                            let detail = format!(
                                "unknown tenant {:?}: this endpoint serves [{}]",
                                request.tenant,
                                self.served_list()
                            );
                            let _ = Frame::Error(detail.clone()).write_to(&mut stream, peer);
                            return Err(NetError::Tenant {
                                peer: peer.to_string(),
                                tenant: request.tenant,
                                detail,
                            });
                        }
                    }
                }
                Ok(Frame::PushSlice(slice)) => {
                    let pushed = PushBuffer::accept(
                        &mut push,
                        "push slice",
                        slice.index,
                        slice.total,
                        slice.payload,
                    );
                    let complete = match pushed {
                        Ok(complete) => complete,
                        Err(detail) => return refuse(&mut stream, peer, detail),
                    };
                    if let Some(slices) = complete {
                        match ReferenceSet::from_slices(&slices) {
                            Ok((set, declared)) => {
                                let fresh =
                                    slot.install(ShardWorker::from_pushed(Arc::new(set), declared));
                                classes = fresh.classes.clone();
                                // The count cannot exceed MAX_PUSH_SLICES, but
                                // saturate rather than panic the serving thread:
                                // a saturated ack fails the pusher's validation.
                                Frame::PushAck(PushAck {
                                    fingerprint: declared,
                                    classes_loaded: u32::try_from(classes.len())
                                        .unwrap_or(u32::MAX),
                                })
                                .write_to(&mut stream, peer)?;
                                Frame::Hello(Self::hello(Some(&fresh), &classes, &tenant))
                                    .write_to(&mut stream, peer)?;
                                worker = Some(fresh);
                            }
                            Err(e) => {
                                let detail = format!("pushed slices did not assemble: {e}");
                                return refuse(&mut stream, peer, detail);
                            }
                        }
                    }
                }
                Ok(Frame::PushDelta(chunk)) => {
                    let pushed = PushBuffer::accept(
                        &mut delta,
                        "push delta chunk",
                        chunk.index,
                        chunk.total,
                        chunk.payload,
                    );
                    let complete = match pushed {
                        Ok(complete) => complete,
                        Err(detail) => return refuse(&mut stream, peer, detail),
                    };
                    if let Some(chunks) = complete {
                        let Some(base) = worker.as_deref() else {
                            let detail = "no reference set installed: seed this tenant with a \
                                          full push before applying deltas";
                            return refuse(&mut stream, peer, detail.into());
                        };
                        let encoded: Vec<u8> = chunks.concat();
                        let applied = ArtifactDelta::decode(&encoded).and_then(|parsed| {
                            parsed
                                .apply(base.reference(), base.fingerprint)
                                .map(|(set, target)| (parsed, set, target))
                        });
                        match applied {
                            Ok((parsed, set, target)) => {
                                let fresh =
                                    slot.install(ShardWorker::from_pushed(Arc::new(set), target));
                                classes = fresh.classes.clone();
                                Frame::DeltaAck(DeltaAck {
                                    fingerprint: target,
                                    classes_added: u32::try_from(parsed.add_slices.len())
                                        .unwrap_or(u32::MAX),
                                    classes_retired: u32::try_from(parsed.retire_classes.len())
                                        .unwrap_or(u32::MAX),
                                })
                                .write_to(&mut stream, peer)?;
                                Frame::Hello(Self::hello(Some(&fresh), &classes, &tenant))
                                    .write_to(&mut stream, peer)?;
                                worker = Some(fresh);
                            }
                            Err(e) => {
                                // A stale base fingerprint lands here: the
                                // message names both fingerprints, and the
                                // installed set is left untouched.
                                let detail = format!("pushed delta did not apply: {e}");
                                return refuse(&mut stream, peer, detail);
                            }
                        }
                    }
                }
                Ok(Frame::ScoreRequest(request)) => match &worker {
                    Some(w) => {
                        let cells = w.partial_row(&classes, &request.query);
                        Frame::ScoreResponse(ScoreResponse {
                            id: request.id,
                            cells,
                        })
                        .write_to(&mut stream, peer)?;
                        served += 1;
                    }
                    None => return refuse(&mut stream, peer, UNSEEDED.into()),
                },
                Ok(Frame::ScoreBatchRequest(batch)) => match &worker {
                    Some(w) => {
                        let rows = batch
                            .queries
                            .iter()
                            .map(|query| w.partial_row(&classes, query))
                            .collect();
                        Frame::ScoreBatchResponse(ScoreBatchResponse { id: batch.id, rows })
                            .write_to(&mut stream, peer)?;
                        served += 1;
                    }
                    None => return refuse(&mut stream, peer, UNSEEDED.into()),
                },
                Ok(Frame::Assign(assign)) => match &worker {
                    Some(w) => match w.validate_assignment(assign.classes) {
                        Ok(narrowed) => {
                            classes = narrowed;
                            Frame::Hello(Self::hello(Some(w), &classes, &tenant))
                                .write_to(&mut stream, peer)?;
                        }
                        Err(e) => {
                            let _ = Frame::Error(e.to_string()).write_to(&mut stream, peer);
                            return Err(e);
                        }
                    },
                    None => return refuse(&mut stream, peer, UNSEEDED.into()),
                },
                Ok(Frame::Shutdown) => return Ok(()),
                Ok(unexpected) => {
                    let detail = format!("unexpected frame {unexpected:?} from client");
                    return refuse(&mut stream, peer, detail);
                }
                // A clean EOF between frames is a client hangup, not an error.
                Err(NetError::Io { ref source, .. })
                    if source.kind() == std::io::ErrorKind::UnexpectedEof =>
                {
                    return Ok(());
                }
                // The idle deadline fired (see [`IDLE_TIMEOUT`]): the client
                // is likely gone — close quietly, without an `Error` frame
                // that nobody would read.
                Err(NetError::Io { ref source, .. })
                    if matches!(
                        source.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(());
                }
                Err(e) => {
                    let _ = Frame::Error(e.to_string()).write_to(&mut stream, peer);
                    return Err(e);
                }
            }
        }
    }
}

/// Why a scoring or assignment frame on an unseeded slot is refused.
const UNSEEDED: &str = "no reference set installed: push one before scoring";

/// End a conversation on a protocol violation: tell the client why in an
/// `Error` frame (best effort — the connection closes either way) and
/// return the typed error.
fn refuse(stream: &mut impl Transport, peer: &str, detail: String) -> Result<(), NetError> {
    let _ = Frame::Error(detail.clone()).write_to(stream, peer);
    Err(NetError::Protocol {
        peer: peer.to_string(),
        detail,
    })
}

/// Sort, dedup, and range-check a class list against `reference`.
fn validate_classes(
    reference: &ReferenceSet,
    mut classes: Vec<usize>,
) -> Result<Vec<usize>, NetError> {
    classes.sort_unstable();
    classes.dedup();
    if let Some(&bad) = classes.iter().find(|&&c| c >= reference.n_classes()) {
        return Err(NetError::Partition(format!(
            "class id {bad} out of range: the reference set has {} classes",
            reference.n_classes()
        )));
    }
    Ok(classes)
}

/// Serve `worker` on a TCP listener as the default tenant of a
/// [`TenantHost::single`], through [`serve_host_tcp`].
pub fn serve_tcp(worker: Arc<ShardWorker>, listener: TcpListener) {
    let host = TenantHost::single(Some(Arc::unwrap_or_clone(worker)));
    serve_host_tcp(Arc::new(host), listener);
}

/// Serve `host` on a TCP listener through the shared accept loop: one
/// thread per connection running [`TenantHost::serve_requests`], reads
/// bounded by [`IDLE_TIMEOUT`] and writes by
/// [`IO_TIMEOUT`](crate::shardnet::IO_TIMEOUT), with the tenant registry
/// shared across connections. Returns when the listener itself fails.
pub fn serve_host_tcp(host: Arc<TenantHost>, listener: TcpListener) {
    serve_listener(listener, "fhc-shardd", move |conn, peer| {
        host.serve_requests(conn, peer, None)
    });
}

/// [`serve_host_tcp`] over a Unix-domain listener.
pub fn serve_host_unix(host: Arc<TenantHost>, listener: UnixListener) {
    serve_listener(listener, "fhc-shardd", move |conn, peer| {
        host.serve_requests(conn, peer, None)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendConfig, SimilarityBackend};
    use crate::features::{FeatureKind, SampleFeatures};
    use std::io::{Read, Write};

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

    #[test]
    fn new_validates_and_normalizes_classes() {
        let rs = reference();
        let worker = ShardWorker::new(rs.clone(), vec![1, 0, 1]).unwrap();
        assert_eq!(worker.classes(), &[0, 1]);
        assert!(ShardWorker::new(rs.clone(), vec![2]).is_err());
        let all = ShardWorker::all_classes(rs);
        assert_eq!(all.classes(), &[0, 1]);
    }

    #[test]
    fn partial_rows_union_to_the_indexed_row() {
        let rs = reference();
        let indexed = BackendConfig::Indexed.build(rs.clone());
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(
            b"the velvet assembler executable body three",
        ));
        let expected = indexed.feature_vector_prepared(&query);

        let worker = ShardWorker::all_classes(rs.clone());
        let mut merged = vec![0.0f64; rs.n_columns()];
        for classes in [vec![0usize], vec![1usize]] {
            for (column, score) in worker.partial_row(&classes, &query) {
                let column = column as usize;
                merged[column] = merged[column].max(score);
            }
        }
        assert_eq!(merged, expected);
    }

    /// An in-memory duplex "socket": each side reads what the other wrote.
    fn duplex() -> (PipeEnd, PipeEnd) {
        let (a_to_b, b_from_a) = std::sync::mpsc::channel::<Vec<u8>>();
        let (b_to_a, a_from_b) = std::sync::mpsc::channel::<Vec<u8>>();
        (
            PipeEnd {
                tx: a_to_b,
                rx: a_from_b,
                pending: Vec::new(),
            },
            PipeEnd {
                tx: b_to_a,
                rx: b_from_a,
                pending: Vec::new(),
            },
        )
    }

    struct PipeEnd {
        tx: std::sync::mpsc::Sender<Vec<u8>>,
        rx: std::sync::mpsc::Receiver<Vec<u8>>,
        pending: Vec<u8>,
    }

    impl Read for PipeEnd {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.pending.is_empty() {
                match self.rx.recv() {
                    Ok(bytes) => self.pending = bytes,
                    Err(_) => return Ok(0), // peer hung up: EOF
                }
            }
            let n = buf.len().min(self.pending.len());
            buf[..n].copy_from_slice(&self.pending[..n]);
            self.pending.drain(..n);
            Ok(n)
        }
    }

    impl Write for PipeEnd {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.tx
                .send(buf.to_vec())
                .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone"))?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serve `worker` as the default tenant over the in-memory `end`, with
    /// an optional request budget.
    fn serve(
        worker: ShardWorker,
        end: impl Transport + 'static,
        limit: Option<u64>,
    ) -> std::thread::JoinHandle<Result<(), NetError>> {
        let host = TenantHost::single(Some(worker));
        std::thread::spawn(move || host.serve_requests(end, "test", limit))
    }

    #[test]
    fn serve_connection_answers_requests_and_honors_shutdown() {
        let rs = reference();
        let worker = ShardWorker::all_classes(rs.clone());
        let (client_end, worker_end) = duplex();
        let server = serve(worker, worker_end, None);

        let mut client = client_end;
        let hello = match Frame::read_from(&mut client, "worker").unwrap() {
            Frame::Hello(h) => h,
            other => panic!("expected Hello, got {other:?}"),
        };
        assert_eq!(hello.protocol, wire::PROTOCOL_VERSION);
        assert_eq!(hello.fingerprint, rs.fingerprint());
        assert_eq!(hello.classes, vec![0, 1]);

        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(
            b"the velvet assembler executable body four",
        ));
        wire::write_score_request(&mut client, 77, &query, "worker").unwrap();
        match Frame::read_from(&mut client, "worker").unwrap() {
            Frame::ScoreResponse(response) => {
                assert_eq!(response.id, 77);
                assert_eq!(response.cells.len(), rs.n_columns());
            }
            other => panic!("expected ScoreResponse, got {other:?}"),
        }

        Frame::Shutdown.write_to(&mut client, "worker").unwrap();
        server.join().unwrap().expect("clean shutdown");
    }

    #[test]
    fn assign_narrows_the_partition_for_this_connection() {
        let rs = reference();
        let worker = ShardWorker::all_classes(rs.clone());
        let (client_end, worker_end) = duplex();
        let server = serve(worker, worker_end, None);

        let mut client = client_end;
        let _hello = Frame::read_from(&mut client, "worker").unwrap();
        Frame::Assign(wire::Assign { classes: vec![1] })
            .write_to(&mut client, "worker")
            .unwrap();
        match Frame::read_from(&mut client, "worker").unwrap() {
            Frame::Hello(h) => assert_eq!(h.classes, vec![1]),
            other => panic!("expected refreshed Hello, got {other:?}"),
        }
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(b"probe bytes"));
        wire::write_score_request(&mut client, 1, &query, "worker").unwrap();
        match Frame::read_from(&mut client, "worker").unwrap() {
            Frame::ScoreResponse(response) => {
                // Only class 1's columns now.
                assert_eq!(response.cells.len(), rs.kinds().len());
                for &(column, _) in &response.cells {
                    assert_eq!(column as usize % rs.n_classes(), 1);
                }
            }
            other => panic!("expected ScoreResponse, got {other:?}"),
        }
        drop(client); // EOF: worker returns cleanly
        server.join().unwrap().expect("clean EOF");
    }

    #[test]
    fn batch_requests_score_per_query_identically_to_single_requests() {
        let rs = reference();
        let worker = ShardWorker::all_classes(rs.clone());
        let (client_end, worker_end) = duplex();
        let server = serve(worker, worker_end, None);

        let mut client = client_end;
        let hello = match Frame::read_from(&mut client, "worker").unwrap() {
            Frame::Hello(h) => h,
            other => panic!("expected Hello, got {other:?}"),
        };
        assert!(
            hello.supports(wire::FEATURE_SCORE_BATCH),
            "an in-repo worker must advertise batch scoring"
        );

        let queries: Vec<PreparedSampleFeatures> = (0..3)
            .map(|i| {
                PreparedSampleFeatures::prepare(&SampleFeatures::extract(
                    format!("batched probe body number {i}").as_bytes(),
                ))
            })
            .collect();

        // Score one by one first.
        let mut single_rows = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            wire::write_score_request(&mut client, i as u64, query, "worker").unwrap();
            match Frame::read_from(&mut client, "worker").unwrap() {
                Frame::ScoreResponse(response) => single_rows.push(response.cells),
                other => panic!("expected ScoreResponse, got {other:?}"),
            }
        }

        // Then as one batch frame: same rows, same order, same bytes.
        wire::write_raw_frame(
            &mut client,
            &wire::score_batch_request_bytes(99, queries.iter()),
            "worker",
        )
        .unwrap();
        match Frame::read_from(&mut client, "worker").unwrap() {
            Frame::ScoreBatchResponse(response) => {
                assert_eq!(response.id, 99);
                assert_eq!(response.rows, single_rows);
            }
            other => panic!("expected ScoreBatchResponse, got {other:?}"),
        }

        Frame::Shutdown.write_to(&mut client, "worker").unwrap();
        server.join().unwrap().expect("clean shutdown");
    }

    /// A stream whose reads time out immediately — what an accepted socket
    /// looks like once [`IDLE_TIMEOUT`] fires with no client bytes.
    struct IdleStream {
        wrote: Vec<u8>,
    }

    impl Read for IdleStream {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "idle deadline",
            ))
        }
    }

    impl Write for IdleStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.wrote.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn an_idle_read_deadline_closes_the_connection_quietly() {
        let host = TenantHost::single(Some(ShardWorker::all_classes(reference())));
        let result = host.serve_requests(IdleStream { wrote: Vec::new() }, "idle client", None);
        assert!(
            result.is_ok(),
            "an idle timeout is a quiet close, got {result:?}"
        );
    }

    #[test]
    fn request_limit_simulates_a_crash() {
        let rs = reference();
        let worker = ShardWorker::all_classes(rs);
        let (client_end, worker_end) = duplex();
        let server = serve(worker, worker_end, Some(1));

        let mut client = client_end;
        let _hello = Frame::read_from(&mut client, "worker").unwrap();
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(b"probe"));
        wire::write_score_request(&mut client, 1, &query, "worker").unwrap();
        assert!(matches!(
            Frame::read_from(&mut client, "worker").unwrap(),
            Frame::ScoreResponse(_)
        ));
        server.join().unwrap().expect("limit reached cleanly");
        // The second request hits a dead connection.
        let _ = wire::write_score_request(&mut client, 2, &query, "worker");
        assert!(matches!(
            Frame::read_from(&mut client, "worker"),
            Err(NetError::Io { .. })
        ));
    }
}
