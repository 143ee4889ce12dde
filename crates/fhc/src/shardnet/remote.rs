//! The shard-protocol handshake, shared by both clients of `fhc-shardd`
//! workers: the [`FleetBackend`](crate::shardnet::FleetBackend) and the
//! gateway's shard side.
//!
//! Every connection is validated at handshake time: protocol version,
//! reference-set fingerprint, column geometry, and batch scoring
//! ([`wire::FEATURE_SCORE_BATCH`]) must match, and a worker is assigned
//! the partition its client expects. `RemoteWorker` is the gateway's
//! mux-driven connection to one worker: a lost connection is re-dialed
//! (handshake re-validated, partition re-assigned) on the next query, so
//! an idle-reaped or restarted worker heals instead of wedging the gateway.

use crate::backend::round_robin_partition;
use crate::shardnet::wire::{self, ClientReply, Frame, Hello};
use crate::shardnet::{Endpoint, NetError, SplitConn, IO_TIMEOUT, MUX_POLL_INTERVAL};
use crate::similarity::ReferenceSet;
use hpcutil::{Mux, MuxError, MuxErrorKind, MuxOptions, PendingReply};
use std::io::Read;
use std::sync::Mutex;

/// The handshake values a reconnected worker must reproduce; see
/// [`RemoteWorker::submit`]. Captured at first connect, after validation
/// against the local reference set.
#[derive(Debug, Clone)]
pub(crate) struct HandshakeExpect {
    pub(crate) fingerprint: u64,
    pub(crate) n_classes: usize,
    pub(crate) n_columns: usize,
    /// The tenant this connection must be served by. `None` means the
    /// client did not select one and expects the wire default
    /// ([`wire::DEFAULT_TENANT`]); `Some` is selected over the wire after
    /// each (re)connect and verified against every greeting.
    pub(crate) tenant: Option<String>,
}

impl HandshakeExpect {
    /// The tenant name every greeting on this connection must carry.
    pub(crate) fn tenant_name(&self) -> &str {
        self.tenant.as_deref().unwrap_or(wire::DEFAULT_TENANT)
    }
}

/// One connected shard worker: its validated partition and the multiplexer
/// pipelining requests over its socket. The gateway wraps these in
/// per-shard batcher threads.
pub(crate) struct RemoteWorker {
    pub(crate) endpoint: Endpoint,
    /// The classes this worker scores (sorted), per its final handshake.
    pub(crate) classes: Vec<usize>,
    expect: HandshakeExpect,
    /// The live multiplexer, swapped for a fresh connection by
    /// [`RemoteWorker::submit`] once the current one is poisoned.
    mux: Mutex<Mux<ClientReply>>,
}

impl RemoteWorker {
    /// Queue one pre-encoded request frame on the worker's connection and
    /// register `id` for reply correlation.
    ///
    /// A mux failure is sticky, but the *worker* usually is not: its idle
    /// reaper closes quiet sockets after
    /// [`IDLE_TIMEOUT`](crate::shardnet::worker::IDLE_TIMEOUT), it may have
    /// restarted, a transient network fault may have reset the connection.
    /// So a poisoned connection is **re-dialed here, on the next query**:
    /// the endpoint is reconnected, the handshake re-validated against the
    /// values captured at first connect, and the worker's partition
    /// re-assigned if the fresh handshake does not already advertise it. A
    /// lost connection therefore costs at most the queries that were in
    /// flight on it — it never wedges the backend (or a gateway) into
    /// answering every future query with `WorkerLost`. If the re-dial
    /// itself fails, the submit falls through to the poisoned mux and the
    /// caller gets the original typed error; the query after that re-dials
    /// again.
    pub(crate) fn submit(&self, id: u64, frame_bytes: Vec<u8>) -> PendingReply<ClientReply> {
        let mut mux = self.mux.lock().unwrap_or_else(|p| p.into_inner());
        if mux.is_poisoned() {
            if let Ok(fresh) = self.redial() {
                *mux = fresh;
            }
        }
        mux.submit(id, frame_bytes)
    }

    /// Whether the current connection has failed (the next
    /// [`RemoteWorker::submit`] will re-dial).
    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.mux
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_poisoned()
    }

    /// Dial a fresh connection to this worker's endpoint and bring it to
    /// the exact state of the original one: validated handshake, same
    /// partition, mux spawned.
    fn redial(&self) -> Result<Mux<ClientReply>, NetError> {
        let peer = self.endpoint.to_string();
        // Failpoint: a redial that fails leaves the poisoned mux in place,
        // so the caller gets the original typed error and the *next* query
        // tries again — the reconnect gate the chaos soak leans on.
        crate::shardnet::inject("remote.redial", &peer)?;
        let mut conn = self
            .endpoint
            .connect_split()
            .map_err(|source| NetError::Io {
                peer: peer.clone(),
                source,
            })?;
        let mut hello = read_hello(conn.reader(), &peer)?;
        if let Some(tenant) = &self.expect.tenant {
            if hello.tenant != *tenant {
                hello = select_tenant(&mut conn, &peer, tenant)?;
            }
        }
        validate_hello(&self.expect, &peer, &hello)?;
        if hello.classes != self.classes {
            hello = assign_partition(&mut conn, &peer, self.classes.clone())?;
        }
        require_batch(&peer, &hello)?;
        spawn_mux(conn, peer)
    }
}

/// Narrow a handshaken connection's read timeout to the mux's stall poll
/// and hand its halves to a freshly spawned multiplexer.
pub(crate) fn spawn_mux(conn: SplitConn, peer: String) -> Result<Mux<ClientReply>, NetError> {
    conn.set_read_timeout(Some(MUX_POLL_INTERVAL))
        .map_err(|source| NetError::Io {
            peer: peer.clone(),
            source,
        })?;
    let (reader, writer, closer) = conn.into_mux_parts();
    Mux::spawn(
        peer.clone(),
        reader,
        writer,
        closer,
        MuxOptions {
            max_payload: wire::MAX_FRAME_PAYLOAD,
            reply_deadline: Some(IO_TIMEOUT),
        },
        |tag, payload: Vec<u8>| wire::decode_client_reply(tag, &payload),
    )
    .map_err(|e| net_error_from_mux(&peer, e))
}

impl std::fmt::Debug for RemoteWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteWorker")
            .field("endpoint", &self.endpoint)
            .field("classes", &self.classes)
            .finish_non_exhaustive()
    }
}

/// Dial, handshake, and validate every endpoint, returning one mux-driven
/// [`RemoteWorker`] per connection — the gateway's shard side.
///
/// Each worker's handshake must match the local protocol version,
/// reference fingerprint, and column geometry, and must advertise batch
/// scoring. If the advertised class partitions already cover every class
/// exactly once they are used as is; if instead every worker advertises
/// *all* classes (the default state of an unpartitioned `fhc-shardd`), the
/// classes are dealt round-robin across the workers
/// ([`round_robin_partition`]) and assigned over the wire. Anything else
/// is a [`NetError::Partition`].
pub(crate) fn connect_workers(
    reference: &ReferenceSet,
    endpoints: &[Endpoint],
    tenant: Option<&str>,
) -> Result<Vec<RemoteWorker>, NetError> {
    if endpoints.is_empty() {
        return Err(NetError::Partition(
            "a remote backend needs at least one worker endpoint".into(),
        ));
    }
    // One full reference walk, reused for every worker's handshake (and
    // stored for re-validation on reconnect).
    let expect = HandshakeExpect {
        fingerprint: reference.fingerprint(),
        n_classes: reference.n_classes(),
        n_columns: reference.n_columns(),
        tenant: tenant.map(str::to_string),
    };
    let mut conns = Vec::with_capacity(endpoints.len());
    for endpoint in endpoints {
        let peer = endpoint.to_string();
        let mut conn = endpoint.connect_split().map_err(|source| NetError::Io {
            peer: peer.clone(),
            source,
        })?;
        let mut hello = read_hello(conn.reader(), &peer)?;
        if let Some(tenant) = tenant {
            if hello.tenant != tenant {
                hello = select_tenant(&mut conn, &peer, tenant)?;
            }
        }
        validate_hello(&expect, &peer, &hello)?;
        require_batch(&peer, &hello)?;
        conns.push((endpoint.clone(), conn, hello));
    }

    let n_classes = reference.n_classes();
    if !is_exact_cover(
        n_classes,
        conns.iter().map(|(_, _, h)| h.classes.as_slice()),
    ) {
        let all: Vec<usize> = (0..n_classes).collect();
        if conns.iter().all(|(_, _, h)| h.classes == all) {
            // Unpartitioned workers: deal the classes ourselves.
            let partition = round_robin_partition(n_classes, conns.len());
            for ((endpoint, conn, hello), classes) in conns.iter_mut().zip(partition) {
                let peer = endpoint.to_string();
                *hello = assign_partition(conn, &peer, classes)?;
            }
        } else {
            return Err(NetError::Partition(format!(
                "worker partitions must cover every class exactly once \
                 (got {:?} over {n_classes} classes); either start each \
                 fhc-shardd with a disjoint --classes/--shard partition \
                 or start them all unpartitioned",
                conns
                    .iter()
                    .map(|(_, _, h)| h.classes.clone())
                    .collect::<Vec<_>>()
            )));
        }
    }

    conns
        .into_iter()
        .map(|(endpoint, conn, hello)| {
            let mux = spawn_mux(conn, endpoint.to_string())?;
            Ok(RemoteWorker {
                endpoint,
                classes: hello.classes,
                expect: expect.clone(),
                mux: Mutex::new(mux),
            })
        })
        .collect()
}

/// How many queries ride in one client-side batch frame: enough to
/// amortize the per-frame cost over many rows, small enough to bound the
/// frame size and one lost frame's blast radius. Further clamped per
/// geometry by [`wire::max_batch_rows_for`] so the dense response can
/// never exceed [`wire::MAX_FRAME_PAYLOAD`].
pub(crate) const CLIENT_BATCH: usize = 64;

/// Max-merge one worker's partial `(column, score)` cells into a dense
/// row, rejecting any cell outside the worker's own partition — a buggy
/// or malicious worker cannot corrupt other shards' scores.
pub(crate) fn merge_partial_row(
    peer: &str,
    classes: &[usize],
    n_classes: usize,
    cells: Vec<(u32, f64)>,
    out: &mut [f64],
) -> Result<(), NetError> {
    for (column, score) in cells {
        let column = column as usize;
        if column >= out.len() || classes.binary_search(&(column % n_classes)).is_err() {
            return Err(NetError::Protocol {
                peer: peer.to_string(),
                detail: format!("response cell for column {column} outside its partition"),
            });
        }
        out[column] = out[column].max(score);
    }
    Ok(())
}

/// Map a [`MuxError`] on `peer` to the matching [`NetError`]: transport,
/// framing, stall, and closure failures all mean the worker (connection)
/// is lost; a relayed error frame and an undecodable reply keep their own
/// variants.
pub(crate) fn net_error_from_mux(peer: &str, e: MuxError) -> NetError {
    match e.kind {
        MuxErrorKind::Remote => NetError::Remote {
            peer: peer.to_string(),
            message: e.detail,
        },
        MuxErrorKind::Decode => NetError::Protocol {
            peer: peer.to_string(),
            detail: e.detail,
        },
        MuxErrorKind::Io | MuxErrorKind::Frame | MuxErrorKind::Stalled | MuxErrorKind::Closed => {
            NetError::WorkerLost {
                peer: peer.to_string(),
                detail: e.to_string(),
            }
        }
    }
}

pub(crate) fn read_hello(conn: &mut (dyn Read + Send), peer: &str) -> Result<Hello, NetError> {
    crate::shardnet::inject("remote.handshake", peer)?;
    match Frame::read_from(conn, peer)? {
        Frame::Hello(hello) => Ok(hello),
        Frame::Error(message) => Err(NetError::Remote {
            peer: peer.to_string(),
            message,
        }),
        unexpected => Err(NetError::Protocol {
            peer: peer.to_string(),
            detail: format!("expected a handshake, got {unexpected:?}"),
        }),
    }
}

pub(crate) fn validate_hello(
    expect: &HandshakeExpect,
    peer: &str,
    hello: &Hello,
) -> Result<(), NetError> {
    let tenant = expect.tenant_name();
    if hello.tenant != tenant {
        return Err(NetError::Tenant {
            peer: peer.to_string(),
            tenant: tenant.to_string(),
            detail: format!(
                "worker answered for tenant {:?} instead of the selected {tenant:?}",
                hello.tenant
            ),
        });
    }
    if hello.protocol != wire::PROTOCOL_VERSION {
        return Err(NetError::Handshake {
            peer: peer.to_string(),
            detail: format!(
                "protocol version mismatch: we speak {}, worker speaks {}",
                wire::PROTOCOL_VERSION,
                hello.protocol
            ),
        });
    }
    if hello.fingerprint != expect.fingerprint {
        return Err(NetError::Handshake {
            peer: peer.to_string(),
            detail: format!(
                "reference-set fingerprint mismatch: ours {:#018x}, \
                 worker's {:#018x} — it serves a different artifact",
                expect.fingerprint, hello.fingerprint
            ),
        });
    }
    if hello.n_classes != expect.n_classes || hello.n_columns != expect.n_columns {
        return Err(NetError::Handshake {
            peer: peer.to_string(),
            detail: format!(
                "geometry mismatch: ours {}x{}, worker's {}x{}",
                expect.n_classes, expect.n_columns, hello.n_classes, hello.n_columns
            ),
        });
    }
    Ok(())
}

/// Refuse a worker that does not advertise [`wire::FEATURE_SCORE_BATCH`]:
/// every in-tree server does, and both clients score in batch frames.
pub(crate) fn require_batch(peer: &str, hello: &Hello) -> Result<(), NetError> {
    if hello.supports(wire::FEATURE_SCORE_BATCH) {
        return Ok(());
    }
    Err(NetError::Handshake {
        peer: peer.to_string(),
        detail: "the worker does not advertise batch scoring, which serving requires".into(),
    })
}

/// Whether the class lists cover `0..n_classes` exactly once each.
pub(crate) fn is_exact_cover<'a>(
    n_classes: usize,
    lists: impl Iterator<Item = &'a [usize]>,
) -> bool {
    let mut seen = vec![false; n_classes];
    for list in lists {
        for &class in list {
            if class >= n_classes || std::mem::replace(&mut seen[class], true) {
                return false;
            }
        }
    }
    seen.into_iter().all(|s| s)
}

/// Select `tenant` on a freshly handshaken connection: send a client
/// [`Hello`] naming it and return the tenant's own greeting. A worker
/// rejection (an `Error` frame — the unknown-tenant path) and a greeting
/// for any other tenant both surface as typed [`NetError::Tenant`]s.
pub(crate) fn select_tenant(
    conn: &mut SplitConn,
    peer: &str,
    tenant: &str,
) -> Result<Hello, NetError> {
    Frame::Hello(Hello {
        protocol: wire::PROTOCOL_VERSION,
        features: 0,
        fingerprint: 0,
        n_classes: 0,
        n_columns: 0,
        classes: Vec::new(),
        tenant: tenant.to_string(),
    })
    .write_to(conn.writer(), peer)?;
    match Frame::read_from(conn.reader(), peer)? {
        Frame::Hello(hello) => {
            if hello.tenant != tenant {
                return Err(NetError::Tenant {
                    peer: peer.to_string(),
                    tenant: tenant.to_string(),
                    detail: format!(
                        "worker confirmed tenant {:?} instead of the selected {tenant:?}",
                        hello.tenant
                    ),
                });
            }
            Ok(hello)
        }
        Frame::Error(message) => Err(NetError::Tenant {
            peer: peer.to_string(),
            tenant: tenant.to_string(),
            detail: message,
        }),
        unexpected => Err(NetError::Protocol {
            peer: peer.to_string(),
            detail: format!("expected a tenant greeting, got {unexpected:?}"),
        }),
    }
}

/// Send an `Assign` and return the worker's refreshed handshake.
pub(crate) fn assign_partition(
    conn: &mut SplitConn,
    peer: &str,
    classes: Vec<usize>,
) -> Result<Hello, NetError> {
    Frame::Assign(wire::Assign {
        classes: classes.clone(),
    })
    .write_to(conn.writer(), peer)?;
    let hello = read_hello(conn.reader(), peer)?;
    if hello.classes != classes {
        return Err(NetError::Protocol {
            peer: peer.to_string(),
            detail: format!(
                "worker confirmed partition {:?} instead of the assigned {classes:?}",
                hello.classes
            ),
        });
    }
    Ok(hello)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendConfig, SimilarityBackend};
    use crate::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
    use crate::shardnet::worker::ShardWorker;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Score one query through `worker` as the gateway's batcher does (a
    /// one-query batch frame), returning the dense row.
    fn score(
        worker: &RemoteWorker,
        rs: &ReferenceSet,
        id: u64,
        query: &PreparedSampleFeatures,
    ) -> Result<Vec<f64>, NetError> {
        let peer = worker.endpoint.to_string();
        let frame = wire::score_batch_request_bytes(id, std::slice::from_ref(query));
        let reply = worker
            .submit(id, frame)
            .wait()
            .map_err(|e| net_error_from_mux(&peer, e))?;
        let ClientReply::Batch(mut batch) = reply else {
            panic!("expected a batch reply, got {reply:?}");
        };
        let mut row = vec![0.0f64; rs.n_columns()];
        merge_partial_row(
            &peer,
            &worker.classes,
            rs.n_classes(),
            batch.rows.remove(0),
            &mut row,
        )?;
        Ok(row)
    }

    #[test]
    fn a_dropped_worker_connection_is_redialed_on_a_later_query() {
        let train = vec![
            SampleFeatures::extract(b"the velvet assembler executable body one"),
            SampleFeatures::extract(b"the velvet assembler executable body two"),
            SampleFeatures::extract(b"an openmalaria simulation binary payload"),
        ];
        let rs = Arc::new(ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into()],
            &train,
            &[0, 0, 1],
            &FeatureKind::ALL,
        ));

        // Every accepted connection answers exactly one request, then drops
        // without a goodbye — the shape of an idle-reaped (or crashed and
        // restarted) worker, repeatable across reconnects.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
        let addr = listener.local_addr().unwrap().to_string();
        let shard = Arc::new(ShardWorker::all_classes(rs.clone()));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    let _ = shard.serve_requests(stream, "one-shot", Some(1));
                });
            }
        });

        let workers = connect_workers(&rs, &[Endpoint::Tcp(addr)], None).expect("connect");
        let worker = &workers[0];
        let indexed = BackendConfig::Indexed.build(rs.clone());
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(
            b"the velvet assembler executable redial probe",
        ));
        let expected = indexed.feature_vector_prepared(&query);

        let row = score(worker, &rs, 0, &query).expect("first query on the original connection");
        assert_eq!(row, expected);

        // The worker dropped the connection after that answer; wait for the
        // mux to notice the EOF and poison itself...
        let deadline = Instant::now() + Duration::from_secs(10);
        while !worker.is_poisoned() {
            assert!(Instant::now() < deadline, "mux never noticed the EOF");
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...then the next query must transparently re-dial instead of
        // failing forever on the sticky poison.
        let row = score(worker, &rs, 1, &query).expect("query after the reconnect");
        assert_eq!(row, expected);
    }

    #[test]
    fn concurrent_callers_share_one_reconnect_after_poison() {
        let train = vec![
            SampleFeatures::extract(b"the velvet assembler executable body one"),
            SampleFeatures::extract(b"the velvet assembler executable body two"),
            SampleFeatures::extract(b"an openmalaria simulation binary payload"),
        ];
        let rs = Arc::new(ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into()],
            &train,
            &[0, 0, 1],
            &FeatureKind::ALL,
        ));

        // The first accepted connection answers one request and drops; every
        // later one serves normally. Counting accepts makes the reconnect
        // observable from the worker's side of the wire.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
        let addr = listener.local_addr().unwrap().to_string();
        let shard = Arc::new(ShardWorker::all_classes(rs.clone()));
        let accepted = Arc::new(AtomicUsize::new(0));
        let accept_count = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let n = accept_count.fetch_add(1, Ordering::SeqCst);
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    let limit = if n == 0 { Some(1) } else { None };
                    let _ = shard.serve_requests(stream, "reconnect-count", limit);
                });
            }
        });

        let workers = connect_workers(&rs, &[Endpoint::Tcp(addr)], None).expect("connect");
        let worker = &workers[0];
        let indexed = BackendConfig::Indexed.build(rs.clone());
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(
            b"the velvet assembler concurrent redial probe",
        ));
        let expected = indexed.feature_vector_prepared(&query);

        let row = score(worker, &rs, 0, &query).expect("first query on the original connection");
        assert_eq!(row, expected);

        // The one-shot connection dropped after that answer; wait for the
        // mux to notice the EOF and poison itself.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !worker.is_poisoned() {
            assert!(Instant::now() < deadline, "mux never noticed the EOF");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            1,
            "only the first dial so far"
        );

        // Hit the poisoned worker from many threads at once. The re-dial
        // happens under the worker's mux lock, so exactly one caller pays
        // for it; the rest queue behind the lock and submit on the fresh
        // connection it installed.
        const CALLERS: u64 = 8;
        let barrier = std::sync::Barrier::new(CALLERS as usize);
        let rows: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|caller| {
                    let (barrier, rs, query) = (&barrier, &rs, &query);
                    s.spawn(move || {
                        barrier.wait();
                        score(worker, rs, 1 + caller, query)
                            .expect("query during the shared reconnect")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread"))
                .collect()
        });

        for row in &rows {
            assert_eq!(row.len(), expected.len());
            assert!(
                row.iter()
                    .zip(&expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "row is not byte-identical after the reconnect"
            );
        }
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            2,
            "exactly one reconnect served the whole caller burst"
        );
    }

    #[test]
    fn exact_cover_detection() {
        let a: &[usize] = &[0, 2];
        let b: &[usize] = &[1];
        assert!(is_exact_cover(3, [a, b].into_iter()));
        // Missing class.
        assert!(!is_exact_cover(3, [a].into_iter()));
        // Duplicate class.
        let c: &[usize] = &[2, 1];
        assert!(!is_exact_cover(3, [a, c].into_iter()));
        // Out of range.
        let d: &[usize] = &[3];
        assert!(!is_exact_cover(3, [d].into_iter()));
        // Zero classes: trivially covered by nothing.
        assert!(is_exact_cover(0, std::iter::empty()));
    }

    #[test]
    fn mux_errors_map_to_typed_net_errors() {
        let lost = net_error_from_mux("w0", MuxError::new(MuxErrorKind::Io, "reset"));
        assert!(lost.is_worker_lost());
        let lost = net_error_from_mux("w0", MuxError::new(MuxErrorKind::Stalled, "30s"));
        assert!(lost.is_worker_lost());
        let remote = net_error_from_mux("w0", MuxError::new(MuxErrorKind::Remote, "boom"));
        assert!(matches!(remote, NetError::Remote { message, .. } if message == "boom"));
        let protocol = net_error_from_mux("w0", MuxError::new(MuxErrorKind::Decode, "junk"));
        assert!(matches!(protocol, NetError::Protocol { .. }));
    }
}
