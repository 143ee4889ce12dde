//! The shard-protocol handshake helpers of the one client of `fhc-shardd`
//! workers, the [`FleetView`](crate::shardnet::FleetView), which also
//! drives the gateway's shard side.
//!
//! Every connection is validated at handshake time: protocol version,
//! reference-set fingerprint, column geometry, and batch scoring
//! ([`wire::FEATURE_SCORE_BATCH`]) must match, and a worker is assigned
//! the partition its client expects.

use crate::shardnet::wire::{self, ClientReply, Frame, Hello};
use crate::shardnet::{NetError, SplitConn, IO_TIMEOUT, MUX_POLL_INTERVAL};
use hpcutil::{Mux, MuxError, MuxErrorKind, MuxOptions};
use std::io::Read;

/// The handshake values every dial and redial of a worker must reproduce,
/// taken from the client's reference set.
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

    #[test]
    fn merge_partial_row_keeps_each_worker_inside_its_partition() {
        // Two classes, two views: columns 0..4, class = column % 2. The
        // worker owns class 1 only.
        let owned = [1usize];
        let mut row = vec![0.5, 0.25, 0.0, 0.75];
        merge_partial_row("w1", &owned, 2, vec![(1, 0.5), (3, 0.5)], &mut row)
            .expect("in-partition cells merge");
        assert_eq!(row, vec![0.5, 0.5, 0.0, 0.75], "cells are max-merged");

        // Column 2 is class 0's: another shard's cell is refused.
        let foreign = merge_partial_row("w1", &owned, 2, vec![(2, 1.0)], &mut row);
        assert!(
            matches!(&foreign, Err(NetError::Protocol { peer, detail })
                if peer == "w1" && detail.contains("outside its partition")),
            "got {foreign:?}"
        );
        // A column past the row's end is refused, not indexed.
        let wide = merge_partial_row("w1", &owned, 2, vec![(5, 1.0)], &mut row);
        assert!(
            matches!(wide, Err(NetError::Protocol { .. })),
            "got {wide:?}"
        );
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
