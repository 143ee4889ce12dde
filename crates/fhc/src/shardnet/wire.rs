//! The shard-serving wire protocol.
//!
//! Frames ride on [`hpcutil::frame`] (one byte of frame tag, a `u32` length
//! prefix, the payload, and an FNV-1a checksum); payloads are encoded with
//! the same [`hpcutil::codec`] primitives as classifier artifacts. The
//! protocol is versioned through the [`Hello`] handshake, not per frame: a
//! worker announces [`PROTOCOL_VERSION`], the reference-set fingerprint it
//! serves, and its class partition, and the client refuses to proceed on
//! any mismatch.
//!
//! ```text
//! worker                     client
//!   | --- Hello ---------------> |   on connect (version, feature bits,
//!   |                            |   tenant, fingerprint, partition)
//!   | <-- Hello ---------------- |   optional: client selects a tenant
//!   | --- Hello / Error -------> |   that tenant's greeting, or a typed
//!   |                            |   rejection naming the unknown tenant
//!   | <-- Assign --------------- |   optional: client re-partitions
//!   | --- Hello ---------------> |   confirms the new partition
//!   | <-- ScoreRequest --------- |   prepared query hashes, request id
//!   | --- ScoreResponse -------> |   partial max-score row (col, score)
//!   | <-- ScoreBatchRequest ---- |   many queries, one frame (only if the
//!   | --- ScoreBatchResponse --> |   worker advertised the batch feature)
//!   | <-- PushSlice x N -------- |   optional: client ships the reference
//!   | --- PushAck + Hello -----> |   set in slices (push feature only);
//!   |                            |   the fresh Hello confirms the install
//!   | <-- PushDelta x N -------- |   optional: client patches the installed
//!   | --- DeltaAck + Hello ----> |   set with an artifact delta (delta
//!   |            ...             |   feature only)
//!   | <-- Shutdown ------------- |   clean goodbye (or just EOF)
//! ```
//!
//! Requests carry client-chosen ids and responses echo them, so a client
//! may *pipeline*: keep many requests in flight on one connection and
//! correlate the responses as they arrive, in any order a future worker
//! might choose to send them.
//!
//! Queries travel as *prepared* hashes in the artifact v3 encoding
//! (delta-encoded window keys), so a worker spends zero time re-deriving
//! comparison state: what arrives is what it scores with.

use crate::artifact::{decode_prepared_features, encode_prepared_features, FORMAT_VERSION};
use crate::features::PreparedSampleFeatures;
use crate::shardnet::NetError;
use hpcutil::codec::CodecError;
use hpcutil::{ByteReader, ByteWriter, FrameError, MuxError, MuxErrorKind};
use std::io::{Read, Write};

/// Version of the shard-serving protocol spoken by this build. A worker and
/// a client must agree exactly; there is no cross-version negotiation.
/// *Optional capabilities* within one version are negotiated through
/// [`Hello::features`] instead: a client only uses a feature the worker
/// advertised.
///
/// Version history: v1 carried single-query frames only; v2 added the
/// [`Hello::features`] field and the batched
/// [`ScoreBatchRequest`]/[`ScoreBatchResponse`] frames; the reference-push
/// frames ([`PushSlice`]/[`PushAck`]) rode v2 behind
/// [`FEATURE_REFERENCE_PUSH`]. v3 added the [`Hello::tenant`] field (a
/// daemon now hosts many reference sets keyed by tenant) and the
/// [`PushDelta`]/[`DeltaAck`] frames behind [`FEATURE_DELTA_PUSH`] — a
/// worker that does not advertise the bit never sees them. The
/// [`Overload`] frame rides v3 the same way, behind [`FEATURE_OVERLOAD`]:
/// a peer that does not advertise the bit never sends it.
pub const PROTOCOL_VERSION: u32 = 3;

// Score requests travel in the artifact's prepared-feature encoding, so a
// bump of the artifact format that changes `encode_prepared_features` is a
// *wire* change too: two builds could then pass the protocol-version and
// fingerprint handshake yet fail on every query. This assertion pins the
// pairing — whoever bumps FORMAT_VERSION must revisit PROTOCOL_VERSION (or
// prove the prepared encoding unchanged) and update both numbers here.
const _: () = assert!(
    FORMAT_VERSION == 3 && PROTOCOL_VERSION == 3,
    "artifact FORMAT_VERSION changed: the ScoreRequest prepared-feature \
     encoding may have changed with it; bump wire::PROTOCOL_VERSION \
     accordingly and update this assertion"
);

/// [`Hello::features`] bit: the worker scores [`ScoreBatchRequest`] frames.
/// Workers built from this crate always advertise it; a client must fall
/// back to one [`ScoreRequest`] per query against a worker that does not.
pub const FEATURE_SCORE_BATCH: u32 = 1 << 0;

/// [`Hello::features`] bit: the worker accepts [`PushSlice`] frames — a
/// client may ship it per-class reference slices instead of the worker
/// loading an artifact from disk. A diskless worker (started with no
/// artifact) advertises this with `fingerprint == 0` and an empty class
/// list; a seeded worker advertises it too, so a fleet can roll a new
/// artifact onto running workers through the same frames.
pub const FEATURE_REFERENCE_PUSH: u32 = 1 << 1;

/// [`Hello::features`] bit: the worker accepts [`PushDelta`] frames — a
/// client may patch the worker's installed reference set with an
/// [`ArtifactDelta`](crate::artifact::ArtifactDelta) instead of re-pushing
/// the whole set. Only meaningful alongside [`FEATURE_REFERENCE_PUSH`]: a
/// delta needs an installed base to patch.
pub const FEATURE_DELTA_PUSH: u32 = 1 << 2;

/// [`Hello::features`] bit: the serving side may answer an individual
/// request with an [`Overload`] frame instead of scoring it — a typed,
/// id-correlated load-shedding rejection carrying a retry hint. Unlike
/// [`Frame::Error`], an overload rejection is **not fatal**: the
/// connection stays open and every other in-flight request proceeds, so a
/// client can keep serving in-quota traffic on the same mux. Advertised by
/// gateways enforcing admission control ([`crate::shardnet::gateway`]).
pub const FEATURE_OVERLOAD: u32 = 1 << 3;

/// The tenant a connection serves when neither side selects one. Every v2
/// deployment implicitly served this tenant, so a single-artifact daemon
/// and a tenant-unaware client keep interoperating unchanged.
pub const DEFAULT_TENANT: &str = "default";

/// Longest tenant id the wire accepts. Tenant names are routing keys, not
/// documents; the bound keeps hostile handshakes from smuggling megabytes
/// through the tenant field.
pub const MAX_TENANT_LEN: usize = 64;

/// Whether `name` is a well-formed tenant id: 1..=[`MAX_TENANT_LEN`]
/// characters drawn from `[A-Za-z0-9._-]`. Enforced on *decode* (a
/// malformed tenant in a handshake is a protocol error, not a lookup miss)
/// and by every registry construction site.
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Clip a hostile tenant string for an error message: long ids are the
/// attack being reported, so the report must not echo them whole.
fn truncate_for_display(name: &str) -> &str {
    let end = name
        .char_indices()
        .nth(MAX_TENANT_LEN)
        .map_or(name.len(), |(at, _)| at);
    &name[..end]
}

/// Upper bound on a frame payload this implementation will read. Score
/// requests and responses are a few KiB; anything near this limit is a
/// corrupt length prefix, not a real message.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

const TAG_HELLO: u8 = 1;
const TAG_ASSIGN: u8 = 2;
const TAG_SCORE_REQUEST: u8 = 3;
const TAG_SCORE_RESPONSE: u8 = 4;
const TAG_ERROR: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_SCORE_BATCH_REQUEST: u8 = 7;
const TAG_SCORE_BATCH_RESPONSE: u8 = 8;
const TAG_PUSH_SLICE: u8 = 9;
const TAG_PUSH_ACK: u8 = 10;
const TAG_PUSH_DELTA: u8 = 11;
const TAG_DELTA_ACK: u8 = 12;
const TAG_OVERLOAD: u8 = 13;

/// The worker's handshake: everything a client needs to decide whether this
/// worker can score for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The worker's [`PROTOCOL_VERSION`].
    pub protocol: u32,
    /// Bitmask of optional capabilities the worker supports within this
    /// protocol version (see [`FEATURE_SCORE_BATCH`]). Unknown bits are
    /// ignored, so a newer worker interoperates with an older client.
    pub features: u32,
    /// Fingerprint of the reference set the worker serves
    /// ([`ReferenceSet::fingerprint`](crate::similarity::ReferenceSet::fingerprint)).
    pub fingerprint: u64,
    /// Total number of known classes in that reference set.
    pub n_classes: usize,
    /// Total number of similarity columns (`n_classes * active kinds`).
    pub n_columns: usize,
    /// The known-class ids this worker scores (strictly increasing —
    /// enforced on decode, so consumers may binary-search it).
    pub classes: Vec<usize>,
    /// The tenant whose reference set this handshake describes. A worker's
    /// greeting names the tenant the connection is bound to (initially
    /// [`DEFAULT_TENANT`]); a *client-sent* Hello re-binds the connection
    /// to another tenant slot, and the worker answers with that tenant's
    /// own Hello — or an [`Frame::Error`] naming the unknown tenant.
    /// Malformed ids (see [`valid_tenant`]) are rejected on decode.
    pub tenant: String,
}

impl Hello {
    /// Whether the worker advertised `feature` (a [`FEATURE_SCORE_BATCH`]-
    /// style bit).
    pub fn supports(&self, feature: u32) -> bool {
        self.features & feature != 0
    }
}

/// A client-requested re-partition: "score exactly these classes".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    /// The known-class ids the worker should score from now on.
    pub classes: Vec<usize>,
}

/// One query to score: the prepared hashes of a sample, tagged with a
/// request id the response must echo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreRequest {
    /// Client-chosen id correlating the response with the request.
    pub id: u64,
    /// The prepared query (all views, comparison state included).
    pub query: PreparedSampleFeatures,
}

/// A partial max-score row: one `(column, score)` cell per `(view, class)`
/// the worker owns.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreResponse {
    /// The id of the [`ScoreRequest`] this answers.
    pub id: u64,
    /// `(column index, max similarity)` cells for the worker's classes.
    pub cells: Vec<(u32, f64)>,
}

/// Many queries in one checksummed frame: the request a batching client
/// (the gateway, most importantly) sends to a worker that advertised
/// [`FEATURE_SCORE_BATCH`]. The response echoes the id and carries one
/// partial row per query, in query order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreBatchRequest {
    /// Client-chosen id correlating the response with the request.
    pub id: u64,
    /// The prepared queries, each in the same encoding as a
    /// [`ScoreRequest`] carries.
    pub queries: Vec<PreparedSampleFeatures>,
}

/// The batched counterpart of [`ScoreResponse`]: one partial max-score row
/// per query of the [`ScoreBatchRequest`] it answers, in query order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreBatchResponse {
    /// The id of the [`ScoreBatchRequest`] this answers.
    pub id: u64,
    /// One `(column, score)` cell list per query, in query order.
    pub rows: Vec<Vec<(u32, f64)>>,
}

/// One reference-set slice in flight to a worker that advertised
/// [`FEATURE_REFERENCE_PUSH`]: the `index`-th of `total` slices of one
/// artifact push, each carrying a self-checksummed
/// [`ReferenceSet::encode_slice`](crate::similarity::ReferenceSet) container.
/// After the final slice (`index == total - 1`) the worker assembles the
/// set, installs it, and answers with a [`PushAck`] followed by a refreshed
/// [`Hello`] advertising the new fingerprint — the same confirmation shape
/// an [`Assign`] uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushSlice {
    /// Zero-based position of this slice within the push.
    pub index: u32,
    /// Total number of slices in the push (at least 1).
    pub total: u32,
    /// The encoded slice container (see `ReferenceSet::encode_slice`).
    pub payload: Vec<u8>,
}

/// The worker's confirmation that a [`PushSlice`] sequence was assembled
/// and installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushAck {
    /// Fingerprint of the *full* reference set the slices declared (what
    /// the worker now advertises in its handshake).
    pub fingerprint: u64,
    /// How many classes the pushed slices populated with samples.
    pub classes_loaded: u32,
}

/// One chunk of an [`ArtifactDelta`](crate::artifact::ArtifactDelta) in
/// flight to a worker that advertised [`FEATURE_DELTA_PUSH`]: the
/// `index`-th of `total` chunks of one encoded delta container. After the
/// final chunk the worker reassembles the container, applies the delta to
/// its installed reference set (rejecting a stale base fingerprint as a
/// typed error), and answers with a [`DeltaAck`] followed by a refreshed
/// [`Hello`] — the same confirmation shape a [`PushSlice`] push uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushDelta {
    /// Zero-based position of this chunk within the delta push.
    pub index: u32,
    /// Total number of chunks in the push (at least 1).
    pub total: u32,
    /// This chunk of the encoded delta container (see
    /// [`ArtifactDelta::encode`](crate::artifact::ArtifactDelta::encode)).
    pub payload: Vec<u8>,
}

/// The worker's confirmation that a [`PushDelta`] sequence was applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaAck {
    /// Fingerprint of the reference set the worker serves *after* the
    /// patch (the delta's declared target).
    pub fingerprint: u64,
    /// How many classes the delta added.
    pub classes_added: u32,
    /// How many classes the delta retired.
    pub classes_retired: u32,
}

/// Server → client: the request identified by `id` was shed by admission
/// control (quota exhausted or inflight ceiling hit) instead of scored.
///
/// Carried behind [`FEATURE_OVERLOAD`]. Correlated by request id like a
/// score reply, so it rides a pipelined connection without disturbing any
/// other in-flight request — the typed, non-fatal alternative to
/// [`Frame::Error`] (which poisons the whole connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overload {
    /// The request this rejection answers.
    pub id: u64,
    /// The server's hint for when capacity should be available again, in
    /// milliseconds. Clients must not retry the same work sooner.
    pub retry_after_ms: u32,
}

/// Every message of the shard-serving protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → client handshake.
    Hello(Hello),
    /// Client → worker re-partition request.
    Assign(Assign),
    /// Client → worker score request (boxed: the prepared query dwarfs
    /// every other variant, and frames are moved around by value).
    ScoreRequest(Box<ScoreRequest>),
    /// Worker → client partial row.
    ScoreResponse(ScoreResponse),
    /// Client → worker: many queries in one frame (requires the worker to
    /// have advertised [`FEATURE_SCORE_BATCH`]).
    ScoreBatchRequest(ScoreBatchRequest),
    /// Worker → client: one partial row per batched query.
    ScoreBatchResponse(ScoreBatchResponse),
    /// Client → worker: one reference-set slice (requires the worker to
    /// have advertised [`FEATURE_REFERENCE_PUSH`]).
    PushSlice(PushSlice),
    /// Worker → client: a pushed reference set was assembled and installed.
    PushAck(PushAck),
    /// Client → worker: one chunk of an encoded artifact delta (requires
    /// the worker to have advertised [`FEATURE_DELTA_PUSH`]).
    PushDelta(PushDelta),
    /// Server → client: the identified request was shed by admission
    /// control (requires [`FEATURE_OVERLOAD`]); the connection stays open.
    Overload(Overload),
    /// Worker → client: a pushed delta was applied to the installed set.
    DeltaAck(DeltaAck),
    /// Either side: a fatal error message, connection closes after.
    Error(String),
    /// Client → worker: clean goodbye.
    Shutdown,
}

/// Write a collection length as the `u32` count every cell/query list on
/// the wire uses.
fn put_len_u32(w: &mut ByteWriter, len: usize) {
    // fhc-lint: allow(no_panic) -- a list of u32::MAX entries cannot reach the wire: at >= 4 bytes per entry it overflows MAX_FRAME_PAYLOAD (and the u32 frame length header) long before the count does, so every encodable frame converts
    let len = u32::try_from(len).expect("list longer than u32::MAX entries");
    w.put_u32(len);
}

/// Assemble a complete wire frame (header + payload + checksum) in memory.
fn frame_bytes(tag: u8, payload: &[u8]) -> Vec<u8> {
    // fhc-lint: allow(no_panic) -- encode_frame only fails for payloads over u32::MAX bytes, and every encoder bounds its payload by MAX_FRAME_PAYLOAD first
    hpcutil::encode_frame(tag, payload).expect("payload bounded by MAX_FRAME_PAYLOAD")
}

fn encode_cells(w: &mut ByteWriter, cells: &[(u32, f64)]) {
    put_len_u32(w, cells.len());
    for &(column, score) in cells {
        w.put_u32(column);
        w.put_f64(score);
    }
}

/// Decode one `(column, score)` cell list. Each cell costs 12 bytes, so
/// the count is validated against the remaining payload before allocating.
fn decode_cells(r: &mut ByteReader<'_>) -> Result<Vec<(u32, f64)>, CodecError> {
    let n_cells = r.get_u32()? as usize;
    if r.remaining() < n_cells.saturating_mul(12) {
        return Err(CodecError::new(format!(
            "score row claims {n_cells} cells but only {} bytes remain",
            r.remaining()
        )));
    }
    let mut cells = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        let column = r.get_u32()?;
        let score = r.get_f64()?;
        cells.push((column, score));
    }
    Ok(cells)
}

fn encode_class_list(w: &mut ByteWriter, classes: &[usize]) {
    w.put_usize(classes.len());
    for &class in classes {
        w.put_usize(class);
    }
}

/// Decode a class-id list: strictly increasing (hence duplicate-free) ids
/// below `n_classes`. Every entry costs 8 bytes, so the count is validated
/// against the remaining payload *before* any allocation — a hostile
/// length prefix (or a hostile `n_classes`) cannot force a huge
/// reservation.
fn decode_class_list(r: &mut ByteReader<'_>, n_classes: usize) -> Result<Vec<usize>, CodecError> {
    let len = r.get_usize()?;
    if len > n_classes {
        return Err(CodecError::new(format!(
            "class list of {len} entries exceeds the {n_classes} known classes"
        )));
    }
    if r.remaining() < len.saturating_mul(8) {
        return Err(CodecError::new(format!(
            "class list of {len} entries needs {} bytes, only {} remain",
            len.saturating_mul(8),
            r.remaining()
        )));
    }
    let mut classes: Vec<usize> = Vec::with_capacity(len);
    for _ in 0..len {
        let class = r.get_usize()?;
        if class >= n_classes {
            return Err(CodecError::new(format!(
                "class id {class} out of range (reference set has {n_classes} classes)"
            )));
        }
        if let Some(&prev) = classes.last() {
            if prev >= class {
                return Err(CodecError::new(format!(
                    "class ids must be strictly increasing (got {class} after {prev})"
                )));
            }
        }
        classes.push(class);
    }
    Ok(classes)
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello(_) => TAG_HELLO,
            Frame::Assign(_) => TAG_ASSIGN,
            Frame::ScoreRequest(_) => TAG_SCORE_REQUEST,
            Frame::ScoreResponse(_) => TAG_SCORE_RESPONSE,
            Frame::ScoreBatchRequest(_) => TAG_SCORE_BATCH_REQUEST,
            Frame::ScoreBatchResponse(_) => TAG_SCORE_BATCH_RESPONSE,
            Frame::PushSlice(_) => TAG_PUSH_SLICE,
            Frame::PushAck(_) => TAG_PUSH_ACK,
            Frame::PushDelta(_) => TAG_PUSH_DELTA,
            Frame::DeltaAck(_) => TAG_DELTA_ACK,
            Frame::Overload(_) => TAG_OVERLOAD,
            Frame::Error(_) => TAG_ERROR,
            Frame::Shutdown => TAG_SHUTDOWN,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Frame::Hello(hello) => {
                w.put_u32(hello.protocol);
                w.put_u32(hello.features);
                w.put_u64(hello.fingerprint);
                w.put_usize(hello.n_classes);
                w.put_usize(hello.n_columns);
                encode_class_list(&mut w, &hello.classes);
                w.put_str(&hello.tenant);
            }
            Frame::Assign(assign) => {
                // An Assign cannot validate ids against n_classes on its own,
                // so it carries the class count it was computed against.
                w.put_usize(assign.classes.iter().map(|&c| c + 1).max().unwrap_or(0));
                encode_class_list(&mut w, &assign.classes);
            }
            Frame::ScoreRequest(request) => {
                w.put_u64(request.id);
                encode_prepared_features(&mut w, &request.query);
            }
            Frame::ScoreResponse(response) => {
                w.put_u64(response.id);
                encode_cells(&mut w, &response.cells);
            }
            Frame::ScoreBatchRequest(batch) => {
                w.put_u64(batch.id);
                put_len_u32(&mut w, batch.queries.len());
                for query in &batch.queries {
                    encode_prepared_features(&mut w, query);
                }
            }
            Frame::ScoreBatchResponse(batch) => {
                w.put_u64(batch.id);
                put_len_u32(&mut w, batch.rows.len());
                for row in &batch.rows {
                    encode_cells(&mut w, row);
                }
            }
            Frame::PushSlice(slice) => {
                w.put_u32(slice.index);
                w.put_u32(slice.total);
                w.put_bytes(&slice.payload);
            }
            Frame::PushAck(ack) => {
                w.put_u64(ack.fingerprint);
                w.put_u32(ack.classes_loaded);
            }
            Frame::PushDelta(delta) => {
                w.put_u32(delta.index);
                w.put_u32(delta.total);
                w.put_bytes(&delta.payload);
            }
            Frame::DeltaAck(ack) => {
                w.put_u64(ack.fingerprint);
                w.put_u32(ack.classes_added);
                w.put_u32(ack.classes_retired);
            }
            Frame::Overload(overload) => {
                w.put_u64(overload.id);
                w.put_u32(overload.retry_after_ms);
            }
            Frame::Error(message) => w.put_str(message),
            Frame::Shutdown => {}
        }
        w.into_bytes()
    }

    fn decode(tag: u8, payload: &[u8]) -> Result<Frame, CodecError> {
        let mut r = ByteReader::new(payload);
        let frame = match tag {
            TAG_HELLO => {
                let protocol = r.get_u32()?;
                let features = r.get_u32()?;
                let fingerprint = r.get_u64()?;
                let n_classes = r.get_usize()?;
                let n_columns = r.get_usize()?;
                let classes = decode_class_list(&mut r, n_classes)?;
                let tenant = r.get_str()?;
                if !valid_tenant(&tenant) {
                    return Err(CodecError::new(format!(
                        "malformed tenant id {:?} in handshake (want 1..={MAX_TENANT_LEN} \
                         characters of [A-Za-z0-9._-])",
                        truncate_for_display(&tenant)
                    )));
                }
                Frame::Hello(Hello {
                    protocol,
                    features,
                    fingerprint,
                    n_classes,
                    n_columns,
                    classes,
                    tenant,
                })
            }
            TAG_ASSIGN => {
                let bound = r.get_usize()?;
                let classes = decode_class_list(&mut r, bound)?;
                Frame::Assign(Assign { classes })
            }
            TAG_SCORE_REQUEST => {
                let id = r.get_u64()?;
                let query = decode_prepared_features(&mut r)?;
                Frame::ScoreRequest(Box::new(ScoreRequest { id, query }))
            }
            TAG_SCORE_RESPONSE => {
                let id = r.get_u64()?;
                let cells = decode_cells(&mut r)?;
                Frame::ScoreResponse(ScoreResponse { id, cells })
            }
            TAG_SCORE_BATCH_REQUEST => {
                let id = r.get_u64()?;
                let n_queries = r.get_u32()? as usize;
                // Every encoded prepared query costs at least one byte, so
                // the count is bounded by the remaining payload — a hostile
                // count cannot force a huge reservation.
                if n_queries > r.remaining() {
                    return Err(CodecError::new(format!(
                        "score batch claims {n_queries} queries but only {} bytes remain",
                        r.remaining()
                    )));
                }
                let mut queries = Vec::with_capacity(n_queries);
                for _ in 0..n_queries {
                    queries.push(decode_prepared_features(&mut r)?);
                }
                Frame::ScoreBatchRequest(ScoreBatchRequest { id, queries })
            }
            TAG_SCORE_BATCH_RESPONSE => {
                let id = r.get_u64()?;
                let n_rows = r.get_u32()? as usize;
                // Every row costs at least its 4-byte cell count.
                if r.remaining() < n_rows.saturating_mul(4) {
                    return Err(CodecError::new(format!(
                        "score batch response claims {n_rows} rows but only {} bytes remain",
                        r.remaining()
                    )));
                }
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    rows.push(decode_cells(&mut r)?);
                }
                Frame::ScoreBatchResponse(ScoreBatchResponse { id, rows })
            }
            TAG_PUSH_SLICE => {
                let index = r.get_u32()?;
                let total = r.get_u32()?;
                if total == 0 || index >= total {
                    return Err(CodecError::new(format!(
                        "push slice {index} of {total} is out of sequence"
                    )));
                }
                // `get_bytes` validates the blob length against the
                // remaining payload before copying, so a hostile length
                // prefix cannot force a huge reservation.
                let payload = r.get_bytes()?;
                Frame::PushSlice(PushSlice {
                    index,
                    total,
                    payload,
                })
            }
            TAG_PUSH_ACK => {
                let fingerprint = r.get_u64()?;
                let classes_loaded = r.get_u32()?;
                Frame::PushAck(PushAck {
                    fingerprint,
                    classes_loaded,
                })
            }
            TAG_PUSH_DELTA => {
                let index = r.get_u32()?;
                let total = r.get_u32()?;
                if total == 0 || index >= total {
                    return Err(CodecError::new(format!(
                        "push delta chunk {index} of {total} is out of sequence"
                    )));
                }
                // As with PushSlice, `get_bytes` validates the blob length
                // against the remaining payload before copying.
                let payload = r.get_bytes()?;
                Frame::PushDelta(PushDelta {
                    index,
                    total,
                    payload,
                })
            }
            TAG_DELTA_ACK => {
                let fingerprint = r.get_u64()?;
                let classes_added = r.get_u32()?;
                let classes_retired = r.get_u32()?;
                Frame::DeltaAck(DeltaAck {
                    fingerprint,
                    classes_added,
                    classes_retired,
                })
            }
            TAG_OVERLOAD => {
                let id = r.get_u64()?;
                let retry_after_ms = r.get_u32()?;
                Frame::Overload(Overload { id, retry_after_ms })
            }
            TAG_ERROR => Frame::Error(r.get_str()?),
            TAG_SHUTDOWN => Frame::Shutdown,
            other => return Err(CodecError::new(format!("unknown frame tag {other}"))),
        };
        r.expect_end()?;
        Ok(frame)
    }

    /// Write this frame to `w` (one checksummed frame, one `write_all`).
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W, peer: &str) -> Result<(), NetError> {
        hpcutil::write_frame(w, self.tag(), &self.encode_payload()).map_err(|source| NetError::Io {
            peer: peer.to_string(),
            source,
        })
    }

    /// Read and decode one frame from `r`.
    ///
    /// Transport failures (including EOF) surface as [`NetError::Io`] /
    /// [`NetError::Frame`]; a structurally valid frame with a malformed
    /// payload is [`NetError::Protocol`].
    pub fn read_from<R: Read + ?Sized>(r: &mut R, peer: &str) -> Result<Frame, NetError> {
        let (tag, payload) = hpcutil::read_frame(r, MAX_FRAME_PAYLOAD).map_err(|e| match e {
            FrameError::Io(source) => NetError::Io {
                peer: peer.to_string(),
                source,
            },
            malformed => NetError::Frame {
                peer: peer.to_string(),
                source: malformed,
            },
        })?;
        Frame::decode(tag, &payload).map_err(|e| NetError::Protocol {
            peer: peer.to_string(),
            detail: e.to_string(),
        })
    }

    /// Encode this frame into a standalone byte buffer (header + payload +
    /// checksum), exactly as [`Frame::write_to`] puts it on the wire.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        frame_bytes(self.tag(), &self.encode_payload())
    }
}

/// Write a [`ScoreRequest`] for `query` to `w` (one-shot convenience over
/// [`score_request_bytes`]).
pub fn write_score_request<W: Write + ?Sized>(
    w: &mut W,
    id: u64,
    query: &PreparedSampleFeatures,
    peer: &str,
) -> Result<(), NetError> {
    write_raw_frame(w, &score_request_bytes(id, query), peer)
}

/// Encode a [`ScoreRequest`] into its complete wire bytes without cloning
/// the prepared query into an owned frame. The client hot path encodes
/// each query **once** and writes the same buffer to every worker.
pub fn score_request_bytes(id: u64, query: &PreparedSampleFeatures) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    payload.put_u64(id);
    encode_prepared_features(&mut payload, query);
    frame_bytes(TAG_SCORE_REQUEST, payload.as_bytes())
}

/// Encode a [`ScoreBatchRequest`] into its complete wire bytes without
/// cloning the prepared queries into an owned frame. The gateway's batcher
/// packs the queries it coalesced straight from their shared handles.
pub fn score_batch_request_bytes<'a, I>(id: u64, queries: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a PreparedSampleFeatures>,
    I::IntoIter: ExactSizeIterator,
{
    let queries = queries.into_iter();
    let mut payload = ByteWriter::new();
    payload.put_u64(id);
    put_len_u32(&mut payload, queries.len());
    for query in queries {
        encode_prepared_features(&mut payload, query);
    }
    frame_bytes(TAG_SCORE_BATCH_REQUEST, payload.as_bytes())
}

/// How many dense partial rows fit in one [`ScoreBatchResponse`] frame for
/// a reference geometry of `n_columns` similarity columns.
///
/// Partial rows carry every owned `(column, score)` cell, zeros included
/// (the merge never has to guess coverage), so the response to a `rows`-
/// query batch costs `8 + 4 + rows * (4 + 12 * n_columns)` payload bytes —
/// it is the *response*, not the request, that hits [`MAX_FRAME_PAYLOAD`]
/// first on wide geometries. Every batch sender bounds its batch size with
/// this, and the gateway rejects client batches above it, so a batch can
/// never provoke an oversized response frame that the receiver would
/// reject as corrupt (poisoning the connection). Always at least 1: a
/// geometry whose single-row response overflows the frame budget cannot be
/// served at all, batched or not.
pub fn max_batch_rows_for(n_columns: usize) -> usize {
    const RESPONSE_HEADER: usize = 8 + 4; // id + row count
    let per_row = 4 + n_columns.saturating_mul(12); // cell count + cells
    ((MAX_FRAME_PAYLOAD - RESPONSE_HEADER) / per_row).max(1)
}

/// A reply frame a pipelined client connection can receive.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientReply {
    /// One partial row answering a [`ScoreRequest`].
    Score(ScoreResponse),
    /// Partial rows answering a [`ScoreBatchRequest`].
    Batch(ScoreBatchResponse),
    /// The request was shed by admission control ([`FEATURE_OVERLOAD`]).
    /// Correlated like any reply — the mux and every other in-flight
    /// request on the connection are unaffected.
    Overload(Overload),
}

/// Decode one verified frame arriving on a pipelined client connection into
/// `(correlation id, reply)` — the decode hook a [`hpcutil::Mux`] over a
/// worker connection uses. An [`Frame::Error`] from the worker is fatal on
/// the wire (the worker closes after sending it) and surfaces as
/// [`MuxErrorKind::Remote`]; any non-reply frame is [`MuxErrorKind::Decode`].
pub fn decode_client_reply(tag: u8, payload: &[u8]) -> Result<(u64, ClientReply), MuxError> {
    match Frame::decode(tag, payload) {
        Ok(Frame::ScoreResponse(response)) => Ok((response.id, ClientReply::Score(response))),
        Ok(Frame::ScoreBatchResponse(response)) => Ok((response.id, ClientReply::Batch(response))),
        Ok(Frame::Overload(overload)) => Ok((overload.id, ClientReply::Overload(overload))),
        Ok(Frame::Error(message)) => Err(MuxError::new(MuxErrorKind::Remote, message)),
        Ok(unexpected) => Err(MuxError::new(
            MuxErrorKind::Decode,
            format!("unexpected frame {unexpected:?} on a pipelined client connection"),
        )),
        Err(e) => Err(MuxError::new(MuxErrorKind::Decode, e.to_string())),
    }
}

/// Write pre-encoded frame bytes (as produced by [`score_request_bytes`] or
/// [`Frame::to_wire_bytes`]) to `w` in one `write_all`. Routed through
/// [`hpcutil::write_assembled_frame`] so the `frame.write` failpoint covers
/// encode-once-send-many paths exactly like per-frame writers.
pub fn write_raw_frame<W: Write + ?Sized>(
    w: &mut W,
    frame_bytes: &[u8],
    peer: &str,
) -> Result<(), NetError> {
    hpcutil::write_assembled_frame(w, frame_bytes).map_err(|source| NetError::Io {
        peer: peer.to_string(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::SampleFeatures;
    use std::io::Cursor;

    fn sample_query() -> PreparedSampleFeatures {
        let features = SampleFeatures::extract(
            b"a deterministic little executable stand-in with some strings in it",
        );
        PreparedSampleFeatures::prepare(&features)
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = frame.to_wire_bytes();
        let mut cursor = Cursor::new(bytes);
        Frame::read_from(&mut cursor, "test").expect("frame round-trips")
    }

    #[test]
    fn every_frame_type_roundtrips() {
        let frames = [
            Frame::Hello(Hello {
                protocol: PROTOCOL_VERSION,
                features: FEATURE_SCORE_BATCH,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                n_classes: 7,
                n_columns: 21,
                classes: vec![0, 2, 4, 6],
                tenant: "acme-prod.v2".into(),
            }),
            Frame::Assign(Assign {
                classes: vec![1, 3, 5],
            }),
            Frame::ScoreRequest(Box::new(ScoreRequest {
                id: 42,
                query: sample_query(),
            })),
            Frame::ScoreResponse(ScoreResponse {
                id: 42,
                cells: vec![(0, 100.0), (3, 61.25), (7, 0.0)],
            }),
            Frame::ScoreBatchRequest(ScoreBatchRequest {
                id: 43,
                queries: vec![sample_query(), sample_query()],
            }),
            Frame::ScoreBatchResponse(ScoreBatchResponse {
                id: 43,
                rows: vec![vec![(0, 100.0), (3, 61.25)], vec![], vec![(7, 9.5)]],
            }),
            Frame::PushSlice(PushSlice {
                index: 2,
                total: 5,
                payload: b"a delta-varint slice blob".to_vec(),
            }),
            Frame::PushAck(PushAck {
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                classes_loaded: 4,
            }),
            Frame::PushDelta(PushDelta {
                index: 0,
                total: 3,
                payload: b"a checksummed delta container chunk".to_vec(),
            }),
            Frame::DeltaAck(DeltaAck {
                fingerprint: 0xFEED_FACE_0123_4567,
                classes_added: 2,
                classes_retired: 1,
            }),
            Frame::Overload(Overload {
                id: 77,
                retry_after_ms: 1500,
            }),
            Frame::Error("reference set mismatch".into()),
            Frame::Shutdown,
        ];
        for frame in &frames {
            assert_eq!(&roundtrip(frame), frame);
        }
    }

    #[test]
    fn push_slice_rejects_an_out_of_sequence_index() {
        // index >= total can never appear in a valid sequence; the decoder
        // rejects it before the payload blob is even looked at.
        let mut payload = ByteWriter::new();
        payload.put_u32(5); // index
        payload.put_u32(5); // total
        payload.put_bytes(b"ignored");
        let mut bytes = Vec::new();
        hpcutil::write_frame(&mut bytes, TAG_PUSH_SLICE, payload.as_bytes()).unwrap();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));
    }

    #[test]
    fn push_delta_rejects_an_out_of_sequence_index() {
        let mut payload = ByteWriter::new();
        payload.put_u32(3); // index
        payload.put_u32(3); // total
        payload.put_bytes(b"ignored");
        let mut bytes = Vec::new();
        hpcutil::write_frame(&mut bytes, TAG_PUSH_DELTA, payload.as_bytes()).unwrap();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));
    }

    #[test]
    fn tenant_ids_validate_on_decode() {
        assert!(valid_tenant(DEFAULT_TENANT));
        assert!(valid_tenant("acme-prod.v2"));
        assert!(valid_tenant("A_1"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("has space"));
        assert!(!valid_tenant("sneaky/../path"));
        assert!(!valid_tenant(&"x".repeat(MAX_TENANT_LEN + 1)));

        // A structurally valid Hello frame carrying a malformed tenant is
        // a protocol error, and the report names (a clipped view of) it.
        for bad in ["", "has space", &"x".repeat(400) as &str] {
            let mut payload = ByteWriter::new();
            payload.put_u32(PROTOCOL_VERSION);
            payload.put_u32(0); // features
            payload.put_u64(7); // fingerprint
            payload.put_usize(1); // n_classes
            payload.put_usize(3); // n_columns
            payload.put_usize(1); // class-list length
            payload.put_usize(0); // class 0
            payload.put_str(bad);
            let mut bytes = Vec::new();
            hpcutil::write_frame(&mut bytes, TAG_HELLO, payload.as_bytes()).unwrap();
            let result = Frame::read_from(&mut Cursor::new(bytes), "test");
            match result {
                Err(NetError::Protocol { detail, .. }) => {
                    assert!(detail.contains("malformed tenant"), "got {detail:?}");
                    assert!(detail.len() < 300, "report echoes the whole hostile id");
                }
                other => panic!("tenant {bad:?} must be a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn score_request_write_helper_matches_owned_frame() {
        let query = sample_query();
        let mut via_helper = Vec::new();
        write_score_request(&mut via_helper, 9, &query, "test").unwrap();
        let owned = Frame::ScoreRequest(Box::new(ScoreRequest { id: 9, query }));
        assert_eq!(via_helper, owned.to_wire_bytes());
    }

    #[test]
    fn hello_rejects_out_of_range_and_duplicate_classes() {
        let hello = |classes: Vec<usize>| {
            Frame::Hello(Hello {
                protocol: PROTOCOL_VERSION,
                features: 0,
                fingerprint: 1,
                n_classes: 3,
                n_columns: 9,
                classes,
                tenant: DEFAULT_TENANT.into(),
            })
        };
        // Out of range: class 3 with n_classes = 3.
        let bytes = hello(vec![0, 3]).to_wire_bytes();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));
        // Duplicate.
        let bytes = hello(vec![1, 1]).to_wire_bytes();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));
        // Unsorted (the partition-ownership check binary-searches this).
        let bytes = hello(vec![2, 1]).to_wire_bytes();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));
    }

    #[test]
    fn hostile_class_counts_fail_without_allocating() {
        // A Hello claiming 2^60 classes and a matching huge class-list
        // length must be rejected from the byte budget, not attempted.
        let mut payload = ByteWriter::new();
        payload.put_u32(PROTOCOL_VERSION);
        payload.put_u32(0); // features
        payload.put_u64(7); // fingerprint
        payload.put_usize(1 << 60); // n_classes
        payload.put_usize(3 << 60); // n_columns
        payload.put_usize(1 << 59); // class-list length
        let mut bytes = Vec::new();
        hpcutil::write_frame(&mut bytes, TAG_HELLO, payload.as_bytes()).unwrap();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));
    }

    #[test]
    fn batch_request_helper_matches_owned_frame() {
        let queries = vec![sample_query(), sample_query(), sample_query()];
        let via_helper = score_batch_request_bytes(11, queries.iter());
        let owned = Frame::ScoreBatchRequest(ScoreBatchRequest { id: 11, queries });
        assert_eq!(via_helper, owned.to_wire_bytes());
    }

    #[test]
    fn feature_bits_negotiate_batch_support() {
        let mut hello = Hello {
            protocol: PROTOCOL_VERSION,
            features: FEATURE_SCORE_BATCH,
            fingerprint: 1,
            n_classes: 2,
            n_columns: 6,
            classes: vec![0, 1],
            tenant: DEFAULT_TENANT.into(),
        };
        assert!(hello.supports(FEATURE_SCORE_BATCH));
        hello.features = 0;
        assert!(!hello.supports(FEATURE_SCORE_BATCH));
        // Unknown future bits do not imply batch support.
        hello.features = 1 << 7;
        assert!(!hello.supports(FEATURE_SCORE_BATCH));
    }

    #[test]
    fn client_reply_decoding_routes_by_id_and_rejects_non_replies() {
        let score = Frame::ScoreResponse(ScoreResponse {
            id: 5,
            cells: vec![(1, 42.0)],
        });
        let bytes = score.to_wire_bytes();
        let (id, reply) = decode_client_reply(bytes[0], &bytes[5..bytes.len() - 8]).unwrap();
        assert_eq!(id, 5);
        assert!(matches!(reply, ClientReply::Score(r) if r.cells == vec![(1, 42.0)]));

        let batch = Frame::ScoreBatchResponse(ScoreBatchResponse {
            id: 9,
            rows: vec![vec![(0, 1.0)]],
        });
        let bytes = batch.to_wire_bytes();
        let (id, reply) = decode_client_reply(bytes[0], &bytes[5..bytes.len() - 8]).unwrap();
        assert_eq!(id, 9);
        assert!(matches!(reply, ClientReply::Batch(_)));

        // An overload rejection routes by id like any reply — it must NOT
        // poison the mux the way an Error frame does.
        let shed = Frame::Overload(Overload {
            id: 12,
            retry_after_ms: 250,
        });
        let bytes = shed.to_wire_bytes();
        let (id, reply) = decode_client_reply(bytes[0], &bytes[5..bytes.len() - 8]).unwrap();
        assert_eq!(id, 12);
        assert!(matches!(
            reply,
            ClientReply::Overload(o) if o.retry_after_ms == 250
        ));

        // A worker error frame is fatal and surfaces as Remote.
        let bytes = Frame::Error("shard on fire".into()).to_wire_bytes();
        let err = decode_client_reply(bytes[0], &bytes[5..bytes.len() - 8]).unwrap_err();
        assert_eq!(err.kind, MuxErrorKind::Remote);
        assert!(err.detail.contains("shard on fire"));

        // A frame that is not a reply at all is a decode failure.
        let bytes = Frame::Shutdown.to_wire_bytes();
        let err = decode_client_reply(bytes[0], &bytes[5..bytes.len() - 8]).unwrap_err();
        assert_eq!(err.kind, MuxErrorKind::Decode);
    }

    #[test]
    fn hostile_batch_counts_fail_without_allocating() {
        // A batch request claiming 2^31 queries in a tiny payload.
        let mut payload = ByteWriter::new();
        payload.put_u64(1); // id
        payload.put_u32(u32::MAX); // query count
        let mut bytes = Vec::new();
        hpcutil::write_frame(&mut bytes, TAG_SCORE_BATCH_REQUEST, payload.as_bytes()).unwrap();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));

        // A batch response claiming 2^31 rows in a tiny payload.
        let mut payload = ByteWriter::new();
        payload.put_u64(1); // id
        payload.put_u32(u32::MAX); // row count
        let mut bytes = Vec::new();
        hpcutil::write_frame(&mut bytes, TAG_SCORE_BATCH_RESPONSE, payload.as_bytes()).unwrap();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));
    }

    #[test]
    fn batch_row_budget_keeps_responses_under_the_frame_limit() {
        for n_columns in [1usize, 21, 21_800, 40_000, 1_000_000] {
            let rows = max_batch_rows_for(n_columns);
            assert!(rows >= 1, "budget must allow at least one row");
            let payload = 12 + rows * (4 + 12 * n_columns);
            assert!(
                payload <= MAX_FRAME_PAYLOAD,
                "{rows} dense rows of {n_columns} columns need {payload} bytes"
            );
            // The budget is tight: one more row would not fit.
            let payload = 12 + (rows + 1) * (4 + 12 * n_columns);
            assert!(
                payload > MAX_FRAME_PAYLOAD || rows == usize::MAX,
                "budget for {n_columns} columns leaves a row on the table"
            );
        }
        // A geometry wide enough that the old fixed 64-query batches would
        // overflow the response frame is now budgeted below 64.
        assert!(max_batch_rows_for(30_000) < 64);

        // An actually encoded response at the budget stays under the frame
        // payload limit.
        let n_columns = 200_000usize;
        let rows = max_batch_rows_for(n_columns);
        let dense_row: Vec<(u32, f64)> = (0..n_columns as u32).map(|c| (c, 0.5)).collect();
        let frame = Frame::ScoreBatchResponse(ScoreBatchResponse {
            id: 1,
            rows: vec![dense_row; rows],
        });
        let wire_bytes = frame.to_wire_bytes();
        // 5 bytes of header + payload + 8 bytes of checksum.
        assert!(wire_bytes.len() - 13 <= MAX_FRAME_PAYLOAD);
        assert!(matches!(
            roundtrip(&frame),
            Frame::ScoreBatchResponse(r) if r.rows.len() == rows
        ));
    }

    #[test]
    fn truncated_frames_are_io_errors() {
        let bytes = Frame::Error("will be cut short".into()).to_wire_bytes();
        for cut in 0..bytes.len() {
            let result = Frame::read_from(&mut Cursor::new(&bytes[..cut]), "test");
            assert!(
                matches!(result, Err(NetError::Io { .. })),
                "cut at {cut} must be a transport error"
            );
        }
    }

    #[test]
    fn corrupted_payload_is_a_framing_error() {
        let bytes = Frame::ScoreResponse(ScoreResponse {
            id: 7,
            cells: vec![(1, 50.0)],
        })
        .to_wire_bytes();
        let mut bad = bytes.clone();
        let mid = 5 + (bad.len() - 13) / 2; // somewhere inside the payload
        bad[mid] ^= 0x40;
        let result = Frame::read_from(&mut Cursor::new(bad), "test");
        assert!(matches!(result, Err(NetError::Frame { .. })));
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_protocol_errors() {
        let mut bytes = Vec::new();
        hpcutil::write_frame(&mut bytes, 99, b"").unwrap();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));

        // A Shutdown frame with an unexpected payload is rejected.
        let mut bytes = Vec::new();
        hpcutil::write_frame(&mut bytes, 6, b"junk").unwrap();
        let result = Frame::read_from(&mut Cursor::new(bytes), "test");
        assert!(matches!(result, Err(NetError::Protocol { .. })));
    }
}
