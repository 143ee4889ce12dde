//! The elastic, self-healing shard fleet: the one client of the shard
//! protocol.
//!
//! A fleet is a list of shards, each a primary endpoint plus optional
//! replicas. The classes are dealt round-robin across the shards in
//! topology order ([`round_robin_partition`], the rule of
//! `fhc-shardd --shard i/n`) and assigned over the wire, so whatever
//! partition a worker advertises, the fleet's own deal is what it serves.
//! The `remote:EP[,EP...]` spec is a fleet of replica-less shards in the
//! listed order, and `gateway:EP` a one-shard fleet whose node (an
//! `fhc-gateway`) owns every class; both refuse a worker holding another
//! artifact ([`StaleWorkers::Refuse`]). On top of plain fan-out the fleet
//! adds:
//!
//! - **Membership & health** ([`FleetView`]): every endpoint carries a
//!   health state. A failing node is marked down and its redials are gated
//!   by capped exponential backoff — deterministic and jitter-free, driven
//!   by an injected [`FleetClock`] so tests schedule it exactly.
//! - **Replicas & hedged requests** ([`FleetShard::replicas`]): a shard may
//!   list replica endpoints serving the same classes. A request goes to the
//!   preferred node first; if no reply lands within a rolling
//!   latency-percentile deadline, the same frame is *hedged* to the next
//!   replica and the first valid response wins. The loser's id stays
//!   registered on its connection ([`hpcutil::Mux`]) until its reply
//!   lands, and the finished race ignores that reply, so a late duplicate
//!   can never corrupt another request — and a node that fails outright
//!   fails over to its replicas immediately, without waiting for the
//!   hedge deadline.
//! - **Live re-partitioning** ([`FleetView::admit`] /
//!   [`FleetView::evict`]): joining or leaving workers re-deal the classes
//!   round-robin through the existing `Assign` frame — an exact cover by
//!   construction — and every node is brought to its new partition before
//!   the member list is swapped atomically: queries already in flight
//!   finish on the old view, new queries see the new one, and a failed
//!   repartition leaves the old fleet untouched.
//! - **Reference push** ([`wire::PushSlice`]): a diskless worker — started
//!   with no artifact — is seeded over the wire with per-class slices cut
//!   by [`ReferenceSet::encode_slice`], so it joins holding only its
//!   partition's samples. A worker advertising a stale fingerprint is
//!   re-seeded the same way: rolling artifact upgrades ride the existing
//!   fingerprint handshake. A `stale=refuse` topology
//!   ([`StaleWorkers::Refuse`]) refuses such a worker with a typed
//!   handshake error instead.
//! - **Delta push** ([`wire::PushDelta`]): when an [`ArtifactDelta`] whose
//!   base matches a stale worker's advertised fingerprint has been
//!   registered ([`FleetView::register_delta`]), the upgrade ships only the
//!   delta — retired class names plus added slices — instead of the full
//!   set. Any delta failure (a sparse worker missing a retired class, an
//!   unexpected base) falls back to the full push on a fresh dial, so the
//!   delta path is strictly an optimization, never a new failure mode.
//! - **Tenants**: a fleet built over a non-default tenant selects it on
//!   every dial and redial ([`FleetView::connect`]); a worker
//!   answering for the wrong tenant surfaces as the typed
//!   [`NetError::Tenant`], never as a silent empty row.
//!
//! Each request to a member is a *race* across its nodes. Only its owner
//! submits, dials, hedges and fails over. The fired nodes' completions
//! settle it on their muxes' reader threads: the first reply wins, records
//! its latency, marks its node up and delivers; a failed node is marked
//! down and wakes the owner; a finished race ignores late replies.
//! Completions never block and never own a connection: the health and
//! latency they update live apart from the muxes. [`FleetBackend`]'s
//! calling thread drives its races, blocking on one bounded channel until
//! an outcome, a wake or the earliest hedge deadline; the
//! [`Gateway`](crate::shardnet::Gateway) drives them from one batcher
//! thread per member. Rows are byte-identical to every other backend: the
//! winning node scores through the same prepared index, and
//! `merge_partial_row` rejects any cell outside the member's partition.

use crate::artifact::ArtifactDelta;
use crate::backend::{round_robin_partition, SimilarityBackend};
use crate::error::FhcError;
use crate::features::PreparedSampleFeatures;
use crate::shardnet::remote::{
    assign_partition, merge_partial_row, net_error_from_mux, read_hello, require_batch,
    select_tenant, spawn_mux, validate_hello, HandshakeExpect, CLIENT_BATCH,
};
use crate::shardnet::wire::{self, ClientReply, Frame, Hello};
use crate::shardnet::{Endpoint, NetError, SplitConn};
use crate::similarity::ReferenceSet;
use hpcutil::{Mux, MuxError};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// How many latency samples each rolling window keeps. Small enough that
/// the fleet adapts to a slowdown within a few dozen requests, large
/// enough that one outlier cannot move a percentile on its own.
const LATENCY_WINDOW: usize = 32;

/// The rolling percentile a hedge deadline is derived from: a request
/// still unanswered past this point of the shard's recent latency
/// distribution is in the tail, and worth racing against a replica.
const HEDGE_PERCENTILE: f64 = 0.9;

/// Hedge deadline before any latency has been observed (a cold window).
const HEDGE_COLD_START: Duration = Duration::from_millis(25);

/// Lower clamp on the hedge deadline, so a microsecond-fast shard does not
/// hedge every single request onto its replicas.
const HEDGE_MIN: Duration = Duration::from_millis(1);

/// Upper clamp on the hedge deadline, well under the mux reply deadline —
/// a hedge that can never fire before the request is declared lost would
/// be no hedge at all.
const HEDGE_MAX: Duration = Duration::from_secs(1);

/// A source of monotonic time for the fleet's backoff scheduling.
///
/// Injected so reconnect gating is testable without real sleeps: tests
/// drive a manual clock forward and observe exactly when a down node
/// becomes dialable again. The serving default is [`SystemClock`].
/// (Hedge deadlines intentionally stay on [`Instant::now`] — they measure
/// real network waits, not scheduled ones.)
pub trait FleetClock: Send + Sync + std::fmt::Debug {
    /// The current monotonic instant.
    fn now(&self) -> Instant;
}

/// The production [`FleetClock`]: [`Instant::now`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl FleetClock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Capped exponential backoff for redialing a down node: the `n`-th
/// consecutive failure schedules the next attempt `base * 2^(n-1)` later,
/// clamped to `cap`. Deterministic on purpose — no jitter — so the redial
/// schedule is exactly reproducible under an injected [`FleetClock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay after the first failure.
    pub base: Duration,
    /// Upper bound on any delay.
    pub cap: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(5),
        }
    }
}

impl BackoffPolicy {
    /// The backoff deadline delay after `failures` consecutive failures
    /// (at least one).
    pub fn delay_for(&self, failures: u32) -> Duration {
        let doublings = failures.saturating_sub(1).min(16);
        self.base
            .checked_mul(1u32 << doublings)
            .map_or(self.cap, |delay| delay.min(self.cap))
    }
}

/// Tunable timing knobs of a fleet, declared inline in the `fleet:` spec.
///
/// `;hedge_ms=COLD,MIN,MAX` sets the hedge deadline's cold-start value and
/// its lower/upper clamps; `;backoff_ms=BASE,CAP` sets the redial
/// [`BackoffPolicy`]. The defaults are the serving constants
/// (`HEDGE_COLD_START`, `HEDGE_MIN`, `HEDGE_MAX`,
/// [`BackoffPolicy::default`]), and [`FleetTopology`]'s `Display` emits a
/// tuning item only when it differs from the default — a spec written
/// without tunings round-trips unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTuning {
    /// Hedge deadline before any latency has been observed (a cold
    /// window).
    pub hedge_cold: Duration,
    /// Lower clamp on the hedge deadline.
    pub hedge_min: Duration,
    /// Upper clamp on the hedge deadline.
    pub hedge_max: Duration,
    /// Redial backoff for down nodes.
    pub backoff: BackoffPolicy,
}

impl Default for FleetTuning {
    fn default() -> Self {
        Self {
            hedge_cold: HEDGE_COLD_START,
            hedge_min: HEDGE_MIN,
            hedge_max: HEDGE_MAX,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// Parse `spec` as exactly `want` comma-separated millisecond values.
fn parse_ms_list(spec: &str, want: usize, item: &str) -> Result<Vec<u64>, String> {
    let values: Vec<u64> = spec
        .split(',')
        .map(|v| {
            v.trim()
                .parse::<u64>()
                .map_err(|_| format!("invalid {item} value {v:?}: expected whole milliseconds"))
        })
        .collect::<Result<_, _>>()?;
    if values.len() != want {
        return Err(format!(
            "{item} takes {want} comma-separated millisecond values, got {}",
            values.len()
        ));
    }
    Ok(values)
}

/// One shard of the fleet: the primary endpoint plus any replica
/// endpoints serving the same class partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetShard {
    /// The shard's first-choice endpoint.
    pub primary: Endpoint,
    /// Endpoints serving the same classes, raced via hedged requests and
    /// failed over to when the primary is down.
    pub replicas: Vec<Endpoint>,
}

impl FleetShard {
    /// A shard with no replicas.
    pub fn solo(primary: Endpoint) -> Self {
        Self {
            primary,
            replicas: Vec::new(),
        }
    }

    /// Every endpoint of this shard, primary first.
    pub fn endpoints(&self) -> impl Iterator<Item = &Endpoint> {
        std::iter::once(&self.primary).chain(self.replicas.iter())
    }
}

/// The declared shape of a fleet: one [`FleetShard`] per class partition.
///
/// Parsed from the `fleet:` backend spec
/// ([`BackendConfig`](crate::backend::BackendConfig)): shards are
/// `;`-separated endpoints, and a `replica=EP[,EP...]` item attaches
/// replicas to the shard declared before it — e.g.
/// `fleet:host1:9000;replica=host1:9100;host2:9000` is two shards, the
/// first with one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTopology {
    /// The shards, in declaration order. Classes are dealt round-robin
    /// across them ([`round_robin_partition`]).
    pub shards: Vec<FleetShard>,
    /// The fleet's timing knobs; [`FleetTuning::default`] unless the spec
    /// says otherwise. `hedge_ms=` and `backoff_ms=` items may appear
    /// anywhere in the `;`-separated list.
    pub tuning: FleetTuning,
    /// What the fleet does with a worker holding another artifact;
    /// [`StaleWorkers::Push`] unless the spec has a `stale=refuse` item
    /// (the `remote:` and `gateway:` specs parse to it).
    pub stale: StaleWorkers,
}

/// What a fleet does when a push-capable worker (or tenant slot)
/// advertises a fingerprint other than the fleet's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StaleWorkers {
    /// Re-seed it by reference push (or delta push): the rolling-upgrade
    /// path of a `fleet:` spec.
    #[default]
    Push,
    /// Refuse it with a typed fingerprint [`NetError::Handshake`], so a
    /// client holding another artifact never replaces the one a shared
    /// daemon serves its other clients. A diskless worker (fingerprint
    /// `0`) and a registered delta base are still seeded.
    Refuse,
}

impl FleetTopology {
    /// A topology over `shards` with default tuning.
    pub fn new(shards: Vec<FleetShard>) -> Self {
        Self {
            shards,
            tuning: FleetTuning::default(),
            stale: StaleWorkers::default(),
        }
    }

    /// One solo shard per endpoint, in order, refusing a worker that holds
    /// another artifact ([`StaleWorkers::Refuse`]): what the `remote:` and
    /// `gateway:` specs and `fhc-gateway --workers` parse to.
    pub fn replica_less(endpoints: impl IntoIterator<Item = Endpoint>) -> Self {
        Self {
            stale: StaleWorkers::Refuse,
            ..Self::new(endpoints.into_iter().map(FleetShard::solo).collect())
        }
    }
}

impl std::str::FromStr for FleetTopology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut shards: Vec<FleetShard> = Vec::new();
        let mut tuning = FleetTuning::default();
        let mut stale = StaleWorkers::default();
        for item in s.split(';') {
            let item = item.trim();
            if item.is_empty() {
                return Err("empty item in fleet topology (stray ';'?)".into());
            }
            if let Some(list) = item.strip_prefix("replica=") {
                let Some(shard) = shards.last_mut() else {
                    return Err("replica= must follow the shard endpoint it replicates".into());
                };
                for endpoint in list.split(',') {
                    shard.replicas.push(endpoint.trim().parse::<Endpoint>()?);
                }
            } else if let Some(spec) = item.strip_prefix("hedge_ms=") {
                let ms = parse_ms_list(spec, 3, "hedge_ms")?;
                tuning.hedge_cold = Duration::from_millis(ms[0]);
                tuning.hedge_min = Duration::from_millis(ms[1]);
                tuning.hedge_max = Duration::from_millis(ms[2]);
                if tuning.hedge_min > tuning.hedge_max {
                    return Err(format!(
                        "hedge_ms clamps are inverted: min {}ms > max {}ms",
                        ms[1], ms[2]
                    ));
                }
            } else if let Some(spec) = item.strip_prefix("backoff_ms=") {
                let ms = parse_ms_list(spec, 2, "backoff_ms")?;
                if ms[0] > ms[1] {
                    return Err(format!(
                        "backoff_ms is inverted: base {}ms > cap {}ms",
                        ms[0], ms[1]
                    ));
                }
                tuning.backoff = BackoffPolicy {
                    base: Duration::from_millis(ms[0]),
                    cap: Duration::from_millis(ms[1]),
                };
            } else if let Some(policy) = item.strip_prefix("stale=") {
                stale = match policy {
                    "push" => StaleWorkers::Push,
                    "refuse" => StaleWorkers::Refuse,
                    other => {
                        return Err(format!(
                            "invalid stale policy {other:?}: expected push or refuse"
                        ))
                    }
                };
            } else {
                shards.push(FleetShard::solo(item.parse::<Endpoint>()?));
            }
        }
        if shards.is_empty() {
            return Err("a fleet needs at least one shard endpoint".into());
        }
        Ok(FleetTopology {
            shards,
            tuning,
            stale,
        })
    }
}

impl std::fmt::Display for FleetTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{}", shard.primary)?;
            for (j, replica) in shard.replicas.iter().enumerate() {
                f.write_str(if j == 0 { ";replica=" } else { "," })?;
                write!(f, "{replica}")?;
            }
        }
        let default = FleetTuning::default();
        if (
            self.tuning.hedge_cold,
            self.tuning.hedge_min,
            self.tuning.hedge_max,
        ) != (default.hedge_cold, default.hedge_min, default.hedge_max)
        {
            write!(
                f,
                ";hedge_ms={},{},{}",
                self.tuning.hedge_cold.as_millis(),
                self.tuning.hedge_min.as_millis(),
                self.tuning.hedge_max.as_millis()
            )?;
        }
        if self.tuning.backoff != default.backoff {
            write!(
                f,
                ";backoff_ms={},{}",
                self.tuning.backoff.base.as_millis(),
                self.tuning.backoff.cap.as_millis()
            )?;
        }
        if self.stale == StaleWorkers::Refuse {
            f.write_str(";stale=refuse")?;
        }
        Ok(())
    }
}

/// One node's availability, as last observed by the fleet.
#[derive(Debug, Clone, Copy)]
enum Health {
    /// Requests may be sent.
    Healthy,
    /// The node failed `failures` consecutive times; no redial before
    /// `retry_at` (per the fleet's [`BackoffPolicy`] and [`FleetClock`]).
    Down { failures: u32, retry_at: Instant },
}

/// A bounded rolling window of request latencies with percentile lookup —
/// the statistic behind hedge deadlines and replica preference order.
#[derive(Debug, Default)]
struct LatencyWindow {
    samples: Mutex<VecDeque<Duration>>,
}

impl LatencyWindow {
    fn record(&self, sample: Duration) {
        let mut samples = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        if samples.len() == LATENCY_WINDOW {
            samples.pop_front();
        }
        samples.push_back(sample);
    }

    /// The `q`-quantile (`0.0..=1.0`) of the window, `None` while empty.
    fn percentile(&self, q: f64) -> Option<Duration> {
        let samples = self.samples.lock().unwrap_or_else(|p| p.into_inner());
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<Duration> = samples.iter().copied().collect();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
        Some(sorted[rank.min(sorted.len() - 1)])
    }

    fn median(&self) -> Option<Duration> {
        self.percentile(0.5)
    }
}

/// One connected (or reconnecting) endpoint of a fleet member.
#[derive(Debug)]
struct FleetNode {
    endpoint: Endpoint,
    /// The member's class partition, re-asserted on every redial.
    classes: Vec<usize>,
    /// Whether this node was (last) seeded by reference push — redials
    /// then push proactively instead of probing with an `Assign` first.
    pushed: AtomicBool,
    /// The live multiplexer; swapped for a fresh connection on redial.
    mux: Mutex<Mux<ClientReply>>,
}

/// One node's health and recent latencies; `peer` names its endpoint.
#[derive(Debug)]
struct NodeStats {
    peer: String,
    health: Mutex<Health>,
    /// This node's own recent latencies, ordering replica preference.
    window: LatencyWindow,
}

/// What a member's races update, kept apart from its connections so that
/// a completion never owns a mux.
#[derive(Debug)]
struct MemberStats {
    /// One per node, in node order.
    nodes: Vec<NodeStats>,
    /// Shard-level latencies of *winning* requests, setting the hedge
    /// deadline.
    window: LatencyWindow,
    clock: Arc<dyn FleetClock>,
    /// The fleet's timing knobs, inherited from its topology.
    tuning: FleetTuning,
}

impl MemberStats {
    fn health(&self, node: usize) -> MutexGuard<'_, Health> {
        self.nodes[node]
            .health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Record a node failure: mark it down and schedule its next redial
    /// per the backoff policy.
    fn mark_down(&self, node: usize) {
        let mut health = self.health(node);
        let failures = match *health {
            Health::Down { failures, .. } => failures.saturating_add(1),
            Health::Healthy => 1,
        };
        let retry_at = self.clock.now() + self.tuning.backoff.delay_for(failures);
        *health = Health::Down { failures, retry_at };
    }

    fn mark_up(&self, node: usize) {
        *self.health(node) = Health::Healthy;
    }

    /// Refuse a node that is down and whose backoff deadline has not
    /// passed, without touching the network.
    fn gate(&self, node: usize) -> Result<(), NetError> {
        match *self.health(node) {
            Health::Down { failures, retry_at } if self.clock.now() < retry_at => {
                Err(NetError::WorkerLost {
                    peer: self.nodes[node].peer.clone(),
                    detail: format!(
                        "node is down ({failures} consecutive failures) and its \
                         backoff deadline has not passed"
                    ),
                })
            }
            _ => Ok(()),
        }
    }
}

/// One shard of the live fleet: its class partition and its nodes
/// (primary first).
#[derive(Debug)]
pub struct FleetMember {
    classes: Vec<usize>,
    nodes: Vec<FleetNode>,
    stats: Arc<MemberStats>,
}

impl FleetMember {
    /// The classes this member scores.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// Node indices in preference order: by rising recent median latency,
    /// untried nodes first in declaration order. The fleet therefore
    /// routes around a *consistently* slow primary (its replica wins the
    /// hedges, its median rises, it drops down the order) without any
    /// configuration.
    fn candidate_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        let median = |i: usize| self.stats.nodes[i].window.median();
        order.sort_by_key(|&i| median(i).unwrap_or(Duration::ZERO));
        order
    }

    /// The deadline after which an unanswered request is hedged onto the
    /// next replica: twice the rolling [`HEDGE_PERCENTILE`] of this
    /// shard's winning latencies, clamped to the tuning's
    /// `hedge_min..=hedge_max`; its `hedge_cold` while the window is
    /// empty (the defaults are [`HEDGE_MIN`], [`HEDGE_MAX`],
    /// [`HEDGE_COLD_START`]).
    fn hedge_delay(&self) -> Duration {
        let tuning = &self.stats.tuning;
        self.stats
            .window
            .percentile(HEDGE_PERCENTILE)
            .map_or(tuning.hedge_cold, |p| {
                p.saturating_mul(2)
                    .clamp(tuning.hedge_min, tuning.hedge_max)
            })
    }
}

/// The fleet's membership and health registry: the control plane behind
/// [`FleetBackend`].
///
/// Holds the current member list (one [`FleetMember`] per shard, swapped
/// atomically on [`FleetView::admit`]/[`FleetView::evict`]), every node's
/// health and latency state, and the knobs that make failure handling
/// deterministic: the [`BackoffPolicy`] and the injected [`FleetClock`].
#[derive(Debug)]
pub struct FleetView {
    reference: Arc<ReferenceSet>,
    expect: HandshakeExpect,
    clock: Arc<dyn FleetClock>,
    /// The topology's [`StaleWorkers`] policy, applied on every redial;
    /// admit and evict keep it.
    stale: StaleWorkers,
    topology: Mutex<FleetTopology>,
    members: RwLock<Vec<Arc<FleetMember>>>,
    /// Registered artifact deltas, keyed by base fingerprint: a stale
    /// worker advertising a registered base is upgraded by delta push
    /// instead of a full re-seed.
    deltas: RwLock<BTreeMap<u64, Arc<ArtifactDelta>>>,
}

impl FleetView {
    /// Connect the whole topology, selecting `tenant` on every dial and
    /// redial (`None` expects the default tenant).
    ///
    /// Classes are dealt round-robin across the shards; every node of a
    /// shard (primary and replicas) is dialed, handshaken against
    /// `reference`'s fingerprint and geometry, assigned its partition —
    /// and, if it is a diskless or stale worker advertising
    /// [`wire::FEATURE_REFERENCE_PUSH`], seeded with its partition's
    /// slices first. Any unreachable node fails the connect; the fleet
    /// heals *after* it is up, it does not start degraded. Down nodes are
    /// redialed on the topology's [`FleetTuning::backoff`] schedule.
    pub fn connect(
        reference: Arc<ReferenceSet>,
        topology: FleetTopology,
        tenant: Option<&str>,
    ) -> Result<Self, NetError> {
        Self::connect_with_clock(reference, topology, tenant, Arc::new(SystemClock))
    }

    /// [`FleetView::connect`] under an explicit clock (tests inject a
    /// manual clock here to schedule redials exactly).
    pub(crate) fn connect_with_clock(
        reference: Arc<ReferenceSet>,
        topology: FleetTopology,
        tenant: Option<&str>,
        clock: Arc<dyn FleetClock>,
    ) -> Result<Self, NetError> {
        let expect = HandshakeExpect {
            fingerprint: reference.fingerprint(),
            n_classes: reference.n_classes(),
            n_columns: reference.n_columns(),
            tenant: tenant.map(str::to_string),
        };
        let members = build_members(&reference, &expect, &topology, &BTreeMap::new(), &clock)?;
        Ok(Self {
            reference,
            expect,
            clock,
            stale: topology.stale,
            topology: Mutex::new(topology),
            members: RwLock::new(members),
            deltas: RwLock::new(BTreeMap::new()),
        })
    }

    /// Register an [`ArtifactDelta`] for stale-worker upgrades: a worker
    /// whose advertised fingerprint equals the delta's base is brought to
    /// the serving set by [`wire::PushDelta`] instead of a full re-seed.
    /// The delta must target the fleet's own reference set.
    pub fn register_delta(&self, delta: ArtifactDelta) -> Result<(), NetError> {
        if delta.target_fingerprint != self.reference.fingerprint() {
            return Err(NetError::Partition(format!(
                "delta targets fingerprint {:#018x}, but this fleet serves {:#018x}",
                delta.target_fingerprint,
                self.reference.fingerprint()
            )));
        }
        self.deltas
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(delta.base_fingerprint, Arc::new(delta));
        Ok(())
    }

    /// A snapshot of the registered deltas for a (re)connect attempt.
    fn deltas_snapshot(&self) -> BTreeMap<u64, Arc<ArtifactDelta>> {
        self.deltas
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The current member list. Queries operate on the snapshot they
    /// took: a concurrent repartition swaps the list without disturbing
    /// them.
    pub fn members(&self) -> Vec<Arc<FleetMember>> {
        self.members
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Number of shards currently serving.
    pub fn n_shards(&self) -> usize {
        self.members.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The declared topology currently in effect.
    pub fn topology(&self) -> FleetTopology {
        self.topology
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The tenant every dial selects on its worker, or `None` for the
    /// default tenant.
    pub fn tenant(&self) -> Option<&str> {
        self.expect.tenant.as_deref()
    }

    /// Admit `shard` into the fleet and re-partition: the classes are
    /// re-dealt over all shards (old and new), every node is brought to
    /// its new partition — pushed
    /// nodes are re-seeded with their new slices — and only then is the
    /// member list cut over. On any failure the old fleet keeps serving
    /// unchanged.
    pub fn admit(&self, shard: FleetShard) -> Result<(), NetError> {
        let mut topology = self.topology.lock().unwrap_or_else(|p| p.into_inner());
        let mut proposed = topology.clone();
        proposed.shards.push(shard);
        let members = build_members(
            &self.reference,
            &self.expect,
            &proposed,
            &self.deltas_snapshot(),
            &self.clock,
        )?;
        // Failpoint: a fault between validation and cutover must leave the
        // old fleet serving unchanged — the invariant the chaos soak
        // checks on this site.
        crate::shardnet::inject("fleet.cutover", "fleet")?;
        *self.members.write().unwrap_or_else(|p| p.into_inner()) = members;
        *topology = proposed;
        Ok(())
    }

    /// Remove shard `index` from the fleet and re-partition the remaining
    /// shards, with the same validate-then-cutover rule as
    /// [`FleetView::admit`]. The last shard cannot be evicted.
    pub fn evict(&self, index: usize) -> Result<(), NetError> {
        let mut topology = self.topology.lock().unwrap_or_else(|p| p.into_inner());
        if index >= topology.shards.len() {
            return Err(NetError::Partition(format!(
                "no shard {index} to evict: the fleet has {}",
                topology.shards.len()
            )));
        }
        if topology.shards.len() == 1 {
            return Err(NetError::Partition(
                "cannot evict the last shard of a fleet".into(),
            ));
        }
        let mut proposed = topology.clone();
        proposed.shards.remove(index);
        let members = build_members(
            &self.reference,
            &self.expect,
            &proposed,
            &self.deltas_snapshot(),
            &self.clock,
        )?;
        crate::shardnet::inject("fleet.cutover", "fleet")?;
        *self.members.write().unwrap_or_else(|p| p.into_inner()) = members;
        *topology = proposed;
        Ok(())
    }

    /// Write `bytes` to node `index` of `member` with `complete` registered
    /// for the reply, redialing a poisoned connection first — unless the
    /// node is down before its backoff deadline: that refusal (like any
    /// other) registers nothing and touches no network.
    fn node_submit(
        &self,
        member: &FleetMember,
        index: usize,
        id: u64,
        bytes: &[u8],
        complete: impl FnOnce(Result<ClientReply, MuxError>, Instant) + Send + 'static,
    ) -> Result<(), NetError> {
        let node = &member.nodes[index];
        // Failpoint: a refused submit exercises the hedge machinery — the
        // owner fails over to the next candidate node immediately.
        crate::shardnet::inject("fleet.hedge", &node.endpoint.to_string())?;
        member.stats.gate(index)?;
        let mut mux = node.mux.lock().unwrap_or_else(|p| p.into_inner());
        if mux.is_poisoned() {
            // Failpoint: a failed redial marks the node down, so the backoff
            // gate decides when a later query dials again.
            let redialed = crate::shardnet::inject("fleet.redial", &node.endpoint.to_string())
                .and_then(|()| {
                    connect_node(
                        &self.reference,
                        &self.expect,
                        &node.endpoint,
                        &node.classes,
                        node.pushed.load(Ordering::Relaxed),
                        self.stale,
                        &self.deltas_snapshot(),
                    )
                });
            match redialed {
                Ok((fresh, pushed)) => {
                    *mux = fresh;
                    node.pushed.store(pushed, Ordering::Relaxed);
                    member.stats.mark_up(index);
                }
                Err(e) => {
                    drop(mux);
                    member.stats.mark_down(index);
                    // The connection this node had is gone, and a dial the
                    // OS refuses means the worker is gone with it.
                    return Err(match e {
                        NetError::Io { peer, source } => NetError::WorkerLost {
                            peer,
                            detail: format!("redial failed: {source}"),
                        },
                        e => e,
                    });
                }
            }
        }
        mux.submit(id, bytes, complete).map_err(|e| {
            member.stats.mark_down(index);
            net_error_from_mux(&node.endpoint.to_string(), e)
        })
    }

    /// Start a race of `bytes` on a member and fire its preferred node
    /// ([`FleetMember::candidate_order`]). `deliver` gets the outcome once;
    /// `wake` asks the owner for a [`FleetView::drive`] pass. Both usually
    /// run on a mux reader thread, so neither may block.
    pub(crate) fn start_request(
        &self,
        member: &Arc<FleetMember>,
        id: u64,
        bytes: Vec<u8>,
        deliver: impl FnOnce(RaceOutcome) + Send + 'static,
        wake: impl Fn() + Send + 'static,
    ) -> HedgedRequest {
        let state = RaceState {
            candidates: member.candidate_order().into_iter(),
            in_flight: 0,
            last_err: None,
            deliver: Some(Box::new(deliver)),
            wake: Box::new(wake),
            watched: false,
        };
        let request = HedgedRequest {
            race: Arc::new(Race {
                stats: Arc::clone(&member.stats),
                state: Mutex::new(state),
            }),
            member: Arc::clone(member),
            id,
            bytes,
            started: Instant::now(),
            hedge_delay: member.hedge_delay(),
        };
        self.fire_next(&request);
        request
    }

    /// The one wait of every race owner: block on `rx` until a message arrives
    /// or the earliest deadline of `open` passes, then fire every hedge or
    /// failover that is due — same id, distinct connection, so the mux
    /// correlation stays exact.
    pub(crate) fn drive<T>(
        &self,
        rx: &Receiver<T>,
        open: &[HedgedRequest],
    ) -> Result<T, RecvTimeoutError> {
        let received = match open.iter().filter_map(HedgedRequest::next_hedge).min() {
            Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        let now = Instant::now();
        for request in open
            .iter()
            .filter(|r| r.next_hedge().is_some_and(|at| at <= now))
        {
            self.fire_next(request);
        }
        received
    }

    /// Submit the frame to the next candidate node that accepts it, or fail
    /// the race with the last error once none is left or in flight. Never
    /// holds the race lock across a submit: a completion may need it while
    /// the write blocks.
    fn fire_next(&self, request: &HedgedRequest) {
        let race = &request.race;
        loop {
            let node = {
                let mut st = race.lock();
                match st.candidates.next() {
                    Some(node) if st.deliver.is_some() => {
                        st.in_flight += 1;
                        node
                    }
                    _ if st.in_flight == 0 => {
                        let err = st.last_err.take().unwrap_or_else(|| {
                            NetError::Partition("shard has no reachable node".into())
                        });
                        return race.finish(st, Err(err));
                    }
                    _ => return,
                }
            };
            let settle = Arc::clone(race);
            let fired_at = Instant::now();
            let complete = move |result, arrived| settle.settle(node, fired_at, result, arrived);
            match self.node_submit(&request.member, node, request.id, &request.bytes, complete) {
                Ok(()) => return,
                Err(e) => {
                    let mut st = race.lock();
                    st.in_flight -= 1;
                    st.last_err = Some(e);
                }
            }
        }
    }
}

/// A finished race: the winning node's peer and reply, or the last failure.
pub(crate) type RaceOutcome = Result<(String, ClientReply), NetError>;

/// A race's outcome as the reply to a batch of `n` queries, or an error.
pub(crate) fn batch_reply(
    outcome: RaceOutcome,
    n: usize,
) -> Result<(String, wire::ScoreBatchResponse), NetError> {
    let (peer, reply) = outcome?;
    let detail = match reply {
        ClientReply::Batch(batch) if batch.rows.len() == n => return Ok((peer, batch)),
        ClientReply::Batch(batch) => format!("{} response rows for {n} queries", batch.rows.len()),
        ClientReply::Score(_) => "single response answering a batch request".into(),
        ClientReply::Overload(o) => {
            return Err(NetError::Overload {
                peer,
                retry_after_ms: o.retry_after_ms,
            })
        }
    };
    Err(NetError::Protocol { peer, detail })
}

/// One request racing across a member's nodes, shared by its owner and
/// the completions of the nodes fired.
struct Race {
    stats: Arc<MemberStats>,
    state: Mutex<RaceState>,
}

struct RaceState {
    /// Nodes not yet fired at, in preference order.
    candidates: std::vec::IntoIter<usize>,
    /// Nodes fired at whose outcome has not arrived.
    in_flight: usize,
    last_err: Option<NetError>,
    /// Taken by whoever finishes the race.
    deliver: Option<Box<dyn FnOnce(RaceOutcome) + Send>>,
    wake: Box<dyn Fn() + Send>,
    /// Whether the owner also wants a wake when the race finishes.
    watched: bool,
}

impl Race {
    fn lock(&self) -> MutexGuard<'_, RaceState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Settle one fired node's outcome, on its mux's reader thread. The
    /// first reply wins: its latency, to when the mux delivered it, feeds
    /// the windows. A failed node is marked down and wakes the owner to
    /// fire the next candidate or fail the race. Late replies are ignored.
    fn settle(
        &self,
        node: usize,
        fired_at: Instant,
        result: Result<ClientReply, MuxError>,
        arrived: Instant,
    ) {
        let stats = &self.stats.nodes[node];
        let mut st = self.lock();
        st.in_flight -= 1;
        if st.deliver.is_none() {
            return;
        }
        match result {
            Ok(reply) => {
                let elapsed = arrived.saturating_duration_since(fired_at);
                stats.window.record(elapsed);
                self.stats.window.record(elapsed);
                self.stats.mark_up(node);
                self.finish(st, Ok((stats.peer.clone(), reply)));
            }
            Err(e) => {
                self.stats.mark_down(node);
                st.last_err = Some(net_error_from_mux(&stats.peer, e));
                (st.wake)();
            }
        }
    }

    /// Deliver `outcome` outside the lock, unless the race has finished.
    fn finish(&self, mut st: MutexGuard<'_, RaceState>, outcome: RaceOutcome) {
        if let Some(deliver) = st.deliver.take() {
            if st.watched {
                (st.wake)();
            }
            drop(st);
            deliver(outcome);
        }
    }
}

/// An owner's handle on a started race, with the frame kept for hedges.
pub(crate) struct HedgedRequest {
    member: Arc<FleetMember>,
    race: Arc<Race>,
    id: u64,
    bytes: Vec<u8>,
    started: Instant,
    hedge_delay: Duration,
}

impl HedgedRequest {
    /// When the owner should next fire a node (or fail the race): one
    /// [`FleetMember::hedge_delay`] past the start per node in flight;
    /// `None` once finished, or while nothing is left to fire.
    pub(crate) fn next_hedge(&self) -> Option<Instant> {
        let st = self.race.lock();
        let can_fire = st.in_flight == 0 || !st.candidates.as_slice().is_empty();
        (st.deliver.is_some() && can_fire)
            .then(|| self.started + self.hedge_delay.saturating_mul(st.in_flight as u32))
    }

    /// Whether the race has not finished yet; with `watch`, the owner is
    /// also woken when it does — what a draining owner waits on.
    pub(crate) fn is_running(&self, watch: bool) -> bool {
        let mut st = self.race.lock();
        st.watched |= watch;
        st.deliver.is_some()
    }
}

/// Dial, handshake, partition, and mux every node of every shard — the
/// shared machinery of [`FleetView::connect`] and the repartition paths.
fn build_members(
    reference: &ReferenceSet,
    expect: &HandshakeExpect,
    topology: &FleetTopology,
    deltas: &BTreeMap<u64, Arc<ArtifactDelta>>,
    clock: &Arc<dyn FleetClock>,
) -> Result<Vec<Arc<FleetMember>>, NetError> {
    let shards = &topology.shards;
    if shards.is_empty() {
        return Err(NetError::Partition(
            "a fleet needs at least one shard".into(),
        ));
    }
    let partition = round_robin_partition(reference.n_classes(), shards.len());
    shards
        .iter()
        .zip(partition)
        .map(|(shard, classes)| {
            let nodes = shard
                .endpoints()
                .map(|endpoint| {
                    let (mux, pushed) = connect_node_auto(
                        reference,
                        expect,
                        endpoint,
                        &classes,
                        topology.stale,
                        deltas,
                    )?;
                    Ok(FleetNode {
                        endpoint: endpoint.clone(),
                        classes: classes.clone(),
                        pushed: AtomicBool::new(pushed),
                        mux: Mutex::new(mux),
                    })
                })
                .collect::<Result<Vec<_>, NetError>>()?;
            let stats = Arc::new(MemberStats {
                nodes: shard
                    .endpoints()
                    .map(|endpoint| NodeStats {
                        peer: endpoint.to_string(),
                        health: Mutex::new(Health::Healthy),
                        window: LatencyWindow::default(),
                    })
                    .collect(),
                window: LatencyWindow::default(),
                clock: Arc::clone(clock),
                tuning: topology.tuning,
            });
            Ok(Arc::new(FleetMember {
                classes,
                nodes,
                stats,
            }))
        })
        .collect()
}

/// [`connect_node`] with automatic push fallback: a worker whose
/// fingerprint already matches is first brought over with a plain
/// `Assign`; if it *rejects* the assignment — a previously seeded sparse
/// worker missing some of the new classes does — the node is redialed
/// once with a forced re-push.
fn connect_node_auto(
    reference: &ReferenceSet,
    expect: &HandshakeExpect,
    endpoint: &Endpoint,
    classes: &[usize],
    stale: StaleWorkers,
    deltas: &BTreeMap<u64, Arc<ArtifactDelta>>,
) -> Result<(Mux<ClientReply>, bool), NetError> {
    match connect_node(reference, expect, endpoint, classes, false, stale, deltas) {
        Err(NetError::Remote { .. } | NetError::Partition(_)) => {
            connect_node(reference, expect, endpoint, classes, true, stale, deltas)
        }
        done => done,
    }
}

/// Dial `endpoint` and bring it to serving state for `classes`: validated
/// handshake (tenant selected first when the fleet serves a non-default
/// one), partition assigned, mux spawned. A worker advertising
/// [`wire::FEATURE_REFERENCE_PUSH`] whose fingerprint does not match (a
/// diskless worker advertises `0`; a stale one its old artifact's) is
/// seeded with `classes`' slices first — as is any push-capable worker
/// when `force_push` is set. When the stale fingerprint matches a
/// registered delta's base, the upgrade ships the delta instead
/// ([`wire::PushDelta`]); any delta failure falls back to the full push
/// on a fresh dial. Under [`StaleWorkers::Refuse`] only a worker with no
/// other artifact to lose is pushed to — a diskless one, one already on
/// the fleet's fingerprint, or a registered delta base — and any other
/// mismatch fails the handshake. Returns the mux and whether a push was
/// performed.
fn connect_node(
    reference: &ReferenceSet,
    expect: &HandshakeExpect,
    endpoint: &Endpoint,
    classes: &[usize],
    force_push: bool,
    stale: StaleWorkers,
    deltas: &BTreeMap<u64, Arc<ArtifactDelta>>,
) -> Result<(Mux<ClientReply>, bool), NetError> {
    let peer = endpoint.to_string();
    let mut conn = endpoint.connect_split().map_err(|source| NetError::Io {
        peer: peer.clone(),
        source,
    })?;
    let mut hello = read_hello(conn.reader(), &peer)?;
    if hello.tenant != expect.tenant_name() {
        hello = select_tenant(&mut conn, &peer, expect.tenant_name())?;
    }
    let may_push = stale == StaleWorkers::Push
        || hello.fingerprint == 0
        || hello.fingerprint == expect.fingerprint
        || deltas.contains_key(&hello.fingerprint);
    let must_push = may_push && (force_push || hello.fingerprint != expect.fingerprint);
    let mut pushed = false;
    if must_push && !force_push && hello.supports(wire::FEATURE_DELTA_PUSH) {
        if let Some(delta) = deltas
            .get(&hello.fingerprint)
            .filter(|d| d.target_fingerprint == expect.fingerprint)
        {
            match push_delta(&mut conn, &peer, delta, expect) {
                Ok(fresh) => {
                    hello = fresh;
                    pushed = true;
                }
                // The worker refused or dropped the delta (a sparse
                // worker missing a retired class does); fall back to the
                // full push on a fresh dial.
                Err(_) => {
                    return connect_node(reference, expect, endpoint, classes, true, stale, deltas)
                }
            }
        }
    }
    if must_push && !pushed && hello.supports(wire::FEATURE_REFERENCE_PUSH) {
        hello = push_reference(&mut conn, &peer, reference, expect, classes)?;
        pushed = true;
    }
    validate_hello(expect, &peer, &hello)?;
    if hello.classes != classes {
        hello = assign_partition(&mut conn, &peer, classes.to_vec())?;
    }
    require_batch(&peer, &hello)?;
    Ok((spawn_mux(conn, peer)?, pushed))
}

/// Ship `classes`' reference slices over `conn` — one
/// [`wire::PushSlice`] per class, cut by [`ReferenceSet::encode_slice`] —
/// and confirm the worker's [`wire::PushAck`]. Returns the refreshed
/// handshake that follows the ack.
fn push_reference(
    conn: &mut SplitConn,
    peer: &str,
    reference: &ReferenceSet,
    expect: &HandshakeExpect,
    classes: &[usize],
) -> Result<Hello, NetError> {
    if classes.is_empty() {
        return Err(NetError::Partition(format!(
            "shard {peer} would serve no classes; a diskless worker cannot be seeded \
             with an empty partition (use at most one shard per class)"
        )));
    }
    let total = u32::try_from(classes.len()).map_err(|_| {
        NetError::Partition(format!(
            "cannot push {} slices in one sequence",
            classes.len()
        ))
    })?;
    for (index, &class) in classes.iter().enumerate() {
        crate::shardnet::inject("fleet.push_slice", peer)?;
        let payload = reference
            .encode_slice(&[class])
            .map_err(|e| NetError::Protocol {
                peer: peer.to_string(),
                detail: format!("could not slice the reference set: {e}"),
            })?;
        if payload.len() > wire::MAX_FRAME_PAYLOAD - 64 {
            return Err(NetError::Protocol {
                peer: peer.to_string(),
                detail: format!(
                    "class {class}'s slice ({} bytes) exceeds the frame budget",
                    payload.len()
                ),
            });
        }
        Frame::PushSlice(wire::PushSlice {
            index: index as u32,
            total,
            payload,
        })
        .write_to(conn.writer(), peer)?;
    }
    match Frame::read_from(conn.reader(), peer)? {
        Frame::PushAck(ack) => {
            if ack.fingerprint != expect.fingerprint || ack.classes_loaded as usize != classes.len()
            {
                return Err(NetError::Handshake {
                    peer: peer.to_string(),
                    detail: format!(
                        "push acknowledged fingerprint {:#018x} over {} classes; \
                         expected {:#018x} over {}",
                        ack.fingerprint,
                        ack.classes_loaded,
                        expect.fingerprint,
                        classes.len()
                    ),
                });
            }
        }
        Frame::Error(message) => {
            return Err(NetError::Remote {
                peer: peer.to_string(),
                message,
            });
        }
        unexpected => {
            return Err(NetError::Protocol {
                peer: peer.to_string(),
                detail: format!("expected a push acknowledgement, got {unexpected:?}"),
            });
        }
    }
    read_hello(conn.reader(), peer)
}

/// Ship a registered [`ArtifactDelta`] over `conn` as a chunked
/// [`wire::PushDelta`] sequence and confirm the worker's
/// [`wire::DeltaAck`]. Returns the refreshed handshake that follows the
/// ack. Callers treat any error as "fall back to the full push".
fn push_delta(
    conn: &mut SplitConn,
    peer: &str,
    delta: &ArtifactDelta,
    expect: &HandshakeExpect,
) -> Result<Hello, NetError> {
    // Failpoint: any delta failure must fall back to the full push on a
    // fresh dial — the delta path is an optimization, never a new failure
    // mode.
    crate::shardnet::inject("fleet.delta_apply", peer)?;
    let encoded = delta.encode();
    let chunk_size = wire::MAX_FRAME_PAYLOAD - 64;
    let total = u32::try_from(encoded.len().div_ceil(chunk_size)).map_err(|_| {
        NetError::Partition(format!(
            "cannot push a {}-byte delta in one sequence",
            encoded.len()
        ))
    })?;
    for (index, chunk) in encoded.chunks(chunk_size).enumerate() {
        Frame::PushDelta(wire::PushDelta {
            index: index as u32,
            total,
            payload: chunk.to_vec(),
        })
        .write_to(conn.writer(), peer)?;
    }
    match Frame::read_from(conn.reader(), peer)? {
        Frame::DeltaAck(ack) => {
            if ack.fingerprint != expect.fingerprint {
                return Err(NetError::Handshake {
                    peer: peer.to_string(),
                    detail: format!(
                        "delta acknowledged fingerprint {:#018x}; expected {:#018x}",
                        ack.fingerprint, expect.fingerprint
                    ),
                });
            }
        }
        Frame::Error(message) => {
            return Err(NetError::Remote {
                peer: peer.to_string(),
                message,
            });
        }
        unexpected => {
            return Err(NetError::Protocol {
                peer: peer.to_string(),
                detail: format!("expected a delta acknowledgement, got {unexpected:?}"),
            });
        }
    }
    read_hello(conn.reader(), peer)
}

/// Race one request on every member and collect the outcomes in member
/// order, on the calling thread.
///
/// Every member's preferred node is fired before anything is awaited. The
/// caller then blocks on one channel until an outcome, a failed node's
/// wake or the earliest hedge deadline, so every member hedges on time
/// however slow the others are.
fn scatter(
    view: &FleetView,
    members: &[Arc<FleetMember>],
    id: u64,
    bytes: &[u8],
) -> Vec<RaceOutcome> {
    // A race delivers once and wakes its owner at most once per node, so
    // no send into this channel can find it full.
    let bound = members.iter().map(|m| m.nodes.len() + 1).sum();
    let (events_tx, events) = mpsc::sync_channel(bound);
    let requests: Vec<HedgedRequest> = members
        .iter()
        .enumerate()
        .map(|(i, member)| {
            let (done, wake) = (events_tx.clone(), events_tx.clone());
            let deliver = move |outcome| drop(done.try_send(Some((i, outcome))));
            let wake = move || drop(wake.try_send(None));
            view.start_request(member, id, bytes.to_vec(), deliver, wake)
        })
        .collect();
    let mut outcomes: Vec<Option<RaceOutcome>> = members.iter().map(|_| None).collect();
    while outcomes.iter().any(Option::is_none) {
        match view.drive(&events, &requests) {
            Ok(Some((i, outcome))) => outcomes[i] = Some(outcome),
            Ok(None) | Err(RecvTimeoutError::Timeout) => {}
            // Unreachable while `events_tx` lives; never spin on it.
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let lost = || Err(NetError::Partition("no outcome arrived".into()));
    outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(lost))
        .collect()
}

/// A [`SimilarityBackend`] scoring through a [`FleetView`]: fans each query
/// out to every shard over persistent, pipelined connections and
/// max-merges the partial rows.
///
/// Built with [`FleetBackend::connect`] (or through the `fleet:`,
/// `remote:` and `gateway:` specs of
/// [`BackendConfig`](crate::backend::BackendConfig)). Cloning shares the
/// fleet. Rows are byte-identical to every in-process backend; use the
/// `try_*` serving APIs — the infallible
/// [`SimilarityBackend::max_scores_into`] panics on transport errors, and
/// those only surface once *every* node of a shard is unreachable.
#[derive(Debug, Clone)]
pub struct FleetBackend {
    reference: Arc<ReferenceSet>,
    view: Arc<FleetView>,
    next_id: Arc<AtomicU64>,
}

impl FleetBackend {
    /// Connect the fleet declared by `topology` over `reference`; see
    /// [`FleetView::connect`].
    pub fn connect(
        reference: Arc<ReferenceSet>,
        topology: FleetTopology,
    ) -> Result<Self, NetError> {
        Self::connect_tenant(reference, topology, None)
    }

    /// [`FleetBackend::connect`] against a named tenant; see
    /// [`FleetView::connect`].
    pub fn connect_tenant(
        reference: Arc<ReferenceSet>,
        topology: FleetTopology,
        tenant: Option<&str>,
    ) -> Result<Self, NetError> {
        let view = FleetView::connect(Arc::clone(&reference), topology, tenant)?;
        Ok(Self::over(reference, Arc::new(view)))
    }

    /// A backend scoring through an existing (possibly shared) view.
    pub fn over(reference: Arc<ReferenceSet>, view: Arc<FleetView>) -> Self {
        Self {
            reference,
            view,
            next_id: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The fleet control plane, for membership changes
    /// ([`FleetView::admit`] / [`FleetView::evict`]) and introspection.
    pub fn view(&self) -> &Arc<FleetView> {
        &self.view
    }

    /// The topology currently serving.
    pub fn topology(&self) -> FleetTopology {
        self.view.topology()
    }

    /// The tenant selected at connect time, or `None` for the default
    /// tenant; see [`FleetView::tenant`].
    pub fn tenant(&self) -> Option<&str> {
        self.view.tenant()
    }

    /// Score one query as a batch of one and write its max-merged row
    /// into `out`.
    fn fan_out(&self, query: &PreparedSampleFeatures, out: &mut [f64]) -> Result<(), NetError> {
        assert_eq!(out.len(), self.reference.n_columns(), "row width mismatch");
        let rows = self.try_feature_rows_prepared(std::slice::from_ref(query))?;
        for row in rows {
            out.copy_from_slice(&row);
        }
        Ok(())
    }

    /// Score a whole slice of prepared queries and return their dense,
    /// max-merged rows — the batch counterpart of
    /// [`try_max_scores_into`](SimilarityBackend::try_max_scores_into),
    /// riding [`wire::ScoreBatchRequest`] frames with per-member hedging
    /// and failover. Fleet workers always advertise batch scoring (it is
    /// required at connect), so there is no single-frame fallback path.
    pub fn try_feature_rows_prepared(
        &self,
        queries: &[PreparedSampleFeatures],
    ) -> Result<Vec<Vec<f64>>, NetError> {
        let n_columns = self.reference.n_columns();
        let n_classes = self.reference.n_classes();
        let client_batch = CLIENT_BATCH.min(wire::max_batch_rows_for(n_columns));
        let mut rows = vec![vec![0.0f64; n_columns]; queries.len()];
        let members = self.view.members();
        for (chunk_index, chunk) in queries.chunks(client_batch).enumerate() {
            let out = &mut rows[chunk_index * client_batch..][..chunk.len()];
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let bytes = wire::score_batch_request_bytes(id, chunk);
            let replies = scatter(&self.view, &members, id, &bytes);
            for (member, outcome) in members.iter().zip(replies) {
                let (peer, batch) = batch_reply(outcome, chunk.len())?;
                for (cells, row) in batch.rows.into_iter().zip(out.iter_mut()) {
                    merge_partial_row(&peer, &member.classes, n_classes, cells, row)?;
                }
            }
        }
        Ok(rows)
    }
}

impl SimilarityBackend for FleetBackend {
    fn reference(&self) -> &ReferenceSet {
        &self.reference
    }

    /// Infallible scoring is impossible over a network; this panics once
    /// every node of a shard is unreachable. Serve fleets through the
    /// `try_*` APIs.
    fn max_scores_into(&self, query: &PreparedSampleFeatures, out: &mut [f64]) {
        self.fan_out(query, out).unwrap_or_else(|e| {
            // fhc-lint: allow(no_panic) -- documented trait contract: the infallible API cannot express transport failure; fleet serving goes through try_max_scores_into
            panic!("fleet similarity backend failed (use the try_* serving APIs): {e}")
        });
    }

    fn try_max_scores_into(
        &self,
        query: &PreparedSampleFeatures,
        out: &mut [f64],
    ) -> Result<(), FhcError> {
        self.fan_out(query, out).map_err(FhcError::Net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendConfig;
    use crate::features::{FeatureKind, SampleFeatures};
    use crate::shardnet::worker::{serve_host_tcp, ShardWorker, TenantHost};
    use std::net::TcpListener;

    fn reference() -> Arc<ReferenceSet> {
        let train = vec![
            SampleFeatures::extract(b"the velvet assembler executable body one"),
            SampleFeatures::extract(b"the velvet assembler executable body two"),
            SampleFeatures::extract(b"an openmalaria simulation binary payload"),
            SampleFeatures::extract(b"a gromacs molecular dynamics trajectory dump"),
        ];
        Arc::new(ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into(), "Gromacs".into()],
            &train,
            &[0, 0, 1, 2],
            &FeatureKind::ALL,
        ))
    }

    fn queries() -> Vec<PreparedSampleFeatures> {
        (0..5)
            .map(|i| {
                PreparedSampleFeatures::prepare(&SampleFeatures::extract(
                    format!("fleet probe body number {i}").as_bytes(),
                ))
            })
            .collect()
    }

    fn expected_rows(rs: &Arc<ReferenceSet>, queries: &[PreparedSampleFeatures]) -> Vec<Vec<f64>> {
        let scan = BackendConfig::Scan.build(Arc::clone(rs));
        queries
            .iter()
            .map(|q| scan.feature_vector_prepared(q))
            .collect()
    }

    /// Serve an artifact-loaded worker host over loopback TCP; returns its
    /// endpoint.
    fn spawn_host(host: Arc<TenantHost>) -> Endpoint {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || serve_host_tcp(host, listener));
        Endpoint::Tcp(addr)
    }

    fn loaded_host(rs: &Arc<ReferenceSet>) -> Arc<TenantHost> {
        Arc::new(TenantHost::single(Some(ShardWorker::all_classes(
            Arc::clone(rs),
        ))))
    }

    fn spawn_loaded_worker(rs: &Arc<ReferenceSet>) -> Endpoint {
        spawn_host(loaded_host(rs))
    }

    /// A loopback worker whose `n`-th accepted connection (from 0) answers
    /// `budget(n)` score requests and then drops without a goodbye — the
    /// shape of an idle-reaped or crashed worker. Returns its endpoint and
    /// the running accept count.
    fn spawn_budgeted_worker(
        rs: &Arc<ReferenceSet>,
        budget: fn(usize) -> Option<u64>,
    ) -> (Endpoint, Arc<std::sync::atomic::AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let host = loaded_host(rs);
        let accepted = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let accept_count = Arc::clone(&accepted);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let n = accept_count.fetch_add(1, Ordering::SeqCst);
                let host = Arc::clone(&host);
                std::thread::spawn(move || {
                    let _ = host.serve_requests(stream, "budgeted", budget(n));
                });
            }
        });
        (endpoint, accepted)
    }

    /// Wait until the mux of `fleet`'s only node has noticed its peer's
    /// EOF and poisoned itself.
    fn await_poison(fleet: &FleetBackend) {
        let members = fleet.view().members();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !members[0].nodes[0]
            .mux
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_poisoned()
        {
            assert!(Instant::now() < deadline, "mux never noticed the EOF");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn a_dropped_worker_connection_is_redialed_on_a_later_query() {
        let rs = reference();
        let queries = queries();
        let expected = expected_rows(&rs, &queries[..1]);
        // Every connection answers one request and drops, repeatably.
        let (endpoint, _) = spawn_budgeted_worker(&rs, |_| Some(1));
        let fleet = FleetBackend::connect(Arc::clone(&rs), FleetTopology::replica_less([endpoint]))
            .expect("connect");
        assert_eq!(
            fleet
                .try_feature_rows_prepared(&queries[..1])
                .expect("first query"),
            expected
        );
        // The worker dropped the connection after that answer; once the
        // mux has noticed, the next query must transparently re-dial
        // instead of failing on the sticky poison.
        await_poison(&fleet);
        assert_eq!(
            fleet
                .try_feature_rows_prepared(&queries[..1])
                .expect("query after the reconnect"),
            expected
        );
    }

    #[test]
    fn concurrent_callers_share_one_reconnect_after_poison() {
        let rs = reference();
        let queries = queries();
        let expected = expected_rows(&rs, &queries[..1]);
        // The first connection answers one request and drops; every later
        // one serves normally. The accept count makes the reconnect
        // observable from the worker's side of the wire.
        let (endpoint, accepted) = spawn_budgeted_worker(&rs, |n| (n == 0).then_some(1));
        let fleet = FleetBackend::connect(Arc::clone(&rs), FleetTopology::replica_less([endpoint]))
            .expect("connect");
        assert_eq!(
            fleet
                .try_feature_rows_prepared(&queries[..1])
                .expect("first query"),
            expected
        );
        await_poison(&fleet);
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            1,
            "only the first dial so far"
        );

        // Hit the poisoned node from many threads at once. The redial runs
        // under the node's mux lock, so exactly one caller pays for it; the
        // rest queue behind the lock and submit on the fresh connection.
        const CALLERS: usize = 8;
        let barrier = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|s| {
            for _ in 0..CALLERS {
                s.spawn(|| {
                    barrier.wait();
                    let rows = fleet
                        .try_feature_rows_prepared(&queries[..1])
                        .expect("query during the shared reconnect");
                    assert_eq!(rows, expected, "row changed across the reconnect");
                });
            }
        });
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            2,
            "exactly one reconnect served the whole caller burst"
        );
    }

    fn spawn_diskless_worker() -> Endpoint {
        spawn_host(Arc::new(TenantHost::single(None)))
    }

    #[test]
    fn backoff_doubles_deterministically_and_caps() {
        let policy = BackoffPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
        };
        assert_eq!(policy.delay_for(1), Duration::from_millis(50));
        assert_eq!(policy.delay_for(2), Duration::from_millis(100));
        assert_eq!(policy.delay_for(3), Duration::from_millis(200));
        assert_eq!(policy.delay_for(5), Duration::from_millis(800));
        assert_eq!(policy.delay_for(6), Duration::from_secs(1));
        assert_eq!(policy.delay_for(60), Duration::from_secs(1));
    }

    #[test]
    fn topology_parses_replicas_and_round_trips_through_display() {
        let spec = "host1:9000;replica=host1:9100,host2:9100;host2:9000";
        let topology: FleetTopology = spec.parse().expect("parse");
        assert_eq!(topology.shards.len(), 2);
        assert_eq!(topology.shards[0].replicas.len(), 2);
        assert_eq!(topology.shards[1].replicas.len(), 0);
        assert_eq!(
            topology.to_string(),
            "tcp:host1:9000;replica=tcp:host1:9100,tcp:host2:9100;tcp:host2:9000"
        );
        let reparsed: FleetTopology = topology.to_string().parse().expect("reparse");
        assert_eq!(reparsed, topology);

        assert!("".parse::<FleetTopology>().is_err());
        assert!("replica=host:1".parse::<FleetTopology>().is_err());
        assert!("host:1;;host:2".parse::<FleetTopology>().is_err());

        // `stale=push` is the default and not displayed; `stale=refuse`
        // round-trips.
        let pushing: FleetTopology = "host:1;stale=push".parse().expect("parse");
        assert_eq!(pushing.stale, StaleWorkers::Push);
        assert_eq!(pushing.to_string(), "tcp:host:1");
        let refusing: FleetTopology = "stale=refuse;host:1".parse().expect("parse");
        assert_eq!(refusing.stale, StaleWorkers::Refuse);
        assert_eq!(refusing.to_string(), "tcp:host:1;stale=refuse");
        assert_eq!(refusing.to_string().parse::<FleetTopology>(), Ok(refusing));
        assert!("host:1;stale=maybe".parse::<FleetTopology>().is_err());
    }

    #[test]
    fn topology_tuning_parses_and_round_trips_through_display() {
        // Default tuning: nothing extra in the display form.
        let plain: FleetTopology = "host1:9000".parse().expect("parse");
        assert_eq!(plain.tuning, FleetTuning::default());
        assert_eq!(plain.to_string(), "tcp:host1:9000");

        // Tuned spec: values land in the right knobs, and Display emits
        // them back so the string round-trips.
        let spec = "host1:9000;replica=host1:9100;hedge_ms=5,1,40;backoff_ms=10,200";
        let tuned: FleetTopology = spec.parse().expect("parse tuned");
        assert_eq!(tuned.tuning.hedge_cold, Duration::from_millis(5));
        assert_eq!(tuned.tuning.hedge_min, Duration::from_millis(1));
        assert_eq!(tuned.tuning.hedge_max, Duration::from_millis(40));
        assert_eq!(
            tuned.tuning.backoff,
            BackoffPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(200),
            }
        );
        assert_eq!(
            tuned.to_string(),
            "tcp:host1:9000;replica=tcp:host1:9100;hedge_ms=5,1,40;backoff_ms=10,200"
        );
        let reparsed: FleetTopology = tuned.to_string().parse().expect("reparse");
        assert_eq!(reparsed, tuned);

        // Tuning items may appear anywhere, including before any shard.
        let leading: FleetTopology = "backoff_ms=10,200;host1:9000".parse().expect("parse");
        assert_eq!(leading.tuning.backoff.base, Duration::from_millis(10));

        // Malformed tunings are rejected with a reason, not defaulted.
        for bad in [
            "host:1;hedge_ms=5,1",          // wrong arity
            "host:1;hedge_ms=5,40,1",       // inverted clamps
            "host:1;hedge_ms=a,b,c",        // not milliseconds
            "host:1;backoff_ms=200,10",     // base above cap
            "host:1;backoff_ms=10,200,300", // wrong arity
        ] {
            assert!(bad.parse::<FleetTopology>().is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn latency_window_percentiles_roll() {
        let window = LatencyWindow::default();
        assert_eq!(window.percentile(0.9), None);
        for ms in 1..=10u64 {
            window.record(Duration::from_millis(ms));
        }
        assert_eq!(window.median(), Some(Duration::from_millis(6)));
        assert_eq!(window.percentile(0.9), Some(Duration::from_millis(9)));
        // The window is bounded: old samples roll off.
        for _ in 0..LATENCY_WINDOW {
            window.record(Duration::from_millis(100));
        }
        assert_eq!(window.median(), Some(Duration::from_millis(100)));
    }

    #[test]
    fn fleet_rows_match_scan_and_survive_admit_and_evict() {
        let rs = reference();
        let queries = queries();
        let expected = expected_rows(&rs, &queries);

        let first = spawn_loaded_worker(&rs);
        let backend = FleetBackend::connect(
            Arc::clone(&rs),
            FleetTopology::new(vec![FleetShard::solo(first)]),
        )
        .expect("connect single-shard fleet");
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );

        // Admit a second (diskless!) shard: classes re-deal, exact cover
        // holds, rows stay byte-identical.
        let second = spawn_diskless_worker();
        backend
            .view()
            .admit(FleetShard::solo(second))
            .expect("admit");
        let members = backend.view().members();
        let classes: Vec<Vec<usize>> = members.iter().map(|m| m.classes().to_vec()).collect();
        assert_eq!(classes, round_robin_partition(rs.n_classes(), 2));
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );

        // Evict the first shard: the diskless survivor is re-seeded with
        // every class and still serves identical rows.
        backend.view().evict(0).expect("evict");
        assert_eq!(backend.view().n_shards(), 1);
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
        // The last shard is protected.
        assert!(backend.view().evict(0).is_err());
    }

    #[test]
    fn a_diskless_worker_is_seeded_by_push_and_serves_identical_rows() {
        let rs = reference();
        let queries = queries();
        let expected = expected_rows(&rs, &queries);
        let endpoint = spawn_diskless_worker();
        let backend = FleetBackend::connect(
            Arc::clone(&rs),
            FleetTopology::new(vec![FleetShard::solo(endpoint.clone())]),
        )
        .expect("connect pushes the reference set");
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
        // A second fleet client finds the worker already seeded (matching
        // fingerprint) and connects without re-pushing.
        let again = FleetBackend::connect(
            Arc::clone(&rs),
            FleetTopology::new(vec![FleetShard::solo(endpoint)]),
        )
        .expect("reconnect to the seeded worker");
        assert_eq!(
            again.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
    }

    #[test]
    fn a_stale_worker_is_upgraded_by_push_on_connect() {
        let rs = reference();
        // A worker loaded with a *different* (stale) artifact.
        let stale_train = vec![SampleFeatures::extract(b"an entirely different corpus")];
        let stale = Arc::new(ReferenceSet::new(
            vec!["Other".into()],
            &stale_train,
            &[0],
            &FeatureKind::ALL,
        ));
        let endpoint = spawn_host(Arc::new(TenantHost::single(Some(
            ShardWorker::all_classes(stale),
        ))));

        let queries = queries();
        let expected = expected_rows(&rs, &queries);
        let backend = FleetBackend::connect(
            Arc::clone(&rs),
            FleetTopology::new(vec![FleetShard::solo(endpoint)]),
        )
        .expect("connect upgrades the stale worker over the wire");
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
    }

    #[test]
    fn a_stale_worker_with_a_registered_delta_is_upgraded_by_delta_push() {
        let base = reference();
        // Evolve by appending a class: order-preserving, so the delta is
        // genuinely incremental (no retires, one added slice).
        let mut evolved = (*base).clone();
        evolved
            .add_class(
                "Hmmer".into(),
                vec![PreparedSampleFeatures::prepare(&SampleFeatures::extract(
                    b"a hmmer profile hidden markov search image",
                ))],
            )
            .expect("append a class");
        let target = Arc::new(evolved);
        let delta = ArtifactDelta::between(&base, &target).expect("diff");
        assert!(delta.retire_classes.is_empty());
        assert_eq!(delta.add_slices.len(), 1);

        let queries = queries();
        let expected = expected_rows(&target, &queries);
        let fresh = spawn_loaded_worker(&target);
        let backend = FleetBackend::connect(
            Arc::clone(&target),
            FleetTopology::new(vec![FleetShard::solo(fresh)]),
        )
        .expect("connect over the evolved set");

        // A delta targeting anything but this fleet's reference set is
        // refused at registration.
        let backwards = ArtifactDelta::between(&target, &base).expect("reverse diff");
        assert!(backend.view().register_delta(backwards).is_err());
        backend.view().register_delta(delta).expect("register");

        // Admit a worker still loaded with the base artifact: it
        // advertises the delta's base fingerprint, so the upgrade rides
        // PushDelta — and the patched worker serves byte-identical rows.
        let stale = spawn_loaded_worker(&base);
        backend
            .view()
            .admit(FleetShard::solo(stale))
            .expect("admit upgrades the stale worker by delta");
        assert_eq!(backend.view().n_shards(), 2);
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
    }

    #[test]
    fn a_sparse_worker_that_cannot_apply_the_delta_falls_back_to_full_push() {
        let base = reference();
        // Seed two diskless workers from a fleet over the *base* set: each
        // ends up holding only its partition's slices (a sparse base).
        let d0 = spawn_diskless_worker();
        let d1 = spawn_diskless_worker();
        let old = FleetBackend::connect(
            Arc::clone(&base),
            FleetTopology::new(vec![FleetShard::solo(d0.clone()), FleetShard::solo(d1)]),
        )
        .expect("seed the diskless pair with base slices");
        drop(old);

        // Evolve in place: extending a middle class re-travels it as
        // retire+add, which breaks order preservation, so the delta falls
        // back to full replacement — it retires classes a sparse worker
        // does not hold.
        let mut evolved = (*base).clone();
        evolved
            .add_samples(
                0,
                vec![PreparedSampleFeatures::prepare(&SampleFeatures::extract(
                    b"the velvet assembler executable body three",
                ))],
            )
            .expect("extend class 0");
        let target = Arc::new(evolved);
        let delta = ArtifactDelta::between(&base, &target).expect("diff");
        assert!(!delta.retire_classes.is_empty());

        let queries = queries();
        let expected = expected_rows(&target, &queries);
        let fresh = spawn_loaded_worker(&target);
        let backend = FleetBackend::connect(
            Arc::clone(&target),
            FleetTopology::new(vec![FleetShard::solo(fresh)]),
        )
        .expect("connect over the evolved set");
        backend.view().register_delta(delta).expect("register");

        // The sparse worker advertises the base fingerprint, the delta
        // push fails on it (it cannot retire classes it never held), and
        // the connect falls back to a full push — admit succeeds and the
        // rows stay byte-identical.
        backend
            .view()
            .admit(FleetShard::solo(d0))
            .expect("admit falls back to the full push");
        assert_eq!(backend.view().n_shards(), 2);
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
    }

    #[test]
    fn a_dead_primary_fails_over_to_its_replica_with_no_surfaced_error() {
        let rs = reference();
        let queries = queries();
        let expected = expected_rows(&rs, &queries);

        // The primary accepts connections but drops them after the
        // handshake (a request budget of zero) — every query on it fails.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind flaky primary");
        let addr = listener.local_addr().unwrap().to_string();
        let flaky = loaded_host(&rs);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let flaky = Arc::clone(&flaky);
                std::thread::spawn(move || {
                    let _ = flaky.serve_requests(stream, "flaky", Some(0));
                });
            }
        });
        let replica = spawn_loaded_worker(&rs);

        let backend = FleetBackend::connect(
            Arc::clone(&rs),
            FleetTopology::new(vec![FleetShard {
                primary: Endpoint::Tcp(addr),
                replicas: vec![replica],
            }]),
        )
        .expect("connect");
        // Every batch completes through the replica; no error surfaces.
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
    }

    /// A TCP relay in front of `upstream` that holds every request-bound
    /// chunk for the current `lag` (zero while the fleet connects).
    fn lagging_link(upstream: &Endpoint, lag: Arc<Mutex<Duration>>) -> Endpoint {
        use std::io::{Read, Write};
        use std::net::{Shutdown, TcpStream};
        let Endpoint::Tcp(upstream) = upstream.clone() else {
            panic!("the relay fronts TCP endpoints")
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        std::thread::spawn(move || {
            for down in listener.incoming() {
                let Ok(down) = down else { return };
                let up = TcpStream::connect(&upstream).expect("dial upstream");
                let pump = |mut from: TcpStream, mut to: TcpStream, lag: Option<Arc<Mutex<_>>>| {
                    move || {
                        let mut buf = vec![0u8; 64 << 10];
                        while let Ok(n @ 1..) = from.read(&mut buf) {
                            if let Some(lag) = &lag {
                                std::thread::sleep(*lag.lock().unwrap());
                            }
                            if to.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                        let _ = to.shutdown(Shutdown::Write);
                    }
                };
                let (down2, up2) = (down.try_clone().unwrap(), up.try_clone().unwrap());
                std::thread::spawn(pump(down, up, Some(Arc::clone(&lag))));
                std::thread::spawn(pump(up2, down2, None));
            }
        });
        endpoint
    }

    #[test]
    fn every_member_hedges_on_time_and_records_only_its_own_latency() {
        let rs = reference();
        let queries = queries();
        // Shard 0 is one very slow node, shard 1 a slow primary with a
        // fast replica, shard 2 one fast node. Hedges fire 20ms into a
        // request. The links lag only once the fleet is connected.
        let (lag0, lag1) = (Arc::default(), Arc::default());
        let spec = format!(
            "{};{};replica={};{};hedge_ms=20,1,1000",
            lagging_link(&spawn_loaded_worker(&rs), Arc::clone(&lag0)),
            lagging_link(&spawn_loaded_worker(&rs), Arc::clone(&lag1)),
            spawn_loaded_worker(&rs),
            spawn_loaded_worker(&rs)
        );
        let backend =
            FleetBackend::connect(Arc::clone(&rs), spec.parse().unwrap()).expect("connect");
        let members = backend.view().members();
        assert_eq!(members.len(), 3);

        let (very_slow, slow) = (Duration::from_millis(600), Duration::from_millis(200));
        *lag0.lock().unwrap() = very_slow;
        *lag1.lock().unwrap() = slow;
        let started = Instant::now();
        let expected = expected_rows(&rs, &queries);
        let rows = backend.try_feature_rows_prepared(&queries).expect("rows");
        assert_eq!(rows, expected);
        let took = started.elapsed();
        *lag0.lock().unwrap() = Duration::ZERO;
        *lag1.lock().unwrap() = Duration::ZERO;
        assert!(took >= very_slow, "shard 0 has no other node");

        let recorded = |window: &LatencyWindow| window.percentile(1.0).expect("one sample");
        let check_windows = || {
            assert!(recorded(&members[0].stats.window) >= very_slow);
            // Shard 1 hedged on time while shard 0 was still waiting: its
            // replica won before the slow primary could answer.
            assert!(members[1].stats.nodes[0].window.median().is_none());
            assert!(recorded(&members[1].stats.nodes[1].window) < slow);
            assert!(recorded(&members[1].stats.window) < slow);
            // Shard 2's latency is its own, not shard 0's wait.
            assert!(recorded(&members[2].stats.window) < slow);
        };
        check_windows();

        // The slow primary's reply lands after its race was won. The
        // finished race ignores it: no window moves, the rows the caller
        // holds are the replica's, and the next query scores the same.
        let primary = &members[1].nodes[0].mux;
        let deadline = Instant::now() + Duration::from_secs(10);
        while primary.lock().unwrap().in_flight() > 0 {
            assert!(Instant::now() < deadline, "the late reply never landed");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!primary.lock().unwrap().is_poisoned());
        check_windows();
        assert_eq!(rows, expected);
        assert_eq!(
            backend.try_feature_rows_prepared(&queries).expect("rows"),
            expected
        );
    }

    /// A manual clock: starts at a real instant, advances only on demand.
    #[derive(Debug)]
    struct ManualClock {
        base: Instant,
        offset: Mutex<Duration>,
    }

    impl ManualClock {
        fn new() -> Self {
            Self {
                base: Instant::now(),
                offset: Mutex::new(Duration::ZERO),
            }
        }

        fn advance(&self, by: Duration) {
            *self.offset.lock().unwrap() += by;
        }
    }

    impl FleetClock for ManualClock {
        fn now(&self) -> Instant {
            self.base + *self.offset.lock().unwrap()
        }
    }

    #[test]
    fn a_down_node_is_gated_by_the_deterministic_backoff_schedule() {
        let rs = reference();
        // One connection total: the fleet handshakes successfully, after
        // which the listener is gone — the first query poisons the mux and
        // every redial fails.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind one-shot worker");
        let addr = listener.local_addr().unwrap().to_string();
        let worker = loaded_host(&rs);
        std::thread::spawn(move || {
            if let Some(Ok(stream)) = listener.incoming().next() {
                let _ = worker.serve_requests(stream, "one-shot", Some(0));
            }
        });

        let clock = Arc::new(ManualClock::new());
        let mut topology = FleetTopology::new(vec![FleetShard::solo(Endpoint::Tcp(addr))]);
        topology.tuning.backoff = BackoffPolicy {
            base: Duration::from_secs(60),
            cap: Duration::from_secs(600),
        };
        let view = FleetView::connect_with_clock(
            Arc::clone(&rs),
            topology,
            None,
            Arc::clone(&clock) as Arc<dyn FleetClock>,
        )
        .expect("connect");
        let backend = FleetBackend::over(Arc::clone(&rs), Arc::new(view));
        let query =
            PreparedSampleFeatures::prepare(&SampleFeatures::extract(b"backoff probe body"));

        // First query: the connection is found dead, the redial fails
        // (listener gone), the node is marked down.
        let first = backend.try_feature_rows_prepared(std::slice::from_ref(&query));
        assert!(first.is_err(), "the lone node is dead");

        // Second query, clock unmoved: refused by the backoff gate —
        // deterministically, without touching the network.
        let gated = backend
            .try_feature_rows_prepared(std::slice::from_ref(&query))
            .expect_err("backoff must gate the redial");
        assert!(
            gated.to_string().contains("backoff deadline"),
            "expected a backoff refusal, got: {gated}"
        );

        // Advance past the first backoff step: the redial is attempted
        // again (and fails against the closed listener with a dial error,
        // not a backoff refusal).
        clock.advance(Duration::from_secs(61));
        let redialed = backend
            .try_feature_rows_prepared(std::slice::from_ref(&query))
            .expect_err("the worker is still gone");
        assert!(
            !redialed.to_string().contains("backoff deadline"),
            "expected a real redial attempt, got: {redialed}"
        );

        // And the failure doubled the gate: one more step is not enough.
        clock.advance(Duration::from_secs(61));
        let gated_again = backend
            .try_feature_rows_prepared(std::slice::from_ref(&query))
            .expect_err("still down");
        assert!(
            gated_again.to_string().contains("backoff deadline"),
            "expected the doubled backoff to gate, got: {gated_again}"
        );
    }

    #[test]
    fn without_a_replica_the_typed_net_error_contract_is_unchanged() {
        let rs = reference();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind one-shot worker");
        let addr = listener.local_addr().unwrap().to_string();
        let worker = loaded_host(&rs);
        std::thread::spawn(move || {
            if let Some(Ok(stream)) = listener.incoming().next() {
                let _ = worker.serve_requests(stream, "one-shot", Some(0));
            }
        });
        let backend = FleetBackend::connect(
            Arc::clone(&rs),
            FleetTopology::new(vec![FleetShard::solo(Endpoint::Tcp(addr))]),
        )
        .expect("connect");
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(b"probe"));
        let mut out = vec![0.0; rs.n_columns()];
        let err = backend
            .try_max_scores_into(&query, &mut out)
            .expect_err("the lone worker is gone");
        assert!(
            matches!(err, FhcError::Net(_)),
            "fleet errors stay typed: {err:?}"
        );
    }
}
