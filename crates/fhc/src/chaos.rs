//! Seeded chaos harness for the serving stack.
//!
//! Compiled only with the `failpoints` feature (see
//! [`hpcutil::failpoint`]), this module drives hundreds of in-process
//! serving rounds with deterministic fault injection and checks the one
//! invariant the whole serving tier promises:
//!
//! > Every query either returns rows **byte-identical** to the scan
//! > oracle, or fails with a **typed** [`FhcError::Net`] — never a wrong,
//! > partial, or duplicated row. And once the fault schedule is cleared,
//! > the stack converges back to serving with zero errors.
//!
//! Each round derives its own seed from the run's root seed (via
//! [`hpcutil::SeedSequence`]), picks one of the persistent serving stacks
//! (replica-less `remote:` fleet, replicated fleet, batching gateway behind
//! a `gateway:` fleet, named tenant),
//! arms a generated failpoint spec, fires a burst of queries, disarms,
//! and then retries until the stack heals. A violation reports the root
//! seed, the round index, and the exact spec, so any failure replays with
//! `fhc-chaos --seed N` (or the `chaos_soak` integration test).

use crate::backend::{BackendConfig, SimilarityBackend};
use crate::error::FhcError;
use crate::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use crate::shardnet::gateway::{self, Gateway, GatewayOptions};
use crate::shardnet::worker::{self, ShardWorker, TenantHost};
use crate::shardnet::{
    BackoffPolicy, Endpoint, FleetBackend, FleetShard, FleetTopology, FleetTuning, NetError,
};
use crate::similarity::ReferenceSet;
use hpcutil::failpoint;
use hpcutil::SeedSequence;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Everything one chaos run needs to be reproduced exactly.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Root seed; every round's schedule derives from it.
    pub seed: u64,
    /// How many fault-injection rounds to run.
    pub rounds: u64,
    /// Queries fired per round while the fault schedule is armed.
    pub queries: usize,
    /// Print a line per round (the `fhc-chaos` binary turns this on).
    pub verbose: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xC4A05,
            rounds: 200,
            queries: 5,
            verbose: false,
        }
    }
}

/// What a completed (violation-free) run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Rounds completed.
    pub rounds: u64,
    /// Queries answered with rows byte-identical to the scan oracle while
    /// faults were armed.
    pub clean_rows: u64,
    /// Queries answered with a typed [`FhcError::Net`] while faults were
    /// armed (the only failure shape the invariant allows).
    pub typed_errors: u64,
    /// Fresh connect attempts exercised under fire (handshake, reference
    /// push) that failed with a typed error.
    pub refused_connects: u64,
}

/// Bound on the post-`clear` healing loop: attempts × sleep is the
/// longest a stack gets to converge before the round is a violation.
const CONVERGE_ATTEMPTS: usize = 500;
const CONVERGE_PAUSE: Duration = Duration::from_millis(5);

/// Run the chaos soak. `Ok` carries the run's tally; `Err` is a violation
/// message naming the root seed, round, stack, and armed spec — everything
/// needed to replay it.
pub fn run(config: &ChaosConfig) -> Result<ChaosReport, String> {
    let harness = Harness::build().map_err(|e| format!("chaos harness failed to build: {e}"))?;
    let seq = SeedSequence::new(config.seed);
    let mut report = ChaosReport {
        rounds: 0,
        clean_rows: 0,
        typed_errors: 0,
        refused_connects: 0,
    };
    // Whatever happened before this run, start disarmed.
    failpoint::clear();
    for round in 0..config.rounds {
        let round_seed = seq.derive_indexed("chaos-round", round);
        let mut rng = ChaCha8Rng::seed_from_u64(round_seed);
        let stack = rng.gen_range(0..harness.stacks.len());
        let (stack_name, backend) = &harness.stacks[stack];
        let spec = generate_spec(&mut rng);
        let blame = |what: String| {
            format!(
                "chaos violation at round {round} on the {stack_name} stack \
                 (root seed {}, spec {spec:?}): {what}",
                config.seed
            )
        };
        failpoint::configure(&spec).map_err(|e| blame(format!("spec rejected: {e}")))?;
        if config.verbose {
            println!("round {round:>4} [{stack_name:>7}] arming {spec}");
        }

        // The burst under fire: every answer is a byte-identical row or a
        // typed net error.
        for _ in 0..config.queries {
            let probe = rng.gen_range(0..harness.probes.len());
            let (query, oracle_bits) = &harness.probes[probe];
            match harness.score_bits(backend.as_ref(), query) {
                Ok(bits) if &bits == oracle_bits => report.clean_rows += 1,
                Ok(bits) => {
                    failpoint::clear();
                    return Err(blame(format!(
                        "row diverged from the scan oracle on probe {probe} \
                         ({} of {} cells differ)",
                        bits.iter().zip(oracle_bits).filter(|(a, b)| a != b).count(),
                        bits.len()
                    )));
                }
                Err(FhcError::Net(_)) => report.typed_errors += 1,
                Err(other) => {
                    failpoint::clear();
                    return Err(blame(format!("untyped failure {other}")));
                }
            }
        }

        // Sometimes also exercise the connect-time paths under fire: a
        // fresh fan-out handshake, or a fresh fleet seeding a brand-new
        // diskless worker over PushSlice frames. Either connects and
        // scores correctly, or refuses with a typed error.
        if rng.gen_bool(0.25) {
            let fresh: Result<Box<dyn SimilarityBackend>, NetError> = if rng.gen_bool(0.5) {
                FleetBackend::connect(
                    Arc::clone(&harness.reference),
                    remote_topology(&harness.worker_endpoints),
                )
                .map(|b| Box::new(b) as Box<dyn SimilarityBackend>)
            } else {
                harness
                    .connect_fresh_diskless_fleet()
                    .map(|b| Box::new(b) as Box<dyn SimilarityBackend>)
            };
            match fresh {
                Err(_) => report.refused_connects += 1,
                Ok(backend) => {
                    let (query, oracle_bits) = &harness.probes[0];
                    match harness.score_bits(backend.as_ref(), query) {
                        Ok(bits) if &bits == oracle_bits => report.clean_rows += 1,
                        Ok(_) => {
                            failpoint::clear();
                            return Err(blame(
                                "fresh connect served a row diverging from the oracle".into(),
                            ));
                        }
                        Err(FhcError::Net(_)) => report.typed_errors += 1,
                        Err(other) => {
                            failpoint::clear();
                            return Err(blame(format!("fresh connect failed untyped: {other}")));
                        }
                    }
                }
            }
        }

        // Disarm and demand convergence: one full pass where every probe
        // answers byte-identically, within the healing budget.
        failpoint::clear();
        harness
            .converge(backend.as_ref())
            .map_err(|what| blame(format!("after clearing the schedule, {what}")))?;
        report.rounds += 1;
    }
    Ok(report)
}

/// The persistent serving stacks the rounds rotate over, plus the probe
/// queries and their scan-oracle rows.
struct Harness {
    reference: Arc<ReferenceSet>,
    worker_endpoints: Vec<Endpoint>,
    stacks: Vec<(&'static str, Box<dyn SimilarityBackend>)>,
    /// `(prepared query, scan-oracle row bits)` pairs.
    probes: Vec<(PreparedSampleFeatures, Vec<u64>)>,
}

impl Harness {
    fn build() -> Result<Self, NetError> {
        let reference = chaos_reference();

        // Two plain workers shared by the remote, fleet, and gateway
        // stacks; each connection negotiates its own partition, so the
        // same pair serves fan-out clients and the gateway's shards alike.
        let worker_endpoints = vec![
            spawn_worker(Arc::clone(&reference)),
            spawn_worker(Arc::clone(&reference)),
        ];

        // A tenant host serving the same reference under a named tenant.
        let mut host = TenantHost::new();
        host.register(
            crate::shardnet::wire::DEFAULT_TENANT,
            Some(ShardWorker::all_classes(Arc::clone(&reference))),
        )?;
        host.register(
            "acme",
            Some(ShardWorker::all_classes(Arc::clone(&reference))),
        )?;
        let tenant_endpoint = spawn_host(Arc::new(host));

        let remote =
            FleetBackend::connect(Arc::clone(&reference), remote_topology(&worker_endpoints))?;
        let fleet =
            FleetBackend::connect(Arc::clone(&reference), fleet_topology(&worker_endpoints))?;
        let gateway = Gateway::connect(
            Arc::clone(&reference),
            remote_topology(&worker_endpoints),
            GatewayOptions::default(),
        )?;
        let front = spawn_gateway(gateway);
        // The `gateway:EP` shape: one shard owning every class.
        let gateway =
            FleetBackend::connect(Arc::clone(&reference), FleetTopology::replica_less([front]))?;
        let tenant = FleetBackend::connect_tenant(
            Arc::clone(&reference),
            FleetTopology::replica_less([tenant_endpoint.clone()]),
            Some("acme"),
        )?;
        let stacks: Vec<(&'static str, Box<dyn SimilarityBackend>)> = vec![
            ("remote", Box::new(remote)),
            ("fleet", Box::new(fleet)),
            ("gateway", Box::new(gateway)),
            ("tenant", Box::new(tenant)),
        ];

        let oracle = BackendConfig::Scan.build(Arc::clone(&reference));
        let probes = probe_bodies()
            .into_iter()
            .map(|body| {
                let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(body));
                let mut row = vec![0.0f64; reference.n_columns()];
                oracle.max_scores_into(&query, &mut row);
                let bits = row.into_iter().map(f64::to_bits).collect();
                (query, bits)
            })
            .collect();

        Ok(Self {
            reference,
            worker_endpoints,
            stacks,
            probes,
        })
    }

    /// Score one probe through `backend`, returning the row as bit
    /// patterns (exact comparison, no float tolerance).
    fn score_bits(
        &self,
        backend: &dyn SimilarityBackend,
        query: &PreparedSampleFeatures,
    ) -> Result<Vec<u64>, FhcError> {
        let mut row = vec![f64::NAN; self.reference.n_columns()];
        backend.try_max_scores_into(query, &mut row)?;
        Ok(row.into_iter().map(f64::to_bits).collect())
    }

    /// A brand-new diskless worker, seeded over the wire by a fresh fleet
    /// connect — the `fleet.push_slice` / `remote.handshake` sites fire on
    /// this path while a schedule is armed.
    fn connect_fresh_diskless_fleet(&self) -> Result<FleetBackend, NetError> {
        let host = Arc::new(TenantHost::single(None));
        let endpoint = spawn_host(host);
        FleetBackend::connect(
            Arc::clone(&self.reference),
            FleetTopology::new(vec![FleetShard::solo(endpoint)]),
        )
    }

    /// One full clean pass over every probe, retried within the healing
    /// budget. Typed errors while connections re-dial are expected; a
    /// wrong row is an instant violation.
    fn converge(&self, backend: &dyn SimilarityBackend) -> Result<(), String> {
        let mut last_error = String::new();
        for _ in 0..CONVERGE_ATTEMPTS {
            let mut clean = true;
            for (probe, (query, oracle_bits)) in self.probes.iter().enumerate() {
                match self.score_bits(backend, query) {
                    Ok(bits) if &bits == oracle_bits => {}
                    Ok(_) => {
                        return Err(format!(
                            "probe {probe} healed into a row diverging from the oracle"
                        ));
                    }
                    Err(FhcError::Net(e)) => {
                        clean = false;
                        last_error = e.to_string();
                        break;
                    }
                    Err(other) => return Err(format!("probe {probe} failed untyped: {other}")),
                }
            }
            if clean {
                return Ok(());
            }
            std::thread::sleep(CONVERGE_PAUSE);
        }
        Err(format!(
            "the stack never converged within {CONVERGE_ATTEMPTS} attempts \
             (last error: {last_error})"
        ))
    }
}

/// The reference set every stack serves: a few classes with enough
/// shared phrasing that similarity rows are dense and any merge mistake
/// (dropped shard, duplicated cell) moves bytes.
fn chaos_reference() -> Arc<ReferenceSet> {
    let train = vec![
        SampleFeatures::extract(b"the velvet assembler executable body one"),
        SampleFeatures::extract(b"the velvet assembler executable body two"),
        SampleFeatures::extract(b"an openmalaria simulation binary payload"),
        SampleFeatures::extract(b"an openmalaria simulation binary variant"),
        SampleFeatures::extract(b"gromacs molecular dynamics engine build"),
    ];
    Arc::new(ReferenceSet::new(
        vec!["Velvet".into(), "OpenMalaria".into(), "Gromacs".into()],
        &train,
        &[0, 0, 1, 1, 2],
        &FeatureKind::ALL,
    ))
}

fn probe_bodies() -> Vec<&'static [u8]> {
    vec![
        b"the velvet assembler executable body probe".as_slice(),
        b"an openmalaria simulation binary probe".as_slice(),
        b"gromacs molecular dynamics probe build".as_slice(),
        b"entirely unrelated probe bytes".as_slice(),
    ]
}

/// Tight fleet tunings so redial and hedge waits cost milliseconds, not
/// the production defaults.
const CHAOS_TUNING: FleetTuning = FleetTuning {
    hedge_cold: Duration::from_millis(5),
    hedge_min: Duration::from_millis(1),
    hedge_max: Duration::from_millis(40),
    backoff: BackoffPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
    },
};

/// Both shards replicated on both workers: primaries crossed so hedging
/// and failover have somewhere to go.
fn fleet_topology(endpoints: &[Endpoint]) -> FleetTopology {
    let shard = |primary: &Endpoint, replica: &Endpoint| FleetShard {
        primary: primary.clone(),
        replicas: vec![replica.clone()],
    };
    FleetTopology {
        tuning: CHAOS_TUNING,
        ..FleetTopology::new(vec![
            shard(&endpoints[0], &endpoints[1]),
            shard(&endpoints[1], &endpoints[0]),
        ])
    }
}

/// The `remote:` shape — one replica-less shard per worker, in order,
/// refusing workers that hold another artifact — that the remote stack
/// dials and the gateway stack's gateway fronts.
fn remote_topology(endpoints: &[Endpoint]) -> FleetTopology {
    FleetTopology {
        tuning: CHAOS_TUNING,
        ..FleetTopology::replica_less(endpoints.iter().cloned())
    }
}

fn spawn_worker(reference: Arc<ReferenceSet>) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
    let addr = listener.local_addr().expect("worker addr").to_string();
    let shard = Arc::new(ShardWorker::all_classes(reference));
    std::thread::spawn(move || worker::serve_tcp(shard, listener));
    Endpoint::Tcp(addr)
}

fn spawn_host(host: Arc<TenantHost>) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback host");
    let addr = listener.local_addr().expect("host addr").to_string();
    std::thread::spawn(move || worker::serve_host_tcp(host, listener));
    Endpoint::Tcp(addr)
}

fn spawn_gateway(gateway: Gateway) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback gateway");
    let addr = listener.local_addr().expect("gateway addr").to_string();
    let gateway = Arc::new(gateway);
    std::thread::spawn(move || gateway::serve_tcp(gateway, listener));
    Endpoint::Tcp(addr)
}

/// Generate one round's failpoint spec: one to three distinct sites, each
/// with an action that makes sense there and a finite-or-probabilistic
/// schedule, all drawn from the round's seeded rng.
fn generate_spec(rng: &mut ChaCha8Rng) -> String {
    let mut sites: Vec<&'static str> = failpoint::SITES.to_vec();
    let count = rng.gen_range(1..4usize);
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        if sites.is_empty() {
            break;
        }
        let site = sites.swap_remove(rng.gen_range(0..sites.len()));
        items.push(format!(
            "{site}={}@{}",
            generate_action(rng, site),
            generate_schedule(rng)
        ));
    }
    items.join(";")
}

fn generate_action(rng: &mut ChaCha8Rng, site: &str) -> String {
    // The checksum site injects a mismatch whatever the action says;
    // everywhere else the full palette applies.
    if site == "frame.checksum" {
        return "err_io".to_string();
    }
    match rng.gen_range(0..5u32) {
        0 => "err_io".to_string(),
        1 => "close_conn".to_string(),
        2 => format!("delay:{}", rng.gen_range(1..4u64)),
        3 => format!("corrupt:{}", rng.gen_range(0..512usize)),
        _ => format!("truncate:{}", rng.gen_range(0..256usize)),
    }
}

fn generate_schedule(rng: &mut ChaCha8Rng) -> String {
    match rng.gen_range(0..3u32) {
        0 => {
            // One or two exact ordinals early in the round's hit stream.
            let first = rng.gen_range(1..5u64);
            if rng.gen_bool(0.5) {
                format!("{first},{}", first + rng.gen_range(1..5u64))
            } else {
                format!("{first}")
            }
        }
        1 => format!("every:{}", rng.gen_range(2..6u64)),
        _ => format!(
            "rand:{}:{}",
            rng.gen_range(0..1_000_000u64),
            rng.gen_range(10..41u32)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // No test here arms the registry: it is process-global, and the lib
    // test binary runs concurrently. The actual soak lives in
    // `tests/chaos_soak.rs`, a binary this module's rounds own outright.

    #[test]
    fn generated_specs_are_seed_deterministic_and_well_formed() {
        for seed in 0..64u64 {
            let spec = generate_spec(&mut ChaCha8Rng::seed_from_u64(seed));
            let again = generate_spec(&mut ChaCha8Rng::seed_from_u64(seed));
            assert_eq!(spec, again, "seed {seed} must regenerate its spec");
            let mut seen = std::collections::HashSet::new();
            for item in spec.split(';') {
                let (site, rest) = item.split_once('=').expect("SITE=ACTION[@SCHED]");
                assert!(
                    failpoint::SITES.contains(&site),
                    "site {site:?} is registered"
                );
                assert!(seen.insert(site.to_string()), "sites are distinct");
                assert!(rest.contains('@'), "every item carries a schedule: {item}");
            }
        }
    }

    #[test]
    fn the_chaos_fleet_topology_round_trips_with_tight_tunings() {
        let endpoints = [
            Endpoint::Tcp("host1:9000".into()),
            Endpoint::Tcp("host2:9000".into()),
        ];
        let topology = fleet_topology(&endpoints);
        assert_eq!(topology.shards.len(), 2);
        assert_eq!(topology.tuning.hedge_cold, Duration::from_millis(5));
        assert_eq!(topology.tuning.backoff.cap, Duration::from_millis(50));
        let reparsed: FleetTopology = topology.to_string().parse().expect("display round-trips");
        assert_eq!(reparsed, topology);
    }
}
