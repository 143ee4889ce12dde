//! End-to-end loopback test of the `fhc-gateway` front-door daemon.
//!
//! Trains a small classifier, saves the artifact, spawns two real
//! `fhc-shardd` processes plus one real `fhc-gateway` process fronting
//! them on loopback TCP, and serves the same artifact through the gateway
//! via a `gateway:EP` backend (a one-shard fleet). Predictions must be
//! byte-identical to the in-process indexed backend — including from
//! several client threads at once, which drives the gateway's batch
//! coalescing; killing a shard daemon behind the gateway must surface as
//! a typed error, not a wrong or partial prediction. A gateway whose shard
//! is a primary daemon plus a replica daemon must instead lose nothing
//! when the primary dies: the fleet fails over. This is the test CI runs
//! explicitly so the gateway path cannot silently rot.

use corpus::{Catalog, CorpusBuilder};
use fhc::backend::BackendConfig;
use fhc::config::FhcConfig;
use fhc::error::FhcError;
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::serving::TrainedClassifier;
use fhc::shardnet::Endpoint;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// Scrape the bound address from a daemon's announcement line (both
/// daemons print "<name> listening on ADDR ...").
fn scrape_endpoint(child: &mut Child) -> Endpoint {
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read announcement");
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    addr.parse::<Endpoint>()
        .unwrap_or_else(|e| panic!("bad announced address {addr:?}: {e}"))
}

/// Spawn one `fhc-shardd` on an OS-assigned loopback port.
fn spawn_shardd(artifact: &std::path::Path, shard: usize, of: usize) -> (Child, Endpoint) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fhc-shardd"))
        .arg("--artifact")
        .arg(artifact)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--shard")
        .arg(format!("{shard}/{of}"))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fhc-shardd");
    let endpoint = scrape_endpoint(&mut child);
    (child, endpoint)
}

/// Spawn one `fhc-gateway` fronting `workers` on an OS-assigned loopback
/// port, with any extra CLI flags appended.
fn spawn_gateway_with(
    artifact: &std::path::Path,
    workers: &[Endpoint],
    extra: &[&str],
) -> (Child, Endpoint) {
    let list = workers
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fhc-gateway"))
        .arg("--artifact")
        .arg(artifact)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg(list)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fhc-gateway");
    let endpoint = scrape_endpoint(&mut child);
    (child, endpoint)
}

/// Spawn one `fhc-gateway` fronting `workers` on an OS-assigned loopback
/// port.
fn spawn_gateway(artifact: &std::path::Path, workers: &[Endpoint]) -> (Child, Endpoint) {
    spawn_gateway_with(artifact, workers, &[])
}

struct KillOnDrop(Vec<Child>);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn gateway_daemon_serves_byte_identical_predictions_and_relays_worker_loss() {
    // Train once, small but real.
    let corpus = CorpusBuilder::new(53).build(&Catalog::paper().scaled(0.02));
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed: 53,
        forest: mlcore::forest::RandomForestParams {
            n_estimators: 20,
            ..Default::default()
        },
        ..Default::default()
    });
    let trained = FuzzyHashClassifier::with_config(config.clone())
        .fit(&corpus)
        .expect("fit succeeds");
    let artifact =
        std::env::temp_dir().join(format!("fhc-gateway-test-{}.fhc", std::process::id()));
    trained.save(&artifact).expect("save artifact");

    // Two real shard daemons plus the gateway daemon fronting them.
    let (shard0, endpoint0) = spawn_shardd(&artifact, 0, 2);
    let (shard1, endpoint1) = spawn_shardd(&artifact, 1, 2);
    let (gateway, front) = spawn_gateway(&artifact, &[endpoint0, endpoint1]);
    let mut guard = KillOnDrop(vec![shard0, shard1, gateway]);

    // Reopen the stored artifact through the gateway.
    let gateway_spec: BackendConfig = format!("gateway:{front}").parse().expect("gateway spec");
    let gateway_config = config.backend(gateway_spec.clone());
    let served = TrainedClassifier::load_with(&artifact, &gateway_config)
        .expect("artifact opens against the running gateway");
    assert_eq!(served.backend_config(), gateway_spec);

    // Byte-identical predictions vs the local indexed backend — first
    // serially, then from several threads at once (the coalescing path).
    let batch: Vec<(String, Vec<u8>)> = corpus
        .samples()
        .iter()
        .step_by(29)
        .map(|s| (s.install_path(), corpus.generate_bytes(s)))
        .collect();
    assert!(batch.len() >= 4, "need a real batch");
    let expected = trained.classify_batch(&batch);
    let via_gateway = served.try_classify_batch(&batch).expect("fleet is healthy");
    assert_eq!(via_gateway, expected);

    let served = Arc::new(served);
    let expected_shared = Arc::new(expected.clone());
    let batch_shared = Arc::new(batch.clone());
    let clients: Vec<_> = (0..4)
        .map(|client| {
            let served = Arc::clone(&served);
            let expected = Arc::clone(&expected_shared);
            let batch = Arc::clone(&batch_shared);
            std::thread::spawn(move || {
                for (i, (_, bytes)) in batch.iter().enumerate() {
                    let prediction = served.try_classify(bytes).expect("fleet is healthy");
                    assert_eq!(
                        prediction, expected[i].1,
                        "client {client} diverged on sample {i}"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    // Kill one shard daemon *behind* the gateway: serving must degrade to
    // a typed error relayed through the gateway, never to a wrong or
    // partial prediction.
    guard.0[1].kill().expect("kill shard 1");
    guard.0[1].wait().expect("reap shard 1");
    let mut saw_typed_error = false;
    for (name, bytes) in batch.iter().take(4) {
        match served.try_classify(bytes) {
            Ok(prediction) => {
                let (_, expected_prediction) =
                    expected.iter().find(|(n, _)| n == name).expect("in batch");
                assert_eq!(
                    &prediction, expected_prediction,
                    "degraded but wrong: {name}"
                );
            }
            Err(FhcError::Net(_)) => saw_typed_error = true,
            Err(other) => panic!("expected FhcError::Net, got {other}"),
        }
    }
    assert!(
        saw_typed_error,
        "killing a worker behind the gateway must surface as a typed error"
    );

    drop(guard);
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn gateway_daemon_sheds_over_quota_clients_with_a_typed_overload() {
    use fhc::shardnet::NetError;

    // Train once, small but real.
    let corpus = CorpusBuilder::new(59).build(&Catalog::paper().scaled(0.02));
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed: 59,
        forest: mlcore::forest::RandomForestParams {
            n_estimators: 20,
            ..Default::default()
        },
        ..Default::default()
    });
    let trained = FuzzyHashClassifier::with_config(config.clone())
        .fit(&corpus)
        .expect("fit succeeds");
    let artifact =
        std::env::temp_dir().join(format!("fhc-overload-test-{}.fhc", std::process::id()));
    trained.save(&artifact).expect("save artifact");

    // One shard daemon behind two gateways over the same workers: one with
    // a 1 rps quota on its own tenant ("default"), one whose only quota
    // names a tenant it does not serve — that quota must be inert.
    let (shard0, endpoint0) = spawn_shardd(&artifact, 0, 1);
    let (quotaed, quotaed_front) = spawn_gateway_with(
        &artifact,
        std::slice::from_ref(&endpoint0),
        &["--quota", "default=1", "--max-inflight", "64"],
    );
    let (open, open_front) = spawn_gateway_with(
        &artifact,
        std::slice::from_ref(&endpoint0),
        &["--quota", "ghost-tenant=1"],
    );
    let guard = KillOnDrop(vec![shard0, quotaed, open]);

    let open_config = |front: Endpoint| {
        config.clone().backend(
            format!("gateway:{front}")
                .parse::<BackendConfig>()
                .expect("gateway spec"),
        )
    };
    let throttled = TrainedClassifier::load_with(&artifact, &open_config(quotaed_front))
        .expect("artifact opens against the quotaed gateway");
    let unthrottled = TrainedClassifier::load_with(&artifact, &open_config(open_front))
        .expect("artifact opens against the open gateway");

    let sample = &corpus.samples()[0];
    let bytes = corpus.generate_bytes(sample);
    let expected = trained.classify(&bytes);

    // In quota: the first request through the fresh bucket serves a
    // byte-identical prediction.
    assert_eq!(
        throttled
            .try_classify(&bytes)
            .expect("first request is in quota"),
        expected
    );

    // Burst past 1 rps: at least one request must shed with the typed,
    // retry-hinted Overload — and every non-shed answer stays correct.
    let mut shed = 0usize;
    for _ in 0..10 {
        match throttled.try_classify(&bytes) {
            Ok(prediction) => assert_eq!(prediction, expected, "over quota but wrong"),
            Err(FhcError::Net(NetError::Overload { retry_after_ms, .. })) => {
                assert!(retry_after_ms > 0, "retry hint must be non-zero");
                shed += 1;
            }
            Err(other) => panic!("expected a typed Overload, got {other}"),
        }
    }
    assert!(shed > 0, "a 10-request burst at 1 rps must shed");

    // The same burst against the gateway whose quota names a foreign
    // tenant is never shed: a quota binds only the tenant it names.
    for i in 0..10 {
        assert_eq!(
            unthrottled
                .try_classify(&bytes)
                .unwrap_or_else(|e| panic!("foreign-tenant quota shed request {i}: {e}")),
            expected
        );
    }

    // And shedding is shedding, not poison: once the bucket refills, the
    // same connection serves byte-identical predictions again.
    std::thread::sleep(std::time::Duration::from_millis(1100));
    assert_eq!(
        throttled.try_classify(&bytes).expect("bucket refilled"),
        expected
    );

    drop(guard);
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn a_gateway_over_a_replicated_shard_survives_its_primary_daemon_dying() {
    use fhc::shardnet::gateway::serve_tcp;
    use fhc::shardnet::{FleetTopology, Gateway, GatewayOptions};
    use std::net::TcpListener;

    // Train once, small but real.
    let corpus = CorpusBuilder::new(61).build(&Catalog::paper().scaled(0.02));
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed: 61,
        forest: mlcore::forest::RandomForestParams {
            n_estimators: 20,
            ..Default::default()
        },
        ..Default::default()
    });
    let trained = FuzzyHashClassifier::with_config(config.clone())
        .fit(&corpus)
        .expect("fit succeeds");
    let artifact =
        std::env::temp_dir().join(format!("fhc-replica-test-{}.fhc", std::process::id()));
    trained.save(&artifact).expect("save artifact");

    // One shard served by two real daemons: a primary and its replica.
    let (primary, primary_endpoint) = spawn_shardd(&artifact, 0, 1);
    let (replica, replica_endpoint) = spawn_shardd(&artifact, 0, 1);
    let mut guard = KillOnDrop(vec![primary, replica]);

    // An in-process gateway fronting that shard, served on loopback.
    let topology: FleetTopology = format!("{primary_endpoint};replica={replica_endpoint}")
        .parse()
        .expect("replicated topology");
    let gateway = Gateway::connect(
        trained.reference_shared(),
        topology,
        GatewayOptions::default(),
    )
    .expect("the gateway connects both daemons");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback gateway");
    let front = Endpoint::Tcp(listener.local_addr().expect("gateway addr").to_string());
    let gateway = Arc::new(gateway);
    std::thread::spawn(move || serve_tcp(gateway, listener));
    let spec: BackendConfig = format!("gateway:{front}").parse().expect("gateway spec");
    let served = TrainedClassifier::load_with(&artifact, &config.backend(spec))
        .expect("artifact opens against the gateway");

    let batch: Vec<Vec<u8>> = corpus
        .samples()
        .iter()
        .step_by(23)
        .map(|s| corpus.generate_bytes(s))
        .collect();
    assert!(batch.len() >= 6, "need a real batch");
    // Kill the primary halfway through: the fleet fails over to the
    // replica, so not one query surfaces an error or a different answer.
    let kill_at = batch.len() / 2;
    for (i, bytes) in batch.iter().enumerate() {
        if i == kill_at {
            guard.0[0].kill().expect("kill the primary");
            guard.0[0].wait().expect("reap the primary");
        }
        let prediction = served
            .try_classify(bytes)
            .unwrap_or_else(|e| panic!("query {i} surfaced an error: {e}"));
        assert_eq!(prediction, trained.classify(bytes), "query {i} diverged");
    }

    drop(guard);
    std::fs::remove_file(&artifact).ok();
}

/// The names of `pid`'s threads, sorted, from `/proc/PID/task/*/comm`.
fn thread_names(pid: u32) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("list the gateway's threads")
        .filter_map(|task| {
            let comm = task.ok()?.path().join("comm");
            Some(std::fs::read_to_string(comm).ok()?.trim().to_string())
        })
        .collect();
    names.sort();
    names
}

#[test]
fn a_gateway_runs_one_thread_per_shard_and_two_per_client() {
    let corpus = CorpusBuilder::new(67).build(&Catalog::paper().scaled(0.02));
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed: 67,
        forest: mlcore::forest::RandomForestParams {
            n_estimators: 10,
            ..Default::default()
        },
        ..Default::default()
    });
    let trained = FuzzyHashClassifier::with_config(config.clone())
        .fit(&corpus)
        .expect("fit succeeds");
    let artifact =
        std::env::temp_dir().join(format!("fhc-threads-test-{}.fhc", std::process::id()));
    trained.save(&artifact).expect("save artifact");

    let (shard0, endpoint0) = spawn_shardd(&artifact, 0, 2);
    let (shard1, endpoint1) = spawn_shardd(&artifact, 1, 2);
    let (gateway, front) = spawn_gateway(&artifact, &[endpoint0, endpoint1]);
    let pid = gateway.id();
    let guard = KillOnDrop(vec![shard0, shard1, gateway]);

    // One client, connected and served.
    let spec: BackendConfig = format!("gateway:{front}").parse().expect("gateway spec");
    let served = TrainedClassifier::load_with(&artifact, &config.backend(spec))
        .expect("artifact opens against the gateway");
    let bytes = corpus.generate_bytes(&corpus.samples()[0]);
    assert_eq!(
        served.try_classify(&bytes).expect("fleet is healthy"),
        trained.classify(&bytes)
    );

    // Per shard: its batcher and its connection's mux reader. Per client:
    // the connection's reader and its writer (the accept loop's thread,
    // named after the daemon like the main thread). Rows are routed by the
    // mux readers' completions, with no thread in between.
    let expected: Vec<String> = [
        "fhc-gateway",
        "fhc-gateway",
        "gw-batcher",
        "gw-batcher",
        "gw-client-reade",
        "mux-reader",
        "mux-reader",
    ]
    .map(String::from)
    .to_vec();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut names = thread_names(pid);
    while names != expected && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        names = thread_names(pid);
    }
    assert_eq!(names, expected, "the gateway's threads, by name");

    drop(served);
    drop(guard);
    std::fs::remove_file(&artifact).ok();
}
