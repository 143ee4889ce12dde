//! Integration equivalence suite for the `fhc-gateway` front door.
//!
//! The gateway must be invisible in the numbers: rows and predictions
//! scored through `client → gateway → shard fleet` are **byte-identical**
//! to `IndexedBackend` (and the `ScanBackend` oracle) — for one client and
//! for several clients scoring concurrently, which is when the gateway's
//! batch coalescing actually kicks in. Failure stays typed end to end: a
//! shard worker killed behind the gateway surfaces to every client as
//! [`fhc::FhcError::Net`], never as a wrong or partial row.

use fhc::backend::{BackendConfig, SimilarityBackend};
use fhc::config::FhcConfig;
use fhc::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::serving::TrainedClassifier;
use fhc::shardnet::{
    gateway, worker, Endpoint, FleetShard, FleetTopology, Gateway, GatewayOptions,
};
use fhc::shardnet::{NetError, ShardWorker, StaleWorkers, TenantHost};
use fhc::similarity::ReferenceSet;
use fhc::FhcError;
use std::net::TcpListener;
use std::sync::Arc;

/// The `gateway:EP` backend: a one-shard fleet pointed at `front`.
fn dial(reference: &Arc<ReferenceSet>, front: &Endpoint) -> fhc::backend::AnyBackend {
    BackendConfig::remote([front.clone()])
        .try_build(Arc::clone(reference))
        .expect("dial gateway")
}

/// Spawn `n` loopback shard workers, each serving every class (the gateway
/// assigns the round-robin partition at connect). With `Some(limit)` the
/// worker accepts exactly one connection, answers `limit` requests on it,
/// and then drops its listener entirely — it is truly dead afterwards, so
/// the gateway's redial on a later query is refused rather than healed.
fn spawn_workers(reference: &Arc<ReferenceSet>, n: usize, limit: Option<u64>) -> Vec<Endpoint> {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
            let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
            let shard = ShardWorker::all_classes(Arc::clone(reference));
            std::thread::spawn(move || match limit {
                None => worker::serve_tcp(Arc::new(shard), listener),
                Some(limit) => {
                    if let Ok((stream, _)) = listener.accept() {
                        drop(listener);
                        let host = TenantHost::single(Some(shard));
                        let _ = host.serve_requests(stream, "loopback", Some(limit));
                    }
                }
            });
            endpoint
        })
        .collect()
}

/// Stand a gateway up in front of `worker_endpoints` and return its client
/// endpoint. The accept thread lives until the test process exits.
fn spawn_gateway(reference: &Arc<ReferenceSet>, worker_endpoints: &[Endpoint]) -> Endpoint {
    let gw = Gateway::connect(
        Arc::clone(reference),
        FleetTopology::replica_less(worker_endpoints.iter().cloned()),
        GatewayOptions::default(),
    )
    .expect("gateway connects its fleet");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback gateway");
    let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
    let gw = Arc::new(gw);
    std::thread::spawn(move || gateway::serve_tcp(gw, listener));
    endpoint
}

fn make_sample(class_tag: &str, variant: u64) -> SampleFeatures {
    use binary::elf::ElfBuilder;
    let mut b = ElfBuilder::new();
    let mut code: Vec<u8> = class_tag
        .bytes()
        .cycle()
        .take(24_000)
        .enumerate()
        .map(|(i, c)| c.wrapping_mul(17).wrapping_add((i / 96) as u8))
        .collect();
    for (i, byte) in code
        .iter_mut()
        .skip((variant as usize * 512) % 20_000)
        .take(256)
        .enumerate()
    {
        *byte ^= (variant as u8).wrapping_add(i as u8);
    }
    b.add_text_section(code);
    b.add_rodata_section(format!("{class_tag} tool messages and usage\0v{variant}\0").into_bytes());
    for i in 0..30 {
        b.add_global_function(&format!("{class_tag}_routine_{i}"), (i * 128) as u64, 128);
    }
    SampleFeatures::extract(&b.build())
}

fn hand_built_reference(n_classes: usize) -> Arc<ReferenceSet> {
    let tags = ["velvet", "openmalaria", "gromacs", "lammps", "quantum"];
    let mut train = Vec::new();
    let mut labels = Vec::new();
    for class in 0..n_classes {
        for variant in 0..2 {
            train.push(make_sample(tags[class % tags.len()], variant));
            labels.push(class);
        }
    }
    Arc::new(ReferenceSet::new(
        (0..n_classes).map(|c| format!("class-{c}")).collect(),
        &train,
        &labels,
        &FeatureKind::ALL,
    ))
}

fn probes() -> Vec<PreparedSampleFeatures> {
    [
        make_sample("velvet", 0),
        make_sample("velvet", 9),
        make_sample("gromacs", 4),
        make_sample("lammps", 2),
        SampleFeatures::extract(b"#!/bin/sh\necho not an elf, no symbols view\n"),
    ]
    .iter()
    .map(PreparedSampleFeatures::prepare)
    .collect()
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Rows through the gateway are byte-identical to the in-process backends
/// for 1, 2, and 4 clients scoring **concurrently** over their own
/// connections — the concurrent cases drive the coalescing path (several
/// queries packed into one shard batch frame), which must not perturb a
/// single bit.
#[test]
fn gateway_rows_are_byte_identical_for_1_2_4_concurrent_clients() {
    let n_classes = 4;
    let reference = hand_built_reference(n_classes);
    let workers = spawn_workers(&reference, 2, None);
    let front = spawn_gateway(&reference, &workers);

    let indexed = BackendConfig::Indexed.build(reference.clone());
    let scan = BackendConfig::Scan.build(reference.clone());
    let probes = Arc::new(probes());
    let expected: Vec<Vec<u64>> = probes
        .iter()
        .map(|probe| {
            let row = scan.feature_vector_prepared(probe);
            assert_eq!(bits(&indexed.feature_vector_prepared(probe)), bits(&row));
            bits(&row)
        })
        .collect();
    let expected = Arc::new(expected);

    for n_clients in [1usize, 2, 4] {
        let handles: Vec<_> = (0..n_clients)
            .map(|client| {
                let reference = Arc::clone(&reference);
                let probes = Arc::clone(&probes);
                let expected = Arc::clone(&expected);
                let front = front.clone();
                std::thread::spawn(move || {
                    let backend = dial(&reference, &front);
                    // Several passes so the clients genuinely overlap.
                    for pass in 0..3 {
                        for (i, probe) in probes.iter().enumerate() {
                            let row = backend
                                .try_feature_vector_prepared(probe)
                                .expect("gateway scoring");
                            assert_eq!(
                                bits(&row),
                                expected[i],
                                "client {client} pass {pass} probe {i} diverged"
                            );
                        }
                    }
                    // The batched client path rides one ScoreBatchRequest
                    // to the gateway — same rows, bit for bit.
                    let rows = backend
                        .try_feature_rows_prepared(&probes)
                        .expect("batched gateway scoring");
                    for (i, row) in rows.iter().enumerate() {
                        assert_eq!(
                            bits(row),
                            expected[i],
                            "client {client} batched probe {i} diverged"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    }
}

fn trained(seed: u64) -> (corpus::Corpus, TrainedClassifier) {
    let corpus = corpus::CorpusBuilder::new(seed).build(&corpus::Catalog::paper().scaled(0.02));
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed,
        forest: mlcore::forest::RandomForestParams {
            n_estimators: 25,
            ..Default::default()
        },
        ..Default::default()
    });
    let classifier = FuzzyHashClassifier::with_config(config)
        .fit(&corpus)
        .expect("fit succeeds");
    (corpus, classifier)
}

/// A stored artifact opened under `gateway:EP` predicts identically to the
/// in-process original, and the backend config round-trips through the
/// classifier.
#[test]
fn stored_artifact_opens_unchanged_behind_a_gateway() {
    let (corpus, original) = trained(41);
    let batch: Vec<(String, Vec<u8>)> = corpus
        .samples()
        .iter()
        .step_by(23)
        .map(|s| (s.install_path(), corpus.generate_bytes(s)))
        .collect();
    let expected = original.classify_batch(&batch);

    let path = std::env::temp_dir().join(format!("fhc-gateway-it-{}.fhc", std::process::id()));
    original.save(&path).expect("save artifact");
    let reference = original.reference_shared();
    let workers = spawn_workers(&reference, 3, None);
    let front = spawn_gateway(&reference, &workers);
    let gateway: BackendConfig = format!("gateway:{front}").parse().expect("gateway spec");
    let config = FhcConfig::new().backend(gateway.clone());
    let reopened = TrainedClassifier::load_with(&path, &config).expect("load behind gateway");
    std::fs::remove_file(&path).ok();
    assert_eq!(reopened.backend_config(), gateway);

    // Identical artifact bytes (the backend is runtime-only) and identical
    // predictions through two network hops.
    assert_eq!(reopened.to_bytes(), original.to_bytes());
    assert_eq!(
        reopened.try_classify_batch(&batch).expect("fleet alive"),
        expected
    );
}

/// A shard worker killed behind the gateway surfaces to the client as a
/// typed network error — the gateway must relay the loss, not invent a
/// row. The dead worker's listener is gone too, so the gateway's redial
/// cannot heal it (contrast with
/// `a_lost_shard_connection_heals_behind_the_gateway`).
#[test]
fn a_killed_worker_behind_the_gateway_is_a_typed_error() {
    let reference = hand_built_reference(3);
    // The dying worker answers exactly 2 requests on its only connection,
    // then drops both the socket and the listener: the handshake survives
    // and the first probes score; the next batch hits a dead socket and
    // the re-dial is refused.
    let mut workers = spawn_workers(&reference, 1, None);
    workers.extend(spawn_workers(&reference, 1, Some(2)));
    let front = spawn_gateway(&reference, &workers);

    let backend = dial(&reference, &front);
    let probe = &probes()[0];
    let expected = BackendConfig::Scan
        .build(reference.clone())
        .feature_vector_prepared(probe);
    assert_eq!(
        bits(&backend.try_feature_vector_prepared(probe).expect("healthy")),
        bits(&expected)
    );
    assert_eq!(
        bits(
            &backend
                .try_feature_vector_prepared(probe)
                .expect("last answered request")
        ),
        bits(&expected)
    );
    // The dying worker's connection is now gone mid-conversation.
    match backend.try_feature_vector_prepared(probe) {
        Err(FhcError::Net(e)) => {
            // The gateway relays the shard loss either as the remote error
            // frame's message or by dropping the client connection; both
            // are typed, neither is a row.
            assert!(
                matches!(
                    e,
                    NetError::Remote { .. } | NetError::WorkerLost { .. } | NetError::Io { .. }
                ),
                "expected a relayed shard loss, got {e}"
            );
        }
        other => panic!("expected a typed network error, got {other:?}"),
    }
}

/// `gateway:EP` parses to a one-shard fleet that refuses workers holding
/// another artifact, displays in the canonical fleet form, and
/// round-trips.
#[test]
fn gateway_backend_config_parses_and_displays() {
    let one_shard = |endpoint: Endpoint| BackendConfig::Fleet {
        topology: FleetTopology {
            stale: StaleWorkers::Refuse,
            ..FleetTopology::new(vec![FleetShard::solo(endpoint)])
        },
        tenant: None,
    };
    let config: BackendConfig = "gateway:127.0.0.1:7000".parse().expect("parses");
    assert_eq!(config, one_shard(Endpoint::Tcp("127.0.0.1:7000".into())));
    assert_eq!(config.to_string(), "fleet:tcp:127.0.0.1:7000;stale=refuse");
    assert_eq!(config.to_string().parse::<BackendConfig>(), Ok(config));
    let uds: BackendConfig = "gateway:unix:/run/fhc/gw.sock".parse().expect("parses");
    assert_eq!(uds, one_shard(Endpoint::Unix("/run/fhc/gw.sock".into())));
    assert!("gateway:".parse::<BackendConfig>().is_err());
}
