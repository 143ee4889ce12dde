//! Integration equivalence suite for the distributed shard-serving path.
//!
//! A `remote:` backend — a [`FleetBackend`] of replica-less shards — must
//! be just another [`fhc::SimilarityBackend`]: over loopback workers
//! (in-process `ShardWorker` accept loops on `127.0.0.1`) its feature rows
//! and predictions are **byte-identical** to `ScanBackend`/`IndexedBackend`
//! for worker counts 1/2/3/`n_classes`, including empty-class and
//! single-class references and empty worker partitions. Failure is typed: a
//! worker that dies mid-batch produces [`fhc::FhcError::Net`] — never a
//! wrong or partial row — and a worker without batch scoring, or one
//! holding another artifact, is refused at connect.

mod common;

use common::spawn_loopback_workers;
use fhc::artifact::ArtifactDelta;
use fhc::backend::round_robin_partition;
use fhc::backend::{BackendConfig, SimilarityBackend};
use fhc::config::FhcConfig;
use fhc::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::serving::TrainedClassifier;
use fhc::shardnet::wire::{self, Frame};
use fhc::shardnet::{
    gateway, worker, Endpoint, FleetBackend, FleetShard, FleetTopology, Gateway, GatewayOptions,
    NetError, ShardWorker, TenantHost,
};
use fhc::similarity::ReferenceSet;
use fhc::FhcError;
use std::net::TcpListener;
use std::sync::Arc;

/// Connect the `remote:` fleet over `endpoints`: one replica-less shard
/// per endpoint, in order.
fn remote(reference: &Arc<ReferenceSet>, endpoints: &[Endpoint]) -> Result<FleetBackend, NetError> {
    let topology = FleetTopology::replica_less(endpoints.iter().cloned());
    FleetBackend::connect(Arc::clone(reference), topology)
}

/// The class partition each shard of `fleet` serves, in shard order.
fn member_classes(fleet: &FleetBackend) -> Vec<Vec<usize>> {
    fleet
        .view()
        .members()
        .iter()
        .map(|m| m.classes().to_vec())
        .collect()
}

/// Spawn workers with explicit (worker-side) partitions, one per class
/// list. With `Some(limit)` the worker accepts exactly one connection,
/// answers `limit` requests on it, and then drops its listener — it is
/// truly dead afterwards, so the client's re-dial on the next query is
/// refused rather than healed.
fn spawn_partitioned_workers(
    reference: &Arc<ReferenceSet>,
    partitions: &[Vec<usize>],
    limit: Option<u64>,
) -> Vec<Endpoint> {
    partitions
        .iter()
        .map(|classes| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
            let worker = Arc::new(TenantHost::single(Some(
                ShardWorker::new(Arc::clone(reference), classes.clone()).expect("valid classes"),
            )));
            std::thread::spawn(move || match limit {
                None => {
                    for stream in listener.incoming() {
                        match stream {
                            Ok(stream) => {
                                let worker = Arc::clone(&worker);
                                std::thread::spawn(move || {
                                    let _ = worker.serve_requests(stream, "loopback", None);
                                });
                            }
                            Err(_) => return,
                        }
                    }
                }
                Some(limit) => {
                    if let Ok((stream, _)) = listener.accept() {
                        drop(listener);
                        let _ = worker.serve_requests(stream, "loopback", Some(limit));
                    }
                }
            });
            endpoint
        })
        .collect()
}

/// A hand-rolled protocol-v2 worker that does **not** advertise
/// `FEATURE_SCORE_BATCH`: it greets with an otherwise valid handshake and
/// answers any further frame with an `Error` frame.
fn spawn_batchless_worker(reference: &Arc<ReferenceSet>) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
    let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
    let reference = Arc::clone(reference);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let peer = "batchless";
            let hello = wire::Hello {
                protocol: wire::PROTOCOL_VERSION,
                features: 0, // a v2 worker that opted out of batching
                fingerprint: reference.fingerprint(),
                n_classes: reference.n_classes(),
                n_columns: reference.n_columns(),
                classes: (0..reference.n_classes()).collect(),
                tenant: wire::DEFAULT_TENANT.to_string(),
            };
            if Frame::Hello(hello).write_to(&mut stream, peer).is_ok() {
                if let Ok(other) = Frame::read_from(&mut stream, peer) {
                    let _ = Frame::Error(format!("batchless worker cannot serve {other:?}"))
                        .write_to(&mut stream, peer);
                }
            }
        }
    });
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
        SampleFeatures::extract(b"#!/bin/sh\necho not an elf, no symbols view\n"),
    ]
    .iter()
    .map(PreparedSampleFeatures::prepare)
    .collect()
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn remote_rows_are_byte_identical_for_worker_counts_1_2_3_n() {
    let n_classes = 5;
    let reference = hand_built_reference(n_classes);
    let scan = BackendConfig::Scan.build(reference.clone());
    let indexed = BackendConfig::Indexed.build(reference.clone());
    let probes = probes();

    for n_workers in [1, 2, 3, n_classes] {
        let endpoints = spawn_loopback_workers(&reference, n_workers);
        let remote = remote(&reference, &endpoints).expect("loopback connect");
        // The assigned partition is the round-robin deal, in endpoint order.
        assert_eq!(
            member_classes(&remote),
            round_robin_partition(n_classes, n_workers)
        );

        for (i, probe) in probes.iter().enumerate() {
            let expected = scan.feature_vector_prepared(probe);
            assert_eq!(
                bits(&indexed.feature_vector_prepared(probe)),
                bits(&expected)
            );
            let remote_row = remote
                .try_feature_vector_prepared(probe)
                .expect("loopback workers are alive");
            assert_eq!(
                bits(&remote_row),
                bits(&expected),
                "remote({n_workers}) diverged on probe {i}"
            );
            // The infallible trait path agrees too.
            assert_eq!(
                bits(&remote.feature_vector_prepared(probe)),
                bits(&expected)
            );
        }
    }
}

/// The batched row path (`try_feature_rows_prepared`: one
/// `ScoreBatchRequest` frame per worker per chunk of 64) is byte-identical
/// to the per-query fan-out and to the scan oracle — including across the
/// 64-query chunk boundary.
#[test]
fn batched_rows_are_byte_identical_across_the_chunk_boundary() {
    let reference = hand_built_reference(4);
    let probes = probes();
    let scan = BackendConfig::Scan.build(reference.clone());
    let expected: Vec<Vec<u64>> = probes
        .iter()
        .map(|probe| bits(&scan.feature_vector_prepared(probe)))
        .collect();

    let backend =
        remote(&reference, &spawn_loopback_workers(&reference, 2)).expect("workers connect");
    let rows = backend
        .try_feature_rows_prepared(&probes)
        .expect("batched rows");
    assert_eq!(rows.len(), probes.len());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(bits(row), expected[i], "batched row {i} diverged");
        let single = backend
            .try_feature_vector_prepared(&probes[i])
            .expect("single row");
        assert_eq!(bits(&single), expected[i], "single row {i} diverged");
    }
    // Empty input is a no-op, not a wire exchange.
    assert!(backend
        .try_feature_rows_prepared(&[])
        .expect("empty")
        .is_empty());

    // 70 queries cross the 64-per-frame chunk boundary.
    let many: Vec<PreparedSampleFeatures> = probes.iter().cycle().take(70).cloned().collect();
    let rows = backend
        .try_feature_rows_prepared(&many)
        .expect("chunked rows");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            bits(row),
            expected[i % probes.len()],
            "chunked row {i} diverged"
        );
    }
}

/// Batch scoring is required: a worker that does not advertise it is
/// refused at connect with a typed handshake error, by the `remote:`
/// client and by the gateway's shard side alike.
#[test]
fn a_batchless_worker_is_refused_with_a_typed_handshake_error() {
    let reference = hand_built_reference(4);
    let batchless = [spawn_batchless_worker(&reference)];
    match remote(&reference, &batchless) {
        Err(NetError::Handshake { detail, .. }) => {
            assert!(detail.contains("batch"), "got: {detail}");
        }
        other => panic!("expected a batch-scoring handshake refusal, got {other:?}"),
    }
    let topology = FleetTopology::replica_less(batchless);
    match Gateway::connect(reference.clone(), topology, GatewayOptions::default()) {
        Err(NetError::Handshake { detail, .. }) => {
            assert!(detail.contains("batch"), "got: {detail}");
        }
        other => panic!("expected a batch-scoring handshake refusal, got {other:?}"),
    }
}

#[test]
fn worker_side_partitions_are_re_dealt_and_equivalent() {
    let reference = hand_built_reference(4);
    // An uneven, worker-chosen partition — including one empty partition.
    // The fleet deals its own round-robin partition over the wire instead.
    let partitions = vec![vec![2usize, 0], vec![], vec![1, 3]];
    let endpoints = spawn_partitioned_workers(&reference, &partitions, None);
    let remote = remote(&reference, &endpoints).expect("connect");
    assert_eq!(member_classes(&remote), round_robin_partition(4, 3));
    let indexed = BackendConfig::Indexed.build(reference);
    for probe in &probes() {
        assert_eq!(
            bits(&remote.try_feature_vector_prepared(probe).unwrap()),
            bits(&indexed.feature_vector_prepared(probe))
        );
    }
}

#[test]
fn empty_class_and_single_class_references_are_equivalent() {
    // A class with no reference samples must produce all-zero columns
    // through the wire exactly as it does in process.
    let velvet = make_sample("velvet", 0);
    let reference = Arc::new(ReferenceSet::new(
        vec!["Velvet".into(), "Empty".into()],
        std::slice::from_ref(&velvet),
        &[0],
        &FeatureKind::ALL,
    ));
    let probe = PreparedSampleFeatures::prepare(&velvet);
    let expected = BackendConfig::Scan
        .build(reference.clone())
        .feature_vector_prepared(&probe);
    for n_workers in [1, 2] {
        let endpoints = spawn_loopback_workers(&reference, n_workers);
        let remote = remote(&reference, &endpoints).expect("connect");
        assert_eq!(
            bits(&remote.try_feature_vector_prepared(&probe).unwrap()),
            bits(&expected),
            "empty-class reference with {n_workers} workers"
        );
    }

    // A single-class reference (n_classes = 1) with more workers than
    // classes: the surplus worker gets an empty partition.
    let reference = Arc::new(ReferenceSet::new(
        vec!["Only".into()],
        std::slice::from_ref(&velvet),
        &[0],
        &FeatureKind::ALL,
    ));
    let probe = PreparedSampleFeatures::prepare(&velvet);
    let expected = BackendConfig::Scan
        .build(reference.clone())
        .feature_vector_prepared(&probe);
    assert_eq!(expected[0], 100.0);
    let endpoints = spawn_loopback_workers(&reference, 2);
    let remote = remote(&reference, &endpoints).expect("connect");
    assert_eq!(
        bits(&remote.try_feature_vector_prepared(&probe).unwrap()),
        bits(&expected)
    );
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

#[test]
fn stored_artifact_opens_unchanged_under_a_remote_topology() {
    let (corpus, original) = trained(31);
    let batch: Vec<(String, Vec<u8>)> = corpus
        .samples()
        .iter()
        .step_by(23)
        .map(|s| (s.install_path(), corpus.generate_bytes(s)))
        .collect();
    let expected = original.classify_batch(&batch);

    // Persist, serve the same artifact from loopback workers, and reopen
    // the stored artifact under the remote topology.
    let path = std::env::temp_dir().join(format!("fhc-remote-it-{}.fhc", std::process::id()));
    original.save(&path).expect("save artifact");
    let endpoints = spawn_loopback_workers(&original.reference_shared(), 3);
    let remote = BackendConfig::remote(endpoints);
    let config = FhcConfig::new().backend(remote.clone());
    let reopened = TrainedClassifier::load_with(&path, &config).expect("load under remote");
    std::fs::remove_file(&path).ok();
    assert_eq!(reopened.backend_config(), remote);

    // Identical artifact bytes (the backend is runtime-only) and identical
    // predictions through the wire — fallible and infallible paths alike.
    assert_eq!(reopened.to_bytes(), original.to_bytes());
    assert_eq!(
        reopened.try_classify_batch(&batch).expect("workers alive"),
        expected
    );
    assert_eq!(reopened.classify_batch(&batch), expected);
}

#[test]
fn a_killed_worker_yields_a_typed_error_not_a_wrong_row() {
    let reference = hand_built_reference(3);
    // Worker 1 dies after answering one request on its only connection and
    // drops its listener, so the re-dial on the next query is refused too;
    // worker 0 stays healthy.
    let partitions = vec![vec![0usize, 2], vec![1usize]];
    let endpoints = spawn_partitioned_workers(&reference, &partitions, None);
    let dying = spawn_partitioned_workers(&reference, &[vec![1usize]], Some(1));
    let endpoints = vec![endpoints[0].clone(), dying[0].clone()];

    let remote = remote(&reference, &endpoints).expect("connect");
    let probe = &probes()[0];
    // First query: everything healthy, row matches the oracle.
    let expected = BackendConfig::Scan
        .build(reference.clone())
        .feature_vector_prepared(probe);
    assert_eq!(
        bits(&remote.try_feature_vector_prepared(probe).unwrap()),
        bits(&expected)
    );
    // Second query: worker 1's connection is gone mid-conversation. The
    // row must not come back wrong or partial — it must not come back at
    // all, as a typed WorkerLost error.
    match remote.try_feature_vector_prepared(probe) {
        Err(FhcError::Net(e)) => assert!(e.is_worker_lost(), "expected WorkerLost, got {e}"),
        other => panic!("expected a typed network error, got {other:?}"),
    }
    // And it stays down: later queries keep failing cleanly.
    assert!(remote.try_feature_vector_prepared(probe).is_err());
}

#[test]
fn handshake_rejects_a_mismatched_reference_set() {
    let serving_side = hand_built_reference(3);
    let worker_side = hand_built_reference(4); // different artifact
    let endpoints = spawn_loopback_workers(&worker_side, 1);
    match remote(&serving_side, &endpoints) {
        Err(NetError::Handshake { detail, .. }) => {
            assert!(detail.contains("fingerprint"), "got: {detail}");
        }
        other => panic!("expected a fingerprint handshake failure, got {other:?}"),
    }
}

/// Serve a push-capable worker host over loopback: diskless with `None`,
/// else holding `reference`.
fn spawn_host(reference: Option<&Arc<ReferenceSet>>) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback host");
    let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
    let loaded = reference.map(|rs| ShardWorker::all_classes(Arc::clone(rs)));
    let host = Arc::new(TenantHost::single(loaded));
    std::thread::spawn(move || worker::serve_host_tcp(host, listener));
    endpoint
}

/// Rows of `fleet` over every probe, as bits, next to the scan oracle's.
fn rows_and_oracle(fleet: &FleetBackend, reference: &Arc<ReferenceSet>) -> [Vec<Vec<u64>>; 2] {
    let scan = BackendConfig::Scan.build(Arc::clone(reference));
    let probes = probes();
    let served = fleet.try_feature_rows_prepared(&probes).expect("rows");
    [
        served.iter().map(|row| bits(row)).collect(),
        probes
            .iter()
            .map(|probe| bits(&scan.feature_vector_prepared(probe)))
            .collect(),
    ]
}

/// A `remote:` client never replaces the artifact a push-capable daemon
/// serves: it seeds a diskless worker and upgrades a registered delta base,
/// but any other fingerprint mismatch is a typed handshake error.
#[test]
fn remote_seeds_diskless_workers_but_refuses_to_replace_another_artifact() {
    let ours = hand_built_reference(3);
    let [served, expected] = rows_and_oracle(
        &remote(&ours, &[spawn_host(None)]).expect("a diskless worker is seeded"),
        &ours,
    );
    assert_eq!(served, expected);

    let theirs = hand_built_reference(4);
    let occupied = spawn_host(Some(&theirs));
    match remote(&ours, std::slice::from_ref(&occupied)) {
        Err(NetError::Handshake { detail, .. }) => {
            assert!(detail.contains("fingerprint"), "got: {detail}");
        }
        other => panic!("expected a fingerprint handshake failure, got {other:?}"),
    }
    let untouched = remote(&theirs, &[occupied]).expect("the worker keeps its own artifact");
    let [served, expected] = rows_and_oracle(&untouched, &theirs);
    assert_eq!(served, expected);

    // A worker on a registered delta's base is an upgrade the client
    // asked for.
    let mut evolved = (*ours).clone();
    evolved
        .add_class(
            "class-3".into(),
            vec![PreparedSampleFeatures::prepare(&make_sample("lammps", 0))],
        )
        .expect("append a class");
    let evolved = Arc::new(evolved);
    let fleet = remote(&evolved, &[spawn_host(Some(&evolved))]).expect("connect");
    let delta = ArtifactDelta::between(&ours, &evolved).expect("diff");
    fleet.view().register_delta(delta).expect("register");
    fleet
        .view()
        .admit(FleetShard::solo(spawn_host(Some(&ours))))
        .expect("the delta base is upgraded");
    let [served, expected] = rows_and_oracle(&fleet, &evolved);
    assert_eq!(served, expected);
}

/// One partition rule for every client: two workers both claiming class 0
/// (and nobody serving 2 or 3) are re-dealt the round-robin partition over
/// the wire by a `remote:` fleet and by the gateway's shard side alike,
/// and both answer byte-identically to the scan oracle.
#[test]
fn mixed_partitions_that_do_not_cover_are_re_dealt_by_a_fleet() {
    let reference = hand_built_reference(4);
    let endpoints = spawn_partitioned_workers(&reference, &[vec![0, 1], vec![0]], None);
    let remote = remote(&reference, &endpoints).expect("connect re-deals");
    assert_eq!(member_classes(&remote), round_robin_partition(4, 2));

    let gw = Gateway::connect(
        Arc::clone(&reference),
        FleetTopology::replica_less(endpoints),
        GatewayOptions::default(),
    )
    .expect("the gateway re-deals too");
    assert_eq!(gw.n_shards(), 2);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback gateway");
    let front = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
    let gw = Arc::new(gw);
    std::thread::spawn(move || gateway::serve_tcp(gw, listener));
    let via_gateway = BackendConfig::remote([front])
        .try_build(Arc::clone(&reference))
        .expect("dial gateway");

    let scan = BackendConfig::Scan.build(reference);
    for probe in &probes() {
        let expected = bits(&scan.feature_vector_prepared(probe));
        assert_eq!(
            bits(&remote.try_feature_vector_prepared(probe).unwrap()),
            expected
        );
        assert_eq!(
            bits(&via_gateway.try_feature_vector_prepared(probe).unwrap()),
            expected
        );
    }
}

#[test]
fn opening_an_artifact_against_dead_workers_is_an_error_not_a_panic() {
    let (_, original) = trained(37);
    let bytes = original.to_bytes();
    // A port nothing listens on: grab one, then drop the listener.
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().unwrap().port()
    };
    let dead = Endpoint::Tcp(format!("127.0.0.1:{port}"));
    let config = FhcConfig::new().backend(BackendConfig::remote([dead]));
    match TrainedClassifier::from_bytes_with(&bytes, &config) {
        Err(FhcError::Net(NetError::Io { peer, .. })) => {
            assert!(peer.contains(&port.to_string()), "peer was {peer}");
        }
        other => panic!("expected a typed connect error, got {other:?}"),
    }
    // try_set_backend on a live classifier behaves the same and leaves the
    // classifier serving on its previous backend.
    let mut classifier = TrainedClassifier::from_bytes(&bytes).expect("decode");
    let before = classifier.backend_config();
    let port2 = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().unwrap().port()
    };
    assert!(classifier
        .try_set_backend(BackendConfig::remote([Endpoint::Tcp(format!(
            "127.0.0.1:{port2}"
        ))]))
        .is_err());
    assert_eq!(classifier.backend_config(), before);
}

/// Adversarial hand-built hashes over the wire (the shared `common`
/// fixture): the degenerate shapes the inverted gram index special-cases
/// must survive the prepared-query wire encoding and come back
/// byte-identical to the in-process indexed rows, with score-budget
/// pruning on in the workers.
#[test]
fn degenerate_hashes_are_equivalent_over_the_wire() {
    let references = common::degenerate_references();
    let labels: Vec<usize> = (0..references.len()).map(|i| i % 2).collect();
    let reference = Arc::new(ReferenceSet::new(
        vec!["a".into(), "b".into()],
        &references,
        &labels,
        &FeatureKind::ALL,
    ));
    let endpoints = spawn_loopback_workers(&reference, 2);
    let remote = remote(&reference, &endpoints).expect("connect");
    let indexed = BackendConfig::Indexed.build(reference.clone());
    for (i, probe) in common::degenerate_probes().iter().enumerate() {
        let probe = PreparedSampleFeatures::prepare(probe);
        assert_eq!(
            bits(&remote.feature_vector_prepared(&probe)),
            bits(&indexed.feature_vector_prepared(&probe)),
            "probe {i}: remote vs indexed"
        );
    }
}
