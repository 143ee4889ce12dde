//! Serving throughput: samples/second through a trained classifier.
//!
//! This is the number the ROADMAP's serving trajectory cares about: once
//! `fit` has paid the training cost, how fast can `classify_batch` score a
//! stream of new executables? Measured end-to-end (feature extraction +
//! similarity row + forest vote), for the pre-hashed hot path, and —
//! crucially — **prepared vs unprepared**: the same batch pushed through the
//! precomputed similarity index versus the pre-index scan that re-normalized
//! every reference signature on every comparison (the serving path before
//! the index existed).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fhc::artifact::ArtifactDelta;
use fhc::backend::{round_robin_partition, BackendConfig, SimilarityBackend};
use fhc::features::{PreparedSampleFeatures, SampleFeatures};
use fhc::pipeline::FuzzyHashClassifier;
use fhc::serving::Prediction;
use fhc::shardnet::wire::{self, Frame};
use fhc::shardnet::worker::{serve_host_tcp, serve_tcp};
use fhc::shardnet::{
    gateway, Endpoint, FleetBackend, FleetShard, FleetTopology, FleetView, Gateway, GatewayOptions,
    ShardWorker, TenantHost, Transport,
};
use fhc::threshold::{apply_threshold, UNKNOWN_LABEL};
use fhc_bench::{bench_config, bench_corpus};
use hpcutil::{par_map_indexed, ParallelConfig};
use mlcore::model::Model;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spawn `n` in-process loopback shard workers over the classifier's
/// reference set and return a `remote:` backend configuration for them (a
/// fleet of replica-less shards). The accept threads live for the rest of
/// the process.
fn loopback_remote(trained: &fhc::serving::TrainedClassifier, n: usize) -> BackendConfig {
    let endpoints: Vec<Endpoint> = (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
            let worker = Arc::new(ShardWorker::all_classes(trained.reference_shared()));
            std::thread::spawn(move || serve_tcp(worker, listener));
            endpoint
        })
        .collect();
    BackendConfig::remote(endpoints)
}

/// Spawn `n` loopback shard workers with explicit round-robin partitions
/// (no over-the-wire assignment needed) and return their endpoints.
fn loopback_partitioned(trained: &fhc::serving::TrainedClassifier, n: usize) -> Vec<Endpoint> {
    let reference = trained.reference_shared();
    round_robin_partition(reference.n_classes(), n)
        .into_iter()
        .map(|classes| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
            let worker = Arc::new(
                ShardWorker::new(Arc::clone(&reference), classes).expect("valid partition"),
            );
            std::thread::spawn(move || serve_tcp(worker, listener));
            endpoint
        })
        .collect()
}

/// A crude WAN simulator: a TCP relay that store-and-forwards each burst
/// of bytes after a 500us one-way delay, so every round trip through it
/// pays ~1ms of latency — the regime a distributed shard fleet actually
/// serves in. Benching over raw loopback would hide exactly the cost the
/// connection multiplexer and the batched wire frames exist to amortize:
/// a lock-held round trip per query pays the link once *per query*, a
/// batched frame pays it once *per chunk*.
fn delayed_link(upstream: Endpoint, delay: std::time::Duration) -> Endpoint {
    use std::io::{Read, Write};
    let upstream = match upstream {
        Endpoint::Tcp(addr) => addr,
        other => panic!("delayed_link fronts TCP endpoints, got {other}"),
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(down) = stream else { return };
            let Ok(up) = std::net::TcpStream::connect(&upstream) else {
                return;
            };
            down.set_nodelay(true).ok();
            up.set_nodelay(true).ok();
            let pump = |mut from: std::net::TcpStream, mut to: std::net::TcpStream| {
                move || {
                    let mut buf = vec![0u8; 256 << 10];
                    loop {
                        match from.read(&mut buf) {
                            Ok(0) | Err(_) => {
                                let _ = to.shutdown(std::net::Shutdown::Write);
                                return;
                            }
                            Ok(n) => {
                                std::thread::sleep(delay);
                                if to.write_all(&buf[..n]).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                }
            };
            let (down2, up2) = (down.try_clone().unwrap(), up.try_clone().unwrap());
            std::thread::spawn(pump(down, up));
            std::thread::spawn(pump(up2, down2));
        }
    });
    endpoint
}

/// The pre-mux remote client, kept bench-local as the pipelining baseline:
/// one connection per worker guarded by a mutex that is **held across the
/// whole round trip**, workers visited serially per query. This is exactly
/// how the remote client serialized concurrent callers before it moved to
/// a connection multiplexer, so the `serving/gateway` group measures what
/// the mux + gateway batching actually buy at N concurrent clients.
struct MutexedRemote {
    workers: Vec<Mutex<Box<dyn Transport>>>,
    next_id: AtomicU64,
}

impl MutexedRemote {
    fn connect(endpoints: &[Endpoint]) -> Self {
        let workers = endpoints
            .iter()
            .map(|endpoint| {
                let mut conn = endpoint.connect().expect("dial loopback worker");
                match Frame::read_from(&mut conn, "bench").expect("handshake") {
                    Frame::Hello(_) => {}
                    other => panic!("expected Hello, got {other:?}"),
                }
                Mutex::new(conn)
            })
            .collect();
        Self {
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    fn score_into(&self, query: &PreparedSampleFeatures, out: &mut [f64]) {
        out.fill(0.0);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bytes = wire::score_request_bytes(id, query);
        for conn in &self.workers {
            let mut conn = conn.lock().expect("bench worker lock");
            wire::write_raw_frame(&mut **conn, &bytes, "bench").expect("write request");
            match Frame::read_from(&mut **conn, "bench").expect("read response") {
                Frame::ScoreResponse(response) => {
                    for (column, score) in response.cells {
                        let column = column as usize;
                        out[column] = out[column].max(score);
                    }
                }
                other => panic!("expected ScoreResponse, got {other:?}"),
            }
        }
    }
}

/// Score every probe once, split across `clients` concurrent frontends —
/// each client thread hands its whole chunk to `serve` (a backend's batch
/// row path), the access pattern of N serving processes each classifying
/// a batch. The interesting difference is what `serve` does with a chunk:
/// the mutexed baseline can only play lock-held ping-pong per query; the
/// mux pipelines and batches the chunk onto the wire.
fn concurrent_rows<F>(probes: &[PreparedSampleFeatures], clients: usize, serve: F)
where
    F: Fn(&[PreparedSampleFeatures]) + Sync,
{
    let chunk = probes.len().div_ceil(clients);
    let serve = &serve;
    std::thread::scope(|scope| {
        for part in probes.chunks(chunk) {
            scope.spawn(move || serve(part));
        }
    });
}

fn bench_classify_batch(c: &mut Criterion) {
    let corpus = bench_corpus(0.02, 42);
    let trained = FuzzyHashClassifier::with_config(bench_config(42))
        .fit(&corpus)
        .expect("training succeeds");

    // Serve every corpus sample as if it were new traffic.
    let batch: Vec<(String, Vec<u8>)> = corpus
        .samples()
        .iter()
        .map(|s| (s.install_path(), corpus.generate_bytes(s)))
        .collect();
    let features: Vec<SampleFeatures> = batch
        .iter()
        .map(|(_, bytes)| SampleFeatures::extract(bytes))
        .collect();

    // The pre-index serving path, mirroring the old `classify_batch` 1:1:
    // per sample — inside the parallel region, with the formerly hardcoded
    // parallelism — extract features, scan every reference hash with plain
    // `ssdeep::compare` (re-eliminating and re-packing signatures per
    // comparison), vote, threshold, and build the full `Prediction`.
    let classify_batch_unprepared = |samples: &[(String, Vec<u8>)]| -> Vec<(String, Prediction)> {
        par_map_indexed(
            samples.len(),
            ParallelConfig {
                threads: 0,
                chunk: 2,
            },
            |i| {
                let (name, bytes) = &samples[i];
                let extracted = SampleFeatures::extract(bytes);
                let row = trained.reference().feature_vector_scan(&extracted);
                let proba = Model::predict_proba(trained.forest(), &row);
                let eval_label = apply_threshold(&proba, trained.confidence_threshold());
                let confidence = proba.iter().cloned().fold(0.0f64, f64::max);
                let label = if eval_label == UNKNOWN_LABEL {
                    "-1".to_string()
                } else {
                    trained.known_class_names()[eval_label - 1].clone()
                };
                (
                    name.clone(),
                    Prediction {
                        label,
                        eval_label,
                        confidence,
                        proba,
                    },
                )
            },
        )
    };

    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("classify_batch_from_bytes", |b| {
        b.iter(|| trained.classify_batch(black_box(&batch)))
    });
    group.bench_function("classify_batch_unprepared_scan", |b| {
        b.iter(|| classify_batch_unprepared(black_box(&batch)))
    });
    group.bench_function("classify_batch_prehashed", |b| {
        b.iter(|| trained.classify_features_batch(black_box(&features)))
    });
    group.finish();

    // The similarity rows in isolation (no extraction, no forest): the
    // purest view of what the prepared index buys per comparison.
    let mut group = c.benchmark_group("serving/feature_rows");
    group.sample_size(10);
    group.throughput(Throughput::Elements(features.len() as u64));
    group.bench_function("prepared_index", |b| {
        b.iter(|| trained.reference().feature_matrix(black_box(&features)))
    });
    group.bench_function("unprepared_scan", |b| {
        b.iter(|| {
            trained
                .reference()
                .feature_matrix_scan(black_box(&features))
        })
    });
    group.finish();

    // Indexed vs scan vs loopback remote: the same classify_batch traffic
    // under each similarity backend (backend choice is runtime-only and
    // score-identical, so this group measures pure scheduling/transport
    // overhead — what putting class shards behind a socket adds).
    let mut group = c.benchmark_group("serving/backends");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch.len() as u64));
    for (label, backend) in [
        ("classify_batch_indexed", BackendConfig::Indexed),
        (
            "classify_batch_remote_loopback_2",
            loopback_remote(&trained, 2),
        ),
        ("classify_batch_scan", BackendConfig::Scan),
    ] {
        let swapped = trained.clone().with_backend(backend);
        group.bench_function(label, |b| {
            b.iter(|| swapped.classify_batch(black_box(&batch)))
        });
    }
    group.finish();

    // Single-query serving: loopback-remote vs indexed on identical
    // traffic. Everything above the indexed number is scheduling + framing
    // + syscalls. The `classify_one_*` labels include extraction
    // (`classify_one_indexed` is the local single-query latency); the
    // `score_one_prehashed_*` labels score one prepared query's similarity
    // row and nothing else, so the transport is most of what they measure.
    let mut group = c.benchmark_group("serving/remote");
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));
    group.bench_function("classify_one_indexed", |b| {
        b.iter(|| trained.classify(black_box(&batch[0].1)))
    });
    let prehashed = PreparedSampleFeatures::prepare(&features[0]);
    let mut row = vec![0.0f64; trained.reference().n_columns()];
    let indexed = BackendConfig::Indexed.build(trained.reference_shared());
    group.bench_function("score_one_prehashed_indexed", |b| {
        b.iter(|| indexed.max_scores_into(black_box(&prehashed), &mut row))
    });
    for workers in [1usize, 2, 4] {
        let remote_config = loopback_remote(&trained, workers);
        let remote = remote_config.build(trained.reference_shared());
        group.bench_function(format!("score_one_prehashed_loopback_{workers}"), |b| {
            b.iter(|| {
                remote
                    .try_max_scores_into(black_box(&prehashed), &mut row)
                    .expect("workers alive")
            })
        });
        let remote = trained.clone().with_backend(remote_config);
        group.bench_function(format!("classify_one_remote_loopback_{workers}"), |b| {
            b.iter(|| remote.classify(black_box(&batch[0].1)))
        });
    }
    group.finish();

    // The gateway tier vs the pre-mux baseline: identical probes, identical
    // two-worker fleets, scored concurrently by 1/2/4 client threads. The
    // mutexed baseline serializes callers behind per-connection locks held
    // across round trips; the pipelined `remote:` fleet multiplexes them
    // over the same sockets; the gateway additionally coalesces the concurrent
    // queries into batched wire frames per shard. Raw rows (no extraction,
    // no forest) so the transport difference is what is measured.
    let reference = trained.reference_shared();
    let n_columns = reference.n_columns();
    let probes: Vec<PreparedSampleFeatures> = features
        .iter()
        .take(48)
        .map(PreparedSampleFeatures::prepare)
        .collect();

    // Every client crosses exactly one simulated 500us link: the direct
    // backends dial their two workers through it; the gateway clients dial
    // the gateway through it, and the gateway reaches its fleet over
    // loopback (it fronts the cluster the workers live in).
    let wan = std::time::Duration::from_micros(500);
    let mutexed = MutexedRemote::connect(
        &loopback_partitioned(&trained, 2)
            .into_iter()
            .map(|ep| delayed_link(ep, wan))
            .collect::<Vec<_>>(),
    );
    let batched_endpoints: Vec<Endpoint> = loopback_partitioned(&trained, 2)
        .into_iter()
        .map(|ep| delayed_link(ep, wan))
        .collect();
    let pipelined = FleetBackend::connect(
        reference.clone(),
        FleetTopology::new(
            batched_endpoints
                .into_iter()
                .map(FleetShard::solo)
                .collect(),
        ),
    )
    .expect("pipelined remote connects");
    let front = {
        let gw = Gateway::connect(
            reference.clone(),
            FleetTopology::replica_less(loopback_partitioned(&trained, 2)),
            GatewayOptions::default(),
        )
        .expect("gateway connects its fleet");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback gateway");
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let gw = Arc::new(gw);
        std::thread::spawn(move || gateway::serve_tcp(gw, listener));
        delayed_link(endpoint, wan)
    };
    let through_gateway = FleetBackend::connect(
        reference.clone(),
        FleetTopology::new(vec![FleetShard::solo(front)]),
    )
    .expect("gateway backend connects");

    let mut group = c.benchmark_group("serving/gateway");
    group.sample_size(10);
    group.throughput(Throughput::Elements(probes.len() as u64));
    for clients in [1usize, 2, 4] {
        group.bench_function(format!("rows_mutexed_remote_{clients}_clients"), |b| {
            b.iter(|| {
                concurrent_rows(&probes, clients, |part| {
                    let mut out = vec![0.0f64; n_columns];
                    for query in part {
                        mutexed.score_into(query, &mut out);
                        black_box(&mut out);
                    }
                })
            })
        });
        group.bench_function(format!("rows_batched_remote_{clients}_clients"), |b| {
            b.iter(|| {
                concurrent_rows(&probes, clients, |part| {
                    black_box(
                        pipelined
                            .try_feature_rows_prepared(part)
                            .expect("workers alive"),
                    );
                })
            })
        });
        group.bench_function(format!("rows_pipelined_gateway_{clients}_clients"), |b| {
            b.iter(|| {
                concurrent_rows(&probes, clients, |part| {
                    black_box(
                        through_gateway
                            .try_feature_rows_prepared(part)
                            .expect("fleet alive"),
                    );
                })
            })
        });
    }
    group.finish();

    // The fleet tier's hedged requests vs a plain fleet, with one slow
    // worker in both: shard 0's primary sits behind a simulated 10ms slow
    // link, shard 1 is healthy. The unhedged fleet pays the slow link on
    // every batch; the hedged fleet fires shard 0's loopback replica after
    // the rolling-percentile deadline, so the slow primary stops defining
    // the tail after the first few requests.
    let slow = std::time::Duration::from_millis(10);
    let parts = round_robin_partition(reference.n_classes(), 2);
    let spawn_part = |classes: Vec<usize>| -> Endpoint {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let worker =
            Arc::new(ShardWorker::new(reference.clone(), classes).expect("valid partition"));
        std::thread::spawn(move || serve_tcp(worker, listener));
        endpoint
    };
    let slow_primary = delayed_link(spawn_part(parts[0].clone()), slow);
    let fast_replica = spawn_part(parts[0].clone());
    let steady = spawn_part(parts[1].clone());
    let hedged = FleetBackend::connect(
        reference.clone(),
        FleetTopology::new(vec![
            FleetShard {
                primary: slow_primary.clone(),
                replicas: vec![fast_replica],
            },
            FleetShard::solo(steady.clone()),
        ]),
    )
    .expect("hedged fleet connects");
    let unhedged = FleetBackend::connect(
        reference.clone(),
        FleetTopology::new(vec![
            FleetShard::solo(slow_primary),
            FleetShard::solo(steady),
        ]),
    )
    .expect("unhedged fleet connects");
    let fleet_probes = &probes[..8];

    let mut group = c.benchmark_group("serving/fleet");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fleet_probes.len() as u64));
    group.bench_function("rows_unhedged_slow_primary", |b| {
        b.iter(|| {
            black_box(
                unhedged
                    .try_feature_rows_prepared(fleet_probes)
                    .expect("fleet alive"),
            )
        })
    });
    group.bench_function("rows_hedged_slow_primary", |b| {
        b.iter(|| {
            black_box(
                hedged
                    .try_feature_rows_prepared(fleet_probes)
                    .expect("fleet alive"),
            )
        })
    });
    group.finish();

    // Multi-tenant serving: tenant selection happens once per connection
    // at handshake time, so a daemon hosting several reference sets must
    // serve per-query traffic at the same speed as a single-tenant one —
    // this pair of labels keeps that a recorded number, not an assumption.
    let spawn_host = |host: TenantHost| -> Endpoint {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let host = Arc::new(host);
        std::thread::spawn(move || serve_host_tcp(host, listener));
        endpoint
    };
    let single_ep = spawn_host(TenantHost::single(Some(ShardWorker::all_classes(
        reference.clone(),
    ))));
    let multi_ep = {
        let mut host = TenantHost::new();
        for name in ["acme", "beta", "gamma", "delta"] {
            host.register(name, Some(ShardWorker::all_classes(reference.clone())))
                .expect("register tenant");
        }
        spawn_host(host)
    };
    let one_tenant = FleetBackend::connect(
        reference.clone(),
        FleetTopology::new(vec![FleetShard::solo(single_ep)]),
    )
    .expect("single-tenant daemon serves the default tenant");
    let four_tenants = FleetBackend::connect_tenant(
        reference.clone(),
        FleetTopology::new(vec![FleetShard::solo(multi_ep)]),
        Some("gamma"),
    )
    .expect("multi-tenant daemon routes the connection");

    // Rolling upgrades: evolve the last reference class by one sample, so
    // the delta carries a single class slice. Each iteration resets the
    // push-capable worker to the base set (identical cost in both
    // variants), then upgrades it to the target through an admit — by a
    // full per-class re-seed, or by the registered delta. The gap between
    // the two medians is what shipping a delta instead of every class
    // slice buys on the wire.
    let mut evolved = (*reference).clone();
    let last = reference.n_classes() - 1;
    evolved
        .add_samples(
            last,
            vec![PreparedSampleFeatures::prepare(&SampleFeatures::extract(
                b"a freshly observed variant of the final reference class",
            ))],
        )
        .expect("extend the last class");
    let target = Arc::new(evolved);
    let delta = ArtifactDelta::between(&reference, &target).expect("diff the evolution");
    let upgradeable = spawn_host(TenantHost::single(None)); // diskless, push-capable
    let healthy = {
        // Already holds the target set, so connecting never re-pushes it.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let worker = Arc::new(ShardWorker::all_classes(target.clone()));
        std::thread::spawn(move || serve_tcp(worker, listener));
        endpoint
    };
    let upgrade = |with_delta: bool| {
        FleetView::connect(
            reference.clone(),
            FleetTopology::new(vec![FleetShard::solo(upgradeable.clone())]),
            None,
        )
        .expect("reset the worker to the base set by full push");
        let view = FleetView::connect(
            target.clone(),
            FleetTopology::new(vec![FleetShard::solo(healthy.clone())]),
            None,
        )
        .expect("target fleet connects");
        if with_delta {
            view.register_delta(delta.clone()).expect("register delta");
        }
        view.admit(FleetShard::solo(upgradeable.clone()))
            .expect("admit upgrades the stale worker");
    };

    let mut group = c.benchmark_group("serving/tenant");
    group.sample_size(10);
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("rows_1_tenant_daemon", |b| {
        b.iter(|| {
            black_box(
                one_tenant
                    .try_feature_rows_prepared(&probes)
                    .expect("daemon alive"),
            )
        })
    });
    group.bench_function("rows_4_tenant_daemon", |b| {
        b.iter(|| {
            black_box(
                four_tenants
                    .try_feature_rows_prepared(&probes)
                    .expect("daemon alive"),
            )
        })
    });
    group.throughput(Throughput::Elements(1));
    group.bench_function("upgrade_full_push", |b| b.iter(|| upgrade(false)));
    group.bench_function("upgrade_delta_patch", |b| b.iter(|| upgrade(true)));
    group.finish();

    // Artifact round trip: the cost of loading a model into a new process.
    let bytes = trained.to_bytes();
    let mut group = c.benchmark_group("serving/artifact");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("to_bytes", |b| b.iter(|| trained.to_bytes()));
    group.bench_function("from_bytes", |b| {
        b.iter(|| fhc::serving::TrainedClassifier::from_bytes(black_box(&bytes)).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_classify_batch
}
criterion_main!(benches);
