//! End-to-end loopback tests of multi-tenant serving and delta updates
//! across real daemon processes.
//!
//! Covers the two serving-equivalence promises the tenant subsystem
//! makes: (1) two tenants behind **one** `fhc-shardd` are isolated — each
//! client sees exactly the predictions its own artifact computes locally,
//! an unregistered tenant is refused as a typed `NetError::Tenant` naming
//! it, and a tenant/artifact mismatch is a typed handshake error that
//! leaves the slot untouched, never a wrong row; (2) a worker patched over the wire by `ArtifactDelta`
//! (`PushDelta`) serves byte-identical predictions alongside a full-push
//! seeded worker, and the `fhc-artifact diff`/`apply` CLI reproduces the
//! evolved artifact byte-for-byte. This is the test CI runs explicitly so
//! the tenant and delta paths cannot silently rot.

use corpus::{Catalog, CorpusBuilder};
use fhc::artifact::ArtifactDelta;
use fhc::backend::{AnyBackend, BackendConfig};
use fhc::config::FhcConfig;
use fhc::error::FhcError;
use fhc::features::{PreparedSampleFeatures, SampleFeatures};
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::serving::{Prediction, TrainedClassifier};
use fhc::shardnet::wire::{self, Frame};
use fhc::shardnet::{Endpoint, FleetShard, FleetTopology, NetError};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// Scrape the bound address from the daemon's announcement line
/// ("fhc-shardd listening on ADDR ...").
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

/// Spawn one `fhc-shardd` with the given extra arguments on an
/// OS-assigned loopback port.
fn spawn_shardd(args: &[std::ffi::OsString]) -> (Child, Endpoint) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fhc-shardd"))
        .args(args)
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fhc-shardd");
    let endpoint = scrape_endpoint(&mut child);
    (child, endpoint)
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

struct Trained {
    trained: TrainedClassifier,
    artifact: std::path::PathBuf,
    batch: Vec<(String, Vec<u8>)>,
    expected: Vec<(String, Prediction)>,
}

/// Train one small classifier (seeded, so tenants differ), save its
/// artifact, and precompute the predictions serving must match.
fn train(tag: &str, seed: u64) -> Trained {
    let corpus = CorpusBuilder::new(seed).build(&Catalog::paper().scaled(0.02));
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed,
        forest: mlcore::forest::RandomForestParams {
            n_estimators: 20,
            ..Default::default()
        },
        ..Default::default()
    });
    let trained = FuzzyHashClassifier::with_config(config)
        .fit(&corpus)
        .expect("fit succeeds");
    let artifact =
        std::env::temp_dir().join(format!("fhc-tenant-{tag}-{}.fhc", std::process::id()));
    trained.save(&artifact).expect("save artifact");
    let batch: Vec<(String, Vec<u8>)> = corpus
        .samples()
        .iter()
        .step_by(29)
        .map(|s| (s.install_path(), corpus.generate_bytes(s)))
        .collect();
    assert!(batch.len() >= 4, "need a real batch");
    let expected = trained.classify_batch(&batch);
    Trained {
        trained,
        artifact,
        batch,
        expected,
    }
}

/// The fingerprint `tenant`'s slot advertises, read from a bare
/// handshake.
fn slot_fingerprint(endpoint: &Endpoint, tenant: &str) -> u64 {
    let mut conn = endpoint.connect().expect("dial the daemon");
    Frame::read_from(&mut conn, "daemon").expect("greeting");
    Frame::Hello(wire::Hello {
        protocol: wire::PROTOCOL_VERSION,
        features: 0,
        fingerprint: 0,
        n_classes: 0,
        n_columns: 0,
        classes: Vec::new(),
        tenant: tenant.to_string(),
    })
    .write_to(&mut conn, "daemon")
    .expect("select the tenant");
    match Frame::read_from(&mut conn, "daemon").expect("tenant greeting") {
        Frame::Hello(hello) => hello.fingerprint,
        other => panic!("expected the tenant's greeting, got {other:?}"),
    }
}

/// A `remote:ADDR;tenant=NAME` backend spec against one daemon.
fn tenant_config(endpoint: &Endpoint, tenant: &str) -> FhcConfig {
    let spec = format!("remote:{endpoint};tenant={tenant}");
    FhcConfig::new().backend(spec.parse::<BackendConfig>().expect("spec parses"))
}

#[test]
fn two_tenants_behind_one_daemon_are_isolated_and_cross_tenant_is_typed() {
    let acme = train("acme", 53);
    let beta = train("beta", 61);
    assert_ne!(
        acme.trained.reference().fingerprint(),
        beta.trained.reference().fingerprint(),
        "the tenants must serve different artifacts for isolation to mean anything"
    );

    // ONE daemon serving both tenants (and no default tenant at all).
    let mut tenant_args = Vec::new();
    for (name, t) in [("acme", &acme), ("beta", &beta)] {
        tenant_args.push("--tenant".into());
        let mut spec = std::ffi::OsString::from(format!("{name}="));
        spec.push(&t.artifact);
        tenant_args.push(spec);
    }
    let (daemon, endpoint) = spawn_shardd(&tenant_args);
    let _guard = KillOnDrop(vec![daemon]);

    // Each tenant's client sees exactly its own artifact's predictions.
    for (name, t) in [("acme", &acme), ("beta", &beta)] {
        let served = TrainedClassifier::load_with(&t.artifact, &tenant_config(&endpoint, name))
            .unwrap_or_else(|e| panic!("tenant {name} opens against the daemon: {e}"));
        assert_eq!(
            served
                .try_classify_batch(&t.batch)
                .unwrap_or_else(|e| panic!("tenant {name} serves: {e}")),
            t.expected,
            "tenant {name} must return its own artifact's predictions"
        );
    }

    // An unregistered tenant is refused with a typed error naming it.
    match TrainedClassifier::load_with(&acme.artifact, &tenant_config(&endpoint, "ghost")) {
        Err(FhcError::Net(NetError::Tenant { tenant, detail, .. })) => {
            assert_eq!(tenant, "ghost");
            assert!(
                detail.contains("acme") && detail.contains("beta"),
                "the refusal should name the served tenants: {detail}"
            );
        }
        other => panic!("expected a typed tenant rejection, got {other:?}"),
    }

    // Selecting one tenant while expecting another tenant's artifact is a
    // typed handshake error (fingerprint mismatch), never a wrong row —
    // and never a push that replaces the slot's artifact.
    match TrainedClassifier::load_with(&beta.artifact, &tenant_config(&endpoint, "acme")) {
        Err(FhcError::Net(NetError::Handshake { detail, .. })) => {
            assert!(
                detail.contains("fingerprint"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("expected a typed handshake rejection, got {other:?}"),
    }
    assert_eq!(
        slot_fingerprint(&endpoint, "acme"),
        acme.trained.reference().fingerprint(),
        "a refused client leaves the acme slot's artifact in place"
    );

    // A tenant-unaware client expects the default tenant; this daemon
    // serves none, so the greeting mismatch is a typed tenant error too.
    let plain = FhcConfig::new().backend(BackendConfig::remote([endpoint]));
    match TrainedClassifier::load_with(&acme.artifact, &plain) {
        Err(FhcError::Net(NetError::Tenant { tenant, .. })) => assert_eq!(tenant, "default"),
        other => panic!("expected a typed tenant rejection, got {other:?}"),
    }

    std::fs::remove_file(&acme.artifact).ok();
    std::fs::remove_file(&beta.artifact).ok();
}

#[test]
fn a_gateway_fronts_one_tenant_of_a_multi_tenant_daemon() {
    let acme = train("gw-acme", 53);
    let beta = train("gw-beta", 61);
    let mut tenant_args = Vec::new();
    for (name, t) in [("acme", &acme), ("beta", &beta)] {
        tenant_args.push("--tenant".into());
        let mut spec = std::ffi::OsString::from(format!("{name}="));
        spec.push(&t.artifact);
        tenant_args.push(spec);
    }
    let (daemon, worker_ep) = spawn_shardd(&tenant_args);

    // The gateway binds to exactly one tenant of the shared daemon.
    let mut gateway = Command::new(env!("CARGO_BIN_EXE_fhc-gateway"))
        .arg("--artifact")
        .arg(&acme.artifact)
        .arg("--tenant")
        .arg("acme")
        .arg("--workers")
        .arg(worker_ep.to_string())
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn fhc-gateway");
    let front = scrape_endpoint(&mut gateway);
    let _guard = KillOnDrop(vec![daemon, gateway]);

    // The fronted tenant serves its own predictions through two hops.
    let spec = format!("gateway:{front};tenant=acme");
    let config = FhcConfig::new().backend(spec.parse::<BackendConfig>().expect("spec parses"));
    let served =
        TrainedClassifier::load_with(&acme.artifact, &config).expect("open through the gateway");
    assert_eq!(
        served.try_classify_batch(&acme.batch).expect("serves"),
        acme.expected
    );

    // Selecting any other tenant on this gateway is a typed refusal: a
    // gateway fronts exactly one tenant.
    let other = format!("gateway:{front};tenant=beta");
    let config = FhcConfig::new().backend(other.parse::<BackendConfig>().expect("spec parses"));
    match TrainedClassifier::load_with(&beta.artifact, &config) {
        Err(FhcError::Net(NetError::Tenant { tenant, .. })) => assert_eq!(tenant, "beta"),
        other => panic!("expected a typed tenant rejection, got {other:?}"),
    }

    std::fs::remove_file(&acme.artifact).ok();
    std::fs::remove_file(&beta.artifact).ok();
}

#[test]
fn a_delta_patched_worker_serves_byte_identically_and_the_cli_round_trips() {
    let t = train("delta", 53);
    let base = t.trained.reference_shared();

    // Evolve the *last* class in place (order-preserving, so the delta is
    // genuinely incremental: one retire, one re-added slice).
    let mut evolved = (*base).clone();
    let last = base.n_classes() - 1;
    evolved
        .add_samples(
            last,
            vec![PreparedSampleFeatures::prepare(&SampleFeatures::extract(
                b"a freshly observed variant of the final reference class",
            ))],
        )
        .expect("extend the last class");
    let target = Arc::new(evolved);
    let delta = ArtifactDelta::between(&base, &target).expect("diff");
    assert_eq!(delta.add_slices.len(), 1, "one changed class travels");

    // The locally evolved classifier is the ground truth every serving
    // path below must reproduce byte-for-byte.
    let mut local = TrainedClassifier::load(&t.artifact).expect("load base artifact");
    local
        .try_set_reference(Arc::clone(&target))
        .expect("sample-only evolution preserves the fitted geometry");
    let expected = local.classify_batch(&t.batch);
    let v2 = std::env::temp_dir().join(format!("fhc-tenant-v2-{}.fhc", std::process::id()));
    local.save(&v2).expect("save evolved artifact");

    // CLI round trip: diff the two artifacts, apply the delta to the
    // base, and the reproduced artifact is byte-identical to the real v2.
    let delta_path = std::env::temp_dir().join(format!("fhc-tenant-{}.fhcd", std::process::id()));
    let v2b = std::env::temp_dir().join(format!("fhc-tenant-v2b-{}.fhc", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_fhc-artifact"))
        .arg("diff")
        .arg("--base")
        .arg(&t.artifact)
        .arg("--target")
        .arg(&v2)
        .arg("--out")
        .arg(&delta_path)
        .status()
        .expect("run fhc-artifact diff");
    assert!(status.success(), "fhc-artifact diff failed");
    let status = Command::new(env!("CARGO_BIN_EXE_fhc-artifact"))
        .arg("apply")
        .arg("--base")
        .arg(&t.artifact)
        .arg("--delta")
        .arg(&delta_path)
        .arg("--out")
        .arg(&v2b)
        .status()
        .expect("run fhc-artifact apply");
    assert!(status.success(), "fhc-artifact apply failed");
    assert_eq!(
        std::fs::read(&v2).expect("read v2"),
        std::fs::read(&v2b).expect("read patched v2"),
        "the patched artifact must be byte-identical to the evolved one"
    );

    // Fleet equivalence: one diskless worker seeded by FULL push, one
    // stale worker (still loaded with the base artifact) upgraded by
    // DELTA push — together they must serve exactly the evolved
    // predictions.
    let (diskless, diskless_ep) = spawn_shardd(&["--diskless".into()]);
    let (stale, stale_ep) = {
        let mut args: Vec<std::ffi::OsString> = vec!["--artifact".into()];
        args.push(t.artifact.clone().into());
        spawn_shardd(&args)
    };
    let _guard = KillOnDrop(vec![diskless, stale]);

    let mut served = TrainedClassifier::load(&v2b).expect("load the patched artifact");
    served
        .try_set_backend(BackendConfig::Fleet {
            topology: FleetTopology::new(vec![FleetShard::solo(diskless_ep)]),
            tenant: None,
        })
        .expect("connect seeds the diskless worker by full push");
    let AnyBackend::Fleet(fleet) = served.backend() else {
        panic!("expected a fleet backend");
    };
    fleet.view().register_delta(delta).expect("register delta");
    fleet
        .view()
        .admit(FleetShard::solo(stale_ep))
        .expect("admit upgrades the stale worker by delta push");
    assert_eq!(
        served.try_classify_batch(&t.batch).expect("fleet serves"),
        expected,
        "delta-patched and full-push workers must serve identical predictions"
    );

    std::fs::remove_file(&t.artifact).ok();
    std::fs::remove_file(&v2).ok();
    std::fs::remove_file(&v2b).ok();
    std::fs::remove_file(&delta_path).ok();
}
