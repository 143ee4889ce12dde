//! End-to-end loopback test of the `fhc-shardd` worker daemon.
//!
//! Trains a small classifier, saves the artifact, spawns two real
//! `fhc-shardd` processes (one per shard of the round-robin partition) on
//! loopback TCP, and serves the same artifact through them via a
//! `remote:` backend (a fleet of replica-less shards). Predictions must be byte-identical to the
//! in-process indexed backend; killing a daemon mid-serving must surface
//! as a typed error, not a wrong or partial prediction. This is the test
//! CI runs explicitly so the daemon path cannot silently rot.

use corpus::{Catalog, CorpusBuilder};
use fhc::backend::BackendConfig;
use fhc::config::FhcConfig;
use fhc::error::FhcError;
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::serving::TrainedClassifier;
use fhc::shardnet::Endpoint;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Spawn one `fhc-shardd` on an OS-assigned loopback port and scrape the
/// bound address from its announcement line.
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
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read announcement");
    // "fhc-shardd listening on 127.0.0.1:PORT serving K/N classes ..."
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    let endpoint = addr
        .parse::<Endpoint>()
        .unwrap_or_else(|e| panic!("bad announced address {addr:?}: {e}"));
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

#[test]
fn shardd_daemons_serve_byte_identical_predictions_and_die_loudly() {
    // Train once, small but real.
    let corpus = CorpusBuilder::new(47).build(&Catalog::paper().scaled(0.02));
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed: 47,
        forest: mlcore::forest::RandomForestParams {
            n_estimators: 20,
            ..Default::default()
        },
        ..Default::default()
    });
    let trained = FuzzyHashClassifier::with_config(config.clone())
        .fit(&corpus)
        .expect("fit succeeds");
    let artifact = std::env::temp_dir().join(format!("fhc-shardd-test-{}.fhc", std::process::id()));
    trained.save(&artifact).expect("save artifact");

    // Two real daemon processes, one per shard of the 2-way partition.
    let (child0, endpoint0) = spawn_shardd(&artifact, 0, 2);
    let (child1, endpoint1) = spawn_shardd(&artifact, 1, 2);
    let mut guard = KillOnDrop(vec![child0, child1]);

    // Reopen the stored artifact under the remote topology.
    let remote = BackendConfig::remote([endpoint0, endpoint1]);
    let remote_config = config.backend(remote.clone());
    let served = TrainedClassifier::load_with(&artifact, &remote_config)
        .expect("artifact opens against running daemons");
    assert_eq!(served.backend_config(), remote);

    // Byte-identical predictions vs the local indexed backend.
    let batch: Vec<(String, Vec<u8>)> = corpus
        .samples()
        .iter()
        .step_by(29)
        .map(|s| (s.install_path(), corpus.generate_bytes(s)))
        .collect();
    assert!(batch.len() >= 4, "need a real batch");
    let expected = trained.classify_batch(&batch);
    let via_daemons = served
        .try_classify_batch(&batch)
        .expect("daemons are healthy");
    assert_eq!(via_daemons, expected);

    // Kill one daemon: serving must degrade to a typed error, never to a
    // wrong or partial prediction.
    guard.0[1].kill().expect("kill shard 1");
    guard.0[1].wait().expect("reap shard 1");
    let mut saw_typed_error = false;
    // The first try may still be answered from the healthy worker plus the
    // dead socket's buffered response; retry a few times — every outcome
    // must be either a correct prediction or a typed network error.
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
            Err(FhcError::Net(e)) => {
                saw_typed_error = true;
                assert!(e.is_worker_lost(), "expected WorkerLost, got {e}");
            }
            Err(other) => panic!("expected FhcError::Net, got {other}"),
        }
    }
    assert!(
        saw_typed_error,
        "killing a worker must surface as a typed error"
    );

    drop(guard);
    std::fs::remove_file(&artifact).ok();
}
