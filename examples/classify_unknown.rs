//! Detecting software that deviates from allocation purpose.
//!
//! The paper's motivating scenario: a user's project allocation normally runs
//! a known set of scientific applications; one day executables appear that do
//! not belong to any known class (e.g. a cryptocurrency miner). This example
//! trains the classifier once with `fit`, then uses the resulting
//! `TrainedClassifier` to show how previously unseen binaries are flagged as
//! `"-1"` (unknown), while new *versions* of known applications are still
//! recognized — no retraining per query, which is the point of the
//! fit/predict serving API.
//!
//! ```text
//! cargo run --release --example classify_unknown
//! ```

use binary::elf::ElfBuilder;
use corpus::{Catalog, CorpusBuilder};
use fhc::backend::BackendConfig;
use fhc::config::FhcConfig;
use fhc::pipeline::FuzzyHashClassifier;
use fhc::shardnet::worker::serve_tcp;
use fhc::shardnet::{Endpoint, ShardWorker};
use std::net::TcpListener;
use std::sync::Arc;

/// Build an executable that imitates an unauthorized workload: none of its
/// symbols, strings, or code come from the known application corpus.
fn rogue_miner() -> Vec<u8> {
    let mut b = ElfBuilder::new();
    let code: Vec<u8> = (0..60_000u32)
        .map(|i| (i.wrapping_mul(0x9E3779B9) >> 21) as u8)
        .collect();
    b.add_text_section(code);
    b.add_rodata_section(
        b"stratum+tcp://pool.example.org:3333\0submitting share\0hashrate %f MH/s\0".to_vec(),
    );
    for name in [
        "scanhash_loop",
        "stratum_connect",
        "submit_share",
        "difficulty_adjust",
    ] {
        b.add_global_function(name, 0x100, 0x400);
    }
    b.build()
}

fn main() {
    // Train once on a small synthetic corpus of known HPC applications.
    let corpus = CorpusBuilder::new(7).build(&Catalog::paper().scaled(0.04));
    let trained = FuzzyHashClassifier::with_config(FhcConfig::new().seed(7))
        .fit(&corpus)
        .expect("training should succeed");
    // Serve through a fleet of two shard workers (in process on loopback
    // here; `fhc-shardd` daemons in production): each query fans out across
    // both, score-identical to the default indexed backend.
    let endpoints: Vec<Endpoint> = (0..2)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback worker");
            let endpoint = Endpoint::Tcp(listener.local_addr().expect("bound").to_string());
            let worker = Arc::new(ShardWorker::all_classes(trained.reference_shared()));
            std::thread::spawn(move || serve_tcp(worker, listener));
            endpoint
        })
        .collect();
    let trained = trained.with_backend(BackendConfig::remote(endpoints));
    println!(
        "trained on {} known classes (threshold {:.2}, backend {})",
        trained.n_known_classes(),
        trained.confidence_threshold(),
        trained.backend_config()
    );

    // A brand-new execution of a known application, a rogue workload, and a
    // plain script — classified in one parallel batch, without retraining.
    // The two-phase split holds ~20% of classes out as unknown, so pick a
    // sample whose class actually survived into the known set (and skip the
    // duplicate-install alias classes the paper discusses, whose siblings
    // legitimately win the similarity vote).
    let normalize = |name: &str| -> String {
        name.chars()
            .filter(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase()
    };
    let known_sample = corpus
        .samples()
        .iter()
        .find(|s| {
            trained.known_class_names().contains(&s.class_name)
                && !trained.known_class_names().iter().any(|other| {
                    *other != s.class_name && normalize(other) == normalize(&s.class_name)
                })
        })
        .expect("some known-class sample exists");
    let batch: Vec<(String, Vec<u8>)> = vec![
        (
            format!("new execution of {}", known_sample.class_name),
            corpus.generate_bytes(known_sample),
        ),
        ("rogue mining executable".to_string(), rogue_miner()),
        (
            "shell wrapper script".to_string(),
            b"#!/bin/bash\nexec ./payload --pool pool.example.org\n".to_vec(),
        ),
    ];
    println!();
    for (name, prediction) in trained.classify_batch(&batch) {
        let verdict = if prediction.is_unknown() {
            "-1 (unknown)".to_string()
        } else {
            prediction.label.clone()
        };
        println!(
            "{name:<42} -> classified as {verdict} (confidence {:.2})",
            prediction.confidence
        );
    }
}
