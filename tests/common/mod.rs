//! Shared fixtures for the workspace-level integration suites.
//!
//! Each integration test file is its own crate, so shared helpers live
//! here and are pulled in with `mod common;`. Not every suite uses every
//! helper, hence the `dead_code` allowance.

#![allow(dead_code)]

use fhc::backend::BackendConfig;
use fhc::features::SampleFeatures;
use fhc::shardnet::worker::serve_tcp;
use fhc::shardnet::{Endpoint, ShardWorker};
use fhc::similarity::ReferenceSet;
use std::net::TcpListener;
use std::sync::Arc;

/// Spawn `n` loopback shard workers over `reference`, each serving every
/// class (a fleet assigns each its round-robin partition at connect).
/// Returns their endpoints; the accept threads live until the test process
/// exits.
pub fn spawn_loopback_workers(reference: &Arc<ReferenceSet>, n: usize) -> Vec<Endpoint> {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let endpoint = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
            let worker = Arc::new(ShardWorker::all_classes(Arc::clone(reference)));
            std::thread::spawn(move || serve_tcp(worker, listener));
            endpoint
        })
        .collect()
}

/// A `remote:` fleet of `n` shards over fresh loopback workers.
pub fn loopback_fleet(reference: &Arc<ReferenceSet>, n: usize) -> BackendConfig {
    BackendConfig::remote(spawn_loopback_workers(reference, n))
}

/// A sample whose three views are the same hand-built hash — the shapes
/// generated hashes rarely produce but the comparison rules must handle.
pub fn parts_sample(block_size: u64, sig: &str, sig_double: &str) -> SampleFeatures {
    let h = ssdeep::FuzzyHash::from_parts(block_size, sig.into(), sig_double.into()).unwrap();
    SampleFeatures {
        file: h.clone(),
        strings: h.clone(),
        symbols: Some(h),
    }
}

/// Adversarial hand-built reference hashes: run-heavy signatures whose
/// eliminated form is below the 7-byte common-substring window (scoreable
/// only via the identical-hash fast path), factor-of-two block-size
/// pairings, near-`u64::MAX` block sizes (doubling overflows), and a
/// signature below the window length.
pub fn degenerate_references() -> Vec<SampleFeatures> {
    vec![
        parts_sample(3, "AAAAAAAAAA", "AAAAA"),
        parts_sample(3, "AAAAAAAAAB", "AAAAA"),
        parts_sample(6, "ABCDEFGHIJKLMNOP", "ABCDEFGH"),
        parts_sample(12, "ABCDEFGHIJKLMNOP", "QRSTUVWX"),
        parts_sample(24, "QRSTUVWXABCDEFGH", "MNBVCXZL"),
        parts_sample(u64::MAX, "ABCDEFGHIJKL", "ABCDEF"),
        parts_sample(u64::MAX / 2 + 1, "ABCDEFGHIJKL", "ABCDEF"),
        parts_sample(3, "ABCDE", "AB"),
    ]
}

/// Probes for [`degenerate_references`]: every reference itself (the
/// identical-hash paths) plus queries that pair with references only
/// through the half/double block-size channels and a no-match stranger.
pub fn degenerate_probes() -> Vec<SampleFeatures> {
    let mut probes = degenerate_references();
    probes.push(parts_sample(6, "QRSTUVWXABCDEFGH", "ABCDEFGHIJKLMNOP"));
    probes.push(parts_sample(48, "MNBVCXZLKJHGFDSA", "POIUYTRE"));
    probes.push(parts_sample(3, "AAAAAAAAAA", "AAAAA"));
    probes.push(parts_sample(192, "zzzzyyyyxxxxwwww", "vvvvuuuu"));
    probes
}
