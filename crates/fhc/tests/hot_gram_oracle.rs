//! Scan-oracle equivalence on an adversarial **hot-gram corpus**: every
//! reference signature, in every channel, shares one 7-byte window
//! (`HOTGRAM`), so that single gram's posting list contains every entry of
//! every class. This is the worst case for the inverted gram index — the
//! candidate set degenerates to "everyone" and any dedup, projection, or
//! partition bug in the indexed or fleet walks shows up as a row
//! diverging from the unindexed scan. Rows are compared as `f64` bit
//! patterns: byte-identical, no tolerance.

use fhc::backend::{BackendConfig, SimilarityBackend};
use fhc::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use fhc::shardnet::{worker, Endpoint, ShardWorker};
use fhc::similarity::ReferenceSet;
use std::net::TcpListener;
use std::sync::Arc;

/// A sample whose three channels are hand-built fuzzy hashes. `from_parts`
/// validates the signature alphabet, so an invalid shape fails loudly here
/// rather than scoring as silently-empty.
fn parts_sample(bs: u64, sig: &str, sig_double: &str) -> SampleFeatures {
    let h = ssdeep::FuzzyHash::from_parts(bs, sig.into(), sig_double.into())
        .unwrap_or_else(|e| panic!("bad hand-built hash {bs}:{sig}:{sig_double}: {e:?}"));
    SampleFeatures {
        file: h.clone(),
        strings: h.clone(),
        symbols: Some(h),
    }
}

/// Five classes, two references each — and every signature (primary and
/// double, at a shared block size) embeds the same `HOTGRAM` window
/// between class-unique flanks. No flank repeats a character three times,
/// so ssdeep's run elimination never splits the shared window.
fn hot_gram_reference() -> Arc<ReferenceSet> {
    let flanks = [
        ("QxWv", "jKpT"),
        ("ZeRu", "bNdF"),
        ("LmCy", "sVgH"),
        ("oPaD", "wXqJ"),
        ("tUkB", "eYfS"),
    ];
    let mut references = Vec::new();
    let mut labels = Vec::new();
    for (class, (left, right)) in flanks.iter().enumerate() {
        for (a, b) in [(left, right), (right, left)] {
            references.push(parts_sample(
                96,
                &format!("{a}HOTGRAM{b}"),
                &format!("{b}HOTGRAM{a}"),
            ));
            labels.push(class);
        }
    }
    Arc::new(ReferenceSet::new(
        (0..flanks.len()).map(|c| format!("class-{c}")).collect(),
        &references,
        &labels,
        &FeatureKind::ALL,
    ))
}

/// Probes spanning every adversarial angle on the hot gram: exact copies
/// of references (identical-hash fast path atop the saturated posting
/// list), the bare 7-byte window itself, the window in unseen flanks, the
/// window only in the double channel (factor-two pairing), and a stranger
/// with no hot gram at all.
fn probes() -> Vec<PreparedSampleFeatures> {
    [
        parts_sample(96, "QxWvHOTGRAMjKpT", "jKpTHOTGRAMQxWv"),
        parts_sample(96, "tUkBHOTGRAMeYfS", "eYfSHOTGRAMtUkB"),
        parts_sample(96, "HOTGRAM", "HOTGRAM"),
        parts_sample(96, "McVnHOTGRAMrGhZ", "kWsEHOTGRAMpLiU"),
        parts_sample(48, "NoMatchFlankXyz", "HOTGRAMabcd"),
        parts_sample(96, "UtterlyUnrelated", "zyxwvuts"),
    ]
    .iter()
    .map(PreparedSampleFeatures::prepare)
    .collect()
}

fn row_bits(backend: &dyn SimilarityBackend, query: &PreparedSampleFeatures) -> Vec<u64> {
    let mut row = vec![f64::NAN; backend.n_columns()];
    backend.max_scores_into(query, &mut row);
    row.into_iter().map(f64::to_bits).collect()
}

/// A `remote:` fleet over `n` in-process loopback workers, each loaded
/// with every class of `rs`.
fn fleet(rs: &Arc<ReferenceSet>, n: usize) -> BackendConfig {
    BackendConfig::remote((0..n).map(|_| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
        let addr = listener.local_addr().expect("worker addr").to_string();
        let shard = Arc::new(ShardWorker::all_classes(rs.clone()));
        std::thread::spawn(move || worker::serve_tcp(shard, listener));
        Endpoint::Tcp(addr)
    }))
}

#[test]
fn indexed_and_sharded_match_the_scan_oracle_on_a_hot_gram_corpus() {
    let rs = hot_gram_reference();
    let oracle = BackendConfig::Scan.build(rs.clone());
    let probes = probes();

    // The hot corpus must actually be hot: the bare-window probe scores
    // against every class under the oracle, proving the shared gram admits
    // the full reference set as candidates (not an accidental no-op).
    let hot_row: Vec<u64> = row_bits(&oracle, &probes[2]);
    let zero = 0.0f64.to_bits();
    for class in 0..rs.n_classes() {
        assert!(
            (0..rs.kinds().len()).any(|k| hot_row[k * rs.n_classes() + class] != zero),
            "the bare HOTGRAM probe must score against class {class}"
        );
    }

    for config in [
        BackendConfig::Indexed,
        fleet(&rs, 1),
        fleet(&rs, 2),
        fleet(&rs, 5),
        fleet(&rs, 8),
    ] {
        let backend = config.build(rs.clone());
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(
                row_bits(&backend, probe),
                row_bits(&oracle, probe),
                "probe {i} under {config} diverged from the scan oracle"
            );
        }
    }
}

#[test]
fn remote_workers_match_the_scan_oracle_on_a_hot_gram_corpus() {
    let rs = hot_gram_reference();
    let oracle = BackendConfig::Scan.build(rs.clone());
    let probes = probes();

    // Two in-process loopback workers; the fleet assigns each its
    // round-robin partition of the classes, so the hot posting list is
    // walked per-shard and the partial rows merged client-side.
    let remote = fleet(&rs, 2)
        .try_build(rs.clone())
        .expect("connect workers");

    for (i, probe) in probes.iter().enumerate() {
        let mut row = vec![f64::NAN; remote.n_columns()];
        remote
            .try_max_scores_into(probe, &mut row)
            .expect("healthy workers serve");
        let bits: Vec<u64> = row.into_iter().map(f64::to_bits).collect();
        assert_eq!(
            bits,
            row_bits(&oracle, probe),
            "probe {i} over the wire diverged from the scan oracle"
        );
    }
}
