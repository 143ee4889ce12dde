//! Integration equivalence suite for the pluggable similarity backends.
//!
//! The contract of [`fhc::backend::SimilarityBackend`] is that backend
//! choice is a pure scheduling decision: `ScanBackend`, `IndexedBackend`,
//! and a `FleetBackend` over loopback workers (at any shard count) must
//! produce **byte-identical** feature rows — and therefore byte-identical
//! predictions — over the same reference set. These tests enforce that end
//! to end on seeded corpora: through training, through serving, and through
//! artifacts reopened under every backend.

mod common;

use common::loopback_fleet;
use corpus::{Catalog, CorpusBuilder};
use fhc::backend::{BackendConfig, SimilarityBackend};
use fhc::config::FhcConfig;
use fhc::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::serving::TrainedClassifier;
use fhc::similarity::ReferenceSet;
use std::sync::Arc;

fn config(seed: u64) -> FhcConfig {
    FhcConfig::new().pipeline(PipelineConfig {
        seed,
        forest: mlcore::forest::RandomForestParams {
            n_estimators: 25,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn trained(seed: u64) -> (corpus::Corpus, TrainedClassifier) {
    let corpus = CorpusBuilder::new(seed).build(&Catalog::paper().scaled(0.02));
    let classifier = FuzzyHashClassifier::with_config(config(seed))
        .fit(&corpus)
        .expect("fit succeeds");
    (corpus, classifier)
}

/// Probe features spanning known classes, unknown classes, and a non-ELF
/// stranger (exercising the missing-symbols path).
fn probe_features(corpus: &corpus::Corpus) -> Vec<SampleFeatures> {
    let mut probes: Vec<SampleFeatures> = corpus
        .samples()
        .iter()
        .step_by(9)
        .map(|s| SampleFeatures::extract(&corpus.generate_bytes(s)))
        .collect();
    probes.push(SampleFeatures::extract(
        b"#!/bin/sh\necho not an elf, stresses the no-symbols path\n",
    ));
    probes
}

/// The shard counts the ISSUE calls out: degenerate (1), small (2, 3), and
/// one shard per class.
fn shard_counts(n_classes: usize) -> Vec<usize> {
    vec![1, 2, 3, n_classes]
}

#[test]
fn sharded_rows_are_byte_identical_to_scan_and_indexed() {
    let (corpus, trained) = trained(13);
    let reference: Arc<ReferenceSet> = Arc::new(trained.reference().clone());
    let scan = BackendConfig::Scan.build(reference.clone());
    let indexed = BackendConfig::Indexed.build(reference.clone());

    let probes: Vec<PreparedSampleFeatures> = probe_features(&corpus)
        .iter()
        .map(PreparedSampleFeatures::prepare)
        .collect();

    for shards in shard_counts(reference.n_classes()) {
        let sharded = loopback_fleet(&reference, shards).build(reference.clone());
        for probe in &probes {
            let scan_row = scan.feature_vector_prepared(probe);
            let indexed_row = indexed.feature_vector_prepared(probe);
            let sharded_row = sharded.feature_vector_prepared(probe);
            // Byte-identical, not approximately equal: compare the raw f64
            // bit patterns.
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&scan_row), bits(&indexed_row), "scan vs indexed");
            assert_eq!(
                bits(&indexed_row),
                bits(&sharded_row),
                "indexed vs a fleet of {shards}"
            );
        }
    }
}

#[test]
fn predictions_are_identical_under_every_backend_and_shard_count() {
    let (corpus, trained) = trained(17);
    let batch: Vec<(String, Vec<u8>)> = corpus
        .samples()
        .iter()
        .step_by(13)
        .map(|s| (s.install_path(), corpus.generate_bytes(s)))
        .collect();
    let expected = trained.classify_batch(&batch);

    let mut backends = vec![BackendConfig::Scan, BackendConfig::Indexed];
    backends.extend(
        shard_counts(trained.n_known_classes())
            .into_iter()
            .map(|shards| loopback_fleet(&trained.reference_shared(), shards)),
    );
    for backend in backends {
        let swapped = trained.clone().with_backend(backend.clone());
        assert_eq!(
            swapped.classify_batch(&batch),
            expected,
            "backend {backend} changed predictions"
        );
    }
}

#[test]
fn artifacts_reopen_identically_under_every_backend() {
    let (corpus, original) = trained(19);
    let bytes = original.to_bytes();
    let batch: Vec<(String, Vec<u8>)> = corpus
        .samples()
        .iter()
        .step_by(23)
        .map(|s| (s.install_path(), corpus.generate_bytes(s)))
        .collect();
    let expected = original.classify_batch(&batch);

    for backend in [
        BackendConfig::Scan,
        BackendConfig::Indexed,
        loopback_fleet(&original.reference_shared(), 2),
    ] {
        let reopened =
            TrainedClassifier::from_bytes_with(&bytes, &config(19).backend(backend.clone()))
                .expect("artifact reopens");
        assert_eq!(reopened.backend_config(), backend);
        assert_eq!(reopened.classify_batch(&batch), expected);
        // Runtime-only: the artifact bytes never encode the backend.
        assert_eq!(reopened.to_bytes(), bytes);
    }
}

#[test]
fn training_under_any_backend_yields_identical_artifacts() {
    // The fit path routes every feature matrix (training, threshold tuning)
    // through the configured backend — so fitting under different backends
    // must produce byte-identical models. (A fleet cannot train: its
    // workers serve a finished artifact, not the intermediate reference
    // sets threshold tuning builds.)
    let corpus = CorpusBuilder::new(29).build(&Catalog::paper().scaled(0.02));
    let fit = |backend: BackendConfig| {
        FuzzyHashClassifier::with_config(config(29).backend(backend))
            .fit(&corpus)
            .expect("fit succeeds")
            .to_bytes()
    };
    let indexed = fit(BackendConfig::Indexed);
    assert_eq!(fit(BackendConfig::Scan), indexed);
}

#[test]
fn empty_class_is_equivalent_across_backends() {
    // A reference class with no samples (legal in-memory, e.g. a class
    // registered before its training data arrives) must produce all-zero
    // columns under every backend.
    let velvet = SampleFeatures::extract(b"velvet velvet velvet executable image bytes");
    let reference = Arc::new(ReferenceSet::new(
        vec!["Velvet".into(), "Empty".into()],
        std::slice::from_ref(&velvet),
        &[0],
        &FeatureKind::ALL,
    ));
    let probe = PreparedSampleFeatures::prepare(&velvet);
    let scan_row = BackendConfig::Scan
        .build(reference.clone())
        .feature_vector_prepared(&probe);
    for shards in [1, 2, 5] {
        let row = loopback_fleet(&reference, shards)
            .build(reference.clone())
            .feature_vector_prepared(&probe);
        assert_eq!(row, scan_row, "a fleet of {shards}");
    }
    assert_eq!(
        BackendConfig::Indexed
            .build(reference.clone())
            .feature_vector_prepared(&probe),
        scan_row
    );
    // The empty class's columns are zero; the populated class's file column
    // is a perfect match.
    assert_eq!(scan_row[0], 100.0);
    for kind_idx in 0..reference.kinds().len() {
        assert_eq!(scan_row[kind_idx * 2 + 1], 0.0);
    }
}

#[test]
fn single_class_reference_is_equivalent_across_backends() {
    let sample = SampleFeatures::extract(b"a single lonely reference class executable");
    let reference = Arc::new(ReferenceSet::new(
        vec!["Only".into()],
        std::slice::from_ref(&sample),
        &[0],
        &FeatureKind::ALL,
    ));
    let probe = PreparedSampleFeatures::prepare(&sample);
    let expected = BackendConfig::Scan
        .build(reference.clone())
        .feature_vector_prepared(&probe);
    for shards in shard_counts(1) {
        assert_eq!(
            loopback_fleet(&reference, shards)
                .build(reference.clone())
                .feature_vector_prepared(&probe),
            expected
        );
    }
    assert_eq!(
        BackendConfig::Indexed
            .build(reference)
            .feature_vector_prepared(&probe),
        expected
    );
}

/// Adversarial hand-built hashes through every backend (the shared
/// `common` fixture: run-heavy signatures scoreable only via the
/// identical-hash fast path, factor-of-two block sizes in both directions,
/// near-`u64::MAX` block sizes, tiny-block score caps). With score-budget
/// pruning always on, every backend must still reproduce the scan oracle
/// bit for bit.
#[test]
fn degenerate_hashes_are_equivalent_across_backends_with_pruning() {
    let references = common::degenerate_references();
    let labels: Vec<usize> = (0..references.len()).map(|i| i % 3).collect();
    let reference = Arc::new(ReferenceSet::new(
        vec!["a".into(), "b".into(), "c".into()],
        &references,
        &labels,
        &FeatureKind::ALL,
    ));
    let scan = BackendConfig::Scan.build(reference.clone());
    let indexed = BackendConfig::Indexed.build(reference.clone());
    let fleets: Vec<(usize, _)> = shard_counts(reference.n_classes())
        .into_iter()
        .map(|shards| {
            let fleet = loopback_fleet(&reference, shards).build(reference.clone());
            (shards, fleet)
        })
        .collect();
    for (i, probe) in common::degenerate_probes().iter().enumerate() {
        let probe = PreparedSampleFeatures::prepare(probe);
        let expected = scan.feature_vector_prepared(&probe);
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&indexed.feature_vector_prepared(&probe)),
            bits(&expected),
            "probe {i}: indexed vs scan"
        );
        for (shards, fleet) in &fleets {
            assert_eq!(
                bits(&fleet.feature_vector_prepared(&probe)),
                bits(&expected),
                "probe {i}: a fleet of {shards} vs scan"
            );
        }
    }
}
