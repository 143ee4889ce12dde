//! Golden pin for the trained model: one full pipeline run (extract, split,
//! fit, tune the threshold, evaluate) on the seed-42 corpus at scale 0.1
//! with a 30-tree forest, folded into four numbers.
//!
//! `tests/golden_features.rs` pins what extraction produces; this pins what
//! the model does with it. Any change to the similarity rows, the forest,
//! the threshold sweep, the split or the artifact codec that moves a single
//! prediction, the threshold or one byte of the saved classifier moves a
//! constant here. A rewrite that is meant to be exact must leave them all
//! alone; a deliberate behaviour change updates them with its reason
//! recorded in CHANGES.md.

use corpus::{Catalog, CorpusBuilder};
use fhc::config::FhcConfig;
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use mlcore::forest::RandomForestParams;

/// `f64::to_bits` of the test split's macro-averaged F1.
const GOLDEN_MACRO_F1_BITS: u64 = 0x3fec_e4ac_7076_e2c4;
/// FNV-1a (64-bit) over every test sample's `(y_true, y_pred)` pair.
const GOLDEN_PREDICTIONS_DIGEST: u64 = 0x9c5f_c940_3e75_59ce;
/// `f64::to_bits` of the tuned confidence threshold.
const GOLDEN_THRESHOLD_BITS: u64 = 0x3fb9_9999_9999_999a;
/// FNV-1a (64-bit) over the fitted classifier's `to_bytes()` artifact.
const GOLDEN_ARTIFACT_DIGEST: u64 = 0x71e2_eb40_d8f7_f562;

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn seed_42_model_at_scale_0_1_is_pinned() {
    let corpus = CorpusBuilder::new(42).build(&Catalog::paper().scaled(0.1));
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed: 42,
        forest: RandomForestParams {
            n_estimators: 30,
            ..Default::default()
        },
        ..Default::default()
    });
    let classifier = FuzzyHashClassifier::with_config(config);
    // `run` is exactly this composition; spelling it out keeps the fitted
    // classifier, whose artifact bytes are pinned too, without fitting twice.
    let features = classifier.extract_features(&corpus);
    let fit = classifier
        .fit_with_features(&corpus, &features)
        .expect("pipeline fits");
    let outcome = classifier
        .evaluate_with_features(&corpus, &features, &fit)
        .expect("pipeline evaluates");

    let macro_f1 = outcome.report.macro_avg().f1;
    let predictions = fnv1a64(
        outcome
            .y_true
            .iter()
            .zip(&outcome.y_pred)
            .flat_map(|(&t, &p)| [t as u64, p as u64])
            .flat_map(u64::to_le_bytes),
    );
    let threshold = outcome.confidence_threshold;
    let artifact = fnv1a64(fit.classifier.to_bytes());

    let got = [
        macro_f1.to_bits(),
        predictions,
        threshold.to_bits(),
        artifact,
    ];
    let want = [
        GOLDEN_MACRO_F1_BITS,
        GOLDEN_PREDICTIONS_DIGEST,
        GOLDEN_THRESHOLD_BITS,
        GOLDEN_ARTIFACT_DIGEST,
    ];
    assert_eq!(
        got,
        want,
        "model output moved over {} samples: macro-F1 {macro_f1} ({:#018x}), \
         predictions {predictions:#018x}, threshold {threshold} ({:#018x}), \
         artifact {artifact:#018x}",
        corpus.n_samples(),
        got[0],
        got[2],
    );
}
