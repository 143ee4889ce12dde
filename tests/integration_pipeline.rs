//! End-to-end integration tests of the Fuzzy Hash Classifier pipeline on a
//! small synthetic corpus (spanning the corpus, binary, ssdeep, mlcore, and
//! fhc crates).

use corpus::{Catalog, CorpusBuilder};
use fhc::config::FhcConfig;
use fhc::features::FeatureKind;
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::threshold::UNKNOWN_LABEL;
use mlcore::metrics::per_class_metrics;

fn small_corpus(seed: u64) -> corpus::Corpus {
    CorpusBuilder::new(seed).build(&Catalog::paper().scaled(0.03))
}

#[test]
fn pipeline_reaches_paper_like_f1_on_small_corpus() {
    let corpus = small_corpus(42);
    let config = FhcConfig::new().seed(42);
    let outcome = FuzzyHashClassifier::with_config(config)
        .run(&corpus)
        .expect("pipeline runs");

    // The paper reports ~0.90 macro / 0.89 micro / 0.90 weighted F1. On the
    // scaled synthetic corpus we only require the same ballpark: well above
    // chance (1/75) and clearly useful.
    assert!(
        outcome.report.macro_avg().f1 > 0.7,
        "macro f1 {}",
        outcome.report.macro_avg().f1
    );
    assert!(
        outcome.report.micro().f1 > 0.7,
        "micro f1 {}",
        outcome.report.micro().f1
    );
    assert!(outcome.report.weighted_avg().f1 > 0.7);

    // The evaluation label space starts with the "-1" unknown class.
    assert_eq!(outcome.eval_class_names[0], "-1");
    assert_eq!(
        outcome.eval_class_names.len(),
        1 + outcome.known_class_names.len()
    );
    assert_eq!(outcome.y_true.len(), outcome.n_test);
    assert_eq!(outcome.y_pred.len(), outcome.n_test);

    // The two-phase split: ~20% of the 92 classes are unknown, and every
    // unknown-class sample is in the test set.
    assert_eq!(
        outcome.known_class_names.len() + outcome.unknown_class_names.len(),
        92
    );
    assert!(outcome.unknown_class_names.len() >= 14);
    assert!(outcome.n_unknown_test > 0);
    assert!(outcome.n_unknown_test <= outcome.n_test);

    // The unknown class must actually be predicted for a meaningful share of
    // the unknown test samples (the whole point of the threshold).
    let unknown_predicted = outcome
        .y_pred
        .iter()
        .filter(|&&p| p == UNKNOWN_LABEL)
        .count();
    assert!(
        unknown_predicted > 0,
        "classifier never predicted the unknown class"
    );

    // Feature importances cover the three views and sum to ~1.
    assert_eq!(outcome.feature_importance.len(), 3);
    let total: f64 = outcome
        .feature_importance
        .iter()
        .map(|f| f.importance)
        .sum();
    assert!((total - 1.0).abs() < 1e-9);

    // The threshold sweep covers the configured grid and the chosen value is
    // one of its points.
    assert_eq!(outcome.threshold_curve.len(), 10);
    assert!(outcome
        .threshold_curve
        .iter()
        .any(|p| (p.threshold - outcome.confidence_threshold).abs() < 1e-9));
}

#[test]
fn pipeline_is_deterministic_for_a_seed() {
    let corpus = small_corpus(3);
    let classifier = FuzzyHashClassifier::with_config(FhcConfig::new().seed(9));
    let features = classifier.extract_features(&corpus);
    let a = classifier.run_with_features(&corpus, &features).unwrap();
    let b = classifier.run_with_features(&corpus, &features).unwrap();
    assert_eq!(a.y_pred, b.y_pred);
    assert_eq!(a.confidence_threshold, b.confidence_threshold);
    assert_eq!(a.unknown_class_names, b.unknown_class_names);
}

#[test]
fn retune_threshold_reproduces_the_fit_on_an_unchanged_corpus() {
    let corpus = small_corpus(7);
    let classifier = FuzzyHashClassifier::with_config(FhcConfig::new().seed(11));
    let features = classifier.extract_features(&corpus);
    let mut fit = classifier
        .fit_with_features(&corpus, &features)
        .expect("fit succeeds");
    let fitted_threshold = fit.classifier.confidence_threshold();
    let fitted_curve = fit.classifier.threshold_curve().to_vec();

    // Nothing changed, so the cheap re-tune must land exactly where the
    // fit's own tuning did — same threshold, same measured curve.
    let retuned = classifier
        .retune_threshold(&corpus, &features, &mut fit)
        .expect("retune succeeds");
    assert_eq!(retuned, fitted_threshold);
    assert_eq!(fit.classifier.confidence_threshold(), fitted_threshold);
    assert_eq!(fit.classifier.threshold_curve(), fitted_curve.as_slice());
}

#[test]
fn unknown_class_precision_recall_are_reasonable() {
    let corpus = small_corpus(42);
    let outcome = FuzzyHashClassifier::with_config(FhcConfig::new().seed(42))
        .run(&corpus)
        .unwrap();
    let per_class = per_class_metrics(
        &outcome.y_true,
        &outcome.y_pred,
        outcome.eval_class_names.len(),
    );
    let unknown = per_class[UNKNOWN_LABEL];
    assert_eq!(unknown.support, outcome.n_unknown_test);
    // The unknown class must be detected far better than chance; the paper
    // reports precision 0.92 / recall 0.75.
    assert!(
        unknown.precision > 0.5,
        "unknown precision {}",
        unknown.precision
    );
    assert!(unknown.recall > 0.5, "unknown recall {}", unknown.recall);
}

#[test]
fn symbols_only_ablation_still_classifies() {
    let corpus = small_corpus(5);
    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed: 5,
        feature_kinds: vec![FeatureKind::Symbols],
        ..Default::default()
    });
    let outcome = FuzzyHashClassifier::with_config(config)
        .run(&corpus)
        .unwrap();
    // The paper finds the symbols feature to be the strongest on its own.
    assert!(
        outcome.report.macro_avg().f1 > 0.6,
        "macro {}",
        outcome.report.macro_avg().f1
    );
    assert_eq!(outcome.feature_importance.len(), 1);
    assert_eq!(outcome.feature_importance[0].kind, FeatureKind::Symbols);
}

#[test]
fn invalid_configurations_are_rejected() {
    let corpus = small_corpus(1);
    let classifier = FuzzyHashClassifier::with_config(FhcConfig::new().pipeline(PipelineConfig {
        feature_kinds: vec![],
        ..Default::default()
    }));
    let features = FuzzyHashClassifier::with_config(FhcConfig::new()).extract_features(&corpus);
    assert!(classifier.run_with_features(&corpus, &features).is_err());

    let classifier = FuzzyHashClassifier::with_config(FhcConfig::new().pipeline(PipelineConfig {
        thresholds: vec![],
        ..Default::default()
    }));
    assert!(classifier.run_with_features(&corpus, &features).is_err());

    // Features that do not cover the corpus are rejected.
    let classifier = FuzzyHashClassifier::with_config(FhcConfig::new());
    assert!(classifier
        .run_with_features(&corpus, &features[..3])
        .is_err());
}
