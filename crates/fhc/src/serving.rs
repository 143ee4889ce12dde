//! The serving half of the fit/predict API.
//!
//! [`FuzzyHashClassifier::fit`](crate::pipeline::FuzzyHashClassifier::fit)
//! pays the training cost once — feature extraction, the two-phase split,
//! grid search, threshold tuning, forest training — and returns a
//! [`TrainedClassifier`]: a self-contained artifact owning the reference
//! hashes, the tuned forest, and the confidence threshold. Classifying a new
//! executable is then just hash + similarity row + forest vote, with no
//! retraining; [`TrainedClassifier::classify_batch`] scores many executables
//! in parallel, and the `artifact` module persists the whole thing to disk
//! so the cost is amortized across processes.

use crate::backend::{AnyBackend, BackendConfig, SimilarityBackend};
use crate::config::FhcConfig;
use crate::error::FhcError;
use crate::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use crate::pipeline::{aggregate_importance, FeatureImportance};
use crate::similarity::ReferenceSet;
use crate::threshold::{apply_threshold, ThresholdPoint, UNKNOWN_LABEL};
use hpcutil::{par_map_indexed, ParallelConfig};
use mlcore::forest::{RandomForest, RandomForestParams};
use mlcore::model::Model;
use std::sync::Arc;

/// Runtime configuration of the serving hot path.
///
/// Replaces the previously hardcoded parallelism of
/// [`TrainedClassifier::classify_batch`]. This is a *runtime* concern — it
/// is not persisted into artifacts; a loaded classifier starts from
/// [`ServingConfig::default`] and can be retuned per process with
/// [`TrainedClassifier::set_serving_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Worker threads for batch classification. `0` means "use available
    /// parallelism".
    pub threads: usize,
    /// Samples a worker claims per scheduling step. Small chunks balance
    /// load when executables differ wildly in size; larger chunks reduce
    /// scheduling overhead for uniform traffic.
    pub chunk: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            chunk: 2,
        }
    }
}

impl ServingConfig {
    /// The equivalent low-level parallel-map configuration. (`hpcutil`
    /// clamps a zero chunk to 1 via `ParallelConfig::effective_chunk`.)
    pub fn parallel(self) -> ParallelConfig {
        ParallelConfig {
            threads: self.threads,
            chunk: self.chunk,
        }
    }
}

/// The classifier's verdict on one executable.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted class name, or `"-1"` for unknown.
    pub label: String,
    /// Evaluation-space label: `0` = unknown, `1 + known_class_id` otherwise.
    pub eval_label: usize,
    /// Probability of the winning known class (before thresholding).
    pub confidence: f64,
    /// Full probability distribution over the known classes.
    pub proba: Vec<f64>,
}

impl Prediction {
    /// Whether the sample was routed to the `"-1"` unknown class.
    pub fn is_unknown(&self) -> bool {
        self.eval_label == UNKNOWN_LABEL
    }
}

/// A fitted classifier, ready to serve.
///
/// Owns everything prediction needs: the per-class reference hashes, the
/// tuned random forest, and the tuned confidence threshold. Create one with
/// [`FuzzyHashClassifier::fit`](crate::pipeline::FuzzyHashClassifier::fit),
/// or load a saved artifact with [`TrainedClassifier::load`].
#[derive(Debug, Clone)]
pub struct TrainedClassifier {
    pub(crate) reference: Arc<ReferenceSet>,
    pub(crate) backend: AnyBackend,
    pub(crate) forest: RandomForest,
    pub(crate) forest_params: RandomForestParams,
    pub(crate) confidence_threshold: f64,
    pub(crate) threshold_curve: Vec<ThresholdPoint>,
    pub(crate) seed: u64,
    pub(crate) serving: ServingConfig,
}

impl TrainedClassifier {
    /// Assemble a classifier from its parts (the fit path and the artifact
    /// decoder both end here).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        reference: Arc<ReferenceSet>,
        backend: AnyBackend,
        forest: RandomForest,
        forest_params: RandomForestParams,
        confidence_threshold: f64,
        threshold_curve: Vec<ThresholdPoint>,
        seed: u64,
        serving: ServingConfig,
    ) -> Self {
        Self {
            reference,
            backend,
            forest,
            forest_params,
            confidence_threshold,
            threshold_curve,
            seed,
            serving,
        }
    }

    /// Names of the known classes (the forest's label space).
    pub fn known_class_names(&self) -> &[String] {
        self.reference.class_names()
    }

    /// Number of known classes.
    pub fn n_known_classes(&self) -> usize {
        self.reference.n_classes()
    }

    /// The fuzzy-hash views this classifier was trained on.
    pub fn feature_kinds(&self) -> &[FeatureKind] {
        self.reference.kinds()
    }

    /// The tuned confidence threshold below which samples are labeled
    /// `"-1"` (unknown).
    pub fn confidence_threshold(&self) -> f64 {
        self.confidence_threshold
    }

    /// The forest parameters actually used (after grid search, if any).
    pub fn forest_params(&self) -> &RandomForestParams {
        &self.forest_params
    }

    /// The threshold sweep measured on the internal validation set during
    /// fitting (paper Figure 3).
    pub fn threshold_curve(&self) -> &[ThresholdPoint] {
        &self.threshold_curve
    }

    /// The root seed the classifier was fit with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The reference hash set the similarity features are computed against.
    pub fn reference(&self) -> &ReferenceSet {
        &self.reference
    }

    /// The reference set as a shared handle (the form
    /// [`ShardWorker`](crate::shardnet::ShardWorker) and
    /// [`FleetBackend`](crate::shardnet::FleetBackend) consume — a shard
    /// daemon serves the reference set of the artifact it loaded).
    pub fn reference_shared(&self) -> Arc<ReferenceSet> {
        Arc::clone(&self.reference)
    }

    /// Swap the reference set for an evolved one — the serving half of a
    /// delta update (`fhc-artifact apply`): the similarity backend is
    /// rebuilt over the new set while the fitted forest and tuned
    /// threshold carry over unchanged.
    ///
    /// Only geometry-preserving evolution qualifies: the class names (in
    /// order), column count, and feature kinds must all match the current
    /// reference set — i.e. an [`ReferenceSet::add_samples`]-style
    /// evolution. Adding, retiring, or reordering classes changes the
    /// label space and row geometry the forest was fitted against; that
    /// is a refit, and this refuses with an error saying so. On error the
    /// classifier is left unchanged.
    pub fn try_set_reference(&mut self, reference: Arc<ReferenceSet>) -> Result<(), FhcError> {
        if reference.class_names() != self.reference.class_names()
            || reference.n_columns() != self.reference.n_columns()
            || reference.kinds() != self.reference.kinds()
        {
            return Err(FhcError::Artifact(format!(
                "evolved reference set changes the fitted geometry \
                 ({} classes / {} columns -> {} classes / {} columns): \
                 refit required, the forest cannot consume the new rows",
                self.reference.n_classes(),
                self.reference.n_columns(),
                reference.n_classes(),
                reference.n_columns()
            )));
        }
        let backend = self.backend.config().try_build(Arc::clone(&reference))?;
        self.reference = reference;
        self.backend = backend;
        Ok(())
    }

    /// The serving parallelism configuration.
    pub fn serving_config(&self) -> ServingConfig {
        self.serving
    }

    /// Retune the serving parallelism (threads / chunking) in place.
    pub fn set_serving_config(&mut self, config: ServingConfig) {
        self.serving = config;
    }

    /// Builder-style variant of [`TrainedClassifier::set_serving_config`].
    pub fn with_serving_config(mut self, config: ServingConfig) -> Self {
        self.serving = config;
        self
    }

    /// The similarity backend currently scoring queries.
    pub fn backend(&self) -> &AnyBackend {
        &self.backend
    }

    /// The configuration of the current backend.
    pub fn backend_config(&self) -> BackendConfig {
        self.backend.config()
    }

    /// Swap the similarity backend in place. Backend choice is a runtime
    /// concern: every backend produces byte-identical scores, so this never
    /// changes predictions — only how (and how parallel, and on which
    /// machines) they are computed.
    ///
    /// Panics if a fleet cannot be connected; use
    /// [`TrainedClassifier::try_set_backend`] to handle that case.
    pub fn set_backend(&mut self, config: BackendConfig) {
        self.backend = config.build(self.reference.clone());
    }

    /// Fallible twin of [`TrainedClassifier::set_backend`]: connecting a
    /// [`BackendConfig::Fleet`] dials real sockets and can fail.
    /// On error the current backend is left untouched.
    pub fn try_set_backend(&mut self, config: BackendConfig) -> Result<(), FhcError> {
        self.backend = config.try_build(self.reference.clone())?;
        Ok(())
    }

    /// Builder-style variant of [`TrainedClassifier::set_backend`].
    pub fn with_backend(mut self, config: BackendConfig) -> Self {
        self.set_backend(config);
        self
    }

    /// Apply the runtime layers of a unified [`FhcConfig`] (serving
    /// parallelism and backend choice). The pipeline layer describes
    /// training and is ignored here.
    ///
    /// Panics if a remote backend cannot be connected; use
    /// [`TrainedClassifier::try_apply_config`] to handle that case.
    pub fn apply_config(&mut self, config: &FhcConfig) {
        self.serving = config.serving;
        self.set_backend(config.backend.clone());
    }

    /// Fallible twin of [`TrainedClassifier::apply_config`]. On error the
    /// classifier is left unchanged.
    pub fn try_apply_config(&mut self, config: &FhcConfig) -> Result<(), FhcError> {
        let backend = config.backend.try_build(self.reference.clone())?;
        self.serving = config.serving;
        self.backend = backend;
        Ok(())
    }

    /// Builder-style variant of [`TrainedClassifier::apply_config`].
    pub fn with_config(mut self, config: &FhcConfig) -> Self {
        self.apply_config(config);
        self
    }

    /// The fitted forest.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Importance of each fuzzy-hash view (paper Table 5).
    pub fn feature_importance(&self) -> Vec<FeatureImportance> {
        aggregate_importance(
            self.forest.feature_importances(),
            &self.reference.column_kinds(),
        )
    }

    /// Classify pre-extracted fuzzy-hash features.
    pub fn classify_features(&self, features: &SampleFeatures) -> Prediction {
        self.classify_prepared(&PreparedSampleFeatures::prepare(features))
    }

    /// Classify an already-prepared sample (for callers that also paid the
    /// preparation cost up front). The similarity row is computed by the
    /// configured [`SimilarityBackend`].
    pub fn classify_prepared(&self, prepared: &PreparedSampleFeatures) -> Prediction {
        self.predict_from_row(&self.backend.feature_vector_prepared(prepared))
    }

    /// Forest vote + threshold over a computed similarity row.
    fn predict_from_row(&self, row: &[f64]) -> Prediction {
        let proba = Model::predict_proba(&self.forest, row);
        let eval_label = apply_threshold(&proba, self.confidence_threshold);
        let confidence = proba.iter().cloned().fold(0.0f64, f64::max);
        let label = if eval_label == UNKNOWN_LABEL {
            "-1".to_string()
        } else {
            self.reference.class_names()[eval_label - 1].clone()
        };
        Prediction {
            label,
            eval_label,
            confidence,
            proba,
        }
    }

    /// Classify one executable from its raw bytes (hash, similarity row,
    /// forest vote, threshold — no retraining).
    pub fn classify(&self, bytes: &[u8]) -> Prediction {
        self.classify_features(&SampleFeatures::extract(bytes))
    }

    /// Classify a batch of named executables in parallel, preserving input
    /// order. This is the serving hot path: feature extraction and
    /// similarity scoring for each sample run on worker threads.
    pub fn classify_batch(&self, samples: &[(String, Vec<u8>)]) -> Vec<(String, Prediction)> {
        par_map_indexed(samples.len(), self.serving.parallel(), |i| {
            let (name, bytes) = &samples[i];
            (name.clone(), self.classify(bytes))
        })
    }

    /// Classify pre-extracted feature batches in parallel (for callers that
    /// already paid the hashing cost).
    pub fn classify_features_batch(&self, features: &[SampleFeatures]) -> Vec<Prediction> {
        par_map_indexed(features.len(), self.serving.parallel(), |i| {
            self.classify_features(&features[i])
        })
    }

    /// Fallible twin of [`TrainedClassifier::classify_prepared`], for
    /// backends that can fail at serving time (remote shard workers). A
    /// lost worker surfaces as [`FhcError::Net`] — never as a wrong or
    /// partial prediction. In-process backends cannot fail here.
    pub fn try_classify_prepared(
        &self,
        prepared: &PreparedSampleFeatures,
    ) -> Result<Prediction, FhcError> {
        let row = self.backend.try_feature_vector_prepared(prepared)?;
        Ok(self.predict_from_row(&row))
    }

    /// Fallible twin of [`TrainedClassifier::classify_features`].
    pub fn try_classify_features(&self, features: &SampleFeatures) -> Result<Prediction, FhcError> {
        self.try_classify_prepared(&PreparedSampleFeatures::prepare(features))
    }

    /// Fallible twin of [`TrainedClassifier::classify`].
    pub fn try_classify(&self, bytes: &[u8]) -> Result<Prediction, FhcError> {
        self.try_classify_features(&SampleFeatures::extract(bytes))
    }

    /// Fallible twin of [`TrainedClassifier::classify_batch`]: the whole
    /// batch either classifies (order preserved) or the first failure is
    /// returned. Per-sample work still runs on the serving worker threads.
    pub fn try_classify_batch(
        &self,
        samples: &[(String, Vec<u8>)],
    ) -> Result<Vec<(String, Prediction)>, FhcError> {
        if self.backend.scores_batches_remotely() {
            return self.try_classify_batch_remote(samples);
        }
        // Short-circuit on the first failure: once any sample errors (e.g.
        // a shard worker died or timed out), the remaining samples are
        // skipped instead of each paying the same failing fan-out — on a
        // large batch with a wedged worker that is the difference between
        // one I/O timeout and thousands.
        let aborted = std::sync::atomic::AtomicBool::new(false);
        let results = par_map_indexed(samples.len(), self.serving.parallel(), |i| {
            if aborted.load(std::sync::atomic::Ordering::Relaxed) {
                return None;
            }
            let (name, bytes) = &samples[i];
            let result = self.try_classify(bytes);
            if result.is_err() {
                aborted.store(true, std::sync::atomic::Ordering::Relaxed);
            }
            Some(result.map(|prediction| (name.clone(), prediction)))
        });
        // A `None` (skipped) entry can only exist alongside the `Some(Err)`
        // that set the abort flag, so surfacing the first error covers it.
        let mut predictions = Vec::with_capacity(samples.len());
        let mut first_error = None;
        for result in results {
            match result {
                Some(Ok(prediction)) => predictions.push(prediction),
                Some(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                None => {}
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        assert_eq!(
            predictions.len(),
            samples.len(),
            "entries are only skipped after an error entry exists"
        );
        Ok(predictions)
    }

    /// [`TrainedClassifier::try_classify_batch`] for transport backends:
    /// hashing and preparation run locally on the serving workers, then the
    /// whole batch ships through the backend's batched wire path
    /// (`ScoreBatchRequest` frames, chunked to the frame budget) instead of
    /// paying a round-trip fan-out per sample. The forest vote over the
    /// returned rows is parallel again. Order is preserved; any transport
    /// failure fails the whole batch with the first typed error, matching
    /// the per-sample path's contract.
    fn try_classify_batch_remote(
        &self,
        samples: &[(String, Vec<u8>)],
    ) -> Result<Vec<(String, Prediction)>, FhcError> {
        let prepared = par_map_indexed(samples.len(), self.serving.parallel(), |i| {
            PreparedSampleFeatures::prepare(&SampleFeatures::extract(&samples[i].1))
        });
        let rows = self.backend.try_feature_rows_prepared(&prepared)?;
        Ok(par_map_indexed(rows.len(), self.serving.parallel(), |i| {
            (samples[i].0.clone(), self.predict_from_row(&rows[i]))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FuzzyHashClassifier, PipelineConfig};
    use corpus::{Catalog, CorpusBuilder};

    fn trained() -> (corpus::Corpus, TrainedClassifier) {
        let corpus = CorpusBuilder::new(3).build(&Catalog::paper().scaled(0.02));
        let config = FhcConfig::new().pipeline(PipelineConfig {
            seed: 3,
            forest: mlcore::forest::RandomForestParams {
                n_estimators: 20,
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
    fn classify_agrees_with_classify_features_and_batch() {
        let (corpus, trained) = trained();
        let specs: Vec<_> = corpus.samples().iter().step_by(17).collect();
        let batch: Vec<(String, Vec<u8>)> = specs
            .iter()
            .map(|s| (s.install_path(), corpus.generate_bytes(s)))
            .collect();
        let batch_predictions = trained.classify_batch(&batch);
        assert_eq!(batch_predictions.len(), batch.len());
        for ((name, bytes), (batch_name, batch_pred)) in batch.iter().zip(&batch_predictions) {
            assert_eq!(name, batch_name);
            let single = trained.classify(bytes);
            assert_eq!(&single, batch_pred);
            let features = SampleFeatures::extract(bytes);
            assert_eq!(trained.classify_features(&features), single);
        }
    }

    #[test]
    fn predictions_are_well_formed() {
        let (corpus, trained) = trained();
        let spec = &corpus.samples()[0];
        let prediction = trained.classify(&corpus.generate_bytes(spec));
        assert_eq!(prediction.proba.len(), trained.n_known_classes());
        assert!((prediction.proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((0.0..=1.0).contains(&prediction.confidence));
        if prediction.is_unknown() {
            assert_eq!(prediction.label, "-1");
            assert_eq!(prediction.eval_label, UNKNOWN_LABEL);
        } else {
            assert_eq!(
                prediction.label,
                trained.known_class_names()[prediction.eval_label - 1]
            );
            assert!(prediction.confidence >= trained.confidence_threshold());
        }
    }

    #[test]
    fn garbage_input_is_unknown() {
        let (_, trained) = trained();
        let prediction = trained.classify(b"#!/bin/sh\necho not an elf at all\n");
        // A shell script shares no symbols and virtually no content with any
        // HPC application class.
        assert!(prediction.is_unknown(), "got {prediction:?}");
    }

    #[test]
    fn serving_config_changes_parallelism_not_predictions() {
        let (corpus, trained) = trained();
        assert_eq!(trained.serving_config(), ServingConfig::default());
        let batch: Vec<(String, Vec<u8>)> = corpus
            .samples()
            .iter()
            .step_by(29)
            .map(|s| (s.install_path(), corpus.generate_bytes(s)))
            .collect();
        let default_predictions = trained.classify_batch(&batch);

        for config in [
            ServingConfig {
                threads: 1,
                chunk: 1,
            },
            ServingConfig {
                threads: 3,
                chunk: 64,
            },
            // A zero chunk must be tolerated (hpcutil's effective_chunk
            // clamps it to 1), not loop forever.
            ServingConfig {
                threads: 2,
                chunk: 0,
            },
        ] {
            let tuned = trained.clone().with_serving_config(config);
            assert_eq!(tuned.serving_config(), config);
            assert_eq!(
                tuned.classify_batch(&batch),
                default_predictions,
                "parallelism must never change predictions ({config:?})"
            );
        }

        let mut mutated = trained.clone();
        mutated.set_serving_config(ServingConfig {
            threads: 2,
            chunk: 8,
        });
        assert_eq!(mutated.serving_config().chunk, 8);
    }

    #[test]
    fn backend_swap_never_changes_predictions() {
        let (corpus, trained) = trained();
        assert_eq!(trained.backend_config(), BackendConfig::Indexed);
        let batch: Vec<(String, Vec<u8>)> = corpus
            .samples()
            .iter()
            .step_by(31)
            .map(|s| (s.install_path(), corpus.generate_bytes(s)))
            .collect();
        let expected = trained.classify_batch(&batch);
        // Fleets of one and three loopback workers serving the artifact.
        let fleet = |n: usize| {
            BackendConfig::remote((0..n).map(|_| {
                let listener =
                    std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
                let endpoint =
                    crate::shardnet::Endpoint::Tcp(listener.local_addr().unwrap().to_string());
                let worker = Arc::new(crate::shardnet::ShardWorker::all_classes(
                    trained.reference_shared(),
                ));
                std::thread::spawn(move || crate::shardnet::worker::serve_tcp(worker, listener));
                endpoint
            }))
        };
        for config in [
            BackendConfig::Scan,
            BackendConfig::Indexed,
            fleet(1),
            fleet(3),
        ] {
            let swapped = trained.clone().with_backend(config.clone());
            assert_eq!(swapped.backend_config(), config);
            assert_eq!(
                swapped.classify_batch(&batch),
                expected,
                "backend choice must never change predictions ({config})"
            );
        }
    }

    #[test]
    fn classify_prepared_matches_classify_features() {
        let (corpus, trained) = trained();
        let features = SampleFeatures::extract(&corpus.generate_bytes(&corpus.samples()[2]));
        let prepared = PreparedSampleFeatures::prepare(&features);
        assert_eq!(
            trained.classify_prepared(&prepared),
            trained.classify_features(&features)
        );
    }

    #[test]
    fn apply_config_sets_the_runtime_layers() {
        let (_, trained) = trained();
        let config = FhcConfig::new()
            .serving(ServingConfig {
                threads: 2,
                chunk: 5,
            })
            .backend(BackendConfig::Scan);
        let tuned = trained.with_config(&config);
        assert_eq!(tuned.serving_config().chunk, 5);
        assert_eq!(tuned.backend_config(), BackendConfig::Scan);
    }

    #[test]
    fn metadata_accessors_are_consistent() {
        let (_, trained) = trained();
        assert_eq!(trained.seed(), 3);
        assert_eq!(trained.feature_kinds().len(), 3);
        assert!(trained.n_known_classes() > 0);
        assert_eq!(trained.known_class_names().len(), trained.n_known_classes());
        assert!(trained.forest().n_trees() > 0);
        let importance = trained.feature_importance();
        assert_eq!(importance.len(), 3);
        let total: f64 = importance.iter().map(|i| i.importance).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(trained
            .threshold_curve()
            .iter()
            .any(|p| (p.threshold - trained.confidence_threshold()).abs() < 1e-9));
    }
}
