//! The training half of the Fuzzy Hash Classifier: fit, then evaluate.
//!
//! Mirrors the paper's methodology section:
//!
//! 1. extract the three SSDeep features of every sample,
//! 2. split classes 80/20 into known/unknown and known-class samples 60/40
//!    into train/test (the two-phase split),
//! 3. build the per-class max-similarity feature matrix against the
//!    training samples,
//! 4. tune the Random Forest hyper-parameters and the confidence threshold
//!    by grid search *within the training set* (holding out part of the
//!    known classes as pseudo-unknown for the threshold sweep),
//! 5. train the final forest, predict the test set, route low-confidence
//!    predictions to the `"-1"` unknown class,
//! 6. report per-class precision / recall / F1 plus micro / macro /
//!    weighted averages, and the per-feature importances.
//!
//! Steps 1–5a (everything up to and including training the final forest)
//! are [`FuzzyHashClassifier::fit`], which returns a reusable
//! [`TrainedClassifier`]; the test-set prediction and report are
//! [`FuzzyHashClassifier::evaluate_with_features`]. The original
//! [`FuzzyHashClassifier::run`] remains as the thin fit + evaluate
//! composition the experiment drivers use.

use crate::backend::SimilarityBackend;
use crate::config::FhcConfig;
use crate::error::FhcError;
use crate::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use crate::serving::TrainedClassifier;
use crate::similarity::{CandidateCache, ReferenceSet};
use crate::split::{two_phase_split, SplitConfig, TwoPhaseSplit};
use crate::threshold::{
    apply_threshold_batch, best_threshold, default_threshold_grid, known_to_eval, sweep_thresholds,
    ThresholdPoint, UNKNOWN_LABEL,
};
use corpus::Corpus;
use hpcutil::{par_map_indexed, SeedSequence};
use mlcore::dataset::Dataset;
use mlcore::forest::{RandomForest, RandomForestParams};
use mlcore::gridsearch::{GridSearch, ParamGrid};
use mlcore::model::Model;
use mlcore::report::ClassificationReport;
use mlcore::split::{split_groups, stratified_split};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Root seed controlling the split, the forest, and the grid search.
    pub seed: u64,
    /// Train/test split fractions (defaults follow the paper: 20% unknown
    /// classes, 40% of known-class samples for testing).
    pub split: SplitConfig,
    /// Forest parameters used when no grid is given (and as the base for the
    /// grid).
    pub forest: RandomForestParams,
    /// Optional hyper-parameter grid evaluated by cross-validation within
    /// the training set.
    pub grid: Option<ParamGrid>,
    /// Cross-validation folds for the grid search.
    pub grid_folds: usize,
    /// Candidate confidence thresholds (paper Figure 3 sweeps these).
    pub thresholds: Vec<f64>,
    /// Which fuzzy-hash views to use (ablations restrict this).
    pub feature_kinds: Vec<FeatureKind>,
    /// Fraction of known classes held out as pseudo-unknown while tuning the
    /// threshold inside the training set.
    pub inner_unknown_fraction: f64,
    /// Fraction of inner-known training samples used to validate the
    /// threshold.
    pub inner_validation_fraction: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            split: SplitConfig::default(),
            forest: RandomForestParams {
                n_estimators: 80,
                ..Default::default()
            },
            grid: None,
            grid_folds: 3,
            thresholds: default_threshold_grid(),
            feature_kinds: FeatureKind::ALL.to_vec(),
            inner_unknown_fraction: 0.2,
            inner_validation_fraction: 0.4,
        }
    }
}

/// Aggregated importance of one fuzzy-hash view (paper Table 5).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureImportance {
    /// The fuzzy-hash view.
    pub kind: FeatureKind,
    /// Normalized importance (all views sum to 1).
    pub importance: f64,
}

/// Everything the pipeline produces for one run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Per-class and averaged precision / recall / F1 (paper Table 4).
    pub report: ClassificationReport,
    /// Evaluation label space: index 0 is `"-1"`, the rest are known classes.
    pub eval_class_names: Vec<String>,
    /// True evaluation labels of the test samples.
    pub y_true: Vec<usize>,
    /// Predicted evaluation labels of the test samples.
    pub y_pred: Vec<usize>,
    /// The tuned confidence threshold.
    pub confidence_threshold: f64,
    /// The threshold sweep measured on the internal validation set
    /// (paper Figure 3).
    pub threshold_curve: Vec<ThresholdPoint>,
    /// Importance of each fuzzy-hash view (paper Table 5).
    pub feature_importance: Vec<FeatureImportance>,
    /// Names of the known classes (the forest's label space).
    pub known_class_names: Vec<String>,
    /// Names of the unknown classes (paper Table 3).
    pub unknown_class_names: Vec<String>,
    /// The forest parameters actually used (after grid search, if any).
    pub forest_params: RandomForestParams,
    /// The two-phase split that produced the train/test sets.
    pub split: TwoPhaseSplit,
    /// Number of training samples.
    pub n_train: usize,
    /// Number of test samples.
    pub n_test: usize,
    /// Number of test samples belonging to unknown classes.
    pub n_unknown_test: usize,
}

/// Everything training produces: the reusable serving artifact plus the
/// split bookkeeping evaluation needs.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// The fitted classifier (reference set + tuned forest + threshold).
    pub classifier: TrainedClassifier,
    /// The two-phase split that produced the training set.
    pub split: TwoPhaseSplit,
    /// Names of the unknown classes held out of training (paper Table 3).
    pub unknown_class_names: Vec<String>,
}

/// The end-to-end classifier.
#[derive(Debug, Clone)]
pub struct FuzzyHashClassifier {
    config: FhcConfig,
}

impl FuzzyHashClassifier {
    /// Create a classifier from the unified layered configuration
    /// ([`FhcConfig`]: pipeline + parallel + serving + backend).
    pub fn with_config(config: FhcConfig) -> Self {
        Self { config }
    }

    /// The full layered configuration in use.
    pub fn config(&self) -> &FhcConfig {
        &self.config
    }

    /// The training (pipeline) layer of the configuration.
    pub fn pipeline_config(&self) -> &PipelineConfig {
        &self.config.pipeline
    }

    /// Extract the fuzzy-hash features of every sample of `corpus`
    /// (in parallel per the config's `parallel` layer, generating each
    /// executable's bytes on demand).
    pub fn extract_features(&self, corpus: &Corpus) -> Vec<SampleFeatures> {
        par_map_indexed(corpus.n_samples(), self.config.parallel, |i| {
            let bytes = corpus.generate_bytes(&corpus.samples()[i]);
            SampleFeatures::extract(&bytes)
        })
    }

    /// Train once on `corpus` and return the reusable serving artifact.
    ///
    /// This pays the full training cost — feature extraction, the two-phase
    /// split, grid search, threshold tuning, forest training — exactly once;
    /// the returned [`TrainedClassifier`] then classifies arbitrarily many
    /// new executables (and can be saved to disk) without retraining.
    pub fn fit(&self, corpus: &Corpus) -> Result<TrainedClassifier, FhcError> {
        let features = self.extract_features(corpus);
        Ok(self.fit_with_features(corpus, &features)?.classifier)
    }

    /// Run the full pipeline on `corpus`: fit, then evaluate on the test
    /// split.
    pub fn run(&self, corpus: &Corpus) -> Result<PipelineOutcome, FhcError> {
        let features = self.extract_features(corpus);
        self.run_with_features(corpus, &features)
    }

    /// Run the pipeline on pre-extracted features (lets experiments reuse the
    /// expensive feature extraction across runs, e.g. for ablations). A thin
    /// composition of [`FuzzyHashClassifier::fit_with_features`] and
    /// [`FuzzyHashClassifier::evaluate_with_features`].
    pub fn run_with_features(
        &self,
        corpus: &Corpus,
        features: &[SampleFeatures],
    ) -> Result<PipelineOutcome, FhcError> {
        let fit = self.fit_with_features(corpus, features)?;
        self.evaluate_with_features(corpus, features, &fit)
    }

    /// Train on pre-extracted features, returning the serving artifact plus
    /// the split bookkeeping needed to evaluate it.
    pub fn fit_with_features(
        &self,
        corpus: &Corpus,
        features: &[SampleFeatures],
    ) -> Result<FitOutcome, FhcError> {
        if features.len() != corpus.n_samples() {
            return Err(FhcError::InvalidConfig(
                "features must cover every corpus sample",
            ));
        }
        let pipeline = &self.config.pipeline;
        if pipeline.feature_kinds.is_empty() {
            return Err(FhcError::InvalidConfig(
                "at least one feature kind is required",
            ));
        }
        if pipeline.thresholds.is_empty() {
            return Err(FhcError::InvalidConfig("threshold grid must not be empty"));
        }
        let seeds = SeedSequence::new(pipeline.seed);

        // ---- Phase 1+2 split ------------------------------------------------
        let split = two_phase_split(corpus, pipeline.split, seeds.derive("split"))?;
        let known_class_names: Vec<String> = split
            .known_classes
            .iter()
            .map(|&c| corpus.class_names()[c].clone())
            .collect();
        let unknown_class_names: Vec<String> = split
            .unknown_classes
            .iter()
            .map(|&c| corpus.class_names()[c].clone())
            .collect();
        // Map corpus class index -> known-class id (forest label space).
        let mut known_id = vec![usize::MAX; corpus.n_classes()];
        for (id, &class) in split.known_classes.iter().enumerate() {
            known_id[class] = id;
        }

        // Prepare each *training* sample's query hashes exactly once; the
        // training matrix and every threshold-tuning inner fit below reuse
        // this batch. Test-split samples are deliberately skipped — fit
        // never scores them, and evaluation prepares its rows on demand.
        let train_prepared: Vec<PreparedSampleFeatures> =
            par_map_indexed(split.train.len(), self.config.parallel, |j| {
                PreparedSampleFeatures::prepare(&features[split.train[j]])
            });
        // Corpus sample index -> prepared training sample (for the
        // threshold-tuning subsets, which are drawn from `split.train`).
        let mut prepared_by_sample: Vec<Option<&PreparedSampleFeatures>> =
            vec![None; features.len()];
        for (j, &i) in split.train.iter().enumerate() {
            prepared_by_sample[i] = Some(&train_prepared[j]);
        }
        let train_labels: Vec<usize> = split
            .train
            .iter()
            .map(|&i| known_id[corpus.samples()[i].class_index])
            .collect();

        // ---- Similarity feature matrix --------------------------------------
        let reference = Arc::new(ReferenceSet::from_prepared(
            known_class_names.clone(),
            &train_prepared,
            &train_labels,
            &pipeline.feature_kinds,
        ));
        let backend = self.config.backend.build(reference.clone());
        // The training matrix goes through the local indexed walk — every
        // backend produces byte-identical rows (the workspace equivalence
        // suites pin that invariant), and walking locally captures the
        // per-query candidate lists so threshold tuning below replays them
        // against its inner reference subsets instead of re-walking.
        let (x_train, candidate_cache) =
            reference.feature_matrix_caching(&train_prepared, self.config.parallel);
        let train_ds = Dataset::from_rows(
            x_train,
            train_labels.clone(),
            reference.column_names(),
            known_class_names.clone(),
        )?;

        // ---- Hyper-parameter grid search (within the training set) ----------
        let forest_params = match &pipeline.grid {
            Some(grid) => {
                let search = GridSearch {
                    n_folds: pipeline.grid_folds,
                    base: pipeline.forest.clone(),
                };
                search.best_params(&train_ds, grid, seeds.derive("grid"))?
            }
            None => pipeline.forest.clone(),
        };

        // ---- Confidence-threshold tuning (within the training set) ----------
        let (threshold_curve, confidence_threshold) = self.tune_threshold(
            corpus,
            &split,
            &prepared_by_sample,
            &known_id,
            &forest_params,
            &seeds,
            &reference,
            &candidate_cache,
        )?;

        // ---- Final model ------------------------------------------------------
        let forest = RandomForest::fit(&train_ds, &forest_params, seeds.derive("forest"))?;

        Ok(FitOutcome {
            classifier: TrainedClassifier::from_parts(
                reference,
                backend,
                forest,
                forest_params,
                confidence_threshold,
                threshold_curve,
                pipeline.seed,
                self.config.serving,
            ),
            split,
            unknown_class_names,
        })
    }

    /// Evaluate a fitted classifier on the test half of its two-phase split,
    /// producing the paper's report (Tables 3–5, Figure 3).
    pub fn evaluate_with_features(
        &self,
        corpus: &Corpus,
        features: &[SampleFeatures],
        fit: &FitOutcome,
    ) -> Result<PipelineOutcome, FhcError> {
        if features.len() != corpus.n_samples() {
            return Err(FhcError::InvalidConfig(
                "features must cover every corpus sample",
            ));
        }
        let classifier = &fit.classifier;
        let split = &fit.split;
        let known_class_names = classifier.known_class_names().to_vec();
        let mut known_id = vec![usize::MAX; corpus.n_classes()];
        for (id, &class) in split.known_classes.iter().enumerate() {
            known_id[class] = id;
        }

        // ---- Test-set prediction ----------------------------------------------
        let test_features: Vec<SampleFeatures> =
            split.test.iter().map(|&i| features[i].clone()).collect();
        let x_test = classifier
            .backend()
            .feature_matrix(&test_features, self.config.parallel);
        let probas = Model::predict_proba_batch(classifier.forest(), &x_test);
        let y_pred = apply_threshold_batch(&probas, classifier.confidence_threshold());
        let y_true: Vec<usize> = split
            .test
            .iter()
            .map(|&i| {
                let class = corpus.samples()[i].class_index;
                if known_id[class] == usize::MAX {
                    UNKNOWN_LABEL
                } else {
                    known_to_eval(known_id[class])
                }
            })
            .collect();

        // ---- Report and feature importance --------------------------------------
        let mut eval_class_names = vec!["-1".to_string()];
        eval_class_names.extend(known_class_names.iter().cloned());
        let report = ClassificationReport::compute(&y_true, &y_pred, &eval_class_names);

        Ok(PipelineOutcome {
            report,
            eval_class_names,
            y_true,
            y_pred,
            confidence_threshold: classifier.confidence_threshold(),
            threshold_curve: classifier.threshold_curve().to_vec(),
            feature_importance: classifier.feature_importance(),
            known_class_names,
            unknown_class_names: fit.unknown_class_names.clone(),
            forest_params: classifier.forest_params().clone(),
            n_train: split.train.len(),
            n_test: split.test.len(),
            n_unknown_test: split.n_unknown_test_samples(corpus),
            split: split.clone(),
        })
    }

    /// Cheaply re-tune the confidence threshold of an existing fit — the
    /// companion of [`ReferenceSet::add_samples`]-style evolution, where
    /// similarity maxima move but the column geometry (and therefore the
    /// forest) is unchanged. Re-runs *only* the inner threshold fold over
    /// the fit's training split: no grid search, no final-forest refit, and
    /// one cached candidate walk feeds every inner matrix by projection.
    /// Writes the new curve and threshold into `fit.classifier` and returns
    /// the threshold.
    ///
    /// On an unchanged corpus this reproduces the fit's own tuning
    /// byte-identically (the pipeline suite asserts it), so it is safe to
    /// call speculatively.
    pub fn retune_threshold(
        &self,
        corpus: &Corpus,
        features: &[SampleFeatures],
        fit: &mut FitOutcome,
    ) -> Result<f64, FhcError> {
        if features.len() != corpus.n_samples() {
            return Err(FhcError::InvalidConfig(
                "features must cover every corpus sample",
            ));
        }
        let pipeline = &self.config.pipeline;
        if pipeline.thresholds.is_empty() {
            return Err(FhcError::InvalidConfig("threshold grid must not be empty"));
        }
        let seeds = SeedSequence::new(pipeline.seed);
        let split = fit.split.clone();
        let forest_params = fit.classifier.forest_params().clone();
        let mut known_id = vec![usize::MAX; corpus.n_classes()];
        for (id, &class) in split.known_classes.iter().enumerate() {
            known_id[class] = id;
        }
        let known_class_names: Vec<String> = split
            .known_classes
            .iter()
            .map(|&c| corpus.class_names()[c].clone())
            .collect();
        let train_prepared: Vec<PreparedSampleFeatures> =
            par_map_indexed(split.train.len(), self.config.parallel, |j| {
                PreparedSampleFeatures::prepare(&features[split.train[j]])
            });
        let mut prepared_by_sample: Vec<Option<&PreparedSampleFeatures>> =
            vec![None; features.len()];
        for (j, &i) in split.train.iter().enumerate() {
            prepared_by_sample[i] = Some(&train_prepared[j]);
        }
        let train_labels: Vec<usize> = split
            .train
            .iter()
            .map(|&i| known_id[corpus.samples()[i].class_index])
            .collect();
        let reference = ReferenceSet::from_prepared(
            known_class_names,
            &train_prepared,
            &train_labels,
            &pipeline.feature_kinds,
        );
        let cache = reference.candidate_cache(&train_prepared, self.config.parallel);
        let (curve, threshold) = self.tune_threshold(
            corpus,
            &split,
            &prepared_by_sample,
            &known_id,
            &forest_params,
            &seeds,
            &reference,
            &cache,
        )?;
        fit.classifier.confidence_threshold = threshold;
        fit.classifier.threshold_curve = curve;
        Ok(threshold)
    }

    /// Tune the confidence threshold inside the training set by holding out
    /// part of the known classes as pseudo-unknown.
    ///
    /// `prepared` maps corpus sample index -> the prepared query hashes
    /// computed once by [`FuzzyHashClassifier::fit_with_features`]
    /// (`Some` for every training sample); the inner fits reuse that batch
    /// instead of re-preparing their query rows. `reference` is the
    /// full-train reference set and `cache` the candidate lists captured by
    /// one walk of the training batch against it (aligned with
    /// `split.train`); the inner matrices are projections of that walk, so
    /// no fold re-walks the gram index.
    #[allow(clippy::too_many_arguments)]
    fn tune_threshold(
        &self,
        corpus: &Corpus,
        split: &TwoPhaseSplit,
        prepared: &[Option<&PreparedSampleFeatures>],
        known_id: &[usize],
        forest_params: &RandomForestParams,
        seeds: &SeedSequence,
        reference: &ReferenceSet,
        cache: &CandidateCache,
    ) -> Result<(Vec<ThresholdPoint>, f64), FhcError> {
        let pipeline = &self.config.pipeline;
        let n_known = split.known_classes.len();
        // Hold out a fraction of the known classes as pseudo-unknown.
        let (inner_known, pseudo_unknown) = split_groups(
            n_known,
            pipeline.inner_unknown_fraction,
            seeds.derive("inner-classes"),
        );
        let mut inner_known = inner_known;
        inner_known.sort_unstable();
        let mut pseudo_unknown = pseudo_unknown;
        pseudo_unknown.sort_unstable();
        // Map known-class id -> inner-known id.
        let mut inner_id = vec![usize::MAX; n_known];
        for (id, &k) in inner_known.iter().enumerate() {
            inner_id[k] = id;
        }

        // Training samples belonging to inner-known classes get a stratified
        // split into inner-train and inner-validation; pseudo-unknown
        // training samples all go to inner-validation.
        let mut inner_known_samples: Vec<usize> = Vec::new();
        let mut pseudo_unknown_samples: Vec<usize> = Vec::new();
        for &sample in &split.train {
            let k = known_id[corpus.samples()[sample].class_index];
            if inner_id[k] == usize::MAX {
                pseudo_unknown_samples.push(sample);
            } else {
                inner_known_samples.push(sample);
            }
        }
        if inner_known_samples.is_empty() {
            return Err(FhcError::CorpusTooSmall(
                "no inner-known training samples for threshold tuning".to_string(),
            ));
        }
        let inner_labels: Vec<usize> = inner_known_samples
            .iter()
            .map(|&i| inner_id[known_id[corpus.samples()[i].class_index]])
            .collect();
        let inner_split = stratified_split(
            &inner_labels,
            pipeline.inner_validation_fraction,
            seeds.derive("inner-split"),
        )?;

        let inner_train_samples: Vec<usize> = inner_split
            .train
            .iter()
            .map(|&i| inner_known_samples[i])
            .collect();
        let mut inner_val_samples: Vec<usize> = inner_split
            .test
            .iter()
            .map(|&i| inner_known_samples[i])
            .collect();
        inner_val_samples.extend_from_slice(&pseudo_unknown_samples);

        let inner_train_prepared: Vec<PreparedSampleFeatures> = inner_train_samples
            .iter()
            .map(|&i| prepared[i].expect("training sample is prepared").clone())
            .collect();
        let inner_train_labels: Vec<usize> = inner_train_samples
            .iter()
            .map(|&i| inner_id[known_id[corpus.samples()[i].class_index]])
            .collect();
        let inner_class_names: Vec<String> = inner_known
            .iter()
            .map(|&k| corpus.class_names()[split.known_classes[k]].clone())
            .collect();

        let inner_reference = ReferenceSet::from_prepared(
            inner_class_names.clone(),
            &inner_train_prepared,
            &inner_train_labels,
            &pipeline.feature_kinds,
        );

        // Both inner matrices are projections of the one cached candidate
        // walk over the full-train reference: the walk's `(query, kind)`
        // candidate lists are mapped onto the inner reference's coordinates
        // and re-scored there, byte-identical to walking the inner gram
        // index from scratch (candidate surfacing is a pairwise predicate).
        // Corpus sample index -> position in `split.train` (= cache row).
        let mut train_pos = vec![usize::MAX; prepared.len()];
        for (j, &i) in split.train.iter().enumerate() {
            train_pos[i] = j;
        }
        // Position in `split.train` -> the sample's (class, within-class)
        // coordinates in the full-train reference, mirroring the grouping
        // order of `ReferenceSet::from_prepared`.
        let mut full_counts = vec![0u32; n_known];
        let full_coord: Vec<(u32, u32)> = split
            .train
            .iter()
            .map(|&i| {
                let k = known_id[corpus.samples()[i].class_index];
                let s = full_counts[k];
                full_counts[k] += 1;
                (k as u32, s)
            })
            .collect();
        // Full-train (class, sample) -> inner-reference (class, sample),
        // for the samples the inner reference keeps.
        let mut inner_counts = vec![0u32; inner_known.len()];
        let mut inner_of_full: HashMap<(u32, u32), (u32, u32)> = HashMap::new();
        for &i in &inner_train_samples {
            let (k, s_full) = full_coord[train_pos[i]];
            let ik = inner_id[k as usize] as u32;
            let s_inner = inner_counts[ik as usize];
            inner_counts[ik as usize] += 1;
            inner_of_full.insert((k, s_full), (ik, s_inner));
        }
        let project_rows = |samples: &[usize]| -> Vec<Vec<f64>> {
            par_map_indexed(samples.len(), self.config.parallel, |idx| {
                let i = samples[idx];
                let query = prepared[i].expect("training sample is prepared");
                let candidates =
                    reference.project_candidates(cache, train_pos[i], &inner_reference, |c, s| {
                        inner_of_full.get(&(c, s)).copied()
                    });
                inner_reference.feature_vector_from_candidates(query, &candidates)
            })
        };

        let x_inner_train = project_rows(&inner_train_samples);
        let inner_ds = Dataset::from_rows(
            x_inner_train,
            inner_train_labels,
            inner_reference.column_names(),
            inner_class_names,
        )?;
        let inner_forest =
            RandomForest::fit(&inner_ds, forest_params, seeds.derive("inner-forest"))?;

        let x_val = project_rows(&inner_val_samples);
        let probas = inner_forest.predict_proba_batch(&x_val);
        let y_val: Vec<usize> = inner_val_samples
            .iter()
            .map(|&i| {
                let k = known_id[corpus.samples()[i].class_index];
                if inner_id[k] == usize::MAX {
                    UNKNOWN_LABEL
                } else {
                    known_to_eval(inner_id[k])
                }
            })
            .collect();
        let n_eval_classes = 1 + inner_reference.n_classes();
        let curve = sweep_thresholds(&y_val, &probas, n_eval_classes, &pipeline.thresholds);
        let best = best_threshold(&curve).unwrap_or(0.0);
        Ok((curve, best))
    }
}

/// Aggregate per-column forest importances into one number per fuzzy-hash
/// view and normalize them to sum to 1 (the paper's Table 5 normalization).
pub fn aggregate_importance(
    column_importances: &[f64],
    column_kinds: &[FeatureKind],
) -> Vec<FeatureImportance> {
    let mut totals: Vec<(FeatureKind, f64)> = Vec::new();
    for (&imp, &kind) in column_importances.iter().zip(column_kinds) {
        match totals.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, total)) => *total += imp,
            None => totals.push((kind, imp)),
        }
    }
    let sum: f64 = totals.iter().map(|(_, v)| v).sum();
    totals
        .into_iter()
        .map(|(kind, v)| FeatureImportance {
            kind,
            importance: if sum > 0.0 { v / sum } else { 0.0 },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_importance_normalizes_per_kind() {
        let importances = vec![0.1, 0.1, 0.2, 0.2, 0.2, 0.2];
        let kinds = vec![
            FeatureKind::File,
            FeatureKind::File,
            FeatureKind::Strings,
            FeatureKind::Strings,
            FeatureKind::Symbols,
            FeatureKind::Symbols,
        ];
        let agg = aggregate_importance(&importances, &kinds);
        assert_eq!(agg.len(), 3);
        let total: f64 = agg.iter().map(|a| a.importance).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let file = agg.iter().find(|a| a.kind == FeatureKind::File).unwrap();
        assert!((file.importance - 0.2).abs() < 1e-12);
    }

    #[test]
    fn aggregate_importance_of_zeros_is_zero() {
        let agg = aggregate_importance(&[0.0, 0.0], &[FeatureKind::File, FeatureKind::Symbols]);
        assert!(agg.iter().all(|a| a.importance == 0.0));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.feature_kinds.len(), 3);
        assert!(!cfg.thresholds.is_empty());
        assert!(cfg.inner_unknown_fraction > 0.0 && cfg.inner_unknown_fraction < 1.0);
        assert!(cfg.forest.n_estimators > 0);
    }
}
