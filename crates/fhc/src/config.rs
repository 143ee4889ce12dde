//! The unified, layered configuration of the classifier.
//!
//! Configuration used to be scattered: training knobs lived in
//! [`PipelineConfig`], serving parallelism in
//! [`ServingConfig`], and the training-side batch parallelism was hardcoded
//! (chunk-of-4 `ParallelConfig`s inside `extract_features` and
//! `feature_matrix`). [`FhcConfig`] collapses all of it into one value with
//! four layers:
//!
//! | layer      | type                                   | governs                                              | persisted? |
//! |------------|----------------------------------------|------------------------------------------------------|------------|
//! | `pipeline` | [`PipelineConfig`]                     | seeds, splits, grids, thresholds, feature kinds      | seed & co. inside artifacts |
//! | `parallel` | [`hpcutil::ParallelConfig`]            | training-side batch parallelism (extraction, feature matrices) | never |
//! | `serving`  | [`ServingConfig`]                      | `classify_batch` worker threads / chunking           | never |
//! | `backend`  | [`BackendConfig`] | which [`SimilarityBackend`](crate::backend::SimilarityBackend) scores queries | never |
//!
//! None of the runtime layers ever changes scores or predictions — they only
//! change how fast the identical numbers are produced.
//!
//! ```
//! use fhc::backend::BackendConfig;
//! use fhc::config::FhcConfig;
//!
//! let config = FhcConfig::new()
//!     .seed(7)
//!     .backend("remote:127.0.0.1:9000,127.0.0.1:9001".parse().expect("a valid spec"));
//! assert_eq!(config.pipeline.seed, 7);
//! assert_ne!(config.backend, BackendConfig::Indexed);
//! ```

use crate::backend::BackendConfig;
use crate::pipeline::PipelineConfig;
use crate::serving::ServingConfig;
use hpcutil::ParallelConfig;

/// The default training-side batch parallelism: all hardware threads,
/// claiming 4 samples per scheduling step (small enough to balance wildly
/// differing executable sizes, large enough to keep counter contention
/// negligible). This is the value the old hardcoded `ParallelConfig`s used.
pub fn default_parallel() -> ParallelConfig {
    ParallelConfig {
        threads: 0,
        chunk: 4,
    }
}

/// One configuration for the whole classifier, layered by concern.
///
/// Construct with [`FhcConfig::new`] and the builder methods, or fill the
/// (all-public) fields directly. [`FuzzyHashClassifier::with_config`]
/// consumes it for training;
/// [`TrainedClassifier::load_with`](crate::serving::TrainedClassifier::load_with)
/// applies its runtime layers when opening a stored artifact.
///
/// [`FuzzyHashClassifier::with_config`]: crate::pipeline::FuzzyHashClassifier::with_config
#[derive(Debug, Clone)]
pub struct FhcConfig {
    /// Training behavior: seed, splits, forest, grid search, thresholds,
    /// feature kinds. The only layer that affects *what* is learned.
    pub pipeline: PipelineConfig,
    /// Training-side batch parallelism (feature extraction and feature
    /// matrices). Runtime-only; previously hardcoded.
    pub parallel: ParallelConfig,
    /// Serving-side batch parallelism (`classify_batch` and friends).
    /// Runtime-only; never persisted into artifacts.
    pub serving: ServingConfig,
    /// Which similarity backend scores queries against the reference set.
    /// Runtime-only; any artifact can be opened under any backend.
    pub backend: BackendConfig,
}

impl Default for FhcConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            // Not ParallelConfig::default(): the training batches keep the
            // chunk-of-4 the old hardcodes used (load balance over wildly
            // differing executable sizes beats scheduling overhead here).
            parallel: default_parallel(),
            serving: ServingConfig::default(),
            backend: BackendConfig::default(),
        }
    }
}

impl FhcConfig {
    /// The default configuration (equivalent to `FhcConfig::default()`):
    /// paper-faithful pipeline defaults, chunk-of-4 training parallelism,
    /// default serving parallelism, indexed backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the pipeline (training) layer.
    pub fn pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Set the root seed (convenience for the common case of customizing
    /// only `pipeline.seed`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.pipeline.seed = seed;
        self
    }

    /// Replace the training-side batch parallelism layer.
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Replace the serving layer.
    pub fn serving(mut self, serving: ServingConfig) -> Self {
        self.serving = serving;
        self
    }

    /// Replace the similarity-backend layer.
    pub fn backend(mut self, backend: BackendConfig) -> Self {
        self.backend = backend;
        self
    }
}

impl From<PipelineConfig> for FhcConfig {
    /// Wrap a bare pipeline configuration with default runtime layers (the
    /// upgrade path for pre-`FhcConfig` call sites).
    fn from(pipeline: PipelineConfig) -> Self {
        Self {
            pipeline,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layers_match_the_old_behavior() {
        let config = FhcConfig::default();
        // The training parallelism defaults to the previously hardcoded
        // chunk-of-4 over all hardware threads.
        assert_eq!(config.parallel, default_parallel());
        assert_eq!(config.parallel.chunk, 4);
        assert_eq!(config.parallel.threads, 0);
        assert_eq!(config.serving, ServingConfig::default());
        assert_eq!(config.backend, BackendConfig::Indexed);
        assert_eq!(config.pipeline.seed, PipelineConfig::default().seed);
    }

    #[test]
    fn builder_methods_set_each_layer() {
        let config = FhcConfig::new()
            .seed(99)
            .parallel(ParallelConfig::with_threads(2))
            .serving(ServingConfig {
                threads: 3,
                chunk: 7,
            })
            .backend(BackendConfig::Scan);
        assert_eq!(config.pipeline.seed, 99);
        assert_eq!(config.parallel.threads, 2);
        assert_eq!(config.serving.chunk, 7);
        assert_eq!(config.backend, BackendConfig::Scan);
    }

    #[test]
    fn pipeline_config_upgrades_into_fhc_config() {
        let pipeline = PipelineConfig {
            seed: 123,
            ..Default::default()
        };
        let config: FhcConfig = pipeline.into();
        assert_eq!(config.pipeline.seed, 123);
        assert_eq!(config.backend, BackendConfig::default());
    }
}
