//! # Fuzzy Hash Classifier
//!
//! A Rust implementation of the system described in *"Using Malware
//! Detection Techniques for HPC Application Classification"* (Jakobsche &
//! Ciorba): classify HPC application executables into application classes by
//! comparing SSDeep-style fuzzy hashes of three views of each executable —
//! the raw bytes, the printable strings, and the global symbols — and
//! training a Random Forest on the resulting similarity features. Samples
//! whose prediction confidence falls below a tuned threshold are labeled
//! `"-1"` (unknown), which is how the classifier flags software that does not
//! belong to any known application class.
//!
//! The crate ties together the workspace substrates:
//!
//! * [`features`] — extract the three fuzzy-hash features from executable
//!   bytes (using [`binary`] for parsing / `strings` / `nm` and [`ssdeep`]
//!   for hashing).
//! * [`similarity`] — the reference hash set and its precomputed
//!   block-size-bucketed similarity index.
//! * [`backend`] — the pluggable [`SimilarityBackend`] scoring strategies
//!   over that reference set: the unindexed scan oracle, the prepared
//!   index, and a fleet of shard workers behind sockets. All
//!   score-identical; chosen at runtime.
//! * [`config`] — the unified layered [`FhcConfig`]
//!   (`pipeline` + `parallel` + `serving` + `backend`) every entry point
//!   consumes.
//! * [`split`] — the paper's two-phase train/test split (80/20 class-level
//!   known/unknown split, then a stratified 60/40 sample split).
//! * [`threshold`] — confidence thresholding and the threshold sweep behind
//!   the paper's Figure 3.
//! * [`pipeline`] — the training half: feature extraction, grid search,
//!   threshold tuning, final training ([`FuzzyHashClassifier::fit`]), plus
//!   the fit + evaluate composition behind the paper's tables.
//! * [`serving`] — the prediction half: [`TrainedClassifier`] owns the
//!   reference hashes, tuned forest, and threshold, and classifies new
//!   executables (singly or in parallel batches) without retraining.
//! * [`artifact`] — versioned on-disk persistence for trained classifiers,
//!   so training cost is amortized across processes.
//! * [`shardnet`] — distributed shard serving: a checksummed wire protocol,
//!   the `fhc-shardd` worker daemon, the `fhc-gateway` front door, and the
//!   [`shardnet::FleetBackend`] that fans similarity scoring out across
//!   worker processes over persistent connections.
//! * [`experiments`] — one driver per table/figure of the paper.
//! * [`ablation`] and [`baselines`] — feature ablations and the
//!   cryptographic-hash / k-NN / naive-Bayes comparison models (all driven
//!   through `mlcore`'s polymorphic `Model` trait).
//!
//! # Quick start: train once, classify forever
//!
//! ```no_run
//! use corpus::{Catalog, CorpusBuilder};
//! use fhc::backend::BackendConfig;
//! use fhc::config::FhcConfig;
//! use fhc::pipeline::FuzzyHashClassifier;
//! use fhc::serving::TrainedClassifier;
//!
//! // One layered configuration: training behavior (`pipeline`), batch
//! // parallelism (`parallel`), serving parallelism (`serving`), and the
//! // similarity backend (`backend`).
//! let config = FhcConfig::new().seed(42);
//!
//! // Fit pays the training cost (split, grid search, threshold tuning,
//! // forest) exactly once.
//! let corpus = CorpusBuilder::new(42).build(&Catalog::paper().scaled(0.1));
//! let trained = FuzzyHashClassifier::with_config(config.clone())
//!     .fit(&corpus)
//!     .expect("training succeeds");
//!
//! // Classify new executables — no retraining, parallel over the batch.
//! let batch: Vec<(String, Vec<u8>)> = corpus
//!     .samples()
//!     .iter()
//!     .take(8)
//!     .map(|s| (s.install_path(), corpus.generate_bytes(s)))
//!     .collect();
//! for (name, prediction) in trained.classify_batch(&batch) {
//!     println!("{name}: {} (confidence {:.2})", prediction.label, prediction.confidence);
//! }
//!
//! // Persist the artifact; other processes load it and classify directly —
//! // under any backend they like (backend choice is runtime-only, never
//! // baked into the artifact).
//! trained.save("classifier.fhc").expect("save succeeds");
//! let restored = TrainedClassifier::load_with(
//!     "classifier.fhc",
//!     &config.backend(BackendConfig::Indexed),
//! )
//! .expect("load succeeds");
//! assert_eq!(restored.known_class_names(), trained.known_class_names());
//! ```
//!
//! For the paper's evaluation (train *and* score on the held-out test
//! split), use [`FuzzyHashClassifier::run`], which composes `fit` with the
//! test-set evaluation:
//!
//! ```no_run
//! # use corpus::{Catalog, CorpusBuilder};
//! # use fhc::config::FhcConfig;
//! # use fhc::pipeline::FuzzyHashClassifier;
//! let corpus = CorpusBuilder::new(42).build(&Catalog::paper().scaled(0.1));
//! let outcome = FuzzyHashClassifier::with_config(FhcConfig::new().seed(42))
//!     .run(&corpus)
//!     .expect("pipeline runs");
//! println!("{}", outcome.report.render());
//! println!("macro f1 = {:.2}", outcome.report.macro_avg().f1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod artifact;
pub mod backend;
pub mod baselines;
#[cfg(feature = "failpoints")]
pub mod chaos;
pub mod config;
pub mod error;
pub mod experiments;
pub mod features;
pub mod pipeline;
pub mod serving;
pub mod shardnet;
pub mod similarity;
pub mod split;
pub mod threshold;

pub use backend::{AnyBackend, BackendConfig, IndexedBackend, ScanBackend, SimilarityBackend};
pub use config::FhcConfig;
pub use error::FhcError;
pub use features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
pub use pipeline::{FitOutcome, FuzzyHashClassifier, PipelineConfig, PipelineOutcome};
pub use serving::{Prediction, ServingConfig, TrainedClassifier};
pub use shardnet::{Endpoint, FleetBackend, NetError, ShardWorker};
