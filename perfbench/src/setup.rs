//! The set-up the serving workloads share: generate the corpus, fit the
//! classifier, and store and reload it as an artifact, as a deployment
//! would before serving.

use crate::stats::trimmed_mean;
use crate::trace::Trace;
use corpus::{Catalog, Corpus, CorpusBuilder};
use fhc::config::FhcConfig;
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::TrainedClassifier;
use hpcutil::{par_map_indexed, ParallelConfig};
use mlcore::forest::RandomForestParams;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The installed software is fixed; `--seed` draws the traffic over it.
pub const CORPUS_SEED: u64 = 42;
/// 447 samples over the paper's 92 classes.
pub const CORPUS_SCALE: f64 = 0.05;
pub const FOREST_TREES: usize = 30;

/// Set-up repeats until it has run this long, so a quick one is timed
/// often enough for a steady figure.
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Run `setup` at least `reps` times and for at least
/// [`SETUP_MIN_SECONDS`], each time dropping the previous result first;
/// returns the last result and the trimmed mean of the set-up times.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    while times.len() < reps.max(1) || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((last, trimmed_mean(&times)))
}

pub struct Fitted {
    pub corpus: Corpus,
    /// Executable bytes of every corpus sample, in corpus order.
    pub bytes: Vec<Vec<u8>>,
    /// The classifier as loaded back from its artifact.
    pub classifier: TrainedClassifier,
    pub artifact: PathBuf,
}

pub fn fit_and_store(trace: &Trace, dir: &Path) -> Result<Fitted, String> {
    let start = Instant::now();
    let corpus = CorpusBuilder::new(CORPUS_SEED).build(&Catalog::paper().scaled(CORPUS_SCALE));
    let bytes = par_map_indexed(corpus.n_samples(), ParallelConfig::default(), |i| {
        corpus.generate_bytes(&corpus.samples()[i])
    });
    let total: usize = bytes.iter().map(Vec::len).sum();
    trace.record("corpus.generate", start, Instant::now(), 0, 0, total as u64);

    let config = FhcConfig::new().pipeline(PipelineConfig {
        seed: CORPUS_SEED,
        forest: RandomForestParams {
            n_estimators: FOREST_TREES,
            ..Default::default()
        },
        ..Default::default()
    });
    let trained = trace
        .time("pipeline.fit", 0, 0, || {
            FuzzyHashClassifier::with_config(config).fit(&corpus)
        })
        .map_err(|e| format!("fit failed: {e}"))?;

    let artifact = dir.join("classifier.fhc");
    let start = Instant::now();
    trained
        .save(&artifact)
        .map_err(|e| format!("cannot save {}: {e}", artifact.display()))?;
    let size = std::fs::metadata(&artifact).map_or(0, |m| m.len());
    trace.record("artifact.save", start, Instant::now(), 0, 0, size);
    let classifier = trace
        .time("artifact.load", 0, 0, || TrainedClassifier::load(&artifact))
        .map_err(|e| format!("cannot load {}: {e}", artifact.display()))?;
    Ok(Fitted {
        corpus,
        bytes,
        classifier,
        artifact,
    })
}
