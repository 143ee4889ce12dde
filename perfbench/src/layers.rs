//! Calls into each layer's public functions, with a span around each call.
//! The workloads go through these helpers so a traced run sees every layer
//! boundary the same way.

use crate::trace::Trace;
use binary::elf::ElfFile;
use binary::strings::strings_blob;
use binary::symbols::symbols_blob;
use fhc::features::{PreparedSampleFeatures, SampleFeatures, STRINGS_MIN_LENGTH};
use fhc::similarity::ReferenceSet;
use fhc::threshold::{apply_threshold, UNKNOWN_LABEL};
use fhc::TrainedClassifier;
use hpcutil::ParallelConfig;
use mlcore::model::Model;
use ssdeep::fuzzy_hash_bytes;
use std::time::Instant;

/// Extract one sample's features. A traced run also makes the six calls
/// `SampleFeatures::extract` is built from on the same bytes, as children
/// of a `features.parts` span, so extraction's own time can be told apart
/// from parsing and hashing. Returns `None` when the parts disagree with
/// the real call.
pub fn extract(trace: &Trace, bytes: &[u8], req: u64) -> Option<SampleFeatures> {
    let whole = || {
        trace.time("features.extract", 0, req, || {
            SampleFeatures::extract(bytes)
        })
    };
    if !trace.enabled() {
        return Some(whole());
    }
    // Alternate which goes first, so neither always finds the bytes cached.
    let (features, parts) = if req.is_multiple_of(2) {
        let features = whole();
        (features, extract_in_parts(trace, bytes, req))
    } else {
        let parts = extract_in_parts(trace, bytes, req);
        (whole(), parts)
    };
    (features == parts).then_some(features)
}

/// The six calls `SampleFeatures::extract` makes, each in its own span.
fn extract_in_parts(trace: &Trace, bytes: &[u8], req: u64) -> SampleFeatures {
    let parts = trace.reserve();
    let start = Instant::now();
    let span = |name: &'static str, count: usize, t0: Instant| {
        trace.record(name, t0, Instant::now(), parts, req, count as u64);
    };
    let t = Instant::now();
    let file = fuzzy_hash_bytes(bytes);
    span("ssdeep.hash_file", bytes.len(), t);
    let t = Instant::now();
    let blob = strings_blob(bytes, STRINGS_MIN_LENGTH);
    span("binary.strings", blob.len(), t);
    let t = Instant::now();
    let strings = fuzzy_hash_bytes(&blob);
    span("ssdeep.hash_strings", blob.len(), t);
    let t = Instant::now();
    let elf = ElfFile::parse(bytes);
    span("binary.parse", bytes.len(), t);
    let symbols = elf.ok().and_then(|elf| {
        let t = Instant::now();
        let blob = symbols_blob(&elf);
        span("binary.symbols", blob.len(), t);
        (!blob.is_empty()).then(|| {
            let t = Instant::now();
            let hash = fuzzy_hash_bytes(&blob);
            span("ssdeep.hash_symbols", blob.len(), t);
            hash
        })
    });
    trace.record_as(parts, "features.parts", start, Instant::now(), 0, req, 0);
    SampleFeatures {
        file,
        strings,
        symbols,
    }
}

pub fn prepare(trace: &Trace, features: &SampleFeatures, req: u64) -> PreparedSampleFeatures {
    trace.time("ssdeep.prepare", 0, req, || {
        PreparedSampleFeatures::prepare(features)
    })
}

/// The indexed similarity row of one prepared query. A traced run also
/// counts the candidates the gram index surfaced and the non-zero cells.
pub fn row(
    trace: &Trace,
    reference: &ReferenceSet,
    query: &PreparedSampleFeatures,
    req: u64,
) -> Vec<f64> {
    let row = trace.time("similarity.row", 0, req, || {
        reference.feature_vector_prepared(query)
    });
    if trace.enabled() {
        trace.add("similarity.rows", 1);
        trace.add(
            "similarity.candidates",
            candidate_count(reference, query) as u64,
        );
        trace.add(
            "similarity.nonzero_cells",
            row.iter().filter(|&&x| x != 0.0).count() as u64,
        );
    }
    row
}

/// How many reference entries the gram index surfaces for `query`, summed
/// over the views: the lengths of its candidate lists, captured with
/// `candidate_cache` and read back by projecting them onto the same set
/// with the identity map.
pub fn candidate_count(reference: &ReferenceSet, query: &PreparedSampleFeatures) -> usize {
    let cache =
        reference.candidate_cache(std::slice::from_ref(query), ParallelConfig::with_threads(1));
    reference
        .project_candidates(&cache, 0, reference, |class, sample| Some((class, sample)))
        .iter()
        .map(Vec::len)
        .sum()
}

/// A classifier's verdict on one similarity row: the forest vote and the
/// confidence threshold, as the evaluation label and the class name.
pub fn vote(classifier: &TrainedClassifier, row: &[f64]) -> (usize, String) {
    let proba = Model::predict_proba(classifier.forest(), row);
    let eval = apply_threshold(&proba, classifier.confidence_threshold());
    let label = if eval == UNKNOWN_LABEL {
        "-1".to_string()
    } else {
        classifier.known_class_names()[eval - 1].clone()
    };
    (eval, label)
}

pub fn vote_traced(trace: &Trace, classifier: &TrainedClassifier, row: &[f64], req: u64) -> String {
    trace
        .time("forest.vote", 0, req, || vote(classifier, row))
        .1
}
