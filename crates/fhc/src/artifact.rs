//! Versioned on-disk artifacts for trained classifiers.
//!
//! Training is the expensive part of the pipeline (grid search, threshold
//! tuning, forest growing); serving is cheap. Persisting a
//! [`TrainedClassifier`] lets one process train and many processes classify.
//! The format is a hand-rolled binary encoding (`hpcutil::codec`) because
//! the build environment has no serialization crates:
//!
//! ```text
//! u64  magic          "FHCLSART" as little-endian bytes
//! u32  format version (currently 3)
//! u32+bytes  payload  (length-prefixed)
//! u64  FNV-1a checksum of the payload
//! ```
//!
//! The payload holds the root seed, the confidence threshold, the active
//! feature kinds, the reference hash set (class names + training-sample
//! fuzzy hashes), the forest parameters, every tree of the forest, and the
//! threshold-tuning curve. Decoding validates the magic, version, checksum,
//! and every length/index, so corrupt or truncated artifacts produce a
//! clean [`FhcError::Artifact`] instead of a panic.
//!
//! **Version 2** additionally persists the *prepared* similarity index of
//! every reference hash (run-eliminated signatures + sorted packed window
//! keys, see [`ssdeep::PreparedHash`]), so a loaded classifier serves at
//! full speed immediately — the index arrives ready-built with the
//! artifact and loading skips the per-hash preparation. Decoding enforces
//! the structural invariants of the prepared state (lengths, key counts,
//! sortedness); semantic integrity rests on the checksum like every other
//! field, and debug builds (hence the test suite) fully verify the state
//! derives from the hashes.
//!
//! **Version 3** changes only how the window keys are stored: the sorted
//! `u64` key sets are delta-encoded as varints
//! ([`hpcutil::ByteWriter::put_u64_delta_seq`]) instead of 8 raw bytes per
//! key, shrinking the dominant component of the prepared index to roughly
//! the entropy of the key gaps. It is the only version this build reads:
//! nothing has written versions 1 and 2 since version 3 shipped, and they
//! are refused as unsupported. The same prepared encoding carries queries
//! on the shard-serving wire (see [`crate::shardnet::wire`]).

use crate::config::FhcConfig;
use crate::error::FhcError;
use crate::features::{FeatureKind, PreparedSampleFeatures};
use crate::serving::{ServingConfig, TrainedClassifier};
use crate::similarity::ReferenceSet;
use crate::threshold::ThresholdPoint;
use hpcutil::codec::fnv1a64;
use hpcutil::{ByteReader, ByteWriter, CodecError};
use mlcore::forest::{RandomForest, RandomForestParams};
use ssdeep::{FuzzyHash, PreparedHash};
use std::path::Path;
use std::sync::Arc;

/// `"FHCLSART"` interpreted as a little-endian `u64`.
const MAGIC: u64 = u64::from_le_bytes(*b"FHCLSART");

/// Current artifact format version: 2 added the persisted prepared
/// similarity index; 3 delta-encodes its sorted window keys.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest artifact format version this build still reads.
pub const MIN_SUPPORTED_VERSION: u32 = 3;

fn encode_kind(kind: FeatureKind) -> u8 {
    match kind {
        FeatureKind::File => 0,
        FeatureKind::Strings => 1,
        FeatureKind::Symbols => 2,
    }
}

fn decode_kind(tag: u8) -> Result<FeatureKind, CodecError> {
    match tag {
        0 => Ok(FeatureKind::File),
        1 => Ok(FeatureKind::Strings),
        2 => Ok(FeatureKind::Symbols),
        other => Err(CodecError::new(format!("unknown feature kind tag {other}"))),
    }
}

fn encode_hash(w: &mut ByteWriter, hash: &FuzzyHash) {
    w.put_str(&hash.to_string());
}

fn decode_hash(r: &mut ByteReader<'_>) -> Result<FuzzyHash, CodecError> {
    let text = r.get_str()?;
    text.parse()
        .map_err(|e| CodecError::new(format!("invalid fuzzy hash {text:?}: {e}")))
}

/// One prepared hash = the original hash plus its precomputed comparison
/// state (run-eliminated signatures + delta-encoded sorted window keys).
fn encode_prepared_hash(w: &mut ByteWriter, prepared: &PreparedHash) {
    encode_hash(w, prepared.hash());
    w.put_str(prepared.primary().eliminated());
    w.put_u64_delta_seq(prepared.primary().keys());
    w.put_str(prepared.double().eliminated());
    w.put_u64_delta_seq(prepared.double().keys());
}

fn decode_prepared_hash(r: &mut ByteReader<'_>) -> Result<PreparedHash, CodecError> {
    let hash = decode_hash(r)?;
    let eliminated = r.get_str()?;
    let keys = r.get_u64_delta_seq()?;
    let eliminated_double = r.get_str()?;
    let keys_double = r.get_u64_delta_seq()?;
    PreparedHash::from_precomputed(hash, eliminated, keys, eliminated_double, keys_double)
        .map_err(CodecError::new)
}

/// Encode prepared sample features in the version-3 layout. Also
/// the on-wire form of a shard-serving score request
/// ([`crate::shardnet::wire`]).
pub(crate) fn encode_prepared_features(w: &mut ByteWriter, features: &PreparedSampleFeatures) {
    encode_prepared_hash(w, &features.file);
    encode_prepared_hash(w, &features.strings);
    match &features.symbols {
        None => w.put_bool(false),
        Some(prepared) => {
            w.put_bool(true);
            encode_prepared_hash(w, prepared);
        }
    }
}

/// Decode prepared sample features as laid out by
/// [`encode_prepared_features`].
pub(crate) fn decode_prepared_features(
    r: &mut ByteReader<'_>,
) -> Result<PreparedSampleFeatures, CodecError> {
    let file = decode_prepared_hash(r)?;
    let strings = decode_prepared_hash(r)?;
    let symbols = if r.get_bool()? {
        Some(decode_prepared_hash(r)?)
    } else {
        None
    };
    Ok(PreparedSampleFeatures {
        file,
        strings,
        symbols,
    })
}

fn encode_payload(classifier: &TrainedClassifier) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(classifier.seed);
    w.put_f64(classifier.confidence_threshold);

    let kinds = classifier.reference.kinds();
    w.put_usize(kinds.len());
    for &kind in kinds {
        w.put_u8(encode_kind(kind));
    }

    let reference = &classifier.reference;
    w.put_usize(reference.n_classes());
    for class in 0..reference.n_classes() {
        w.put_str(&reference.class_names()[class]);
        let samples = reference.prepared_class_features(class);
        w.put_usize(samples.len());
        for features in samples {
            encode_prepared_features(&mut w, features);
        }
    }

    classifier.forest_params.encode(&mut w);
    classifier.forest.encode(&mut w);

    w.put_usize(classifier.threshold_curve.len());
    for point in &classifier.threshold_curve {
        w.put_f64(point.threshold);
        w.put_f64(point.micro_f1);
        w.put_f64(point.macro_f1);
        w.put_f64(point.weighted_f1);
    }
    w.into_bytes()
}

fn decode_payload(payload: &[u8]) -> Result<TrainedClassifier, CodecError> {
    let mut r = ByteReader::new(payload);
    let seed = r.get_u64()?;
    let confidence_threshold = r.get_f64()?;

    let n_kinds = r.get_usize()?;
    if n_kinds == 0 || n_kinds > FeatureKind::ALL.len() {
        return Err(CodecError::new(format!(
            "invalid feature kind count {n_kinds}"
        )));
    }
    let mut kinds = Vec::with_capacity(n_kinds);
    for _ in 0..n_kinds {
        kinds.push(decode_kind(r.get_u8()?)?);
    }

    let n_classes = r.get_usize()?;
    if n_classes == 0 {
        return Err(CodecError::new("artifact has no known classes"));
    }
    let mut class_names = Vec::with_capacity(n_classes);
    let mut prepared_by_class: Vec<Vec<PreparedSampleFeatures>> = Vec::with_capacity(n_classes);
    for class in 0..n_classes {
        class_names.push(r.get_str()?);
        let n_samples = r.get_usize()?;
        if n_samples == 0 {
            return Err(CodecError::new(format!(
                "class {class} has no reference samples"
            )));
        }
        let mut prepared = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            // Decoding verifies the persisted prepared index derives from
            // the hashes (see PreparedHash::from_precomputed).
            prepared.push(decode_prepared_features(&mut r)?);
        }
        prepared_by_class.push(prepared);
    }
    let reference = Arc::new(ReferenceSet::from_prepared_parts(
        class_names,
        prepared_by_class,
        kinds,
    ));

    let forest_params = RandomForestParams::decode(&mut r)?;
    let forest = RandomForest::decode(&mut r)?;
    if forest.n_classes() != reference.n_classes() {
        return Err(CodecError::new(format!(
            "forest has {} classes but the reference set has {}",
            forest.n_classes(),
            reference.n_classes()
        )));
    }
    if forest.n_features() != reference.n_columns() {
        return Err(CodecError::new(format!(
            "forest expects {} features but the reference set produces {}",
            forest.n_features(),
            reference.n_columns()
        )));
    }

    let n_points = r.get_usize()?;
    let mut threshold_curve = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        threshold_curve.push(ThresholdPoint {
            threshold: r.get_f64()?,
            micro_f1: r.get_f64()?,
            macro_f1: r.get_f64()?,
            weighted_f1: r.get_f64()?,
        });
    }
    r.expect_end()?;

    // Parallelism and backend choice are per-process runtime concerns, not
    // part of the artifact; loaded classifiers start from the defaults (use
    // `from_bytes_with` / `load_with` to open under a different backend).
    let backend = crate::backend::BackendConfig::default().build(reference.clone());
    Ok(TrainedClassifier::from_parts(
        reference,
        backend,
        forest,
        forest_params,
        confidence_threshold,
        threshold_curve,
        seed,
        ServingConfig::default(),
    ))
}

impl TrainedClassifier {
    /// Encode the classifier into the versioned artifact format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = encode_payload(self);
        let mut w = ByteWriter::new();
        w.put_u64(MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_bytes(&payload);
        w.put_u64(fnv1a64(&payload));
        w.into_bytes()
    }

    /// Decode a classifier from artifact bytes, validating magic, version,
    /// checksum, and internal consistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, FhcError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_u64().map_err(codec_err)?;
        if magic != MAGIC {
            return Err(FhcError::Artifact(format!(
                "bad magic {magic:#018x}: not a trained-classifier artifact"
            )));
        }
        let version = r.get_u32().map_err(codec_err)?;
        if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(FhcError::Artifact(format!(
                "unsupported artifact format version {version} \
                 (this build reads {MIN_SUPPORTED_VERSION}..={FORMAT_VERSION})"
            )));
        }
        let payload = r.get_bytes().map_err(codec_err)?;
        let checksum = r.get_u64().map_err(codec_err)?;
        r.expect_end().map_err(codec_err)?;
        let actual = fnv1a64(&payload);
        if checksum != actual {
            return Err(FhcError::Artifact(format!(
                "checksum mismatch (stored {checksum:#018x}, computed {actual:#018x}): artifact is corrupt"
            )));
        }
        decode_payload(&payload).map_err(codec_err)
    }

    /// [`TrainedClassifier::from_bytes`], then apply the runtime layers of
    /// `config` (serving parallelism and similarity backend). The artifact
    /// format does not persist runtime choices, so any stored artifact can
    /// be opened under any backend — scores and predictions are identical
    /// under all of them. A remote backend that cannot be connected
    /// (unreachable or mismatched workers) is an error, not a panic.
    pub fn from_bytes_with(bytes: &[u8], config: &FhcConfig) -> Result<Self, FhcError> {
        let mut classifier = Self::from_bytes(bytes)?;
        classifier.try_apply_config(config)?;
        Ok(classifier)
    }

    /// Save the classifier to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), FhcError> {
        std::fs::write(path, self.to_bytes()).map_err(FhcError::Io)
    }

    /// Load a classifier previously written with [`TrainedClassifier::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, FhcError> {
        let bytes = std::fs::read(path).map_err(FhcError::Io)?;
        Self::from_bytes(&bytes)
    }

    /// [`TrainedClassifier::load`], then apply the runtime layers of
    /// `config` — the one-call way to open a stored artifact under a chosen
    /// backend and serving parallelism.
    pub fn load_with(path: impl AsRef<Path>, config: &FhcConfig) -> Result<Self, FhcError> {
        let bytes = std::fs::read(path).map_err(FhcError::Io)?;
        Self::from_bytes_with(&bytes, config)
    }
}

fn codec_err(e: CodecError) -> FhcError {
    FhcError::Artifact(e.to_string())
}

/// Magic prefix of a reference-set slice container
/// ([`ReferenceSet::encode_slice`]).
const SLICE_MAGIC: u64 = u64::from_le_bytes(*b"FHCSLICE");

impl ReferenceSet {
    /// Encode the reference samples of `classes` as one self-contained,
    /// checksummed *slice*: a per-class sub-artifact in the version-3
    /// prepared encoding, small enough to ship over the wire as a
    /// [`PushSlice`](crate::shardnet::wire::PushSlice) frame.
    ///
    /// Every slice carries the full-set geometry — active kinds, *all*
    /// class names, and the full set's [`ReferenceSet::fingerprint`] — plus
    /// the prepared samples of its own classes only. Any subset of a set's
    /// slices therefore reassembles (via [`ReferenceSet::from_slices`])
    /// into a sparse set with the full column layout, which is what lets a
    /// diskless shard worker serve its partition with slice-sized memory.
    ///
    /// `classes` must be non-empty, in range, and duplicate-free.
    pub fn encode_slice(&self, classes: &[usize]) -> Result<Vec<u8>, FhcError> {
        if classes.is_empty() {
            return Err(FhcError::Artifact(
                "a reference slice needs at least one class".into(),
            ));
        }
        let mut sorted = classes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != classes.len() {
            return Err(FhcError::Artifact(
                "a reference slice cannot list a class twice".into(),
            ));
        }
        if let Some(&bad) = sorted.iter().find(|&&c| c >= self.n_classes()) {
            return Err(FhcError::Artifact(format!(
                "slice class id {bad} out of range: the reference set has {} classes",
                self.n_classes()
            )));
        }

        let mut w = ByteWriter::new();
        w.put_u64(self.fingerprint());
        let kinds = self.kinds();
        w.put_usize(kinds.len());
        for &kind in kinds {
            w.put_u8(encode_kind(kind));
        }
        w.put_usize(self.n_classes());
        for name in self.class_names() {
            w.put_str(name);
        }
        w.put_usize(sorted.len());
        for &class in &sorted {
            let samples = self.prepared_class_features(class);
            w.put_usize(class);
            w.put_usize(samples.len());
            for features in samples {
                encode_prepared_features(&mut w, features);
            }
        }
        let payload = w.into_bytes();

        let mut out = ByteWriter::new();
        out.put_u64(SLICE_MAGIC);
        out.put_u32(FORMAT_VERSION);
        out.put_bytes(&payload);
        out.put_u64(fnv1a64(&payload));
        Ok(out.into_bytes())
    }

    /// Reassemble slices produced by [`ReferenceSet::encode_slice`] into a
    /// reference set, returning it with the *declared* full-set fingerprint
    /// every slice carried.
    ///
    /// Each slice is checksum-verified on its own; across slices the
    /// declared fingerprint, active kinds, and class names must agree, and
    /// no class may arrive twice. Classes no slice covers stay empty — the
    /// set keeps the full column geometry but scores only what it holds,
    /// exactly the sparse state a shard worker serving a partition needs.
    /// If the slices happen to cover *every* class, the reassembled set's
    /// own fingerprint is recomputed and must equal the declared one; a
    /// partial set cannot be re-fingerprinted (the fingerprint walks every
    /// sample), so there the declared value is trusted and integrity rides
    /// on the per-slice checksums.
    pub fn from_slices(slices: &[Vec<u8>]) -> Result<(Self, u64), FhcError> {
        let first = decode_slice(slices.first().ok_or_else(|| {
            FhcError::Artifact("cannot assemble a reference set from zero slices".into())
        })?)?;
        let mut prepared_by_class: Vec<Vec<PreparedSampleFeatures>> =
            vec![Vec::new(); first.class_names.len()];
        for slice in slices.iter().skip(1).map(|s| decode_slice(s)) {
            let slice = slice?;
            if slice.fingerprint != first.fingerprint {
                return Err(FhcError::Artifact(format!(
                    "slice fingerprint mismatch: {:#018x} vs {:#018x} — \
                     the slices come from different reference sets",
                    slice.fingerprint, first.fingerprint
                )));
            }
            if slice.kinds != first.kinds || slice.class_names != first.class_names {
                return Err(FhcError::Artifact(
                    "slice geometry mismatch: kinds or class names differ across slices".into(),
                ));
            }
            merge_slice_classes(&mut prepared_by_class, slice.owned)?;
        }
        merge_slice_classes(&mut prepared_by_class, first.owned)?;

        let full = prepared_by_class.iter().all(|samples| !samples.is_empty());
        let set =
            ReferenceSet::from_prepared_parts(first.class_names, prepared_by_class, first.kinds);
        if full {
            let actual = set.fingerprint();
            if actual != first.fingerprint {
                return Err(FhcError::Artifact(format!(
                    "reassembled reference set fingerprints to {actual:#018x}, \
                     but the slices declared {:#018x}",
                    first.fingerprint
                )));
            }
        }
        Ok((set, first.fingerprint))
    }
}

/// One decoded slice container, pre-merge.
struct DecodedSlice {
    fingerprint: u64,
    kinds: Vec<FeatureKind>,
    class_names: Vec<String>,
    /// `(class id, prepared samples)` for each class the slice owns.
    owned: Vec<(usize, Vec<PreparedSampleFeatures>)>,
}

/// Place each owned class of a slice into the assembly, rejecting a class
/// that two slices both claim.
fn merge_slice_classes(
    prepared_by_class: &mut [Vec<PreparedSampleFeatures>],
    owned: Vec<(usize, Vec<PreparedSampleFeatures>)>,
) -> Result<(), FhcError> {
    for (class, samples) in owned {
        let cell = &mut prepared_by_class[class];
        if !cell.is_empty() {
            return Err(FhcError::Artifact(format!(
                "class {class} arrives in more than one slice"
            )));
        }
        *cell = samples;
    }
    Ok(())
}

/// Validate a slice container (magic, version, checksum) and decode its
/// payload.
fn decode_slice(bytes: &[u8]) -> Result<DecodedSlice, FhcError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.get_u64().map_err(codec_err)?;
    if magic != SLICE_MAGIC {
        return Err(FhcError::Artifact(format!(
            "bad magic {magic:#018x}: not a reference-set slice"
        )));
    }
    let version = r.get_u32().map_err(codec_err)?;
    if version != FORMAT_VERSION {
        return Err(FhcError::Artifact(format!(
            "unsupported slice format version {version} (this build writes {FORMAT_VERSION})"
        )));
    }
    let payload = r.get_bytes().map_err(codec_err)?;
    let checksum = r.get_u64().map_err(codec_err)?;
    r.expect_end().map_err(codec_err)?;
    let actual = fnv1a64(&payload);
    if checksum != actual {
        return Err(FhcError::Artifact(format!(
            "slice checksum mismatch (stored {checksum:#018x}, computed {actual:#018x})"
        )));
    }
    decode_slice_payload(&payload).map_err(codec_err)
}

fn decode_slice_payload(payload: &[u8]) -> Result<DecodedSlice, CodecError> {
    let mut r = ByteReader::new(payload);
    let fingerprint = r.get_u64()?;
    let n_kinds = r.get_usize()?;
    if n_kinds == 0 || n_kinds > FeatureKind::ALL.len() {
        return Err(CodecError::new(format!(
            "invalid feature kind count {n_kinds}"
        )));
    }
    let mut kinds = Vec::with_capacity(n_kinds);
    for _ in 0..n_kinds {
        kinds.push(decode_kind(r.get_u8()?)?);
    }
    let n_classes = r.get_usize()?;
    if n_classes == 0 {
        return Err(CodecError::new("slice declares zero classes"));
    }
    // Every class name costs at least its 4-byte length prefix, so the
    // count is validated against the remaining payload before allocating.
    if r.remaining() < n_classes.saturating_mul(4) {
        return Err(CodecError::new(format!(
            "slice claims {n_classes} classes but only {} bytes remain",
            r.remaining()
        )));
    }
    let mut class_names = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        class_names.push(r.get_str()?);
    }
    let n_owned = r.get_usize()?;
    if n_owned == 0 || n_owned > n_classes {
        return Err(CodecError::new(format!(
            "slice owns {n_owned} of {n_classes} classes"
        )));
    }
    let mut owned = Vec::with_capacity(n_owned);
    for _ in 0..n_owned {
        let class = r.get_usize()?;
        if class >= n_classes {
            return Err(CodecError::new(format!(
                "slice owns class {class}, but only {n_classes} classes exist"
            )));
        }
        let n_samples = r.get_usize()?;
        if n_samples == 0 {
            return Err(CodecError::new(format!(
                "slice owns class {class} with zero reference samples"
            )));
        }
        // Every prepared sample costs at least one byte.
        if r.remaining() < n_samples {
            return Err(CodecError::new(format!(
                "class {class} claims {n_samples} samples but only {} bytes remain",
                r.remaining()
            )));
        }
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            samples.push(decode_prepared_features(&mut r)?);
        }
        owned.push((class, samples));
    }
    r.expect_end()?;
    Ok(DecodedSlice {
        fingerprint,
        kinds,
        class_names,
        owned,
    })
}

/// Magic prefix of an artifact-delta container ([`ArtifactDelta`]).
const DELTA_MAGIC: u64 = u64::from_le_bytes(*b"FHCDELTA");

/// A checksummed patch between two reference sets, layered on the
/// per-class slice codec: retire these classes (by name), then add these
/// slices — [`ReferenceSet::encode_slice`] outputs of the *target* set.
///
/// A delta names its base by fingerprint, so it can never be applied to
/// the wrong set: [`ArtifactDelta::apply`] refuses a base whose declared
/// fingerprint differs (the stale-base rejection), and after patching a
/// fully-held set the evolved fingerprint must recompute to the declared
/// target. Changed classes travel as retire-then-re-add, so a delta's
/// size tracks what actually changed — which is what lets a fleet patch
/// a diskless worker over the wire
/// ([`PushDelta`](crate::shardnet::wire::PushDelta)) instead of
/// re-pushing every class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactDelta {
    /// Fingerprint the base set must declare for the delta to apply.
    pub base_fingerprint: u64,
    /// Fingerprint the evolved set declares (and, when fully held,
    /// recomputes to) after applying.
    pub target_fingerprint: u64,
    /// Class names retired from the base, in application order.
    pub retire_classes: Vec<String>,
    /// Per-class slices of the target set added after the retires, in
    /// application order.
    pub add_slices: Vec<Vec<u8>>,
}

impl ArtifactDelta {
    /// Diff two reference sets into the minimal retire/add patch: classes
    /// are matched by name and compared by content (the class's slice of
    /// the fingerprint input), so removed and changed classes retire,
    /// while new and changed classes add. When the surviving base order
    /// cannot reproduce the target's class order (a reorder), the delta
    /// falls back to full replacement — correct, just not minimal.
    pub fn between(base: &ReferenceSet, target: &ReferenceSet) -> Result<Self, FhcError> {
        if base.kinds() != target.kinds() {
            return Err(FhcError::Artifact(
                "cannot diff reference sets with different active feature kinds".into(),
            ));
        }
        let base_keys: Vec<u64> = (0..base.n_classes())
            .map(|c| base.class_content_key(c))
            .collect();
        let target_keys: Vec<u64> = (0..target.n_classes())
            .map(|c| target.class_content_key(c))
            .collect();
        let mut retire: Vec<String> = Vec::new();
        for (c, name) in base.class_names().iter().enumerate() {
            let unchanged = target
                .class_id(name)
                .is_some_and(|t| target_keys[t] == base_keys[c]);
            if !unchanged {
                retire.push(name.clone());
            }
        }
        let mut add: Vec<usize> = Vec::new();
        for (t, name) in target.class_names().iter().enumerate() {
            let unchanged = base
                .class_id(name)
                .is_some_and(|b| base_keys[b] == target_keys[t]);
            if !unchanged {
                add.push(t);
            }
        }
        // Application order is survivors-then-adds; if that is not the
        // target's class order, replace everything.
        let mut final_names: Vec<&String> = base
            .class_names()
            .iter()
            .filter(|name| !retire.contains(name))
            .collect();
        final_names.extend(add.iter().map(|&t| &target.class_names()[t]));
        if final_names.into_iter().ne(target.class_names()) {
            retire = base.class_names().to_vec();
            add = (0..target.n_classes()).collect();
        }
        if let Some(&empty) = add
            .iter()
            .find(|&&t| target.prepared_class_features(t).is_empty())
        {
            return Err(FhcError::Artifact(format!(
                "cannot diff: target class {:?} has no reference samples",
                target.class_names()[empty]
            )));
        }
        let add_slices = add
            .iter()
            .map(|&t| target.encode_slice(&[t]))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            base_fingerprint: base.fingerprint(),
            target_fingerprint: target.fingerprint(),
            retire_classes: retire,
            add_slices,
        })
    }

    /// Patch `base` (declaring fingerprint `declared`) into the target
    /// set: verify the base matches, retire by name, add each slice's
    /// classes, and return the evolved set with its new declared
    /// fingerprint.
    ///
    /// A fully-held result (every class non-empty) is re-fingerprinted
    /// and must equal the declared target. A *partially*-held base — a
    /// shard worker's sparse slice assembly — cannot be re-fingerprinted
    /// (the fingerprint walks every sample), so there the declared value
    /// is trusted and integrity rides on the per-slice checksums, exactly
    /// as in [`ReferenceSet::from_slices`].
    pub fn apply(
        &self,
        base: &ReferenceSet,
        declared: u64,
    ) -> Result<(ReferenceSet, u64), FhcError> {
        if declared != self.base_fingerprint {
            return Err(FhcError::Artifact(format!(
                "stale base: the delta patches {:#018x}, but the base set declares {declared:#018x}",
                self.base_fingerprint
            )));
        }
        let mut evolved = base.clone();
        for name in &self.retire_classes {
            let class = evolved.class_id(name).ok_or_else(|| {
                FhcError::Artifact(format!(
                    "delta retires class {name:?}, which the base set does not hold"
                ))
            })?;
            evolved.retire_class(class)?;
        }
        for bytes in &self.add_slices {
            let DecodedSlice {
                fingerprint,
                kinds,
                class_names,
                owned,
            } = decode_slice(bytes)?;
            if fingerprint != self.target_fingerprint {
                return Err(FhcError::Artifact(format!(
                    "delta add-slice declares fingerprint {fingerprint:#018x}, \
                     but the delta targets {:#018x}",
                    self.target_fingerprint
                )));
            }
            if kinds != evolved.kinds() {
                return Err(FhcError::Artifact(
                    "delta add-slice has different active feature kinds than the base".into(),
                ));
            }
            for (class, samples) in owned {
                evolved.add_class(class_names[class].clone(), samples)?;
            }
        }
        if evolved.n_classes() == 0 {
            return Err(FhcError::Artifact(
                "the delta retires every class and adds none".into(),
            ));
        }
        let full = (0..evolved.n_classes()).all(|c| !evolved.prepared_class_features(c).is_empty());
        if full {
            let actual = evolved.fingerprint();
            if actual != self.target_fingerprint {
                return Err(FhcError::Artifact(format!(
                    "patched reference set fingerprints to {actual:#018x}, \
                     but the delta declared {:#018x}",
                    self.target_fingerprint
                )));
            }
        }
        Ok((evolved, self.target_fingerprint))
    }

    /// Encode into the checksummed delta container (same container shape
    /// as artifacts and slices: magic, version, length-prefixed payload,
    /// FNV-1a checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.base_fingerprint);
        w.put_u64(self.target_fingerprint);
        w.put_usize(self.retire_classes.len());
        for name in &self.retire_classes {
            w.put_str(name);
        }
        w.put_usize(self.add_slices.len());
        for slice in &self.add_slices {
            w.put_bytes(slice);
        }
        let payload = w.into_bytes();
        let mut out = ByteWriter::new();
        out.put_u64(DELTA_MAGIC);
        out.put_u32(FORMAT_VERSION);
        out.put_bytes(&payload);
        out.put_u64(fnv1a64(&payload));
        out.into_bytes()
    }

    /// Decode a delta container, validating magic, version, checksum, and
    /// every count against the remaining payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, FhcError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_u64().map_err(codec_err)?;
        if magic != DELTA_MAGIC {
            return Err(FhcError::Artifact(format!(
                "bad magic {magic:#018x}: not an artifact delta"
            )));
        }
        let version = r.get_u32().map_err(codec_err)?;
        if version != FORMAT_VERSION {
            return Err(FhcError::Artifact(format!(
                "unsupported delta format version {version} (this build writes {FORMAT_VERSION})"
            )));
        }
        let payload = r.get_bytes().map_err(codec_err)?;
        let checksum = r.get_u64().map_err(codec_err)?;
        r.expect_end().map_err(codec_err)?;
        let actual = fnv1a64(&payload);
        if checksum != actual {
            return Err(FhcError::Artifact(format!(
                "delta checksum mismatch (stored {checksum:#018x}, computed {actual:#018x})"
            )));
        }
        Self::decode_payload(&payload).map_err(codec_err)
    }

    fn decode_payload(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(payload);
        let base_fingerprint = r.get_u64()?;
        let target_fingerprint = r.get_u64()?;
        let n_retire = r.get_usize()?;
        // Every retired name costs at least its 4-byte length prefix.
        if r.remaining() < n_retire.saturating_mul(4) {
            return Err(CodecError::new(format!(
                "delta retires {n_retire} classes but only {} bytes remain",
                r.remaining()
            )));
        }
        let mut retire_classes = Vec::with_capacity(n_retire);
        for _ in 0..n_retire {
            retire_classes.push(r.get_str()?);
        }
        let n_add = r.get_usize()?;
        // Every add slice costs at least its 4-byte length prefix.
        if r.remaining() < n_add.saturating_mul(4) {
            return Err(CodecError::new(format!(
                "delta adds {n_add} slices but only {} bytes remain",
                r.remaining()
            )));
        }
        let mut add_slices = Vec::with_capacity(n_add);
        for _ in 0..n_add {
            add_slices.push(r.get_bytes()?);
        }
        r.expect_end()?;
        Ok(Self {
            base_fingerprint,
            target_fingerprint,
            retire_classes,
            add_slices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::SampleFeatures;
    use crate::pipeline::{FuzzyHashClassifier, PipelineConfig};
    use corpus::{Catalog, CorpusBuilder};

    fn trained() -> (corpus::Corpus, TrainedClassifier) {
        let corpus = CorpusBuilder::new(8).build(&Catalog::paper().scaled(0.02));
        let config = FhcConfig::new().pipeline(PipelineConfig {
            seed: 8,
            forest: mlcore::forest::RandomForestParams {
                n_estimators: 15,
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
    fn roundtrip_preserves_everything_observable() {
        let (corpus, original) = trained();
        let bytes = original.to_bytes();
        let restored = TrainedClassifier::from_bytes(&bytes).expect("roundtrip decodes");

        assert_eq!(restored.seed(), original.seed());
        assert_eq!(
            restored.confidence_threshold(),
            original.confidence_threshold()
        );
        assert_eq!(restored.known_class_names(), original.known_class_names());
        assert_eq!(restored.feature_kinds(), original.feature_kinds());
        assert_eq!(restored.forest_params(), original.forest_params());
        assert_eq!(restored.threshold_curve(), original.threshold_curve());
        assert_eq!(
            restored.forest().feature_importances(),
            original.forest().feature_importances()
        );

        for spec in corpus.samples().iter().step_by(23) {
            let bytes = corpus.generate_bytes(spec);
            assert_eq!(restored.classify(&bytes), original.classify(&bytes));
        }
    }

    fn slice_reference() -> ReferenceSet {
        use crate::features::SampleFeatures;
        let train = vec![
            SampleFeatures::extract(b"velvet assembler body sample number one"),
            SampleFeatures::extract(b"velvet assembler body sample number two"),
            SampleFeatures::extract(b"openmalaria epidemic simulation payload"),
            SampleFeatures::extract(b"gromacs molecular dynamics trajectory"),
        ];
        ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into(), "Gromacs".into()],
            &train,
            &[0, 0, 1, 2],
            &crate::features::FeatureKind::ALL,
        )
    }

    #[test]
    fn per_class_slices_reassemble_into_an_identical_full_set() {
        let original = slice_reference();
        let slices: Vec<Vec<u8>> = (0..original.n_classes())
            .map(|class| original.encode_slice(&[class]).expect("slice encodes"))
            .collect();
        let (rebuilt, declared) = ReferenceSet::from_slices(&slices).expect("slices assemble");
        assert_eq!(declared, original.fingerprint());
        // Full coverage: the reassembled set re-fingerprints identically.
        assert_eq!(rebuilt.fingerprint(), original.fingerprint());
        assert_eq!(rebuilt.class_names(), original.class_names());
        let query = crate::features::PreparedSampleFeatures::prepare(
            &crate::features::SampleFeatures::extract(b"an unknown probe body"),
        );
        assert_eq!(
            rebuilt.feature_vector_prepared(&query),
            original.feature_vector_prepared(&query)
        );
    }

    #[test]
    fn a_partial_slice_set_keeps_full_geometry_and_scores_only_its_classes() {
        let original = slice_reference();
        let slice = original.encode_slice(&[1]).expect("slice encodes");
        let (sparse, declared) = ReferenceSet::from_slices(&[slice]).expect("one slice assembles");
        assert_eq!(declared, original.fingerprint());
        assert_eq!(sparse.n_classes(), original.n_classes());
        assert_eq!(sparse.n_columns(), original.n_columns());
        assert!(!sparse.prepared_class_features(1).is_empty());
        assert!(sparse.prepared_class_features(0).is_empty());
        assert!(sparse.prepared_class_features(2).is_empty());
        // The owned class scores exactly as the full set does.
        let query = crate::features::PreparedSampleFeatures::prepare(
            &crate::features::SampleFeatures::extract(b"openmalaria-like probe"),
        );
        let full_row = original.feature_vector_prepared(&query);
        let sparse_row = sparse.feature_vector_prepared(&query);
        let kinds = original.kinds().len();
        for k in 0..kinds {
            assert_eq!(
                sparse_row[kinds + k],
                full_row[kinds + k],
                "class 1 column {k}"
            );
        }
    }

    #[test]
    fn malformed_and_mismatched_slices_are_rejected() {
        let original = slice_reference();

        // Argument validation.
        assert!(original.encode_slice(&[]).is_err());
        assert!(original.encode_slice(&[0, 0]).is_err());
        assert!(original.encode_slice(&[99]).is_err());
        assert!(ReferenceSet::from_slices(&[]).is_err());

        // The same class arriving twice.
        let slice = original.encode_slice(&[0]).expect("slice encodes");
        assert!(ReferenceSet::from_slices(&[slice.clone(), slice.clone()]).is_err());

        // A corrupted byte trips the per-slice checksum.
        let mut corrupt = slice.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(ReferenceSet::from_slices(&[corrupt]).is_err());

        // Slices from a different reference set (different fingerprint).
        use crate::features::SampleFeatures;
        let other = ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into(), "Gromacs".into()],
            &[
                SampleFeatures::extract(b"a completely different training corpus"),
                SampleFeatures::extract(b"with different bytes in every sample"),
                SampleFeatures::extract(b"and therefore a different fingerprint"),
            ],
            &[0, 1, 2],
            &crate::features::FeatureKind::ALL,
        );
        let foreign = other.encode_slice(&[1]).expect("slice encodes");
        assert!(ReferenceSet::from_slices(&[slice, foreign]).is_err());
    }

    fn extract_prepared(bodies: &[&[u8]]) -> Vec<PreparedSampleFeatures> {
        bodies
            .iter()
            .map(|b| PreparedSampleFeatures::prepare(&SampleFeatures::extract(b)))
            .collect()
    }

    #[test]
    fn delta_patches_base_to_target_identically() {
        let base = slice_reference();
        // Target: OpenMalaria retired, Gromacs extended (changed content),
        // Hmmer brand new. A changed class re-travels as retire + add, so
        // only order-preserving mutations stay incremental.
        let mut target = base.clone();
        target.retire_class(1).expect("retire OpenMalaria");
        target
            .add_samples(
                1,
                extract_prepared(&[b"gromacs molecular dynamics second trajectory"]),
            )
            .expect("extend Gromacs");
        target
            .add_class(
                "Hmmer".into(),
                extract_prepared(&[b"hmmer profile hidden markov model search"]),
            )
            .expect("add Hmmer");

        let delta = ArtifactDelta::between(&base, &target).expect("diff");
        // Velvet is untouched, so it must not travel.
        assert_eq!(delta.retire_classes, vec!["OpenMalaria", "Gromacs"]);
        assert_eq!(delta.add_slices.len(), 2, "Gromacs re-add + Hmmer");
        assert_eq!(delta.base_fingerprint, base.fingerprint());
        assert_eq!(delta.target_fingerprint, target.fingerprint());

        // Container round-trip.
        let decoded = ArtifactDelta::decode(&delta.encode()).expect("decode");
        assert_eq!(decoded, delta);

        // Applying reproduces the target exactly.
        let (evolved, declared) = decoded.apply(&base, base.fingerprint()).expect("apply");
        assert_eq!(declared, target.fingerprint());
        assert_eq!(evolved.fingerprint(), target.fingerprint());
        assert_eq!(evolved.class_names(), target.class_names());
        let query = PreparedSampleFeatures::prepare(&SampleFeatures::extract(
            b"a probe resembling nothing in particular",
        ));
        assert_eq!(
            evolved.feature_vector_prepared(&query),
            target.feature_vector_prepared(&query)
        );
    }

    #[test]
    fn delta_between_identical_sets_is_empty() {
        let base = slice_reference();
        let delta = ArtifactDelta::between(&base, &base).expect("diff");
        assert!(delta.retire_classes.is_empty());
        assert!(delta.add_slices.is_empty());
        assert_eq!(delta.base_fingerprint, delta.target_fingerprint);
        let (evolved, _) = delta.apply(&base, base.fingerprint()).expect("apply");
        assert_eq!(evolved.fingerprint(), base.fingerprint());
    }

    #[test]
    fn delta_reorder_falls_back_to_full_replacement() {
        let base = slice_reference();
        // Same content, different class order: survivors cannot reproduce
        // it, so everything must travel.
        let reordered = ReferenceSet::from_prepared_parts(
            vec!["Gromacs".into(), "Velvet".into(), "OpenMalaria".into()],
            vec![
                base.prepared_class_features(2).to_vec(),
                base.prepared_class_features(0).to_vec(),
                base.prepared_class_features(1).to_vec(),
            ],
            base.kinds().to_vec(),
        );
        let delta = ArtifactDelta::between(&base, &reordered).expect("diff");
        assert_eq!(delta.retire_classes.len(), base.n_classes());
        assert_eq!(delta.add_slices.len(), reordered.n_classes());
        let (evolved, _) = delta.apply(&base, base.fingerprint()).expect("apply");
        assert_eq!(evolved.fingerprint(), reordered.fingerprint());
        assert_eq!(evolved.class_names(), reordered.class_names());
    }

    #[test]
    fn stale_or_mismatched_deltas_are_rejected() {
        let base = slice_reference();
        let mut target = base.clone();
        target
            .add_class(
                "Hmmer".into(),
                extract_prepared(&[b"hmmer profile hidden markov model search"]),
            )
            .expect("add Hmmer");
        let delta = ArtifactDelta::between(&base, &target).expect("diff");

        // Stale base: wrong declared fingerprint.
        let stale = delta.apply(&base, base.fingerprint() ^ 1);
        match stale {
            Err(FhcError::Artifact(message)) => {
                assert!(message.contains("stale base"), "got {message:?}")
            }
            other => panic!("expected a stale-base rejection, got {other:?}"),
        }

        // Applying to the wrong set entirely (already-patched target).
        assert!(delta.apply(&target, target.fingerprint()).is_err());

        // A delta retiring a class the base does not hold.
        let bad = ArtifactDelta {
            base_fingerprint: base.fingerprint(),
            target_fingerprint: base.fingerprint(),
            retire_classes: vec!["NotAClass".into()],
            add_slices: Vec::new(),
        };
        assert!(bad.apply(&base, base.fingerprint()).is_err());

        // Container corruption and truncation fail cleanly.
        let good = delta.encode();
        let mut corrupt = good.clone();
        let mid = good.len() / 2;
        corrupt[mid] ^= 0x10;
        assert!(ArtifactDelta::decode(&corrupt).is_err());
        for cut in [0, 4, 8, 12, 20, good.len() / 2, good.len() - 1] {
            assert!(ArtifactDelta::decode(&good[..cut]).is_err(), "cut {cut}");
        }

        // Bad magic / version.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(ArtifactDelta::decode(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[8] = 0xEE;
        assert!(ArtifactDelta::decode(&bad_version).is_err());
    }

    #[test]
    fn format_version_is_bumped_for_the_delta_keys() {
        assert_eq!(FORMAT_VERSION, 3);
        assert_eq!(MIN_SUPPORTED_VERSION, 3);
        let (_, original) = trained();
        // Byte 8 of the container is the version field.
        assert_eq!(original.to_bytes()[8], 3);
    }

    #[test]
    fn version_1_and_2_artifacts_are_refused_as_unsupported() {
        let (_, original) = trained();
        for retired in [1u8, 2] {
            // The version field sits outside the checksummed payload, so
            // only the version check can refuse these bytes.
            let mut bytes = original.to_bytes();
            bytes[8] = retired;
            match TrainedClassifier::from_bytes(&bytes) {
                Err(FhcError::Artifact(message)) => assert!(
                    message.contains(&format!("unsupported artifact format version {retired}")),
                    "got: {message}"
                ),
                other => panic!("version {retired} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_bytes_are_rejected_cleanly() {
        let (_, original) = trained();
        let good = original.to_bytes();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            TrainedClassifier::from_bytes(&bad),
            Err(FhcError::Artifact(_))
        ));

        // Unsupported version.
        let mut bad = good.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            TrainedClassifier::from_bytes(&bad),
            Err(FhcError::Artifact(_))
        ));

        // Payload corruption must trip the checksum.
        let mut bad = good.clone();
        let mid = good.len() / 2;
        bad[mid] ^= 0x01;
        assert!(matches!(
            TrainedClassifier::from_bytes(&bad),
            Err(FhcError::Artifact(_))
        ));

        // Truncations at every region boundary fail cleanly.
        for cut in [0, 4, 8, 12, 40, good.len() / 2, good.len() - 1] {
            assert!(
                TrainedClassifier::from_bytes(&good[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let (corpus, original) = trained();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fhc-artifact-test-{}.fhc", std::process::id()));
        original.save(&path).expect("save succeeds");
        let restored = TrainedClassifier::load(&path).expect("load succeeds");
        std::fs::remove_file(&path).ok();

        let spec = &corpus.samples()[1];
        let sample = corpus.generate_bytes(spec);
        assert_eq!(restored.classify(&sample), original.classify(&sample));
    }

    #[test]
    fn artifacts_open_under_any_backend_with_identical_predictions() {
        use crate::backend::BackendConfig;
        let (corpus, original) = trained();
        let bytes = original.to_bytes();
        let baseline = TrainedClassifier::from_bytes(&bytes).expect("decode");
        assert_eq!(baseline.backend_config(), BackendConfig::Indexed);

        let probes: Vec<Vec<u8>> = corpus
            .samples()
            .iter()
            .step_by(37)
            .map(|s| corpus.generate_bytes(s))
            .collect();
        // Two loopback workers serving the same artifact, as a fleet.
        let fleet = BackendConfig::remote((0..2).map(|_| {
            let listener =
                std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback worker");
            let endpoint =
                crate::shardnet::Endpoint::Tcp(listener.local_addr().unwrap().to_string());
            let worker = std::sync::Arc::new(crate::shardnet::ShardWorker::all_classes(
                original.reference_shared(),
            ));
            std::thread::spawn(move || crate::shardnet::worker::serve_tcp(worker, listener));
            endpoint
        }));
        for backend in [BackendConfig::Scan, fleet.clone()] {
            let config = FhcConfig::new().backend(backend.clone());
            let opened =
                TrainedClassifier::from_bytes_with(&bytes, &config).expect("decode with backend");
            assert_eq!(opened.backend_config(), backend);
            for probe in &probes {
                assert_eq!(
                    opened.classify(probe),
                    baseline.classify(probe),
                    "backend {backend} diverged"
                );
            }
            // The backend is runtime-only: re-encoding under any backend is
            // byte-identical, so the v2 format is unchanged.
            assert_eq!(opened.to_bytes(), bytes);
        }

        // And the same through the filesystem entry point.
        let path = std::env::temp_dir().join(format!(
            "fhc-artifact-backend-test-{}.fhc",
            std::process::id()
        ));
        original.save(&path).expect("save");
        let remote = TrainedClassifier::load_with(&path, &FhcConfig::new().backend(fleet.clone()))
            .expect("load_with");
        std::fs::remove_file(&path).ok();
        assert_eq!(remote.backend_config(), fleet);
        assert_eq!(remote.classify(&probes[0]), baseline.classify(&probes[0]));
    }

    #[test]
    fn missing_file_is_io_error() {
        let missing = std::env::temp_dir().join("fhc-definitely-missing-artifact.fhc");
        assert!(matches!(
            TrainedClassifier::load(&missing),
            Err(FhcError::Io(_))
        ));
    }
}
