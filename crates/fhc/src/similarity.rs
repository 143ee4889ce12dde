//! The similarity feature matrix.
//!
//! The paper: "We compute a feature matrix for our dataset based on the
//! SSDeep fuzzy hash similarity between sample features." Concretely, the
//! Random Forest needs a fixed-length numeric vector per sample. We give it,
//! for every *known* application class and every hash view, the maximum
//! SSDeep similarity between the sample and that class's training samples:
//!
//! ```text
//! x[sample] = [ max_sim(file,   class_0), ..., max_sim(file,   class_K-1),
//!               max_sim(strings,class_0), ..., max_sim(strings,class_K-1),
//!               max_sim(symbols,class_0), ..., max_sim(symbols,class_K-1) ]
//! ```
//!
//! Grouping columns by hash view is what lets the pipeline aggregate the
//! forest's per-column importances into the three per-feature numbers of the
//! paper's Table 5.
//!
//! # The precomputed similarity index
//!
//! The reference set is *static* once built, so [`ReferenceSet::new`]
//! prepares every reference hash up front ([`ssdeep::PreparedHash`]: run
//! elimination + sorted packed window keys, paid once) and builds an
//! **inverted gram index** per view: window key → posting list of the
//! reference hashes containing it, per block size and signature channel.
//! A non-zero SSDeep score requires a shared 7-byte window (the
//! common-substring guard), so probing a query's own ≤ 64 window keys
//! against the posting lists of the compatible block sizes (equal, double,
//! half — everything else scores 0 by the block-size rule) surfaces
//! *exactly* the references that can score above 0; the rest of the
//! reference set is never touched. Each surfaced candidate then runs the
//! budget-pruned comparison: the class's running maximum similarity is
//! threaded down as an early-exit score budget
//! ([`ssdeep::compare_prepared_min`] over the bounded `ssdeep::fastdist`
//! kernel), so a reference that cannot beat the best score seen so far is
//! mostly rejected by a lower bound before any DP. Scores are byte-identical to the unindexed scan
//! ([`ReferenceSet::feature_vector_scan`] keeps the plain `ssdeep::compare`
//! path as a verification oracle).

use crate::error::FhcError;
use crate::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use hpcutil::codec::fnv1a64;
use hpcutil::{par_map_indexed, ByteWriter, ParallelConfig};
use ssdeep::compare::MIN_COMMON_SUBSTRING;
use ssdeep::{compare_prepared_min, FuzzyHash, PreparedHash};
use std::collections::{BTreeMap, BTreeSet};

/// CSR posting lists over the unique sorted window keys of one signature
/// channel (primary or double) at one block size: `postings[starts[i] ..
/// starts[i + 1]]` are the entry ids of the reference hashes containing
/// `keys[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GramPostings {
    keys: Vec<u64>,
    starts: Vec<u32>,
    postings: Vec<u32>,
}

impl GramPostings {
    /// Build from raw `(window key, entry id)` pairs.
    fn build(mut pairs: Vec<(u64, u32)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup(); // a signature can repeat a 7-gram; index each once
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        let mut postings = Vec::with_capacity(pairs.len());
        for (key, entry) in pairs {
            if keys.last() != Some(&key) {
                keys.push(key);
                starts.push(postings.len() as u32);
            }
            postings.push(entry);
        }
        starts.push(postings.len() as u32);
        Self {
            keys,
            starts,
            postings,
        }
    }

    /// The bucket a rebuild creates for a block size none of whose hashes
    /// carry window keys: no keys, no postings, the single sentinel start.
    fn empty() -> Self {
        Self::build(Vec::new())
    }

    /// Shift every posting id at or past `at` up by `by` — the id-space
    /// splice that precedes inserting `by` new entries at `at`. The shift
    /// is monotone, so every posting list stays sorted in place.
    fn shift_from(&mut self, at: u32, by: u32) {
        for entry in &mut self.postings {
            if *entry >= at {
                *entry += by;
            }
        }
    }

    /// Merge raw `(window key, entry id)` pairs into the lists — a linear
    /// two-stream merge, no global re-sort. The caller guarantees the new
    /// entry ids are fresh (just spliced into the id space), so the result
    /// is exactly [`GramPostings::build`] over the union of pairs.
    fn merge(&mut self, mut pairs: Vec<(u64, u32)>) {
        pairs.sort_unstable();
        pairs.dedup(); // a signature can repeat a 7-gram; index each once
        if pairs.is_empty() {
            return;
        }
        fn push(
            keys: &mut Vec<u64>,
            starts: &mut Vec<u32>,
            postings: &mut Vec<u32>,
            pair: (u64, u32),
        ) {
            if keys.last() != Some(&pair.0) {
                keys.push(pair.0);
                starts.push(postings.len() as u32);
            }
            postings.push(pair.1);
        }
        let mut keys = Vec::with_capacity(self.keys.len() + pairs.len());
        let mut starts = Vec::with_capacity(self.keys.len() + pairs.len() + 1);
        let mut postings = Vec::with_capacity(self.postings.len() + pairs.len());
        let mut new = pairs.iter().copied().peekable();
        for (i, &key) in self.keys.iter().enumerate() {
            for &entry in &self.postings[self.starts[i] as usize..self.starts[i + 1] as usize] {
                while let Some(pair) = new.next_if(|&pair| pair < (key, entry)) {
                    push(&mut keys, &mut starts, &mut postings, pair);
                }
                push(&mut keys, &mut starts, &mut postings, (key, entry));
            }
        }
        for pair in new {
            push(&mut keys, &mut starts, &mut postings, pair);
        }
        starts.push(postings.len() as u32);
        *self = Self {
            keys,
            starts,
            postings,
        };
    }

    /// Renumber every posting through `map` (`None` drops it), dropping
    /// keys whose lists empty out — a rebuild never emits a key with no
    /// postings. `map` must be monotone on the ids it keeps so the lists
    /// stay sorted.
    fn retain_map(&mut self, map: impl Fn(u32) -> Option<u32>) {
        let mut keys = Vec::with_capacity(self.keys.len());
        let mut starts = Vec::with_capacity(self.keys.len() + 1);
        let mut postings = Vec::with_capacity(self.postings.len());
        for (i, &key) in self.keys.iter().enumerate() {
            let begin = postings.len();
            for &entry in &self.postings[self.starts[i] as usize..self.starts[i + 1] as usize] {
                if let Some(mapped) = map(entry) {
                    postings.push(mapped);
                }
            }
            if postings.len() > begin {
                keys.push(key);
                starts.push(begin as u32);
            }
        }
        starts.push(postings.len() as u32);
        *self = Self {
            keys,
            starts,
            postings,
        };
    }

    /// Append the entry ids of every reference hash sharing a window key
    /// with `query_keys` (sorted, possibly with duplicates) to `out`.
    ///
    /// Both key lists are sorted, so each query key is found by a binary
    /// search over the not-yet-visited suffix of the index keys.
    fn lookup(&self, query_keys: &[u64], out: &mut Vec<u32>) {
        let mut lo = 0usize;
        let mut prev = None;
        for &key in query_keys {
            if prev == Some(key) {
                continue;
            }
            prev = Some(key);
            if lo >= self.keys.len() {
                break;
            }
            match self.keys[lo..].binary_search(&key) {
                Ok(pos) => {
                    let pos = lo + pos;
                    let range = self.starts[pos] as usize..self.starts[pos + 1] as usize;
                    out.extend_from_slice(&self.postings[range]);
                    lo = pos + 1;
                }
                Err(pos) => lo += pos,
            }
        }
    }
}

/// The inverted gram index of one feature kind: window key -> reference
/// hashes, per block size and signature channel.
///
/// A non-zero SSDeep score *requires* a shared 7-byte window between the
/// compared signature pair (the common-substring guard), except for the
/// identical-hash fast path on signatures whose run-eliminated form is
/// shorter than the window. So the references that can score a query at
/// all are found by probing the query's own window keys against these
/// posting lists — per query, not per reference — and every reference
/// *not* surfaced scores exactly 0 without being touched. The candidates
/// that are surfaced go through the full budget-pruned comparison, keeping
/// the rows byte-identical to the scan oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KindGramIndex {
    /// One entry per reference hash of this kind:
    /// `(known-class id, sample index within the class)`, in class-major
    /// order (so candidate lists sorted by entry id group by class).
    entries: Vec<(u32, u32)>,
    /// Primary-signature postings, sorted by block size.
    primary: Vec<(u64, GramPostings)>,
    /// Double-signature postings, sorted by the owning hash's block size.
    double: Vec<(u64, GramPostings)>,
    /// Entries that can only match through the identical-hash fast path:
    /// raw signature long enough for it, run-eliminated signature too short
    /// to carry any window key. Sorted by block size.
    degenerate: Vec<(u64, Vec<u32>)>,
}

impl KindGramIndex {
    fn build(prepared_by_class: &[Vec<PreparedSampleFeatures>], kind: FeatureKind) -> Self {
        let mut entries = Vec::new();
        let mut primary: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
        let mut double: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
        let mut degenerate: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (class, samples) in prepared_by_class.iter().enumerate() {
            for (sample, features) in samples.iter().enumerate() {
                let Some(hash) = features.get(kind) else {
                    continue;
                };
                let entry = entries.len() as u32;
                entries.push((class as u32, sample as u32));
                let block_size = hash.block_size();
                let primary_pairs = primary.entry(block_size).or_default();
                for &key in hash.primary().keys() {
                    primary_pairs.push((key, entry));
                }
                let double_pairs = double.entry(block_size).or_default();
                for &key in hash.double().keys() {
                    double_pairs.push((key, entry));
                }
                if hash.primary().eliminated().len() < MIN_COMMON_SUBSTRING
                    && hash.hash().signature().len() >= MIN_COMMON_SUBSTRING
                {
                    degenerate.entry(block_size).or_default().push(entry);
                }
            }
        }
        let finish = |map: BTreeMap<u64, Vec<(u64, u32)>>| -> Vec<(u64, GramPostings)> {
            map.into_iter()
                .map(|(block_size, pairs)| (block_size, GramPostings::build(pairs)))
                .collect()
        };
        Self {
            entries,
            primary: finish(primary),
            double: finish(double),
            degenerate: degenerate.into_iter().collect(),
        }
    }

    /// Entry id of `(class, sample)`, if that sample carries this kind's
    /// view. Entries are class-major and sorted, so a tuple binary search
    /// finds it.
    fn entry_of(&self, class: u32, sample: u32) -> Option<u32> {
        self.entries
            .binary_search(&(class, sample))
            .ok()
            .map(|pos| pos as u32)
    }

    /// One past the last entry id of `class` — the splice point for
    /// appending that class's samples (entries are class-major).
    fn class_end(&self, class: u32) -> u32 {
        self.entries.partition_point(|&(c, _)| c <= class) as u32
    }

    /// The posting bucket of `block_size` in one channel, inserting an
    /// empty bucket at its sorted position if absent — mirroring
    /// [`KindGramIndex::build`], where every sample claims its block-size
    /// bucket even when its signature carries no window keys.
    fn channel_slot(channel: &mut Vec<(u64, GramPostings)>, block_size: u64) -> &mut GramPostings {
        let pos = match channel.binary_search_by_key(&block_size, |&(b, _)| b) {
            Ok(pos) => pos,
            Err(pos) => {
                channel.insert(pos, (block_size, GramPostings::empty()));
                pos
            }
        };
        &mut channel[pos].1
    }

    /// Splice the hashes of `samples` — new samples of `class` whose
    /// within-class indices start at `sample_offset` — into the index
    /// without rebuilding it. Entry ids stay dense and class-major:
    /// existing ids at or past the class's end shift up by the number of
    /// inserted hashes, and the fresh ids fill the gap in sample order, so
    /// the result is structurally identical to a from-scratch
    /// [`KindGramIndex::build`] over the grown reference set.
    fn insert_samples(
        &mut self,
        class: u32,
        sample_offset: u32,
        samples: &[PreparedSampleFeatures],
        kind: FeatureKind,
    ) {
        let with_view: Vec<(u32, &PreparedHash)> = samples
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.get(kind).map(|h| (sample_offset + i as u32, h)))
            .collect();
        let added = with_view.len() as u32;
        if added == 0 {
            return;
        }
        let at = self.class_end(class);
        for (_, postings) in self.primary.iter_mut().chain(self.double.iter_mut()) {
            postings.shift_from(at, added);
        }
        for (_, entries) in &mut self.degenerate {
            for entry in entries.iter_mut() {
                if *entry >= at {
                    *entry += added;
                }
            }
        }
        let new_entries: Vec<(u32, u32)> = with_view.iter().map(|&(s, _)| (class, s)).collect();
        self.entries.splice(at as usize..at as usize, new_entries);
        let mut primary_new: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
        let mut double_new: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
        let mut degenerate_new: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (offset, &(_, hash)) in with_view.iter().enumerate() {
            let entry = at + offset as u32;
            let block_size = hash.block_size();
            let primary_pairs = primary_new.entry(block_size).or_default();
            for &key in hash.primary().keys() {
                primary_pairs.push((key, entry));
            }
            let double_pairs = double_new.entry(block_size).or_default();
            for &key in hash.double().keys() {
                double_pairs.push((key, entry));
            }
            if hash.primary().eliminated().len() < MIN_COMMON_SUBSTRING
                && hash.hash().signature().len() >= MIN_COMMON_SUBSTRING
            {
                degenerate_new.entry(block_size).or_default().push(entry);
            }
        }
        for (block_size, pairs) in primary_new {
            Self::channel_slot(&mut self.primary, block_size).merge(pairs);
        }
        for (block_size, pairs) in double_new {
            Self::channel_slot(&mut self.double, block_size).merge(pairs);
        }
        for (block_size, new) in degenerate_new {
            let list = match self
                .degenerate
                .binary_search_by_key(&block_size, |&(b, _)| b)
            {
                Ok(pos) => &mut self.degenerate[pos].1,
                Err(pos) => {
                    self.degenerate.insert(pos, (block_size, Vec::new()));
                    &mut self.degenerate[pos].1
                }
            };
            // Every fresh id lives in `at..at + added` and no surviving id
            // does (they were shifted past it), so one splice keeps the
            // list sorted.
            let pos = list.partition_point(|&entry| entry < at);
            list.splice(pos..pos, new);
        }
    }

    /// Drop every entry of `class` and renumber the survivors down into a
    /// dense id space, as if the class had never been indexed. `remaining`
    /// is the set of block sizes still present among the surviving hashes:
    /// a rebuild keeps a (possibly key-less) bucket for exactly those, so
    /// buckets claimed only by the retired class are dropped.
    fn retire_class(&mut self, class: u32, remaining: &BTreeSet<u64>) {
        let lo = self.entries.partition_point(|&(c, _)| c < class) as u32;
        let hi = self.class_end(class);
        let removed = hi - lo;
        self.entries.drain(lo as usize..hi as usize);
        for entry in &mut self.entries[lo as usize..] {
            entry.0 -= 1;
        }
        let map = |entry: u32| {
            if entry < lo {
                Some(entry)
            } else if entry < hi {
                None
            } else {
                Some(entry - removed)
            }
        };
        for (_, postings) in self.primary.iter_mut().chain(self.double.iter_mut()) {
            postings.retain_map(map);
        }
        self.primary.retain(|&(b, _)| remaining.contains(&b));
        self.double.retain(|&(b, _)| remaining.contains(&b));
        for (_, entries) in &mut self.degenerate {
            entries.retain_mut(|entry| match map(*entry) {
                Some(mapped) => {
                    *entry = mapped;
                    true
                }
                None => false,
            });
        }
        self.degenerate.retain(|(_, entries)| !entries.is_empty());
    }

    /// Probe one channel: the postings at `block_size` against the query
    /// keys of the signature SSDeep would compare at that pairing.
    fn channel(
        postings: &[(u64, GramPostings)],
        block_size: u64,
        query_keys: &[u64],
        out: &mut Vec<u32>,
    ) {
        if let Ok(pos) = postings.binary_search_by_key(&block_size, |&(b, _)| b) {
            postings[pos].1.lookup(query_keys, out);
        }
    }

    /// The sorted, deduplicated entry ids of every reference hash that can
    /// score `query` above 0 — the exact comparison pairings of
    /// [`ssdeep::compare`]: primary vs primary and double vs double at an
    /// equal block size, query-primary vs reference-double at half, and
    /// query-double vs reference-primary at double, plus the
    /// identical-hash degenerates at the equal block size.
    ///
    /// With a sorted `classes` filter (a shard's partition), entries of
    /// non-owned classes are dropped *before* the sort/dedup, so a shard's
    /// candidate-surfacing cost shrinks with its share of the classes.
    fn candidates(&self, query: &PreparedHash, classes: Option<&[usize]>, out: &mut Vec<u32>) {
        out.clear();
        let block_size = query.block_size();
        Self::channel(&self.primary, block_size, query.primary().keys(), out);
        Self::channel(&self.double, block_size, query.double().keys(), out);
        if block_size.is_multiple_of(2) {
            Self::channel(&self.double, block_size / 2, query.primary().keys(), out);
        }
        if let Some(doubled) = block_size.checked_mul(2) {
            Self::channel(&self.primary, doubled, query.double().keys(), out);
        }
        if let Ok(pos) = self
            .degenerate
            .binary_search_by_key(&block_size, |&(b, _)| b)
        {
            out.extend_from_slice(&self.degenerate[pos].1);
        }
        if let Some(filter) = classes {
            out.retain(|&entry| {
                filter
                    .binary_search(&(self.entries[entry as usize].0 as usize))
                    .is_ok()
            });
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Reference hashes the feature matrix is computed against: the training
/// samples of each known class, with a precomputed similarity index over
/// their prepared hashes.
#[derive(Debug, Clone)]
pub struct ReferenceSet {
    /// Known class names, indexed by known-class id (the forest's label
    /// space).
    class_names: Vec<String>,
    /// Training sample features grouped by known-class id, in prepared
    /// (comparison-ready) form. Each [`ssdeep::PreparedHash`] owns its
    /// original [`ssdeep::FuzzyHash`], so this is the single source of
    /// truth — the plain features are a view into it, never a second copy.
    prepared_by_class: Vec<Vec<PreparedSampleFeatures>>,
    /// Which feature kinds are active (ablations disable some).
    kinds: Vec<FeatureKind>,
    /// The inverted gram index, one per active kind.
    index: Vec<KindGramIndex>,
}

impl ReferenceSet {
    /// Group training samples by their known-class label and build the
    /// prepared similarity index.
    ///
    /// `labels[i]` is the known-class id of `features[i]` and must be
    /// `< class_names.len()`.
    pub fn new(
        class_names: Vec<String>,
        features: &[SampleFeatures],
        labels: &[usize],
        kinds: &[FeatureKind],
    ) -> Self {
        assert_eq!(
            features.len(),
            labels.len(),
            "features and labels must align"
        );
        let mut prepared_by_class: Vec<Vec<PreparedSampleFeatures>> =
            vec![Vec::new(); class_names.len()];
        for (f, &l) in features.iter().zip(labels) {
            prepared_by_class[l].push(PreparedSampleFeatures::prepare(f));
        }
        Self::from_prepared_parts(class_names, prepared_by_class, kinds.to_vec())
    }

    /// Like [`ReferenceSet::new`], but from samples that are *already*
    /// prepared — the fit path prepares every corpus sample exactly once and
    /// reuses the preparation both here and for the query side of the
    /// feature matrix. Preparation is deterministic, so the resulting set is
    /// identical to re-preparing the plain features.
    pub fn from_prepared(
        class_names: Vec<String>,
        prepared: &[PreparedSampleFeatures],
        labels: &[usize],
        kinds: &[FeatureKind],
    ) -> Self {
        assert_eq!(
            prepared.len(),
            labels.len(),
            "features and labels must align"
        );
        let mut prepared_by_class: Vec<Vec<PreparedSampleFeatures>> =
            vec![Vec::new(); class_names.len()];
        for (f, &l) in prepared.iter().zip(labels) {
            prepared_by_class[l].push(f.clone());
        }
        Self::from_prepared_parts(class_names, prepared_by_class, kinds.to_vec())
    }

    /// Assemble a reference set from already-prepared samples (used by the
    /// artifact decoder, which persists the prepared index so loading skips
    /// re-preparation).
    pub(crate) fn from_prepared_parts(
        class_names: Vec<String>,
        prepared_by_class: Vec<Vec<PreparedSampleFeatures>>,
        kinds: Vec<FeatureKind>,
    ) -> Self {
        assert_eq!(class_names.len(), prepared_by_class.len());
        let index = kinds
            .iter()
            .map(|&kind| KindGramIndex::build(&prepared_by_class, kind))
            .collect();
        Self {
            class_names,
            prepared_by_class,
            kinds,
            index,
        }
    }

    /// Append a brand-new known class with its prepared reference samples,
    /// updating the inverted gram index in place — no refit, no rebuild.
    /// The evolved set is structurally identical to rebuilding from scratch
    /// over the grown corpus (the equivalence suite asserts it), so every
    /// backend keeps scoring byte-identically. Returns the new class's
    /// known-class id (always the current [`ReferenceSet::n_classes`]);
    /// note the column count grows, so a forest fitted against the old
    /// geometry needs refitting before it can consume new rows.
    pub fn add_class(
        &mut self,
        name: String,
        samples: Vec<PreparedSampleFeatures>,
    ) -> Result<usize, FhcError> {
        if self.class_id(&name).is_some() {
            return Err(FhcError::Artifact(format!(
                "cannot add class {name:?}: the reference set already has it"
            )));
        }
        let class = self.n_classes();
        for kind_idx in 0..self.kinds.len() {
            let kind = self.kinds[kind_idx];
            self.index[kind_idx].insert_samples(class as u32, 0, &samples, kind);
        }
        self.class_names.push(name);
        self.prepared_by_class.push(samples);
        Ok(class)
    }

    /// Append prepared reference samples to an existing known class,
    /// splicing their hashes into the inverted gram index in place. Column
    /// geometry is unchanged; only the class's similarity maxima can move,
    /// so a cheap threshold re-tune
    /// ([`crate::pipeline::FuzzyHashClassifier::retune_threshold`]) is all
    /// the fitted classifier needs.
    pub fn add_samples(
        &mut self,
        class: usize,
        samples: Vec<PreparedSampleFeatures>,
    ) -> Result<(), FhcError> {
        if class >= self.n_classes() {
            return Err(FhcError::Artifact(format!(
                "cannot add samples to class {class}: the reference set has {} classes",
                self.n_classes()
            )));
        }
        if samples.is_empty() {
            return Ok(());
        }
        let offset = self.prepared_by_class[class].len() as u32;
        for kind_idx in 0..self.kinds.len() {
            let kind = self.kinds[kind_idx];
            self.index[kind_idx].insert_samples(class as u32, offset, &samples, kind);
        }
        self.prepared_by_class[class].extend(samples);
        Ok(())
    }

    /// Remove a known class and every one of its reference samples,
    /// renumbering the inverted gram index in place. Every later class
    /// shifts down by one id (the label space stays dense), so the caller
    /// owns remapping anything keyed by class id; returns the retired
    /// class's name.
    pub fn retire_class(&mut self, class: usize) -> Result<String, FhcError> {
        if class >= self.n_classes() {
            return Err(FhcError::Artifact(format!(
                "cannot retire class {class}: the reference set has {} classes",
                self.n_classes()
            )));
        }
        for kind_idx in 0..self.kinds.len() {
            let kind = self.kinds[kind_idx];
            let remaining: BTreeSet<u64> = self
                .prepared_by_class
                .iter()
                .enumerate()
                .filter(|&(c, _)| c != class)
                .flat_map(|(_, samples)| {
                    samples
                        .iter()
                        .filter_map(move |s| s.get(kind).map(|h| h.block_size()))
                })
                .collect();
            self.index[kind_idx].retire_class(class as u32, &remaining);
        }
        self.prepared_by_class.remove(class);
        Ok(self.class_names.remove(class))
    }

    /// The known-class id of `name`, if present.
    pub fn class_id(&self, name: &str) -> Option<usize> {
        self.class_names.iter().position(|n| n == name)
    }

    /// A stable digest of one class's reference content (its slice of the
    /// [`ReferenceSet::fingerprint`] input: name, sample count, every
    /// sample's fuzzy hashes). Two classes with equal keys serve
    /// identically, which is what [`crate::artifact::ArtifactDelta`] diffs
    /// on.
    pub(crate) fn class_content_key(&self, class: usize) -> u64 {
        let mut w = ByteWriter::new();
        w.put_str(&self.class_names[class]);
        w.put_usize(self.prepared_by_class[class].len());
        for sample in &self.prepared_by_class[class] {
            w.put_str(&sample.file.hash().to_string());
            w.put_str(&sample.strings.hash().to_string());
            match &sample.symbols {
                None => w.put_bool(false),
                Some(prepared) => {
                    w.put_bool(true);
                    w.put_str(&prepared.hash().to_string());
                }
            }
        }
        fnv1a64(w.as_bytes())
    }

    /// Known class names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Number of known classes.
    pub fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Active feature kinds.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// The training-sample features of one known class, reconstructed from
    /// the prepared hashes (which own the originals). Allocates; prefer
    /// [`ReferenceSet::prepared_class_features`] on hot paths.
    pub fn class_features(&self, class: usize) -> Vec<SampleFeatures> {
        self.prepared_by_class[class]
            .iter()
            .map(PreparedSampleFeatures::to_sample_features)
            .collect()
    }

    /// The prepared training-sample features of one known class, in the same
    /// order as [`ReferenceSet::class_features`] (used when serializing the
    /// prepared index into a classifier artifact).
    pub fn prepared_class_features(&self, class: usize) -> &[PreparedSampleFeatures] {
        &self.prepared_by_class[class]
    }

    /// Number of columns in the feature matrix
    /// (`n_classes * active feature kinds`).
    pub fn n_columns(&self) -> usize {
        self.n_classes() * self.kinds.len()
    }

    /// A stable 64-bit fingerprint of the reference set's semantic content:
    /// the active kinds, the class names, and every reference fuzzy hash,
    /// in order. Two reference sets score queries identically if (not only
    /// if) their fingerprints match.
    ///
    /// The distributed serving handshake uses this to refuse mixing a
    /// client and a shard worker that hold different artifacts — a mismatch
    /// there would silently produce wrong similarity rows.
    pub fn fingerprint(&self) -> u64 {
        let mut w = ByteWriter::new();
        w.put_usize(self.kinds.len());
        for kind in &self.kinds {
            w.put_str(kind.paper_name());
        }
        w.put_usize(self.n_classes());
        for (name, samples) in self.class_names.iter().zip(&self.prepared_by_class) {
            w.put_str(name);
            w.put_usize(samples.len());
            for sample in samples {
                w.put_str(&sample.file.hash().to_string());
                w.put_str(&sample.strings.hash().to_string());
                match &sample.symbols {
                    None => w.put_bool(false),
                    Some(prepared) => {
                        w.put_bool(true);
                        w.put_str(&prepared.hash().to_string());
                    }
                }
            }
        }
        fnv1a64(w.as_bytes())
    }

    /// Column of one `(view, class)` cell in the kind-major row layout —
    /// the single definition of the layout invariant shared by the
    /// reference set's row builders and every
    /// [`crate::backend::SimilarityBackend`] implementation.
    #[inline]
    pub fn column_index(&self, kind_idx: usize, class: usize) -> usize {
        kind_idx * self.n_classes() + class
    }

    /// Column names, grouped by feature kind then class
    /// (e.g. `ssdeep-symbols/Velvet`).
    pub fn column_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.n_columns());
        for kind in &self.kinds {
            for class in &self.class_names {
                names.push(format!("{}/{}", kind.paper_name(), class));
            }
        }
        names
    }

    /// The feature kind each column belongs to (for importance aggregation).
    pub fn column_kinds(&self) -> Vec<FeatureKind> {
        let mut kinds = Vec::with_capacity(self.n_columns());
        for kind in &self.kinds {
            for _ in 0..self.n_classes() {
                kinds.push(*kind);
            }
        }
        kinds
    }

    /// Feature vector of one sample: per active kind, per known class, the
    /// maximum similarity against that class's training samples, scaled to
    /// `0.0..=100.0`.
    ///
    /// Prepares the query once, then scores it through the precomputed
    /// index; see [`ReferenceSet::feature_vector_prepared`].
    pub fn feature_vector(&self, sample: &SampleFeatures) -> Vec<f64> {
        self.feature_vector_prepared(&PreparedSampleFeatures::prepare(sample))
    }

    /// Feature vector of one already-prepared sample, computed through the
    /// inverted gram index: per view, the query's window keys surface the
    /// only references that can score above 0, and those run the
    /// budget-pruned comparison. Scores are identical to the unindexed
    /// [`ReferenceSet::feature_vector_scan`].
    pub fn feature_vector_prepared(&self, sample: &PreparedSampleFeatures) -> Vec<f64> {
        let mut row = vec![0.0; self.n_columns()];
        self.max_scores_into_indexed(sample, &mut row);
        row
    }

    /// Write the full similarity row of one prepared query through the
    /// inverted gram index. `out` must have [`ReferenceSet::n_columns`]
    /// cells and is fully overwritten. The row primitive behind
    /// [`crate::backend::IndexedBackend`] (and, with a class filter,
    /// [`ReferenceSet::partial_row_cells`] behind the shard workers).
    pub(crate) fn max_scores_into_indexed(&self, sample: &PreparedSampleFeatures, out: &mut [f64]) {
        out.fill(0.0);
        let mut scratch = Vec::new();
        for (kind_idx, &kind) in self.kinds.iter().enumerate() {
            if let Some(query) = sample.get(kind) {
                self.kind_scores_into(kind_idx, query, None, &mut scratch, |class, score| {
                    out[self.column_index(kind_idx, class)] = f64::from(score);
                });
            }
        }
    }

    /// The partial max-score row of `query` over a sorted class subset:
    /// one `(column, score)` cell for every `(view, class)` in
    /// `classes` — the primitive shardnet workers score and their clients
    /// max-merge from (their partial rows carry every owned cell,
    /// zeros included, so the merge never has to guess coverage).
    pub(crate) fn partial_row_cells(
        &self,
        classes: &[usize],
        query: &PreparedSampleFeatures,
    ) -> Vec<(usize, f64)> {
        debug_assert!(classes.windows(2).all(|w| w[0] < w[1]), "classes sorted");
        let mut cells = Vec::with_capacity(classes.len() * self.kinds.len());
        let mut scratch = Vec::new();
        for (kind_idx, &kind) in self.kinds.iter().enumerate() {
            let base = cells.len();
            for &class in classes {
                cells.push((self.column_index(kind_idx, class), 0.0));
            }
            if let Some(hash) = query.get(kind) {
                self.kind_scores_into(kind_idx, hash, Some(classes), &mut scratch, |class, s| {
                    let pos = classes
                        .binary_search(&class)
                        .expect("emitted class in filter");
                    cells[base + pos].1 = f64::from(s);
                });
            }
        }
        cells
    }

    /// Score one query hash against one view of the reference set through
    /// the inverted gram index, emitting `(class, max score)` for every
    /// class with a non-zero maximum (restricted to the sorted `classes`
    /// subset when given).
    ///
    /// Candidates arrive in class-major order, and each class's running
    /// maximum is threaded down as an early-exit score budget
    /// ([`ssdeep::compare_prepared_min`]): a reference that cannot beat the
    /// best score seen so far in its class is abandoned mid-DP (often
    /// before any DP row is touched). Exact for max-merge by the budget
    /// contract — a comparison is only ever under-reported when its true
    /// score could not have changed the maximum — so every backend stays
    /// byte-identical to the [`ssdeep::compare`] scan oracle.
    fn kind_scores_into(
        &self,
        kind_idx: usize,
        query: &PreparedHash,
        classes: Option<&[usize]>,
        scratch: &mut Vec<u32>,
        emit: impl FnMut(usize, u32),
    ) {
        self.index[kind_idx].candidates(query, classes, scratch);
        self.kind_scores_from_entries(kind_idx, query, scratch, emit);
    }

    /// The comparison half of [`ReferenceSet::kind_scores_into`]: run the
    /// budget-pruned comparisons over an explicit sorted candidate entry
    /// list, skipping the gram-index walk. This is what lets a cached or
    /// projected candidate list ([`CandidateCache`]) reproduce a row
    /// byte-identically without re-walking the index.
    fn kind_scores_from_entries(
        &self,
        kind_idx: usize,
        query: &PreparedHash,
        entries: &[u32],
        mut emit: impl FnMut(usize, u32),
    ) {
        let kind = self.kinds[kind_idx];
        let index = &self.index[kind_idx];
        let mut current_class = usize::MAX;
        let mut best = 0u32;
        for &entry in entries {
            let (class, sample) = index.entries[entry as usize];
            let (class, sample) = (class as usize, sample as usize);
            if class != current_class {
                if current_class != usize::MAX && best > 0 {
                    emit(current_class, best);
                }
                current_class = class;
                best = 0;
            }
            if best == 100 {
                continue; // the class max cannot improve
            }
            let reference = self.prepared_by_class[class][sample]
                .get(kind)
                .expect("indexed sample has this view");
            best = best.max(compare_prepared_min(query, reference, best + 1));
        }
        if current_class != usize::MAX && best > 0 {
            emit(current_class, best);
        }
    }

    /// Feature vector computed by the original unindexed scan: every
    /// reference sample of every class is compared with plain
    /// [`ssdeep::compare()`], re-normalizing signatures on every call.
    ///
    /// Kept as the verification oracle for the precomputed index (the
    /// equivalence tests assert it matches [`ReferenceSet::feature_vector`])
    /// and as the baseline the serving benchmark measures the index against.
    pub fn feature_vector_scan(&self, sample: &SampleFeatures) -> Vec<f64> {
        let mut row = Vec::with_capacity(self.n_columns());
        for (kind_idx, &kind) in self.kinds.iter().enumerate() {
            let query = sample.get(kind);
            for class in 0..self.prepared_by_class.len() {
                let best = query.map_or(0, |q| self.cell_score_scan(kind_idx, class, q));
                row.push(f64::from(best));
            }
        }
        row
    }

    /// Maximum similarity of one query hash against one `(view, class)` cell
    /// by the plain unindexed scan: every reference sample of the class is
    /// compared with [`ssdeep::compare()`], re-normalizing signatures on every
    /// call — exactly the pre-index cost. The scoring primitive of
    /// [`crate::backend::ScanBackend`].
    pub(crate) fn cell_score_scan(&self, kind_idx: usize, class: usize, query: &FuzzyHash) -> u32 {
        let kind = self.kinds[kind_idx];
        self.prepared_by_class[class]
            .iter()
            .map(|train| match train.get(kind) {
                Some(b) => ssdeep::compare(query, b.hash()),
                None => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Compute the similarity rows of a prepared query batch through the
    /// inverted index while capturing each query's per-kind candidate
    /// lists into a [`CandidateCache`]. Rows are byte-identical to
    /// [`ReferenceSet::feature_vector_prepared`]; the cache is what lets
    /// threshold tuning replay the same walks against a reference subset
    /// ([`ReferenceSet::project_candidates`]) instead of re-walking.
    pub fn feature_matrix_caching(
        &self,
        queries: &[PreparedSampleFeatures],
        parallel: ParallelConfig,
    ) -> (Vec<Vec<f64>>, CandidateCache) {
        let scored = par_map_indexed(queries.len(), parallel, |i| {
            let sample = &queries[i];
            let mut row = vec![0.0; self.n_columns()];
            let mut lists = Vec::with_capacity(self.kinds.len());
            for (kind_idx, &kind) in self.kinds.iter().enumerate() {
                let mut entries = Vec::new();
                if let Some(query) = sample.get(kind) {
                    self.index[kind_idx].candidates(query, None, &mut entries);
                    self.kind_scores_from_entries(kind_idx, query, &entries, |class, score| {
                        row[self.column_index(kind_idx, class)] = f64::from(score);
                    });
                }
                lists.push(entries);
            }
            (row, lists)
        });
        let mut rows = Vec::with_capacity(scored.len());
        let mut cached = Vec::with_capacity(scored.len());
        for (row, lists) in scored {
            rows.push(row);
            cached.push(lists);
        }
        (rows, CandidateCache { rows: cached })
    }

    /// Capture a prepared query batch's per-kind candidate lists without
    /// scoring any rows — the walk half of
    /// [`ReferenceSet::feature_matrix_caching`], for callers (threshold
    /// re-tuning) that only need the projections.
    pub fn candidate_cache(
        &self,
        queries: &[PreparedSampleFeatures],
        parallel: ParallelConfig,
    ) -> CandidateCache {
        let rows = par_map_indexed(queries.len(), parallel, |i| {
            self.kinds
                .iter()
                .enumerate()
                .map(|(kind_idx, &kind)| {
                    let mut entries = Vec::new();
                    if let Some(query) = queries[i].get(kind) {
                        self.index[kind_idx].candidates(query, None, &mut entries);
                    }
                    entries
                })
                .collect()
        });
        CandidateCache { rows }
    }

    /// Project one cached query's candidate lists (computed against `self`)
    /// onto `subset`, a reference set whose samples are drawn from `self`'s
    /// with the same active kinds: `map(class, sample)` names the subset's
    /// `(class, sample)` coordinates of one of `self`'s reference samples,
    /// or `None` where the subset dropped it.
    ///
    /// Candidate surfacing is a pairwise `(query, reference hash)`
    /// predicate — shared window key, or the degenerate fast path — so the
    /// projected lists are exactly what walking the subset's own gram index
    /// would surface, without walking it. The equivalence suite asserts
    /// that identity.
    pub fn project_candidates(
        &self,
        cache: &CandidateCache,
        query: usize,
        subset: &ReferenceSet,
        map: impl Fn(u32, u32) -> Option<(u32, u32)>,
    ) -> Vec<Vec<u32>> {
        assert_eq!(
            self.kinds, subset.kinds,
            "projection requires identical active kinds"
        );
        (0..self.kinds.len())
            .map(|kind_idx| {
                let mut projected: Vec<u32> = cache.rows[query][kind_idx]
                    .iter()
                    .filter_map(|&entry| {
                        let (class, sample) = self.index[kind_idx].entries[entry as usize];
                        let (class, sample) = map(class, sample)?;
                        subset.index[kind_idx].entry_of(class, sample)
                    })
                    .collect();
                projected.sort_unstable();
                projected
            })
            .collect()
    }

    /// The full similarity row of one prepared query scored over explicit
    /// per-kind candidate entry lists (from
    /// [`ReferenceSet::project_candidates`]) instead of a fresh gram-index
    /// walk. Byte-identical to [`ReferenceSet::feature_vector_prepared`]
    /// when the lists are what the walk would surface.
    pub fn feature_vector_from_candidates(
        &self,
        sample: &PreparedSampleFeatures,
        candidates: &[Vec<u32>],
    ) -> Vec<f64> {
        assert_eq!(
            candidates.len(),
            self.kinds.len(),
            "one candidate list per active kind"
        );
        let mut row = vec![0.0; self.n_columns()];
        for (kind_idx, &kind) in self.kinds.iter().enumerate() {
            if let Some(query) = sample.get(kind) {
                self.kind_scores_from_entries(
                    kind_idx,
                    query,
                    &candidates[kind_idx],
                    |class, score| {
                        row[self.column_index(kind_idx, class)] = f64::from(score);
                    },
                );
            }
        }
        row
    }

    /// Feature matrix of a batch of samples (rows computed in parallel — the
    /// dominant cost of the whole pipeline), through the precomputed index
    /// with the default training parallelism. For an explicit parallel
    /// configuration, a prepared query batch, or a different scoring
    /// strategy, use a [`crate::backend::SimilarityBackend`] — the pipeline
    /// routes its matrices through the configured backend.
    pub fn feature_matrix(&self, samples: &[SampleFeatures]) -> Vec<Vec<f64>> {
        par_map_indexed(samples.len(), crate::config::default_parallel(), |i| {
            self.feature_vector(&samples[i])
        })
    }

    /// Feature matrix computed by the unindexed scan (the benchmark baseline
    /// twin of [`ReferenceSet::feature_matrix`]).
    pub fn feature_matrix_scan(&self, samples: &[SampleFeatures]) -> Vec<Vec<f64>> {
        par_map_indexed(samples.len(), crate::config::default_parallel(), |i| {
            self.feature_vector_scan(&samples[i])
        })
    }
}

/// Per-query, per-kind candidate entry lists captured during a full-set
/// gram-index walk ([`ReferenceSet::feature_matrix_caching`]). Threshold
/// tuning's inner folds score the same queries against reference *subsets*;
/// because candidate membership is a pairwise predicate, the cached lists
/// project exactly onto any subset ([`ReferenceSet::project_candidates`]),
/// so refit — incremental or full — stops recomputing identical walks.
#[derive(Debug, Clone, Default)]
pub struct CandidateCache {
    /// `rows[query][kind_idx]` = sorted candidate entry ids in the source
    /// reference set (empty when the query lacks the kind's view).
    rows: Vec<Vec<Vec<u32>>>,
}

impl CandidateCache {
    /// Number of cached queries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no queries are cached.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use binary::elf::ElfBuilder;

    fn make_sample(class_tag: &str, variant: u64) -> SampleFeatures {
        let mut b = ElfBuilder::new();
        // Class-specific code with a small variant-specific region.
        let mut code: Vec<u8> = class_tag
            .bytes()
            .cycle()
            .take(24_000)
            .enumerate()
            .map(|(i, c)| c.wrapping_mul(17).wrapping_add((i / 96) as u8))
            .collect();
        for (i, byte) in code
            .iter_mut()
            .skip((variant as usize * 512) % 20_000)
            .take(256)
            .enumerate()
        {
            *byte ^= (variant as u8).wrapping_add(i as u8);
        }
        b.add_text_section(code);
        b.add_rodata_section(
            format!("{class_tag} tool messages and usage\0v{variant}\0").into_bytes(),
        );
        for i in 0..30 {
            b.add_global_function(&format!("{class_tag}_routine_{i}"), (i * 128) as u64, 128);
        }
        b.add_global_function(&format!("{class_tag}_extra_{variant}"), 30 * 128, 64);
        SampleFeatures::extract(&b.build())
    }

    fn reference() -> (ReferenceSet, Vec<SampleFeatures>) {
        let train = vec![
            make_sample("velvet", 0),
            make_sample("velvet", 1),
            make_sample("openmalaria", 0),
            make_sample("openmalaria", 1),
        ];
        let labels = vec![0, 0, 1, 1];
        let rs = ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into()],
            &train,
            &labels,
            &FeatureKind::ALL,
        );
        (rs, train)
    }

    #[test]
    fn column_layout_is_kind_major() {
        let (rs, _) = reference();
        assert_eq!(rs.n_columns(), 6);
        let names = rs.column_names();
        assert_eq!(names[0], "ssdeep-file/Velvet");
        assert_eq!(names[1], "ssdeep-file/OpenMalaria");
        assert_eq!(names[4], "ssdeep-symbols/Velvet");
        let kinds = rs.column_kinds();
        assert_eq!(kinds[0], FeatureKind::File);
        assert_eq!(kinds[5], FeatureKind::Symbols);
    }

    #[test]
    fn training_sample_scores_100_against_its_own_class() {
        let (rs, train) = reference();
        let row = rs.feature_vector(&train[0]);
        // Column 0 = file similarity to Velvet (contains this exact sample).
        assert_eq!(row[0], 100.0);
        // Symbols column for Velvet likewise.
        assert_eq!(row[4], 100.0);
    }

    #[test]
    fn new_version_scores_higher_for_its_class() {
        let (rs, _) = reference();
        let unseen_velvet = make_sample("velvet", 7);
        let row = rs.feature_vector(&unseen_velvet);
        let velvet_sym = row[4];
        let malaria_sym = row[5];
        assert!(
            velvet_sym > malaria_sym,
            "velvet sample should be closer to Velvet ({velvet_sym}) than OpenMalaria ({malaria_sym})"
        );
    }

    #[test]
    fn unknown_application_scores_low_everywhere() {
        let (rs, _) = reference();
        let stranger = make_sample("quantumespresso", 3);
        let row = rs.feature_vector(&stranger);
        // The symbols columns are the discriminative ones; a never-seen
        // application should not reach a high symbol similarity with either
        // known class.
        assert!(row[4] < 60.0, "symbols vs Velvet: {}", row[4]);
        assert!(row[5] < 60.0, "symbols vs OpenMalaria: {}", row[5]);
    }

    #[test]
    fn feature_matrix_matches_vectors() {
        let (rs, train) = reference();
        let matrix = rs.feature_matrix(&train);
        assert_eq!(matrix.len(), 4);
        for (i, row) in matrix.iter().enumerate() {
            assert_eq!(*row, rs.feature_vector(&train[i]));
            assert_eq!(row.len(), rs.n_columns());
            assert!(row.iter().all(|&v| (0.0..=100.0).contains(&v)));
        }
    }

    #[test]
    fn ablated_reference_has_fewer_columns() {
        let train = vec![make_sample("velvet", 0)];
        let rs = ReferenceSet::new(vec!["Velvet".into()], &train, &[0], &[FeatureKind::Symbols]);
        assert_eq!(rs.n_columns(), 1);
        assert_eq!(rs.column_names(), vec!["ssdeep-symbols/Velvet"]);
    }

    #[test]
    fn indexed_feature_vector_matches_scan_oracle() {
        let (rs, train) = reference();
        let probes = vec![
            train[0].clone(),
            make_sample("velvet", 9),
            make_sample("openmalaria", 4),
            make_sample("quantumespresso", 1),
        ];
        for probe in &probes {
            assert_eq!(
                rs.feature_vector(probe),
                rs.feature_vector_scan(probe),
                "index and scan disagree"
            );
        }
        let indexed = rs.feature_matrix(&probes);
        let scanned = rs.feature_matrix_scan(&probes);
        assert_eq!(indexed, scanned);
    }

    #[test]
    fn prepared_query_reuses_one_preparation() {
        let (rs, _) = reference();
        let probe = make_sample("velvet", 3);
        let prepared = crate::features::PreparedSampleFeatures::prepare(&probe);
        assert_eq!(
            rs.feature_vector_prepared(&prepared),
            rs.feature_vector(&probe)
        );
    }

    #[test]
    fn prepared_class_features_mirror_plain() {
        let (rs, _) = reference();
        for class in 0..rs.n_classes() {
            let plain = rs.class_features(class);
            let prepared = rs.prepared_class_features(class);
            assert_eq!(plain.len(), prepared.len());
            for (p, q) in plain.iter().zip(prepared) {
                assert_eq!(p, &q.to_sample_features());
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let (rs, train) = reference();
        let (rs2, _) = reference();
        // Deterministic: identical content, identical fingerprint.
        assert_eq!(rs.fingerprint(), rs2.fingerprint());

        // Different class names change it.
        let renamed = ReferenceSet::new(
            vec!["Velvet".into(), "SomethingElse".into()],
            &train,
            &[0, 0, 1, 1],
            &FeatureKind::ALL,
        );
        assert_ne!(rs.fingerprint(), renamed.fingerprint());

        // Different membership changes it.
        let smaller = ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into()],
            &train[..3],
            &[0, 0, 1],
            &FeatureKind::ALL,
        );
        assert_ne!(rs.fingerprint(), smaller.fingerprint());

        // Different active kinds change it.
        let ablated = ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into()],
            &train,
            &[0, 0, 1, 1],
            &[FeatureKind::Symbols],
        );
        assert_ne!(rs.fingerprint(), ablated.fingerprint());
    }

    #[test]
    #[should_panic]
    fn mismatched_labels_panic() {
        let train = vec![make_sample("velvet", 0)];
        let _ = ReferenceSet::new(vec!["Velvet".into()], &train, &[0, 1], &FeatureKind::ALL);
    }

    /// A sample whose three views are hand-built hashes (exercises the
    /// inverted index's edge paths, which generated hashes rarely hit).
    ///
    /// NOTE: `tests/common/mod.rs` (`degenerate_references` /
    /// `degenerate_probes`) is the source of truth for this adversarial
    /// corpus — the workspace integration suites run it through every
    /// backend and over the wire. This in-crate copy exists only because a
    /// unit test cannot import the workspace test crate; when adding a new
    /// adversarial shape, add it there first and mirror it here.
    fn parts_sample(bs: u64, sig: &str, sig_double: &str) -> SampleFeatures {
        let h = ssdeep::FuzzyHash::from_parts(bs, sig.into(), sig_double.into()).unwrap();
        SampleFeatures {
            file: h.clone(),
            strings: h.clone(),
            symbols: Some(h),
        }
    }

    /// The inverted gram index must match the scan oracle on adversarial
    /// hand-built hashes: run-heavy signatures whose eliminated form is
    /// shorter than the 7-byte window (only the identical-hash fast path
    /// can score them), factor-of-two block-size pairings in both
    /// directions (primary-vs-double channels), near-`u64::MAX` block
    /// sizes (doubling overflows), and tiny-block-size score caps.
    #[test]
    fn indexed_matches_scan_on_degenerate_and_factor_two_hashes() {
        let references = vec![
            // Run-heavy: "AAAAAAAAAA" eliminates to "AAA" (no window keys).
            parts_sample(3, "AAAAAAAAAA", "AAAAA"),
            parts_sample(3, "AAAAAAAAAB", "AAAAA"),
            // Normal signatures at block sizes 6 and 12 (factor-two pair).
            parts_sample(6, "ABCDEFGHIJKLMNOP", "ABCDEFGH"),
            parts_sample(12, "ABCDEFGHIJKLMNOP", "QRSTUVWX"),
            parts_sample(24, "QRSTUVWXABCDEFGH", "MNBVCXZL"),
            // Huge block sizes: doubling overflows u64.
            parts_sample(u64::MAX, "ABCDEFGHIJKL", "ABCDEF"),
            parts_sample(u64::MAX / 2 + 1, "ABCDEFGHIJKL", "ABCDEF"),
            // Short signature below the common-substring window.
            parts_sample(3, "ABCDE", "AB"),
        ];
        let labels: Vec<usize> = (0..references.len()).map(|i| i % 3).collect();
        let rs = ReferenceSet::new(
            vec!["a".into(), "b".into(), "c".into()],
            &references,
            &labels,
            &FeatureKind::ALL,
        );
        // Probe with every reference itself (identical-hash paths), plus
        // queries whose block size pairs with references only through the
        // half/double channels, plus a no-match stranger.
        let mut probes = references.clone();
        probes.push(parts_sample(6, "QRSTUVWXABCDEFGH", "ABCDEFGHIJKLMNOP"));
        probes.push(parts_sample(48, "MNBVCXZLKJHGFDSA", "POIUYTRE"));
        probes.push(parts_sample(3, "AAAAAAAAAA", "AAAAA"));
        probes.push(parts_sample(192, "zzzzyyyyxxxxwwww", "vvvvuuuu"));
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(
                rs.feature_vector(probe),
                rs.feature_vector_scan(probe),
                "probe {i}: index and scan disagree"
            );
        }
        // The identical-hash degenerate really does score 100 through the
        // index (a pure gram lookup would have missed it).
        let row = rs.feature_vector(&probes[0]);
        assert_eq!(row[0], 100.0);
    }

    /// Mirror of the workspace `hot_gram_oracle` suite: every reference
    /// shares one 7-byte window, so that gram's posting list holds every
    /// entry of every class and the candidate set degenerates to
    /// "everyone". The index must still match the scan oracle exactly.
    #[test]
    fn indexed_matches_scan_when_every_reference_shares_a_hot_gram() {
        let flanks = [("QxWv", "jKpT"), ("ZeRu", "bNdF"), ("LmCy", "sVgH")];
        let mut references = Vec::new();
        let mut labels = Vec::new();
        for (class, (left, right)) in flanks.iter().enumerate() {
            for (a, b) in [(left, right), (right, left)] {
                references.push(parts_sample(
                    96,
                    &format!("{a}HOTGRAM{b}"),
                    &format!("{b}HOTGRAM{a}"),
                ));
                labels.push(class);
            }
        }
        let rs = ReferenceSet::new(
            vec!["a".into(), "b".into(), "c".into()],
            &references,
            &labels,
            &FeatureKind::ALL,
        );
        let probes = [
            references[0].clone(),
            parts_sample(96, "HOTGRAM", "HOTGRAM"),
            parts_sample(96, "McVnHOTGRAMrGhZ", "kWsEHOTGRAMpLiU"),
            parts_sample(48, "NoMatchFlankXyz", "HOTGRAMabcd"),
            parts_sample(96, "UtterlyUnrelated", "zyxwvuts"),
        ];
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(
                rs.feature_vector(probe),
                rs.feature_vector_scan(probe),
                "probe {i}: index and scan disagree on the hot-gram corpus"
            );
        }
        // The corpus is genuinely hot: the bare window scores against every
        // class, so the shared posting list really admits everyone.
        let hot = rs.feature_vector(&probes[1]);
        for class in 0..rs.n_classes() {
            assert!(
                (0..rs.kinds().len()).any(|k| hot[k * rs.n_classes() + class] != 0.0),
                "the bare HOTGRAM probe must score against class {class}"
            );
        }
    }

    fn prepare_all(samples: &[SampleFeatures]) -> Vec<PreparedSampleFeatures> {
        samples
            .iter()
            .map(PreparedSampleFeatures::prepare)
            .collect()
    }

    /// Assert an evolved set is indistinguishable from rebuilding from
    /// scratch over the same final corpus: identical index structure
    /// (CSR posting lists, entry numbering, degenerate lists), identical
    /// fingerprint, and byte-identical rows — with the scan oracle as the
    /// independent referee.
    fn assert_matches_rebuild(rs: &ReferenceSet, probes: &[SampleFeatures], what: &str) {
        let twin = ReferenceSet::from_prepared_parts(
            rs.class_names.clone(),
            rs.prepared_by_class.clone(),
            rs.kinds.clone(),
        );
        assert_eq!(rs.index, twin.index, "{what}: index structure diverged");
        assert_eq!(rs.fingerprint(), twin.fingerprint(), "{what}: fingerprint");
        for (i, probe) in probes.iter().enumerate() {
            let row = rs.feature_vector(probe);
            assert_eq!(row, twin.feature_vector(probe), "{what}: probe {i} row");
            assert_eq!(row, rs.feature_vector_scan(probe), "{what}: probe {i} scan");
        }
    }

    #[test]
    fn evolved_set_matches_a_from_scratch_rebuild() {
        let (mut rs, _) = reference();
        let probes = vec![
            make_sample("velvet", 9),
            make_sample("openmalaria", 4),
            make_sample("quantumespresso", 1),
            make_sample("gromacs", 2),
        ];
        rs.add_class(
            "QuantumEspresso".into(),
            prepare_all(&[
                make_sample("quantumespresso", 0),
                make_sample("quantumespresso", 2),
            ]),
        )
        .expect("new class");
        assert_matches_rebuild(&rs, &probes, "add_class");
        rs.add_samples(0, prepare_all(&[make_sample("velvet", 5)]))
            .expect("grow first class");
        assert_matches_rebuild(&rs, &probes, "add_samples first class");
        rs.add_samples(
            1,
            prepare_all(&[make_sample("openmalaria", 7), make_sample("openmalaria", 8)]),
        )
        .expect("grow middle class");
        assert_matches_rebuild(&rs, &probes, "add_samples middle class");
        let retired = rs.retire_class(1).expect("retire middle class");
        assert_eq!(retired, "OpenMalaria");
        assert_matches_rebuild(&rs, &probes, "retire middle class");
        rs.retire_class(0).expect("retire first class");
        assert_matches_rebuild(&rs, &probes, "retire first class");
        assert_eq!(rs.class_names(), ["QuantumEspresso"]);
        assert_eq!(rs.class_id("QuantumEspresso"), Some(0));
    }

    /// The evolution ops must stay rebuild-identical on the adversarial
    /// corpus too: run-heavy degenerate hashes (no window keys — their
    /// buckets exist key-less), factor-of-two block-size pairings, and
    /// near-`u64::MAX` block sizes whose buckets are solely owned by one
    /// class (retiring it must drop the bucket, as a rebuild would).
    #[test]
    fn evolution_matches_rebuild_on_degenerate_and_factor_two_hashes() {
        let probes = vec![
            parts_sample(3, "AAAAAAAAAA", "AAAAA"),
            parts_sample(6, "QRSTUVWXABCDEFGH", "ABCDEFGHIJKLMNOP"),
            parts_sample(12, "ABCDEFGHIJKLMNOP", "QRSTUVWX"),
            parts_sample(48, "MNBVCXZLKJHGFDSA", "POIUYTRE"),
            parts_sample(u64::MAX, "ABCDEFGHIJKL", "ABCDEF"),
            parts_sample(192, "zzzzyyyyxxxxwwww", "vvvvuuuu"),
        ];
        let mut rs = ReferenceSet::new(
            vec!["a".into()],
            &[parts_sample(6, "ABCDEFGHIJKLMNOP", "ABCDEFGH")],
            &[0],
            &FeatureKind::ALL,
        );
        rs.add_class(
            "b".into(),
            prepare_all(&[
                parts_sample(3, "AAAAAAAAAA", "AAAAA"),
                parts_sample(12, "ABCDEFGHIJKLMNOP", "QRSTUVWX"),
            ]),
        )
        .expect("class with a degenerate hash");
        assert_matches_rebuild(&rs, &probes, "add degenerate class");
        rs.add_class(
            "c".into(),
            prepare_all(&[
                parts_sample(u64::MAX, "ABCDEFGHIJKL", "ABCDEF"),
                parts_sample(3, "ABCDE", "AB"),
            ]),
        )
        .expect("class with huge block sizes");
        assert_matches_rebuild(&rs, &probes, "add huge-block-size class");
        rs.add_samples(
            0,
            prepare_all(&[
                parts_sample(3, "AAAAAAAAAB", "AAAAA"),
                parts_sample(24, "QRSTUVWXABCDEFGH", "MNBVCXZL"),
            ]),
        )
        .expect("grow first class with a degenerate");
        assert_matches_rebuild(&rs, &probes, "add degenerate samples");
        rs.retire_class(2).expect("retire the sole u64::MAX owner");
        assert_matches_rebuild(&rs, &probes, "retire sole bucket owner");
        rs.retire_class(1).expect("retire the degenerate class");
        assert_matches_rebuild(&rs, &probes, "retire degenerate class");
    }

    #[test]
    fn evolution_rejects_bad_arguments() {
        let (mut rs, _) = reference();
        assert!(matches!(
            rs.add_class("Velvet".into(), Vec::new()),
            Err(FhcError::Artifact(_))
        ));
        assert!(matches!(
            rs.add_samples(9, Vec::new()),
            Err(FhcError::Artifact(_))
        ));
        assert!(matches!(rs.retire_class(2), Err(FhcError::Artifact(_))));
        rs.add_samples(0, Vec::new()).expect("empty add is a no-op");
        assert_eq!(rs.n_classes(), 2);
    }

    /// The candidate cache must project onto reference subsets exactly:
    /// the projected lists equal what the subset's own gram-index walk
    /// would surface, and the rows scored from them are byte-identical to
    /// the subset's direct rows.
    #[test]
    fn cached_candidates_project_onto_subsets() {
        let train = vec![
            make_sample("velvet", 0),
            make_sample("velvet", 1),
            make_sample("velvet", 2),
            make_sample("openmalaria", 0),
            make_sample("openmalaria", 1),
            parts_sample(3, "AAAAAAAAAA", "AAAAA"),
            parts_sample(6, "ABCDEFGHIJKLMNOP", "ABCDEFGH"),
        ];
        let labels = vec![0, 0, 0, 1, 1, 2, 2];
        let full = ReferenceSet::new(
            vec!["Velvet".into(), "OpenMalaria".into(), "Weird".into()],
            &train,
            &labels,
            &FeatureKind::ALL,
        );
        let queries = prepare_all(&[
            train[1].clone(),
            make_sample("velvet", 7),
            parts_sample(3, "AAAAAAAAAA", "AAAAA"),
            make_sample("gromacs", 1),
        ]);
        let (rows, cache) =
            full.feature_matrix_caching(&queries, crate::config::default_parallel());
        assert_eq!(cache.len(), queries.len());
        for (i, query) in queries.iter().enumerate() {
            assert_eq!(
                rows[i],
                full.feature_vector_prepared(query),
                "cached row {i}"
            );
        }
        // Subset: drop OpenMalaria entirely and Velvet's middle sample —
        // the shape threshold tuning's inner reference takes.
        let subset = ReferenceSet::from_prepared_parts(
            vec!["Velvet".into(), "Weird".into()],
            vec![
                vec![
                    full.prepared_by_class[0][0].clone(),
                    full.prepared_by_class[0][2].clone(),
                ],
                full.prepared_by_class[2].clone(),
            ],
            full.kinds.clone(),
        );
        let map = |class: u32, sample: u32| match (class, sample) {
            (0, 0) => Some((0, 0)),
            (0, 2) => Some((0, 1)),
            (2, sample) => Some((1, sample)),
            _ => None,
        };
        for (i, query) in queries.iter().enumerate() {
            let projected = full.project_candidates(&cache, i, &subset, map);
            for (kind_idx, &kind) in subset.kinds.iter().enumerate() {
                let mut fresh = Vec::new();
                if let Some(hash) = query.get(kind) {
                    subset.index[kind_idx].candidates(hash, None, &mut fresh);
                }
                assert_eq!(
                    projected[kind_idx], fresh,
                    "query {i} kind {kind_idx}: projection is not the subset walk"
                );
            }
            assert_eq!(
                subset.feature_vector_from_candidates(query, &projected),
                subset.feature_vector_prepared(query),
                "query {i}: projected row diverged"
            );
        }
    }

    #[test]
    fn partial_row_cells_union_to_the_full_row() {
        let (rs, _) = reference();
        let probe = PreparedSampleFeatures::prepare(&make_sample("velvet", 5));
        let full = rs.feature_vector_prepared(&probe);
        for split in [vec![vec![0usize], vec![1usize]], vec![vec![0usize, 1]]] {
            let mut merged = vec![0.0f64; rs.n_columns()];
            let mut n_cells = 0;
            for classes in &split {
                for (column, score) in rs.partial_row_cells(classes, &probe) {
                    merged[column] = merged[column].max(score);
                    n_cells += 1;
                }
            }
            assert_eq!(merged, full, "split {split:?}");
            assert_eq!(n_cells, rs.n_columns(), "every owned cell present");
        }
    }
}
