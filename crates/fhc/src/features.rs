//! Fuzzy-hash feature extraction from executable bytes.
//!
//! Section 3 of the paper ("Feature Extraction") fuzzy-hashes three views of
//! every application executable:
//!
//! 1. **`ssdeep-file`** — the raw binary content of the file,
//! 2. **`ssdeep-strings`** — the continuous printable characters (the output
//!    of `strings`),
//! 3. **`ssdeep-symbols`** — the global text symbols from the symbol table
//!    (the output of `nm`).
//!
//! [`SampleFeatures::extract`] reproduces that extraction, and
//! [`FeatureKind`] names the three views throughout the pipeline (feature
//! matrix column grouping, importance aggregation, ablations).

use binary::elf::ElfFile;
use binary::strings::strings_blob;
use binary::symbols::symbols_blob;
use hpcutil::{par_map, ParallelConfig};
use ssdeep::{compare, compare_prepared, fuzzy_hash_bytes, FuzzyHash, PreparedHash};

/// Minimum printable-run length for the strings view (`strings -n 4`).
pub const STRINGS_MIN_LENGTH: usize = 4;

/// The three fuzzy-hashed views of an executable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Fuzzy hash of the raw file bytes.
    File,
    /// Fuzzy hash of the printable strings.
    Strings,
    /// Fuzzy hash of the global defined symbol names.
    Symbols,
}

impl FeatureKind {
    /// All feature kinds, in the order the paper lists them.
    pub const ALL: [FeatureKind; 3] = [
        FeatureKind::File,
        FeatureKind::Strings,
        FeatureKind::Symbols,
    ];

    /// The paper's name for the feature (`ssdeep-file`, `ssdeep-strings`,
    /// `ssdeep-symbols`).
    pub fn paper_name(&self) -> &'static str {
        match self {
            FeatureKind::File => "ssdeep-file",
            FeatureKind::Strings => "ssdeep-strings",
            FeatureKind::Symbols => "ssdeep-symbols",
        }
    }
}

impl std::fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// The fuzzy hashes of one sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleFeatures {
    /// Fuzzy hash of the raw file content.
    pub file: FuzzyHash,
    /// Fuzzy hash of the `strings` output.
    pub strings: FuzzyHash,
    /// Fuzzy hash of the `nm -g --defined-only` name list, if the executable
    /// still has a symbol table. Stripped binaries have `None`, which the
    /// paper lists as a limitation of the approach.
    pub symbols: Option<FuzzyHash>,
}

impl SampleFeatures {
    /// Extract the three fuzzy-hash features from executable bytes.
    ///
    /// Files that are not parseable ELF still get `file` and `strings`
    /// features (both work on raw bytes); only the symbols view requires an
    /// intact ELF symbol table.
    pub fn extract(bytes: &[u8]) -> Self {
        let file = fuzzy_hash_bytes(bytes);
        let strings = fuzzy_hash_bytes(&strings_blob(bytes, STRINGS_MIN_LENGTH));
        let symbols = match ElfFile::parse(bytes) {
            Ok(elf) => {
                let blob = symbols_blob(&elf);
                if blob.is_empty() {
                    None
                } else {
                    Some(fuzzy_hash_bytes(&blob))
                }
            }
            Err(_) => None,
        };
        Self {
            file,
            strings,
            symbols,
        }
    }

    /// The hash for a given view, if present.
    pub fn get(&self, kind: FeatureKind) -> Option<&FuzzyHash> {
        match kind {
            FeatureKind::File => Some(&self.file),
            FeatureKind::Strings => Some(&self.strings),
            FeatureKind::Symbols => self.symbols.as_ref(),
        }
    }

    /// Whether the sample still carries a usable symbol table.
    pub fn has_symbols(&self) -> bool {
        self.symbols.is_some()
    }

    /// SSDeep similarity (0–100) between the same view of two samples.
    /// Missing views (stripped binaries) score 0.
    pub fn similarity(&self, other: &SampleFeatures, kind: FeatureKind) -> u32 {
        match (self.get(kind), other.get(kind)) {
            (Some(a), Some(b)) => compare(a, b),
            _ => 0,
        }
    }
}

/// The comparison-ready form of [`SampleFeatures`]: every present view's
/// fuzzy hash with its per-comparison state precomputed
/// ([`ssdeep::PreparedHash`]).
///
/// Preparing costs one run-elimination + window-key sort per view; every
/// subsequent comparison against another prepared sample then skips that
/// work entirely and runs on the bounded `ssdeep::fastdist` kernel. The
/// similarity feature matrix prepares each query sample once and compares
/// it against the reference set's already-prepared hashes, threading each
/// cell's running maximum down as an early-exit score budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedSampleFeatures {
    /// Prepared fuzzy hash of the raw file content.
    pub file: PreparedHash,
    /// Prepared fuzzy hash of the `strings` output.
    pub strings: PreparedHash,
    /// Prepared fuzzy hash of the symbol-name list, if present.
    pub symbols: Option<PreparedHash>,
}

impl PreparedSampleFeatures {
    /// Precompute the comparison state of every view of `features`.
    pub fn prepare(features: &SampleFeatures) -> Self {
        Self {
            file: PreparedHash::new(&features.file),
            strings: PreparedHash::new(&features.strings),
            symbols: features.symbols.as_ref().map(PreparedHash::new),
        }
    }

    /// The prepared hash for a given view, if present.
    pub fn get(&self, kind: FeatureKind) -> Option<&PreparedHash> {
        match kind {
            FeatureKind::File => Some(&self.file),
            FeatureKind::Strings => Some(&self.strings),
            FeatureKind::Symbols => self.symbols.as_ref(),
        }
    }

    /// The plain (unprepared) features, reconstructed from the prepared
    /// hashes.
    pub fn to_sample_features(&self) -> SampleFeatures {
        SampleFeatures {
            file: self.file.hash().clone(),
            strings: self.strings.hash().clone(),
            symbols: self.symbols.as_ref().map(|p| p.hash().clone()),
        }
    }

    /// SSDeep similarity (0–100) between the same view of two prepared
    /// samples; byte-identical to [`SampleFeatures::similarity`].
    /// Missing views (stripped binaries) score 0.
    pub fn similarity(&self, other: &PreparedSampleFeatures, kind: FeatureKind) -> u32 {
        match (self.get(kind), other.get(kind)) {
            (Some(a), Some(b)) => compare_prepared(a, b),
            _ => 0,
        }
    }
}

impl From<&SampleFeatures> for PreparedSampleFeatures {
    fn from(features: &SampleFeatures) -> Self {
        Self::prepare(features)
    }
}

/// Extract features for a batch of byte buffers in parallel.
pub fn extract_batch(samples: &[Vec<u8>]) -> Vec<SampleFeatures> {
    par_map(samples, ParallelConfig::default(), |bytes| {
        SampleFeatures::extract(bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use binary::elf::{strip_symbols, ElfBuilder};

    fn sample_elf(tag: &str) -> Vec<u8> {
        let mut b = ElfBuilder::new();
        let code: Vec<u8> = (0..20_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect();
        b.add_text_section(code);
        b.add_rodata_section(format!("{tag} usage message\0{tag} error string\0").into_bytes());
        for i in 0..40 {
            b.add_global_function(&format!("{tag}_function_{i}"), (i * 64) as u64, 64);
        }
        b.build()
    }

    #[test]
    fn extraction_produces_all_three_views() {
        let f = SampleFeatures::extract(&sample_elf("velvet"));
        assert!(f.has_symbols());
        for kind in FeatureKind::ALL {
            assert!(f.get(kind).is_some());
        }
    }

    #[test]
    fn stripped_binary_has_no_symbols_view() {
        let original = sample_elf("velvet");
        let stripped = strip_symbols(&original).unwrap();
        let f = SampleFeatures::extract(&stripped);
        assert!(!f.has_symbols());
        assert!(f.get(FeatureKind::Symbols).is_none());
        // File and strings views still exist.
        assert!(f.get(FeatureKind::File).is_some());
        assert!(f.get(FeatureKind::Strings).is_some());
    }

    #[test]
    fn non_elf_input_still_hashes_file_and_strings() {
        let f = SampleFeatures::extract(b"#!/bin/sh\necho this is a wrapper script\n");
        assert!(!f.has_symbols());
        assert!(f.get(FeatureKind::File).is_some());
    }

    #[test]
    fn self_similarity_is_maximal() {
        let f = SampleFeatures::extract(&sample_elf("velvet"));
        assert_eq!(f.similarity(&f, FeatureKind::File), 100);
        assert_eq!(f.similarity(&f, FeatureKind::Symbols), 100);
    }

    #[test]
    fn different_programs_have_low_similarity() {
        let a = SampleFeatures::extract(&sample_elf("velvet"));
        let b = SampleFeatures::extract(&sample_elf("openmalaria"));
        // Symbols are completely different names.
        assert!(a.similarity(&b, FeatureKind::Symbols) < 60);
    }

    #[test]
    fn missing_view_scores_zero() {
        let a = SampleFeatures::extract(&sample_elf("velvet"));
        let stripped = SampleFeatures::extract(&strip_symbols(&sample_elf("velvet")).unwrap());
        assert_eq!(a.similarity(&stripped, FeatureKind::Symbols), 0);
        assert_eq!(stripped.similarity(&a, FeatureKind::Symbols), 0);
    }

    #[test]
    fn paper_names_match_table_5() {
        assert_eq!(FeatureKind::File.paper_name(), "ssdeep-file");
        assert_eq!(FeatureKind::Strings.paper_name(), "ssdeep-strings");
        assert_eq!(FeatureKind::Symbols.paper_name(), "ssdeep-symbols");
        assert_eq!(FeatureKind::Symbols.to_string(), "ssdeep-symbols");
    }

    #[test]
    fn prepared_similarity_matches_plain() {
        let a = SampleFeatures::extract(&sample_elf("velvet"));
        let b = SampleFeatures::extract(&sample_elf("openmalaria"));
        let stripped = SampleFeatures::extract(&strip_symbols(&sample_elf("velvet")).unwrap());
        let samples = [a, b, stripped];
        let prepared: Vec<PreparedSampleFeatures> = samples
            .iter()
            .map(PreparedSampleFeatures::prepare)
            .collect();
        for (s1, p1) in samples.iter().zip(&prepared) {
            assert_eq!(&p1.to_sample_features(), s1);
            for (s2, p2) in samples.iter().zip(&prepared) {
                for kind in FeatureKind::ALL {
                    assert_eq!(s1.similarity(s2, kind), p1.similarity(p2, kind));
                }
            }
        }
    }

    #[test]
    fn batch_extraction_matches_single() {
        let batch = vec![sample_elf("a"), sample_elf("b")];
        let features = extract_batch(&batch);
        assert_eq!(features.len(), 2);
        assert_eq!(features[0], SampleFeatures::extract(&batch[0]));
        assert_eq!(features[1], SampleFeatures::extract(&batch[1]));
    }
}
