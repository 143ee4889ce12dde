//! Integration tests across the corpus, binary, and ssdeep crates: every
//! generated executable is a valid ELF whose three fuzzy-hash views behave
//! the way the classifier assumes.

use binary::elf::{strip_symbols, ElfFile};
use binary::strings::extract_strings;
use binary::symbols::global_defined_symbols;
use corpus::{Catalog, CorpusBuilder};
use fhc::features::{FeatureKind, SampleFeatures};

#[test]
fn every_sample_of_a_small_corpus_is_a_valid_elf_with_features() {
    let corpus = CorpusBuilder::new(9).build(&Catalog::paper().scaled(0.02));
    assert_eq!(corpus.n_classes(), 92);
    for spec in corpus.samples().iter().step_by(7) {
        let bytes = corpus.generate_bytes(spec);
        let elf = ElfFile::parse(&bytes)
            .unwrap_or_else(|e| panic!("sample {} failed to parse: {e}", spec.install_path()));
        assert!(
            elf.has_symbol_table(),
            "{} lost its symbol table",
            spec.install_path()
        );
        assert!(
            !global_defined_symbols(&elf).is_empty(),
            "{} has no global symbols",
            spec.install_path()
        );
        assert!(
            !extract_strings(&bytes, 4).is_empty(),
            "{} has no printable strings",
            spec.install_path()
        );
        let features = SampleFeatures::extract(&bytes);
        assert!(features.has_symbols());
    }
}

#[test]
fn within_class_similarity_exceeds_cross_class_similarity() {
    let corpus = CorpusBuilder::new(4).build(&Catalog::paper().scaled(0.02));
    // For a handful of classes, the symbols-view similarity between two
    // versions of the same executable must exceed the similarity between
    // executables of unrelated classes.
    let mut checked = 0;
    for class_index in [0usize, 10, 30, 50, 70] {
        // Two versions of the *same executable* of this class.
        let Some(first) = corpus
            .samples()
            .iter()
            .find(|s| s.class_index == class_index && s.version_index == 0)
        else {
            continue;
        };
        let Some(second) = corpus.samples().iter().find(|s| {
            s.class_index == class_index
                && s.executable_name == first.executable_name
                && s.version_index != 0
        }) else {
            continue;
        };
        let other = corpus
            .samples()
            .iter()
            .find(|s| s.class_index == (class_index + 40) % 92)
            .unwrap();
        let fa = SampleFeatures::extract(&corpus.generate_bytes(first));
        let fb = SampleFeatures::extract(&corpus.generate_bytes(second));
        let fo = SampleFeatures::extract(&corpus.generate_bytes(other));
        let within = fa.similarity(&fb, FeatureKind::Symbols);
        let across = fa.similarity(&fo, FeatureKind::Symbols);
        assert!(
            within > across,
            "class {class_index}: within {within} should exceed across {across}"
        );
        checked += 1;
    }
    assert!(checked >= 3);
}

#[test]
fn stripped_corpus_sample_loses_only_the_symbols_view() {
    let corpus = CorpusBuilder::new(2).build(&Catalog::paper().scaled(0.02));
    let spec = &corpus.samples()[0];
    let original = corpus.generate_bytes(spec);
    let stripped = strip_symbols(&original).expect("stripping succeeds");

    let f_orig = SampleFeatures::extract(&original);
    let f_stripped = SampleFeatures::extract(&stripped);
    assert!(f_orig.has_symbols());
    assert!(!f_stripped.has_symbols());
    // The strings view survives stripping nearly unchanged.
    let strings_sim = f_orig.similarity(&f_stripped, FeatureKind::Strings);
    assert!(
        strings_sim > 60,
        "strings similarity after stripping: {strings_sim}"
    );
    // The symbols view is gone, so its similarity collapses to zero.
    assert_eq!(f_orig.similarity(&f_stripped, FeatureKind::Symbols), 0);
}

#[test]
fn duplicate_install_classes_share_symbols() {
    // CellRanger vs Cell-Ranger are the same application installed twice
    // (paper Section 5): their executables should share a substantial part
    // of their global symbol names, unlike unrelated classes.
    let corpus = CorpusBuilder::new(6).build(&Catalog::paper().scaled(0.02));
    let find = |class: &str| {
        corpus
            .samples()
            .iter()
            .find(|s| s.class_name == class)
            .expect("class exists")
    };
    let symbol_set = |spec: &corpus::SampleSpec| -> std::collections::HashSet<String> {
        let bytes = corpus.generate_bytes(spec);
        let elf = ElfFile::parse(&bytes).unwrap();
        global_defined_symbols(&elf)
            .into_iter()
            .map(|s| s.name)
            .collect()
    };
    let cr = symbol_set(find("CellRanger"));
    let cr_dash = symbol_set(find("Cell-Ranger"));
    let unrelated = symbol_set(find("OpenMalaria"));

    let alias_overlap = cr.intersection(&cr_dash).count();
    let unrelated_overlap = cr.intersection(&unrelated).count();
    assert!(
        alias_overlap > unrelated_overlap + 10,
        "alias overlap {alias_overlap} should clearly exceed unrelated overlap {unrelated_overlap}"
    );
}
