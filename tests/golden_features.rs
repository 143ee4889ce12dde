//! Golden pin for feature extraction: the fuzzy hashes of all three views
//! (file bytes, `strings`, `nm`) of a fixed corpus, folded into one digest.
//!
//! Any change to the ELF builder, the corpus generator, the strings or
//! symbols views, or the ssdeep generator that moves a single signature
//! character moves this digest. A rewrite that is meant to be exact must
//! leave it alone; a deliberate behaviour change updates the constant with
//! its reason recorded in CHANGES.md.

use binary::elf::{strip_symbols, ElfFile};
use binary::strings::strings_blob;
use binary::symbols::symbols_blob;
use corpus::{Catalog, CorpusBuilder};
use ssdeep::fuzzy_hash_bytes;

/// FNV-1a (64-bit) over every hash's `Display` form, in corpus order.
const GOLDEN_DIGEST: u64 = 0x4f29_979a_3d78_1036;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one view: its name, its hash text and a separator, so a view
    /// that vanishes cannot alias its neighbour.
    fn view(&mut self, name: &str, data: &[u8]) {
        self.write(name.as_bytes());
        self.write(fuzzy_hash_bytes(data).to_string().as_bytes());
        self.write(b"\n");
    }
}

fn fold_sample(digest: &mut Fnv1a, bytes: &[u8]) {
    digest.view("file", bytes);
    digest.view("strings", &strings_blob(bytes, 4));
    match ElfFile::parse(bytes) {
        Ok(elf) => digest.view("symbols", &symbols_blob(&elf)),
        Err(_) => digest.write(b"unparsed\n"),
    }
}

#[test]
fn three_view_hashes_of_the_seed_42_corpus_are_pinned() {
    let corpus = CorpusBuilder::new(42).build(&Catalog::paper().scaled(0.02));
    let mut digest = Fnv1a::new();
    let mut views = 0;
    for (i, spec) in corpus.samples().iter().enumerate() {
        let bytes = corpus.generate_bytes(spec);
        fold_sample(&mut digest, &bytes);
        views += 3;
        if i % 8 == 0 {
            let stripped = strip_symbols(&bytes).expect("corpus samples strip cleanly");
            fold_sample(&mut digest, &stripped);
            views += 3;
        }
    }
    assert!(views > 300, "corpus unexpectedly small: {views} views");
    assert_eq!(
        digest.0, GOLDEN_DIGEST,
        "extraction output moved: new digest {:#018x} over {views} views",
        digest.0
    );
}
