//! Randomized (but fully deterministic) property tests for the ELF
//! build/parse round trip and the strings/symbols extractors. The build
//! environment has no crates.io access, so instead of `proptest` these tests
//! drive the same properties with a seeded SplitMix64 generator over a fixed
//! number of cases.

use binary::elf::{ElfBuilder, ElfFile};
use binary::strings::{extract_strings, is_printable, strings_blob};
use binary::symbols::{global_defined_symbols, symbols_blob};
use binary::BinaryError;
use fhc::features::{SampleFeatures, STRINGS_MIN_LENGTH};
use ssdeep::fuzzy_hash_bytes;
use std::collections::HashSet;

/// SplitMix64 — the deterministic case generator for these tests.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, low: usize, high: usize) -> usize {
        low + (self.next() as usize) % (high - low)
    }

    fn bytes(&mut self, low: usize, high: usize) -> Vec<u8> {
        let len = self.range(low, high);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// A plausible C-style identifier: `[a-zA-Z_][a-zA-Z0-9_]{0,30}`.
    fn identifier(&mut self) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
        let mut name = String::new();
        name.push(FIRST[self.range(0, FIRST.len())] as char);
        for _ in 0..self.range(0, 31) {
            name.push(REST[self.range(0, REST.len())] as char);
        }
        name
    }

    /// A set of `low..high` distinct identifiers.
    fn identifiers(&mut self, low: usize, high: usize) -> HashSet<String> {
        let target = self.range(low, high);
        let mut names = HashSet::new();
        while names.len() < target {
            names.insert(self.identifier());
        }
        names
    }
}

/// Whatever the builder produces, the parser accepts, and section contents
/// survive the round trip byte-for-byte.
#[test]
fn build_parse_roundtrip() {
    let mut g = Gen(10);
    for _ in 0..48 {
        let text = g.bytes(0, 4096);
        let rodata = g.bytes(0, 2048);
        let data = g.bytes(0, 512);
        let mut b = ElfBuilder::new();
        b.add_text_section(text.clone());
        b.add_rodata_section(rodata.clone());
        b.add_data_section(data.clone());
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).expect("built ELF must parse");
        assert_eq!(&elf.section_by_name(".text").unwrap().data, &text);
        assert_eq!(&elf.section_by_name(".rodata").unwrap().data, &rodata);
        assert_eq!(&elf.section_by_name(".data").unwrap().data, &data);
    }
}

/// Every global function added to the builder appears exactly once in the
/// nm-style global symbol list, and the list is sorted.
#[test]
fn symbols_survive_roundtrip() {
    let mut g = Gen(11);
    for _ in 0..48 {
        let names = g.identifiers(1, 40);
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 4096]);
        for (i, name) in names.iter().enumerate() {
            b.add_global_function(name, (i * 16) as u64, 16);
        }
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        let syms = global_defined_symbols(&elf);
        assert_eq!(syms.len(), names.len());
        let listed: Vec<&str> = syms.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(&listed, &sorted);
        for name in &names {
            assert!(listed.contains(&name.as_str()));
        }
    }
}

/// The symbols blob is the `global_defined_symbols` names, each followed
/// by a newline, in the same order, and contains every name. Half the cases
/// give the names a shared prefix of 4–12 bytes and keep at most three
/// bytes after it, so many names are prefixes of one another.
#[test]
fn symbols_blob_contains_all_names() {
    const PREFIXES: [&str; 4] = ["fsl_", "fsl_dist", "fsl_distrib", "application_"];
    let mut g = Gen(12);
    for case in 0..48 {
        let prefix = PREFIXES[g.range(0, PREFIXES.len())];
        let mut names = g.identifiers(0, 20);
        if case % 2 == 1 {
            names = names
                .iter()
                .map(|n| format!("{prefix}{}", &n[..g.range(0, n.len().min(3) + 1)]))
                .collect();
        }
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 1024]);
        for (i, name) in names.iter().enumerate() {
            b.add_global_function(name, (i * 8) as u64, 8);
        }
        let bytes = b.build();
        let elf = ElfFile::parse(&bytes).unwrap();
        let blob = String::from_utf8(symbols_blob(&elf)).unwrap();
        let mut joined = String::new();
        for s in global_defined_symbols(&elf) {
            joined.push_str(&s.name);
            joined.push('\n');
        }
        assert_eq!(blob, joined, "case {case}");
        for name in &names {
            assert!(blob.lines().any(|l| l == name));
        }
        assert_eq!(blob.lines().count(), names.len());
    }
}

/// Every extracted string is printable, at least min_len long, and actually
/// present in the input.
#[test]
fn extracted_strings_are_printable_substrings() {
    let mut g = Gen(13);
    for _ in 0..48 {
        let data = g.bytes(0, 4096);
        let min_len = g.range(1, 8);
        let runs = extract_strings(&data, min_len);
        for run in &runs {
            assert!(run.len() >= min_len);
            assert!(run.bytes().all(is_printable));
            let needle = run.as_bytes();
            assert!(data.windows(needle.len()).any(|w| w == needle));
        }
    }
}

/// The strings blob decomposes back into exactly the extracted runs.
#[test]
fn blob_matches_runs() {
    let mut g = Gen(14);
    for _ in 0..48 {
        let data = g.bytes(0, 2048);
        let runs = extract_strings(&data, 4);
        let blob = strings_blob(&data, 4);
        let joined: Vec<&str> = std::str::from_utf8(&blob).unwrap().lines().collect();
        assert_eq!(joined.len(), runs.len());
        for (a, b) in joined.iter().zip(runs.iter()) {
            assert_eq!(*a, b.as_str());
        }
    }
}

/// `strings_blob` equals the runs of `extract_strings` each followed by a
/// newline.
fn assert_blob_matches_oracle(data: &[u8], min_len: usize, what: &str) {
    let mut joined = Vec::new();
    for run in extract_strings(data, min_len) {
        joined.extend_from_slice(run.as_bytes());
        joined.push(b'\n');
    }
    assert_eq!(
        strings_blob(data, min_len),
        joined,
        "{what}, min_len {min_len}, {} bytes",
        data.len()
    );
}

/// Every minimum length the scanner treats differently: 0 (taken as 1),
/// the erosion steps, one block and either side of it, and past it.
const MIN_LENS: [usize; 17] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 31, 63, 64, 65, 100, 128, 200];

/// Bytes whose low seven bits are printable or a tab but whose high bit is
/// set: a word-parallel classifier that drops the high bit too early calls
/// them printable.
const HIGH_BIT_TRAPS: [u8; 6] = [0x89, 0xA0, 0xC1, 0xFE, 0xA9, 0xFF];

/// The word-parallel `strings_blob` equals the runs of `extract_strings`
/// on random bytes drawn around the printable-class edges (tab, newline,
/// 0x1F/0x20, 0x7E/0x7F and the high-bit traps), for every minimum length
/// in `MIN_LENS`, including inputs whose last run reaches the end of the
/// data.
#[test]
fn strings_blob_equals_joined_runs() {
    const EDGES: [u8; 12] = [
        0x09, 0x0A, 0x1F, 0x20, 0x41, 0x7E, 0x7F, 0xFF, 0x89, 0xA0, 0xC1, 0xFE,
    ];
    let mut g = Gen(16);
    for case in 0..96 {
        let len = g.range(0, 1024);
        let mut data: Vec<u8> = (0..len)
            .map(|_| match g.range(0, 4) {
                0 => g.next() as u8,
                1 => EDGES[g.range(0, EDGES.len())],
                _ => b'a' + g.range(0, 26) as u8,
            })
            .collect();
        if case % 2 == 0 {
            // End on a printable run of 0–9 bytes.
            data.extend((0..g.range(0, 10)).map(|_| b'A' + g.range(0, 26) as u8));
        }
        for min_len in MIN_LENS {
            assert_blob_matches_oracle(&data, min_len, &format!("case {case}"));
        }
    }
    for data in [&b""[..], b"abcd", b"\tabc", b"\x7f~~~~", b"\x1f    \x0a"] {
        for min_len in MIN_LENS {
            assert_blob_matches_oracle(data, min_len, "fixed");
        }
    }
}

/// Runs of every length class (short, about one word, about one block,
/// several blocks) separated by single non-printable bytes, so that runs
/// start and end at every offset within 8-byte words and 64-byte blocks,
/// cross both, and end in the last partial block.
#[test]
fn strings_blob_runs_across_words_and_blocks() {
    const SEPARATORS: [u8; 12] = [
        0x00, 0x0A, 0x0D, 0x1F, 0x7F, 0x80, 0x89, 0xA0, 0xC1, 0xFE, 0xFF, 0x08,
    ];
    let mut g = Gen(17);
    for case in 0..160 {
        let mut data = Vec::new();
        let target = g.range(65, 700);
        while data.len() < target {
            let run = match g.range(0, 4) {
                0 => g.range(0, 10),
                1 => g.range(5, 17),
                2 => g.range(58, 72),
                _ => g.range(90, 260),
            };
            data.extend((0..run).map(|_| 0x20 + g.range(0, 95) as u8));
            if g.range(0, 8) == 0 {
                data.push(b'\t');
            }
            data.push(SEPARATORS[g.range(0, SEPARATORS.len())]);
        }
        if case % 3 == 0 {
            data.pop(); // end inside a run
        }
        for min_len in MIN_LENS {
            assert_blob_matches_oracle(&data, min_len, &format!("case {case}"));
        }
    }
}

/// One printable run `[start, end)` in a field of zero bytes, for run ends
/// on, just before and just after word and block edges, in full blocks and
/// in the last partial block, and for runs that fill whole blocks.
#[test]
fn strings_blob_run_edges() {
    let ends = [
        1, 7, 8, 9, 62, 63, 64, 65, 127, 128, 129, 191, 192, 193, 250,
    ];
    let lengths = [1, 3, 4, 5, 8, 62, 63, 64, 65, 66, 100, 128, 129, 192];
    for total in [64, 65, 127, 128, 130, 192, 200, 256] {
        for &end in ends.iter().filter(|&&end| end <= total) {
            for &len in lengths.iter().filter(|&&len| len <= end) {
                let mut data = vec![0u8; total];
                data[end - len..end].fill(b'x');
                for min_len in MIN_LENS {
                    let what = format!("run {}..{end} of {total}", end - len);
                    assert_blob_matches_oracle(&data, min_len, &what);
                }
            }
        }
    }
}

/// Whole blocks of printable bytes, alone, broken by one non-printable
/// byte, or ending in the last partial block.
#[test]
fn strings_blob_all_printable_blocks() {
    for total in [63, 64, 65, 128, 129, 256, 261] {
        let printable: Vec<u8> = (0..total).map(|i| 0x20 + (i % 95) as u8).collect();
        for min_len in MIN_LENS {
            assert_blob_matches_oracle(&printable, min_len, "all printable");
        }
        for hole in [0, 1, 31, 63, 64, total / 2, total - 1].map(|h| h.min(total - 1)) {
            for byte in [0x00, 0x0A, 0x7F, 0x89, 0xA0, 0xC1, 0xFE] {
                let mut data = printable.clone();
                data[hole] = byte;
                for min_len in MIN_LENS {
                    let what = format!("{byte:#04x} at {hole}");
                    assert_blob_matches_oracle(&data, min_len, &what);
                }
            }
        }
    }
}

/// A byte with the high bit set is never printable, even when its low
/// seven bits are printable or a tab, wherever it falls in a word.
#[test]
fn strings_blob_high_bit_traps() {
    for &trap in &HIGH_BIT_TRAPS {
        assert!(!is_printable(trap));
        for at in 0..72 {
            let mut data = vec![b'a'; 140];
            data[at] = trap;
            data[at + 67] = trap;
            for min_len in MIN_LENS {
                assert_blob_matches_oracle(&data, min_len, &format!("{trap:#04x} at {at}"));
            }
        }
        let only_traps = vec![trap; 200];
        for min_len in MIN_LENS {
            assert_blob_matches_oracle(&only_traps, min_len, "only traps");
            assert!(strings_blob(&only_traps, min_len).is_empty());
        }
    }
}

/// A name that is not valid UTF-8 gets the same replacement bytes as
/// `String::from_utf8_lossy`, and the blob sorts the replaced names, not
/// the raw bytes: raw, `b\xF0x` sorts before `b\xFF`; replaced, `b\u{FFFD}`
/// sorts before `b\u{FFFD}x`.
#[test]
fn symbols_blob_of_invalid_utf8_names() {
    let mut b = ElfBuilder::new();
    b.add_text_section(vec![0x90; 64]);
    for name in ["zeta", "bQ", "bRx", "alpha"] {
        b.add_global_function(name, 0, 8);
    }
    let mut bytes = b.build();
    for (placeholder, invalid) in [(&b"\0bQ\0"[..], 0xFF), (&b"\0bRx\0"[..], 0xF0)] {
        let at = bytes
            .windows(placeholder.len())
            .position(|w| w == placeholder)
            .expect("name in .strtab");
        bytes[at + 2] = invalid;
    }
    let elf = ElfFile::parse(&bytes).unwrap();
    assert_eq!(
        symbols_blob(&elf),
        b"alpha\nb\xEF\xBF\xBD\nb\xEF\xBF\xBDx\nzeta\n".to_vec()
    );
}

/// Field offsets in the ELF64 file and section headers.
const E_SHOFF: usize = 40;
const E_SHNUM: usize = 60;
const E_SHSTRNDX: usize = 62;
const SH_OFFSET: usize = 24;
const SH_SIZE: usize = 32;
const SH_LINK: usize = 40;
const SH_ENTSIZE: usize = 56;
/// `ElfBuilder`'s fixed section order.
const SYMTAB: usize = 5;
const STRTAB: usize = 6;
const SHSTRTAB: usize = 7;

/// `ElfBuilder` output with code, strings and symbols, for the mutator.
fn hostile_seed() -> Vec<u8> {
    let mut b = ElfBuilder::new();
    b.add_text_section(vec![0x90; 256]);
    b.add_rodata_section(b"solver version 3.1\0usage: run <deck>\0".to_vec());
    b.add_data_section(vec![7; 24]);
    b.add_global_function("main_loop", 0x10, 64);
    b.add_global_function("init_solver", 0x50, 32);
    b.add_global_object("solver_config", 0, 8);
    b.build()
}

fn put_u16(bytes: &mut [u8], at: usize, v: u16) {
    bytes[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// File offset of section header `index` (wrapping, as the header may
/// already be corrupt).
fn shdr(bytes: &[u8], index: usize) -> usize {
    (get_u64(bytes, E_SHOFF) as usize).wrapping_add(64 * index)
}

/// The whole feature extraction survives `bytes`: parsing returns Ok or a
/// typed error, and `SampleFeatures::extract` still hashes the file and
/// strings views of the raw bytes, with a symbols view exactly when the
/// file parses to a non-empty symbol list.
fn assert_extraction_survives(bytes: &[u8], what: &str) -> Result<(), BinaryError> {
    let parsed = ElfFile::parse(bytes);
    let symbols = parsed.as_ref().ok().map(symbols_blob);
    let features = SampleFeatures::extract(bytes);
    assert_eq!(features.file, fuzzy_hash_bytes(bytes), "{what}");
    assert_eq!(
        features.strings,
        fuzzy_hash_bytes(&strings_blob(bytes, STRINGS_MIN_LENGTH)),
        "{what}"
    );
    assert_eq!(
        features.symbols.is_some(),
        symbols.is_some_and(|blob| !blob.is_empty()),
        "{what}"
    );
    parsed.map(|_| ())
}

/// Parsing arbitrary bytes never panics: it returns Ok or a clean error.
/// Besides random bytes and prefixes of a valid file, this covers hostile
/// section and symbol tables built by corrupting a valid file: header-table
/// offsets and counts that overflow, section ranges that overflow, links to
/// sections that do not exist, names past their string table and string
/// tables without a final NUL. Every one still yields the file and strings
/// views.
#[test]
fn parser_never_panics() {
    let mut g = Gen(15);
    for _ in 0..48 {
        let data = g.bytes(0, 2048);
        let _ = ElfFile::parse(&data);
    }
    // A few adversarial prefixes of a valid ELF.
    let mut b = ElfBuilder::new();
    b.add_text_section(vec![0x90; 256]);
    let valid = b.build();
    for len in [0, 1, 4, 16, 52, 64, valid.len() / 2, valid.len() - 1] {
        let _ = ElfFile::parse(&valid[..len]);
    }

    let seed = hostile_seed();
    assert_eq!(assert_extraction_survives(&seed, "seed"), Ok(()));
    let mutate = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = seed.clone();
        f(&mut bytes);
        bytes
    };

    // The section-header table offset near u64::MAX: `e_shoff + 64` wraps.
    for shoff in [
        u64::MAX,
        u64::MAX - 16,
        u64::MAX - 63,
        u64::MAX - 64,
        1 << 63,
    ] {
        for shnum in [1, 2, 0xFFFF] {
            let bytes = mutate(&|b| {
                put_u64(b, E_SHOFF, shoff);
                put_u16(b, E_SHNUM, shnum);
            });
            let err = assert_extraction_survives(&bytes, "e_shoff").unwrap_err();
            assert!(matches!(err, BinaryError::Truncated { .. }), "{err}");
        }
    }

    // More section headers than the file holds.
    let bytes = mutate(&|b| put_u16(b, E_SHNUM, 0xFFFF));
    let err = assert_extraction_survives(&bytes, "e_shnum").unwrap_err();
    assert!(matches!(err, BinaryError::Truncated { .. }), "{err}");
    let bytes = mutate(&|b| put_u16(b, E_SHSTRNDX, 0xFFFF));
    assert_eq!(
        assert_extraction_survives(&bytes, "e_shstrndx"),
        Err(BinaryError::BadShStrNdx(0xFFFF))
    );

    // Section ranges whose end overflows or lies past the file.
    for index in 1..=SHSTRTAB {
        for (offset, size) in [
            (u64::MAX - 8, 16),
            (u64::MAX, 1),
            (seed.len() as u64 - 1, u64::MAX),
            (8, u64::MAX - 7),
            (seed.len() as u64, 1),
        ] {
            let bytes = mutate(&|b| {
                let at = shdr(b, index);
                put_u64(b, at + SH_OFFSET, offset);
                put_u64(b, at + SH_SIZE, size);
            });
            assert_eq!(
                assert_extraction_survives(&bytes, "sh_offset + sh_size"),
                Err(BinaryError::SectionOutOfBounds { index })
            );
        }
    }

    // A symbol table linked to a string table that does not exist, or to
    // one that is not a string table: names resolve to nothing or to
    // whatever bytes are there, but parsing succeeds.
    for link in [u32::MAX, 8, 0x10000, 0, 1, SHSTRTAB as u32] {
        let bytes = mutate(&|b| {
            let at = shdr(b, SYMTAB);
            put_u32(b, at + SH_LINK, link);
        });
        assert_eq!(assert_extraction_survives(&bytes, "sh_link"), Ok(()));
    }
    let bytes = mutate(&|b| {
        let at = shdr(b, SYMTAB);
        put_u64(b, at + SH_ENTSIZE, 23);
    });
    assert_eq!(
        assert_extraction_survives(&bytes, "sh_entsize"),
        Err(BinaryError::BadSymbolEntrySize(23))
    );

    // Symbol names past the end of the string table resolve to "".
    let symtab_at = |b: &[u8]| get_u64(b, shdr(b, SYMTAB) + SH_OFFSET) as usize;
    let strtab_size = |b: &[u8]| get_u64(b, shdr(b, STRTAB) + SH_SIZE) as u32;
    for st_name in [strtab_size(&seed), strtab_size(&seed) + 1, u32::MAX] {
        let bytes = mutate(&|b| {
            let first = symtab_at(b) + 24;
            put_u32(b, first, st_name);
        });
        assert_eq!(assert_extraction_survives(&bytes, "st_name"), Ok(()));
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(elf.symbols()[1].name, "");
    }

    // String tables without a final NUL: the last name runs to the end of
    // its table, which ends one byte early.
    for table in [STRTAB, SHSTRTAB] {
        let bytes = mutate(&|b| {
            let at = shdr(b, table);
            let size = get_u64(b, at + SH_SIZE);
            put_u64(b, at + SH_SIZE, size - 1);
        });
        assert_eq!(assert_extraction_survives(&bytes, "short strtab"), Ok(()));
        let bytes = mutate(&|b| {
            let at = shdr(b, table);
            let end = (get_u64(b, at + SH_OFFSET) + get_u64(b, at + SH_SIZE)) as usize;
            b[end - 1] = b'A';
        });
        assert_eq!(assert_extraction_survives(&bytes, "unterminated"), Ok(()));
    }
    let bytes = mutate(&|b| {
        let at = shdr(b, STRTAB);
        let size = get_u64(b, at + SH_SIZE);
        put_u64(b, at + SH_SIZE, size - 1);
    });
    let names: Vec<String> = global_defined_symbols(&ElfFile::parse(&bytes).unwrap())
        .into_iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(names, ["init_solver", "main_loop", "solver_config"]);
}

/// Random stacks of the corruptions in `parser_never_panics`, plus random
/// header and symbol words, on seeded cases: nothing panics and the raw
/// views survive.
#[test]
fn parser_never_panics_on_random_mutations() {
    const WILD: [u64; 9] = [
        0,
        1,
        23,
        24,
        0xFFFF,
        u32::MAX as u64,
        u64::MAX,
        u64::MAX - 16,
        1 << 63,
    ];
    let seed = hostile_seed();
    let mut g = Gen(18);
    for case in 0..400 {
        let mut bytes = seed.clone();
        for _ in 0..g.range(1, 4) {
            let value = match g.range(0, 3) {
                0 => WILD[g.range(0, WILD.len())],
                1 => g.range(0, 2 * seed.len()) as u64,
                _ => g.next(),
            };
            let index = g.range(0, 8);
            match g.range(0, 8) {
                0 => put_u64(&mut bytes, E_SHOFF, value),
                1 => put_u16(&mut bytes, E_SHNUM, value as u16),
                2 => put_u16(&mut bytes, E_SHSTRNDX, value as u16),
                3 | 4 => {
                    let field = [SH_OFFSET, SH_SIZE, SH_LINK, SH_ENTSIZE][g.range(0, 4)];
                    let at = shdr(&bytes, index).wrapping_add(field);
                    if at < bytes.len().saturating_sub(8) {
                        put_u64(&mut bytes, at, value);
                    }
                }
                5 => {
                    let at = g.range(0, bytes.len() - 4);
                    put_u32(&mut bytes, at, value as u32);
                }
                6 => {
                    let cut = g.range(0, bytes.len());
                    bytes.truncate(cut);
                }
                _ => {
                    let at = g.range(0, bytes.len());
                    bytes[at] = value as u8;
                }
            }
            if bytes.len() < 72 {
                break;
            }
        }
        let _ = assert_extraction_survives(&bytes, &format!("case {case}"));
    }
}
