//! Randomized (but fully deterministic) property tests for the ELF
//! build/parse round trip and the strings/symbols extractors. The build
//! environment has no crates.io access, so instead of `proptest` these tests
//! drive the same properties with a seeded SplitMix64 generator over a fixed
//! number of cases.

use binary::elf::{ElfBuilder, ElfFile};
use binary::strings::{extract_strings, is_printable, strings_blob};
use binary::symbols::{global_defined_symbols, symbols_blob};
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
        let elf = ElfFile::parse(&b.build()).unwrap();
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

/// The symbols blob is newline-joined and contains every name.
#[test]
fn symbols_blob_contains_all_names() {
    let mut g = Gen(12);
    for _ in 0..48 {
        let names = g.identifiers(0, 20);
        let mut b = ElfBuilder::new();
        b.add_text_section(vec![0x90; 1024]);
        for (i, name) in names.iter().enumerate() {
            b.add_global_function(name, (i * 8) as u64, 8);
        }
        let elf = ElfFile::parse(&b.build()).unwrap();
        let blob = String::from_utf8(symbols_blob(&elf)).unwrap();
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

/// The one-pass `strings_blob` equals the runs of `extract_strings` each
/// followed by a newline, for every minimum length 0–8, on random bytes
/// drawn around the printable-class edges (tab, newline, 0x1F/0x20,
/// 0x7E/0x7F) and on inputs whose last run reaches the end of the data.
#[test]
fn strings_blob_equals_joined_runs() {
    const EDGES: [u8; 8] = [0x09, 0x0A, 0x1F, 0x20, 0x41, 0x7E, 0x7F, 0xFF];
    let joined = |data: &[u8], min_len: usize| -> Vec<u8> {
        let mut out = Vec::new();
        for run in extract_strings(data, min_len) {
            out.extend_from_slice(run.as_bytes());
            out.push(b'\n');
        }
        out
    };
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
        for min_len in 0..=8 {
            assert_eq!(
                strings_blob(&data, min_len),
                joined(&data, min_len),
                "case {case}, min_len {min_len}"
            );
        }
    }
    for data in [&b""[..], b"abcd", b"\tabc", b"\x7f~~~~", b"\x1f    \x0a"] {
        for min_len in 0..=8 {
            assert_eq!(strings_blob(data, min_len), joined(data, min_len));
        }
    }
}

/// Parsing arbitrary bytes never panics: it returns Ok or a clean error.
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
}
