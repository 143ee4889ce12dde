//! Randomized (but fully deterministic) property tests for the fuzzy-hashing
//! engine. The build environment has no crates.io access, so instead of
//! `proptest` these tests drive the same properties with a seeded SplitMix64
//! generator over a fixed number of cases.

use binary::elf::{ElfBuilder, ElfFile};
use binary::strings::strings_blob;
use binary::symbols::symbols_blob;
use ssdeep::blocksize::initial_blocksize;
use ssdeep::{
    compare, compare_prepared, damerau_levenshtein, fuzzy_hash_bytes, fuzzy_hash_bytes_oracle,
    levenshtein, weighted_edit_distance, FuzzyHash, PreparedHash,
};

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

    /// Random bytes with length in `low..high`.
    fn bytes(&mut self, low: usize, high: usize) -> Vec<u8> {
        let len = self.range(low, high);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// Random base64-alphabet string with length in `0..=max_len`.
    fn b64_string(&mut self, max_len: usize) -> String {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let len = self.range(0, max_len + 1);
        (0..len)
            .map(|_| ALPHABET[self.range(0, ALPHABET.len())] as char)
            .collect()
    }
}

/// Asserts the engine equals the oracle on `data`; returns whether the
/// chosen block size is at least two halvings below the initial estimate
/// (the oracle's third pass or later, the engine's fallback).
fn assert_engine_equals_oracle(data: &[u8], what: &str) -> bool {
    let engine = fuzzy_hash_bytes(data);
    let oracle = fuzzy_hash_bytes_oracle(data);
    assert_eq!(engine, oracle, "{what} (len {})", data.len());
    engine.block_size() <= initial_blocksize(data.len()) / 4
}

/// The one-pass engine is byte-identical to the halve-and-rehash oracle at
/// every block-size class: tiny inputs, lengths on either side of each
/// initial-block-size step, random and patterned content, low-entropy
/// content that misses the first two candidates, and real ELF images with
/// their strings and symbols views.
#[test]
fn engine_equals_oracle() {
    let mut g = Gen(13);
    let mut deep = 0;
    let mut check =
        |data: &[u8], what: &str| deep += usize::from(assert_engine_equals_oracle(data, what));

    check(b"", "empty");
    for len in 1..=8 {
        for _ in 0..16 {
            let data: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
            check(&data, "tiny random");
        }
        check(&vec![0; len], "tiny zeros");
        check(&vec![0xFF; len], "tiny ones");
    }

    // `initial_blocksize` steps from 3 << k to 3 << (k + 1) between
    // `(3 << k) * 64` and one byte more.
    for k in 0..=14u32 {
        let step = (3usize << k) * 64;
        for len in [step - 1, step, step + 1] {
            let random: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
            check(&random, "random at a block-size step");
            // Low entropy costs the oracle a pass per halving: keep it small.
            if k <= 8 {
                let ramp: Vec<u8> = (0..len).map(|i| (i / 300) as u8).collect();
                check(&ramp, "slow ramp at a block-size step");
            }
        }
    }

    for _ in 0..16 {
        let len = g.range(0, 100_000);
        let random: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        check(&random, "random");
        let stride = g.next() | 1;
        let patterned: Vec<u8> = (0..len as u64)
            .map(|i| (i.wrapping_mul(stride) >> 3) as u8)
            .collect();
        check(&patterned, "patterned");
        let period = g.range(1, 64);
        let repeated: Vec<u8> = (0..len).map(|i| (i % period) as u8 ^ 0x5A).collect();
        check(&repeated, "periodic");
    }

    for len in [100, 1_000, 10_000, 100_000] {
        check(&vec![0; len], "zeros");
        let mod3: Vec<u8> = (0..len).map(|i| (i % 3) as u8).collect();
        check(&mod3, "x % 3");
        let ramp: Vec<u8> = (0..len).map(|i| (i / 300) as u8).collect();
        check(&ramp, "slow ramp");
    }

    for _ in 0..16 {
        let mut b = ElfBuilder::new();
        b.add_text_section(g.bytes(0, 60_000));
        let rodata: Vec<u8> = (0..g.range(0, 400))
            .flat_map(|i| format!("message {i} from {}\0", g.next()).into_bytes())
            .collect();
        b.add_rodata_section(rodata);
        for i in 0..g.range(0, 200) {
            b.add_global_function(
                &format!("kernel_{i}_{}", g.next() % 1000),
                i as u64 * 16,
                16,
            );
        }
        let bytes = b.build();
        check(&bytes, "ELF file view");
        check(&strings_blob(&bytes, 4), "ELF strings view");
        let elf = ElfFile::parse(&bytes).expect("built ELF must parse");
        check(&symbols_blob(&elf), "ELF symbols view");
    }

    assert!(deep > 0, "no case reached the engine's fallback passes");
}

/// Hashing is deterministic and the textual form round-trips.
#[test]
fn hash_roundtrips_through_text() {
    let mut g = Gen(1);
    for _ in 0..64 {
        let data = g.bytes(0, 20_000);
        let h = fuzzy_hash_bytes(&data);
        let text = h.to_string();
        let parsed: FuzzyHash = text.parse().expect("generated hash must parse");
        assert_eq!(parsed, h);
    }
}

/// Signature lengths never exceed the SSDeep bounds.
#[test]
fn signature_lengths_bounded() {
    let mut g = Gen(2);
    for _ in 0..64 {
        let data = g.bytes(0, 50_000);
        let h = fuzzy_hash_bytes(&data);
        assert!(h.signature().len() <= ssdeep::SPAM_SUM_LENGTH);
        assert!(h.signature_double().len() <= ssdeep::SPAM_SUM_LENGTH / 2);
        assert!(h.block_size() >= 3);
    }
}

/// Self-comparison of a non-trivial input is the maximum score and every
/// comparison stays within 0..=100.
#[test]
fn self_similarity_is_max() {
    let mut g = Gen(3);
    for _ in 0..64 {
        let data = g.bytes(2_000, 20_000);
        let h = fuzzy_hash_bytes(&data);
        let s = compare(&h, &h);
        assert!(s <= 100);
        // Inputs this long always produce signatures >= 7 chars unless the
        // data is pathologically uniform; allow the capped case.
        if h.signature().len() >= 7 {
            assert_eq!(s, 100);
        }
    }
}

/// Comparison is symmetric.
#[test]
fn comparison_symmetric() {
    let mut g = Gen(4);
    for _ in 0..64 {
        let a = g.bytes(0, 15_000);
        let b = g.bytes(0, 15_000);
        let ha = fuzzy_hash_bytes(&a);
        let hb = fuzzy_hash_bytes(&b);
        assert_eq!(compare(&ha, &hb), compare(&hb, &ha));
    }
}

/// Levenshtein axioms: identity, symmetry, bounded by max length, Damerau
/// never exceeds Levenshtein, weighted never below Levenshtein.
#[test]
fn edit_distance_axioms() {
    let mut g = Gen(5);
    for _ in 0..128 {
        let a = g.b64_string(48);
        let b = g.b64_string(48);
        let lev = levenshtein(&a, &b);
        let dl = damerau_levenshtein(&a, &b);
        let w = weighted_edit_distance(&a, &b);
        assert_eq!(levenshtein(&a, &a), 0);
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        assert!(lev <= a.len().max(b.len()));
        assert!(dl <= lev);
        assert!(w >= lev);
        assert!(w <= a.len() + b.len());
        assert_eq!(dl == 0, a == b);
    }
}

/// `compare_prepared` is score-identical to `compare` on random hash pairs:
/// real generated hashes (some sharing content so block sizes collide or
/// differ by a factor of two) and fabricated hashes with random signatures
/// and random — including tiny and enormous — block sizes.
#[test]
fn prepared_comparison_equals_plain_comparison() {
    let mut g = Gen(7);
    let mut hashes: Vec<FuzzyHash> = Vec::new();
    for _ in 0..24 {
        let base = g.bytes(500, 30_000);
        hashes.push(fuzzy_hash_bytes(&base));
        // A mutated copy: often the same or a neighboring block size.
        let mut variant = base.clone();
        let start = g.range(0, variant.len().max(2) - 1);
        let span = g.range(1, 1 + variant.len() / 8);
        for byte in variant.iter_mut().skip(start).take(span) {
            *byte ^= 0xA7;
        }
        hashes.push(fuzzy_hash_bytes(&variant));
    }
    for _ in 0..24 {
        let block_size = match g.range(0, 4) {
            0 => 3 << g.range(0, 8),
            1 => g.next().max(1),
            2 => u64::MAX - g.range(0, 3) as u64,
            _ => 3,
        };
        let sig1 = g.b64_string(64);
        let sig2 = g.b64_string(32);
        hashes.push(FuzzyHash::from_parts(block_size, sig1, sig2).expect("valid parts"));
    }

    let prepared: Vec<PreparedHash> = hashes.iter().map(PreparedHash::new).collect();
    for (ha, pa) in hashes.iter().zip(&prepared) {
        for (hb, pb) in hashes.iter().zip(&prepared) {
            assert_eq!(
                compare(ha, hb),
                compare_prepared(pa, pb),
                "prepared comparison diverged for {ha} vs {hb}"
            );
        }
    }
}

/// Appending a small suffix to a large input keeps the block size comparable
/// and the comparison bounded.
#[test]
fn append_small_suffix_bounded() {
    let mut g = Gen(6);
    for _ in 0..64 {
        let data = g.bytes(5_000, 30_000);
        let suffix = g.bytes(0, 64);
        let mut extended = data.clone();
        extended.extend_from_slice(&suffix);
        let ha = fuzzy_hash_bytes(&data);
        let hb = fuzzy_hash_bytes(&extended);
        let s = compare(&ha, &hb);
        assert!(s <= 100);
    }
}

/// The bounded kernel is byte-identical to the oracle DP for *every* limit:
/// random base64 signatures of lengths 0..=64 (run-eliminated signature
/// territory), exact below the limit, `AtLeast(limit + 1)` above it.
#[test]
fn bounded_distance_equals_oracle_for_every_limit() {
    use ssdeep::{weighted_edit_distance_bounded, BoundedDistance};
    let mut g = Gen(8);
    for _ in 0..96 {
        let a = g.b64_string(64);
        let b = g.b64_string(64);
        let oracle = weighted_edit_distance(&a, &b);
        for limit in 0..=(a.len() + b.len() + 1) {
            match weighted_edit_distance_bounded(&a, &b, limit) {
                BoundedDistance::Exact(d) => {
                    assert_eq!(d, oracle, "exact mismatch for {a:?} vs {b:?} at {limit}");
                    assert!(d <= limit);
                }
                BoundedDistance::AtLeast(floor) => {
                    assert_eq!(floor, limit + 1);
                    assert!(
                        oracle > limit,
                        "spurious rejection of {a:?} vs {b:?} at {limit}"
                    );
                }
            }
        }
    }
}

/// The bit-parallel Damerau distance is exact against the row DP, and is a
/// lower bound on the weighted distance (which is what licenses it as a
/// pre-DP rejection filter).
#[test]
fn bitparallel_damerau_is_exact_and_a_lower_bound() {
    use ssdeep::damerau_levenshtein_bitparallel;
    let mut g = Gen(9);
    for _ in 0..256 {
        let a = g.b64_string(64);
        let b = g.b64_string(64);
        let bp = damerau_levenshtein_bitparallel(&a, &b).expect("<=64-char strings fit one word");
        assert_eq!(bp, damerau_levenshtein(&a, &b), "{a:?} vs {b:?}");
        assert!(bp <= weighted_edit_distance(&a, &b), "{a:?} vs {b:?}");
    }
}

/// Transposition-heavy pairs: swapping adjacent characters is the case
/// where a naive one-row band cutoff would be unsound (a transposition can
/// hop a row), so hammer exactly that shape.
#[test]
fn bounded_distance_handles_transposition_heavy_pairs() {
    use ssdeep::{weighted_edit_distance_bounded, BoundedDistance};
    let mut g = Gen(10);
    for _ in 0..64 {
        let a = g.b64_string(64);
        let mut chars: Vec<char> = a.chars().collect();
        // Swap a random subset of disjoint adjacent pairs.
        let mut i = 0;
        while i + 1 < chars.len() {
            if g.range(0, 2) == 0 {
                chars.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        let b: String = chars.into_iter().collect();
        let oracle = weighted_edit_distance(&a, &b);
        for limit in [0, 1, oracle.saturating_sub(1), oracle, oracle + 1, 128] {
            match weighted_edit_distance_bounded(&a, &b, limit) {
                BoundedDistance::Exact(d) => assert_eq!(d, oracle),
                BoundedDistance::AtLeast(floor) => {
                    assert_eq!(floor, limit + 1);
                    assert!(oracle > limit);
                }
            }
        }
    }
}

/// Run-collapse edge cases: `eliminate_long_runs` borrows when nothing
/// collapses, collapses runs to three otherwise, and round-trips non-ASCII
/// input byte-correctly (the old byte-as-char loop corrupted it).
#[test]
fn eliminate_long_runs_properties() {
    use ssdeep::compare::eliminate_long_runs;
    let mut g = Gen(11);
    for _ in 0..256 {
        // Low-alphabet strings maximize run frequency.
        let len = g.range(0, 80);
        let s: String = (0..len)
            .map(|_| (b'A' + (g.next() % 3) as u8) as char)
            .collect();
        let out = eliminate_long_runs(&s);
        // No run longer than three survives…
        let bytes = out.as_bytes();
        for w in bytes.windows(4) {
            assert!(
                !(w[0] == w[1] && w[1] == w[2] && w[2] == w[3]),
                "run survived in {out:?} from {s:?}"
            );
        }
        // …the output is a subsequence of the input…
        let mut it = s.bytes();
        for b in bytes {
            assert!(it.any(|c| c == *b), "not a subsequence: {out:?} from {s:?}");
        }
        // …and borrowing happens exactly when nothing collapsed.
        match &out {
            std::borrow::Cow::Borrowed(_) => assert_eq!(out.as_ref(), s),
            std::borrow::Cow::Owned(o) => assert!(o.len() < s.len()),
        }
    }
    // Non-ASCII input survives byte-correctly (multi-byte chars cannot form
    // >3-byte runs, so nothing may be collapsed or corrupted here).
    for s in ["péché", "ÿÿÿÿ", "\u{3FFFF}\u{3FFFF}", "aàaàaà"] {
        assert_eq!(eliminate_long_runs(s), s, "non-ASCII corrupted");
    }
    // ASCII runs inside otherwise non-ASCII strings still collapse.
    assert_eq!(eliminate_long_runs("éAAAAAé"), "éAAAé");
}

/// The score-budget comparison is exact at or above its budget and never
/// overshoots below it, for every budget, on random prepared pairs.
#[test]
fn compare_prepared_min_respects_its_contract() {
    use ssdeep::compare_prepared_min;
    let mut g = Gen(12);
    let mut hashes: Vec<FuzzyHash> = Vec::new();
    for _ in 0..12 {
        let base = g.bytes(500, 20_000);
        hashes.push(fuzzy_hash_bytes(&base));
        let mut variant = base;
        let start = g.range(0, variant.len().max(2) - 1);
        for byte in variant.iter_mut().skip(start).take(200) {
            *byte ^= 0x3C;
        }
        hashes.push(fuzzy_hash_bytes(&variant));
    }
    for _ in 0..12 {
        let block_size = [3u64, 96, 3072, u64::MAX][g.range(0, 4)];
        let sig1 = g.b64_string(64);
        let sig2 = g.b64_string(32);
        hashes.push(FuzzyHash::from_parts(block_size, sig1, sig2).expect("valid parts"));
    }
    let prepared: Vec<PreparedHash> = hashes.iter().map(PreparedHash::new).collect();
    for pa in &prepared {
        for pb in &prepared {
            let exact = compare_prepared(pa, pb);
            for min_score in [0u32, 1, exact.saturating_sub(1), exact, exact + 1, 100, 101] {
                let got = compare_prepared_min(pa, pb, min_score);
                if exact >= min_score {
                    assert_eq!(got, exact, "budget {min_score} lost an exact score");
                } else {
                    assert!(got <= exact, "budget {min_score} overshot: {got} > {exact}");
                }
            }
        }
    }
}
