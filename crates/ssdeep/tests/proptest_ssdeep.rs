//! Randomized (but fully deterministic) property tests for the fuzzy-hashing
//! engine. The build environment has no crates.io access, so instead of
//! `proptest` these tests drive the same properties with a seeded SplitMix64
//! generator over a fixed number of cases.

use binary::elf::{ElfBuilder, ElfFile};
use binary::strings::strings_blob;
use binary::symbols::symbols_blob;
use ssdeep::blocksize::initial_blocksize;
use ssdeep::rolling_hash::roll_over;
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

/// The two-phase engine is byte-identical to the halve-and-rehash oracle
/// at every block-size class: tiny inputs, lengths on either side of each
/// initial-block-size step, random and patterned content, low-entropy
/// content that misses the first two candidates, and real ELF images with
/// their strings and symbols views. Then the engine's own edges: inputs
/// around its 64-byte blocks, boundaries whose rolling window reaches back
/// before the input or that fall on its last byte, signatures that fill
/// up, and every width of the candidate filter (`lo` up to 8 bits is
/// exact, above it a filter).
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

    // Inputs around the 64-byte blocks phase 1 scans.
    for k in [0, 1, 2, 3, 10, 100] {
        for len in [63, 64, 65, 71, 72].map(|len| len + 64 * k) {
            assert_engine_equals_oracle(&random_bytes(&mut g, len), "random at a block edge");
            let mut zero_tail = random_bytes(&mut g, len);
            let n = zero_tail.len().min(7);
            zero_tail[len - n..].fill(0);
            assert_engine_equals_oracle(&zero_tail, "zero tail at a block edge");
            let ramp: Vec<u8> = (0..len).map(|i| (i / 5) as u8).collect();
            assert_engine_equals_oracle(&ramp, "ramp at a block edge");
        }
    }

    for len in [1_000, 20_000, 100_000] {
        let lo = scan_level(len);
        // A boundary at the lowest scanned level inside the first 7 bytes,
        // where the window still holds the zeros before the input (a byte
        // or two cannot reach the higher levels' multiples).
        let mut heads = 0;
        for head in 1..=7 {
            let Some(mut data) = boundary_bytes(&mut g, head, lo) else {
                continue;
            };
            data.extend(random_bytes(&mut g, len - head));
            assert_engine_equals_oracle(&data, "boundary in the first 7 bytes");
            heads += 1;
        }
        assert!(heads >= 4, "too few early boundaries at lo {lo}");
        // A boundary on the last byte at every scanned level: the tail
        // character hashes an empty chunk. Seven trailing zeros end on
        // value 0: no tail character.
        let mut data = random_bytes(&mut g, len - 7);
        data.extend(boundary_bytes(&mut g, 7, lo + 2).expect("seven bytes reach any level"));
        assert_engine_equals_oracle(&data, "boundary on the last byte");
        let mut data = random_bytes(&mut g, len - 7);
        data.extend([0; 7]);
        assert_engine_equals_oracle(&data, "no tail character");

        // A 16-byte period with a boundary above the chosen level: more
        // than 63 chunk ends at it and more than 31 at the next.
        let period = loop {
            let period = random_bytes(&mut g, 16);
            let twice = period.repeat(2);
            let hit = (16..32)
                .any(|end| (u64::from(roll_over(&twice[..end])) + 1) % (3 << (lo + 2)) == 0);
            if hit {
                break period;
            }
        };
        let data: Vec<u8> = period.iter().copied().cycle().take(len).collect();
        assert_engine_equals_oracle(&data, "full signatures");
        let h = fuzzy_hash_bytes(&data);
        assert!(
            h.signature().len() >= 63 && h.signature_double().len() >= 31,
            "{h}"
        );
    }

    // The candidate filter at `lo` = 7, 8 and 9, on random and ramp content.
    for lo in [7, 8, 9] {
        let len = (3 << (lo + 1)) * 64;
        assert_eq!(scan_level(len), lo);
        assert_engine_equals_oracle(&random_bytes(&mut g, len), "random at lo 7..9");
        let ramp: Vec<u8> = (0..len).map(|i| (i / 700) as u8).collect();
        assert_engine_equals_oracle(&ramp, "ramp at lo 7..9");
    }
    // `lo` = 17: an input past 24 MiB.
    let len = (3 << 17) * 64 + 1;
    assert_eq!(scan_level(len), 17);
    assert_engine_equals_oracle(&random_bytes(&mut g, len), "random at lo 17");

    assert!(deep > 0, "no case reached the engine's fallback passes");
}

/// The levels the engine's first phase scans for an input of `len` bytes
/// (before any fallback): `lo`, `lo + 1` and `lo + 2`, with `lo + 1` the
/// initial estimate's level (or 1).
fn scan_level(len: usize) -> u32 {
    (initial_blocksize(len) / 3).trailing_zeros().max(1) - 1
}

/// `len` random bytes, eight per generator step.
fn random_bytes(g: &mut Gen, len: usize) -> Vec<u8> {
    let mut data: Vec<u8> = (0..len.div_ceil(8))
        .flat_map(|_| g.next().to_le_bytes())
        .collect();
    data.truncate(len);
    data
}

/// `len` random bytes whose rolling value lands on a chunk boundary at
/// every level up to `level` (`value + 1` a multiple of `3 << level`),
/// with no bytes before them, if a few thousand tries find some.
fn boundary_bytes(g: &mut Gen, len: usize, level: u32) -> Option<Vec<u8>> {
    (0..1 << 14)
        .map(|_| random_bytes(g, len))
        .find(|bytes| (u64::from(roll_over(bytes)) + 1) % (3 << level) == 0)
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

/// The bounded kernel is exact where its lane count switches (the shorter
/// input's length rounded up to 16) and past 64 bytes, where it hands the
/// pair to the oracle: both argument orders, every limit, unrelated pairs
/// and near-copies (whose distances stay under tight limits).
#[test]
fn bounded_distance_equals_oracle_at_lane_count_edges() {
    use ssdeep::{weighted_edit_distance_bounded, BoundedDistance};
    const EDGES: [usize; 13] = [15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65, 80];
    let mut g = Gen(15);
    let fixed = |g: &mut Gen, len: usize| loop {
        let s = g.b64_string(len);
        if s.len() == len {
            return s;
        }
    };
    for (i, &la) in EDGES.iter().enumerate() {
        for &lb in &EDGES[i..] {
            let a = fixed(&mut g, la);
            let unrelated = fixed(&mut g, lb);
            // `a` grown to `lb` bytes with a few substitutions and swaps.
            let mut near: Vec<u8> = a.bytes().chain(unrelated.bytes()).take(lb).collect();
            for _ in 0..3 {
                let at = g.range(0, lb - 1);
                near.swap(at, at + 1);
                near[g.range(0, lb)] = b'Z';
            }
            let near = String::from_utf8(near).expect("base64 is ASCII");
            for b in [&unrelated, &near] {
                let oracle = weighted_edit_distance(&a, b);
                for limit in 0..=(la + lb + 1) {
                    for (x, y) in [(a.as_str(), b.as_str()), (b.as_str(), a.as_str())] {
                        let want = if oracle <= limit {
                            BoundedDistance::Exact(oracle)
                        } else {
                            BoundedDistance::AtLeast(limit + 1)
                        };
                        assert_eq!(
                            weighted_edit_distance_bounded(x, y, limit),
                            want,
                            "{x:?} vs {y:?} at {limit}"
                        );
                    }
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
