//! Precomputed comparison state for a fuzzy hash.
//!
//! [`compare`](crate::compare::compare) repeats the same signature-local work
//! on every call: it run-eliminates both signatures (allocating fresh
//! `String`s), packs the 7-byte windows of the shorter one into `u64` keys,
//! and sorts them — all before the edit-distance DP even starts. When one
//! side of the comparison is *static* (the reference hashes of a trained
//! classifier, compared against every incoming sample), that work can be
//! paid once per hash instead of once per comparison.
//!
//! [`PreparedHash`] caches exactly that state: the run-eliminated primary
//! and double signatures plus their sorted packed window keys.
//! [`compare_prepared`] then scores two prepared hashes with the per-pair
//! work reduced to a sorted-set intersection (for the common-substring
//! guard) and the weighted edit-distance DP — and is **byte-identical** to
//! [`compare`](crate::compare::compare) on the corresponding [`FuzzyHash`]
//! pair, which the equivalence tests below enforce.

use crate::compare::{
    eliminate_long_runs, max_distance_for_score, scale_score, window_keys, MIN_COMMON_SUBSTRING,
};
use crate::fastdist::{weighted_edit_distance_bounded, BoundedDistance};
use crate::generate::FuzzyHash;

/// One signature with its comparison state precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedSignature {
    /// The signature with runs of more than three identical characters
    /// collapsed (what the edit distance actually runs on).
    eliminated: String,
    /// Sorted packed 7-byte window keys of `eliminated` (empty when the
    /// eliminated signature is shorter than the window).
    keys: Vec<u64>,
}

impl PreparedSignature {
    fn new(signature: &str) -> Self {
        let eliminated = eliminate_long_runs(signature).into_owned();
        let keys = window_keys(eliminated.as_bytes());
        Self { eliminated, keys }
    }

    /// The run-eliminated signature.
    pub fn eliminated(&self) -> &str {
        &self.eliminated
    }

    /// The sorted packed window keys of the eliminated signature.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// Error returned when reassembling a [`PreparedHash`] from persisted parts
/// that do not derive from the hash they claim to describe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedPartsError(String);

impl std::fmt::Display for PreparedPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid prepared-hash parts: {}", self.0)
    }
}

impl std::error::Error for PreparedPartsError {}

/// A fuzzy hash with its per-comparison state precomputed.
///
/// Build one with [`PreparedHash::new`] (or `From<&FuzzyHash>`); compare two
/// with [`compare_prepared`]. Scores are byte-identical to
/// [`compare`](crate::compare::compare) on the underlying hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedHash {
    hash: FuzzyHash,
    primary: PreparedSignature,
    double: PreparedSignature,
}

impl PreparedHash {
    /// Precompute the comparison state of `hash`.
    pub fn new(hash: &FuzzyHash) -> Self {
        Self {
            primary: PreparedSignature::new(hash.signature()),
            double: PreparedSignature::new(hash.signature_double()),
            hash: hash.clone(),
        }
    }

    /// Reassemble a prepared hash from persisted parts without re-deriving
    /// them (used by artifact decoders — the whole point of persisting the
    /// prepared index is that loading skips the per-hash preparation).
    ///
    /// Structural invariants are always enforced — eliminated no longer
    /// than the original, window-key count consistent with the eliminated
    /// length, keys sorted — so malformed input fails cleanly. Semantic
    /// integrity (the parts byte-for-byte deriving from the hash) rests on
    /// the caller's transport guarantees, exactly as for every other
    /// persisted field (artifacts are checksummed; a writer that can forge
    /// prepared state can equally forge the hashes or the forest itself).
    /// Debug builds — which is what the test suite runs — additionally
    /// verify full derivation against a fresh preparation, so any codec bug
    /// that round-trips wrong state is caught before it ships.
    pub fn from_precomputed(
        hash: FuzzyHash,
        eliminated: String,
        keys: Vec<u64>,
        eliminated_double: String,
        keys_double: Vec<u64>,
    ) -> Result<Self, PreparedPartsError> {
        for (sig, elim, k) in [
            (hash.signature(), &eliminated, &keys),
            (hash.signature_double(), &eliminated_double, &keys_double),
        ] {
            if elim.len() > sig.len() {
                return Err(PreparedPartsError(format!(
                    "eliminated signature ({} bytes) longer than original ({} bytes)",
                    elim.len(),
                    sig.len()
                )));
            }
            let expected_keys = if elim.len() < MIN_COMMON_SUBSTRING {
                0
            } else {
                elim.len() - MIN_COMMON_SUBSTRING + 1
            };
            if k.len() != expected_keys {
                return Err(PreparedPartsError(format!(
                    "{} window keys for a {}-byte eliminated signature",
                    k.len(),
                    elim.len()
                )));
            }
            if k.windows(2).any(|w| w[0] > w[1]) {
                return Err(PreparedPartsError("window keys are not sorted".into()));
            }
        }
        let prepared = Self {
            hash,
            primary: PreparedSignature { eliminated, keys },
            double: PreparedSignature {
                eliminated: eliminated_double,
                keys: keys_double,
            },
        };
        #[cfg(debug_assertions)]
        {
            let expected = Self::new(&prepared.hash);
            if prepared.primary != expected.primary || prepared.double != expected.double {
                return Err(PreparedPartsError(format!(
                    "prepared state does not derive from hash {} \
                     (debug-only full verification)",
                    prepared.hash
                )));
            }
        }
        Ok(prepared)
    }

    /// The underlying fuzzy hash.
    pub fn hash(&self) -> &FuzzyHash {
        &self.hash
    }

    /// The block size of the underlying hash.
    pub fn block_size(&self) -> u64 {
        self.hash.block_size()
    }

    /// The prepared primary signature (chunked at `block_size`).
    pub fn primary(&self) -> &PreparedSignature {
        &self.primary
    }

    /// The prepared double signature (chunked at `2 * block_size`).
    pub fn double(&self) -> &PreparedSignature {
        &self.double
    }
}

impl From<&FuzzyHash> for PreparedHash {
    fn from(hash: &FuzzyHash) -> Self {
        Self::new(hash)
    }
}

/// Whether two sorted key sets intersect (a linear merge walk — the prepared
/// replacement for re-packing and binary-searching windows on every call).
fn sorted_keys_intersect(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Score two prepared signatures generated with the same block size (the
/// precomputed twin of [`score_strings`](crate::compare::score_strings)),
/// under a score budget.
///
/// Exact — byte-identical to the unbudgeted scoring — whenever the true
/// score is `>= min_score`; when the true score is below the budget the
/// comparison is abandoned early (often before any DP row is touched) and
/// 0 is returned. Callers folding scores with `max` therefore get
/// byte-identical maxima as long as they pass `running_max + 1`.
fn score_prepared_min(
    s1: &PreparedSignature,
    s2: &PreparedSignature,
    block_size: u64,
    min_score: u32,
) -> u32 {
    if s1.eliminated.is_empty() || s2.eliminated.is_empty() {
        return 0;
    }
    // Empty key sets mean the eliminated signature is shorter than the
    // common-substring window, which `has_common_substring` also rejects.
    if !sorted_keys_intersect(&s1.keys, &s2.keys) {
        return 0;
    }
    let len1 = s1.eliminated.len() as u64;
    let len2 = s2.eliminated.len() as u64;
    // Turn the score budget into a distance budget; a pair whose lengths
    // and block size cannot reach min_score at any distance is skipped
    // outright (min_score is clamped to >= 1 so a zero budget degenerates
    // to the exact unbudgeted comparison, never a wider one).
    let Some(limit) = max_distance_for_score(min_score.max(1), len1, len2, block_size) else {
        return 0;
    };
    match weighted_edit_distance_bounded(&s1.eliminated, &s2.eliminated, limit as usize) {
        BoundedDistance::Exact(dist) => scale_score(dist as u64, len1, len2, block_size),
        // Distance over the budget means score under min_score: the exact
        // value is irrelevant to a max-merge against min_score - 1.
        BoundedDistance::AtLeast(_) => 0,
    }
}

/// Compare two prepared hashes and return a similarity score in `0..=100`.
///
/// Byte-identical to [`compare`](crate::compare::compare) on the underlying
/// [`FuzzyHash`] pair, but with the per-comparison signature normalization
/// already paid and the edit distance computed by the bounded
/// [`fastdist`](crate::fastdist) kernel: only the common-substring
/// intersection and the kernel's tiers run per pair.
pub fn compare_prepared(a: &PreparedHash, b: &PreparedHash) -> u32 {
    // min_score = 1 never prunes: a true score of 0 is returned exactly
    // (the only value below the budget), everything else beats it.
    compare_prepared_min(a, b, 1)
}

/// [`compare_prepared`] with an early-exit score budget: the result is
/// exact (byte-identical to [`compare`](crate::compare::compare)) whenever
/// it is `>= min_score`; a comparison that cannot reach `min_score` may be
/// abandoned mid-DP, returning some value `<=` the true score (usually 0).
///
/// This is the max-merge pruning primitive: folding
/// `best = best.max(compare_prepared_min(q, r, best + 1))` over a
/// reference set yields byte-identical maxima to folding the exact
/// [`compare_prepared`], while skipping most of the DP work for
/// comparisons that cannot beat the running maximum.
///
/// # Examples
///
/// ```
/// use ssdeep::{fuzzy_hash_bytes, PreparedHash, compare_prepared, compare_prepared_min};
/// let a: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
/// let mut b = a.clone();
/// b[20_000..20_400].fill(0x7F);
/// let (pa, pb) = (
///     PreparedHash::new(&fuzzy_hash_bytes(&a)),
///     PreparedHash::new(&fuzzy_hash_bytes(&b)),
/// );
/// let exact = compare_prepared(&pa, &pb);
/// // Any reachable budget reproduces the exact score…
/// assert_eq!(compare_prepared_min(&pa, &pb, exact), exact);
/// // …while an unreachable budget may abandon the comparison.
/// assert!(compare_prepared_min(&pa, &pb, exact + 1) <= exact);
/// ```
pub fn compare_prepared_min(a: &PreparedHash, b: &PreparedHash, min_score: u32) -> u32 {
    let b1 = a.hash.block_size();
    let b2 = b.hash.block_size();

    if b1 == b2
        && a.hash.signature() == b.hash.signature()
        && a.hash.signature_double() == b.hash.signature_double()
        && a.hash.signature().len() >= MIN_COMMON_SUBSTRING
    {
        // Identical hashes of non-trivial inputs are a perfect match; for
        // extremely short signatures fall through to the scoring (which caps
        // low-information matches).
        return 100;
    }

    if b1 == b2 {
        let s1 = score_prepared_min(&a.primary, &b.primary, b1, min_score);
        // The double-signature comparison only matters if it beats the
        // primary score, so its budget tightens to s1 + 1.
        let s2 = score_prepared_min(
            &a.double,
            &b.double,
            b1.saturating_mul(2),
            min_score.max(s1.saturating_add(1)),
        );
        s1.max(s2)
    } else if b2.checked_mul(2) == Some(b1) {
        score_prepared_min(&a.primary, &b.double, b1, min_score)
    } else if b1.checked_mul(2) == Some(b2) {
        score_prepared_min(&a.double, &b.primary, b2, min_score)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare;
    use crate::generate::fuzzy_hash_bytes;

    /// Deterministic corpus of hashes covering real generated signatures,
    /// factor-of-two block sizes, small-block-size caps, short and run-heavy
    /// signatures, and adversarial near-`u64::MAX` block sizes.
    fn corpus() -> Vec<FuzzyHash> {
        let mut hashes = Vec::new();

        // Real hashes of related and unrelated inputs at several sizes (the
        // sizes straddle block-size doublings, so factor-of-two pairs occur).
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [600usize, 5_000, 20_000, 40_000, 80_000, 160_000] {
            let base: Vec<u8> = (0..len).map(|_| (next() >> 32) as u8).collect();
            hashes.push(fuzzy_hash_bytes(&base));
            // A localized edit of the same input.
            let mut variant = base.clone();
            for byte in variant.iter_mut().skip(len / 3).take(len / 20 + 1) {
                *byte ^= 0x55;
            }
            hashes.push(fuzzy_hash_bytes(&variant));
            // A doubled input (often a x2 block size).
            let mut doubled = base.clone();
            doubled.extend_from_slice(&base);
            hashes.push(fuzzy_hash_bytes(&doubled));
        }

        // Hand-built hashes: small block sizes (cap territory), identical
        // short signatures, run-heavy signatures, huge block sizes.
        let parts: [(u64, &str, &str); 10] = [
            (3, "ABCDEFGH", "ABCD"),
            (3, "ABCDEFGH", "ABCE"),
            (6, "ABCDEFGHIJKLMNOP", "ABCDEFGH"),
            (12, "ABCDEFGHIJKLMNOP", "QRSTUVWX"),
            (3, "AAAAAAAAAA", "AAAAA"),
            (3, "AAAAAAAAAB", "AAAAA"),
            (96, "MNBVCXZLKJHGFDSA", "MNBVCXZL"),
            (192, "MNBVCXZLKJHGFDSA", "POIUYTRE"),
            (u64::MAX, "ABCDEFGHIJKL", "ABCDEF"),
            (u64::MAX / 2 + 1, "ABCDEFGHIJKL", "ABCDEF"),
        ];
        for (bs, s1, s2) in parts {
            hashes.push(FuzzyHash::from_parts(bs, s1.into(), s2.into()).unwrap());
        }
        hashes
    }

    #[test]
    fn compare_prepared_matches_compare_across_corpus() {
        let hashes = corpus();
        let prepared: Vec<PreparedHash> = hashes.iter().map(PreparedHash::new).collect();
        let mut compatible_pairs = 0;
        for (i, (ha, pa)) in hashes.iter().zip(&prepared).enumerate() {
            for (hb, pb) in hashes.iter().zip(&prepared) {
                let plain = compare(ha, hb);
                let fast = compare_prepared(pa, pb);
                assert_eq!(
                    plain, fast,
                    "hash {i}: compare({ha}, {hb}) = {plain} but prepared gave {fast}"
                );
                if ha.comparable_with(hb) {
                    compatible_pairs += 1;
                }
            }
        }
        // The corpus must actually exercise the interesting branches.
        assert!(compatible_pairs > hashes.len(), "corpus too disjoint");
    }

    #[test]
    fn prepared_roundtrips_through_parts() {
        for hash in corpus() {
            let prepared = PreparedHash::new(&hash);
            let rebuilt = PreparedHash::from_precomputed(
                hash.clone(),
                prepared.primary().eliminated().to_string(),
                prepared.primary().keys().to_vec(),
                prepared.double().eliminated().to_string(),
                prepared.double().keys().to_vec(),
            )
            .expect("parts produced by new() are valid");
            assert_eq!(rebuilt, prepared);
            assert_eq!(rebuilt.hash(), &hash);
            assert_eq!(rebuilt.block_size(), hash.block_size());
        }
    }

    #[test]
    fn from_precomputed_rejects_inconsistent_parts() {
        let hash: FuzzyHash = "3:ABCDEFGHIJ:ABCDE".parse().unwrap();
        let prepared = PreparedHash::new(&hash);
        let elim = prepared.primary().eliminated().to_string();
        let keys = prepared.primary().keys().to_vec();
        let elim2 = prepared.double().eliminated().to_string();
        let keys2 = prepared.double().keys().to_vec();

        // Wrong key count.
        assert!(PreparedHash::from_precomputed(
            hash.clone(),
            elim.clone(),
            keys[..keys.len() - 1].to_vec(),
            elim2.clone(),
            keys2.clone(),
        )
        .is_err());

        // Unsorted keys.
        let mut reversed = keys.clone();
        reversed.reverse();
        let unsorted = PreparedHash::from_precomputed(
            hash.clone(),
            elim.clone(),
            reversed.clone(),
            elim2.clone(),
            keys2.clone(),
        );
        if reversed != keys {
            assert!(unsorted.is_err());
        }

        // Eliminated longer than the original signature.
        assert!(PreparedHash::from_precomputed(
            hash.clone(),
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ".into(),
            window_keys(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"),
            elim2.clone(),
            keys2.clone(),
        )
        .is_err());

        // Structurally consistent (right length, sorted keys that match the
        // fake eliminated string) but not derived from the hash: the
        // debug-build full verification rejects it, so a codec bug that
        // round-trips wrong prepared state can never survive the test suite.
        #[cfg(debug_assertions)]
        {
            let fake_elim = "ABCDEFGHIK".to_string(); // one char off, same length
            assert_ne!(fake_elim, elim);
            assert!(PreparedHash::from_precomputed(
                hash,
                fake_elim.clone(),
                window_keys(fake_elim.as_bytes()),
                elim2,
                keys2,
            )
            .is_err());
        }
    }

    #[test]
    fn sorted_intersection_matches_naive() {
        assert!(sorted_keys_intersect(&[1, 3, 5], &[2, 3, 4]));
        assert!(!sorted_keys_intersect(&[1, 3, 5], &[2, 4, 6]));
        assert!(!sorted_keys_intersect(&[], &[1]));
        assert!(!sorted_keys_intersect(&[], &[]));
        assert!(sorted_keys_intersect(&[7, 7, 7], &[7]));
    }

    #[test]
    fn prepared_self_comparison_is_maximal() {
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let p = PreparedHash::new(&fuzzy_hash_bytes(&data));
        assert_eq!(compare_prepared(&p, &p), 100);
    }
}
