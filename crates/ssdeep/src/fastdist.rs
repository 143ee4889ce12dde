//! The bounded edit-distance kernel for the similarity hot path.
//!
//! Every backend — scan, indexed, fleet — funnels millions of
//! pairwise signature comparisons through the weighted Damerau–Levenshtein
//! distance. The oracle implementation
//! ([`weighted_edit_distance`](crate::edit_distance::weighted_edit_distance))
//! allocates three fresh rows per call and fills the `O(m·n)` table one
//! cell at a time, each cell waiting on its left neighbour. The caller
//! usually needs less: only whether the distance can stay under a budget.
//! [`weighted_edit_distance_bounded`] answers that in three tiers, all
//! byte-identical to the oracle wherever a result is produced:
//!
//! 0. **Length gap** — the distance is at least `|m - n|`, since only
//!    insertions and deletions change the length.
//! 1. **Bit-parallel lower bound** — the unit-cost Damerau–Levenshtein
//!    distance ([`damerau_levenshtein_bitparallel`], Myers/Hyyrö bit-vector
//!    algorithm, one `u64` word for the ≤64-char run-eliminated signatures)
//!    is a lower bound on the weighted distance (every weighted op cost
//!    dominates its unit cost, and the recurrences are otherwise
//!    identical), so `lb > limit` rejects a pair in ~`n` word operations.
//! 2. **Anti-diagonal lane DP** — the cells of one anti-diagonal of the
//!    table depend only on earlier diagonals, so the kernel fills a whole
//!    diagonal at once in saturating `u8` lanes, one lane per byte of the
//!    shorter input, rounded up to 16 (a const generic). The compiler
//!    turns each diagonal into 16-lane vector code at the default target.
//!    Inputs longer than 64 bytes, which run-eliminated signatures never
//!    are, go to the oracle.
//!
//! The prepared comparison path
//! ([`compare_prepared_min`](crate::prepared::compare_prepared_min)) turns
//! a *score* budget into a distance `limit` via
//! [`max_distance_for_score`](crate::compare::max_distance_for_score) and
//! feeds it here, so a comparison that cannot beat a class's running
//! maximum similarity is mostly rejected before any table is filled.

use crate::edit_distance::generic_distance;
use std::cell::RefCell;

/// Result of a limit-bounded distance computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedDistance {
    /// The distance is exactly this value (and `<= limit`).
    Exact(usize),
    /// The distance is at least this value (always `limit + 1`): the pair
    /// was rejected by a lower bound or the band cutoff and the exact
    /// distance was never materialized.
    AtLeast(usize),
}

impl BoundedDistance {
    /// The exact distance, if the computation stayed within the limit.
    pub fn exact(self) -> Option<usize> {
        match self {
            BoundedDistance::Exact(d) => Some(d),
            BoundedDistance::AtLeast(_) => None,
        }
    }

    /// The tightest known lower bound on the distance (the exact value, or
    /// `limit + 1` after a rejection).
    pub fn lower_bound(self) -> usize {
        match self {
            BoundedDistance::Exact(d) | BoundedDistance::AtLeast(d) => d,
        }
    }
}

/// The longest input the lane kernel takes; longer ones go to the oracle.
/// Cells are `u8`: a distance is at most the sum of the lengths, 128.
const MAX_LANES: usize = 64;

/// A cell outside the table (and the saturation point of cell arithmetic).
const INF: u8 = u8::MAX;

thread_local! {
    /// Match-position masks for the bit-parallel lower bound, allocated on
    /// first use and kept **all-zero between calls** (each call clears the
    /// ≤ 64 entries its pattern touched on exit) — cheaper than refilling
    /// a 2 KB table per comparison.
    static MATCH_MASKS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The SSDeep scoring distance (insert/delete 1, substitute 2, adjacent
/// transposition 1) of `a` and `b`, computed only as far as `limit`:
/// returns [`BoundedDistance::Exact`] when the distance is `<= limit` —
/// byte-identical to
/// [`weighted_edit_distance`](crate::edit_distance::weighted_edit_distance)
/// — and [`BoundedDistance::AtLeast`]`(limit + 1)` otherwise.
///
/// Three tiers, cheapest first:
///
/// 0. the length gap, a lower bound (only insertions and deletions change
///    the length, at cost 1 each);
/// 1. the bit-parallel unit-cost Damerau–Levenshtein distance, a lower
///    bound because every weighted op cost dominates its unit cost over
///    the same recurrence;
/// 2. the exact distance by the anti-diagonal lane kernel, or by the
///    oracle when an input is longer than 64 bytes.
///
/// # Examples
///
/// ```
/// use ssdeep::fastdist::{weighted_edit_distance_bounded, BoundedDistance};
/// assert_eq!(
///     weighted_edit_distance_bounded("abc", "abd", 10),
///     BoundedDistance::Exact(2)
/// );
/// assert_eq!(
///     weighted_edit_distance_bounded("abcdefgh", "stuvwxyz", 3),
///     BoundedDistance::AtLeast(4)
/// );
/// ```
pub fn weighted_edit_distance_bounded(a: &str, b: &str, limit: usize) -> BoundedDistance {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let within = |d: usize| {
        if d <= limit {
            BoundedDistance::Exact(d)
        } else {
            BoundedDistance::AtLeast(limit + 1)
        }
    };
    // Shapes that need no table at all.
    if a == b {
        return within(0);
    }
    if a.is_empty() || b.is_empty() {
        return within(a.len() + b.len());
    }
    // Tier 0: the length gap.
    if a.len().abs_diff(b.len()) > limit {
        return BoundedDistance::AtLeast(limit + 1);
    }
    // Tier 1: the bit-parallel lower bound, only worth running when it
    // *can* reject: it never exceeds the longer length.
    if limit < a.len().max(b.len()) {
        let bound = MATCH_MASKS.with(|pm| damerau_bitparallel_with(&mut pm.borrow_mut(), a, b));
        if bound.is_some_and(|lb| lb > limit) {
            return BoundedDistance::AtLeast(limit + 1);
        }
    }
    // Tier 2: the exact distance. It is symmetric (insertion and deletion
    // cost the same), so the shorter input takes the lanes.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() > MAX_LANES {
        return within(generic_distance(a, b, 1, 1, 2, Some(1)));
    }
    within(match short.len() {
        1..=16 => lane_distance::<16>(short, long),
        17..=32 => lane_distance::<32>(short, long),
        33..=48 => lane_distance::<48>(short, long),
        _ => lane_distance::<64>(short, long),
    })
}

/// `lanes` moved up one lane, `first` entering lane 0.
#[inline(always)]
fn shifted<T: Copy, const L: usize>(lanes: &[T; L], first: T) -> [T; L] {
    std::array::from_fn(|k| if k == 0 { first } else { lanes[k - 1] })
}

/// The weighted distance of `a` (1 to `L` bytes) and `b` (at least as long,
/// at most [`MAX_LANES`]), by anti-diagonals of the DP table.
///
/// Lane `k` holds row `i = k + 1`; on anti-diagonal `d` that is the cell
/// `(i, j = d - i)`. A cell reads its row neighbour and column neighbour
/// on diagonal `d - 1`, its match/substitute neighbour on `d - 2` and its
/// transposition neighbour on `d - 4`, so every lane of a diagonal is
/// independent and the loop over them is vector code: saturating `u8`
/// lanes, 16 to a register at the default target, the transposition taken
/// by a branch-free select (Wozniak, "Using video-oriented instructions to
/// speed up sequence comparison", CABIOS 1997). Row 0 enters through lane
/// 0 as `D[0][j] = j`; lanes left of column 0 hold [`INF`], and lanes past
/// the table hold values no cell inside it reads.
fn lane_distance<const L: usize>(a: &[u8], b: &[u8]) -> usize {
    let (m, n) = (a.len(), b.len());
    debug_assert!((1..=L).contains(&m) && (m..=MAX_LANES).contains(&n));
    let mut row_chars = [0u8; L];
    row_chars[..m].copy_from_slice(a);
    // `b` reversed after `L` bytes of padding: on diagonal `d`, lane `k`
    // reads `b[j - 1] = b[d - k - 2]`, which is `reversed[L + n + 1 - d + k]`.
    let mut reversed = [0u8; 2 * MAX_LANES + MAX_LANES];
    for (x, &c) in b.iter().rev().enumerate() {
        reversed[L + x] = c;
    }
    let lane: [u8; L] = std::array::from_fn(|k| k as u8);
    // Diagonal d lives in `diagonals[d % 4]` until d + 4 replaces it;
    // diagonal 1 holds only D[1][0] = 1, and diagonals -2 to 0 nothing.
    let mut diagonals = [[INF; L]; 4];
    diagonals[1][0] = 1;
    // Where a[i - 1] == b[j - 1] held on diagonal d - 1.
    let mut matched1 = [false; L];
    for d in 2..=m + n {
        let d8 = d as u8;
        let column: &[u8; L] = reversed[L + n + 1 - d..][..L]
            .try_into()
            .expect("the padding covers every diagonal");
        let matched: [bool; L] = std::array::from_fn(|k| row_chars[k] == column[k]);
        let [back4, back1, back2] = [d, d - 1, d - 2].map(|e| &diagonals[e % 4]);
        let up = shifted(back1, d8 - 1);
        let diagonal = shifted(back2, d8 - 2);
        // D[i - 2][j - 2]: lane 0 never transposes; lane 1 reads row 0.
        let row0 = d8.checked_sub(4).unwrap_or(INF);
        let transposed = shifted(&shifted(back4, row0), INF);
        // a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1], from d - 1.
        let swapped = shifted(&matched1, false);
        let cur: [u8; L] = std::array::from_fn(|k| {
            let substitute = diagonal[k].saturating_add(if matched[k] { 0 } else { 2 });
            let indel = up[k].min(back1[k]).saturating_add(1);
            let transpose = if matched1[k] & swapped[k] {
                transposed[k].saturating_add(1)
            } else {
                INF
            };
            let best = substitute.min(indel).min(transpose);
            // Column 0 is i deletions; left of it there is no cell.
            if lane[k] >= d8 {
                INF
            } else if lane[k] + 1 == d8 {
                lane[k] + 1
            } else {
                best
            }
        });
        diagonals[d % 4] = cur;
        matched1 = matched;
    }
    usize::from(diagonals[(m + n) % 4][m - 1])
}

/// Unit-cost Damerau–Levenshtein distance (optimal string alignment, the
/// distance of [`damerau_levenshtein`](crate::edit_distance::damerau_levenshtein))
/// by the Myers/Hyyrö bit-vector algorithm, in `O(n)` word operations when
/// the shorter string fits one 64-bit word.
///
/// Returns `None` when both strings are longer than 64 bytes (real
/// run-eliminated signatures never are). Used as the pre-DP lower bound of
/// [`weighted_edit_distance_bounded`]; exactness is enforced against
/// the row DP by the property tests.
///
/// # Examples
///
/// ```
/// use ssdeep::fastdist::damerau_levenshtein_bitparallel;
/// assert_eq!(damerau_levenshtein_bitparallel("ca", "ac"), Some(1));
/// assert_eq!(damerau_levenshtein_bitparallel("kitten", "sitting"), Some(3));
/// ```
pub fn damerau_levenshtein_bitparallel(a: &str, b: &str) -> Option<usize> {
    damerau_levenshtein_bitparallel_bytes(a.as_bytes(), b.as_bytes())
}

/// Byte-slice form of [`damerau_levenshtein_bitparallel`] (uses the
/// per-thread match-mask table).
pub fn damerau_levenshtein_bitparallel_bytes(a: &[u8], b: &[u8]) -> Option<usize> {
    MATCH_MASKS.with(|pm| damerau_bitparallel_with(&mut pm.borrow_mut(), a, b))
}

/// The bit-parallel core over a caller-owned match-mask table. `pm` must
/// be all-zero (or empty) on entry; the entries touched by the pattern are
/// re-zeroed before returning, so repeated calls never refill the whole
/// 2 KB table.
fn damerau_bitparallel_with(pm: &mut Vec<u64>, a: &[u8], b: &[u8]) -> Option<usize> {
    // The pattern (bit-packed side) must fit one word; the distance is
    // symmetric, so pack the shorter string.
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let m = pattern.len();
    if m == 0 {
        return Some(text.len());
    }
    if m > 64 {
        return None;
    }

    // Match-position bitmasks: bit i of pm[c] is set iff pattern[i] == c.
    if pm.is_empty() {
        pm.resize(256, 0);
    }
    debug_assert!(pm.iter().all(|&mask| mask == 0), "pm table left dirty");
    for (i, &c) in pattern.iter().enumerate() {
        pm[c as usize] |= 1 << i;
    }

    let high = 1u64 << (m - 1);
    let full = if m == 64 { !0u64 } else { (1u64 << m) - 1 };
    let mut vp = full; // vertical positive deltas
    let mut vn = 0u64; // vertical negative deltas
    let mut d0_prev = 0u64; // previous column's diagonal-zero vector
    let mut pm_prev = 0u64; // previous text char's match vector
    let mut score = m;

    for &c in text {
        let pm_j = pm[c as usize];
        // Hyyrö's Damerau extension: bit i of tr marks a usable adjacent
        // transposition ending at (i, j).
        let tr = ((!d0_prev & pm_j) << 1) & pm_prev;
        let x = pm_j | vn;
        let d0 = (((x & vp).wrapping_add(vp)) ^ vp) | x | tr;
        let hp = vn | !(d0 | vp);
        let hn = d0 & vp;
        if hp & high != 0 {
            score += 1;
        }
        if hn & high != 0 {
            score -= 1;
        }
        // Global distance: the top boundary D[0][j] = j always grows, so
        // the shifted horizontal-positive vector carries a set low bit.
        let hp_shifted = (hp << 1) | 1;
        let hn_shifted = hn << 1;
        vp = hn_shifted | !(d0 | hp_shifted) & full;
        vn = d0 & hp_shifted;
        d0_prev = d0;
        pm_prev = pm_j;
    }
    // Restore the all-zero invariant by clearing only what was touched.
    for &c in pattern {
        pm[c as usize] = 0;
    }
    Some(score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit_distance::{damerau_levenshtein, weighted_edit_distance};

    fn wed(a: &str, b: &str) -> usize {
        weighted_edit_distance(a, b)
    }

    #[test]
    fn bounded_matches_oracle_on_small_cases() {
        let cases = [
            ("", ""),
            ("", "abc"),
            ("abc", ""),
            ("abc", "abc"),
            ("abc", "abd"),
            ("ab", "ba"),
            ("abcd", "abdc"),
            ("kitten", "sitting"),
            ("abcd", "wxyz"),
            ("AAAABBBB", "BBBBAAAA"),
            ("a cat", "an act"),
        ];
        for (a, b) in cases {
            let d = wed(a, b);
            for limit in 0..=(a.len() + b.len() + 2) {
                let got = weighted_edit_distance_bounded(a, b, limit);
                if d <= limit {
                    assert_eq!(
                        got,
                        BoundedDistance::Exact(d),
                        "({a:?},{b:?}) limit {limit}"
                    );
                } else {
                    assert_eq!(
                        got,
                        BoundedDistance::AtLeast(limit + 1),
                        "({a:?},{b:?}) limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn bitparallel_matches_damerau_on_classics() {
        let cases = [
            ("", ""),
            ("", "abc"),
            ("ca", "ac"),
            ("abcd", "abdc"),
            ("kitten", "sitting"),
            ("a cat", "an act"),
            ("abcdef", "abcdfe"),
            ("0123456789", "9876543210"),
            ("flaw", "lawn"),
        ];
        for (a, b) in cases {
            assert_eq!(
                damerau_levenshtein_bitparallel(a, b),
                Some(damerau_levenshtein(a, b)),
                "({a:?},{b:?})"
            );
        }
    }

    #[test]
    fn bitparallel_handles_64_char_pattern() {
        let a: String = (0..64).map(|i| (b'A' + (i % 26)) as char).collect();
        let mut b = a.clone();
        b.replace_range(10..11, "z");
        assert_eq!(damerau_levenshtein_bitparallel(&a, &a), Some(0));
        assert_eq!(damerau_levenshtein_bitparallel(&a, &b), Some(1));
        let long: String = (0..65).map(|_| 'x').collect();
        // One side over a word is fine (the other is packed)…
        assert!(damerau_levenshtein_bitparallel(&a, &long).is_some());
        // …both sides over a word is not.
        assert_eq!(damerau_levenshtein_bitparallel(&long, &long), None);
    }

    #[test]
    fn lower_bound_property_holds() {
        // DL <= weighted on a deterministic mix of shapes.
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let la = (next() % 20) as usize;
            let lb = (next() % 20) as usize;
            let a: String = (0..la)
                .map(|_| (b'a' + (next() % 4) as u8) as char)
                .collect();
            let b: String = (0..lb)
                .map(|_| (b'a' + (next() % 4) as u8) as char)
                .collect();
            let dl = damerau_levenshtein_bitparallel(&a, &b).unwrap();
            assert_eq!(dl, damerau_levenshtein(&a, &b), "({a:?},{b:?})");
            assert!(dl <= wed(&a, &b), "({a:?},{b:?})");
        }
    }

    #[test]
    fn every_adjacent_pair_swapped() {
        // Transposition-heavy pairs: every cell of the result reads the
        // diagonal four back.
        let a = "abcdefghijklmnop";
        let b = "badcfehgjilknmpo";
        let d = wed(a, b); // 8 transpositions
        assert_eq!(d, 8);
        for limit in 0..=20 {
            let got = weighted_edit_distance_bounded(a, b, limit);
            if d <= limit {
                assert_eq!(got, BoundedDistance::Exact(d), "limit {limit}");
            } else {
                assert_eq!(got, BoundedDistance::AtLeast(limit + 1), "limit {limit}");
            }
        }
    }

    #[test]
    fn zero_limit_accepts_only_equality() {
        assert_eq!(
            weighted_edit_distance_bounded("same", "same", 0),
            BoundedDistance::Exact(0)
        );
        assert_eq!(
            weighted_edit_distance_bounded("same", "sane", 0),
            BoundedDistance::AtLeast(1)
        );
    }

    #[test]
    fn bounded_distance_accessors() {
        assert_eq!(BoundedDistance::Exact(3).exact(), Some(3));
        assert_eq!(BoundedDistance::AtLeast(7).exact(), None);
        assert_eq!(BoundedDistance::Exact(3).lower_bound(), 3);
        assert_eq!(BoundedDistance::AtLeast(7).lower_bound(), 7);
    }
}
