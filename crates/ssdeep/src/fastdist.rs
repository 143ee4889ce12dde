//! The bounded edit-distance kernel for the similarity hot path.
//!
//! Every backend — scan, indexed, fleet — funnels millions of
//! pairwise signature comparisons through the weighted Damerau–Levenshtein
//! distance. The oracle implementation
//! ([`weighted_edit_distance`](crate::edit_distance::weighted_edit_distance))
//! allocates three fresh rows per call and always fills the full `O(m·n)`
//! table, even when the caller only needs to know whether the distance can
//! stay under a budget. This module is the fast path, three stacked wins,
//! all byte-identical to the oracle wherever a result is produced:
//!
//! 1. **Scratch reuse** — [`DistanceScratch`] owns the DP rows (`u32`, not
//!    `usize`: signature distances are tiny and narrower rows halve memory
//!    traffic). Callers hold one per thread, or use the thread-local inside
//!    [`weighted_edit_distance_bounded`], so the per-call allocations
//!    disappear.
//! 2. **Bit-parallel lower bound** — the unit-cost Damerau–Levenshtein
//!    distance ([`damerau_levenshtein_bitparallel`], Myers/Hyyrö bit-vector
//!    algorithm, one `u64` word for the ≤64-char run-eliminated signatures)
//!    is a lower bound on the weighted distance (every weighted op cost
//!    dominates its unit cost, and the recurrences are otherwise
//!    identical), so `lb > limit` rejects a pair in ~`n` word operations
//!    before any DP row is touched.
//! 3. **Banded DP with cutoff** — [`weighted_edit_distance_bounded`] fills
//!    only the diagonal band that can still produce a distance `<= limit`
//!    (any path through diagonal offset `d = j - i` costs at least
//!    `|d| + |Δ - d|` in unit-cost insertions/deletions, `Δ` the final
//!    length difference) and abandons the table as soon as two consecutive
//!    rows exceed the limit (two rows, not one, because a transposition
//!    step can hop over a single row), returning
//!    [`BoundedDistance::AtLeast`] instead of an exact value.
//!
//! The prepared comparison path
//! ([`compare_prepared_min`](crate::prepared::compare_prepared_min)) turns
//! a *score* budget into a distance `limit` via
//! [`max_distance_for_score`](crate::compare::max_distance_for_score) and
//! feeds it here, so a comparison that cannot beat a class's running
//! maximum similarity is abandoned mid-table.

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

/// Sentinel for out-of-band DP cells. Far above any real signature
/// distance, far below `u32::MAX` so `saturating_add` headroom is never
/// needed on the hot path (a plain `+ 2` cannot overflow it).
const INF: u32 = u32::MAX / 4;

/// Reusable DP rows for [`weighted_edit_distance_bounded_with`].
///
/// One scratch per thread removes the three `Vec` allocations the oracle
/// pays per call. The rows grow to the widest signature seen and are then
/// reused verbatim; dropping the scratch frees them.
#[derive(Debug, Default)]
pub struct DistanceScratch {
    prev2: Vec<u32>,
    prev: Vec<u32>,
    cur: Vec<u32>,
    /// Match-position masks for the bit-parallel lower bound, allocated on
    /// first use and kept **all-zero between calls** (each call clears the
    /// ≤ 64 entries its pattern touched on exit) — cheaper than refilling
    /// a 2 KB table per comparison.
    pm: Vec<u64>,
}

impl DistanceScratch {
    /// An empty scratch (rows grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The three rows, each resized to `width` cells.
    fn rows(&mut self, width: usize) -> (&mut Vec<u32>, &mut Vec<u32>, &mut Vec<u32>) {
        self.prev2.resize(width, INF);
        self.prev.resize(width, INF);
        self.cur.resize(width, INF);
        (&mut self.prev2, &mut self.prev, &mut self.cur)
    }
}

thread_local! {
    /// Per-thread scratch used by the convenience wrappers, so hot-path
    /// callers get allocation-free comparisons without threading a scratch
    /// through every layer by hand.
    static THREAD_SCRATCH: RefCell<DistanceScratch> = RefCell::new(DistanceScratch::new());
}

/// The SSDeep scoring distance (insert/delete 1, substitute 2, adjacent
/// transposition 1) of `a` and `b`, computed only as far as `limit`:
/// returns [`BoundedDistance::Exact`] when the distance is `<= limit` —
/// byte-identical to
/// [`weighted_edit_distance`](crate::edit_distance::weighted_edit_distance)
/// — and [`BoundedDistance::AtLeast`]`(limit + 1)` otherwise.
///
/// Uses a per-thread [`DistanceScratch`]; see
/// [`weighted_edit_distance_bounded_with`] for the caller-owned-scratch
/// form and the pruning tiers.
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
    THREAD_SCRATCH.with(|scratch| {
        weighted_edit_distance_bounded_with(
            &mut scratch.borrow_mut(),
            a.as_bytes(),
            b.as_bytes(),
            limit,
        )
    })
}

/// [`weighted_edit_distance_bounded`] over raw bytes with a caller-owned
/// scratch (the form the comparison hot path uses).
pub fn weighted_edit_distance_bounded_with(
    scratch: &mut DistanceScratch,
    a: &[u8],
    b: &[u8],
    limit: usize,
) -> BoundedDistance {
    let (m, n) = (a.len(), b.len());

    // Degenerate shapes first: they need no table at all.
    if m == 0 || n == 0 {
        let d = m + n;
        return if d <= limit {
            BoundedDistance::Exact(d)
        } else {
            BoundedDistance::AtLeast(limit + 1)
        };
    }
    if a == b {
        return BoundedDistance::Exact(0);
    }

    // Tier 0: the distance is at least the length difference (only
    // insertions and deletions change the length, at cost 1 each).
    let diff = m.abs_diff(n);
    if diff > limit {
        return BoundedDistance::AtLeast(limit + 1);
    }

    // Absurdly long inputs (far beyond any signature) would overflow the
    // u32 rows; hand them to the allocating oracle.
    if m + n >= INF as usize {
        let d = generic_distance(a, b, 1, 1, 2, Some(1));
        return if d <= limit {
            BoundedDistance::Exact(d)
        } else {
            BoundedDistance::AtLeast(limit + 1)
        };
    }

    // Tier 1: bit-parallel unit-cost Damerau–Levenshtein lower bound.
    // Every weighted op cost dominates its unit cost (1/1/2/1 vs 1/1/1/1)
    // over the same recurrence, so DL <= weighted distance cell-wise. Only
    // worth running when it *can* reject: DL never exceeds max(m, n).
    if limit < m.max(n) {
        if let Some(lb) = damerau_bitparallel_with(&mut scratch.pm, a, b) {
            if lb > limit {
                return BoundedDistance::AtLeast(limit + 1);
            }
        }
    }

    // Tier 2: banded DP. A path through the cell (i, j) — diagonal offset
    // d = j - i — spends at least |d| + |Δ - d| on insertions/deletions
    // (Δ = n - m is the final offset; substitutions and transpositions
    // never change the offset, and a transposition changes it by 0). So
    // only offsets with |d| + |Δ - d| <= limit can contribute, which is
    // the interval [min(0, Δ) - slack, max(0, Δ) + slack] with
    // slack = (limit - |Δ|) / 2.
    let limit = limit.min(m + n);
    let limit_u32 = limit as u32;
    let delta = n as isize - m as isize;
    let slack = ((limit - diff) / 2) as isize;
    let lo = delta.min(0) - slack;
    let hi = delta.max(0) + slack;

    let width = n + 1;
    let (prev2, prev, cur) = scratch.rows(width);

    // Row 0: D[0][j] = j insertions; out-of-band cells are INF. Row -1
    // (prev2 for i = 1) is all INF.
    prev2[..width].fill(INF);
    for (j, cell) in prev[..width].iter_mut().enumerate() {
        *cell = if j as isize <= hi { j as u32 } else { INF };
    }
    // The cutoff needs two consecutive over-limit rows because a
    // transposition reads prev2 and can hop a single bad row.
    let mut prev_row_min = 0u32;

    for i in 1..=m {
        let band_lo = (i as isize + lo).max(0) as usize;
        let band_hi = ((i as isize + hi).min(n as isize)) as usize;
        cur[..width].fill(INF);
        let mut row_min = INF;
        if band_lo == 0 {
            cur[0] = i as u32; // delete a[..i]
            row_min = cur[0];
        }
        let ai = a[i - 1];
        for j in band_lo.max(1)..=band_hi {
            let bj = b[j - 1];
            let cost_sub = if ai == bj { 0 } else { 2 };
            let mut best = (prev[j] + 1) // delete a[i-1]
                .min(cur[j - 1] + 1) // insert b[j-1]
                .min(prev[j - 1] + cost_sub); // match / substitute
            if i > 1 && j > 1 && ai == b[j - 2] && a[i - 2] == bj {
                best = best.min(prev2[j - 2] + 1); // transpose
            }
            cur[j] = best;
            row_min = row_min.min(best);
        }
        if row_min > limit_u32 && prev_row_min > limit_u32 {
            return BoundedDistance::AtLeast(limit + 1);
        }
        prev_row_min = row_min;
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, cur);
    }

    let d = prev[n];
    if d <= limit_u32 {
        BoundedDistance::Exact(d as usize)
    } else {
        BoundedDistance::AtLeast(limit + 1)
    }
}

/// Unit-cost Damerau–Levenshtein distance (optimal string alignment, the
/// distance of [`damerau_levenshtein`](crate::edit_distance::damerau_levenshtein))
/// by the Myers/Hyyrö bit-vector algorithm, in `O(n)` word operations when
/// the shorter string fits one 64-bit word.
///
/// Returns `None` when both strings are longer than 64 bytes (real
/// run-eliminated signatures never are). Used as the pre-DP lower bound of
/// [`weighted_edit_distance_bounded_with`]; exactness is enforced against
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
/// per-thread scratch's match-mask table).
pub fn damerau_levenshtein_bitparallel_bytes(a: &[u8], b: &[u8]) -> Option<usize> {
    THREAD_SCRATCH.with(|scratch| damerau_bitparallel_with(&mut scratch.borrow_mut().pm, a, b))
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
    fn scratch_is_reusable_across_shapes() {
        let mut scratch = DistanceScratch::new();
        let pairs = [
            ("short", "also short"),
            ("a much longer signature string to widen the rows", "x"),
            ("", "nonempty"),
            ("back", "to short"),
        ];
        for (a, b) in pairs {
            let d = wed(a, b);
            let got = weighted_edit_distance_bounded_with(
                &mut scratch,
                a.as_bytes(),
                b.as_bytes(),
                a.len() + b.len(),
            );
            assert_eq!(got, BoundedDistance::Exact(d));
        }
    }

    #[test]
    fn transposition_cannot_tunnel_past_the_cutoff() {
        // Transposition-heavy pairs where a single-row cutoff would be
        // unsound: every adjacent pair swapped.
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
