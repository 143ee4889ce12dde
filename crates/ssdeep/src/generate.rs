//! Fuzzy-hash generation.
//!
//! A fuzzy hash (signature) has the textual form
//! `blocksize:signature1:signature2`, where `signature1` is built with chunk
//! boundaries triggered at `blocksize` and `signature2` at `2 * blocksize`.
//! Keeping the double-block-size signature allows two files whose chosen
//! block sizes differ by a factor of two to still be compared.
//!
//! Two generators produce the same hashes. [`fuzzy_hash_bytes_oracle`] is
//! the textbook one: chunk the whole input at one block size, and halve
//! and re-hash while the signature comes out short. [`fuzzy_hash_bytes`] is
//! the one the pipeline uses, in two phases:
//!
//! 1. **Boundaries.** A chunk boundary depends only on the rolling value,
//!    a function of the last seven bytes (see [`crate::rolling_hash`]), so
//!    boundaries can be found for many positions at once. For each 64-byte
//!    block, the low byte of every position's value is computed in `u8`
//!    vector lanes and tested against the block size's power-of-two mask,
//!    packing the hits into a `u64`; each hit is confirmed with the full
//!    32-bit value and a division-free `% 3`. The first 63 boundaries of
//!    the two candidate block sizes and the first 31 of the next size up
//!    are kept in fixed arrays, and their counts pick the block size
//!    exactly as the oracle's halving does. Only when both candidates come
//!    out short does the scan run again, two sizes lower.
//! 2. **Chunk hashes.** FNV runs only over the chosen size's (at most 64 +
//!    32) chunks, six chunks in lockstep, so its multiply chains overlap.
//!
//! The property tests hold the engine byte-identical to the oracle.

use crate::base64;
use crate::blocksize::{blocksize_at, comparable, initial_blocksize, MIN_BLOCKSIZE};
use crate::error::ParseError;
use crate::fnv::{PartialHash, FNV_PRIME, HASH_INIT};
use crate::rolling_hash::{window_value, RollingHash, ROLLING_WINDOW};
use std::fmt;
use std::str::FromStr;

/// Target signature length (64 characters), as in spamsum/SSDeep.
pub const SPAM_SUM_LENGTH: usize = 64;

/// A context-triggered piecewise hash of one input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FuzzyHash {
    block_size: u64,
    sig1: String,
    sig2: String,
}

impl FuzzyHash {
    /// Construct a fuzzy hash from raw parts (used by the parser and tests).
    pub fn from_parts(block_size: u64, sig1: String, sig2: String) -> Result<Self, ParseError> {
        if block_size == 0 {
            return Err(ParseError::InvalidBlockSize("0".to_string()));
        }
        for sig in [&sig1, &sig2] {
            if sig.len() > SPAM_SUM_LENGTH {
                return Err(ParseError::SignatureTooLong(sig.len()));
            }
            if let Some(c) = sig.chars().find(|&c| !base64::is_valid_char(c)) {
                return Err(ParseError::InvalidCharacter(c));
            }
        }
        Ok(Self {
            block_size,
            sig1,
            sig2,
        })
    }

    /// The block size the primary signature was generated with.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// The primary signature (chunked at `block_size`).
    pub fn signature(&self) -> &str {
        &self.sig1
    }

    /// The secondary signature (chunked at `2 * block_size`).
    pub fn signature_double(&self) -> &str {
        &self.sig2
    }

    /// Whether this hash can be meaningfully compared with `other` (equal
    /// block sizes or a factor-of-two difference).
    pub fn comparable_with(&self, other: &FuzzyHash) -> bool {
        comparable(self.block_size, other.block_size)
    }
}

impl fmt::Display for FuzzyHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.block_size, self.sig1, self.sig2)
    }
}

impl FromStr for FuzzyHash {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.splitn(3, ':');
        let bs = parts.next().ok_or(ParseError::MissingSeparator)?;
        let sig1 = parts.next().ok_or(ParseError::MissingSeparator)?;
        let sig2 = parts.next().ok_or(ParseError::MissingSeparator)?;
        let block_size: u64 = bs
            .parse()
            .map_err(|_| ParseError::InvalidBlockSize(bs.to_string()))?;
        FuzzyHash::from_parts(block_size, sig1.to_string(), sig2.to_string())
    }
}

/// One pass of the CTPH chunker at a fixed block size (the oracle's).
///
/// Returns `(sig1, sig2)` where `sig1` uses `block_size` and `sig2` uses
/// `2 * block_size` as the boundary trigger.
fn chunk_signatures(data: &[u8], block_size: u64) -> (String, String) {
    let mut roll = RollingHash::new();
    let mut h1 = PartialHash::new();
    let mut h2 = PartialHash::new();
    let mut sig1 = String::with_capacity(SPAM_SUM_LENGTH);
    let mut sig2 = String::with_capacity(SPAM_SUM_LENGTH / 2);
    let double = block_size * 2;

    for &byte in data {
        let r = u64::from(roll.update(byte));
        h1.update(byte);
        h2.update(byte);

        if r % block_size == block_size - 1 && sig1.len() < SPAM_SUM_LENGTH - 1 {
            sig1.push(base64::encode(h1.b64_index()));
            h1 = PartialHash::new();
        }
        if r % double == double - 1 && sig2.len() < SPAM_SUM_LENGTH / 2 - 1 {
            sig2.push(base64::encode(h2.b64_index()));
            h2 = PartialHash::new();
        }
    }

    // Capture whatever is left in the final (possibly unterminated) chunk.
    if roll.value() != 0 || data.is_empty() {
        sig1.push(base64::encode(h1.b64_index()));
        sig2.push(base64::encode(h2.b64_index()));
    }
    (sig1, sig2)
}

/// Compute the fuzzy hash of a byte slice the slow, obvious way: the
/// reference for [`fuzzy_hash_bytes`], which must match it byte for byte.
///
/// The block size starts at the estimate from
/// [`initial_blocksize`] and is halved
/// (re-hashing the input) while the primary signature comes out shorter than
/// half the target length, exactly as the reference implementation does, so
/// that small inputs still produce informative signatures.
pub fn fuzzy_hash_bytes_oracle(data: &[u8]) -> FuzzyHash {
    let mut block_size = initial_blocksize(data.len());
    loop {
        let (sig1, sig2) = chunk_signatures(data, block_size);
        if sig1.len() < SPAM_SUM_LENGTH / 2 && block_size > MIN_BLOCKSIZE {
            block_size /= 2;
            continue;
        }
        return FuzzyHash {
            block_size,
            sig1,
            sig2,
        };
    }
}

/// The primary signature keeps its first 63 chunk ends and the double one
/// its first 31; one more character hashes whatever follows the last end.
const LONG: usize = SPAM_SUM_LENGTH - 1;
const SHORT: usize = SPAM_SUM_LENGTH / 2 - 1;

/// The first `N` chunk ends (inclusive byte indices) found at one level.
/// `N` is below the array's length, so recording an end can store into
/// the next slot unconditionally, with no branch.
struct Ends<const N: usize> {
    at: [usize; SPAM_SUM_LENGTH],
    len: usize,
}

impl<const N: usize> Ends<N> {
    fn new() -> Self {
        Self {
            at: [0; SPAM_SUM_LENGTH],
            len: 0,
        }
    }

    /// Record `i` if `hit`, unless `N` ends are already kept: past that the
    /// signature is full and its last chunk runs to the end of the input.
    #[inline(always)]
    fn push_if(&mut self, hit: bool, i: usize) {
        self.at[self.len] = i;
        self.len += usize::from(hit & (self.len < N));
    }

    /// The first `n` kept ends.
    fn first(&self, n: usize) -> &[usize] {
        &self.at[..self.len.min(n)]
    }
}

/// Phase 1's output: the chunk ends at levels `lo`, `lo + 1` and `lo + 2`.
struct Boundaries {
    lower: Ends<LONG>,
    upper: Ends<LONG>,
    above: Ends<SHORT>,
}

/// The doubling index `k` of the block size `MIN_BLOCKSIZE << k`.
fn level_of(block_size: u64) -> u32 {
    (block_size / MIN_BLOCKSIZE).trailing_zeros()
}

/// `r % bs == bs - 1` for `bs = 3 << k` is `(r + 1) & mask(k) == 0 &&
/// (r + 1) % 3 == 0`: the power-of-two part needs no division.
fn boundary_mask(k: u32) -> u64 {
    (1u64 << k) - 1
}

/// `q % 3 == 0`, as one multiply: times the inverse of 3 modulo 2^64, the
/// multiples of 3 land exactly on `0..=u64::MAX / 3`.
#[inline(always)]
fn divisible_by_3(q: u64) -> bool {
    q.wrapping_mul(0xAAAA_AAAA_AAAA_AAAB) <= u64::MAX / 3
}

/// Bytes of history a block's window carries in front of its 64 bytes.
const HISTORY: usize = ROLLING_WINDOW - 1;

/// One bit per position `t` of a 64-byte block, set where the low byte of
/// `q = v + 1` has no bit of `filter` set (`v` the rolling value after
/// the block's byte `t`, which is `window[t + HISTORY]`).
///
/// The low byte of `v` depends on `b0 ^ (b1 << 5)` and the weighted sum
/// `8·b0 + 7·b1 + ... + 2·b6` only (`bj` the byte `j` back), so it is
/// computed in `u8` lanes for all 64 positions at once, as a running sum
/// of the window's partial sums; the compiler turns that loop into 16-lane
/// vector code at the default target. The zero bytes then gather into the
/// mask eight at a time, as in the strings view's `printable_mask`.
fn candidates(window: &[u8; HISTORY + 64], filter: u8) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut low = [0u8; 64];
    for (t, out) in low.iter_mut().enumerate() {
        let b = |j: usize| window[t + HISTORY - j];
        // `sum` runs through b0, b0 + b1, ..., b0 + ... + b6; adding each
        // partial sum, the last twice, weighs bj by 8 - j.
        let mut sum = b(0);
        let mut weighted = sum;
        for j in 1..ROLLING_WINDOW {
            sum = sum.wrapping_add(b(j));
            weighted = weighted.wrapping_add(sum);
        }
        let q = weighted
            .wrapping_add(sum)
            .wrapping_add(b(0) ^ (b(1) << 5))
            .wrapping_add(1);
        *out = q & filter;
    }
    let mut mask = 0;
    for (i, &word) in low.as_chunks::<8>().0.iter().enumerate() {
        let word = u64::from_le_bytes(word);
        // A byte's high bit ends up set iff the byte is zero.
        let zero = !(((word & LOW7) + LOW7) | word) & HIGH;
        let byte = (zero >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        mask |= byte << (8 * i);
    }
    mask
}

/// Phase 1: the chunk ends at levels `lo`, `lo + 1` and `lo + 2` of the
/// whole input.
///
/// Boundaries nest (one at a level is one at every level below it), so
/// only level `lo`'s candidates are visited. A 64-position candidate mask
/// tests the low byte of `q` against `lo`'s mask bits, of which it holds
/// at most eight: exact for `lo <= 8`, a filter above. Each candidate is
/// then confirmed with the full 32-bit value.
fn boundaries(data: &[u8], lo: u32) -> Boundaries {
    let filter = boundary_mask(lo.min(8)) as u8;
    let [lo_mask, mid_mask, hi_mask] = [lo, lo + 1, lo + 2].map(boundary_mask);
    let mut found = Boundaries {
        lower: Ends::new(),
        upper: Ends::new(),
        above: Ends::new(),
    };
    for base in (0..data.len()).step_by(64) {
        let padded;
        let window: &[u8; HISTORY + 64] = match base.checked_sub(HISTORY) {
            Some(from) if base + 64 <= data.len() => data[from..base + 64]
                .try_into()
                .expect("the range spans a window"),
            _ => {
                padded = padded_window(data, base);
                &padded
            }
        };
        let mut hits = candidates(window, filter);
        if data.len() - base < 64 {
            hits &= (1u64 << (data.len() - base)) - 1;
        }
        while hits != 0 {
            let t = hits.trailing_zeros() as usize;
            hits &= hits - 1;
            let taps = window[t..][..ROLLING_WINDOW]
                .try_into()
                .expect("a window holds seven bytes ending at each position");
            let q = u64::from(window_value(taps)) + 1;
            // Boundaries nest; `&` rather than `&&` keeps the tests, whose
            // outcomes are close to random, off the branch predictor.
            let lower = (q & lo_mask == 0) & divisible_by_3(q);
            let upper = lower & (q & mid_mask == 0);
            let above = upper & (q & hi_mask == 0);
            let i = base + t;
            found.lower.push_if(lower, i);
            found.upper.push_if(upper, i);
            found.above.push_if(above, i);
        }
    }
    found
}

/// The window of the block at `base` where it runs off either end of the
/// input: zeros stand in for the bytes before it, as in the rolling hash,
/// and past its end (the positions there are masked off).
fn padded_window(data: &[u8], base: usize) -> [u8; HISTORY + 64] {
    let mut window = [0; HISTORY + 64];
    let from = base.saturating_sub(HISTORY);
    let bytes = &data[from..data.len().min(base + 64)];
    window[HISTORY + from - base..][..bytes.len()].copy_from_slice(bytes);
    window
}

/// Whether the signatures end with a character for the unterminated last
/// chunk: the reference emits it unless the final rolling value is 0.
fn has_tail(data: &[u8]) -> bool {
    let mut last = [0u8; ROLLING_WINDOW];
    let n = data.len().min(ROLLING_WINDOW);
    last[ROLLING_WINDOW - n..].copy_from_slice(&data[data.len() - n..]);
    data.is_empty() || window_value(&last) != 0
}

/// A chunk for phase 2 to hash: its bytes `start..end` and the index of
/// its character.
#[derive(Debug, Clone, Copy, Default)]
struct Chunk {
    start: usize,
    end: usize,
    slot: usize,
}

/// Phase 2: the fuzzy hash at `level`, whose primary signature ends its
/// chunks at `ends1` and whose double one at `ends2`.
fn signatures(data: &[u8], level: u32, ends1: &[usize], ends2: &[usize], tail: bool) -> FuzzyHash {
    const MAX_CHUNKS: usize = SPAM_SUM_LENGTH + SPAM_SUM_LENGTH / 2;
    let mut chunks = [Chunk::default(); MAX_CHUNKS];
    let mut n = 0;
    let mut split = |ends: &[usize]| {
        let mut start = 0;
        for end in ends
            .iter()
            .map(|&i| i + 1)
            .chain(tail.then_some(data.len()))
        {
            chunks[n] = Chunk {
                start,
                end,
                slot: n,
            };
            n += 1;
            start = end;
        }
        n
    };
    let n1 = split(ends1);
    let n = split(ends2);
    let mut chars = [0u8; MAX_CHUNKS];
    hash_chunks(data, &mut chunks[..n], &mut chars);
    let text = |chars: &[u8]| chars.iter().map(|&c| char::from(c)).collect();
    FuzzyHash {
        block_size: blocksize_at(level),
        sig1: text(&chars[..n1]),
        sig2: text(&chars[n1..n]),
    }
}

/// Set `chars[chunk.slot]` to the signature character of each chunk.
///
/// A character is the low six bits of the chunk's FNV hash, and those
/// follow `h·19 ^ b` in the low six bits alone (`FNV_PRIME ≡ 19 mod 64`),
/// a multiply the compiler does with two `lea`s. Each chunk is still a
/// chain of dependent steps, but the chunks are independent: six lanes
/// each hash one chunk in lockstep, for as many bytes as the shortest has
/// left, and a lane that finishes takes the next chunk. Taking the longest
/// chunks first leaves short ones for the lanes still busy when the queue
/// runs out, which finish one by one.
fn hash_chunks(data: &[u8], chunks: &mut [Chunk], chars: &mut [u8]) {
    const LANES: usize = 6;
    const PRIME: u32 = FNV_PRIME % 64;
    let fnv = |hash: u32, bytes: &[u8]| {
        bytes
            .iter()
            .fold(hash, |h, &b| h.wrapping_mul(PRIME) ^ u32::from(b))
    };
    let char_of = |hash: u32| base64::B64[(hash % 64) as usize];
    chunks.sort_unstable_by_key(|chunk| std::cmp::Reverse(chunk.end - chunk.start));
    let (first, queue) = chunks.split_at(LANES.min(chunks.len()));
    let Ok(mut lanes) = <[Chunk; LANES]>::try_from(first) else {
        for chunk in first {
            chars[chunk.slot] = char_of(fnv(HASH_INIT, &data[chunk.start..chunk.end]));
        }
        return;
    };
    let mut queue = queue.iter();
    let mut hashes = [HASH_INIT; LANES];
    let mut busy = [true; LANES];
    while busy == [true; LANES] {
        let step = lanes.iter().map(|c| c.end - c.start).min().unwrap_or(0);
        let [s0, s1, s2, s3, s4, s5] = lanes.map(|c| &data[c.start..c.start + step]);
        let [mut h0, mut h1, mut h2, mut h3, mut h4, mut h5] = hashes;
        for (((((&x0, &x1), &x2), &x3), &x4), &x5) in
            s0.iter().zip(s1).zip(s2).zip(s3).zip(s4).zip(s5)
        {
            h0 = h0.wrapping_mul(PRIME) ^ u32::from(x0);
            h1 = h1.wrapping_mul(PRIME) ^ u32::from(x1);
            h2 = h2.wrapping_mul(PRIME) ^ u32::from(x2);
            h3 = h3.wrapping_mul(PRIME) ^ u32::from(x3);
            h4 = h4.wrapping_mul(PRIME) ^ u32::from(x4);
            h5 = h5.wrapping_mul(PRIME) ^ u32::from(x5);
        }
        hashes = [h0, h1, h2, h3, h4, h5];
        for ((lane, hash), busy) in lanes.iter_mut().zip(&mut hashes).zip(&mut busy) {
            lane.start += step;
            if lane.start == lane.end {
                chars[lane.slot] = char_of(*hash);
                *hash = HASH_INIT;
                match queue.next() {
                    Some(&chunk) => *lane = chunk,
                    None => *busy = false,
                }
            }
        }
    }
    for ((lane, &hash), busy) in lanes.iter().zip(&hashes).zip(busy) {
        if busy {
            chars[lane.slot] = char_of(fnv(hash, &data[lane.start..lane.end]));
        }
    }
}

/// Compute the fuzzy hash of a byte slice.
///
/// The result is byte-identical to [`fuzzy_hash_bytes_oracle`]: the largest
/// block size, from [`initial_blocksize`] down, whose primary signature
/// reaches half the target length (or the minimum block size). Where the
/// oracle re-hashes the input once per halving, this finds the chunk ends
/// of three levels in one pass (phase 1), picks the level from their
/// counts, and hashes only that level's chunks (phase 2). An input whose
/// two top candidates both come out short repeats phase 1 two levels down.
///
/// # Examples
///
/// ```
/// use ssdeep::{fuzzy_hash_bytes, fuzzy_hash_bytes_oracle};
/// let data = b"hello fuzzy hashing world, this is a short input";
/// let h = fuzzy_hash_bytes(data);
/// assert!(h.block_size() >= 3);
/// assert!(!h.signature().is_empty());
/// let text = h.to_string();
/// assert_eq!(text.matches(':').count(), 2);
/// assert_eq!(h, fuzzy_hash_bytes_oracle(data));
/// ```
pub fn fuzzy_hash_bytes(data: &[u8]) -> FuzzyHash {
    const HALF: usize = SPAM_SUM_LENGTH / 2;
    let top = level_of(initial_blocksize(data.len()));
    let tail = has_tail(data);
    // A signature has a character per kept chunk end plus the tail's.
    let length = |ends: &Ends<LONG>| ends.len + usize::from(tail);
    let mut hi = top.max(1);
    loop {
        let found = boundaries(data, hi - 1);
        // `hi > top` only when `top == 0`, where level 1 is not a candidate.
        if hi <= top && length(&found.upper) >= HALF {
            let (ends1, ends2) = (found.upper.first(LONG), found.above.first(SHORT));
            return signatures(data, hi, ends1, ends2, tail);
        }
        if hi == 1 || length(&found.lower) >= HALF {
            let (ends1, ends2) = (found.lower.first(LONG), found.upper.first(SHORT));
            return signatures(data, hi - 1, ends1, ends2, tail);
        }
        // Both missed: try the next two levels down. From `hi == 2` this
        // re-checks level 1 (missed again, identically) to reach level 0.
        hi = (hi - 2).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(len: usize, stride: u8) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64 * u64::from(stride) + i as u64 / 7) % 251) as u8)
            .collect()
    }

    #[test]
    fn phase_one_finds_the_serial_scans_boundaries_at_every_filter_width() {
        // Pseudo-random bytes: boundaries reach level 19 about once per MiB.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..1 << 20)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let mut roll = RollingHash::new();
        let values: Vec<u64> = data.iter().map(|&b| u64::from(roll.update(b))).collect();
        for lo in [0, 1, 2, 5, 7, 8, 9, 10, 16, 17, 18, 20] {
            let found = boundaries(&data, lo);
            for (level, got, cap) in [
                (lo, found.lower.first(LONG), LONG),
                (lo + 1, found.upper.first(LONG), LONG),
                (lo + 2, found.above.first(SHORT), SHORT),
            ] {
                let bs = blocksize_at(level);
                let want: Vec<usize> = (0..data.len())
                    .filter(|&i| values[i] % bs == bs - 1)
                    .take(cap)
                    .collect();
                assert_eq!(got, want, "lo {lo}, level {level}");
            }
        }
    }

    #[test]
    fn empty_input_has_minimal_hash() {
        let h = fuzzy_hash_bytes(b"");
        assert_eq!(h.block_size(), MIN_BLOCKSIZE);
        assert_eq!(h.signature().len(), 1);
        assert_eq!(h.signature_double().len(), 1);
    }

    #[test]
    fn deterministic() {
        let data = patterned(50_000, 13);
        assert_eq!(fuzzy_hash_bytes(&data), fuzzy_hash_bytes(&data));
    }

    #[test]
    fn signatures_respect_length_bounds() {
        for len in [0usize, 1, 10, 100, 1_000, 10_000, 200_000] {
            let h = fuzzy_hash_bytes(&patterned(len, 7));
            assert!(h.signature().len() <= SPAM_SUM_LENGTH, "len {len}");
            assert!(
                h.signature_double().len() <= SPAM_SUM_LENGTH / 2,
                "len {len}"
            );
        }
    }

    #[test]
    fn signature_chars_are_valid_base64() {
        let h = fuzzy_hash_bytes(&patterned(30_000, 31));
        assert!(crate::base64::is_valid_signature(h.signature()));
        assert!(crate::base64::is_valid_signature(h.signature_double()));
    }

    #[test]
    fn roundtrip_display_parse() {
        let h = fuzzy_hash_bytes(&patterned(12_345, 5));
        let text = h.to_string();
        let parsed: FuzzyHash = text.parse().unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            "nocolons".parse::<FuzzyHash>(),
            Err(ParseError::MissingSeparator)
        ));
        assert!(matches!(
            "x:AB:CD".parse::<FuzzyHash>(),
            Err(ParseError::InvalidBlockSize(_))
        ));
        assert!(matches!(
            "0:AB:CD".parse::<FuzzyHash>(),
            Err(ParseError::InvalidBlockSize(_))
        ));
        assert!(matches!(
            "3:A B:CD".parse::<FuzzyHash>(),
            Err(ParseError::InvalidCharacter(' '))
        ));
        let long = "A".repeat(SPAM_SUM_LENGTH + 1);
        assert!(matches!(
            format!("3:{long}:CD").parse::<FuzzyHash>(),
            Err(ParseError::SignatureTooLong(_))
        ));
    }

    #[test]
    fn larger_inputs_get_larger_block_sizes() {
        let small = fuzzy_hash_bytes(&patterned(1_000, 3));
        let large = fuzzy_hash_bytes(&patterned(1_000_000, 3));
        assert!(large.block_size() > small.block_size());
    }

    #[test]
    fn comparable_with_factor_two() {
        let a = FuzzyHash::from_parts(48, "ABC".into(), "DE".into()).unwrap();
        let b = FuzzyHash::from_parts(96, "ABC".into(), "DE".into()).unwrap();
        let c = FuzzyHash::from_parts(192, "ABC".into(), "DE".into()).unwrap();
        assert!(a.comparable_with(&b));
        assert!(b.comparable_with(&c));
        assert!(!a.comparable_with(&c));
    }

    #[test]
    fn small_change_keeps_most_of_signature() {
        let a = patterned(60_000, 11);
        let mut b = a.clone();
        // Flip a handful of bytes in the middle.
        for byte in &mut b[30_000..30_016] {
            *byte ^= 0xFF;
        }
        let ha = fuzzy_hash_bytes(&a);
        let hb = fuzzy_hash_bytes(&b);
        assert_eq!(ha.block_size(), hb.block_size());
        // The signatures must share a long common prefix or suffix overall;
        // quantify via edit distance being far below the signature length.
        let d = crate::edit_distance::levenshtein(ha.signature(), hb.signature());
        assert!(
            d < ha.signature().len() / 2,
            "edit distance {d} too large for a 16-byte change (sig len {})",
            ha.signature().len()
        );
    }

    #[test]
    fn debug_repr_mentions_block_size() {
        let h = fuzzy_hash_bytes(&patterned(5_000, 9));
        let debug = format!("{h:?}");
        assert!(debug.contains(&h.block_size().to_string()));
    }
}
