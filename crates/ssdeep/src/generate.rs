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
//! the one the pipeline uses. It chunks at two candidate block sizes per
//! pass, reads the rolling window's outgoing byte from the input, and tests
//! boundaries without a runtime division. The property tests hold it
//! byte-identical to the oracle.

use crate::base64;
use crate::blocksize::{blocksize_at, comparable, initial_blocksize, MIN_BLOCKSIZE};
use crate::error::ParseError;
use crate::fnv::PartialHash;
use crate::rolling_hash::{Roll, RollingHash, ROLLING_WINDOW};
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

/// A signature under construction: up to `cap` characters at chunk
/// boundaries, then one for the unterminated tail.
struct Signature {
    chars: [u8; SPAM_SUM_LENGTH],
    len: usize,
    cap: usize,
}

impl Signature {
    fn new(cap: usize) -> Self {
        Self {
            chars: [0; SPAM_SUM_LENGTH],
            len: 0,
            cap,
        }
    }

    fn push(&mut self, hash: PartialHash) {
        self.chars[self.len] = base64::B64[hash.b64_index()];
        self.len += 1;
    }

    /// A chunk boundary: emit the chunk's character and return a fresh
    /// hash, unless the signature is full, in which case the chunk keeps
    /// growing.
    #[inline(always)]
    fn boundary(&mut self, hash: PartialHash) -> PartialHash {
        if self.len < self.cap {
            self.push(hash);
            PartialHash::new()
        } else {
            hash
        }
    }

    fn into_string(self) -> String {
        self.chars[..self.len]
            .iter()
            .map(|&c| char::from(c))
            .collect()
    }
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
/// multiples of 3 land exactly on `0..=u64::MAX / 3`. Written as `% 3`,
/// the compiler computed the remainder for every byte and merged it with
/// the mask test; this form stays behind the mask's branch.
#[inline(always)]
fn divisible_by_3(q: u64) -> bool {
    q.wrapping_mul(0xAAAA_AAAA_AAAA_AAAB) <= u64::MAX / 3
}

/// One pass of the chunker that yields the fuzzy hashes at levels `hi` and
/// `hi - 1` (`hi >= 1`), as `[upper, lower]`.
///
/// It builds four signatures: level `hi - 1` and level `hi` with up to 63
/// boundaries, and level `hi` and level `hi + 1` with up to 31. Level
/// `hi`'s two share their chunks until the short one fills, as ssdeep's `h`
/// and `halfh` do. The four chunk hashes and the rolling sums stay in
/// locals, so the loop touches memory only to read the input.
fn two_levels(data: &[u8], hi: u32) -> [FuzzyHash; 2] {
    const LONG: usize = SPAM_SUM_LENGTH - 1;
    const SHORT: usize = SPAM_SUM_LENGTH / 2 - 1;
    let [lo_mask, mid_mask, hi_mask] = [hi - 1, hi, hi + 1].map(boundary_mask);
    let [mut lower1, mut upper1, mut upper2, mut above2] =
        [LONG, LONG, SHORT, SHORT].map(Signature::new);
    let [mut h0, mut h1, mut h2, mut h3] = [PartialHash::new(); 4];
    let mut roll = Roll::default();
    for (i, &byte) in data.iter().enumerate() {
        // The byte leaving the window is the one seven back in the input.
        let dropped = if i >= ROLLING_WINDOW {
            data[i - ROLLING_WINDOW]
        } else {
            0
        };
        let q = u64::from(roll.step(byte, dropped)) + 1;
        h0.update(byte);
        h1.update(byte);
        h2.update(byte);
        h3.update(byte);
        // Boundaries nest: a boundary at one level is one at every level
        // below it. Test the mask first; `% 3` first would put a branch
        // taken one time in three at random into the loop.
        if q & lo_mask == 0 && divisible_by_3(q) {
            h0 = lower1.boundary(h0);
            if q & mid_mask == 0 {
                h1 = upper1.boundary(h1);
                h2 = upper2.boundary(h2);
                if q & hi_mask == 0 {
                    h3 = above2.boundary(h3);
                }
            }
        }
    }
    if roll.value() != 0 || data.is_empty() {
        lower1.push(h0);
        upper1.push(h1);
        upper2.push(h2);
        above2.push(h3);
    }
    [
        FuzzyHash {
            block_size: blocksize_at(hi),
            sig1: upper1.into_string(),
            sig2: above2.into_string(),
        },
        FuzzyHash {
            block_size: blocksize_at(hi - 1),
            sig1: lower1.into_string(),
            sig2: upper2.into_string(),
        },
    ]
}

/// Compute the fuzzy hash of a byte slice.
///
/// The result is byte-identical to [`fuzzy_hash_bytes_oracle`]: the largest
/// block size, from [`initial_blocksize`] down, whose primary signature
/// reaches half the target length (or the minimum block size). Where the
/// oracle re-hashes the input once per halving, this checks two block sizes
/// per pass, so nearly every input takes one pass.
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
    let mut hi = top.max(1);
    loop {
        let [upper, lower] = two_levels(data, hi);
        // `hi > top` only when `top == 0`, where level 1 is not a candidate.
        if hi <= top && upper.sig1.len() >= HALF {
            return upper;
        }
        if hi == 1 || lower.sig1.len() >= HALF {
            return lower;
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
