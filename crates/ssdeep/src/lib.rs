//! Pure-Rust context-triggered piecewise hashing (CTPH), compatible in
//! spirit with SSDeep (Kornblum, 2006), plus the edit distances the paper
//! builds its similarity score on.
//!
//! The Fuzzy Hash Classifier paper compares application executables by
//! computing SSDeep fuzzy hashes of three views of each executable (raw
//! bytes, printable strings, global symbols) and scoring pairs of hashes on
//! a 0–100 similarity scale. This crate implements the complete machinery:
//!
//! * [`rolling_hash`] — the Adler-32-style rolling hash that makes chunk
//!   boundaries *context triggered*; its value depends only on the last
//!   seven bytes.
//! * [`fnv`] — the FNV-style non-cryptographic chunk hash whose low bits
//!   become signature characters.
//! * [`blocksize`] — block-size selection and the iteration rule that keeps
//!   signatures near 64 characters.
//! * [`generate`] — [`FuzzyHash`] generation. [`fuzzy_hash_bytes`] is a
//!   two-phase engine: phase 1 finds the chunk boundaries of three
//!   candidate block sizes for 64 input positions at a time, in `u8`
//!   vector lanes, and phase 2 hashes only the chosen block size's chunks,
//!   several chunks interleaved. [`fuzzy_hash_bytes_oracle`] is the
//!   textbook halve-and-rehash loop, one chunking pass per block size,
//!   kept as the reference the engine is tested byte-identical to.
//! * [`edit_distance`] — Levenshtein, Damerau–Levenshtein (Eq. 1 of the
//!   paper), and the weighted edit distance SSDeep scales into a score.
//! * [`fastdist`] — the bounded comparison kernel
//!   ([`weighted_edit_distance_bounded`]): a length-gap and a bit-parallel
//!   (Myers/Hyyrö) Damerau lower bound, then an anti-diagonal DP in `u8`
//!   vector lanes, byte-identical to the oracle wherever it reports an
//!   exact distance.
//! * [mod@compare] — the 0–100 similarity score ([`compare`](compare::compare)),
//!   including the common-substring guard and block-size compatibility rule.
//! * [`prepared`] — [`PreparedHash`]: per-hash comparison state computed
//!   once, so comparing against a static reference set
//!   ([`compare_prepared`]) pays only the
//!   edit-distance DP per pair, with scores byte-identical to
//!   [`compare`](compare::compare), and [`compare_prepared_min`]: the
//!   max-merge pruning primitive that abandons comparisons which cannot
//!   beat a running maximum score.
//!
//! # Quick start
//!
//! ```
//! use ssdeep::{fuzzy_hash_bytes, compare};
//!
//! // Two "versions" of the same content: identical except for one
//! // localized edit, as when an executable gets a small code change.
//! let a: Vec<u8> = (0..60_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
//! let mut b = a.clone();
//! for byte in b.iter_mut().skip(30_000).take(500) {
//!     *byte ^= 0xAA;
//! }
//!
//! let ha = fuzzy_hash_bytes(&a);
//! let hb = fuzzy_hash_bytes(&b);
//! let score = compare(&ha, &hb);
//! assert!(score > 50, "similar inputs should score high, got {score}");
//! assert_eq!(compare(&ha, &ha), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base64;
pub mod blocksize;
pub mod compare;
pub mod edit_distance;
pub mod error;
pub mod fastdist;
pub mod fnv;
pub mod generate;
pub mod prepared;
pub mod rolling_hash;

pub use compare::{compare, compare_strings, max_distance_for_score, scale_score};
pub use edit_distance::{damerau_levenshtein, levenshtein, weighted_edit_distance};
pub use error::ParseError;
pub use fastdist::{
    damerau_levenshtein_bitparallel, weighted_edit_distance_bounded, BoundedDistance,
};
pub use generate::{fuzzy_hash_bytes, fuzzy_hash_bytes_oracle, FuzzyHash, SPAM_SUM_LENGTH};
pub use prepared::{compare_prepared, compare_prepared_min, PreparedHash};
