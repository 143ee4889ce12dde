//! The rolling hash that drives context-triggered chunk boundaries.
//!
//! SSDeep decides where one chunk ends and the next begins by maintaining a
//! rolling hash over the last [`ROLLING_WINDOW`] bytes of input. Whenever the
//! rolling hash value `h` satisfies `h % blocksize == blocksize - 1` a chunk
//! boundary is emitted. Because the hash depends only on a small window of
//! recent content, inserting or deleting bytes early in a file does not shift
//! every later boundary — which is exactly the property that makes the final
//! signatures of two similar files comparable.
//!
//! The value is a function of the last [`ROLLING_WINDOW`] bytes alone
//! (missing bytes count as zero before seven have been seen): `h1` is their
//! sum, `h2` their sum weighted 7, 6, ..., 1 from newest to oldest, and `h3`
//! shifts left by 5 per byte, so after seven shifts (35 bits) a byte has left
//! the 32-bit word. Two inputs that end in the same seven bytes therefore
//! have the same [`RollingHash::value`]: with `bj` the byte `j` back, it is
//! the seven-tap filter `Σ (8 - j)·bj + XOR (bj << 5j)` modulo 2^32.
//!
//! Its low byte is narrower still. A shift by `5j` moves `bj` past bit 7
//! for every `j >= 2`, so the low byte is `8·b0 + 7·b1 + ... + 2·b6 +
//! (b0 ^ (b1 << 5))` in wrapping `u8` arithmetic. A block size `3 << k`
//! tests `k` low bits of `value + 1`, so for `k <= 8` that byte alone
//! decides the power-of-two half of the boundary test. The generator's
//! first phase relies on both facts: it computes the low byte for 64
//! positions at once in `u8` lanes, and the full value only where the
//! byte passes.

/// Number of bytes the rolling hash looks back over.
pub const ROLLING_WINDOW: usize = 7;

/// The hash value after `window` (oldest byte first) were the last
/// [`ROLLING_WINDOW`] bytes fed: `Σ (8 - j)·bj + XOR (bj << 5j)` over
/// `bj`, the byte `j` back, modulo 2^32.
#[inline(always)]
pub(crate) fn window_value(window: &[u8; ROLLING_WINDOW]) -> u32 {
    let mut sum = 0u32;
    let mut shifted = 0u32;
    for (j, &b) in window.iter().rev().enumerate() {
        let b = u32::from(b);
        sum += (8 - j as u32) * b;
        shifted ^= b << (5 * j);
    }
    sum.wrapping_add(shifted)
}

/// Rolling hash state (an Adler-32 style sum/shift/window combination, as in
/// the original spamsum/SSDeep implementation) with its own window.
#[derive(Debug, Clone)]
pub struct RollingHash {
    window: [u8; ROLLING_WINDOW],
    h1: u32,
    h2: u32,
    h3: u32,
    n: usize,
}

impl Default for RollingHash {
    fn default() -> Self {
        Self::new()
    }
}

impl RollingHash {
    /// Create a fresh rolling hash with an empty window.
    pub fn new() -> Self {
        Self {
            window: [0; ROLLING_WINDOW],
            h1: 0,
            h2: 0,
            h3: 0,
            n: 0,
        }
    }

    /// Feed one byte and return the updated hash value.
    #[inline]
    pub fn update(&mut self, byte: u8) -> u32 {
        let slot = &mut self.window[self.n % ROLLING_WINDOW];
        let dropped = std::mem::replace(slot, byte);
        self.n += 1;
        let b = u32::from(byte);
        self.h2 = self
            .h2
            .wrapping_sub(self.h1)
            .wrapping_add(ROLLING_WINDOW as u32 * b);
        self.h1 = self.h1.wrapping_add(b).wrapping_sub(u32::from(dropped));
        self.h3 = (self.h3 << 5) ^ b;
        self.value()
    }

    /// The current hash value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.h1.wrapping_add(self.h2).wrapping_add(self.h3)
    }

    /// Number of bytes consumed so far.
    pub fn bytes_seen(&self) -> usize {
        self.n
    }
}

/// Hash an entire slice, returning the final rolling value (used in tests).
pub fn roll_over(data: &[u8]) -> u32 {
    let mut rh = RollingHash::new();
    let mut v = 0;
    for &b in data {
        v = rh.update(b);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_state_is_zero() {
        let rh = RollingHash::new();
        assert_eq!(rh.value(), 0);
        assert_eq!(rh.bytes_seen(), 0);
    }

    #[test]
    fn deterministic() {
        let data = b"the quick brown fox jumps over the lazy dog";
        assert_eq!(roll_over(data), roll_over(data));
    }

    #[test]
    fn depends_only_on_recent_window() {
        // Two inputs with identical last ROLLING_WINDOW bytes but different
        // prefixes of different lengths have the same full value: h1 and h2
        // are sums over the window, and h3 has shifted every older byte out.
        let a = roll_over(b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAsuffix7");
        let b = roll_over(b"\xff\xfe\xfd\x00BBBBBBBBBBBBsuffix7");
        assert_eq!(a, b, "the value must depend only on the last 7 bytes");
        // An input of exactly the window agrees too, and so does a shorter
        // one padded with the zeros that stand in for unseen bytes.
        assert_eq!(roll_over(b"suffix7"), a);
        assert_eq!(roll_over(b"\0\0\0fix7"), roll_over(b"fix7"));
    }

    #[test]
    fn value_is_the_seven_tap_formula_of_the_window() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 256) as u8).collect();
        let mut rh = RollingHash::new();
        let mut window = [0u8; ROLLING_WINDOW];
        for (i, &b) in data.iter().enumerate() {
            window.rotate_left(1);
            window[ROLLING_WINDOW - 1] = b;
            assert_eq!(rh.update(b), window_value(&window), "byte {i}");
        }
    }

    #[test]
    fn low_byte_depends_on_the_weighted_sum_and_two_shifted_bytes() {
        let mut state = 0x9E37_79B9u32;
        for _ in 0..1000 {
            let window: [u8; ROLLING_WINDOW] = std::array::from_fn(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            });
            let [b6, b5, b4, b3, b2, b1, b0] = window;
            let weighted = [b0, b1, b2, b3, b4, b5, b6]
                .iter()
                .enumerate()
                .fold(0u8, |acc, (j, &b)| {
                    acc.wrapping_add((8 - j as u8).wrapping_mul(b))
                });
            let low = weighted.wrapping_add(b0 ^ (b1 << 5));
            assert_eq!(window_value(&window) as u8, low, "{window:?}");
        }
    }

    #[test]
    fn update_changes_value() {
        let mut rh = RollingHash::new();
        let v1 = rh.update(1);
        let v2 = rh.update(2);
        assert_ne!(v1, v2);
        assert_eq!(rh.bytes_seen(), 2);
    }

    #[test]
    fn window_wraps_correctly() {
        let mut rh = RollingHash::new();
        for i in 0..(ROLLING_WINDOW * 3) {
            rh.update((i % 251) as u8);
        }
        assert_eq!(rh.bytes_seen(), ROLLING_WINDOW * 3);
        // h1 equals the sum of the last ROLLING_WINDOW bytes.
        let expected: u32 = ((ROLLING_WINDOW * 2)..(ROLLING_WINDOW * 3))
            .map(|i| (i % 251) as u32)
            .sum();
        assert_eq!(rh.h1, expected);
    }
}
