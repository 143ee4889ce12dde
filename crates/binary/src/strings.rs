//! Printable-string extraction — the `strings(1)` equivalent.
//!
//! The paper's second fuzzy-hash feature is "the continuous printable
//! characters extracted using the strings command (embedded text)". GNU
//! `strings` prints every run of at least 4 printable characters (ASCII
//! 0x20–0x7E plus tab) found anywhere in the file. [`extract_strings`]
//! reproduces that definition and [`strings_blob`] joins the runs with
//! newlines into the byte stream that gets fuzzy-hashed.

/// Default minimum run length, matching `strings -n 4`.
pub const DEFAULT_MIN_LENGTH: usize = 4;

/// Whether `strings(1)` considers a byte printable (ASCII printable or tab).
#[inline]
pub fn is_printable(byte: u8) -> bool {
    (0x20..=0x7E).contains(&byte) || byte == b'\t'
}

/// Extract every run of at least `min_len` printable bytes from `data`,
/// in file order.
///
/// # Examples
///
/// ```
/// use binary::strings::extract_strings;
/// let data = b"\x00\x01Usage: solver <input>\x00\xffab\x00OpenMP\x00";
/// let runs = extract_strings(data, 4);
/// assert_eq!(runs, vec!["Usage: solver <input>".to_string(), "OpenMP".to_string()]);
/// ```
pub fn extract_strings(data: &[u8], min_len: usize) -> Vec<String> {
    let min_len = min_len.max(1);
    let mut out = Vec::new();
    let mut current = Vec::new();
    for &b in data {
        if is_printable(b) {
            current.push(b);
        } else {
            if current.len() >= min_len {
                out.push(String::from_utf8_lossy(&current).into_owned());
            }
            current.clear();
        }
    }
    if current.len() >= min_len {
        out.push(String::from_utf8_lossy(&current).into_owned());
    }
    out
}

/// The newline-joined byte stream of all printable runs — the input that the
/// `ssdeep-strings` feature hashes (equivalent to `strings binary | ssdeep`).
///
/// Byte-identical to joining [`extract_strings`] with a newline after each
/// run, but it never looks at one byte at a time. Each 64-byte block is
/// classified eight bytes per `u64` (`printable_mask`) into one bit per
/// byte, and only runs of at least `min_len` bytes are visited, found with
/// bit operations on that mask and copied straight from `data`:
///
/// * the run still open from earlier blocks ends at the block's first
///   non-printable byte, and its start is carried over from block to block;
/// * a run that starts and ends inside the block is long enough exactly
///   where the mask, eroded by its own `min_len - 1` shifts, still has a bit
///   set one byte before a non-printable byte.
///
/// A block of printable bytes ends no run and is skipped. The last partial
/// block is zero-padded, so the final run ends at the padding's first byte.
pub fn strings_blob(data: &[u8], min_len: usize) -> Vec<u8> {
    let min_len = min_len.max(1);
    let mut out = Vec::new();
    // Start of the printable run open at the current block's first byte.
    let mut run_start = 0;
    let mut visit = |base: usize, mask: u64| {
        if mask == u64::MAX {
            return;
        }
        let first_end = base + mask.trailing_ones() as usize;
        if first_end - run_start >= min_len {
            push_run(&mut out, &data[run_start..first_end]);
        }
        // Runs inside the block, which start after its first
        // non-printable byte (`mask + 1` clears the ones below it): erode,
        // then find the bytes that end them.
        let inner = mask & (mask + 1);
        let mut ends = !mask & (erode(inner, min_len) << 1);
        while ends != 0 {
            let end = ends.trailing_zeros();
            let start = 64 - (!mask & ((1 << end) - 1)).leading_zeros();
            push_run(&mut out, &data[base + start as usize..base + end as usize]);
            ends &= ends - 1;
        }
        run_start = base + 64 - (!mask).leading_zeros() as usize;
    };
    let (blocks, tail) = data.as_chunks::<64>();
    for (k, block) in blocks.iter().enumerate() {
        visit(64 * k, printable_mask(block));
    }
    let mut padded = [0u8; 64];
    padded[..tail.len()].copy_from_slice(tail);
    visit(data.len() - tail.len(), printable_mask(&padded));
    out
}

fn push_run(out: &mut Vec<u8>, run: &[u8]) {
    out.extend_from_slice(run);
    out.push(b'\n');
}

/// Bit `i` set where `mask` has `min_len` set bits ending at bit `i`, with
/// nothing assumed below bit 0. Each step ANDs the mask with itself shifted
/// by at most the run length it already guarantees, so it takes
/// `log2(min_len)` steps.
fn erode(mut mask: u64, min_len: usize) -> u64 {
    let min_len = min_len.min(64);
    let mut have = 1;
    while have < min_len && mask != 0 {
        let shift = have.min(min_len - have);
        mask &= mask << shift;
        have += shift;
    }
    mask
}

/// One bit per byte of a 64-byte block, set where [`is_printable`] holds.
///
/// Each `u64` word holds eight bytes. A byte's high bit is set by adding to
/// its low seven bits, which never carries into the next byte: `+ 0x60`
/// reaches the high bit from 0x20 up, `+ 0x01` from 0x7F, and
/// `(b ^ 0x09) + 0x7F` from anything but a tab. A byte whose own high bit is
/// set is never printable. The eight flags then gather into one byte with
/// a multiply. (Testing every byte of a word at once is Lamport's
/// "Multiple byte processing with full-word instructions", CACM 1975.)
fn printable_mask(block: &[u8; 64]) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    const fn splat(byte: u8) -> u64 {
        0x0101_0101_0101_0101 * byte as u64
    }
    let mut mask = 0;
    for (i, &word) in block.as_chunks::<8>().0.iter().enumerate() {
        let word = u64::from_le_bytes(word);
        let low = word & LOW7;
        let at_least_space = low + splat(0x60);
        let below_del = !(low + splat(0x01));
        let tab = !((low ^ splat(b'\t')) + LOW7);
        let flags = ((at_least_space & below_del) | tab) & !word & HIGH;
        let byte = (flags >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        mask |= byte << (8 * i);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printable_definition() {
        assert!(is_printable(b' '));
        assert!(is_printable(b'~'));
        assert!(is_printable(b'\t'));
        assert!(!is_printable(b'\n'));
        assert!(!is_printable(0x00));
        assert!(!is_printable(0x7F));
        assert!(!is_printable(0xFF));
    }

    #[test]
    fn short_runs_are_dropped() {
        let runs = extract_strings(b"ab\0abc\0abcd\0", 4);
        assert_eq!(runs, vec!["abcd".to_string()]);
    }

    #[test]
    fn custom_min_length() {
        let runs = extract_strings(b"ab\0abc\0abcd\0", 3);
        assert_eq!(runs, vec!["abc".to_string(), "abcd".to_string()]);
    }

    #[test]
    fn min_length_zero_treated_as_one() {
        let runs = extract_strings(b"a\0b", 0);
        assert_eq!(runs, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn run_at_end_of_data_is_kept() {
        let runs = extract_strings(b"\0\0final_run", 4);
        assert_eq!(runs, vec!["final_run".to_string()]);
    }

    #[test]
    fn empty_and_binary_only_input() {
        assert!(extract_strings(b"", 4).is_empty());
        assert!(extract_strings(&[0u8, 1, 2, 3, 255, 254], 4).is_empty());
    }

    #[test]
    fn blob_joins_with_newlines() {
        let blob = strings_blob(b"\0hello\0world of hpc\0", 4);
        assert_eq!(blob, b"hello\nworld of hpc\n");
    }

    #[test]
    fn blob_of_stringless_input_is_empty() {
        assert!(strings_blob(&[0u8; 64], 4).is_empty());
    }

    #[test]
    fn order_is_preserved() {
        let runs = extract_strings(b"zzzz\0aaaa\0mmmm", 4);
        assert_eq!(runs, vec!["zzzz", "aaaa", "mmmm"]);
    }
}
