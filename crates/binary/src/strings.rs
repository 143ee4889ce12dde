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
/// run, in one pass: the loop only tracks the current run length and
/// branches on the rare byte that ends a long-enough run, which is then
/// copied straight from `data`.
pub fn strings_blob(data: &[u8], min_len: usize) -> Vec<u8> {
    let min_len = min_len.max(1);
    let mut out = Vec::new();
    let mut run = 0;
    for (i, &b) in data.iter().enumerate() {
        let printable = is_printable(b);
        if (run >= min_len) & !printable {
            out.extend_from_slice(&data[i - run..i]);
            out.push(b'\n');
        }
        run = (run + 1) * usize::from(printable);
    }
    if run >= min_len {
        out.extend_from_slice(&data[data.len() - run..]);
        out.push(b'\n');
    }
    out
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
