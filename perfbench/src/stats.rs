//! The benchmark's own arithmetic: seeded randomness, percentiles, the
//! tail-percentile rule, lateness, in-flight depth and digests. Everything
//! here is pure so the unit tests can pin it on synthetic inputs.

use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so the same `--seed` always draws
/// the same inputs and schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one named purpose under the same seed.
    pub fn derive(seed: u64, purpose: &str) -> Self {
        Self(seed ^ fnv1a(purpose.as_bytes()).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over bytes: the digest every correctness check compares.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

pub fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Digest of a similarity row, bit for bit.
pub fn row_digest(row: &[f64]) -> u64 {
    row.iter().fold(fnv1a(b"row"), |h, x| {
        fnv1a_continue(h, &x.to_bits().to_le_bytes())
    })
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps `99.9 / 100 * 10_000` from rounding up past 9 990.
fn rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The percentiles a tail is reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it; `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// A timing population summarised as its median and one tail percentile.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile the tail was taken at.
    pub tail_pct: f64,
    pub tail: f64,
    /// Whether at least ten samples lie beyond `tail_pct`.
    pub tail_supported: bool,
}

impl Summary {
    /// Summarise `values` with the tail at `tail_pct`.
    pub fn at(values: &[f64], tail_pct: f64) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_pct,
            tail: percentile(&sorted, tail_pct),
            tail_supported: samples_beyond(sorted.len(), tail_pct) >= 10,
        }
    }

    /// Summarise `values` with the tail at the highest supported percentile.
    pub fn supported(values: &[f64]) -> Self {
        Self::at(values, tail_percentile(values.len()).unwrap_or(50.0))
    }

    /// Summarise time-ordered `values` per window of [`windows`] and take
    /// the [`trimmed_mean`] of the windows' medians and of their tails, so a
    /// stall confined to one window moves neither figure.
    pub fn windowed(values: &[f64], k: usize, tail_pct: f64) -> Self {
        let parts: Vec<&[f64]> = windows(values, k).collect();
        Self::of_parts(&parts, tail_pct)
    }

    /// Summarise each part on its own and take the [`trimmed_mean`] of the
    /// parts' medians and of their tails.
    pub fn of_parts(parts: &[&[f64]], tail_pct: f64) -> Self {
        let n = parts.iter().map(|p| p.len()).sum();
        let parts: Vec<Summary> = parts.iter().map(|p| Summary::at(p, tail_pct)).collect();
        let p50s: Vec<f64> = parts.iter().map(|s| s.p50).collect();
        let tails: Vec<f64> = parts.iter().map(|s| s.tail).collect();
        Self {
            n,
            p50: trimmed_mean(&p50s),
            tail_pct,
            tail: trimmed_mean(&tails),
            tail_supported: !parts.is_empty() && parts.iter().all(|s| s.tail_supported),
        }
    }

    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit} (n={}{})",
            self.p50,
            self.tail_pct,
            self.tail,
            self.n,
            if self.tail_supported {
                ""
            } else {
                ", <10 beyond the tail"
            }
        )
    }
}

/// Split time-ordered `items` into `k` contiguous windows of near-equal
/// length (fewer when there are fewer items).
pub fn windows<T>(items: &[T], k: usize) -> impl Iterator<Item = &[T]> {
    let k = k.clamp(1, items.len().max(1));
    (0..k).map(move |i| &items[i * items.len() / k..(i + 1) * items.len() / k])
}

/// Work per second in each of `k` windows of time-ordered `(work, seconds)`
/// steps, and the [`trimmed_mean`] of those rates.
pub fn windowed_rate(steps: &[(f64, f64)], k: usize) -> f64 {
    let rates: Vec<f64> = windows(steps, k)
        .map(|w| {
            let work: f64 = w.iter().map(|s| s.0).sum();
            let secs: f64 = w.iter().map(|s| s.1).sum();
            work / secs
        })
        .collect();
    trimmed_mean(&rates)
}

/// The mean of `values` without the lowest and the highest fifth.
///
/// Per-window figures are combined with this rather than their median: the
/// shared host this was built on switches between a fast and a ~1.5x slower
/// speed every second or so, and a median snaps to whichever speed held
/// most windows, so whole runs read fast or slow. The trimmed mean moves
/// with the share of time spent at each speed, and still ignores a stall
/// confined to a few windows.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 5;
    mean(&sorted[cut..sorted.len() - cut])
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// How late an event ran against when it was due (zero when early).
pub fn lateness(due: Instant, actual: Instant) -> Duration {
    actual.saturating_duration_since(due)
}

/// Seeded Poisson arrivals at `rate_per_s` for `seconds`: offsets from the
/// phase start, fixed before the first request is sent.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, seconds: f64) -> Vec<Duration> {
    let mut offsets = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 - unit() lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= seconds {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(t));
    }
}

/// The most requests outstanding at once, from each request's send and
/// completion times (a completion at the same instant as a send frees its
/// slot first).
pub fn inflight_max(sent: &[Duration], done: &[Duration]) -> usize {
    let mut events: Vec<(Duration, i32)> = sent
        .iter()
        .map(|&t| (t, 1))
        .chain(done.iter().map(|&t| (t, -1)))
        .collect();
    events.sort();
    let (mut depth, mut max) = (0i64, 0i64);
    for (_, delta) in events {
        depth += i64::from(delta);
        max = max.max(depth);
    }
    max as usize
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 10 000 samples: p99.9 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        // 1 000: p99 leaves exactly 10.
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        let s = Summary::at(&[5.0, 1.0, 3.0, 2.0, 4.0], 99.0);
        assert_eq!((s.p50, s.tail, s.tail_supported), (3.0, 5.0, false));
    }

    #[test]
    fn windows_cover_every_item_once() {
        let items: Vec<u32> = (0..10).collect();
        let parts: Vec<&[u32]> = windows(&items, 3).collect();
        assert_eq!(parts, [&items[0..3], &items[3..6], &items[6..10]]);
        assert_eq!(windows(&items[..2], 5).count(), 2);
        assert_eq!(windows::<u32>(&[], 5).count(), 1);
    }

    #[test]
    fn a_stall_in_one_window_moves_no_windowed_figure() {
        // Five windows of 100 samples at 1 ms; one window stalls at 50 ms.
        let mut values = vec![1.0; 500];
        values[200..300].iter_mut().for_each(|v| *v = 50.0);
        let s = Summary::windowed(&values, 5, 90.0);
        assert_eq!(
            (s.p50, s.tail, s.n, s.tail_supported),
            (1.0, 1.0, 500, true)
        );
        // The pooled p99 does move.
        assert_eq!(Summary::at(&values, 99.0).tail, 50.0);
        // Rates: four windows do 8 units/s, one stalls at 1 unit/s.
        let mut steps = vec![(1.0, 0.125); 50];
        steps[10..20].iter_mut().for_each(|s| s.1 = 1.0);
        assert_eq!(windowed_rate(&steps, 5), 8.0);
    }

    #[test]
    fn parts_of_any_length_count_once_each() {
        // Five fleets: the slow one is the shortest, and trimmed away.
        let fast = [1.0; 40];
        let slower = [2.0; 30];
        let slow = [90.0; 5];
        let parts: [&[f64]; 5] = [&fast, &slow, &slower, &fast, &slower];
        let s = Summary::of_parts(&parts, 50.0);
        assert_eq!((s.p50, s.tail, s.n), (5.0 / 3.0, 5.0 / 3.0, 145));
        assert!(!s.tail_supported);
    }

    #[test]
    fn trimmed_mean_drops_a_fifth_at_each_end() {
        assert_eq!(trimmed_mean(&[7.0, 1.0, 4.0]), 4.0);
        assert_eq!(trimmed_mean(&[100.0, 2.0, 3.0, 4.0, 0.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
        // Windows at two speeds: the figure follows the share at each.
        let mut windows = vec![4.0; 15];
        windows[..6].iter_mut().for_each(|w| *w = 6.0);
        assert_eq!(trimmed_mean(&windows), (3.0 * 6.0 + 6.0 * 4.0) / 9.0);
    }

    #[test]
    fn lateness_counts_from_the_due_time() {
        let due = Instant::now();
        let late = due + Duration::from_micros(750);
        assert_eq!(lateness(due, late), Duration::from_micros(750));
        // Sending early is not negative lateness.
        assert_eq!(lateness(late, due), Duration::ZERO);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_offered_rate() {
        let a = poisson_schedule(&mut Rng::new(7), 1000.0, 10.0);
        let b = poisson_schedule(&mut Rng::new(7), 1000.0, 10.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert_ne!(a, poisson_schedule(&mut Rng::new(8), 1000.0, 10.0));
    }

    #[test]
    fn inflight_depth_from_send_and_done_times() {
        let ms = Duration::from_millis;
        // Two overlapping requests, then one alone after both finished.
        let sent = [ms(0), ms(1), ms(10)];
        let done = [ms(5), ms(6), ms(11)];
        assert_eq!(inflight_max(&sent, &done), 2);
        // Back to back: a reply at the instant of the next send frees first.
        assert_eq!(inflight_max(&[ms(0), ms(5)], &[ms(5), ms(9)]), 1);
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut spans = [(10, 20), (15, 30), (40, 50), (95, 120)];
        assert_eq!(covered(0, 100, &mut spans), 20 + 10 + 5);
        assert_eq!(covered(0, 100, &mut []), 0);
    }

    #[test]
    fn rng_is_deterministic_and_shuffles_everything() {
        let mut a = Rng::derive(42, "x");
        let mut b = Rng::derive(42, "x");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(
            Rng::derive(42, "x").next_u64(),
            Rng::derive(42, "y").next_u64()
        );
        let mut items: Vec<u32> = (0..50).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
