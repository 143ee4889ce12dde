//! Data-parallel helpers built on `std::thread::scope`.
//!
//! The workloads in this workspace (fuzzy hashing a corpus, computing an
//! `n_test x n_train` similarity matrix, growing forest trees) are
//! embarrassingly parallel: every output element depends only on read-only
//! shared inputs. Rather than pulling in a full work-stealing runtime we use
//! a chunked atomic-counter scheduler over standard-library scoped threads,
//! which guarantees data-race freedom through the type system (the closure
//! only receives `&T` items and returns owned results).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration for the parallel helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads. `0` means "use available parallelism".
    pub threads: usize,
    /// Number of items a worker claims per scheduling step. Larger chunks
    /// reduce contention on the shared counter; smaller chunks improve load
    /// balance when per-item cost varies (e.g. hashing differently sized
    /// executables).
    pub chunk: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            chunk: 8,
        }
    }
}

impl ParallelConfig {
    /// A configuration pinned to a specific number of threads.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, chunk: 8 }
    }

    /// Builder-style chunk override.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// One item per scheduling step on up to `threads` workers (`0` means
    /// "use available parallelism"). The right shape for a few coarse,
    /// possibly uneven tasks — e.g. scoring the shards of a partitioned
    /// reference set — where per-item cost dwarfs scheduling overhead.
    pub fn per_item(threads: usize) -> Self {
        Self { threads, chunk: 1 }
    }

    /// Resolve the effective worker count for `n_items` items.
    pub fn effective_threads(&self, n_items: usize) -> usize {
        let hw = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        hw.max(1).min(n_items.max(1))
    }

    /// Resolve the effective chunk size (never zero).
    pub fn effective_chunk(&self) -> usize {
        self.chunk.max(1)
    }
}

/// Apply `f` to every element of `items` in parallel, preserving order.
///
/// Equivalent to `items.iter().map(f).collect()` but distributed over worker
/// threads. Falls back to the sequential path for small inputs or when only
/// one thread is available.
///
/// # Examples
///
/// ```
/// use hpcutil::par::{par_map, ParallelConfig};
/// let xs: Vec<u64> = (0..1000).collect();
/// let squares = par_map(&xs, ParallelConfig::default(), |&x| x * x);
/// assert_eq!(squares[10], 100);
/// assert_eq!(squares.len(), xs.len());
/// ```
pub fn par_map<T, R, F>(items: &[T], config: ParallelConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), config, |i| f(&items[i]))
}

/// Apply `f` to every index in `0..n` in parallel, preserving order.
///
/// This is the index-based variant of [`par_map`]; it is useful when the
/// "items" are rows of a matrix or pairs derived from an index rather than a
/// materialized slice.
///
/// # Examples
///
/// ```
/// use hpcutil::par::{par_map_indexed, ParallelConfig};
/// let doubled = par_map_indexed(5, ParallelConfig::default(), |i| i * 2);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
/// ```
pub fn par_map_indexed<R, F>(n: usize, config: ParallelConfig, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = config.effective_threads(n);
    let chunk = config.effective_chunk();
    if threads <= 1 || n <= chunk {
        return (0..n).map(f).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let counter = AtomicUsize::new(0);
    let f = &f;

    // Each worker claims disjoint index chunks, so every slot is written by
    // exactly one thread. We hand each worker a raw split of the slot vector
    // via chunk-claiming over a shared &mut [Option<R>] using interior
    // partitioning: to stay in safe Rust we instead collect per-worker
    // (index, value) pairs and scatter afterwards.
    let mut per_worker: Vec<Vec<(usize, R)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let counter = &counter;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = counter.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for i in start..end {
                        local.push((i, f(i)));
                    }
                }
                local
            }));
        }
        for h in handles {
            per_worker.push(h.join().expect("parallel worker panicked"));
        }
    });

    for bucket in per_worker {
        for (i, value) in bucket {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("parallel map left a hole"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let xs: Vec<u32> = (0..257).collect();
        let expected: Vec<u64> = xs.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        let got = par_map(&xs, ParallelConfig::default(), |&x| u64::from(x) * 3 + 1);
        assert_eq!(got, expected);
    }

    #[test]
    fn par_map_empty_input() {
        let xs: Vec<u32> = Vec::new();
        let got: Vec<u32> = par_map(&xs, ParallelConfig::default(), |&x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn par_map_single_item() {
        let xs = vec![41];
        let got = par_map(&xs, ParallelConfig::with_threads(4), |&x| x + 1);
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let got = par_map_indexed(
            1000,
            ParallelConfig {
                threads: 7,
                chunk: 3,
            },
            |i| i as i64 - 5,
        );
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as i64 - 5);
        }
    }

    #[test]
    fn par_map_indexed_zero() {
        let got: Vec<usize> = par_map_indexed(0, ParallelConfig::default(), |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn single_thread_falls_back_to_sequential() {
        let xs: Vec<u32> = (0..100).collect();
        let got = par_map(&xs, ParallelConfig::with_threads(1), |&x| x * 2);
        assert_eq!(got, xs.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn effective_threads_bounded_by_items() {
        let cfg = ParallelConfig::with_threads(64);
        assert_eq!(cfg.effective_threads(3), 3);
        assert_eq!(cfg.effective_threads(0), 1);
    }

    #[test]
    fn per_item_and_with_chunk_build_expected_configs() {
        assert_eq!(
            ParallelConfig::per_item(3),
            ParallelConfig {
                threads: 3,
                chunk: 1
            }
        );
        assert_eq!(
            ParallelConfig::with_threads(2).with_chunk(16),
            ParallelConfig {
                threads: 2,
                chunk: 16
            }
        );
    }

    #[test]
    fn effective_chunk_never_zero() {
        let cfg = ParallelConfig {
            threads: 2,
            chunk: 0,
        };
        assert_eq!(cfg.effective_chunk(), 1);
    }

    #[test]
    fn uneven_per_item_cost_still_correct() {
        // Items with wildly different cost exercise the load balancer.
        let xs: Vec<usize> = (0..64).collect();
        let got = par_map(
            &xs,
            ParallelConfig {
                threads: 4,
                chunk: 1,
            },
            |&x| {
                let mut acc = 0u64;
                for i in 0..(x * 1000) {
                    acc = acc.wrapping_add(i as u64);
                }
                (x as u64, acc)
            },
        );
        for (i, (idx, _)) in got.iter().enumerate() {
            assert_eq!(*idx, i as u64);
        }
    }
}
