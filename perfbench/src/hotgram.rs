//! `hot_gram_churn`: the similarity index at its worst, with writes beside
//! the reads. Every signature of every view in a 92-class reference set
//! shares one 7-byte window, so every reference is a candidate for most
//! probes. One thread runs a seeded interleave of reads (indexed rows for
//! the six hot-gram probe angles) and writes (clone the set, grow a class
//! or retire one and add a fresh one, publish the new set), closed loop.

use crate::layers;
use crate::setup::repeat_setup;
use crate::stats::{row_digest, windowed_rate, Rng, Summary};
use crate::trace::Trace;
use crate::{Ctx, Outcome, WINDOWS};
use fhc::backend::{IndexedBackend, ScanBackend, SimilarityBackend};
use fhc::features::{FeatureKind, PreparedSampleFeatures, SampleFeatures};
use fhc::similarity::ReferenceSet;
use hpcutil::{par_map_indexed, ParallelConfig};
use ssdeep::FuzzyHash;
use std::sync::Arc;
use std::time::Instant;

/// The window every signature shares.
pub const HOT: &str = "HOTGRAM";
pub const CLASSES: usize = 92;
/// References in the set, five per class on average, held constant (to
/// within `RESET_EVERY - 1`) while it churns.
pub const REFS: usize = 5 * CLASSES;
/// One operation in this many is a write.
pub const WRITE_EVERY: usize = 10;
/// One write in this many retires a class and adds a fresh one; the others
/// add one reference to an existing class.
pub const RESET_EVERY: usize = 4;
/// The read-latency tail reported: a window of a 45 s run holds ~700
/// reads, which leaves ~35 beyond p95.
pub const TAIL_PCT: f64 = 95.0;
/// Probes drawn per pooled angle.
const POOL: usize = 64;

const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// A seeded run of signature characters with no character repeated back
/// to back, so ssdeep's run elimination never touches the shared window.
fn flank(rng: &mut Rng, len: usize) -> String {
    let mut out = String::with_capacity(len);
    let mut prev = 0u8;
    while out.len() < len {
        let c = ALPHABET[rng.below(ALPHABET.len())];
        if c != prev {
            out.push(c as char);
            prev = c;
        }
    }
    out
}

fn hash(block_size: u64, sig: String, sig_double: String) -> FuzzyHash {
    FuzzyHash::from_parts(block_size, sig, sig_double).expect("hot-gram signatures are valid")
}

/// A reference sample: each view embeds the hot window between fresh flanks.
pub fn hot_sample(rng: &mut Rng) -> SampleFeatures {
    let mut view = || {
        let (a, b, c, d) = (flank(rng, 8), flank(rng, 8), flank(rng, 8), flank(rng, 8));
        hash(96, format!("{a}{HOT}{b}"), format!("{c}{HOT}{d}"))
    };
    SampleFeatures {
        file: view(),
        strings: view(),
        symbols: Some(view()),
    }
}

fn same_views(h: FuzzyHash) -> SampleFeatures {
    SampleFeatures {
        file: h.clone(),
        strings: h.clone(),
        symbols: Some(h),
    }
}

/// The starting reference set: [`REFS`] references dealt at random over
/// the classes, one at least to each.
pub fn reference(rng: &mut Rng) -> ReferenceSet {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    let mut sizes = [1; CLASSES];
    for _ in CLASSES..REFS {
        sizes[rng.below(CLASSES)] += 1;
    }
    for (class, &n) in sizes.iter().enumerate() {
        for _ in 0..n {
            features.push(hot_sample(rng));
            labels.push(class);
        }
    }
    let names = (0..CLASSES).map(|c| format!("hot-{c}")).collect();
    ReferenceSet::new(names, &features, &labels, &FeatureKind::ALL)
}

fn n_refs(set: &ReferenceSet) -> usize {
    (0..set.n_classes())
        .map(|c| set.prepared_class_features(c).len())
        .sum()
}

/// The pooled probe angles: the hot window in unseen flanks, only in the
/// double channel at half the block size, and a stranger without it.
fn probe_pools(rng: &mut Rng) -> [Vec<PreparedSampleFeatures>; 3] {
    let mut pool = |make: &mut dyn FnMut(&mut Rng) -> SampleFeatures| {
        (0..POOL)
            .map(|_| PreparedSampleFeatures::prepare(&make(rng)))
            .collect::<Vec<_>>()
    };
    let unseen = pool(&mut |r| hot_sample(r));
    let double_only = pool(&mut |r| {
        let (a, b) = (flank(r, 15), flank(r, 4));
        same_views(hash(48, a, format!("{HOT}{b}")))
    });
    let stranger = pool(&mut |r| {
        let (a, b) = (flank(r, 16), flank(r, 8));
        same_views(hash(96, a, b))
    });
    [unseen, double_only, stranger]
}

/// The six probe angles on the hot window, as indexes of [`Op::Read`].
const ANGLES: [&str; 6] = [
    "copy-low",
    "copy-high",
    "bare-window",
    "unseen-flanks",
    "double-only",
    "stranger",
];

/// How often each angle is drawn. Read costs fall into groups: the copies
/// and the unseen flanks compare against every reference in full, the
/// double-only probe costs about a quarter of that, and the bare window
/// and the stranger much less. Drawing the costliest group 6 times in 10
/// keeps the read median inside it instead of on the edge between two
/// groups, where it would jump from run to run with the draw.
const ANGLE_MIX: [usize; 10] = [0, 0, 1, 1, 2, 3, 3, 4, 4, 5];

enum Op {
    /// A probe from angle `.0` of [`ANGLES`].
    Read(usize, Box<PreparedSampleFeatures>),
    Write(Write),
}

enum Write {
    Add(usize, Vec<SampleFeatures>),
    Reset(usize, String, Vec<SampleFeatures>),
}

/// The seeded operation sequence. It depends on the set only through its
/// (deterministic) evolution, so a replay draws the same operations.
struct Ops {
    rng: Rng,
    pools: [Vec<PreparedSampleFeatures>; 3],
    bare: PreparedSampleFeatures,
    writes: usize,
}

impl Ops {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::derive(seed, "hot_gram_ops");
        let pools = probe_pools(&mut rng);
        Self {
            rng,
            pools,
            bare: PreparedSampleFeatures::prepare(&same_views(hash(96, HOT.into(), HOT.into()))),
            writes: 0,
        }
    }

    fn next(&mut self, set: &ReferenceSet) -> Op {
        let n = set.n_classes();
        if self.rng.below(WRITE_EVERY) == 0 {
            self.writes += 1;
            // Every RESET_EVERY-th write replaces a class holding at least
            // RESET_EVERY references with a fresh class RESET_EVERY - 1
            // smaller, undoing the adds since the last reset: the set
            // churns but stays the same size, and so does a read's cost.
            let big: Vec<usize> = (0..n)
                .filter(|&c| set.prepared_class_features(c).len() >= RESET_EVERY)
                .collect();
            if self.writes.is_multiple_of(RESET_EVERY) && !big.is_empty() {
                let class = big[self.rng.below(big.len())];
                let size = set.prepared_class_features(class).len() - (RESET_EVERY - 1);
                let samples = (0..size).map(|_| hot_sample(&mut self.rng)).collect();
                return Op::Write(Write::Reset(
                    class,
                    format!("hot-new-{}", self.writes),
                    samples,
                ));
            }
            // Mostly mid-set, where an insert shifts the postings behind it.
            let class = if self.rng.below(4) < 3 {
                n / 4 + self.rng.below(n / 2)
            } else {
                self.rng.below(n)
            };
            return Op::Write(Write::Add(class, vec![hot_sample(&mut self.rng)]));
        }
        let angle = ANGLE_MIX[self.rng.below(ANGLE_MIX.len())];
        let probe = match angle {
            // Exact copies of a reference in the low and the high half.
            0 | 1 => {
                let class = angle * n / 2 + self.rng.below(n / 2);
                let refs = set.prepared_class_features(class);
                refs[self.rng.below(refs.len())].clone()
            }
            2 => self.bare.clone(),
            _ => {
                let pool = &self.pools[angle - 3];
                pool[self.rng.below(pool.len())].clone()
            }
        };
        Op::Read(angle, Box::new(probe))
    }
}

/// Apply one write to a clone of `set`; the caller publishes the result.
fn apply(
    trace: &Trace,
    set: &ReferenceSet,
    write: Write,
    req: u64,
) -> Result<ReferenceSet, String> {
    let prepare = |samples: Vec<SampleFeatures>| -> Vec<PreparedSampleFeatures> {
        samples
            .iter()
            .map(|s| layers::prepare(trace, s, req))
            .collect()
    };
    let mut next = trace.time("similarity.clone", 0, req, || set.clone());
    let written = match write {
        Write::Add(class, samples) => {
            let samples = prepare(samples);
            trace.time("similarity.add_samples", 0, req, || {
                next.add_samples(class, samples)
            })
        }
        Write::Reset(class, name, samples) => {
            let samples = prepare(samples);
            trace
                .time("similarity.retire_class", 0, req, || {
                    next.retire_class(class)
                })
                .and_then(|_| {
                    trace.time("similarity.add_class", 0, req, || {
                        next.add_class(name, samples)
                    })
                })
                .map(drop)
        }
    };
    written.map_err(|e| format!("index write failed: {e}"))?;
    Ok(next)
}

struct LoopStats {
    reads: u64,
    writes: u64,
    read_ms: Vec<f64>,
    /// Read latencies by probe angle.
    angle_ms: [Vec<f64>; ANGLES.len()],
    write_ms: Vec<f64>,
    /// `(1 op, seconds it took)` for every operation, in time order.
    op_s: Vec<(f64, f64)>,
    wall_s: f64,
    /// One digest per read, in order.
    digests: Vec<u64>,
}

impl LoopStats {
    fn ops_per_s(&self) -> f64 {
        windowed_rate(&self.op_s, WINDOWS)
    }
}

/// Run operations from `ops` on `current` for `seconds`, closed loop.
fn closed_loop(
    trace: &Trace,
    ops: &mut Ops,
    current: &mut Arc<ReferenceSet>,
    seconds: f64,
) -> Result<LoopStats, String> {
    let mut stats = LoopStats {
        reads: 0,
        writes: 0,
        read_ms: Vec::new(),
        angle_ms: Default::default(),
        write_ms: Vec::new(),
        op_s: Vec::new(),
        wall_s: 0.0,
        digests: Vec::new(),
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let req = stats.reads + stats.writes;
        let op = ops.next(current);
        let t0 = Instant::now();
        match op {
            Op::Read(angle, probe) => {
                let backend = IndexedBackend::new(Arc::clone(current));
                let row = layers::row(trace, backend.reference(), &probe, req);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                stats.read_ms.push(ms);
                stats.angle_ms[angle].push(ms);
                stats.digests.push(row_digest(&row));
                stats.reads += 1;
            }
            Op::Write(write) => {
                *current = Arc::new(apply(trace, current, write, req)?);
                stats.write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                stats.writes += 1;
            }
        }
        stats.op_s.push((1.0, t0.elapsed().as_secs_f64()));
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    Ok(stats)
}

/// Replay the first `n_ops` operations of the seeded sequence through the
/// scan oracle, reads in parallel between writes; returns the read digests.
fn scan_replay(
    seed: u64,
    initial: &Arc<ReferenceSet>,
    n_ops: u64,
    threads: usize,
) -> Result<Vec<u64>, String> {
    let mut ops = Ops::new(seed);
    let mut current = Arc::clone(initial);
    let mut digests = Vec::new();
    let mut pending: Vec<PreparedSampleFeatures> = Vec::new();
    let flush = |current: &Arc<ReferenceSet>,
                 pending: &mut Vec<PreparedSampleFeatures>,
                 digests: &mut Vec<u64>| {
        let scan = ScanBackend::new(Arc::clone(current));
        digests.extend(par_map_indexed(
            pending.len(),
            ParallelConfig::with_threads(threads).with_chunk(1),
            |i| row_digest(&scan.feature_vector_prepared(&pending[i])),
        ));
        pending.clear();
    };
    let off = Trace::new(false);
    for _ in 0..n_ops {
        match ops.next(&current) {
            Op::Read(_, probe) => pending.push(*probe),
            Op::Write(write) => {
                flush(&current, &mut pending, &mut digests);
                current = Arc::new(apply(&off, &current, write, 0)?);
            }
        }
    }
    flush(&current, &mut pending, &mut digests);
    Ok(digests)
}

pub fn run(ctx: &Ctx, seconds: f64, setup_reps: usize, trace: &Trace) -> Result<Outcome, String> {
    let (initial, setup_s) = repeat_setup(setup_reps, || {
        let mut rng = Rng::derive(ctx.seed, "hot_gram_set");
        Ok(Arc::new(
            trace.time("hot_gram.build", 0, 0, || reference(&mut rng)),
        ))
    })?;
    let mut out = Outcome::new("hot_gram_churn");
    out.setup_s = setup_s;
    let mut ops = Ops::new(ctx.seed);
    let mut current = Arc::clone(&initial);
    let off = Trace::new(false);
    let timed = if trace.enabled() {
        seconds / 2.0
    } else {
        seconds
    };
    let mut all_digests = Vec::new();
    let untraced = closed_loop(&off, &mut ops, &mut current, timed)?;
    all_digests.extend_from_slice(&untraced.digests);
    let mut n_ops = untraced.reads + untraced.writes;
    out.throughput = untraced.ops_per_s();
    out.latency = Summary::windowed(&untraced.read_ms, WINDOWS, TAIL_PCT);
    let writes = Summary::windowed(&untraced.write_ms, WINDOWS, 90.0);
    out.lines.push(format!(
        "ops {:.2} 1/s ({} reads, {} writes in {:.2} s) over {CLASSES} classes, {} references at start, {} at end",
        out.throughput,
        untraced.reads,
        untraced.writes,
        untraced.wall_s,
        n_refs(&initial),
        n_refs(&current)
    ));
    out.lines
        .push(format!("read latency {}", out.latency.describe("ms")));
    for (name, ms) in ANGLES.iter().zip(&untraced.angle_ms) {
        out.lines.push(format!(
            "  {name}: {}",
            Summary::supported(ms).describe("ms")
        ));
    }
    out.lines
        .push(format!("write latency {}", writes.describe("ms")));
    out.lines.push(format!("write_p50_ms {} ms", writes.p50));

    if trace.enabled() {
        let traced = closed_loop(trace, &mut ops, &mut current, timed)?;
        all_digests.extend_from_slice(&traced.digests);
        n_ops += traced.reads + traced.writes;
        out.overhead_pct = Some((out.throughput / traced.ops_per_s() - 1.0) * 100.0);
    }

    let expected = scan_replay(ctx.seed, &initial, n_ops, ctx.threads)?;
    out.attempted = n_ops;
    out.failed = all_digests
        .iter()
        .zip(&expected)
        .filter(|(got, want)| got != want)
        .count() as u64
        + all_digests.len().abs_diff(expected.len()) as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flanks_never_repeat_a_character() {
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let f = flank(&mut rng, 16);
            assert_eq!(f.len(), 16);
            assert!(f.as_bytes().windows(2).all(|w| w[0] != w[1]), "{f}");
        }
    }

    #[test]
    fn the_bare_window_surfaces_every_reference() {
        let set = reference(&mut Rng::new(5));
        let refs: usize = (0..set.n_classes())
            .map(|c| set.prepared_class_features(c).len())
            .sum();
        let bare = PreparedSampleFeatures::prepare(&same_views(hash(96, HOT.into(), HOT.into())));
        // One candidate per reference in each of the three views.
        assert_eq!(layers::candidate_count(&set, &bare), 3 * refs);
        let stranger = PreparedSampleFeatures::prepare(&same_views(hash(
            96,
            "UtterlyUnrelated".into(),
            "zyxwvuts".into(),
        )));
        assert_eq!(layers::candidate_count(&set, &stranger), 0);
    }

    #[test]
    fn the_op_sequence_is_seeded() {
        let set = reference(&mut Rng::new(9));
        let digest = |seed| {
            let mut ops = Ops::new(seed);
            (0..200)
                .map(|_| match ops.next(&set) {
                    Op::Read(a, p) => format!("r{a}{}", p.file.hash()),
                    Op::Write(Write::Add(c, _)) => format!("a{c}"),
                    Op::Write(Write::Reset(c, name, _)) => format!("x{c}{name}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }
}
