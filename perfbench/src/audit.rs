//! `audit_from_bytes`: the periodic audit of installed software. Raw ELF
//! bytes go through `TrainedClassifier::classify_batch` in a closed loop,
//! one batch after another, on `nproc` serving threads.

use crate::layers;
use crate::setup::{fit_and_store, repeat_setup, Fitted};
use crate::stats::{fnv1a, fnv1a_continue, windowed_rate, Rng, Summary};
use crate::trace::Trace;
use crate::{Ctx, Outcome, WINDOWS};
use fhc::backend::BackendConfig;
use fhc::serving::{Prediction, ServingConfig};
use fhc::TrainedClassifier;
use std::time::Instant;

/// Executables classified per `classify_batch` call.
pub const BATCH: usize = 16;
/// One corpus sample in this many is also audited with its symbols stripped.
pub const STRIP_EVERY: usize = 8;
/// The batch-latency tail reported: a window of a 45 s run holds ~200-260
/// batches, which leaves ~20-26 beyond p90 (p95 would leave under ten on a
/// slow host).
pub const TAIL_PCT: f64 = 90.0;

pub fn run(ctx: &Ctx, seconds: f64, setup_reps: usize, trace: &Trace) -> Result<Outcome, String> {
    let (fitted, setup_s) = repeat_setup(setup_reps, || fit_and_store(trace, &ctx.work_dir))?;
    let serving = ServingConfig {
        threads: ctx.threads,
        chunk: 2,
    };
    let classifier = fitted.classifier.clone().with_serving_config(serving);
    let inputs = inputs(&fitted, ctx.seed)?;

    // The oracle: the same inputs through the unindexed scan backend.
    let mut oracle = classifier.clone();
    oracle.set_backend(BackendConfig::Scan);
    let expected = oracle.classify_batch(&inputs);
    let batches: Vec<(usize, usize)> = (0..inputs.len())
        .step_by(BATCH)
        .map(|lo| (lo, (lo + BATCH).min(inputs.len())))
        .collect();
    let digests: Vec<u64> = batches
        .iter()
        .map(|&(lo, hi)| digest(&expected[lo..hi]))
        .collect();

    // Warm up: threads, allocator and caches, untimed.
    for &(lo, hi) in batches.iter().take(2) {
        classifier.classify_batch(&inputs[lo..hi]);
    }

    let off = Trace::new(false);
    let timed = if trace.enabled() {
        seconds / 2.0
    } else {
        seconds
    };
    let untraced = closed_loop(
        &classifier,
        &inputs,
        &batches,
        &digests,
        &expected,
        timed,
        &off,
    );
    let mut out = Outcome::new("audit_from_bytes");
    out.setup_s = setup_s;
    out.attempted = untraced.samples;
    out.failed = untraced.wrong;
    out.throughput = untraced.sps();
    out.latency = Summary::windowed(&untraced.batch_ms, WINDOWS, TAIL_PCT);
    out.lines.push(format!(
        "audit_sps {:.2} 1/s ({} samples in {:.2} s, {} threads, batches of {BATCH}); batch latency {}",
        out.throughput,
        untraced.samples,
        untraced.wall_s,
        ctx.threads,
        out.latency.describe("ms")
    ));
    out.lines.push(format!(
        "inputs: {} executables ({} stripped copies); oracle digest {:#018x}",
        inputs.len(),
        inputs.len() - fitted.corpus.n_samples(),
        digest(&expected)
    ));

    if trace.enabled() {
        let traced = closed_loop(
            &classifier,
            &inputs,
            &batches,
            &digests,
            &expected,
            timed,
            trace,
        );
        out.attempted += traced.samples;
        out.failed += traced.wrong;
        out.overhead_pct = Some((out.throughput / traced.sps() - 1.0) * 100.0);
        // One serial pass through every layer on the same inputs.
        let mut serial_us = 0.0;
        for (i, (_, bytes)) in inputs.iter().enumerate() {
            let start = Instant::now();
            let label = layers::extract(trace, bytes, i as u64).map(|features| {
                let prepared = layers::prepare(trace, &features, i as u64);
                let row = layers::row(trace, classifier.reference(), &prepared, i as u64);
                layers::vote_traced(trace, &classifier, &row, i as u64)
            });
            serial_us += start.elapsed().as_secs_f64() * 1e6;
            out.attempted += 1;
            if label.as_deref() != Some(expected[i].1.label.as_str()) {
                out.failed += 1;
            }
        }
        // The serial pass also made the six part calls; take them out.
        serial_us -= trace.durations_us("features.parts").iter().sum::<f64>();
        let per_sample_wall_us = traced.wall_s * 1e6 / traced.samples as f64;
        out.layers.insert(
            "serving.par_efficiency",
            serial_us / inputs.len() as f64 / (per_sample_wall_us * ctx.threads as f64),
        );
    }
    Ok(out)
}

/// The audited executables: every corpus sample, unknown classes included,
/// plus stripped copies of a seeded one in [`STRIP_EVERY`], in seeded order.
fn inputs(fitted: &Fitted, seed: u64) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut rng = Rng::derive(seed, "audit");
    let samples = fitted.corpus.samples();
    let mut inputs: Vec<(String, Vec<u8>)> = samples
        .iter()
        .zip(&fitted.bytes)
        .map(|(s, b)| (s.install_path(), b.clone()))
        .collect();
    for (s, b) in samples.iter().zip(&fitted.bytes) {
        if rng.below(STRIP_EVERY) == 0 {
            let stripped = binary::elf::strip_symbols(b)
                .map_err(|e| format!("cannot strip {}: {e}", s.install_path()))?;
            inputs.push((format!("{} (stripped)", s.install_path()), stripped));
        }
    }
    rng.shuffle(&mut inputs);
    Ok(inputs)
}

/// Digest of predictions: names, labels and every probability bit.
fn digest(predictions: &[(String, Prediction)]) -> u64 {
    predictions.iter().fold(fnv1a(b"audit"), |h, (name, p)| {
        let h = fnv1a_continue(h, name.as_bytes());
        let h = fnv1a_continue(h, p.label.as_bytes());
        let h = fnv1a_continue(h, &(p.eval_label as u64).to_le_bytes());
        let h = fnv1a_continue(h, &p.confidence.to_bits().to_le_bytes());
        p.proba
            .iter()
            .fold(h, |h, x| fnv1a_continue(h, &x.to_bits().to_le_bytes()))
    })
}

struct LoopStats {
    samples: u64,
    wrong: u64,
    /// Per batch, in time order.
    batch_ms: Vec<f64>,
    batch_len: Vec<usize>,
    wall_s: f64,
}

impl LoopStats {
    /// Samples classified per second: the median over the windows.
    fn sps(&self) -> f64 {
        let steps: Vec<(f64, f64)> = self
            .batch_len
            .iter()
            .zip(&self.batch_ms)
            .map(|(&n, &ms)| (n as f64, ms / 1e3))
            .collect();
        windowed_rate(&steps, WINDOWS)
    }
}

fn closed_loop(
    classifier: &TrainedClassifier,
    inputs: &[(String, Vec<u8>)],
    batches: &[(usize, usize)],
    digests: &[u64],
    expected: &[(String, Prediction)],
    seconds: f64,
    trace: &Trace,
) -> LoopStats {
    let mut stats = LoopStats {
        samples: 0,
        wrong: 0,
        batch_ms: Vec::new(),
        batch_len: Vec::new(),
        wall_s: 0.0,
    };
    let start = Instant::now();
    let mut next = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let (lo, hi) = batches[next];
        let t0 = Instant::now();
        let predictions = classifier.classify_batch(&inputs[lo..hi]);
        let t1 = Instant::now();
        trace.record("serving.batch", t0, t1, 0, next as u64, (hi - lo) as u64);
        stats.batch_ms.push((t1 - t0).as_secs_f64() * 1e3);
        stats.batch_len.push(hi - lo);
        stats.samples += (hi - lo) as u64;
        if digest(&predictions) != digests[next] {
            stats.wrong += predictions
                .iter()
                .zip(&expected[lo..hi])
                .filter(|(got, want)| got != want)
                .count()
                .max(1) as u64;
        }
        next = (next + 1) % batches.len();
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}
