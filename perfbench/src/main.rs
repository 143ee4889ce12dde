//! `perfbench`: one seeded command that runs a named workload against the
//! Fuzzy Hash Classifier, checks every output against the scan oracle, and
//! prints its metrics with their units. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload audit_from_bytes --seed 42 --seconds 45 --trace 0 \
//!     --bin-dir .bench_build/release --work-dir .bench_build/perfbench
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload traced and reports the per-layer metrics instead. See
//! `perfbench/README.md` for what each workload and metric measures.

mod audit;
mod hotgram;
mod launch;
mod layers;
mod procs;
mod setup;
mod stats;
mod trace;

use stats::Summary;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Trace;

const WORKLOADS: [&str; 3] = ["audit_from_bytes", "launch_open_loop", "hot_gram_churn"];

/// The end-to-end metrics, reported by every workload with tracing off.
/// Latency tails are printed with each workload's detail but left out
/// here: between runs on a 2-vCPU virtual machine the launch p99 spread
/// 61% of its median, past any bound a regression gate could use.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
];

/// The per-layer metrics, reported by every workload's traced run.
const PER_LAYER: [(&str, &str); 40] = [
    ("binary.parse_us", "us"),
    ("binary.strings_us", "us"),
    ("binary.symbols_us", "us"),
    ("binary.strings_bytes", "count"),
    ("ssdeep.hash_file_us", "us"),
    ("ssdeep.hash_strings_us", "us"),
    ("ssdeep.hash_symbols_us", "us"),
    ("ssdeep.hash_mbps", "MB/s"),
    ("features.extract_us", "us"),
    ("features.extract_self_us", "us"),
    ("ssdeep.prepare_us", "us"),
    ("similarity.row_us", "us"),
    ("similarity.candidates", "count"),
    ("similarity.nonzero_cells", "count"),
    ("similarity.useful_ratio", "ratio"),
    ("forest.vote_us", "us"),
    ("serving.batch_ms", "ms"),
    ("serving.par_efficiency", "ratio"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("gateway.rtt_p50_us", "us"),
    ("gateway.rtt_p99_us", "us"),
    ("gateway.sched_wait_us", "us"),
    ("gateway.remote_overhead_us", "us"),
    ("gateway.inflight_max", "count"),
    ("gateway.overloads", "count"),
    ("gateway.net_errors", "count"),
    ("similarity.clone_ms", "ms"),
    ("similarity.add_samples_us", "us"),
    ("similarity.retire_class_ms", "ms"),
    ("similarity.add_class_us", "us"),
    ("corpus.generate_s", "s"),
    ("pipeline.fit_s", "s"),
    ("artifact.save_ms", "ms"),
    ("artifact.load_ms", "ms"),
    ("artifact.bytes", "count"),
    ("shardd.ready_ms", "ms"),
    ("gateway.ready_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Set-up is repeated at least this many times per run and the trimmed mean
/// of its times reported (see `stats::trimmed_mean`).
const SETUP_REPS: usize = 5;
/// Closed-loop phases are summarised per window of this many, in time
/// order, and the trimmed mean of the windows reported (see
/// `stats::Summary::windowed`).
pub const WINDOWS: usize = 15;
/// In a traced run, each layer the named workload does not reach is
/// measured by a short run of a workload that does, this long.
const COMPLEMENT_SECONDS: f64 = 1.0;

/// What every workload runs with.
pub struct Ctx {
    pub seed: u64,
    /// Where the daemons' release binaries are.
    pub bin_dir: PathBuf,
    /// Scratch space for artifacts.
    pub work_dir: PathBuf,
    /// Serving threads and the client-thread ceiling: `nproc`.
    pub threads: usize,
}

/// One workload run's results.
pub struct Outcome {
    pub workload: &'static str,
    /// Operations attempted, and those that failed, were refused or gave a
    /// wrong output.
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    /// Peak resident memory of the daemons this run started.
    pub children_mb: f64,
    pub throughput: f64,
    /// Latency of the workload's unit of work, in milliseconds.
    pub latency: Summary,
    /// Untraced over traced headline metric, when traced.
    pub overhead_pct: Option<f64>,
    /// Per-layer metrics the workload measured beyond what its spans give.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable detail printed before the JSON line.
    pub lines: Vec<String>,
    /// A reason this run's measurements cannot be trusted.
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            setup_s: 0.0,
            children_mb: 0.0,
            throughput: 0.0,
            latency: Summary::at(&[], 50.0),
            overhead_pct: None,
            layers: BTreeMap::new(),
            lines: Vec::new(),
            invalid: None,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 45.0,
        trace: false,
        bin_dir: PathBuf::from(".bench_build/release"),
        work_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--bin-dir" => args.bin_dir = value.into(),
            "--work-dir" => args.work_dir = value.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(
    name: &str,
    ctx: &Ctx,
    seconds: f64,
    reps: usize,
    trace: &Trace,
) -> Result<Outcome, String> {
    match name {
        "audit_from_bytes" => audit::run(ctx, seconds, reps, trace),
        "launch_open_loop" => launch::run(ctx, seconds, reps, trace),
        _ => hotgram::run(ctx, seconds, reps, trace),
    }
}

/// Per-layer metrics derivable from a trace's spans and counts alone; a
/// layer the trace never reached is left out.
fn span_metrics(trace: &Trace) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    // Extraction parts are per-sample means, so they add up to the whole.
    let samples = trace.durations_us("features.parts").len() as f64;
    if samples > 0.0 {
        let per_sample = |name| trace.durations_us(name).iter().sum::<f64>() / samples;
        let mut parts = 0.0;
        for (metric, span) in [
            ("binary.parse_us", "binary.parse"),
            ("binary.strings_us", "binary.strings"),
            ("binary.symbols_us", "binary.symbols"),
            ("ssdeep.hash_file_us", "ssdeep.hash_file"),
            ("ssdeep.hash_strings_us", "ssdeep.hash_strings"),
            ("ssdeep.hash_symbols_us", "ssdeep.hash_symbols"),
        ] {
            let us = per_sample(span);
            parts += us;
            m.insert(metric, us);
        }
        let extract = trace.mean_us("features.extract");
        m.insert("features.extract_us", extract);
        m.insert("features.extract_self_us", extract - parts);
        m.insert("binary.strings_bytes", trace.mean_count("binary.strings"));
        let hashed: f64 = trace
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("ssdeep.hash_"))
            .map(|s| s.count as f64)
            .sum();
        let hash_us: f64 = [
            "ssdeep.hash_file",
            "ssdeep.hash_strings",
            "ssdeep.hash_symbols",
        ]
        .iter()
        .map(|n| trace.durations_us(n).iter().sum::<f64>())
        .sum();
        m.insert("ssdeep.hash_mbps", hashed / hash_us);
    }
    let means_us = [
        ("ssdeep.prepare_us", "ssdeep.prepare", 1.0),
        ("similarity.row_us", "similarity.row", 1.0),
        ("forest.vote_us", "forest.vote", 1.0),
        ("wire.encode_us", "wire.encode", 1.0),
        ("wire.decode_us", "wire.decode", 1.0),
        ("similarity.clone_ms", "similarity.clone", 1e-3),
        ("similarity.add_samples_us", "similarity.add_samples", 1.0),
        (
            "similarity.retire_class_ms",
            "similarity.retire_class",
            1e-3,
        ),
        ("similarity.add_class_us", "similarity.add_class", 1.0),
    ];
    for (metric, span, scale) in means_us {
        if trace.has(span) {
            m.insert(metric, trace.mean_us(span) * scale);
        }
    }
    // Set-up steps repeat per set-up; report their medians.
    let medians = [
        ("serving.batch_ms", "serving.batch", 1e-3),
        ("corpus.generate_s", "corpus.generate", 1e-6),
        ("pipeline.fit_s", "pipeline.fit", 1e-6),
        ("artifact.save_ms", "artifact.save", 1e-3),
        ("artifact.load_ms", "artifact.load", 1e-3),
        ("shardd.ready_ms", "shardd.ready", 1e-3),
        ("gateway.ready_ms", "gateway.ready", 1e-3),
    ];
    for (metric, span, scale) in medians {
        if trace.has(span) {
            m.insert(metric, trace.median_us(span) * scale);
        }
    }
    if trace.has("artifact.save") {
        m.insert("artifact.bytes", trace.mean_count("artifact.save"));
    }
    let rows = trace.counter("similarity.rows") as f64;
    if rows > 0.0 {
        let candidates = trace.counter("similarity.candidates") as f64;
        let nonzero = trace.counter("similarity.nonzero_cells") as f64;
        m.insert("similarity.candidates", candidates / rows);
        m.insert("similarity.nonzero_cells", nonzero / rows);
        m.insert("similarity.useful_ratio", nonzero / candidates.max(1.0));
    }
    m
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // Non-finite values are not JSON; they only arise from a broken run.
    let value = if value.is_finite() { value } else { -1.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        bin_dir: args.bin_dir.clone(),
        work_dir: work_dir.clone(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let code = match bench(&args, &ctx) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    code
}

fn bench(args: &Args, ctx: &Ctx) -> Result<ExitCode, String> {
    let main_trace = Trace::new(args.trace);
    let steal_before = procs::cpu_steal_ticks();
    let out = run_workload(&args.workload, ctx, args.seconds, SETUP_REPS, &main_trace)?;
    let self_mb = procs::vm_hwm_mb("self").unwrap_or(0.0);
    let rss_peak_mb = self_mb + out.children_mb;

    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        out.workload, args.seed, args.seconds, args.trace as u8, ctx.threads
    );
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, procs::cpu_steal_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64 * 100.0;
        println!("  host steal {share:.1}% of CPU time during the run");
    }
    println!(
        "  peak memory: benchmark {self_mb:.1} MB + daemons {:.1} MB",
        out.children_mb
    );
    for line in &out.lines {
        println!("  {line}");
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  fail_ratio {fail_ratio} ({} of {} failed, refused or wrong)",
        out.failed, out.attempted
    );
    if let Some(reason) = &out.invalid {
        println!("  INVALID RUN: {reason}");
    }

    let mut attempted = out.attempted;
    let mut failed = out.failed;
    let metrics: Vec<String> = if args.trace {
        // Layers the named workload reaches come from its own spans; the
        // rest from short traced runs of the workloads that reach them.
        let mut layers = BTreeMap::new();
        let mut spans = main_trace.spans().len();
        let mut traces = vec![(args.workload.clone(), main_trace)];
        let own = span_metrics(&traces[0].1);
        for other in WORKLOADS.iter().filter(|&&w| w != args.workload) {
            let missing = PER_LAYER.iter().any(|(name, _)| {
                ![&own, &out.layers, &layers]
                    .iter()
                    .any(|m| m.contains_key(name))
            });
            if !missing {
                break;
            }
            let trace = Trace::new(true);
            let extra = run_workload(other, ctx, COMPLEMENT_SECONDS, 1, &trace)?;
            attempted += extra.attempted;
            failed += extra.failed;
            // The first workload that reached a layer measures it.
            for (name, value) in span_metrics(&trace).into_iter().chain(extra.layers) {
                layers.entry(name).or_insert(value);
            }
            spans += trace.spans().len();
            println!("  layers not reached here were measured by a {COMPLEMENT_SECONDS} s traced {other} run");
            traces.push((other.to_string(), trace));
        }
        layers.extend(own);
        layers.extend(out.layers.clone());
        layers.insert("trace.overhead_pct", out.overhead_pct.unwrap_or(0.0));
        layers.insert("trace.spans", spans as f64);
        let dir = args.work_dir.join("traces");
        let _ = std::fs::create_dir_all(&dir);
        for (workload, trace) in &traces {
            let path = dir.join(format!(
                "{}-seed{}-{workload}.jsonl",
                args.workload, args.seed
            ));
            if let Err(e) = trace.write_jsonl(&path, workload) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        println!("  spans written to {}", dir.display());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = layers.get(name).copied().unwrap_or_else(|| {
                    eprintln!("perfbench: no measurement for {name}");
                    f64::NAN
                });
                println!("  {name} {value} {unit}");
                json_metric(name, value, unit)
            })
            .collect()
    } else {
        println!("  latency {}", out.latency.describe("ms"));
        let values = [out.setup_s, rss_peak_mb, out.throughput, out.latency.p50];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| {
                println!("  {name} {value} {unit}");
                json_metric(name, value, unit)
            })
            .collect()
    };
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
