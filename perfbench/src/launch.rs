//! `launch_open_loop`: classification at job launch, where launches are
//! independent arrivals. Two `fhc-shardd --shard i/2` daemons sit behind one
//! `fhc-gateway`; one client connection carries single prehashed
//! `ScoreRequest`s sent on a seeded Poisson schedule by one sender thread,
//! while one receiver thread decodes each reply and runs the forest vote
//! and threshold to produce the label. Latency runs from when a request was
//! due to when its label exists, so a stalled sender shows as latency.

use crate::layers;
use crate::procs::{vm_hwm_mb, Daemon};
use crate::setup::{fit_and_store, repeat_setup, Fitted};
use crate::stats::{inflight_max, lateness, median, percentile, poisson_schedule, Rng, Summary};
use crate::trace::Trace;
use crate::{Ctx, Outcome};
use fhc::backend::{ScanBackend, SimilarityBackend};
use fhc::features::PreparedSampleFeatures;
use fhc::shardnet::wire::{self, ClientReply, Frame};
use fhc::TrainedClassifier;
use hpcutil::{par_map_indexed, ParallelConfig};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

pub const SHARDS: usize = 2;
/// Distinct prehashed launches the schedule draws from.
pub const PROBES: usize = 256;
/// One probe in this many is a stripped executable.
pub const STRIP_EVERY: usize = 8;
/// Offered rates, fixed for every build: about a quarter and two thirds of
/// the ~4 000 requests/s this fleet served within the p99 limit on a
/// 2-core host.
pub const LIGHT_QPS: f64 = 1000.0;
pub const HEAVY_QPS: f64 = 2500.0;
/// The fixed ladder `max_rate_qps` climbs until a rung misses the limit.
pub const LADDER_QPS: [f64; 5] = [3000.0, 3500.0, 4000.0, 4500.0, 5000.0];
/// Far past capacity: the rate the saturation burst is offered at.
pub const SATURATE_QPS: f64 = 20000.0;
/// Sizes the saturation burst to take about its share of `--seconds`.
const CAPACITY_QPS: f64 = 4500.0;
/// Shares of `--seconds` each phase offers load for.
/// Warm-up is per fleet; the light share is split among the fleets.
const WARM_SHARE: f64 = 0.01;
const LIGHT_SHARE: f64 = 0.55;
const HEAVY_SHARE: f64 = 0.2;
const LADDER_SHARE: f64 = 0.1;
const SATURATE_SHARE: f64 = 0.05;
/// Fresh fleets the light load is offered to, one after another.
const LIGHT_FLEETS: usize = 9;
/// A rung passes when its p99 stays under this and its backlog does not grow.
pub const P99_LIMIT_MS: f64 = 10.0;
/// Generator lateness (p99) beyond which a run is flagged invalid.
pub const GEN_LAG_LIMIT_MS: f64 = 5.0;
pub const TAIL_PCT: f64 = 99.0;
/// Windows per phase: few, so each holds enough requests for a p99.
const PHASE_WINDOWS: usize = 5;
/// How long the receiver waits for any reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One prehashed launch and the answer the scan oracle gives for it.
struct Probe {
    query: PreparedSampleFeatures,
    row_bits: Vec<u64>,
    label: String,
}

/// Two shard daemons and the gateway in front of them.
struct Fleet {
    // Dropped (killed and reaped) gateway first, then the shards.
    gateway: Daemon,
    shards: Vec<Daemon>,
}

impl Fleet {
    fn start(ctx: &Ctx, artifact: &Path, trace: &Trace) -> Result<Fleet, String> {
        let artifact = artifact.display().to_string();
        let mut shards = Vec::new();
        for i in 0..SHARDS {
            let args = [
                "--artifact".to_string(),
                artifact.clone(),
                "--listen".into(),
                "127.0.0.1:0".into(),
                "--shard".into(),
                format!("{i}/{SHARDS}"),
            ];
            let start = Instant::now();
            let shard = Daemon::spawn(
                &ctx.bin_dir.join("fhc-shardd"),
                &args,
                &format!("fhc-shardd#{i}"),
            )?;
            trace.record("shardd.ready", start, start + shard.ready, 0, 0, 0);
            shards.push(shard);
        }
        let workers: Vec<&str> = shards.iter().map(|s| s.addr.as_str()).collect();
        let args = [
            "--artifact".to_string(),
            artifact,
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            workers.join(","),
        ];
        let start = Instant::now();
        let gateway = Daemon::spawn(&ctx.bin_dir.join("fhc-gateway"), &args, "fhc-gateway")?;
        trace.record("gateway.ready", start, start + gateway.ready, 0, 0, 0);
        Ok(Fleet { gateway, shards })
    }

    fn peak_mb(&self) -> f64 {
        std::iter::once(&self.gateway)
            .chain(&self.shards)
            .filter_map(|d| vm_hwm_mb(&d.pid().to_string()))
            .sum()
    }

    fn all_alive(&mut self) -> bool {
        self.gateway.alive() && self.shards.iter_mut().all(Daemon::alive)
    }
}

/// Seeded launches: corpus samples (held-out classes included), some
/// stripped, extracted and prepared, with the row and label the scan
/// oracle gives. Set-up also checks the indexed row equals the scan row.
fn probes(fitted: &Fitted, ctx: &Ctx, trace: &Trace) -> Result<Vec<Probe>, String> {
    let mut rng = Rng::derive(ctx.seed, "launch_probes");
    let mut order: Vec<usize> = (0..fitted.corpus.n_samples()).collect();
    rng.shuffle(&mut order);
    let classifier = &fitted.classifier;
    let mut queries = Vec::with_capacity(PROBES);
    let mut rows = Vec::with_capacity(PROBES);
    for (i, &sample) in order.iter().cycle().take(PROBES).enumerate() {
        let mut bytes = fitted.bytes[sample].clone();
        if rng.below(STRIP_EVERY) == 0 {
            bytes = binary::elf::strip_symbols(&bytes).map_err(|e| format!("cannot strip: {e}"))?;
        }
        let features = layers::extract(trace, &bytes, i as u64)
            .ok_or("extraction parts disagree with SampleFeatures::extract")?;
        let query = layers::prepare(trace, &features, i as u64);
        rows.push(layers::row(trace, classifier.reference(), &query, i as u64));
        queries.push(query);
    }
    let scan = ScanBackend::new(classifier.reference_shared());
    let scan_rows = par_map_indexed(
        queries.len(),
        ParallelConfig::with_threads(ctx.threads),
        |i| scan.feature_vector_prepared(&queries[i]),
    );
    queries
        .into_iter()
        .zip(rows.iter().zip(&scan_rows))
        .map(|(query, (row, scan_row))| {
            let bits: Vec<u64> = row.iter().map(|x| x.to_bits()).collect();
            let scan_bits: Vec<u64> = scan_row.iter().map(|x| x.to_bits()).collect();
            if bits != scan_bits {
                return Err("the indexed row differs from the scan oracle".to_string());
            }
            Ok(Probe {
                query,
                label: layers::vote(classifier, scan_row).1,
                row_bits: scan_bits,
            })
        })
        .collect()
}

/// What one phase at one offered rate saw.
#[derive(Default)]
struct Phase {
    rate: f64,
    scheduled: u64,
    sent: u64,
    ok: u64,
    /// Transport errors, missing replies and wrong rows or labels.
    failed: u64,
    overloaded: u64,
    net_errors: u64,
    /// Due to label, for every correct reply, in send order.
    lat_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    inflight_max: usize,
    /// First send to last reply.
    busy_s: f64,
}

impl Phase {
    fn latency(&self) -> Summary {
        Summary::windowed(&self.lat_ms, PHASE_WINDOWS, TAIL_PCT)
    }

    fn gen_lag_p99(&self) -> f64 {
        let mut lag = self.gen_lag_ms.clone();
        lag.sort_by(f64::total_cmp);
        percentile(&lag, 99.0)
    }

    /// Whether the median latency of the last quarter grew past twice the
    /// first quarter's (plus half a millisecond of slack).
    fn backlog_grew(&self) -> bool {
        let q = self.lat_ms.len() / 4;
        if q == 0 {
            return false;
        }
        let first = median(&self.lat_ms[..q]);
        let last = median(&self.lat_ms[self.lat_ms.len() - q..]);
        last > 2.0 * first + 0.5
    }

    fn meets_limit(&self) -> bool {
        self.failed == 0
            && self.overloaded == 0
            && self.latency().tail <= P99_LIMIT_MS
            && self.gen_lag_p99() <= P99_LIMIT_MS
            && !self.backlog_grew()
    }

    fn describe(&self, name: &str) -> String {
        format!(
            "{name} @ {} qps: sent {}, succeeded {}, failed {}, overloaded {}; latency {}; rtt p50 {:.4} ms; gen_lag p50 {:.4} ms, p99 {:.4} ms; inflight max {}",
            self.rate,
            self.sent,
            self.ok,
            self.failed,
            self.overloaded,
            self.latency().describe("ms"),
            median(&self.rtt_us) / 1e3,
            median(&self.gen_lag_ms),
            self.gen_lag_p99(),
            self.inflight_max
        )
    }
}

/// Offer `rate` requests per second on `stream` for `seconds`, open loop.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    stream: &TcpStream,
    probes: &[Probe],
    classifier: &TrainedClassifier,
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
    first_id: u64,
    trace: &Trace,
) -> Result<Phase, String> {
    // The whole schedule is fixed before the first send.
    let schedule = poisson_schedule(rng, rate, seconds);
    let picks: Vec<usize> = schedule.iter().map(|_| rng.below(probes.len())).collect();
    let n = schedule.len();
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot split the connection: {e}"))?;
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("cannot split the connection: {e}"))?;
    reader
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("cannot set a read timeout: {e}"))?;
    let n_columns = classifier.reference().n_columns();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + schedule[i];
    // One root span per request, due time to label; the client's own steps
    // are its children, so its self time is the time spent in the fleet.
    let request_spans: Vec<u64> = (0..n).map(|_| trace.reserve()).collect();

    let (sent_at, replies) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            // (request index, reply read, label made, correct) per reply.
            let mut replies: Vec<(usize, Instant, Instant, bool)> = Vec::with_capacity(n);
            let mut overloaded = 0u64;
            let mut net_errors = 0u64;
            while replies.len() + (overloaded as usize) < n {
                let (tag, payload) = match hpcutil::read_frame(&mut reader, wire::MAX_FRAME_PAYLOAD)
                {
                    Ok(frame) => frame,
                    Err(e) => {
                        eprintln!("perfbench: reply stream failed: {e}");
                        net_errors += 1;
                        break;
                    }
                };
                let read = Instant::now();
                let decoded = wire::decode_client_reply(tag, &payload);
                let decoded_at = Instant::now();
                let (id, reply) = match decoded {
                    Ok(decoded) => decoded,
                    Err(e) => {
                        eprintln!("perfbench: undecodable reply: {e}");
                        net_errors += 1;
                        break;
                    }
                };
                let Some(i) = id
                    .checked_sub(first_id)
                    .map(|i| i as usize)
                    .filter(|&i| i < n)
                else {
                    eprintln!("perfbench: reply for unknown request {id}");
                    net_errors += 1;
                    break;
                };
                let span = request_spans[i];
                trace.record(
                    "wire.decode",
                    read,
                    decoded_at,
                    span,
                    id,
                    payload.len() as u64,
                );
                match reply {
                    ClientReply::Score(response) => {
                        let mut row = vec![0.0f64; n_columns];
                        let mut in_range = true;
                        for (column, score) in response.cells {
                            match row.get_mut(column as usize) {
                                Some(cell) => *cell = score,
                                None => in_range = false,
                            }
                        }
                        let probe = &probes[picks[i]];
                        let label = trace
                            .time("forest.vote", span, id, || layers::vote(classifier, &row).1);
                        let done = Instant::now();
                        let same_row = row
                            .iter()
                            .map(|x| x.to_bits())
                            .eq(probe.row_bits.iter().copied());
                        replies.push((i, read, done, in_range && same_row && label == probe.label));
                    }
                    ClientReply::Overload(_) => overloaded += 1,
                    ClientReply::Batch(_) => {
                        eprintln!("perfbench: batch reply to a single request");
                        net_errors += 1;
                        break;
                    }
                }
            }
            (replies, overloaded, net_errors)
        });

        let mut sent_at: Vec<Option<Instant>> = vec![None; n];
        for i in 0..n {
            let wait = due(i).saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let id = first_id + i as u64;
            let t0 = Instant::now();
            let bytes = wire::score_request_bytes(id, &probes[picks[i]].query);
            let span = request_spans[i];
            trace.record(
                "wire.encode",
                t0,
                Instant::now(),
                span,
                id,
                bytes.len() as u64,
            );
            if let Err(e) = writer.write_all(&bytes) {
                eprintln!("perfbench: send failed: {e}");
                break;
            }
            sent_at[i] = Some(t0);
        }
        (sent_at, receiver.join())
    });
    let (replies, overloaded, net_errors) = replies.map_err(|_| "the receiver thread panicked")?;

    let mut phase = Phase {
        rate,
        scheduled: n as u64,
        sent: sent_at.iter().flatten().count() as u64,
        overloaded,
        net_errors,
        ..Phase::default()
    };
    let mut done_at = Vec::with_capacity(replies.len());
    let mut by_send: Vec<(usize, f64)> = Vec::with_capacity(replies.len());
    for &(i, read, done, correct) in &replies {
        let Some(sent) = sent_at[i] else {
            phase.failed += 1;
            continue;
        };
        done_at.push(read.saturating_duration_since(start));
        if correct {
            phase.ok += 1;
            by_send.push((i, lateness(due(i), done).as_secs_f64() * 1e3));
            phase.rtt_us.push((read - sent).as_secs_f64() * 1e6);
        } else {
            phase.failed += 1;
        }
    }
    by_send.sort_by_key(|&(i, _)| i);
    phase.lat_ms = by_send.into_iter().map(|(_, ms)| ms).collect();
    // Requests never answered (or never sent) failed too.
    phase.failed += (n as u64).saturating_sub(replies.len() as u64 + overloaded);
    let sent_offsets: Vec<Duration> = sent_at
        .iter()
        .flatten()
        .map(|&t| t.saturating_duration_since(start))
        .collect();
    phase.inflight_max = inflight_max(&sent_offsets, &done_at);
    if let (Some(first), Some(last)) = (sent_offsets.iter().min(), done_at.iter().max()) {
        phase.busy_s = last.saturating_sub(*first).as_secs_f64();
    }
    phase.gen_lag_ms = (0..n)
        .filter_map(|i| sent_at[i].map(|t| lateness(due(i), t).as_secs_f64() * 1e3))
        .collect();
    if trace.enabled() {
        for &(i, _, done, _) in &replies {
            let (id, span) = (first_id + i as u64, request_spans[i]);
            if let Some(sent) = sent_at[i] {
                trace.record("client.sched_wait", due(i).min(sent), sent, span, id, 0);
            }
            trace.record_as(span, "launch.request", due(i), done, 0, id, 0);
        }
    }
    Ok(phase)
}

fn connect(addr: &str, n_columns: usize) -> Result<TcpStream, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot reach the gateway at {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    match Frame::read_from(&mut stream, addr) {
        Ok(Frame::Hello(hello)) if hello.n_columns == n_columns => Ok(stream),
        Ok(Frame::Hello(hello)) => Err(format!(
            "the gateway serves {} columns, the artifact has {n_columns}",
            hello.n_columns
        )),
        Ok(other) => Err(format!("expected a Hello from the gateway, got {other:?}")),
        Err(e) => Err(format!("gateway handshake failed: {e}")),
    }
}

pub fn run(ctx: &Ctx, seconds: f64, setup_reps: usize, trace: &Trace) -> Result<Outcome, String> {
    let ((fitted, mut fleet), setup_s) = repeat_setup(setup_reps, || {
        let fitted = fit_and_store(trace, &ctx.work_dir)?;
        let fleet = Fleet::start(ctx, &fitted.artifact, trace)?;
        Ok((fitted, fleet))
    })?;
    let probes = probes(&fitted, ctx, trace)?;
    let classifier = &fitted.classifier;
    let n_columns = classifier.reference().n_columns();
    let mut stream = connect(&fleet.gateway.addr, n_columns)?;

    let mut out = Outcome::new("launch_open_loop");
    out.setup_s = setup_s;
    let mut rng = Rng::derive(ctx.seed, "launch_schedule");
    let mut next_id = 1u64;
    let off = Trace::new(false);
    let mut phase = |stream: &TcpStream,
                     rate: f64,
                     secs: f64,
                     trace: &Trace,
                     out: &mut Outcome|
     -> Result<Phase, String> {
        let p = run_phase(
            stream, &probes, classifier, rate, secs, &mut rng, next_id, trace,
        )?;
        next_id += p.scheduled;
        out.attempted += p.scheduled;
        out.failed += p.failed + p.overloaded;
        Ok(p)
    };

    // Light load is offered to several fleets in turn, each started afresh:
    // where the scheduler places a fleet's threads on the host's few cores
    // moves its latency by ~15% and stays put for the fleet's life, so a
    // figure over many fleets is steadier than any one fleet.
    let mut lights = Vec::with_capacity(LIGHT_FLEETS);
    for k in 0..LIGHT_FLEETS {
        if k > 0 {
            fleet = Fleet::start(ctx, &fitted.artifact, &off)?;
            stream = connect(&fleet.gateway.addr, n_columns)?;
        }
        // Warm-up: connections, batchers and caches, verified but not reported.
        phase(&stream, LIGHT_QPS, seconds * WARM_SHARE, &off, &mut out)?;
        let secs = seconds * LIGHT_SHARE / LIGHT_FLEETS as f64;
        let light = phase(&stream, LIGHT_QPS, secs, &off, &mut out)?;
        out.lines.push(light.describe(&format!("light, fleet {k}")));
        lights.push(light);
    }
    let light_lat: Vec<&[f64]> = lights.iter().map(|p| p.lat_ms.as_slice()).collect();
    let light_lat = Summary::of_parts(&light_lat, TAIL_PCT);
    // The last fleet also takes the heavy load (and the traced phase).
    let light = lights.last().ok_or("no light phase ran")?;
    let heavy = phase(&stream, HEAVY_QPS, seconds * HEAVY_SHARE, &off, &mut out)?;
    // Peak memory at the reported operating points, before any overload.
    out.children_mb = fleet.peak_mb();
    out.lines.push(heavy.describe("heavy"));
    out.lines.push(format!(
        "lat_p50_ms.light {:.4} ms, lat_p99_ms.light {:.4} ms (medians over {LIGHT_FLEETS} fleets), lat_p50_ms.heavy {:.4} ms, lat_p99_ms.heavy {:.4} ms",
        light_lat.p50,
        light_lat.tail,
        heavy.latency().p50,
        heavy.latency().tail
    ));
    let gen_lag = lights
        .iter()
        .chain([&heavy])
        .map(Phase::gen_lag_p99)
        .fold(0.0, f64::max);
    out.lines.push(format!("gen_lag_p99_ms {gen_lag:.4} ms"));
    if gen_lag > GEN_LAG_LIMIT_MS {
        out.invalid = Some(format!(
            "the generator ran {gen_lag:.2} ms late at p99 (limit {GEN_LAG_LIMIT_MS} ms)"
        ));
    }
    // Reported: latency at the light rate, which CPU stolen by a noisy
    // neighbour moves least, and the rate served at the heavy one.
    out.latency = light_lat;
    out.throughput = heavy.ok as f64 / heavy.busy_s;

    if trace.enabled() {
        let traced = phase(&stream, LIGHT_QPS, seconds * LIGHT_SHARE, trace, &mut out)?;
        out.lines.push(traced.describe("light, traced"));
        out.overhead_pct = Some((traced.latency().p50 / light.latency().p50 - 1.0) * 100.0);
        let rtt = Summary::at(&traced.rtt_us, 99.0);
        out.layers.insert("gateway.rtt_p50_us", rtt.p50);
        out.layers.insert("gateway.rtt_p99_us", rtt.tail);
        out.layers
            .insert("gateway.sched_wait_us", trace.mean_us("client.sched_wait"));
        out.layers.insert(
            "gateway.remote_overhead_us",
            rtt.p50 - trace.median_us("similarity.row"),
        );
        out.layers
            .insert("gateway.inflight_max", traced.inflight_max as f64);
        let phases = || lights.iter().chain([&heavy, &traced]);
        let overloads: u64 = phases().map(|p| p.overloaded).sum();
        let net_errors: u64 = phases().map(|p| p.net_errors).sum();
        out.layers.insert("gateway.overloads", overloads as f64);
        out.layers.insert("gateway.net_errors", net_errors as f64);
    } else {
        // Climb the fixed ladder while each rung meets the limit.
        let rung_s = seconds * LADDER_SHARE / LADDER_QPS.len() as f64;
        let mut max_rate = if heavy.meets_limit() { HEAVY_QPS } else { 0.0 };
        if max_rate > 0.0 {
            for rate in LADDER_QPS {
                let rung = phase(&stream, rate, rung_s, &off, &mut out)?;
                let pass = rung.meets_limit();
                out.lines
                    .push(rung.describe(if pass { "rung, met" } else { "rung, missed" }));
                if !pass {
                    break;
                }
                max_rate = rate;
            }
        }
        out.lines.push(format!(
            "max_rate_qps {max_rate} 1/s (p99 limit {P99_LIMIT_MS} ms)"
        ));
        // A burst far past capacity: replies then arrive at the fleet's
        // capacity, a continuous figure where the ladder is coarse.
        let burst_s = CAPACITY_QPS * seconds * SATURATE_SHARE / SATURATE_QPS;
        let burst = phase(&stream, SATURATE_QPS, burst_s, &off, &mut out)?;
        out.lines.push(burst.describe("saturation burst"));
        out.lines.push(format!(
            "saturation_qps {:.2} 1/s",
            burst.ok as f64 / burst.busy_s
        ));
    }
    if !fleet.all_alive() {
        out.failed += 1;
        out.lines.push("a daemon exited during the run".into());
    }
    Ok(out)
}
