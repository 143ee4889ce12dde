//! `fhc-gateway` — a pipelined, batching front door for a shard fleet.
//!
//! Loads a trained-classifier artifact, connects to the `fhc-shardd`
//! workers that serve the same artifact, and listens for serving clients
//! on TCP or a Unix-domain socket. Queries arriving concurrently — from
//! any number of client connections — are coalesced into batched wire
//! frames per shard, so the fleet pays per-frame overhead once per burst
//! instead of once per query. Clients connect with a `gateway:EP` backend
//! spec — a one-shard fleet — and see one worker serving every class.
//!
//! ```text
//! fhc-gateway --artifact model.fhc --listen 127.0.0.1:7000 \
//!     --workers 127.0.0.1:9000,127.0.0.1:9001
//! fhc-gateway --artifact model.fhc --uds /run/fhc/gateway.sock \
//!     --workers unix:/run/fhc/shard0.sock,unix:/run/fhc/shard1.sock
//! ```
//!
//! `--workers EP[,EP...]` is a fleet of replica-less shards in the listed
//! order, the shape a `remote:` backend spec parses to. Every worker must
//! serve the same artifact (fingerprint, geometry, protocol version) and
//! advertise batch scoring; the classes are dealt round-robin over the
//! workers in that order (the partition `fhc-shardd --shard i/n` starts
//! with) and assigned over the wire to any worker advertising another. A
//! lost worker connection is re-dialed on the fleet's backoff schedule.
//! With `--listen` port `0` the chosen port is printed on the `listening
//! on` line, so scripts (and the integration tests) can scrape it.
//!
//! Batch sizing is **adaptive**: each shard's batcher grows its pack
//! target while its queue keeps filling packs and shrinks it back when
//! the burst passes, so an idle gateway answers lone queries without
//! batching delay while a loaded one amortizes framing across big packs.
//! `--max-batch N` caps the adaptive target (it no longer fixes it).

use fhc::serving::TrainedClassifier;
use fhc::shardnet::gateway::{serve_tcp, serve_unix};
use fhc::shardnet::{Endpoint, FleetTopology, Gateway, GatewayOptions};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    artifact: String,
    listen: Option<String>,
    uds: Option<String>,
    workers: Vec<Endpoint>,
    max_batch: usize,
    tenant: Option<String>,
    quotas: Vec<(String, u32)>,
    max_inflight: Option<usize>,
    failpoints: Option<String>,
}

const USAGE: &str = "usage: fhc-gateway --artifact PATH \
     (--listen HOST:PORT | --uds PATH) \
     --workers EP[,EP...] [--max-batch N] [--tenant NAME] \
     [--quota TENANT=RPS ...] [--max-inflight N] [--failpoints SPEC]";

/// Arm the failpoint registry from `--failpoints` (or the
/// `FHC_FAILPOINTS` environment variable; the flag wins). A bad spec is a
/// usage error; a spec handed to a build compiled without the
/// `failpoints` feature warns and serves normally, since the registry is
/// compiled out and nothing could ever fire.
fn arm_failpoints(flag: Option<&str>) -> Result<(), String> {
    let env = std::env::var("FHC_FAILPOINTS").ok();
    let Some(spec) = flag.or(env.as_deref()) else {
        return Ok(());
    };
    if !hpcutil::failpoint::compiled() {
        eprintln!(
            "fhc-gateway: failpoints are compiled out; {spec:?} cannot take effect \
             (rebuild with --features failpoints)"
        );
        return Ok(());
    }
    hpcutil::failpoint::configure(spec).map_err(|e| format!("invalid failpoint spec {spec:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut artifact = None;
    let mut listen = None;
    let mut uds = None;
    let mut workers = None;
    let mut max_batch = GatewayOptions::default().max_batch;
    let mut tenant = None;
    let mut quotas: Vec<(String, u32)> = Vec::new();
    let mut max_inflight = None;
    let mut failpoints = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--artifact" => artifact = Some(iter.next().ok_or("--artifact needs a path")?),
            "--listen" => listen = Some(iter.next().ok_or("--listen needs HOST:PORT")?),
            "--uds" => uds = Some(iter.next().ok_or("--uds needs a socket path")?),
            "--tenant" => tenant = Some(iter.next().ok_or("--tenant needs a tenant name")?),
            "--workers" => {
                let list = iter
                    .next()
                    .ok_or("--workers needs a comma-separated endpoint list")?;
                let parsed = list
                    .split(',')
                    .map(|e| e.trim().parse::<Endpoint>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("invalid --workers {list:?}: {e}"))?;
                workers = Some(parsed);
            }
            "--max-batch" => {
                let value = iter.next().ok_or("--max-batch needs a count")?;
                max_batch = value
                    .parse::<usize>()
                    .map_err(|e| format!("invalid --max-batch {value:?}: {e}"))?;
                if max_batch == 0 {
                    return Err("--max-batch must be at least 1".to_string());
                }
            }
            "--quota" => {
                let spec = iter.next().ok_or("--quota needs TENANT=RPS")?;
                let (tenant, rps) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("invalid --quota {spec:?}: expected TENANT=RPS"))?;
                let rps = rps
                    .parse::<u32>()
                    .map_err(|e| format!("invalid --quota rate {rps:?}: {e}"))?;
                if rps == 0 {
                    return Err("--quota must allow at least 1 request per second".to_string());
                }
                quotas.push((tenant.to_string(), rps));
            }
            "--max-inflight" => {
                let value = iter.next().ok_or("--max-inflight needs a count")?;
                let limit = value
                    .parse::<usize>()
                    .map_err(|e| format!("invalid --max-inflight {value:?}: {e}"))?;
                if limit == 0 {
                    return Err("--max-inflight must be at least 1".to_string());
                }
                max_inflight = Some(limit);
            }
            "--failpoints" => {
                failpoints = Some(iter.next().ok_or("--failpoints needs a spec string")?)
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    let artifact = artifact.ok_or(USAGE)?;
    let workers = workers.ok_or(USAGE)?;
    if workers.is_empty() {
        return Err("--workers needs at least one endpoint".to_string());
    }
    if listen.is_some() == uds.is_some() {
        return Err(format!(
            "exactly one of --listen / --uds is required\n{USAGE}"
        ));
    }
    Ok(Args {
        artifact,
        listen,
        uds,
        workers,
        max_batch,
        tenant,
        quotas,
        max_inflight,
        failpoints,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = arm_failpoints(args.failpoints.as_deref()) {
        eprintln!("fhc-gateway: {msg}");
        return ExitCode::from(2);
    }

    let classifier = match TrainedClassifier::load(&args.artifact) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fhc-gateway: cannot load artifact {}: {e}", args.artifact);
            return ExitCode::FAILURE;
        }
    };
    let reference = classifier.reference_shared();
    let fingerprint = reference.fingerprint();
    let n_classes = reference.n_classes();

    let gateway = match Gateway::connect(
        reference,
        FleetTopology::replica_less(args.workers),
        GatewayOptions {
            max_batch: args.max_batch,
            tenant: args.tenant.clone(),
            quotas: args.quotas.clone(),
            max_inflight: args.max_inflight,
        },
    ) {
        Ok(gateway) => Arc::new(gateway),
        Err(e) => {
            eprintln!("fhc-gateway: cannot connect the shard fleet: {e}");
            return ExitCode::FAILURE;
        }
    };

    use std::io::Write as _;
    let n_workers = gateway.n_shards();
    let tenant = gateway.tenant().to_string();
    let announce = |addr: &str| {
        // Scraped by scripts and the integration tests: keep the shape
        // "fhc-gateway listening on ADDR fronting K workers ..." — new
        // fields are appended so the word positions stay stable.
        println!(
            "fhc-gateway listening on {addr} fronting {n_workers} workers \
             over {n_classes} classes (fingerprint {fingerprint:#018x}) tenant {tenant}",
        );
        let _ = std::io::stdout().flush();
    };

    if let Some(addr) = &args.listen {
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("fhc-gateway: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match listener.local_addr() {
            Ok(local) => announce(&local.to_string()),
            Err(_) => announce(addr),
        }
        serve_tcp(gateway, listener);
    } else if let Some(path) = &args.uds {
        // A stale socket file from a previous run would fail the bind —
        // but only ever unlink an actual socket, so a mistyped `--uds
        // model.fhc` cannot delete a regular file.
        {
            use std::os::unix::fs::FileTypeExt;
            if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
                let _ = std::fs::remove_file(path);
            }
        }
        let listener = match UnixListener::bind(path) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("fhc-gateway: cannot bind {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        announce(&format!("unix:{path}"));
        serve_unix(gateway, listener);
    }
    // The accept loops only return when the listener fails.
    eprintln!("fhc-gateway: listener closed, exiting");
    ExitCode::FAILURE
}
