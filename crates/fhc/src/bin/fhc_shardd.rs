//! `fhc-shardd` — a shard worker daemon for distributed similarity serving.
//!
//! Loads a trained-classifier artifact, builds the prepared similarity
//! index over its reference set, and answers score requests for a class
//! partition over TCP or a Unix-domain socket. A serving frontend opens the
//! same artifact with a fleet backend (`remote:EP[,EP...]`, `gateway:EP`
//! or `fleet:...` on the command line) and fans every query out across the
//! running daemons.
//!
//! ```text
//! fhc-shardd --artifact model.fhc --listen 127.0.0.1:0
//! fhc-shardd --artifact model.fhc --listen 127.0.0.1:9000 --shard 0/2
//! fhc-shardd --artifact model.fhc --uds /run/fhc/shard0.sock --classes 0,3,7
//! fhc-shardd --diskless --listen 127.0.0.1:9000
//! ```
//!
//! `--shard i/n` serves shard `i` of the round-robin partition a fleet
//! deals across its shards in order, so `remote:` (or `fhc-gateway
//! --workers`) over `--shard 0/n .. n-1/n` daemons listed in order needs
//! no reassignment; `--classes` names explicit class ids; with neither, the
//! daemon serves every class. Every client — a fleet backend or the
//! gateway's shard side — assigns its own partition over the wire either
//! way. Each connection is served by one loop,
//! `TenantHost::serve_requests`. With
//! `--listen` port `0` the chosen port is printed on the `listening on`
//! line, so scripts (and the integration tests) can scrape it.
//!
//! `--diskless` starts with **no artifact at all**: the daemon advertises
//! fingerprint `0` and waits for a fleet client to seed it over the wire
//! with per-class reference slices (`PushSlice` frames). It then holds only
//! its partition's samples in memory — the deployment mode for workers with
//! no shared filesystem. Artifact-loaded daemons accept pushes too, which
//! is how a `fleet:` client rolls a worker forward to a new artifact in
//! place; `remote:` and `gateway:` clients, and `fhc-gateway`, refuse a
//! daemon holding another artifact instead.
//!
//! **Multi-tenant serving**: `--tenant NAME=PATH` registers an extra
//! artifact under the tenant id `NAME`, and `--tenant NAME` (no path)
//! registers a diskless tenant slot, each repeatable:
//!
//! ```text
//! fhc-shardd --artifact shared.fhc --tenant acme=acme.fhc --tenant beta \
//!     --listen 127.0.0.1:9000
//! ```
//!
//! `--artifact` / `--diskless` name the **default** tenant. A client
//! selects its tenant in the handshake (`tenant=NAME` in the backend
//! spec); one selecting an unregistered tenant is refused with a typed
//! error naming the tenants this daemon serves. Each tenant's reference
//! set evolves independently — a push (full or delta) to one tenant never
//! disturbs another.

use fhc::backend::round_robin_partition;
use fhc::serving::TrainedClassifier;
use fhc::shardnet::worker::{serve_host_tcp, serve_host_unix};
use fhc::shardnet::{ShardWorker, TenantHost};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    artifact: Option<String>,
    diskless: bool,
    /// Extra `(tenant, artifact path)` slots; `None` paths are diskless.
    tenants: Vec<(String, Option<String>)>,
    listen: Option<String>,
    uds: Option<String>,
    classes: Option<Vec<usize>>,
    shard: Option<(usize, usize)>,
    failpoints: Option<String>,
}

const USAGE: &str = "usage: fhc-shardd (--artifact PATH | --diskless | --tenant NAME[=PATH]) \
     (--listen HOST:PORT | --uds PATH) \
     [--classes A,B,... | --shard I/N] [--tenant NAME[=PATH] ...] [--failpoints SPEC]";

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
            "fhc-shardd: failpoints are compiled out; {spec:?} cannot take effect \
             (rebuild with --features failpoints)"
        );
        return Ok(());
    }
    hpcutil::failpoint::configure(spec).map_err(|e| format!("invalid failpoint spec {spec:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut artifact = None;
    let mut diskless = false;
    let mut tenants: Vec<(String, Option<String>)> = Vec::new();
    let mut listen = None;
    let mut uds = None;
    let mut classes = None;
    let mut shard = None;
    let mut failpoints = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--artifact" => artifact = Some(iter.next().ok_or("--artifact needs a path")?),
            "--diskless" => diskless = true,
            "--tenant" => {
                let spec = iter.next().ok_or("--tenant needs NAME or NAME=PATH")?;
                let (name, path) = match spec.split_once('=') {
                    Some((name, path)) => (name.to_string(), Some(path.to_string())),
                    None => (spec, None),
                };
                tenants.push((name, path));
            }
            "--listen" => listen = Some(iter.next().ok_or("--listen needs HOST:PORT")?),
            "--uds" => uds = Some(iter.next().ok_or("--uds needs a socket path")?),
            "--classes" => {
                let list = iter
                    .next()
                    .ok_or("--classes needs a comma-separated list")?;
                let parsed = list
                    .split(',')
                    .map(|c| c.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("invalid --classes {list:?}: {e}"))?;
                classes = Some(parsed);
            }
            "--shard" => {
                let spec = iter.next().ok_or("--shard needs I/N")?;
                let (i, n) = spec
                    .split_once('/')
                    .ok_or_else(|| format!("invalid --shard {spec:?}: expected I/N"))?;
                let i = i
                    .parse::<usize>()
                    .map_err(|e| format!("invalid shard index: {e}"))?;
                let n = n
                    .parse::<usize>()
                    .map_err(|e| format!("invalid shard count: {e}"))?;
                if n == 0 || i >= n {
                    return Err(format!("shard index {i} out of range for {n} shards"));
                }
                shard = Some((i, n));
            }
            "--failpoints" => {
                failpoints = Some(iter.next().ok_or("--failpoints needs a spec string")?)
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    if diskless && artifact.is_some() {
        return Err(format!(
            "--artifact and --diskless are mutually exclusive\n{USAGE}"
        ));
    }
    if !diskless && artifact.is_none() && tenants.is_empty() {
        return Err(format!(
            "one of --artifact / --diskless / --tenant is required\n{USAGE}"
        ));
    }
    if classes.is_some() || shard.is_some() {
        if diskless {
            return Err("--diskless serves whatever partition is pushed to it; \
                 --classes / --shard do not apply"
                .to_string());
        }
        if artifact.is_none() {
            return Err(
                "--classes / --shard partition the default tenant's --artifact only".to_string(),
            );
        }
    }
    if listen.is_some() == uds.is_some() {
        return Err(format!(
            "exactly one of --listen / --uds is required\n{USAGE}"
        ));
    }
    if classes.is_some() && shard.is_some() {
        return Err("--classes and --shard are mutually exclusive".to_string());
    }
    Ok(Args {
        artifact,
        diskless,
        tenants,
        listen,
        uds,
        classes,
        shard,
        failpoints,
    })
}

/// Load an artifact and build its serving worker, optionally restricted
/// to a class partition (`--classes` / `--shard`).
fn load_worker(
    path: &str,
    classes: &Option<Vec<usize>>,
    shard: Option<(usize, usize)>,
) -> Result<ShardWorker, String> {
    let classifier =
        TrainedClassifier::load(path).map_err(|e| format!("cannot load artifact {path}: {e}"))?;
    let reference = classifier.reference_shared();
    let n_classes = reference.n_classes();
    let classes = match (classes, shard) {
        (Some(list), _) => list.clone(),
        (None, Some((i, n))) => round_robin_partition(n_classes, n).swap_remove(i),
        (None, None) => (0..n_classes).collect(),
    };
    ShardWorker::new(reference, classes).map_err(|e| e.to_string())
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
        eprintln!("fhc-shardd: {msg}");
        return ExitCode::from(2);
    }

    // The default tenant comes from --artifact / --diskless; every
    // --tenant NAME[=PATH] adds an independent slot. A diskless slot has
    // no reference until a fleet client pushes one: it announces 0/0
    // classes under fingerprint 0 and waits.
    let mut host = TenantHost::new();
    let default_worker = if args.diskless {
        Some(None)
    } else if let Some(path) = &args.artifact {
        match load_worker(path, &args.classes, args.shard) {
            Ok(worker) => Some(Some(worker)),
            Err(e) => {
                eprintln!("fhc-shardd: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if let Some(initial) = default_worker {
        if let Err(e) = host.register(fhc::shardnet::wire::DEFAULT_TENANT, initial) {
            eprintln!("fhc-shardd: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (name, path) in &args.tenants {
        let initial = match path {
            // Tenant artifacts always serve all their classes; --classes /
            // --shard partition the default tenant only.
            Some(path) => match load_worker(path, &None, None) {
                Ok(worker) => Some(worker),
                Err(e) => {
                    eprintln!("fhc-shardd: tenant {name}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        if let Err(e) = host.register(name, initial) {
            eprintln!("fhc-shardd: {e}");
            return ExitCode::FAILURE;
        }
    }
    let tenant_list = host.served_list();
    // The announce line reports the slot a tenant-unaware client would be
    // greeted with (the default tenant when registered, else the first).
    let (served, n_classes, fingerprint) = host
        .initial_slot()
        .and_then(|(_, slot)| {
            slot.worker().map(|w| {
                (
                    w.classes().len(),
                    w.reference().n_classes(),
                    w.reference().fingerprint(),
                )
            })
        })
        .unwrap_or_default();
    let host = Arc::new(host);

    use std::io::Write as _;
    let announce = |addr: &str| {
        // Scraped by scripts and the integration tests: keep the shape
        // "fhc-shardd listening on ADDR serving K/N classes ..." — new
        // fields are appended so the word positions stay stable.
        println!(
            "fhc-shardd listening on {addr} serving {served}/{n_classes} classes \
             (fingerprint {fingerprint:#018x}) tenants [{tenant_list}]",
        );
        let _ = std::io::stdout().flush();
    };

    if let Some(addr) = &args.listen {
        let listener = match TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("fhc-shardd: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match listener.local_addr() {
            Ok(local) => announce(&local.to_string()),
            Err(_) => announce(addr),
        }
        serve_host_tcp(host, listener);
    } else if let Some(path) = &args.uds {
        // A stale socket file from a previous run would fail the bind —
        // but only ever unlink an actual socket, so a mistyped `--uds
        // model.fhc` cannot delete a regular file. (A *live* socket is
        // also unlinked; the OS cannot distinguish stale from live, and
        // the operator explicitly asked for this path.)
        {
            use std::os::unix::fs::FileTypeExt;
            if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
                let _ = std::fs::remove_file(path);
            }
        }
        let listener = match UnixListener::bind(path) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("fhc-shardd: cannot bind {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        announce(&format!("unix:{path}"));
        serve_host_unix(host, listener);
    }
    // The accept loops only return when the listener fails.
    eprintln!("fhc-shardd: listener closed, exiting");
    ExitCode::FAILURE
}
