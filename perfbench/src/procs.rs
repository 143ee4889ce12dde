//! The daemons as child processes: spawn, scrape the announce line, keep
//! their stderr with the run's output, read their peak memory, and kill and
//! reap them on every exit path (a dropped [`Daemon`] is killed and waited
//! for, panics included).

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to announce its listening address.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Daemon {
    pub addr: String,
    /// Spawn to announce line.
    pub ready: Duration,
    child: Child,
    pipes: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Start `bin args...` and wait for its `... listening on ADDR ...` line.
    pub fn spawn(bin: &Path, args: &[String], label: &str) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut pipes = Vec::new();
        // Forward stderr line by line, tagged, so it stays with the run.
        if let Some(stderr) = child.stderr.take() {
            let tag = label.to_string();
            pipes.push(forward(stderr, move |line| eprintln!("[{tag}] {line}")));
        }
        let (tx, rx) = mpsc::channel::<String>();
        if let Some(stdout) = child.stdout.take() {
            let tag = label.to_string();
            let mut announced = false;
            pipes.push(forward(stdout, move |line| {
                if !announced && line.contains(" listening on ") {
                    announced = true;
                    let _ = tx.send(line);
                } else {
                    eprintln!("[{tag}] {line}");
                }
            }));
        }
        let mut daemon = Daemon {
            addr: String::new(),
            ready: Duration::ZERO,
            child,
            pipes,
        };
        let line = rx
            .recv_timeout(READY_TIMEOUT)
            .map_err(|_| format!("{label} did not announce a listening address"))?;
        daemon.ready = start.elapsed();
        eprintln!("[{label}] {line}");
        daemon.addr = announced_addr(&line)
            .ok_or_else(|| format!("{label}: cannot parse announce line {line:?}"))?;
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Whether the process has not exited yet.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipes close with the process, which ends the forwarders.
        for pipe in self.pipes.drain(..) {
            let _ = pipe.join();
        }
    }
}

fn forward(
    stream: impl Read + Send + 'static,
    mut on_line: impl FnMut(String) + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for line in BufReader::new(stream).lines() {
            match line {
                Ok(line) => on_line(line),
                Err(_) => return,
            }
        }
    })
}

/// The word after `listening on` in a daemon's announce line.
pub fn announced_addr(line: &str) -> Option<String> {
    let mut words = line.split_whitespace();
    words.find(|&w| w == "on")?;
    words.next().map(str::to_string)
}

/// Peak resident memory (VmHWM) of a process, in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` CPU time so far, in clock ticks: the time a virtual
/// machine's CPUs were runnable but held by the host, which shows when a
/// noisy neighbour, not the program, moved a run's figures.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_the_address_from_announce_lines() {
        let shard = "fhc-shardd listening on 127.0.0.1:40123 serving 46/92 classes \
                     (fingerprint 0x00000000deadbeef) tenants [default]";
        assert_eq!(announced_addr(shard).as_deref(), Some("127.0.0.1:40123"));
        let gw = "fhc-gateway listening on 127.0.0.1:5 fronting 2 workers";
        assert_eq!(announced_addr(gw).as_deref(), Some("127.0.0.1:5"));
        assert_eq!(announced_addr("no address here"), None);
    }

    #[test]
    fn reads_our_own_peak_memory() {
        assert!(vm_hwm_mb("self").is_some_and(|mb| mb > 0.0));
    }
}
