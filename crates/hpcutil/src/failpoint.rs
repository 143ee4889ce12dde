//! Deterministic, zero-cost-when-disabled failpoints.
//!
//! A *failpoint* is a named site in the code where a test harness can
//! inject a fault: an I/O error, a delay, a corrupted or truncated byte
//! stream, a dropped connection. Sites are compiled in only when the
//! `failpoints` cargo feature is on; without it every [`hit`] call is an
//! `#[inline(always)]` `None` and the instrumented code is byte-for-byte
//! the fast path — the release build carries no registry, no atomics, no
//! branches that matter.
//!
//! With the feature on, a schedule is armed with [`configure`] from a spec
//! string (the `--failpoints` flag / `FHC_FAILPOINTS` environment variable
//! of the serving daemons):
//!
//! ```text
//! SPEC     := ITEM (';' ITEM)*
//! ITEM     := SITE '=' ACTION ('@' SCHEDULE)?
//! ACTION   := 'err_io' | 'close_conn' | 'delay:MS' | 'corrupt:IDX' | 'truncate:N'
//! SCHEDULE := ORD (',' ORD)*          -- fire on the given 1-based hits
//!           | 'every:N'               -- fire on every N-th hit
//!           | 'rand:SEED:PCT'         -- fire PCT% of hits, seeded rng
//! ```
//!
//! Examples: `frame.write=corrupt:7@3,7` corrupts byte 7 of the 3rd and
//! 7th frame written; `mux.reader=err_io@rand:42:25` fails a quarter of
//! reader wakeups under a ChaCha8 stream seeded with 42. Schedules are
//! fully deterministic — the `rand` form drives the vendored rng shim from
//! its seed, so a failing chaos round replays exactly from its seed.
//!
//! Site names are **registered**: every name lives in the single [`SITES`]
//! table and [`configure`] rejects a spec naming anything else, so a typo
//! can never silently no-op. The `fhc-lint` rule R7 (`failpoint_named`)
//! enforces the mirror property at the call sites: every [`hit`] call
//! passes a unique string literal present in this table.

/// Every registered failpoint site, one per line. [`configure`] rejects
/// any site not listed here, and fhc-lint rule R7 checks that every
/// [`hit`] call site names exactly one of these entries.
pub const SITES: &[&str] = &[
    "frame.read",
    "frame.write",
    "frame.checksum",
    "mux.writer",
    "mux.reader",
    "remote.handshake",
    "fleet.redial",
    "fleet.hedge",
    "fleet.push_slice",
    "fleet.delta_apply",
    "fleet.cutover",
    "gateway.coalesce",
    "gateway.distribute",
];

/// The fault injected when a site's schedule fires.
///
/// `Delay` never reaches callers: [`hit`] sleeps internally and returns
/// `None`, so instrumented code only ever handles the faults it can map to
/// a typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Behave as if the underlying transport returned an I/O error.
    ErrIo,
    /// Corrupt the byte at the given index of the buffer in flight
    /// (callers reduce the index modulo the buffer length).
    CorruptByte(usize),
    /// Truncate the buffer in flight after the given number of bytes.
    TruncateAfter(usize),
    /// Behave as if the peer closed the connection.
    CloseConn,
}

/// Whether failpoint support was compiled in at all. The serving CI
/// asserts this is `false` under default features (the zero-cost claim).
pub fn compiled() -> bool {
    cfg!(feature = "failpoints")
}

/// `true` while a configured schedule is armed. Purely informational —
/// [`hit`] does its own (cheaper) check.
pub fn is_active() -> bool {
    imp::is_active()
}

/// Arm the failpoint registry from a spec string (grammar in the module
/// docs). Replaces any previous configuration atomically. With the
/// `failpoints` feature compiled out this always returns an error, so
/// daemons can warn that a requested spec cannot take effect.
pub fn configure(spec: &str) -> Result<(), String> {
    imp::configure(spec)
}

/// Disarm every site and clear the registry. A no-op when nothing is
/// armed (or when the feature is compiled out).
pub fn clear() {
    imp::clear()
}

/// Probe the named site: `None` means proceed normally, `Some(fault)`
/// means the site's schedule fired and the caller must inject `fault`.
/// Delay actions sleep here and return `None`.
#[inline(always)]
pub fn hit(site: &'static str) -> Option<Fault> {
    imp::hit(site)
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::Fault;

    pub(super) fn is_active() -> bool {
        false
    }

    pub(super) fn configure(_spec: &str) -> Result<(), String> {
        Err("failpoints are compiled out; rebuild with `--features failpoints`".into())
    }

    pub(super) fn clear() {}

    #[inline(always)]
    pub(super) fn hit(_site: &'static str) -> Option<Fault> {
        None
    }
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{Fault, SITES};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// Armed fast-path flag: `hit` pays one relaxed load while disarmed,
    /// even when the registry lock is busy.
    static ARMED: AtomicBool = AtomicBool::new(false);

    /// What a fired schedule does; `Delay` is handled inside `hit`.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        ErrIo,
        Delay(u64),
        CorruptByte(usize),
        TruncateAfter(usize),
        CloseConn,
    }

    #[derive(Debug)]
    enum Schedule {
        /// Fire on every hit.
        Always,
        /// Fire on the given 1-based hit ordinals.
        Ordinals(Vec<u64>),
        /// Fire on every n-th hit.
        Every(u64),
        /// Fire on `pct`% of hits, driven by a seeded ChaCha8 stream.
        Rand(Box<ChaCha8Rng>, u32),
    }

    impl Schedule {
        fn fires(&mut self, hit_count: u64) -> bool {
            match self {
                Schedule::Always => true,
                Schedule::Ordinals(ordinals) => ordinals.contains(&hit_count),
                Schedule::Every(n) => hit_count % *n == 0,
                Schedule::Rand(rng, pct) => rng.gen_range(0..100u32) < *pct,
            }
        }
    }

    #[derive(Debug)]
    struct SiteState {
        action: Action,
        schedule: Schedule,
        hits: u64,
    }

    fn registry() -> &'static Mutex<HashMap<&'static str, SiteState>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, SiteState>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    pub(super) fn is_active() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    fn parse_action(text: &str) -> Result<Action, String> {
        if let Some(ms) = text.strip_prefix("delay:") {
            let ms = ms
                .parse::<u64>()
                .map_err(|e| format!("bad delay milliseconds {ms:?}: {e}"))?;
            return Ok(Action::Delay(ms));
        }
        if let Some(idx) = text.strip_prefix("corrupt:") {
            let idx = idx
                .parse::<usize>()
                .map_err(|e| format!("bad corrupt byte index {idx:?}: {e}"))?;
            return Ok(Action::CorruptByte(idx));
        }
        if let Some(n) = text.strip_prefix("truncate:") {
            let n = n
                .parse::<usize>()
                .map_err(|e| format!("bad truncate length {n:?}: {e}"))?;
            return Ok(Action::TruncateAfter(n));
        }
        match text {
            "err_io" => Ok(Action::ErrIo),
            "close_conn" => Ok(Action::CloseConn),
            other => Err(format!(
                "unknown failpoint action {other:?} (want err_io, close_conn, \
                 delay:MS, corrupt:IDX, or truncate:N)"
            )),
        }
    }

    fn parse_schedule(text: &str) -> Result<Schedule, String> {
        if let Some(n) = text.strip_prefix("every:") {
            let n = n
                .parse::<u64>()
                .map_err(|e| format!("bad every-N schedule {n:?}: {e}"))?;
            if n == 0 {
                return Err("every:0 would never fire; use at least every:1".into());
            }
            return Ok(Schedule::Every(n));
        }
        if let Some(rest) = text.strip_prefix("rand:") {
            let (seed, pct) = rest
                .split_once(':')
                .ok_or_else(|| format!("bad rand schedule {rest:?}: want rand:SEED:PCT"))?;
            let seed = seed
                .parse::<u64>()
                .map_err(|e| format!("bad rand seed {seed:?}: {e}"))?;
            let pct = pct
                .parse::<u32>()
                .map_err(|e| format!("bad rand percentage {pct:?}: {e}"))?;
            if pct > 100 {
                return Err(format!("rand percentage {pct} exceeds 100"));
            }
            return Ok(Schedule::Rand(
                Box::new(ChaCha8Rng::seed_from_u64(seed)),
                pct,
            ));
        }
        let ordinals = text
            .split(',')
            .map(|ord| {
                let ord = ord
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| format!("bad hit ordinal {ord:?}: {e}"))?;
                if ord == 0 {
                    return Err("hit ordinals are 1-based; 0 never fires".to_string());
                }
                Ok(ord)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Schedule::Ordinals(ordinals))
    }

    pub(super) fn configure(spec: &str) -> Result<(), String> {
        let mut sites: HashMap<&'static str, SiteState> = HashMap::new();
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (site, rest) = item
                .split_once('=')
                .ok_or_else(|| format!("bad failpoint item {item:?}: want SITE=ACTION[@SCHED]"))?;
            let site = site.trim();
            let registered = SITES
                .iter()
                .copied()
                .find(|&name| name == site)
                .ok_or_else(|| format!("unknown failpoint site {site:?}"))?;
            let (action, schedule) = match rest.split_once('@') {
                Some((action, schedule)) => (parse_action(action.trim())?, {
                    parse_schedule(schedule.trim())?
                }),
                None => (parse_action(rest.trim())?, Schedule::Always),
            };
            sites.insert(
                registered,
                SiteState {
                    action,
                    schedule,
                    hits: 0,
                },
            );
        }
        let armed = !sites.is_empty();
        *registry().lock().unwrap_or_else(|p| p.into_inner()) = sites;
        ARMED.store(armed, Ordering::Relaxed);
        Ok(())
    }

    pub(super) fn clear() {
        ARMED.store(false, Ordering::Relaxed);
        registry().lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    pub(super) fn hit(site: &'static str) -> Option<Fault> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let action = {
            let mut sites = registry().lock().unwrap_or_else(|p| p.into_inner());
            let state = sites.get_mut(site)?;
            state.hits += 1;
            let hits = state.hits;
            if !state.schedule.fires(hits) {
                return None;
            }
            state.action
        };
        match action {
            Action::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                None
            }
            Action::ErrIo => Some(Fault::ErrIo),
            Action::CorruptByte(i) => Some(Fault::CorruptByte(i)),
            Action::TruncateAfter(n) => Some(Fault::TruncateAfter(n)),
            Action::CloseConn => Some(Fault::CloseConn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_are_unique_and_sorted_by_layer() {
        let mut seen = std::collections::HashSet::new();
        for site in SITES {
            assert!(seen.insert(site), "duplicate failpoint site {site:?}");
            assert!(
                site.contains('.'),
                "site {site:?} must be layer-qualified (layer.name)"
            );
        }
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn disabled_build_is_inert() {
        assert!(!compiled());
        assert!(!is_active());
        assert!(configure("frame.read=err_io").is_err());
        assert_eq!(hit("frame.read"), None);
        clear();
    }

    #[cfg(feature = "failpoints")]
    mod enabled {
        use super::super::*;
        use std::sync::{Mutex, OnceLock};

        /// The registry is process-global; tests touching it serialize.
        fn guard() -> std::sync::MutexGuard<'static, ()> {
            static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
            LOCK.get_or_init(|| Mutex::new(()))
                .lock()
                .unwrap_or_else(|p| p.into_inner())
        }

        #[test]
        fn ordinal_schedules_fire_on_exact_hits() {
            let _guard = guard();
            configure("frame.read=err_io@2,4").expect("configure");
            assert!(is_active());
            assert_eq!(hit("frame.read"), None);
            assert_eq!(hit("frame.read"), Some(Fault::ErrIo));
            assert_eq!(hit("frame.read"), None);
            assert_eq!(hit("frame.read"), Some(Fault::ErrIo));
            assert_eq!(hit("frame.read"), None);
            // An unconfigured site never fires.
            assert_eq!(hit("frame.write"), None);
            clear();
            assert!(!is_active());
            assert_eq!(hit("frame.read"), None);
        }

        #[test]
        fn every_n_and_always_schedules() {
            let _guard = guard();
            configure("mux.writer=close_conn@every:3; frame.write=corrupt:5").expect("configure");
            assert_eq!(hit("mux.writer"), None);
            assert_eq!(hit("mux.writer"), None);
            assert_eq!(hit("mux.writer"), Some(Fault::CloseConn));
            assert_eq!(hit("frame.write"), Some(Fault::CorruptByte(5)));
            assert_eq!(hit("frame.write"), Some(Fault::CorruptByte(5)));
            clear();
        }

        #[test]
        fn rand_schedules_are_seed_deterministic() {
            let _guard = guard();
            let run = || {
                configure("fleet.cutover=truncate:9@rand:42:50").expect("configure");
                let fired: Vec<bool> = (0..64).map(|_| hit("fleet.cutover").is_some()).collect();
                clear();
                fired
            };
            let first = run();
            let second = run();
            assert_eq!(first, second, "same seed, same schedule");
            assert!(first.iter().any(|&f| f), "50% over 64 hits must fire");
            assert!(!first.iter().all(|&f| f), "and must also skip");
        }

        #[test]
        fn bad_specs_are_rejected_with_reasons() {
            let _guard = guard();
            for bad in [
                "nosuch.site=err_io",
                "frame.read",
                "frame.read=explode",
                "frame.read=delay:abc",
                "frame.read=err_io@every:0",
                "frame.read=err_io@0",
                "frame.read=err_io@rand:1:101",
                "frame.read=err_io@rand:1",
            ] {
                assert!(configure(bad).is_err(), "{bad:?} must be rejected");
            }
            // A rejected spec arms nothing.
            assert!(!is_active());
            // Empty specs are fine (explicit disarm).
            configure("").expect("empty spec disarms");
            assert!(!is_active());
        }
    }
}
