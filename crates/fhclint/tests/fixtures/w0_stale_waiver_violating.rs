// Fixture: W0 waiver_syntax — stale waivers. Each waiver below is well
// formed but suppresses nothing: the handle is kept, and the code it
// excuses no longer panics.

fn spawn_named(name: &str, f: impl FnOnce() + Send + 'static) {
    let spawned = std::thread::Builder::new()
        .name(name.to_string())
        // fhc-lint: allow(join_or_detach) -- was a bare detach before the handle was bound
        .spawn(f);
    if let Err(e) = spawned {
        eprintln!("could not spawn {name}: {e}");
    }
}

fn first_byte(bytes: &[u8]) -> Option<u8> {
    bytes.first().copied() // fhc-lint: allow(no_panic) -- used to index bytes[0]
}
