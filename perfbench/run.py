#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload audit_from_bytes --seed 42 --seconds 45 --trace 0

Builds the serving daemons (fhc-shardd, fhc-gateway) with the repository's
own release build and the `perfbench` package beside them, then runs the
benchmark binary with the same arguments. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Build artifacts go
to $CARGO_TARGET_DIR (default `.bench_build`). The benchmark runs in a
process group of its own; once it exits, anything left in that group is
killed and waited for, so no daemon outlives a run.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        # The daemons the launch workload drives, from the repository's build.
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "fhc",
         "--bin", "fhc-shardd", "--bin", "fhc-gateway"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--bin-dir", release, "--work-dir", os.path.join(target, "perfbench")]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # Daemons are children of the benchmark; if it died without reaping
        # them they are still in its process group.
        if group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while group_alive(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
    sys.exit(code)


if __name__ == "__main__":
    main()
