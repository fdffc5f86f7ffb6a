#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `repro` (the repository's own binary, which the sharded, TCP and
served tiers run as subprocesses) and the `perfbench` crate next to this
file, both in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs `perfbench`. Build output goes to stderr; the
last line of stdout is the result object. Any build or run failure exits
non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys
import time


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=1500)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build failed: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--repro", os.path.join(release, "repro"),
           "--out", os.path.join(here, "out")]
    # Its own session, so that every process it starts (worker, peer and
    # daemon processes) can be stopped together even if it dies first.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175 s", file=sys.stderr)
        code = 1
    finally:
        stop_group(proc)
    return code


def stop_group(proc):
    """Kill what is left of the run's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
