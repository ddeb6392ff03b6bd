#!/usr/bin/env python3
"""Build and run the loopback end-to-end benchmark of the delayguard server.

Run from the root of the repository:

    python3 perfbench/run.py --workload point_zipf --seed 1 --seconds 30 --trace 0

The benchmark is built from source into $CARGO_TARGET_DIR (default
`.bench_build`) and run with the same four flags. Each workload's parameters
are fixed in `perfbench/src/inputs.rs` and recorded in its `why` in
BENCHMARK.json. The last line of standard output is the JSON result; the
exit code is the benchmark's own (0 only for a correct, valid run).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FLAGS = ("workload", "seed", "seconds", "trace")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def main(argv):
    if len(argv) % 2:
        return fail(f"expected --flag value pairs, got {argv}")
    args = {}
    for flag, value in zip(argv[::2], argv[1::2]):
        if not flag.startswith("--") or flag[2:] not in FLAGS:
            return fail(f"unknown flag {flag}")
        args[flag[2:]] = value
    missing = [f for f in FLAGS if f not in args]
    if missing:
        return fail(f"missing --{' --'.join(missing)}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_NET_OFFLINE"] = "true"
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return fail("build failed")
    exe = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "perfbench")

    cmd = [exe]
    for flag in FLAGS:
        cmd += [f"--{flag}", args[flag]]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
