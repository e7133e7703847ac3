#!/usr/bin/env python3
"""Builds `ipl` and the benchmark from source, then runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 10 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`).  The last
line of stdout is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys


def build(args):
    """Runs one offline release build; its output goes to stderr."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isfile("Cargo.toml"):
        print("run from the root of the ipl repository", file=sys.stderr)
        sys.exit(2)
    build(["--bin", "ipl"])
    build(["--manifest-path", os.path.join(here, "Cargo.toml")])
    release = os.path.join(os.path.abspath(target), "release")
    bench = os.path.join(release, "ipl-perfbench")
    argv = [bench, "--ipl", os.path.join(release, "ipl"), *sys.argv[1:]]
    sys.stdout.flush()
    os.execv(bench, argv)


if __name__ == "__main__":
    main()
