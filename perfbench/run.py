#!/usr/bin/env python3
"""Build the benchmark and run one workload with a single worker thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is built from source with cargo (``CARGO_TARGET_DIR`` is
honoured; it defaults to ``perfbench/target``). ``PP_THREADS=1`` pins the
engine's worker count so results do not depend on the host's core count.
The git revision and the compiler version are passed to the benchmark in
the environment for its run record.
The result is the last line of standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def output_of(cmd):
    """First line a command prints, or "unknown" when it fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = out.stdout.splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else "unknown"


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    # The explicit --git-dir keeps git from searching above the checkout.
    env = dict(
        os.environ,
        PP_THREADS="1",
        PERFBENCH_GIT_REV=output_of(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"]),
        PERFBENCH_RUSTC=output_of(["rustc", "--version"]),
    )
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
