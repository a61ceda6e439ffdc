#!/usr/bin/env python3
"""Build and run the simulator benchmark on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload zygos-loads --seed 1 --seconds 40 --trace 0

It builds perfbench/bench.exe with dune, runs the measurement, and
prints the benchmark's JSON result as the last line of standard output.
--trace 1 also writes the traced run's spans to perfbench/_out/. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["zygos-loads", "ix-loads", "rack"]
BUILD_DIR = "_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join("perfbench", "_out")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the repository root: dune-project and lib/ not found")

    # Keep everything the build writes inside the checkout: no shared
    # dune cache, and temporary files under perfbench/_out.
    tmp = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", DUNE_BUILD_DIR=BUILD_DIR,
               TMPDIR=tmp, XDG_CACHE_HOME=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return fail(f"build failed (exit {build.returncode})")

    spans = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return fail(f"bench.exe failed (exit {run.returncode})")
    print(json.dumps(json.loads(lines[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
