#!/usr/bin/env python3
"""Build sxqbench from source and run one workload.

    python3 bench/e2e/run.py --workload sel --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark is built with dune
into .bench_build/ (release profile, shared dune cache off, so nothing
is written outside the checkout), then run once.  Its own report is
passed through; the last stdout line is then the summary

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list with --trace 0 and
its per_layer list with --trace 1.  Exits non-zero without a summary
when the build fails, and with status 1 when an answer differs from
the plaintext oracle.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD_DIR = ".bench_build"
TARGET = "bench/e2e/sxqbench.exe"
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", default=10, type=int)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./" + TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("sxqbench: build failed", file=sys.stderr)
        return build.returncode

    exe = os.path.join(ROOT, BUILD_DIR, "default", TARGET)
    run = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        print("sxqbench: run failed with status %d" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    report = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = report["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            print("sxqbench: %s reported in %s, BENCHMARK.json says %s"
                  % (m["name"], got["unit"], m["unit"]), file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": report["ok"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
