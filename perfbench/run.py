#!/usr/bin/env python3
"""Builds and runs the ndq benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-read --seed 1 --seconds 45 --trace 0

The first call configures and builds perfbench/ (which pulls in src/) in
Release mode under .bench_build/perfbench; later calls only rebuild what
changed. The benchmark binary prints a human-readable report and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics. The exit status is nonzero on any output mismatch or error.

NDQ_* variables are removed from the benchmark's environment, so the page
format, optimizer and disk backend are the defaults whatever the caller's
shell sets. TMPDIR points inside .bench_build, so the build and the run
write nothing outside the checkout.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("local-read", "fleet-read", "local-read-write")
RUN_TIMEOUT_S = 170


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NDQ_")}
    env["TMPDIR"] = TMP
    return env


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no ndq sources next to perfbench/ (src/ missing)")
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G",
                          "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "ndq_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=child_env()) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "ndq_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
