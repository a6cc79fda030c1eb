#!/usr/bin/env python3
"""Build and run the SDS-Sort benchmark (perfbench/sds_bench.cpp).

Usage, from the root of the repository:
  python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                           [--trace 0|1]

Workloads: kernel-bound, runtime-bound, skew-stable (perfbench/README.md).
The driver is configured and built with CMake under $CARGO_TARGET_DIR
(default .bench_build) before every run; the rebuild is a no-op when
nothing changed. The last line of standard output is the run's JSON result.
A traced run (--trace 1) also writes its spans to
<build dir>/spans-<workload>-<seed>.jsonl.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1  # hold-out seed for re-checking gain claims: 7919
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build sds_bench; build output goes to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "sds_bench", "-j", "3"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sds_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["kernel-bound", "runtime-bound", "skew-stable"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(ROOT, target)
    binary = build(os.path.join(out_dir, "perfbench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]

    sys.stdout.flush()
    # A terminated runner still stops the benchmark (the except below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
