#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --all [--seconds T]   # every workload, both modes

Builds perfbench/ against ../src into .bench_build/perfbench (CMake,
RelWithDebInfo), then runs one measurement. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. A traced run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<N>.jsonl. A run that crashes or
overruns its deadline is reported as failed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("emb_zipf", "rec_dlrm", "kg_uniform_neg")
# One invocation must finish within 180 s once built.
RUN_DEADLINE_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def git_commit():
    """HEAD's commit, read from .git inside the checkout (no git call, so
    nothing outside the checkout is touched); "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def failure_result(reason, workload, seed):
    print(f"FAIL workload={workload} seed={seed}: {reason}", file=sys.stderr)
    return json.dumps({"correct": False, "attempted": 1, "failed": 1,
                       "metrics": {}})


def run_once(workload, seed, seconds, trace, tamper=None):
    """Runs one measurement; prints its output and returns the exit code."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", git_commit()]
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(SPANS_DIR / f"{workload}-seed{seed}.jsonl")]
    if tamper:
        cmd += ["--tamper", tamper]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_DEADLINE_S, check=False)
    except subprocess.TimeoutExpired as timeout:
        # subprocess.run has killed and reaped the child. Its partial
        # output may arrive as bytes even in text mode.
        partial = timeout.stdout or ""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stdout.write(partial)
        print(failure_result(f"exceeded {RUN_DEADLINE_S} s", workload, seed))
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode in (0, 1):
        return proc.returncode
    if proc.returncode == 2:  # usage error: nothing was measured
        return 2
    print(failure_result(f"exited with status {proc.returncode}", workload,
                         seed))
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", choices=("table", "loss"),
                        help="negative control: perturb every result "
                             "before verification")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload is required unless --all is given")
    if not build():
        return 1
    if not args.all:
        return run_once(args.workload, args.seed, args.seconds, args.trace,
                        args.tamper)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            status |= run_once(workload, args.seed, args.seconds, trace,
                               args.tamper)
    return status


if __name__ == "__main__":
    sys.exit(main())
