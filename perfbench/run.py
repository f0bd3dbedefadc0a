#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/wcmbench).

Run from the repository root:

    python3 perfbench/run.py --workload itc99_campaign --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke

Configures and builds perfbench/CMakeLists.txt (which compiles ../src) into
.bench_build/perfbench, then runs one workload in-process. Build output goes
to stderr; the benchmark's own output, ending in one JSON line, to stdout.
Every argument is passed through to the binary (see perfbench/README.md);
`--workload all` runs each workload untraced and traced in turn.
"""
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "wcmbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "wcmbench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def git_sha():
    # Only the checkout's own repository; never a parent directory's.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


WORKLOADS = ("itc99_campaign", "measured_atpg", "scale_100k")
CHILD = None


def forward(signum, _frame):
    if CHILD is not None:
        CHILD.send_signal(signum)


def run_binary(args, sha, capture):
    """Runs wcmbench; returns (exit code, last stdout line when captured)."""
    global CHILD
    sys.stdout.flush()
    CHILD = subprocess.Popen([BINARY, *args, "--git-sha", sha],
                             stdout=subprocess.PIPE if capture else None, text=True)
    last = ""
    if capture:
        for line in CHILD.stdout:
            sys.stdout.write(line)
            last = line.strip() or last
    code = CHILD.wait()
    CHILD = None
    return code, last


def without(args, flag):
    """`args` minus `flag` and its value."""
    out, skip = [], False
    for a in args:
        if skip:
            skip = False
        elif a == flag:
            skip = True
        else:
            out.append(a)
    return out


def main():
    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args, sha = sys.argv[1:], git_sha()
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else ""
    if workload != "all":
        return run_binary(args, sha, capture=False)[0]
    # Every workload in its own process (peak RSS stays per workload), first
    # untraced, then traced; one summary line at the end.
    rest = without(without(args, "--workload"), "--trace")
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, last = run_binary(["--workload", workload, "--trace", trace, *rest], sha,
                                    capture=True)
            try:
                result = json.loads(last)
            except ValueError:
                result = {"correct": False, "attempted": 0, "failed": 0}
            correct = correct and code == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
