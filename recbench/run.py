#!/usr/bin/env python3
"""Build and run the recpriv benchmark (recbench).

    python3 recbench/run.py --workload analyst_tcp --seed 1 --seconds 20 --trace 0
    python3 recbench/run.py --selftest

Run from the root of a recpriv checkout. The first run configures and builds
recbench/ (which compiles the library from src/) into the build tree, then
every run executes the benchmark binary. Build output goes to stderr; the
binary's stdout is passed through, and its last line is the result JSON.
The build tree is $CARGO_TARGET_DIR when set, else .bench_build, taken
relative to the checkout root; scratch files of a run live under it too.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("analyst_tcp", "bulk_batch", "republish_follow")
RUN_TIMEOUT_S = 170


def fail(message):
    print("recbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (root / "src" / "recpriv.h").is_file():
        fail("no recpriv sources under %s/src; run from a checkout" % root)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "recbench"), "-B", str(build_dir)]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "recbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--latency-limit-ms", type=float, default=20.0,
                        help="p99 limit of analyst_tcp's rate ladder")
    parser.add_argument("--selftest", action="store_true",
                        help="only check the benchmark's own arithmetic")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    root = Path(__file__).resolve().parent.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    binary = build(root, build_root / "recbench")

    if args.selftest:
        command = [str(binary), "--selftest"]
    else:
        workdir = build_root / "work" / ("%s-%d" % (args.workload, os.getpid()))
        command = [str(binary), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", str(workdir),
                   "--latency-limit-ms", repr(args.latency_limit_ms)]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                                   stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = completed.stdout.splitlines()
    if not args.selftest and completed.returncode in (0, 1):
        problem = check_metrics(root, lines, args.trace)
        if problem:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(problem)
    sys.stdout.write(completed.stdout)
    sys.exit(completed.returncode)


def check_metrics(root, lines, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "the last output line is not the result JSON"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in got if k in declared and got[k] != declared[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s" % (
            missing, extra, units)
    return None


if __name__ == "__main__":
    main()
