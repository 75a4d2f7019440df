#!/usr/bin/env python3
"""Builds and runs the end-to-end stream-server benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload ingest_durable --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The benchmark binary is built from source (perfbench/CMakeLists.txt, which
compiles ../src) under .bench_build/ in the current directory; its data
directories and span files live there too. The last line of standard output
is the result JSON: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    compiled = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                              stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        return None
    binary = os.path.join(build_dir, "e2e_bench")
    return binary if os.path.exists(binary) else None


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    root = os.getcwd()
    build_root = os.path.join(root, ".bench_build")
    binary = build(build_root)
    if binary is None:
        log("perfbench: build failed")
        return 2

    data_root = os.path.join(build_root, "run-%d" % os.getpid())
    cmd = [binary, "--data-root", data_root]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(build_root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--spans-out", os.path.join(
                traces, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))]
        print('# run {"git_sha": "%s", "nproc": %d}'
              % (git_sha(root), os.cpu_count() or 0), flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %ds" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(data_root, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
