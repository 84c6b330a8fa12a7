#!/usr/bin/env python3
"""Build and run the GraphABCD end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload lj-async --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only
re-check the build.  Generated inputs go to .bench_work/ and are removed
after the run; traced runs keep their Chrome trace in .bench_work/traces/.

The last line of standard output is the benchmark's JSON result.  The
script exits non-zero, without a result line, when the program sources
are missing, the build fails, or the benchmark does not finish in time.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("lj-async", "lj-accum-packed", "serve-mix")
# Time a run may take beyond its measured phases: input generation,
# set-ups, warm-up and the host probe.
RUN_ALLOWANCE_S = 100


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_id():
    """Git commit when available, plus a digest of src/ (always)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = ""
    # Only this tree's own repository: never a parent directory's.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "%s/src-%s" % (commit or "none", digest.hexdigest()[:12])


def build():
    """Configure and build abcd_perfbench; returns the binary path."""
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "abcd_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    return os.path.join(build_dir, "abcd_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources: expected src/ beside perfbench/ in %s"
            % ROOT)
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 3

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, "%s-%d-%d"
                        % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--commit", source_id()]
    if args.trace:
        traces = os.path.join(work_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")

    # A traced run measures an untraced and a traced phase.
    timeout = RUN_ALLOWANCE_S + (2 if args.trace else 1) * args.seconds
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish within %d s" % timeout)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)

    try:
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    if done.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(done.stdout)
        log("benchmark failed (exit %d)" % done.returncode)
        return 5
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
