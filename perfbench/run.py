#!/usr/bin/env python3
"""Builds and runs the dbpc reference benchmark (see perfbench/README.md).

Run from the root of a dbpc checkout:

    python3 perfbench/run.py --workload migrate --seed 1 --seconds 15 --trace 0

The first run configures and builds `dbpcbench` and `dbpcd` from source into
the build directory ($CARGO_TARGET_DIR when set, else .bench_build); later
runs rebuild incrementally. Build output goes to stderr. dbpcbench's
stdout is passed through unchanged; its last line is the JSON result. The
exit status is dbpcbench's: 0 only when every correctness check passed.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve-zipf", "convert-cold", "migrate")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_digest(root):
    """SHA-256 over every file the benchmark builds from, for the stamp."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_stamp(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest(root)


def build(root, build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    generated = [os.path.join(build_dir, name)
                 for name in ("build.ninja", "Makefile")]
    if not any(os.path.exists(path) for path in generated):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", build_dir, "--target", "dbpcbench",
               "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    if not build(root, build_dir):
        log("build failed")
        return 2

    bin_dir = os.path.join(build_dir, "bin")
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(bin_dir, "dbpcbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--dbpcd", os.path.join(bin_dir, "dbpcd"),
        "--work-dir", work_dir,
        "--commit", commit_stamp(root),
    ]
    # Own process group, so a timeout takes the daemon down with dbpcbench.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    if code < 0:
        log("benchmark killed by signal %d" % -code)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
