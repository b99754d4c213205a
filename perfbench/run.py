#!/usr/bin/env python3
"""Builds the RA benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload handshake --seed 1 --seconds 10 --trace 0

Workloads: handshake, bulk_cold, revocation_day (see perfbench/README.md).
The library and the benchmark are compiled with CMake (Release) into
.bench_build/perfbench, so the first run of a checkout builds (about 30 s
on 4 cores) and later runs only re-check the build. Every argument is
passed to the benchmark binary; the last line of its stdout is the JSON
result. Exits non-zero, without a result, when the build or the run fails.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ritm_perfbench")
RUN_TIMEOUT_S = 175


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "ritm_perfbench"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return False
    return True


def source_sha256():
    """Digest of the measured sources (the checkout need not be a git repo)."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    if not build():
        return 2
    env = dict(os.environ,
               PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_SHA256=source_sha256())
    cmd = [BINARY] + sys.argv[1:] + ["--out-dir", BUILD]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4


if __name__ == "__main__":
    sys.exit(main())
