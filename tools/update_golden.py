#!/usr/bin/env python3
"""Rewrites every golden file under tests/golden/ from its bench's stdout.

    python3 tools/update_golden.py build

Each tests/golden/<bench>.txt is replaced by the stdout of <build>/<bench>,
run in <build>/paper/<bench> as its ctest runs it. Only existing golden
files are rewritten; a new file under tests/golden/ is a new paper test
once CMake re-globs the directory. Review `git diff tests/golden` before
committing: a change that moves a row says which rows moved and why.
"""
import glob
import os
import sys

from check_golden import run_bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build = os.path.abspath(sys.argv[1])
    goldens = sorted(glob.glob(os.path.join(ROOT, "tests", "golden", "bench_*.txt")))
    for golden in goldens:
        bench = os.path.splitext(os.path.basename(golden))[0]
        workdir = os.path.join(build, "paper", bench)
        os.makedirs(workdir, exist_ok=True)
        stdout = run_bench(os.path.join(build, bench), cwd=workdir)
        with open(golden, "rb") as f:
            changed = f.read() != stdout
        if changed:
            with open(golden, "wb") as f:
                f.write(stdout)
        print("%s %s" % ("rewrote" if changed else "same   ", os.path.relpath(golden, ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
