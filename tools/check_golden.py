#!/usr/bin/env python3
"""Runs one paper bench and compares its stdout, byte for byte, with a
golden file.

    python3 tools/check_golden.py build/bench_fig6_cost tests/golden/bench_fig6_cost.txt

The bench runs in the current directory (ctest gives each paper test its
own directory under the build tree, so the files a bench writes stay
there), and its stderr passes through. Exits 0 when stdout equals the
golden file; otherwise prints a unified diff from the golden file to the
bench's stdout and exits 1. There is no tolerance: a moved digit is a
moved row. tools/update_golden.py rewrites the golden files.
"""
import difflib
import subprocess
import sys


def run_bench(bench, cwd=None):
    """Returns the bench's stdout; exits 1 if the bench fails."""
    result = subprocess.run([bench], stdout=subprocess.PIPE, cwd=cwd)
    if result.returncode != 0:
        sys.stdout.write("FAIL: %s exited with %d\n" % (bench, result.returncode))
        sys.exit(1)
    return result.stdout


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench, golden = sys.argv[1], sys.argv[2]
    actual = run_bench(bench)
    with open(golden, "rb") as f:
        expected = f.read()
    if actual == expected:
        return 0
    diff = difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(),
        actual.decode("utf-8", "replace").splitlines(),
        fromfile=golden, tofile=bench + " (stdout)", lineterm="")
    for line in diff:
        sys.stdout.write(line + "\n")
    sys.stdout.write("FAIL: stdout (%d bytes) differs from %s (%d bytes)\n"
                     % (len(actual), golden, len(expected)))
    return 1


if __name__ == "__main__":
    sys.exit(main())
