#!/usr/bin/env python3
"""Smoke test of the RA benchmark: every workload at tiny size.

    python3 perfbench/smoke_test.py

Checks that
  * the input generator is deterministic (same seed, same digest; another
    seed, another digest);
  * each workload (bulk_cold too) completes with zero wrong verdicts and no
    failed statuses, and prints every end-to-end metric of BENCHMARK.json
    with a positive finite value and its unit;
  * a traced run prints every per-layer metric, its dump re-summarizes to
    the same metric names, and dict.hashes_per_revocation repeats exactly
    for the same seed.
Exits non-zero on the first failed check. Takes about two minutes.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def fail(msg):
    print("FAIL:", msg)
    sys.exit(1)


def run(*args):
    p = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                       text=True)
    if p.returncode != 0:
        fail("%s exited %d\n%s" % (" ".join(args), p.returncode,
                                   p.stderr[-2000:]))
    return p.stdout


def result(*args):
    return json.loads(run(*args).strip().splitlines()[-1])


def check_metrics(res, names, label, positive):
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        fail("%s: correct=%s failed=%s attempted=%s" %
             (label, res["correct"], res["failed"], res["attempted"]))
    got = set(res["metrics"])
    if got != set(names):
        fail("%s: metric names differ: missing %s, extra %s" %
             (label, sorted(set(names) - got), sorted(got - set(names))))
    for name, m in res["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("%s: %s is not a finite number" % (label, name))
        if positive and v <= 0:
            fail("%s: %s = %s is not positive" % (label, name, v))
        if not m.get("unit"):
            fail("%s: %s has no unit" % (label, name))
    print("ok  %s: %d metrics, %d statuses checked, 0 wrong" %
          (label, len(got), res["attempted"]))


def main():
    out = run("--self-test")
    if "FAIL" in out:
        fail("input digest self-test\n" + out)
    print("ok  input digest self-test")

    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layer = [m["name"] for m in SPEC["per_layer"]]
    tiny = ["--seconds", "2", "--size", "tiny"]
    # bulk_cold runs too, though BENCHMARK.json does not gate it.
    workloads = [w["name"] for w in SPEC["workloads"]] + ["bulk_cold"]
    for w in workloads:
        res = result("--workload", w, "--seed", "1", "--trace", "0", *tiny)
        check_metrics(res, e2e, w, positive=True)

    hashes = []
    for _ in range(2):
        res = result("--workload", "revocation_day", "--seed", "5",
                     "--trace", "1", *tiny)
        check_metrics(res, layer, "revocation_day traced", positive=False)
        hashes.append(res["metrics"]["dict.hashes_per_revocation"]["value"])
    if hashes[0] != hashes[1] or hashes[0] <= 0:
        fail("dict.hashes_per_revocation differs for one seed: %s" % hashes)
    print("ok  dict.hashes_per_revocation repeats: %s" % hashes[0])

    dump = os.path.join(ROOT, ".bench_build", "perfbench",
                        "trace-revocation_day.tsv")
    summary = run("--summarize", dump)
    names = {line.split()[0] for line in summary.splitlines() if line.strip()}
    if names != set(layer):
        fail("summarizer names differ from BENCHMARK.json per_layer")
    print("ok  trace dump re-summarizes to %d per-layer metrics" % len(names))
    print("PASS")


if __name__ == "__main__":
    main()
