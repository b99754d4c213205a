#!/usr/bin/env python3
"""Gate benchmark regressions against the committed baseline JSON.

Compares a freshly produced BENCH_throughput.json against the baseline
committed at the repo root and fails (exit 1) if any gated speedup dropped
by more than the threshold (default 20%), or if a same-run floor or ceiling
does not hold. Used by the `bench` CI job; run it locally the same way:

    cmake -B build -S . && cmake --build build -j --target bench_throughput
    (cd build && ./bench_throughput)
    python3 tools/check_bench.py --baseline BENCH_throughput.json \
        --current build/BENCH_throughput.json

Only ratio metrics (speedups) are gated against the baseline: absolute
rates vary wildly across runner hardware, but "batched status queries move
N times the statuses of single ones" should hold anywhere. A claim whose
quantity is a count is gated on that count instead, in CEILINGS: the warm
status cache proves each working-set serial once, the snapshot+WAL restart
replays only the log tail, and the incremental dictionary rebuild hashes
only what a batch dirtied, each at its exact count. The time ratios of
those claims divide two noisy timings, so they are reported (INFORMATIONAL)
or held to a portable same-run floor (FLOORS, no baseline needed); CEILINGS
also holds same-run ratios to absolute maximums (e.g. digest gossip must
move <= 0.2x the bytes of full-list exchange). Guard-skipped entries print an explicit `SKIPPED (guard: ...)`
line so bench logs are auditable.

Before comparing, it prints the machine and build each file was measured
on (the JSON's "context" object; "not recorded" for a file without one), so
a log shows whether baseline-compared rows crossed hardware.

A gated metric missing from the *baseline* is reported as new and skipped
(the gate starts holding once the refreshed baseline is committed); a gated
metric missing from the *current* run fails — the bench stopped emitting
something the gate depends on.
"""

import argparse
import json
import sys

# (dotted path, human label).
GATED = [
    ("svc_status.batch_speedup", "batched vs single status RPS over TCP"),
]

# Reported for trend visibility but not gated: on scalar-only runners the
# engine speedup is legitimately 1.0, and the dictionary-update time ratio
# divides two noisy timings (its claim is gated by the exact hash count in
# CEILINGS).
INFORMATIONAL = [
    ("dict_update.speedup", "incremental dictionary rebuild speedup"),
    ("sha256_engine.batch64_speedup", "SHA-256 batch engine speedup"),
    ("sha256_engine.full_rebuild_speedup", "SHA-256 engine full-rebuild speedup"),
]

# Absolute floors, gated against the *current* run only (no baseline
# comparison): these are already ratios of two rates measured in the same
# process on the same hardware, so the floor is portable. Each entry may
# carry a guard (path, minimum): the floor is enforced only when the
# current run's value at the guard path clears the minimum, and reported
# as skipped otherwise. The multi-reactor scaling factor is guarded by
# core count — factor_at_4 measures real parallelism, which a 1- or
# 2-core runner physically cannot produce, so the floor only binds on
# machines with >= 8 hardware threads (the bench records the count in
# svc_status.multicore_scaling.cores).
FLOORS = [
    # Median over the bench's alternating quiet/flooded rounds.
    ("svc_resilience.goodput_ratio", 0.70,
     "compliant goodput under flood vs quiet baseline (quotas on)", None),
    ("svc_status.multicore_scaling.factor_at_4", 2.5,
     "4-reactor aggregate RPS vs 1 reactor",
     ("svc_status.multicore_scaling.cores", 8)),
    ("recovery.mmap_speedup", 3.0,
     "snapshot mmap restore vs CDN cold-start install", None),
    # The claims behind these two ratios are gated by exact counts in
    # CEILINGS (status_cache.warm_misses, recovery.wal_replayed); the ratios
    # read 6.5-10.7 on a shared 4-vCPU VM, so a floor of 3 only catches a
    # path that stopped being faster at all.
    ("status_cache.speedup", 3.0,
     "warm status-cache lookup + memcpy vs prove + encode", None),
    ("recovery.speedup", 3.0,
     "snapshot+WAL restart vs full feed replay", None),
    # The paper-facing client row must stay cold: one Ed25519 verification
    # per validation (the bench runs 20,000), however the memo changes.
    ("client_validation.cold_sig_verifications", 20000,
     "Ed25519 verifications in the cold client row (fresh client each)",
     None),
    # Zipf-shaped status traffic must keep the per-root status cache warm;
    # measured 0.57-0.62 on the smoke and heartbleed presets.
    ("scenario.cache_hit_rate", 0.50,
     "status-cache hit rate under scenario Zipf traffic", None),
]

# Absolute ceilings, the mirror image of FLOORS: same-run ratios that must
# stay *below* a portable bound. Digest gossip must move a fraction of the
# full-list bytes at mesh scale, and the mesh must converge in a bounded
# number of rounds — both are hardware-independent properties of the
# reconciliation protocol, measured on the same schedule in one process.
CEILINGS = [
    # The incremental rebuild's claim is algorithmic: 200 appended batches
    # of 64 serials into 100,000 entries rehash only the dirty leaves and
    # their ancestors. The count is exact on every run and SHA-256 backend
    # (26,798); a rebuild from leaf 0 costs about 42.6M.
    ("dict_update.incremental.sha256_ops", 26798,
     "SHA-256 ops of 200 incremental 64-serial batches into 100k entries",
     None),
    # The warm cache's claim: 100,000 lookups over a 512-serial working set
    # prove and encode each serial once (its first touch) and memcpy the
    # rest. A cache that stopped storing would miss on every lookup.
    ("status_cache.warm_misses", 512,
     "status-cache misses over the warm loop's 100k lookups (512 serials)",
     None),
    # The restart's claim: it adopts the checkpoint and replays only the
    # log tail, the 10 issuances pulled after the checkpoint. A durable RA
    # that never checkpointed would replay all 1,000 periods.
    ("recovery.wal_replayed", 10,
     "WAL records the checkpoint + WAL restart replays (10-period tail)",
     None),
    ("gossip_mesh.bytes_ratio", 0.20,
     "digest-gossip bytes vs full-list bytes at 100 RAs", None),
    ("gossip_mesh.rounds_to_convergence", 12,
     "gossip rounds until every RA holds the full root set", None),
    ("checkpoint.stall_us", 5000,
     "mean freeze stall a background checkpoint imposes on mutators", None),
    ("checkpoint.incremental_bytes_ratio", 0.20,
     "store checkpoint bytes after 1% new entries in one of 64 CAs vs full",
     None),
    # The paper's §V bound: a revocation reaches every client within 2∆
    # (∆ = 10 s in the scenario presets) plus publication margin. Measured
    # p99 ≈ 6.7 s on the heartbleed preset; 25 s means dissemination broke.
    ("scenario.attack_window_p99_s", 25.0,
     "virtual seconds from revocation to first client rejection (p99)", None),
    # The warm client row repeats one status under one signed root that its
    # verified-root memo already holds. The count is exact: any Ed25519
    # verification there means the memo stopped answering repeats.
    ("client_validation.warm_sig_verifications", 0,
     "Ed25519 verifications in the warm client row (memo holds the root)",
     None),
    # The harness proved every verdict against the ground-truth plan; any
    # nonzero count is a correctness bug in the serving plane.
    ("scenario.wrong_verdict", 0,
     "scenario flows answered with the wrong revocation verdict", None),
]


def lookup(doc, path):
    """Float at a dotted path, or None when any component is absent."""
    node = doc
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node)


def describe_context(doc):
    """One line naming the machine and build a bench JSON came from."""
    ctx = doc.get("context")
    if not isinstance(ctx, dict):
        return "not recorded"
    return ", ".join(f"{key}={value}" for key, value in ctx.items())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_throughput.json")
    parser.add_argument("--current", required=True,
                        help="freshly benchmarked BENCH_throughput.json")
    parser.add_argument("--max-drop", type=float, default=0.20,
                        help="allowed fractional drop per gated metric "
                             "(default: 0.20)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    print(f"baseline context: {describe_context(baseline)}")
    print(f"current context:  {describe_context(current)}\n")

    failed = False
    print(f"{'metric':<45} {'baseline':>10} {'current':>10} {'change':>8}")
    for path, label in GATED:
        base = lookup(baseline, path)
        cur = lookup(current, path)
        if cur is None:
            print(f"{path:<45} {'-':>10} {'-':>10} {'':>8}  "
                  f"FAIL (missing from current run)")
            failed = True
            continue
        if base is None:
            print(f"{path:<45} {'-':>10} {cur:>10.2f} {'':>8}  "
                  f"new metric (no baseline yet)")
            continue
        change = (cur - base) / base
        ok = change >= -args.max_drop
        flag = "ok" if ok else f"FAIL (> {args.max_drop:.0%} drop)"
        print(f"{path:<45} {base:>10.2f} {cur:>10.2f} {change:>+7.1%}  {flag}")
        if not ok:
            failed = True

    for path, label in INFORMATIONAL:
        base = lookup(baseline, path)
        cur = lookup(current, path)
        if base is None or cur is None:
            continue
        change = (cur - base) / base
        print(f"{path:<45} {base:>10.2f} {cur:>10.2f} {change:>+7.1%}  info")

    for path, floor, label, guard in FLOORS:
        cur = lookup(current, path)
        if cur is None:
            print(f"{path:<45} {'-':>10} {'-':>10} {'':>8}  "
                  f"FAIL (missing from current run)")
            failed = True
            continue
        if guard is not None:
            guard_path, guard_min = guard
            guard_val = lookup(current, guard_path)
            if guard_val is None or guard_val < guard_min:
                shown = "-" if guard_val is None else f"{guard_val:.0f}"
                print(f"{path:<45} {floor:>10.2f} {cur:>10.2f} {'':>8}  "
                      f"SKIPPED (guard: {guard_path}={shown} < {guard_min})")
                continue
        ok = cur >= floor
        flag = "ok" if ok else f"FAIL (< floor {floor:.2f})"
        print(f"{path:<45} {floor:>10.2f} {cur:>10.2f} {'':>8}  {flag}")
        if not ok:
            failed = True

    for path, ceiling, label, guard in CEILINGS:
        cur = lookup(current, path)
        if cur is None:
            print(f"{path:<45} {'-':>10} {'-':>10} {'':>8}  "
                  f"FAIL (missing from current run)")
            failed = True
            continue
        if guard is not None:
            guard_path, guard_min = guard
            guard_val = lookup(current, guard_path)
            if guard_val is None or guard_val < guard_min:
                shown = "-" if guard_val is None else f"{guard_val:.0f}"
                print(f"{path:<45} {ceiling:>10.2f} {cur:>10.2f} {'':>8}  "
                      f"SKIPPED (guard: {guard_path}={shown} < {guard_min})")
                continue
        ok = cur <= ceiling
        flag = "ok" if ok else f"FAIL (> ceiling {ceiling:.2f})"
        print(f"{path:<45} {ceiling:>10.2f} {cur:>10.2f} {'':>8}  {flag}")
        if not ok:
            failed = True

    if failed:
        print("\nbenchmark regression detected", file=sys.stderr)
        return 1
    print("\nall gated metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
