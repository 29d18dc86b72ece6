#!/usr/bin/env python3
"""CI perf-regression gate over the --quick bench JSON artifacts.

Compares the deterministic *counter* metrics of a fresh quick bench run
(recomputation ratios, hierarchy preservation) against a committed
baseline with a relative tolerance, and fails the job on regression.
Absolute wall-clock fields are deliberately ignored — CI runners are too
noisy — but same-run relative times are gated: the peel kind's
flat-vs-walk speedup (invoked with a wider tolerance that then applies to
all of that kind's metrics) and the service kind's κ stage against a cold
peel of the same space (a hard requirement computed from the fresh run).
Correctness flags (kappa_exact, converged, kappa_identical,
counters_match) are hard failures.

Usage:
  bench_gate.py compare --kind frontier \
      --baseline ci/bench_baseline_frontier.json \
      --fresh target/BENCH_frontier.quick.json [--tolerance 0.15]
  bench_gate.py compare --kind service \
      --baseline ci/bench_baseline_service.json \
      --fresh target/BENCH_service.quick.json [--tolerance 0.15]
  bench_gate.py selftest

Exit status: 0 = no regression, 1 = regression (or invalid input).
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def extract_frontier(doc):
    """Higher-is-better counters of the frontier ablation."""
    hard_failures = []
    for run in doc.get("runs", []):
        if not run.get("kappa_exact", False):
            hard_failures.append(f"run {run.get('space')}/{run.get('mode')} lost kappa exactness")
        if not run.get("converged", False):
            hard_failures.append(f"run {run.get('space')}/{run.get('mode')} did not converge")
    metrics = {}
    for row in doc.get("frontier_vs_full_scan", []):
        metrics[f"frontier_ratio[{row['space']}]"] = float(row["ratio"])
    return metrics, hard_failures


# The update's kappa stage (the re-peel of the spliced snapshot) may take
# at most this multiple of a cold peel of the same space.
REFRESH_VS_PEEL_BOUND = 1.1


def extract_service(doc):
    """Requirements and counters of the serving bench.

    Hard requirement, computed from the fresh run alone: per space, the
    median over the update batches of the kappa stage's wall time
    (refresh_us) divided by a cold peel of the same post-batch space
    measured in the same run (cold_peel_us) must stay within
    REFRESH_VS_PEEL_BOUND, reported as a capped "requirement met" metric
    (portable across machines, like the concurrent bench). The median
    keeps one descheduled batch from failing the gate.

    Higher-is-better counter: the hierarchy repair's mean preserved-node
    fraction (how much of the forest each repair grafted back instead of
    rebuilding)."""
    hard_failures = []
    ratios = defaultdict(list)
    for row in doc.get("refreshes", []):
        ratios[row["space"]].append(float(row["refresh_us"]) / max(float(row["cold_peel_us"]), 1.0))
    if not ratios:
        hard_failures.append("service: no refresh rows to gate the kappa stage on")
    metrics = {}
    for space, values in sorted(ratios.items()):
        ratio = statistics.median(values)
        if ratio > REFRESH_VS_PEEL_BOUND:
            hard_failures.append(
                f"service {space}: kappa stage at {ratio:.2f}x a cold peel of the same space "
                f"exceeds the {REFRESH_VS_PEEL_BOUND}x bound"
            )
        metrics[f"refresh_vs_peel_requirement_met[{space}]"] = min(
            REFRESH_VS_PEEL_BOUND / max(ratio, 1e-9), 1.0
        )
    preserved = defaultdict(list)
    for row in doc.get("hierarchy", []):
        preserved[row["space"]].append(float(row["preserved_fraction"]))
    for space, values in sorted(preserved.items()):
        metrics[f"hierarchy_preserved_fraction[{space}]"] = sum(values) / len(values)
    return metrics, hard_failures


def extract_peel(doc):
    """Counters and ratios of the exact-path peeling bench.

    Hard failures: any engine disagreeing on the exact decomposition
    (kappa_identical) or the flat/walk work counters diverging
    (counters_match) — both are determinism pins the bench itself asserts
    and re-reports here. Gated metrics: the flat-vs-walk speedup on the
    container-heavy spaces (core's native layout is already CSR, its
    near-1 ratio would only gate noise), plus the deterministic work
    counters (containers scanned, bucket moves) as drift pins."""
    hard_failures = []
    metrics = {}
    for row in doc.get("spaces", []):
        space = row.get("space")
        if not row.get("kappa_identical", False):
            hard_failures.append(f"peel {space}: engines disagree on the exact decomposition")
        if not row.get("counters_match", False):
            hard_failures.append(f"peel {space}: work counters diverged across engines")
        if space != "core":
            metrics[f"peel_speedup_flat_vs_walk[{space}]"] = float(row["speedup_flat_vs_walk"])
        # "pin:" metrics are checked two-sided: the counters are
        # graph-determined constants, so drift in EITHER direction (more
        # work or less) is a regression, not just a drop.
        metrics[f"pin:peel_containers_scanned[{space}]"] = float(row["containers_scanned"])
        metrics[f"pin:peel_bucket_moves[{space}]"] = float(row["bucket_moves"])
    return metrics, hard_failures


def extract_telemetry(doc):
    """Overhead ceilings of the telemetry primitives.

    Each result row carries its measured ns/op and a pinned ceiling. The
    ceiling check is a hard failure — a counter add or a disabled span
    guard blowing through a 10-50x headroom ceiling means a lock, an
    allocation or a syscall crept into a hot path, not CI noise. The
    ceilings themselves are gated as two-sided "pin:" metrics so they
    cannot be quietly loosened without touching the committed baseline."""
    hard_failures = []
    metrics = {}
    for row in doc.get("results", []):
        name = row["name"]
        ns = float(row["ns_per_op"])
        ceiling = float(row["ceiling_ns"])
        if ns > ceiling:
            hard_failures.append(
                f"telemetry {name}: {ns:.1f} ns/op exceeds its {ceiling:.0f} ns ceiling"
            )
        metrics[f"pin:telemetry_ceiling_ns[{name}]"] = ceiling
    return metrics, hard_failures


def extract_concurrent(doc):
    """Requirements of the epoch-published concurrent serving bench.

    All checks are core-aware and computed from the fresh document alone
    (hard failures, not baseline-relative): max-thread lookup throughput
    under a churning writer must scale to at least min(4.0, 0.6 * cores)
    of single-thread, and read p99 during refresh must stay within 2x of
    quiescent — the latter only gated on >= 2 cores, where a reader can
    actually overlap the writer instead of timesharing with it. A reader
    observing a non-monotone epoch is a correctness failure.

    The baseline-relative metrics are capped at 1.0 ("requirement met
    with headroom") so the soft gate is portable across machines with
    different core counts; the raw scaling is reported ungated."""
    hard_failures = []
    cores = float(doc.get("cores", 1))
    required = min(4.0, 0.6 * cores)
    scaling = float(doc.get("scaling_max_vs_1", 0.0))
    if not doc.get("reads_monotone", False):
        hard_failures.append("concurrent: a reader observed a non-monotone epoch")
    if scaling < required:
        hard_failures.append(
            f"concurrent: {scaling:.2f}x max-thread scaling under churn is below the "
            f"{required:.2f}x floor for {cores:.0f} cores"
        )
    metrics = {"concurrent_scaling_requirement_met": min(scaling / max(required, 1e-9), 1.0)}
    p99 = doc.get("p99", {})
    ratio = float(p99.get("ratio", float("inf")))
    if cores >= 2:
        if ratio > 2.0:
            hard_failures.append(
                f"concurrent: read p99 during refresh is {ratio:.2f}x quiescent (bound 2.0x)"
            )
        metrics["concurrent_p99_requirement_met"] = min(2.0 / max(ratio, 1e-9), 1.0)
    return metrics, hard_failures


EXTRACTORS = {
    "frontier": extract_frontier,
    "service": extract_service,
    "peel": extract_peel,
    "telemetry": extract_telemetry,
    "concurrent": extract_concurrent,
}


def compare(kind, baseline_doc, fresh_doc, tolerance):
    """Returns a list of failure strings (empty = gate passes)."""
    extract = EXTRACTORS[kind]
    base_metrics, _ = extract(baseline_doc)
    fresh_metrics, hard_failures = extract(fresh_doc)
    failures = list(hard_failures)
    if not base_metrics:
        failures.append(f"baseline for kind {kind!r} contains no gated metrics")
    for name, base in sorted(base_metrics.items()):
        fresh = fresh_metrics.get(name)
        if fresh is None:
            failures.append(f"{name}: missing from fresh run (baseline {base:.3f})")
            continue
        if name.startswith("pin:"):
            # Pinned metric: deterministic value, regression in either
            # direction (the tolerance is only slack for intentional
            # baseline refreshes landing in the same commit).
            lo, hi = base * (1.0 - tolerance), base * (1.0 + tolerance)
            ok = lo <= fresh <= hi
            verdict = "ok" if ok else "DRIFT"
            print(f"  {name}: fresh {fresh:.3f} vs baseline {base:.3f} (band {lo:.3f}..{hi:.3f}) {verdict}")
            if not ok:
                failures.append(
                    f"{name}: {fresh:.3f} outside {lo:.3f}..{hi:.3f} (baseline {base:.3f}, tol {tolerance:.0%})"
                )
            continue
        floor = base * (1.0 - tolerance)
        verdict = "ok" if fresh >= floor else "REGRESSION"
        print(f"  {name}: fresh {fresh:.3f} vs baseline {base:.3f} (floor {floor:.3f}) {verdict}")
        if fresh < floor:
            failures.append(
                f"{name}: {fresh:.3f} fell below {floor:.3f} (baseline {base:.3f}, tol {tolerance:.0%})"
            )
    for name in sorted(set(fresh_metrics) - set(base_metrics)):
        print(f"  {name}: {fresh_metrics[name]:.3f} (new metric, not gated)")
    return failures


def selftest():
    """The gate must pass on identical input and fail on a regressed copy."""
    frontier = {
        "runs": [{"space": "s", "mode": "frontier", "kappa_exact": True, "converged": True}],
        "frontier_vs_full_scan": [
            {"space": "(1,2) k-core", "ratio": 5.0},
            {"space": "(2,3) k-truss", "ratio": 3.0},
        ],
    }
    service = {
        "refreshes": [
            {"space": "truss", "refresh_us": 1500, "cold_peel_us": 1600.0},
            {"space": "truss", "refresh_us": 1700, "cold_peel_us": 1600.0},
            {"space": "truss", "refresh_us": 5000, "cold_peel_us": 1600.0},  # descheduled once
            {"space": "nucleus34", "refresh_us": 150, "cold_peel_us": 160.0},
        ],
        "hierarchy": [
            {"space": "truss", "preserved_fraction": 0.95},
            {"space": "truss", "preserved_fraction": 0.85},
            {"space": "nucleus34", "preserved_fraction": 1.0},
        ],
    }
    peel = {
        "spaces": [
            {
                "space": "core",
                "speedup_flat_vs_walk": 1.1,
                "containers_scanned": 1000,
                "bucket_moves": 400,
                "kappa_identical": True,
                "counters_match": True,
            },
            {
                "space": "truss",
                "speedup_flat_vs_walk": 1.8,
                "containers_scanned": 2000,
                "bucket_moves": 900,
                "kappa_identical": True,
                "counters_match": True,
            },
        ],
    }
    telemetry = {
        "results": [
            {"name": "counter_add", "ns_per_op": 6.0, "ceiling_ns": 100.0},
            {"name": "disabled_span", "ns_per_op": 1.5, "ceiling_ns": 50.0},
        ]
    }
    concurrent = {
        "cores": 8,
        "scaling_max_vs_1": 5.1,
        "p99": {"quiescent_us": 0.5, "refresh_us": 0.8, "ratio": 1.6},
        "reads_monotone": True,
    }
    checks = []
    checks.append(("identical frontier passes", compare("frontier", frontier, frontier, 0.1) == []))
    checks.append(("identical service passes", compare("service", service, service, 0.1) == []))
    checks.append(("identical peel passes", compare("peel", peel, peel, 0.1) == []))
    checks.append(
        ("identical telemetry passes", compare("telemetry", telemetry, telemetry, 0.1) == [])
    )

    regressed = json.loads(json.dumps(frontier))
    regressed["frontier_vs_full_scan"][0]["ratio"] = 1.2
    checks.append(("regressed ratio fails", compare("frontier", frontier, regressed, 0.1) != []))

    inexact = json.loads(json.dumps(frontier))
    inexact["runs"][0]["kappa_exact"] = False
    checks.append(("lost exactness fails", compare("frontier", frontier, inexact, 0.1) != []))

    slow_service = json.loads(json.dumps(service))
    for row in slow_service["refreshes"]:
        row["refresh_us"] = 9 * row["cold_peel_us"]
    checks.append(
        ("kappa stage over the cold-peel bound fails", compare("service", service, slow_service, 0.1) != [])
    )

    unpreserving = json.loads(json.dumps(service))
    for row in unpreserving["hierarchy"]:
        row["preserved_fraction"] = 0.1
    checks.append(
        ("regressed hierarchy preservation fails", compare("service", service, unpreserving, 0.1) != [])
    )

    slow_peel = json.loads(json.dumps(peel))
    slow_peel["spaces"][1]["speedup_flat_vs_walk"] = 1.0
    checks.append(("regressed peel speedup fails", compare("peel", peel, slow_peel, 0.1) != []))

    inflated_peel = json.loads(json.dumps(peel))
    inflated_peel["spaces"][1]["bucket_moves"] = 2000  # common-mode work increase
    checks.append(("inflated peel counters fail", compare("peel", peel, inflated_peel, 0.1) != []))

    inexact_peel = json.loads(json.dumps(peel))
    inexact_peel["spaces"][0]["kappa_identical"] = False
    checks.append(("peel exactness loss fails", compare("peel", peel, inexact_peel, 0.1) != []))

    drifted_peel = json.loads(json.dumps(peel))
    drifted_peel["spaces"][1]["counters_match"] = False
    checks.append(("peel counter divergence fails", compare("peel", peel, drifted_peel, 0.1) != []))

    over_ceiling = json.loads(json.dumps(telemetry))
    over_ceiling["results"][1]["ns_per_op"] = 80.0  # a lock crept into the span guard
    checks.append(
        ("telemetry over ceiling fails", compare("telemetry", telemetry, over_ceiling, 0.1) != [])
    )

    loosened = json.loads(json.dumps(telemetry))
    loosened["results"][0]["ceiling_ns"] = 10_000.0  # quietly raising the bar
    checks.append(
        ("loosened telemetry ceiling fails", compare("telemetry", telemetry, loosened, 0.1) != [])
    )

    missing = {"refreshes": []}
    checks.append(("missing metrics fail", compare("service", service, missing, 0.1) != []))

    checks.append(
        ("identical concurrent passes", compare("concurrent", concurrent, concurrent, 0.1) == [])
    )
    flat = json.loads(json.dumps(concurrent))
    flat["scaling_max_vs_1"] = 1.1  # 8 cores demand min(4.0, 4.8) = 4.0x
    checks.append(("flat scaling curve fails", compare("concurrent", concurrent, flat, 0.1) != []))
    stalled = json.loads(json.dumps(concurrent))
    stalled["p99"]["ratio"] = 7.5  # readers blocked behind the writer
    checks.append(("refresh-stalled p99 fails", compare("concurrent", concurrent, stalled, 0.1) != []))
    single_core = json.loads(json.dumps(concurrent))
    single_core["cores"] = 1
    single_core["scaling_max_vs_1"] = 0.9  # >= min(4.0, 0.6) floor
    single_core["p99"]["ratio"] = 7.5  # timesharing, not a stall: not gated
    checks.append(
        ("single-core p99 is not gated", compare("concurrent", single_core, single_core, 0.1) == [])
    )
    regressed_epoch = json.loads(json.dumps(concurrent))
    regressed_epoch["reads_monotone"] = False
    checks.append(
        ("non-monotone epoch fails", compare("concurrent", concurrent, regressed_epoch, 0.1) != [])
    )

    ok = True
    for name, passed in checks:
        print(f"selftest: {name}: {'ok' if passed else 'FAILED'}")
        ok &= passed
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    cmp_p = sub.add_parser("compare", help="compare a fresh bench JSON against a baseline")
    cmp_p.add_argument("--kind", choices=sorted(EXTRACTORS), required=True)
    cmp_p.add_argument("--baseline", required=True)
    cmp_p.add_argument("--fresh", required=True)
    cmp_p.add_argument("--tolerance", type=float, default=0.15)
    sub.add_parser("selftest", help="verify the gate detects fabricated regressions")
    args = ap.parse_args()

    if args.cmd == "selftest":
        return selftest()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench gate: cannot load inputs: {e}", file=sys.stderr)
        return 1

    print(f"bench gate [{args.kind}]: {args.fresh} vs {args.baseline}")
    failures = compare(args.kind, baseline, fresh, args.tolerance)
    if failures:
        for f in failures:
            print(f"bench gate: {f}", file=sys.stderr)
        return 1
    print("bench gate: no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
