"""Speedup regression gates against the committed benchmark baselines.

Five engine-speedup ratios are gated at **80%** of their committed
baselines (exit code 1 below the floor):

* the fleet engine's 16-cluster sequential/batched speedup (the
  workload of ``bench_multicluster.py``) against
  ``BENCH_multicluster.json``;
* the event engine's 16-cluster lossy-fused speedup — unfused live
  loop over trace-replayed fused run, the workload of
  ``bench_resilience.py``'s lossy benchmarks — against
  ``BENCH_resilience.json``;
* the event engine's 16-cluster **coded-fused** (erasure-coded lossy)
  speedup — the same fusion contract under FEC channels — against the
  coded benchmarks in ``BENCH_resilience.json``;
* the event engine's 16-cluster **adaptive-fused** speedup — the lossy
  sweep with adaptive ARQ budgets re-derived at brownout boundaries,
  fused via trace re-recording — against the adaptive benchmarks in
  ``BENCH_resilience.json``;
* the **vectorized channel kernel**'s trace-recording speedup over the
  scalar per-frame reference path (the workload of
  ``bench_resilience.py``'s kernel benchmarks) against
  ``BENCH_resilience.json``.

One :mod:`repro.scale` gate rides along against ``BENCH_scale.json``
(the workload of ``bench_scale.py``): the **analytic-ensemble** ratio —
unfused 8-cluster event reference over the 1000-cluster analytic sweep
— gated at 80% of its committed baseline (the absolute >= 100x
extrapolated-speedup contract lives in the bench's own acceptance
test).

One *ceiling* gate rides along with inverted semantics: the
**telemetry-overhead** gate fails when full JSONL telemetry costs more
than ``TELEMETRY_OVERHEAD_CEILING`` (5%) over the telemetry-off run on
the 16-cluster lossy live workload — an absolute contract from ISSUE 7,
not a relative floor against a committed baseline.

Comparing *ratios* rather than absolute times keeps the gates
meaningful across machines: CI hardware differs from the baseline box,
but the engines run on the same core, so their relative cost is stable.

The measured side defaults to a fresh interleaved median-of-3 run —
single-sample timings (like the smoke JSON's one pedantic round per
engine) are too noisy for a hard gate.  Pass ``--from-json <path>`` to
reuse an existing pytest-benchmark JSON instead of re-running, e.g. to
inspect an artifact offline (it must contain the benchmarks of the
gate(s) being checked).

When ``GITHUB_STEP_SUMMARY`` is set (as in any GitHub Actions step),
every run also appends a markdown table of the gate verdicts to that
file, so the job summary page shows the measured ratios without
digging through the log.

Usage (from the repo root, CI's bench-smoke job)::

    PYTHONPATH=src python benchmarks/check_regression.py \
        [--gate fleet|lossy-fused|coded-fused|adaptive-fused|\
vectorized-kernel|analytic-ensemble|telemetry-overhead|all] \
        [--from-json measured.json] [--list-gates]
"""

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_multicluster import CLUSTERS, run_engine  # noqa: E402
from bench_resilience import (  # noqa: E402
    FUSED_CLUSTERS,
    KERNEL_TRANSMITS,
    TELEMETRY_OVERHEAD_CEILING,
    fused_speedup_ratios,
    kernel_speedup_ratios,
    run_adaptive,
    run_coded,
    run_lossy,
    telemetry_overhead_ratios,
)
from bench_scale import (  # noqa: E402
    REF_CLUSTERS,
    SWEEP_CLUSTERS,
    analytic_speedup_ratios,
)

REGRESSION_FLOOR = 0.8
TRIALS = 3
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def ratio_from_json(path: pathlib.Path, slow_name: str,
                    fast_name: str) -> float:
    """Mean-time ratio of two named benchmarks in a benchmark JSON.

    Returns ``None`` when the JSON lacks either benchmark (e.g. a
    partial smoke artifact passed via ``--from-json``).
    """
    with open(path) as handle:
        data = json.load(handle)
    means = {bench["name"]: bench["stats"]["mean"]
             for bench in data["benchmarks"]}
    if slow_name not in means or fast_name not in means:
        return None
    return means[slow_name] / means[fast_name]


def measured_fleet_speedup(trials: int = TRIALS) -> float:
    """Interleaved best-of-N timing, as the benchmark itself does."""
    ratios = []
    for _ in range(trials):
        start = time.perf_counter()
        run_engine("sequential")
        sequential_s = time.perf_counter() - start
        start = time.perf_counter()
        run_engine("batched")
        batched_s = time.perf_counter() - start
        ratios.append(sequential_s / batched_s)
    return statistics.median(ratios)


def measured_lossy_fused_speedup(trials: int = TRIALS) -> float:
    """Median of bench_resilience's interleaved unfused/fused ratios."""
    return statistics.median(fused_speedup_ratios(run_lossy, trials)[0])


def measured_coded_fused_speedup(trials: int = TRIALS) -> float:
    return statistics.median(fused_speedup_ratios(run_coded, trials)[0])


def measured_adaptive_fused_speedup(trials: int = TRIALS) -> float:
    return statistics.median(fused_speedup_ratios(run_adaptive, trials)[0])


def measured_kernel_speedup(trials: int = TRIALS) -> float:
    """Median of bench_resilience's interleaved reference/kernel ratios."""
    return statistics.median(kernel_speedup_ratios(trials))


def measured_analytic_ratio(trials: int = TRIALS) -> float:
    """Event-reference / analytic-sweep wall-clock ratio.

    ``analytic_speedup_ratios`` reports the *extrapolated* speedup
    (per-cluster event cost projected to the sweep size); rescaling by
    the cluster counts recovers the raw two-benchmark ratio that the
    committed baseline JSON records.
    """
    extrapolated = statistics.median(analytic_speedup_ratios(trials))
    return extrapolated * REF_CLUSTERS / SWEEP_CLUSTERS


#: gate name -> (baseline JSON, (slow, fast) benchmark names, measurer,
#: human label)
GATES = {
    "fleet": (REPO_ROOT / "BENCH_multicluster.json",
              ("test_sequential_16_clusters", "test_batched_16_clusters"),
              measured_fleet_speedup,
              f"fleet speedup at {CLUSTERS} clusters"),
    "lossy-fused": (REPO_ROOT / "BENCH_resilience.json",
                    ("test_event_lossy_unfused_16_clusters",
                     "test_event_lossy_fused_16_clusters"),
                    measured_lossy_fused_speedup,
                    f"lossy-fused speedup at {FUSED_CLUSTERS} clusters"),
    "coded-fused": (REPO_ROOT / "BENCH_resilience.json",
                    ("test_event_coded_unfused_16_clusters",
                     "test_event_coded_fused_16_clusters"),
                    measured_coded_fused_speedup,
                    f"coded-fused (FEC) speedup at {FUSED_CLUSTERS} clusters"),
    "adaptive-fused": (REPO_ROOT / "BENCH_resilience.json",
                       ("test_event_adaptive_unfused_16_clusters",
                        "test_event_adaptive_fused_16_clusters"),
                       measured_adaptive_fused_speedup,
                       f"adaptive-fused (ARQ re-derivation) speedup at "
                       f"{FUSED_CLUSTERS} clusters"),
    "vectorized-kernel": (REPO_ROOT / "BENCH_resilience.json",
                          ("test_kernel_trace_recording_reference",
                           "test_kernel_trace_recording_vectorized"),
                          measured_kernel_speedup,
                          f"vectorized-kernel trace recording at "
                          f"{FUSED_CLUSTERS} clusters x "
                          f"{KERNEL_TRANSMITS} transmits"),
    "analytic-ensemble": (REPO_ROOT / "BENCH_scale.json",
                          ("test_event_reference_8_clusters",
                           "test_analytic_ensemble_1000_clusters"),
                          measured_analytic_ratio,
                          f"analytic ensemble ratio ({REF_CLUSTERS}-cluster "
                          f"event ref / {SWEEP_CLUSTERS}-cluster sweep)"),
}


def _record(rows, gate, measured, reference, verdict):
    """Collect one gate verdict for the markdown step summary."""
    if rows is not None:
        rows.append((gate, measured, reference, verdict))


#: (enabled, disabled) benchmark names for the telemetry ceiling gate's
#: ``--from-json`` mode.
TELEMETRY_PAIR = ("test_event_lossy_telemetry_16_clusters",
                  "test_event_lossy_unfused_16_clusters")


def measured_telemetry_overhead(trials: int = 5) -> float:
    """Median enabled/disabled ratio, with one re-measurement allowed.

    Background load windows only inflate wall-clock ratios, so the
    minimum of two independent medians remains a sound upper bound on
    the true overhead (mirrors the bench acceptance test's protocol).
    """
    overhead = statistics.median(telemetry_overhead_ratios(trials))
    if overhead > TELEMETRY_OVERHEAD_CEILING:
        overhead = min(overhead,
                       statistics.median(telemetry_overhead_ratios(trials)))
    return overhead


def check_telemetry_gate(from_json: pathlib.Path = None, rows=None) -> bool:
    """Ceiling gate: enabled telemetry must cost <= 5%, not a floor."""
    label = (f"telemetry-enabled overhead at {FUSED_CLUSTERS} clusters "
             f"(lossy live)")
    reference = f"ceiling {TELEMETRY_OVERHEAD_CEILING:.2f}x"
    enabled, disabled = TELEMETRY_PAIR
    if from_json:
        measured = ratio_from_json(from_json, enabled, disabled)
        if measured is None:
            print(f"{label}: SKIPPED — {from_json.name} has no "
                  f"{enabled!r}/{disabled!r} entries (partial artifact); "
                  f"re-run without --from-json to measure live")
            _record(rows, "telemetry-overhead", "—", reference, "SKIPPED")
            return True
    else:
        measured = measured_telemetry_overhead()
    ok = measured <= TELEMETRY_OVERHEAD_CEILING
    verdict = "OK" if ok else "REGRESSION"
    print(f"{label}: measured {measured:.3f}x vs ceiling "
          f"{TELEMETRY_OVERHEAD_CEILING:.2f}x: {verdict}")
    _record(rows, "telemetry-overhead", f"{measured:.3f}x", reference, verdict)
    if not ok:
        print(f"error: measured {label} {measured:.3f}x exceeded the "
              f"{TELEMETRY_OVERHEAD_CEILING:.2f}x ceiling — the telemetry "
              f"hot path regressed (event construction, bus dispatch, or "
              f"JSONL encoding)", file=sys.stderr)
    return ok


def check_gate(name: str, from_json: pathlib.Path = None, rows=None) -> bool:
    baseline_path, (slow, fast), measure, label = GATES[name]
    baseline = ratio_from_json(baseline_path, slow, fast)
    if baseline is None:
        print(f"error: committed baseline {baseline_path.name} lacks "
              f"{slow!r}/{fast!r} — re-commit it from a full "
              "benchmark run", file=sys.stderr)
        _record(rows, name, "—", "missing baseline", "ERROR")
        return False
    floor = REGRESSION_FLOOR * baseline
    reference = f"floor {floor:.2f}x ({REGRESSION_FLOOR:.0%} of {baseline:.2f}x)"
    if from_json:
        measured = ratio_from_json(from_json, slow, fast)
        if measured is None:
            print(f"{label}: SKIPPED — {from_json.name} has no "
                  f"{slow!r}/{fast!r} entries (partial artifact); "
                  f"re-run without --from-json to measure live")
            _record(rows, name, "—", reference, "SKIPPED")
            return True
    else:
        measured = measure()
    ok = measured >= floor
    verdict = "OK" if ok else "REGRESSION"
    print(f"{label}: measured {measured:.2f}x vs baseline {baseline:.2f}x "
          f"(floor {REGRESSION_FLOOR:.0%} -> {floor:.2f}x): {verdict}")
    _record(rows, name, f"{measured:.2f}x", reference, verdict)
    if not ok:
        print(f"error: measured {label} {measured:.2f}x fell below "
              f"{floor:.2f}x — the engine regressed (or the baseline "
              f"needs re-committing after a deliberate change)",
              file=sys.stderr)
    return ok


def list_gates() -> None:
    """Print every gate with its kind, baseline file and benchmark pair."""
    for name, (path, (slow, fast), _, label) in GATES.items():
        print(f"{name}: {label}")
        print(f"    kind: floor ({REGRESSION_FLOOR:.0%} of committed baseline)")
        print(f"    baseline: {path.name} [{slow} / {fast}]")
    enabled, disabled = TELEMETRY_PAIR
    print(f"telemetry-overhead: enabled/disabled overhead at "
          f"{FUSED_CLUSTERS} clusters (lossy live)")
    print(f"    kind: ceiling (absolute {TELEMETRY_OVERHEAD_CEILING:.2f}x, "
          f"no committed baseline)")
    print(f"    from-json pair: [{enabled} / {disabled}]")


def write_step_summary(rows) -> None:
    """Append a markdown verdict table to ``$GITHUB_STEP_SUMMARY``.

    No-op outside GitHub Actions (the env var is unset).  Appending —
    not truncating — matches the Actions contract: several steps share
    one summary file.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or not rows:
        return
    lines = ["## Benchmark regression gates", "",
             "| gate | measured | reference | verdict |",
             "| --- | --- | --- | --- |"]
    for gate, measured, reference, verdict in rows:
        badge = {"OK": "✅", "SKIPPED": "⏭️"}.get(verdict, "❌")
        lines.append(f"| `{gate}` | {measured} | {reference} "
                     f"| {badge} {verdict} |")
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    all_gates = [*GATES, "telemetry-overhead"]
    parser.add_argument("--gate", choices=[*all_gates, "all"], default="all",
                        help="which gate to check (default: all)")
    parser.add_argument("--from-json", type=pathlib.Path, default=None,
                        help="read the measured speedups from an existing "
                             "benchmark JSON instead of re-running")
    parser.add_argument("--list-gates", action="store_true",
                        help="list every gate (name, kind, baseline pair) "
                             "and exit")
    args = parser.parse_args()

    if args.list_gates:
        list_gates()
        return 0

    names = all_gates if args.gate == "all" else [args.gate]
    rows = []

    def run_gate(name):
        if name == "telemetry-overhead":
            return check_telemetry_gate(args.from_json, rows)
        return check_gate(name, args.from_json, rows)

    ok = all([run_gate(name) for name in names])
    write_step_summary(rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
