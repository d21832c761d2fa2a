"""End-to-end benchmark: paper regeneration, ideal and lossy fleets, and
deployed data collection, with outside-in per-layer tracing.

Run from the root of a checkout (the program under test is imported from
``./src``)::

    python3 benchmarks/e2e/run.py --workload fleet_ideal --seed 0 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py               # every workload, one at a time

One workload per process.  Untraced (``--trace 0``) the run sets up
``SETUP_REPEATS`` times, then times closed-loop operations for
``--seconds`` and prints the end-to-end metrics, in time on the
baseline host at its quiet speed (``e2e_hostspeed``).  Traced (``--trace 1``)
it runs the same operations twice — untraced for half the time, then
traced on a fresh set-up of the same seed — checks that both passes
produce the same digests and prints the per-layer metrics.  Every metric
is printed by name with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Without ``--workload`` every workload runs in a process of its own and
the last line is one JSON object mapping each workload's name to that
result object (``null`` when its run printed none).  The exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: One BLAS thread.  On a shared 2-vCPU host, ten interleaved seeds of
#: ``paper`` gave a quartile spread of 5.8% at one thread and 12.0% at
#: the default two, with medians 0.9% apart (README, "Baseline").
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@dataclass
class PassResult:
    """Everything one pass over a workload measured.

    A span is ``(start, end, net)`` of a timed interval, ``net`` being
    its duration minus the host-speed yardstick's samples inside it.
    """

    build_span: Tuple[float, float, float]
    spans: List[Tuple[float, float, float]] = field(default_factory=list)
    units: List[int] = field(default_factory=list)
    digests: List[bytes] = field(default_factory=list)
    failed: int = 0
    notes: Counter = field(default_factory=Counter)

    @property
    def seconds(self) -> float:
        """Time of the successful operations."""
        return sum(net for _, _, net in self.spans)

    @property
    def attempted(self) -> int:
        return len(self.digests)

    def digest(self, ops: int) -> str:
        return hashlib.sha256(b"".join(self.digests[:ops])).hexdigest()


def _operation(workload, state, index: int, tracer=None, speed=None):
    """Run one operation; returns its span and the check's outcome."""
    inputs = workload.prepare(state, index)
    spent = _spent(speed)
    if tracer is None:
        start = time.perf_counter()
        result = workload.execute(state, inputs)
        end = time.perf_counter()
    else:
        result, elapsed = tracer.measure(workload.execute, state, inputs)
        end = time.perf_counter()
        start = end - elapsed
    span = (start, end, end - start - (_spent(speed) - spent))
    return span, workload.check(state, inputs, result)


def _spent(speed) -> float:
    return speed.spent if speed is not None else 0.0


def run_pass(workload, seed: int, *, seconds: Optional[float] = None,
             ops: Optional[int] = None, tracer=None, speed=None) -> PassResult:
    """Set up, warm up, then run operations until ``seconds`` of wall time
    have passed (at least one) or exactly ``ops`` have run.

    An operation that raises or fails its check counts as failed and
    contributes no latency sample; its digest is empty.  With a running
    ``speed`` (``e2e_hostspeed.HostSpeed``) times are net of its samples.
    """
    spent, start = _spent(speed), time.perf_counter()
    state = workload.setup(seed)
    for index in range(workload.warmup):
        _, outcome = _operation(workload, state, index)
        if not outcome.ok:
            raise RuntimeError(f"{workload.name}: warm-up operation {index} "
                               "failed its output check")
    end = time.perf_counter()
    result = PassResult(build_span=(start, end, end - start - (_spent(speed) - spent)))
    index = workload.warmup
    started = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        while (len(result.digests) < ops if ops is not None
               else not result.digests or time.perf_counter() - started < seconds):
            try:
                span, outcome = _operation(workload, state, index, tracer, speed)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result.failed += 1
                result.digests.append(b"")
            else:
                result.digests.append(outcome.digest)
                result.notes.update(outcome.notes)
                if outcome.ok:
                    result.spans.append(span)
                    result.units.append(outcome.units)
                else:
                    print(f"{workload.name}: operation {index} failed its "
                          "output check", file=sys.stderr)
                    result.failed += 1
            index += 1
    return result


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def import_seconds(src: Path) -> float:
    """Import time of the program in a fresh interpreter, normalized."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, str(HERE / "e2e_hostspeed.py")], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def _latencies(label: str, times: List[float]) -> str:
    return (f"{label} latency over {len(times)} samples: "
            + ", ".join(f"p{int(q * 100)} {_percentile(times, q) * 1e3:.4f} ms"
                        for q in (0.5, 0.9, 0.99)))


def end_to_end(workload, seed: int, seconds: float, src: Path):
    """Untraced run: the end-to-end metrics, normalized to the baseline
    host's quiet speed."""
    from e2e_hostspeed import HostSpeed

    imports = [import_seconds(src) for _ in range(SETUP_REPEATS)]
    with HostSpeed(copy=workload.large_arrays) as speed:
        passes = [run_pass(workload, seed, ops=0, speed=speed)
                  for _ in range(SETUP_REPEATS - 1)]
        measured = run_pass(workload, seed, seconds=seconds, speed=speed)
    passes.append(measured)
    setups = [imported + speed.normalized(*p.build_span)
              for imported, p in zip(imports, passes)]
    times = [speed.normalized(*span) for span in measured.spans] or [float("nan")]
    if measured.spans:
        slowdown = speed.slowdown(measured.spans[0][0], measured.spans[-1][1])
        print(f"host slowdown over the timed operations {slowdown:.3f}x "
              f"(reference work, {len(speed.costs)} samples in the run); "
              + _latencies("raw", [net for _, _, net in measured.spans]))
    # The gated timings are means.  Under load the host alternates
    # between fast and slow stretches, and the mean operation time, like
    # the yardstick's, grows in proportion to the slow share; the median
    # grows faster (README, "Timings and host speed").  Percentiles are
    # printed, not gated.
    print(_latencies("normalized", times) + " (reported only)")
    metrics = {
        "op_mean_ms": (statistics.fmean(times) * 1e3, "ms"),
        "work_per_s": (sum(measured.units) / sum(times), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return measured, metrics


def per_layer(workload, seed: int, seconds: float):
    """Traced run: the same operations untraced, then traced."""
    from e2e_trace import LayerTracer

    plain = run_pass(workload, seed, seconds=seconds / 2)
    tracer = LayerTracer()
    traced = run_pass(workload, seed, ops=plain.attempted, tracer=tracer)
    overhead = (traced.seconds / plain.seconds) if plain.spans else float("nan")
    metrics = tracer.metrics(overhead)
    traced_wall = traced.seconds / tracer.ops
    print(f"traced wall {traced_wall:.4f} s/op, unattributed "
          f"{metrics['trace.unattributed_s'][0] / traced_wall:.1%} of it")
    return plain, traced, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: Path,
                 catalogue=None) -> dict:
    """Measure one workload and print its metrics; returns the result line."""
    import e2e_workloads

    workload = (catalogue or e2e_workloads.WORKLOADS)[name]
    mismatched: List[int] = []
    if trace:
        plain, measured, metrics = per_layer(workload, seed, seconds)
        mismatched = [i for i, (a, b) in enumerate(zip(plain.digests,
                                                       measured.digests)) if a != b]
        if mismatched:
            print(f"traced digests differ from untraced at operations "
                  f"{mismatched[:10]}", file=sys.stderr)
        attempted = plain.attempted + measured.attempted
        failed = plain.failed + measured.failed
    else:
        measured, metrics = end_to_end(workload, seed, seconds, src)
        attempted, failed = measured.attempted, measured.failed
    shown = min(workload.digest_ops, measured.attempted)
    print(f"workload {name}  seed {seed}  ops {measured.attempted}  "
          f"failed {failed}  trace {int(trace)}")
    print(f"digest {measured.digest(shown)} over the first {shown} operations; "
          f"work unit: one {workload.unit}")
    for note, count in sorted(measured.notes.items()):
        print(f"note {note} {count}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:14.6g} {unit}")
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def _run_all(args, names: List[str]) -> int:
    """Every workload, each in its own process, one after another."""
    results, status = {}, False
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        *report, last = done.stdout.strip().splitlines() or [""]
        print("\n".join(report), flush=True)
        result = json.loads(last) if last.startswith("{") else None
        status |= done.returncode != 0 or result is None
        results[name] = result
    print(json.dumps(results))
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1 (or bare --trace): per-layer pass")
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src / 'repro'} is missing; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(src))
    if args.workload is None:
        return _run_all(args, [w["name"] for w in benchmark["workloads"]])
    import e2e_workloads

    if args.workload not in e2e_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(e2e_workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), src)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
