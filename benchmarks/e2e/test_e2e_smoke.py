"""Smoke test of the end-to-end benchmark at tiny sizes, in-process.

Checks the contract ``BENCHMARK.json`` declares — every end-to-end and
per-layer metric is emitted with its unit, outputs pass their checks —
and that each workload's digests repeat across two passes.  The real
sizes live in ``e2e_workloads.WORKLOADS``; ``SMOKE`` runs the same code
at sizes that take seconds, not minutes.
"""

import importlib.util
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import e2e_hostspeed  # noqa: E402
import e2e_workloads  # noqa: E402
from e2e_workloads import CollectWorkload, FleetWorkload, PaperWorkload  # noqa: E402

_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
e2e_run = sys.modules["e2e_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_run)

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SMOKE = {
    "paper": PaperWorkload(experiments=("fig3", "finetune", "overhead")),
    "fleet_ideal": FleetWorkload("fleet_ideal", lossy=False, rounds=4, clusters=3,
                                 digest_ops=2),
    # Four clusters: the fault schedule picks four distinct victims.
    "fleet_lossy": FleetWorkload("fleet_lossy", lossy=True, rounds=6, clusters=4,
                                 digest_ops=2),
    "collect": CollectWorkload(devices=24, latent=4, cycle=12, kill_at=(4, 8),
                               warmup=2, digest_ops=30),
}


def _units(kind):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(e2e_workloads.WORKLOADS) == list(SMOKE)


@pytest.mark.parametrize("name", list(SMOKE))
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"),
                                         (True, "per_layer")])
def test_every_metric_emitted_with_unit(name, trace, kind, monkeypatch):
    # The import-time probe starts a fresh interpreter; its cost is not
    # what this test is about.
    monkeypatch.setattr(e2e_run, "import_seconds", lambda src: 0.0)
    result = e2e_run.run_workload(name, seed=0, seconds=0.01, trace=trace,
                                  src=Path("src"), catalogue=SMOKE)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert emitted == _units(kind)
    assert all(isinstance(entry["value"], float)
               for entry in result["metrics"].values())


@pytest.mark.parametrize("name", list(SMOKE))
def test_digests_stable_across_two_calls(name):
    workload = SMOKE[name]
    first = e2e_run.run_pass(workload, seed=3, ops=workload.digest_ops)
    second = e2e_run.run_pass(workload, seed=3, ops=workload.digest_ops)
    assert first.failed == second.failed == 0
    assert first.digests == second.digests
    assert all(first.digests)


@pytest.mark.parametrize("copy", [True, False])
def test_host_speed_divides_by_the_samples_around_an_interval(copy):
    speed = e2e_hostspeed.HostSpeed(copy)
    reference = e2e_hostspeed.REFERENCE_S[copy]
    # Quiet until t=10, twice as slow from then on, one sample a second.
    speed.starts = [float(t) for t in range(20)]
    speed.costs = [reference * (1 if t < 10 else 2) for t in range(20)]
    assert speed.normalized(3.0, 4.0, 0.5) == pytest.approx(0.5)
    assert speed.normalized(14.0, 15.0, 0.5) == pytest.approx(0.25)
    # Too few samples nearby: the nearest ones are taken.
    assert speed.slowdown(30.0, 31.0) == pytest.approx(2.0)


def test_host_speed_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with e2e_hostspeed.HostSpeed(copy=False) as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * e2e_hostspeed.INTERVAL_S:
            pass
    assert len(speed.costs) > e2e_hostspeed.MIN_SAMPLES
    assert speed.spent == pytest.approx(sum(speed.costs))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_wall_clock_fields_stay_out_of_the_digest():
    from repro.experiments import ExperimentResult

    def result(wall):
        out = ExperimentResult("x", "")
        out.add_row(clusters=4, wall_s=wall, fused_speedup_x=wall)
        out.summary["lossy_fused_speedup_x"] = wall
        out.add_series("analytic_sweep_wall", [1], [wall])
        return e2e_workloads.deterministic_view(out)

    assert result(0.5) == result(2.0)
