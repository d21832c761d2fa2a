"""Benchmarks for the :mod:`repro.scale` analytic ensemble engine.

``engine="analytic"`` prices a 1000-cluster lossy ensemble in closed
form.  The event engine's cost grows linearly in clusters (independent
sessions), so its measured 8-cluster reference extrapolates to the
1000-cluster sweep; the analytic run must beat that extrapolation by
>= 100x while agreeing with the event engine's delivered rounds
(<= 5%) and energy (<= 8%) at the reference size.

Gate wiring lives in ``check_regression.py`` (``analytic-ensemble``),
with the committed baselines in ``BENCH_scale.json``.
"""

import statistics
import time

import numpy as np

from repro.core import (EdgeTrainingScheduler, OrcoDCSConfig,
                        OrcoDCSFramework, ResilientOrchestrationPolicy)
from repro.sim import ARQConfig, ChannelSpec

REF_CLUSTERS = 8
SWEEP_CLUSTERS = 1000
BENCH_CLUSTERS = 256
ENSEMBLE_ROUNDS = 60
ENSEMBLE_DEVICES = 16
LOSS_RATE = 0.12

ANALYTIC_SPEEDUP_FLOOR = 100.0
DELIVERED_TOLERANCE = 0.05
ENERGY_TOLERANCE = 0.08


def build_ensemble(clusters, engine, fused=True):
    """Lossy ARQ ensemble of identical small clusters (both engines)."""
    spec = ChannelSpec(loss=LOSS_RATE, arq=ARQConfig(max_retries=2))
    scheduler = EdgeTrainingScheduler(
        "round_robin", rng=np.random.default_rng(0), engine=engine,
        channels=spec, resilience=ResilientOrchestrationPolicy(),
        segment_batching=fused)
    shared = np.random.default_rng(7).standard_normal(
        (32, ENSEMBLE_DEVICES))
    for index in range(clusters):
        config = OrcoDCSConfig(input_dim=ENSEMBLE_DEVICES, latent_dim=4,
                               noise_sigma=0.05, seed=index, batch_size=16)
        scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config),
                              shared, batch_size=16)
    return scheduler


def run_event_reference():
    """Per-round (unfused) event run at the reference size."""
    scheduler = build_ensemble(REF_CLUSTERS, "event", fused=False)
    return scheduler.run(rounds_per_cluster=ENSEMBLE_ROUNDS)


def run_analytic_sweep(clusters=SWEEP_CLUSTERS):
    scheduler = build_ensemble(clusters, "analytic")
    return scheduler.run(rounds_per_cluster=ENSEMBLE_ROUNDS)


def analytic_speedup_ratios(trials=3):
    """Interleaved extrapolated-event / analytic wall-clock ratios.

    Builds are excluded (identical work for both engines); the event
    side extrapolates per-cluster to the sweep size.
    """
    ratios = []
    for _ in range(trials):
        event_scheduler = build_ensemble(REF_CLUSTERS, "event", fused=False)
        start = time.perf_counter()
        event_scheduler.run(rounds_per_cluster=ENSEMBLE_ROUNDS)
        event_s = time.perf_counter() - start
        analytic_scheduler = build_ensemble(SWEEP_CLUSTERS, "analytic")
        start = time.perf_counter()
        analytic_scheduler.run(rounds_per_cluster=ENSEMBLE_ROUNDS)
        analytic_s = time.perf_counter() - start
        extrapolated = (event_s / REF_CLUSTERS) * SWEEP_CLUSTERS
        ratios.append(extrapolated / analytic_s)
    return ratios


class TestScaleBenchmarks:
    def test_event_reference_8_clusters(self, run_once):
        report = run_once(run_event_reference)
        assert report.engine == "event"
        assert len(report.rounds_per_cluster) == REF_CLUSTERS

    def test_analytic_ensemble_256_clusters(self, run_once):
        report = run_once(run_analytic_sweep, BENCH_CLUSTERS)
        assert report.engine == "analytic"
        assert len(report.delivered_rounds) == BENCH_CLUSTERS

    def test_analytic_ensemble_1000_clusters(self, run_once):
        report = run_once(run_analytic_sweep, SWEEP_CLUSTERS)
        assert report.engine == "analytic"
        assert len(report.delivered_rounds) == SWEEP_CLUSTERS


class TestScaleAcceptance:
    def test_analytic_matches_event_at_reference_size(self):
        """Tolerance contract: delivered <= 5%, energy <= 8%."""
        event_report = run_event_reference()
        analytic_report = run_analytic_sweep(REF_CLUSTERS)
        event_delivered = float(
            sum(event_report.rounds_per_cluster.values()))
        analytic_delivered = sum(analytic_report.delivered_rounds.values())
        delivered_err = (abs(analytic_delivered - event_delivered)
                         / event_delivered)
        event_energy = sum(event_report.energy_j.values())
        analytic_energy = sum(analytic_report.energy_j.values())
        energy_err = abs(analytic_energy - event_energy) / event_energy
        print(f"\nanalytic vs event at {REF_CLUSTERS} clusters: "
              f"delivered err {delivered_err:.4f}, "
              f"energy err {energy_err:.4f}")
        assert delivered_err <= DELIVERED_TOLERANCE
        assert energy_err <= ENERGY_TOLERANCE

    def test_analytic_speedup_at_1000_clusters(self):
        """Tentpole criterion: >= 100x over extrapolated event cost."""
        ratios = analytic_speedup_ratios(3)
        speedup = statistics.median(ratios)
        print(f"\nanalytic speedup at {SWEEP_CLUSTERS} clusters: "
              f"{speedup:.0f}x "
              f"(trials: {', '.join(f'{r:.0f}' for r in ratios)})")
        assert speedup >= ANALYTIC_SPEEDUP_FLOOR, (
            f"analytic speedup {speedup:.0f}x < "
            f"{ANALYTIC_SPEEDUP_FLOOR:.0f}x")
