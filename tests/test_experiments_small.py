"""Smoke-run the experiments end-to-end at tiny scale.

The cheap analytic experiments run to completion and their shape checks
must hold.  The image figures (2, 4-8) assert their shape checks in the
benchmark harness, at the scales those claims are made at; here they run
at a scale too small for the claims and must still produce a complete,
finite, serialisable report.
"""

import json
import math

import numpy as np
import pytest

from repro.datasets import SensorField
from repro.experiments import EXPERIMENTS
from repro.experiments.multicluster_scaling import (_cluster_datasets,
                                                    _make_cluster_factory)
from repro.experiments.resilience import _make_fleet


class TestOverheadAnalysis:
    def test_runs_and_checks_pass(self):
        result = EXPERIMENTS["overhead"](scale=1.0, seed=0)
        assert result.all_checks_pass, result.checks
        assert result.summary["digits_aggregator_cost_ratio_dcsnet_over_orco"] > 5

    def test_edge_share_grows_with_depth(self):
        result = EXPERIMENTS["overhead"](scale=1.0, seed=0)
        assert result.summary["digits_OrcoDCS-5L_edge_share"] > \
            result.summary["digits_OrcoDCS-1L_edge_share"]


class TestTransmissionCost:
    def test_runs_and_checks_pass(self):
        result = EXPERIMENTS["fig3"](scale=0.1, seed=0)
        assert result.all_checks_pass, result.checks

    def test_backhaul_savings_magnitudes(self):
        result = EXPERIMENTS["fig3"](scale=0.1, seed=0)
        # 1024/128 with framing ~ 7-8x; 1024/512 with framing ~ 2x.
        assert 5 < result.summary["digits_backhaul_savings"] < 12
        assert 1.5 < result.summary["signs_backhaul_savings"] < 3

    def test_rows_cover_both_tasks_and_counts(self):
        result = EXPERIMENTS["fig3"](scale=0.1, seed=0)
        datasets = {row["dataset"] for row in result.rows}
        assert datasets == {"digits", "signs"}
        assert len(result.rows) == 4


class TestImageFigures:
    @pytest.mark.parametrize("name",
                             ["fig2", "fig4", "fig5", "fig6", "fig7", "fig8"])
    def test_tiny_scale_report_is_complete(self, name, tmp_path):
        result = EXPERIMENTS[name](scale=0.02, seed=0)
        tasks = {check.split(":")[0] for check in result.checks}
        assert tasks == {"digits", "signs"}
        numbers = [v for v in result.summary.values()
                   if isinstance(v, (int, float))]
        assert numbers and all(math.isfinite(v) for v in numbers)
        for series in result.series.values():
            assert len(series["x"]) == len(series["y"]) > 0
            assert all(math.isfinite(v) for v in series["y"])
        report = result.format_report()
        assert all(check in report for check in result.checks)
        path = tmp_path / f"{name}.json"
        result.save_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["checks"] == result.checks
        assert payload["summary"] == pytest.approx(result.summary)


class TestFinetuneDrift:
    @pytest.mark.slow
    def test_runs_and_checks_pass(self):
        result = EXPERIMENTS["finetune"](scale=0.25, seed=0)
        assert result.all_checks_pass, result.checks
        assert result.summary["num_retrains"] >= 1


class TestResilience:
    def test_runs_and_checks_pass(self):
        result = EXPERIMENTS["resilience"](scale=0.2, seed=0)
        assert result.all_checks_pass, result.checks
        # The equivalence anchor is the tentpole contract.
        assert result.summary["event_vs_sequential_max_loss_divergence"] <= 1e-6
        assert result.summary["event_vs_sequential_max_clock_divergence_s"] <= 1e-6
        assert result.summary["event_vs_sequential_ledger_divergence_bytes"] == 0

    def test_loss_sweep_shape(self):
        result = EXPERIMENTS["resilience"](scale=0.2, seed=1)
        series = result.series["nmse_vs_loss"]
        assert series["x"] == [0.0, 0.05, 0.1, 0.2]
        assert all(np.isfinite(v) for v in series["y"])
        overhead = result.series["energy_overhead_vs_loss"]["y"]
        assert overhead[0] == pytest.approx(1.0)


class TestSensorDataGeneratedOnce:
    """resilience and multicluster generate each distinct sensor dataset
    once per call and hand it out read-only; frameworks stay fresh."""

    @pytest.fixture
    def generated(self, monkeypatch):
        calls = []
        original = SensorField.generate_rounds

        def counted(field, *args, **kwargs):
            calls.append(args)
            return original(field, *args, **kwargs)

        monkeypatch.setattr(SensorField, "generate_rounds", counted)
        return calls

    # resilience: 4 fleet clusters + the intra-cluster deployment;
    # multicluster: the clusters of its largest count.
    @pytest.mark.parametrize("name, distinct",
                             [("resilience", 5), ("multicluster", 8)])
    def test_one_generation_per_distinct_dataset(self, generated, name,
                                                 distinct):
        EXPERIMENTS[name](scale=0.02, seed=0)
        assert len(generated) == distinct

    def test_resilience_factory_builds_fresh_frameworks(self):
        factory = _make_fleet(2, 16, 32, seed=0)
        first, second = factory(), factory()
        narrow = factory(narrow_backhaul=True)
        for a, b, c in zip(first, second, narrow):
            assert a[1] is not b[1] and a[1] is not c[1]
            # train rows, held-out rows, positions: shared and read-only.
            for mine, *others in zip(a[2:], b[2:], c[2:]):
                assert all(np.shares_memory(mine, o) for o in others)
                assert not mine.flags.writeable
            with pytest.raises(ValueError):
                a[2][0, 0] = 1.0

    def test_multicluster_factory_builds_fresh_frameworks(self):
        datasets = _cluster_datasets(3, 16, 32, seed=0)
        factory = _make_cluster_factory(datasets[:2])
        first, second = factory(), factory()
        assert len(first) == 2
        for (_, a, data_a), (_, b, data_b) in zip(first, second):
            assert a is not b
            assert data_a is data_b
            assert not data_a.flags.writeable
        # A prefix of the largest fleet is exactly the smaller fleet.
        np.testing.assert_array_equal(_cluster_datasets(2, 16, 32, seed=0)[1],
                                      datasets[1])
