"""Unit tests for the experiment harness plumbing."""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, digits_workload, signs_workload
from repro.experiments.common import ExperimentResult, epochs_for_scale, scaled


class TestExperimentResult:
    def test_series_alignment_enforced(self):
        result = ExperimentResult("x", "desc")
        with pytest.raises(ValueError):
            result.add_series("s", [1, 2], [1])

    def test_checks_recorded(self):
        result = ExperimentResult("x", "desc")
        assert result.all_checks_pass
        result.check("good", True)
        result.check("bad", False)
        assert not result.all_checks_pass
        assert result.checks == {"good": True, "bad": False}

    def test_format_report_contains_everything(self):
        result = ExperimentResult("My Figure", "does things")
        result.add_row(framework="OrcoDCS", value=1.5)
        result.add_series("curve", [1, 2], [0.5, 0.25], "epoch", "loss")
        result.summary["headline"] = 10.0
        result.check("ordering holds", True)
        text = result.format_report()
        assert "My Figure" in text
        assert "OrcoDCS" in text
        assert "curve" in text
        assert "headline" in text
        assert "[PASS] ordering holds" in text

    def test_save_json_roundtrip(self, tmp_path):
        result = ExperimentResult("x", "desc")
        result.add_series("s", [1], [2])
        result.summary["v"] = np.float64(3.5)
        path = str(tmp_path / "out" / "x.json")
        result.save_json(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["series"]["s"]["y"] == [2.0]
        assert payload["summary"]["v"] == 3.5

    @pytest.mark.parametrize("value, expected", [
        (np.int64(3), 3), (np.float32(0.5), 0.5), (np.arange(3), [0, 1, 2]),
    ], ids=["int64", "float32", "ndarray"])
    def test_save_json_converts_numpy_values(self, tmp_path, value, expected):
        result = ExperimentResult("x", "desc")
        result.add_row(value=value)
        path = tmp_path / "x.json"
        result.save_json(str(path))
        assert json.loads(path.read_text())["rows"] == [{"value": expected}]

    def test_save_json_refuses_other_objects(self, tmp_path):
        result = ExperimentResult("x", "desc")
        result.summary["v"] = {1, 2}
        with pytest.raises(TypeError, match="cannot serialise"):
            result.save_json(str(tmp_path / "x.json"))


class TestWorkloads:
    def test_digits_workload_shapes(self):
        workload = digits_workload(scale=0.02, seed=0)
        assert workload.train_images.shape[1:] == (28, 28)
        assert workload.input_dim == 784
        assert workload.train_rows.shape[1] == 784
        assert workload.num_classes == 10
        assert workload.default_latent == 128

    def test_signs_workload_shapes(self):
        workload = signs_workload(scale=0.02, seed=0)
        assert workload.train_images.shape[1:] == (32, 32, 3)
        assert workload.input_dim == 3072
        assert workload.num_classes == 43
        assert workload.default_latent == 512

    def test_scale_shrinks_counts(self):
        small = digits_workload(scale=0.02)
        large = digits_workload(scale=0.05)
        assert len(small.train_images) < len(large.train_images)


class TestScaling:
    def test_scaled_floor(self):
        assert scaled(100, 0.001, minimum=8) == 8
        assert scaled(100, 0.5) == 50

    def test_epochs_for_scale(self):
        assert epochs_for_scale(10, 1.0) == 10
        assert epochs_for_scale(10, 0.1) == 2
        assert epochs_for_scale(10, 0.4) == 8


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "overhead", "finetune", "multicluster", "resilience"}
        assert expected == set(EXPERIMENTS)

    def test_entries_are_callables(self):
        assert all(callable(fn) for fn in EXPERIMENTS.values())


class TestComparisonHelpers:
    def test_common_val_mse_matches_numpy(self):
        from repro.core import OrcoDCSConfig, OrcoDCSFramework
        from repro.experiments.common import common_val_mse

        framework = OrcoDCSFramework(OrcoDCSConfig(input_dim=12, latent_dim=3,
                                                   seed=0))
        rows = np.random.default_rng(0).random((6, 12))
        expected = float(np.mean((framework.reconstruct(rows) - rows) ** 2))
        assert abs(common_val_mse(framework, rows) - expected) < 1e-12

    def test_mse_at_time_step_interpolation(self):
        from repro.experiments.common import mse_at_time

        times = [1.0, 2.0, 3.0]
        mses = [0.5, 0.3, 0.1]
        assert mse_at_time(times, mses, 0.5) == 0.5    # before first point
        assert mse_at_time(times, mses, 2.0) == 0.3    # exact hit
        assert mse_at_time(times, mses, 2.5) == 0.3    # between points
        assert mse_at_time(times, mses, 99.0) == 0.1   # past the end
        with pytest.raises(ValueError):
            mse_at_time([], [], 1.0)

    def test_train_with_mse_curve_records_per_epoch(self):
        from repro.core import OrcoDCSConfig, OrcoDCSFramework
        from repro.experiments.common import train_with_mse_curve

        framework = OrcoDCSFramework(OrcoDCSConfig(input_dim=12, latent_dim=3,
                                                   seed=0, noise_sigma=0.0))
        rows = np.random.default_rng(0).random((32, 12))
        times, mses, history = train_with_mse_curve(framework, rows, rows[:8],
                                                    epochs=3, batch_size=16)
        assert len(times) == len(mses) == 3
        assert all(b > a for a, b in zip(times, times[1:]))
        assert len(history.epochs) == 3

    def test_train_with_mse_curve_respects_budget(self):
        from repro.core import OrcoDCSConfig, OrcoDCSFramework
        from repro.experiments.common import train_with_mse_curve

        framework = OrcoDCSFramework(OrcoDCSConfig(input_dim=12, latent_dim=3,
                                                   seed=0))
        rows = np.random.default_rng(0).random((64, 12))
        probe = OrcoDCSFramework(OrcoDCSConfig(input_dim=12, latent_dim=3,
                                               seed=0))
        probe.train_round(rows[:16])
        budget = probe.clock_s * 3.5
        times, mses, _ = train_with_mse_curve(framework, rows, rows[:8],
                                              epochs=50, batch_size=16,
                                              time_budget_s=budget)
        assert times[-1] <= budget + probe.clock_s
        assert len(times) < 50


class _LifetimeProbe:
    """Records, as each watched model is built, how many earlier ones
    are still alive.

    Run with the cyclic collector off, so a model counts as freed only
    when its last reference went, not when a collection happened to run.
    """

    def __init__(self):
        self.refs = []
        self.alive_at_build = []

    def watch(self, cls):
        probe = self

        class Watched(cls):
            def __init__(self, *args, **kwargs):
                probe.alive_at_build.append(
                    sum(ref() is not None for ref in probe.refs))
                super().__init__(*args, **kwargs)
                probe.refs.append(weakref.ref(self))

        return Watched


@pytest.fixture
def probe():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield _LifetimeProbe()
    finally:
        if enabled:
            gc.enable()


class TestModelLifetimes:
    """The image figures free each trained model before building the
    next, so a sweep's resident peak is one model's, not two."""

    def test_sweep_frees_each_variant_before_the_next(self, probe,
                                                      monkeypatch):
        import repro.baselines
        import repro.core
        from repro.core import OrcoDCSConfig
        from repro.experiments.common import (IMAGE_DTYPE,
                                              sweep_with_dcsnet_reference)

        monkeypatch.setattr(repro.core, "OrcoDCSFramework",
                            probe.watch(repro.core.OrcoDCSFramework))
        monkeypatch.setattr(repro.baselines, "DCSNetOnline",
                            probe.watch(repro.baselines.DCSNetOnline))
        workload = digits_workload(scale=0.01, seed=0)
        configs = {f"M={m}": OrcoDCSConfig(input_dim=workload.input_dim,
                                           latent_dim=m, seed=0,
                                           dtype=IMAGE_DTYPE)
                   for m in (8, 16, 32)}
        finals, _ = sweep_with_dcsnet_reference(
            workload, configs, epochs=2, seed=0,
            result=ExperimentResult("sweep", "lifetime probe"))
        assert set(finals) == {"M=8", "M=16", "M=32", "DCSNet"}
        # Three variants, then the DCSNet reference.
        assert probe.alive_at_build == [0, 0, 0, 0]

    def test_fig5_frees_each_model_before_the_next(self, probe, monkeypatch):
        from repro.experiments import fig5_classifier

        for name in ("OrcoDCSFramework", "DCSNetOnline", "ImageClassifier"):
            monkeypatch.setattr(fig5_classifier, name,
                                probe.watch(getattr(fig5_classifier, name)))
        result = ExperimentResult("fig5", "lifetime probe")
        fig5_classifier.run_task(digits_workload(scale=0.01, seed=0),
                                 recon_epochs=2, classifier_epochs=[1],
                                 seed=0, result=result, strict=False)
        # OrcoDCS and three DCSNet fractions, then one classifier each.
        assert probe.alive_at_build == [0] * 8

    def test_fig4_frees_orcodcs_before_building_dcsnet(self, probe,
                                                       monkeypatch):
        from repro.experiments import fig4_time_to_loss

        for name in ("OrcoDCSFramework", "DCSNetOnline"):
            monkeypatch.setattr(fig4_time_to_loss, name,
                                probe.watch(getattr(fig4_time_to_loss, name)))
        result = ExperimentResult("fig4", "lifetime probe")
        fig4_time_to_loss.run_task(digits_workload(scale=0.01, seed=0),
                                   epochs=2, seed=0, result=result)
        assert probe.alive_at_build == [0, 0]
