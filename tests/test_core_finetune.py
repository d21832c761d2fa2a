"""Unit tests for the fine-tuning monitor and adaptation loop."""

import numpy as np
import pytest

from repro.core import (
    AdaptationLog,
    FineTuningMonitor,
    OnlineAdaptationLoop,
    OrcoDCSConfig,
    OrcoDCSFramework,
)


class TestMonitor:
    def test_no_trigger_below_threshold(self):
        monitor = FineTuningMonitor(threshold=1.0, window=3)
        assert not any(monitor.observe(0.5) for _ in range(10))

    def test_triggers_after_window_filled(self):
        monitor = FineTuningMonitor(threshold=1.0, window=3, cooldown=0)
        assert not monitor.observe(2.0)
        assert not monitor.observe(2.0)
        assert monitor.observe(2.0)

    def test_rolling_mean_tolerates_single_spike(self):
        # One outlier that does not move the rolling mean over the
        # threshold must not trigger a retrain.
        monitor = FineTuningMonitor(threshold=1.0, window=4, cooldown=0)
        fired = [monitor.observe(e) for e in (0.1, 0.1, 0.1, 2.0)]
        assert not any(fired)    # mean (0.3 + 2.0)/4 = 0.575 < 1.0

    def test_cooldown_suppresses_immediate_refire(self):
        monitor = FineTuningMonitor(threshold=1.0, window=1, cooldown=2)
        assert monitor.observe(5.0)
        assert not monitor.observe(5.0)
        assert not monitor.observe(5.0)
        assert monitor.observe(5.0)

    def test_errors_cleared_after_trigger(self):
        monitor = FineTuningMonitor(threshold=1.0, window=2, cooldown=0)
        monitor.observe(5.0)
        assert monitor.observe(5.0)
        assert monitor.rolling_error is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FineTuningMonitor(threshold=0.0)
        with pytest.raises(ValueError):
            FineTuningMonitor(threshold=1.0, window=0)
        with pytest.raises(ValueError):
            FineTuningMonitor(threshold=1.0).observe(-1.0)


class TestAdaptationLoop:
    def _framework(self, dim=12, seed=0):
        config = OrcoDCSConfig(input_dim=dim, latent_dim=4, seed=seed,
                               batch_size=8, noise_sigma=0.0)
        return OrcoDCSFramework(config)

    def test_run_logs_every_check(self):
        framework = self._framework()
        monitor = FineTuningMonitor(threshold=100.0, window=2)
        loop = OnlineAdaptationLoop(framework, monitor, buffer_size=16,
                                    retrain_epochs=1)
        rows = np.random.default_rng(0).random((10, 12))
        log = loop.run(rows, check_every=2)
        assert len(log.errors) == 5
        assert log.check_rounds == [0, 2, 4, 6, 8]
        assert log.num_retrains == 0

    def test_retrain_fires_on_distribution_shift(self):
        rng = np.random.default_rng(0)
        framework = self._framework()
        base = np.clip(rng.random((64, 1)) @ np.ones((1, 12)) * 0.3, 0, 1)
        framework.fit_config(base + rng.random((64, 12)) * 0.05, epochs=10)
        calm_error = framework.evaluate(base[:8])
        monitor = FineTuningMonitor(threshold=max(calm_error * 2, 1e-4),
                                    window=2, cooldown=1)
        loop = OnlineAdaptationLoop(framework, monitor, buffer_size=32,
                                    retrain_epochs=5)
        shifted = np.clip(1.0 - base[:24] + rng.random((24, 12)) * 0.05, 0, 1)
        log = loop.run(shifted, check_every=1)
        assert log.num_retrains >= 1
        event = log.events[0]
        assert event.post_retrain_error is not None

    def test_observe_round_returns_error(self):
        framework = self._framework()
        monitor = FineTuningMonitor(threshold=100.0)
        loop = OnlineAdaptationLoop(framework, monitor)
        log = AdaptationLog()
        error = loop.observe_round(np.random.default_rng(0).random(12), 0, log)
        assert error >= 0
        assert log.errors == [error]

    def test_validation(self):
        framework = self._framework()
        monitor = FineTuningMonitor(threshold=1.0)
        with pytest.raises(ValueError):
            OnlineAdaptationLoop(framework, monitor, buffer_size=0)
        loop = OnlineAdaptationLoop(framework, monitor)
        with pytest.raises(ValueError):
            loop.run(np.zeros((2, 12)), check_every=0)

