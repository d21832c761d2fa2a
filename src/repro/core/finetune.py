"""Model fine-tuning under environmental drift (Sec. III-D).

The edge server periodically compares reconstructions against raw data;
when the rolling reconstruction error exceeds a threshold, the
orchestrated training procedure is relaunched on recently collected data.
This module provides the monitor, the adaptation loop and an event log
that experiments assert on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from .orchestrator import OrchestratedTrainer, TrainingHistory


class FineTuningMonitor:
    """Rolling-mean reconstruction-error monitor with retrain cooldown.

    Parameters
    ----------
    threshold:
        Error level above which retraining is requested.
    window:
        Number of recent checks averaged before comparing.
    cooldown:
        Checks to skip right after a retrain (the fresh model needs a few
        rounds before its error is meaningful).
    """

    def __init__(self, threshold: float, window: int = 5, cooldown: int = 2):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if window < 1 or cooldown < 0:
            raise ValueError("window must be >= 1 and cooldown >= 0")
        self.threshold = threshold
        self.window = window
        self.cooldown = cooldown
        self._errors: Deque[float] = deque(maxlen=window)
        self._cooldown_left = 0

    @property
    def rolling_error(self) -> Optional[float]:
        if not self._errors:
            return None
        return float(np.mean(self._errors))

    def observe(self, error: float) -> bool:
        """Record one error; returns True when a retrain should launch."""
        if error < 0:
            raise ValueError("error must be non-negative")
        self._errors.append(float(error))
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return False
        if len(self._errors) < self.window:
            return False
        if self.rolling_error > self.threshold:
            self._cooldown_left = self.cooldown
            self._errors.clear()
            return True
        return False


@dataclass
class AdaptationEvent:
    """One fine-tuning relaunch."""

    round_index: int
    trigger_error: float
    post_retrain_error: Optional[float] = None


@dataclass
class AdaptationLog:
    """Trace of an adaptation run: errors per check + retrain events."""

    check_rounds: List[int] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)
    events: List[AdaptationEvent] = field(default_factory=list)

    @property
    def num_retrains(self) -> int:
        return len(self.events)


class OnlineAdaptationLoop:
    """Drives sensing + monitoring + fine-tuning relaunches.

    Parameters
    ----------
    trainer:
        An already-initialised (typically pre-trained)
        :class:`OrchestratedTrainer`.
    monitor:
        The error monitor.
    buffer_size:
        How many recent raw rounds are retained for retraining (the
        aggregator keeps a sliding window of raw data for relaunches).
    retrain_epochs:
        Epochs per relaunch.
    """

    def __init__(self, trainer: OrchestratedTrainer, monitor: FineTuningMonitor,
                 buffer_size: int = 128, retrain_epochs: int = 3):
        if buffer_size < 1 or retrain_epochs < 1:
            raise ValueError("buffer_size and retrain_epochs must be >= 1")
        self.trainer = trainer
        self.monitor = monitor
        self.buffer: Deque[np.ndarray] = deque(maxlen=buffer_size)
        self.retrain_epochs = retrain_epochs
        self.history = TrainingHistory(trainer.name + "-adaptive")

    def observe_round(self, raw_row: np.ndarray, round_index: int,
                      log: AdaptationLog) -> float:
        """Process one periodic check: raw row vs its reconstruction.

        Returns the reconstruction error for this round and relaunches
        training when the monitor fires.
        """
        raw_row = np.asarray(raw_row, dtype=float).reshape(1, -1)
        self.buffer.append(raw_row[0])
        error = self.trainer.evaluate(raw_row)
        log.check_rounds.append(round_index)
        log.errors.append(error)
        if self.monitor.observe(error):
            event = AdaptationEvent(round_index, error)
            self._retrain()
            event.post_retrain_error = self.trainer.evaluate(raw_row)
            log.events.append(event)
        return error

    def _retrain(self) -> None:
        data = np.stack(list(self.buffer))
        self.trainer.fit(data, epochs=self.retrain_epochs,
                         batch_size=min(32, len(data)),
                         history=self.history)

    def run(self, rows: np.ndarray, check_every: int = 1) -> AdaptationLog:
        """Feed a stream of raw rounds; check every ``check_every``-th."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        log = AdaptationLog()
        for index, row in enumerate(rows):
            self.buffer.append(row)
            if index % check_every == 0:
                self.observe_round(row, index, log)
        return log
