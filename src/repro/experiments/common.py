"""Shared infrastructure for the figure-reproduction harness.

Every ``figN_*.py`` module exposes ``run(scale=1.0, seed=0) ->
ExperimentResult``.  ``scale`` shrinks dataset sizes / epoch counts so
the same code serves full experiment runs (CLI) and quick benchmark runs
(pytest-benchmark); the *shape* conclusions hold at every scale.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets import (
    flatten_images,
    generate_digits,
    generate_signs,
)


@dataclass
class ExperimentResult:
    """Structured output of one experiment.

    ``series`` maps a curve name (e.g. ``"OrcoDCS"``) to parallel
    ``x``/``y`` lists; ``rows`` holds tabular records; ``summary`` holds
    the headline scalars the paper's text quotes (e.g. the 10x savings
    factor); ``checks`` records named boolean shape assertions.
    """

    name: str
    description: str
    series: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add_series(self, label: str, xs: Sequence[float],
                   ys: Sequence[float], x_name: str = "x",
                   y_name: str = "y") -> None:
        if len(xs) != len(ys):
            raise ValueError("xs and ys must align")
        self.series[label] = {
            "x_name": x_name, "y_name": y_name,
            "x": [float(v) for v in xs], "y": [float(v) for v in ys],
        }

    def add_row(self, **fields) -> None:
        self.rows.append(fields)

    def check(self, name: str, condition: bool) -> bool:
        """Record a shape assertion (does not raise)."""
        self.checks[name] = bool(condition)
        return bool(condition)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    # ------------------------------------------------------------------
    def format_report(self) -> str:
        """Human-readable report mirroring the paper's figure."""
        lines = [f"== {self.name} ==", self.description, ""]
        if self.rows:
            keys: List[str] = []
            for row in self.rows:
                for key in row:
                    if key not in keys:
                        keys.append(key)
            widths = {k: max(len(k), *(len(_fmt(r.get(k, ""))) for r in self.rows))
                      for k in keys}
            header = "  ".join(k.ljust(widths[k]) for k in keys)
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append("  ".join(_fmt(row.get(k, "")).ljust(widths[k])
                                       for k in keys))
            lines.append("")
        for label, data in self.series.items():
            pairs = ", ".join(f"({_fmt(x)}, {_fmt(y)})"
                              for x, y in zip(data["x"], data["y"]))
            lines.append(f"{label} [{data['x_name']} -> {data['y_name']}]: {pairs}")
        if self.summary:
            lines.append("")
            lines.append("summary:")
            for key, value in self.summary.items():
                lines.append(f"  {key}: {_fmt(value)}")
        if self.checks:
            lines.append("shape checks:")
            for key, value in self.checks.items():
                lines.append(f"  [{'PASS' if value else 'FAIL'}] {key}")
        return "\n".join(lines)

    def save_json(self, path: str) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        payload = {
            "name": self.name, "description": self.description,
            "series": self.series, "rows": self.rows,
            "summary": self.summary, "checks": self.checks,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, default=_json_default)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0 or 1e-3 <= abs(value) < 1e5:
            return f"{value:.4g}"
        return f"{value:.3e}"
    return str(value)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)}")


# ----------------------------------------------------------------------
# Workload preparation
# ----------------------------------------------------------------------
#: The dtype OrcoDCS trains in on the six image figures (fig2, fig4-fig8),
#: matching DCSNet and the follow-up classifier, which always train in
#: float32.  Everything else (fleets, deployment, fine-tuning) keeps the
#: float64 default, because its equivalence bounds are stated in it.
IMAGE_DTYPE = np.float32


@dataclass
class ImageWorkload:
    """A dataset split packaged for the harness."""

    name: str
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    image_shape: Tuple[int, int, int]   # (C, H, W)
    num_classes: int
    default_latent: int

    @property
    def train_rows(self) -> np.ndarray:
        return flatten_images(self.train_images)

    @property
    def test_rows(self) -> np.ndarray:
        return flatten_images(self.test_images)

    @property
    def input_dim(self) -> int:
        return int(np.prod(self.image_shape))


def scaled(count: int, scale: float, minimum: int = 8) -> int:
    """Scale a workload size, never below ``minimum``."""
    return max(minimum, int(round(count * scale)))


def digits_workload(scale: float = 1.0, seed: int = 0,
                    train: int = 1500, test: int = 400) -> ImageWorkload:
    """The MNIST-class task (28x28 grayscale, 10 classes, M=128)."""
    rng = np.random.default_rng(seed)
    train_n = scaled(train, scale)
    test_n = scaled(test, scale)
    train_images, train_labels = generate_digits(train_n, rng)
    test_images, test_labels = generate_digits(test_n, rng)
    return ImageWorkload("digits", train_images, train_labels,
                         test_images, test_labels, (1, 28, 28), 10, 128)


def signs_workload(scale: float = 1.0, seed: int = 0,
                   train: int = 900, test: int = 300) -> ImageWorkload:
    """The GTSRB-class task (32x32 RGB, 43 classes, M=512)."""
    rng = np.random.default_rng(seed + 1)
    train_n = scaled(train, scale)
    test_n = scaled(test, scale)
    train_images, train_labels = generate_signs(train_n, rng)
    test_images, test_labels = generate_signs(test_n, rng)
    return ImageWorkload("signs", train_images, train_labels,
                         test_images, test_labels, (3, 32, 32), 43, 512)


def epochs_for_scale(full_epochs: int, scale: float, minimum: int = 2) -> int:
    """Shrink epoch counts with the scale factor."""
    return max(minimum, int(round(full_epochs * min(1.0, scale * 2))))


# ----------------------------------------------------------------------
# Cross-framework comparison helpers
# ----------------------------------------------------------------------
def common_val_mse(trainer, rows: np.ndarray) -> float:
    """Framework-independent comparison metric: reconstruction MSE.

    OrcoDCS optimises Huber, DCSNet optimises L2 — their native training
    losses are NOT comparable (elementwise Huber is exactly MSE/2 in the
    small-residual regime).  Every cross-framework figure therefore
    evaluates this common metric on a shared held-out set.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    reconstruction = trainer.reconstruct(rows)
    return float(np.mean((reconstruction - rows) ** 2))


def train_with_mse_curve(trainer, train_rows: np.ndarray, val_rows: np.ndarray,
                         epochs: int, batch_size: int = 32,
                         time_budget_s: Optional[float] = None):
    """Train epoch by epoch, recording (modeled time, common val MSE).

    Returns ``(times, mses, history)``; the curve has one point per
    completed epoch.  ``time_budget_s`` stops training once the modeled
    clock passes the budget (the online-fairness knob used when a slower
    framework shares a figure with a faster one).
    """
    from ..core.orchestrator import TrainingHistory

    history = TrainingHistory(trainer.name)
    times: List[float] = []
    mses: List[float] = []
    for _ in range(epochs):
        trainer.fit(train_rows, epochs=1, batch_size=batch_size,
                    history=history, time_budget_s=time_budget_s)
        times.append(trainer.clock_s)
        mses.append(common_val_mse(trainer, val_rows))
        if time_budget_s is not None and trainer.clock_s >= time_budget_s:
            break
    return times, mses, history


def mse_at_time(times, mses, when: float) -> float:
    """Step-interpolate an epoch-boundary MSE curve at modeled time ``when``.

    Before the first point the first value is returned; past the last
    point, the last.
    """
    if not times:
        raise ValueError("empty curve")
    value = mses[0]
    for t, m in zip(times, mses):
        if t <= when:
            value = m
        else:
            break
    return value


def sweep_with_dcsnet_reference(workload: ImageWorkload, configs,
                                epochs: int, seed: int,
                                result: "ExperimentResult"):
    """Run a family of OrcoDCS configs plus a time-fair DCSNet reference.

    Used by the Fig. 6/7/8 sensitivity sweeps.  Each OrcoDCS variant
    trains for ``epochs`` epochs; the DCSNet-50% reference trains under a
    modeled time budget equal to the slowest variant's run (the shared
    resource of the online setting), completing however many epochs fit.
    All curves report the common held-out MSE.

    Parameters
    ----------
    configs:
        Mapping ``label -> OrcoDCSConfig``.

    Returns
    -------
    (finals, dcsnet_at_variant_time)
        ``finals`` maps each label (plus ``"DCSNet"``) to its final
        common MSE; ``dcsnet_at_variant_time`` maps each OrcoDCS label
        to DCSNet's MSE *at that variant's end-of-run time* — the
        time-fair comparison point (a small-latent variant finishes
        sooner, so it is compared against a DCSNet that has also only
        trained that long).
    """
    from ..baselines import DCSNetOnline
    from ..core import OrcoDCSFramework

    finals = {}
    variant_time = {}
    slowest = 0.0
    for label, config in configs.items():
        # Bound to no name, the trained variant is freed as soon as its
        # curve is taken, before the next model is built.
        times, mses, _ = train_with_mse_curve(
            OrcoDCSFramework(config), workload.train_rows,
            workload.test_rows, epochs, batch_size=config.batch_size)
        result.add_series(f"{label}/{workload.name}",
                          list(range(1, len(mses) + 1)), mses,
                          "epoch", "val_mse")
        finals[label] = mses[-1]
        variant_time[label] = times[-1]
        slowest = max(slowest, times[-1])

    dcsnet = DCSNetOnline(image_shape=workload.image_shape, seed=seed,
                          data_fraction=0.5)
    half = workload.train_rows[
        dcsnet.rng.choice(len(workload.train_rows),
                          max(1, len(workload.train_rows) // 2),
                          replace=False)]
    dcs_times, dcs_mses, _ = train_with_mse_curve(
        dcsnet, half, workload.test_rows, epochs * 20, batch_size=32,
        time_budget_s=slowest)
    result.add_series(f"DCSNet/{workload.name}",
                      list(range(1, len(dcs_mses) + 1)), dcs_mses,
                      "epoch", "val_mse")
    finals["DCSNet"] = dcs_mses[-1]
    dcsnet_at_variant_time = {
        label: mse_at_time(dcs_times, dcs_mses, when)
        for label, when in variant_time.items()
    }
    return finals, dcsnet_at_variant_time
