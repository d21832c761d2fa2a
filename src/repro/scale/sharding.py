"""Independent fleets: plain-data fleet specs, per-fleet RNG streams
and a ready-made fleet builder.

* :class:`FleetJob` — one fleet as an id, a name and plain params (the
  control plane turns each TCP run spec into one);
* :func:`fleet_rng` — fleet ``i``'s generator under a root seed, a pure
  function of ``(root, i)``: replicate ``i`` draws the same stream no
  matter how many replicates run or in what order;
* :func:`default_fleet_builder` — a small homogeneous OrcoDCS fleet
  from a job's params, rejecting unknown keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from ..obs import TelemetryBus

__all__ = ["FleetJob", "default_fleet_builder", "fleet_rng"]


@dataclass(frozen=True)
class FleetJob:
    """One independent fleet to build: an id, a name, plain params.

    ``params`` is plain data (ints/floats/strings/lists) that the
    builder turns into trainers.
    """

    fleet_id: int
    name: str
    params: Dict[str, Any] = field(default_factory=dict)


def fleet_rng(root: int, fleet_index: int) -> np.random.Generator:
    """Fleet ``fleet_index``'s generator under the ``root`` seed.

    The stream of ``default_rng(SeedSequence(root).spawn(i + 1)[-1])``,
    built directly from the child's ``spawn_key`` so it is O(1) in the
    index and never depends on sibling fleets.
    """
    if fleet_index < 0:
        raise ValueError(f"fleet_index must be >= 0, got {fleet_index}")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root, spawn_key=(fleet_index,)))


# ----------------------------------------------------------------------
# A ready-made builder (serve specs, experiments, tests)
# ----------------------------------------------------------------------
#: Every ``params`` key :func:`default_fleet_builder` reads.
FLEET_PARAM_KEYS = frozenset({
    "clusters", "devices", "rounds_data", "batch_size", "engine", "policy",
    "loss", "retries", "recovery", "deadline_s", "battery_j", "seed_base"})


def reject_unknown_keys(params: Dict[str, Any], known, what: str) -> None:
    """Raise ``ValueError`` naming every key of ``params`` not in
    ``known`` — a typo such as ``"retry"`` must not fall back to a
    default."""
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
            f"expected some of {', '.join(sorted(known))}")


def default_fleet_builder(job: FleetJob, dataset: Optional[np.ndarray],
                          rng: np.random.Generator,
                          telemetry: Optional[TelemetryBus] = None):
    """Build a small homogeneous OrcoDCS fleet from plain params.

    Recognised ``params`` (:data:`FLEET_PARAM_KEYS`; any other key
    raises ``ValueError``): ``clusters`` (default 2), ``devices`` (24;
    ignored when ``dataset`` gives the width), ``rounds_data`` (48;
    ignored with a dataset), ``batch_size`` (16), ``engine`` ("auto"),
    ``policy`` ("round_robin"), ``loss`` (0.0), ``retries`` (1),
    ``recovery`` ("arq"), ``deadline_s``, ``battery_j`` (1e9),
    ``seed_base`` (0).  A lossy or coded fleet (``loss > 0`` or
    ``recovery != "arq"``) needs ``engine`` "event" or "analytic"; on
    any other engine the scheduler raises ``ValueError``.  ``dataset``,
    when given, is used read-only as every cluster's training data.
    """
    reject_unknown_keys(job.params, FLEET_PARAM_KEYS,
                        f"job {job.name!r} param")
    from ..core import OrcoDCSConfig, OrcoDCSFramework
    from ..core.scheduler import (
        EdgeTrainingScheduler,
        ResilientOrchestrationPolicy,
    )
    from ..sim.channel import ARQConfig, ChannelSpec

    params = dict(job.params)
    clusters = int(params.get("clusters", 2))
    batch = int(params.get("batch_size", 16))
    engine = params.get("engine", "auto")
    loss = float(params.get("loss", 0.0))
    recovery = params.get("recovery", "arq")
    channels = None
    resilience = None
    if loss > 0.0 or recovery != "arq":
        channels = ChannelSpec(
            loss=loss,
            arq=ARQConfig(max_retries=int(params.get("retries", 1))))
        if recovery != "arq":
            resilience = ResilientOrchestrationPolicy(recovery=recovery)
    scheduler = EdgeTrainingScheduler(
        params.get("policy", "round_robin"), rng=rng, engine=engine,
        channels=channels, resilience=resilience, telemetry=telemetry)
    if dataset is not None:
        devices = int(dataset.shape[1])
    else:
        devices = int(params.get("devices", 24))
    for index in range(clusters):
        config = OrcoDCSConfig(
            input_dim=devices, latent_dim=max(4, devices // 6),
            noise_sigma=0.05,
            seed=int(params.get("seed_base", 0)) + index,
            batch_size=batch)
        data = (dataset if dataset is not None
                else rng.standard_normal(
                    (int(params.get("rounds_data", 48)), devices)))
        scheduler.add_cluster(
            f"c{index}", OrcoDCSFramework(config), data, batch_size=batch,
            deadline_s=params.get("deadline_s"),
            aggregator_battery_j=float(params.get("battery_j", 1e9)))
    return scheduler
