"""Process-parallel shard executor for independent fleets.

One process runs one fleet well (PR 1–7); production fleets are *many*
independent fleets.  This module partitions a list of
:class:`FleetJob`\\ s across a spawn-safe ``multiprocessing`` pool and
merges the per-fleet :class:`~repro.core.rounds.ScheduleReport`\\ s,
RNG-stream digests and telemetry into one fleet-level
:class:`ShardedRunReport` that is **order-independent and bit-identical
to the single-process run** for the same seeds:

* **Spawn-safe** — workers are started with the ``spawn`` context (no
  forked locks, works identically on every platform); the fleet
  ``builder`` must therefore be a module-level callable and job params
  plain picklable data.
* **Pickle-once dataset** — the shared read-only dataset ships to each
  worker exactly once via the pool initializer, not per job.
* **Seed-spaced streams** — each fleet's RNG derives from
  ``(root_seed, fleet_id)`` alone (:mod:`repro.scale.seeding`), so the
  worker count and the partition never perturb any cluster's stream.
  ``workers=1`` runs inline in the calling process — today's behaviour,
  and the bit-identity reference the property tests compare against.
* **Shard-aware telemetry** — each shard streams its fleets' bus events
  to its own ``shard-<i>.jsonl``; the merge step
  (:func:`repro.obs.exporters.merge_event_logs`) folds them into one
  stream with shard ids preserved.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.rounds import ScheduleReport, merge_schedule_reports
from ..obs import JsonlWriter, TelemetryBus
from .seeding import fleet_rng

__all__ = ["FleetJob", "FleetOutcome", "ShardedRunReport",
           "default_fleet_builder", "merge_outcomes", "run_sharded",
           "report_digest"]

#: ``builder(job, dataset, rng, telemetry=...) -> EdgeTrainingScheduler``
#: — must be module-level (spawn pickles it by qualified name).
FleetBuilder = Callable[..., Any]


@dataclass(frozen=True)
class FleetJob:
    """One independent fleet to schedule: an id, a name, plain params.

    ``fleet_id`` alone determines the fleet's RNG stream; ``params``
    must be picklable plain data (ints/floats/strings/lists) — the
    builder turns them into trainers inside the worker.
    """

    fleet_id: int
    name: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class FleetOutcome:
    """One fleet's results plus the bit-identity evidence.

    ``report_digest`` hashes the full report; ``rng_digests`` hash each
    cluster's post-run stream state and ``ledger_digests`` each
    trainer's transmission ledger — the three artefacts the shard-count
    invariance property test compares across worker counts.
    """

    fleet_id: int
    name: str
    shard: int
    report: ScheduleReport
    report_digest: str
    rng_digests: Dict[str, str]
    ledger_digests: Dict[str, str]


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def report_digest(report: ScheduleReport) -> str:
    """Canonical content hash of a report (bit-identity evidence).

    ``json.dumps`` renders floats via ``repr`` (shortest round-trip),
    so two reports hash equal iff every float is bit-equal.
    """
    return _sha(json.dumps(asdict(report), sort_keys=True, default=repr))


def _rng_digest(gen: np.random.Generator) -> str:
    return _sha(json.dumps(gen.bit_generator.state, sort_keys=True,
                           default=int))


def _ledger_digest(ledger) -> str:
    return _sha(repr(ledger.records))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker state installed by the pool initializer: the builder, the
#: pickle-once dataset, and the run-wide knobs.  Module-global so spawn
#: workers reach it without re-pickling the dataset per job.
_WORKER: Dict[str, Any] = {}


def _init_worker(builder: FleetBuilder, dataset: Any,
                 rounds_per_cluster: int, root_seed: int,
                 telemetry_dir: Optional[str]) -> None:
    _WORKER.update(builder=builder, dataset=dataset,
                   rounds=rounds_per_cluster, root_seed=root_seed,
                   telemetry_dir=telemetry_dir)


def _run_fleet(job: FleetJob, shard: int,
               bus: Optional[TelemetryBus]) -> FleetOutcome:
    rng = fleet_rng(_WORKER["root_seed"], job.fleet_id)
    scheduler = _WORKER["builder"](job, _WORKER["dataset"], rng,
                                   telemetry=bus)
    report = scheduler.run(rounds_per_cluster=_WORKER["rounds"])
    return FleetOutcome(
        fleet_id=job.fleet_id, name=job.name, shard=shard, report=report,
        report_digest=report_digest(report),
        rng_digests={c.name: _rng_digest(c.stream_rng)
                     for c in scheduler.clusters},
        ledger_digests={c.name: _ledger_digest(c.trainer.ledger)
                        for c in scheduler.clusters})


def _run_shard(shard: int, jobs: List[FleetJob]) -> List[FleetOutcome]:
    """Run one shard's fleets in order, streaming telemetry per shard."""
    telemetry_dir = _WORKER["telemetry_dir"]
    if telemetry_dir is None:
        return [_run_fleet(job, shard, None) for job in jobs]
    bus = TelemetryBus()
    path = Path(telemetry_dir) / f"shard-{shard}.jsonl"
    with JsonlWriter(path, bus):
        return [_run_fleet(job, shard, bus) for job in jobs]


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
@dataclass
class ShardedRunReport:
    """The merged outcome of a sharded run.

    ``report`` is the fleet-level fold (cluster keys prefixed
    ``"<fleet>/<cluster>"``); ``fingerprint`` hashes every fleet's
    report/RNG/ledger digests in fleet-id order, so two runs fingerprint
    equal iff they are bit-identical fleet for fleet — the property the
    shard-count invariance tests gate on.
    """

    outcomes: List[FleetOutcome]
    workers: int
    report: ScheduleReport
    telemetry_paths: List[Path] = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        lines = [f"{o.fleet_id}:{o.name}:{o.report_digest}:"
                 f"{sorted(o.rng_digests.items())}:"
                 f"{sorted(o.ledger_digests.items())}"
                 for o in self.outcomes]
        return _sha("\n".join(lines))

    def merge_telemetry(self, out_path: Union[str, Path]) -> int:
        """Fold the per-shard JSONL logs into one shard-tagged stream."""
        from ..obs.exporters import merge_event_logs
        shard_ids = [int(path.stem.split("-")[-1])
                     for path in self.telemetry_paths]
        return merge_event_logs(self.telemetry_paths, out_path,
                                shard_ids=shard_ids)


def merge_outcomes(outcomes: Sequence[FleetOutcome], workers: int = 1,
                   telemetry_dir: Optional[Union[str, Path]] = None
                   ) -> ShardedRunReport:
    """Order-independent fold of per-fleet outcomes.

    Outcomes sort by ``fleet_id`` before merging, so the result is
    identical no matter which shard (or worker schedule) produced each
    fleet.
    """
    ordered = sorted(outcomes, key=lambda o: o.fleet_id)
    names = [o.name for o in ordered]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate fleet names in outcomes: {names}")
    report = merge_schedule_reports({o.name: o.report for o in ordered})
    paths: List[Path] = []
    if telemetry_dir is not None:
        paths = sorted(Path(telemetry_dir).glob("shard-*.jsonl"),
                       key=lambda p: int(p.stem.split("-")[-1]))
    return ShardedRunReport(outcomes=ordered, workers=workers,
                            report=report, telemetry_paths=paths)


def run_sharded(builder: FleetBuilder, jobs: Sequence[FleetJob], *,
                rounds_per_cluster: int, workers: int = 1,
                root_seed: int = 0, dataset: Any = None,
                telemetry_dir: Optional[Union[str, Path]] = None
                ) -> ShardedRunReport:
    """Execute independent fleets across a spawn-safe worker pool.

    Jobs are dealt round-robin into ``workers`` shards; each shard runs
    its fleets sequentially on the existing engines.  With
    ``workers=1`` everything runs inline (no pool) — the single-process
    reference the merged result is bit-identical to at any worker
    count, because every fleet's RNG stream depends only on
    ``(root_seed, fleet_id)`` and the merge sorts by fleet id.

    ``telemetry_dir`` (optional) collects one ``shard-<i>.jsonl`` event
    log per shard; fold them with
    :meth:`ShardedRunReport.merge_telemetry`.
    """
    jobs = list(jobs)
    if not jobs:
        raise ValueError("no fleet jobs to run")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ids = [job.fleet_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate fleet_ids in jobs: {ids}")
    if telemetry_dir is not None:
        telemetry_dir = Path(telemetry_dir)
        telemetry_dir.mkdir(parents=True, exist_ok=True)
    dir_arg = None if telemetry_dir is None else str(telemetry_dir)
    workers = min(workers, len(jobs))
    if workers == 1:
        _init_worker(builder, dataset, rounds_per_cluster, root_seed,
                     dir_arg)
        outcomes = _run_shard(0, jobs)
    else:
        shard_lists = [jobs[shard::workers] for shard in range(workers)]
        ctx = get_context("spawn")
        with ctx.Pool(processes=workers, initializer=_init_worker,
                      initargs=(builder, dataset, rounds_per_cluster,
                                root_seed, dir_arg)) as pool:
            nested = pool.starmap(_run_shard, enumerate(shard_lists))
        outcomes = [outcome for sub in nested for outcome in sub]
    return merge_outcomes(outcomes, workers=workers,
                          telemetry_dir=telemetry_dir)


# ----------------------------------------------------------------------
# A ready-made builder (tests, CI smoke, benchmarks, experiments)
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

    Module-level (spawn-picklable) on purpose.  Recognised ``params``
    (:data:`FLEET_PARAM_KEYS`; any other key raises ``ValueError``):
    ``clusters`` (default 2), ``devices`` (24; ignored when ``dataset``
    gives the width), ``rounds_data`` (48; ignored with a dataset),
    ``batch_size`` (16), ``engine`` ("auto"), ``policy``
    ("round_robin"), ``loss`` (0.0), ``retries`` (1), ``recovery``
    ("arq"), ``deadline_s``, ``battery_j`` (1e9), ``seed_base`` (0).
    ``dataset`` — the pickle-once shared array — is used read-only as
    every cluster's training data.
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
    if engine in ("event", "analytic") and (loss > 0.0
                                            or recovery != "arq"):
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
