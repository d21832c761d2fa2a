"""The four closed-loop workloads of the end-to-end benchmark.

Each workload drives the public API from the outside, one caller at a
time: the next operation starts only after the previous one returned.

* ``paper`` — regenerate every paper experiment in sorted order (one
  operation = one sweep).  The only workload where the single-model nn
  substrate (optimisers, im2col convolutions, autograd) trains.
* ``fleet_ideal`` — 32-cluster ``EdgeTrainingScheduler.run`` calls on
  ideal links with ``engine="auto"`` (resolves to the batched fleet
  engine): stacked GEMMs and fleet optimisers, no channel kernel and no
  planner.  The workload an engine unification must not slow down.
* ``fleet_lossy`` — the same fleet on the event engine with 802.15.4
  Gilbert-Elliott channels, adaptive ARQ, hybrid FEC and a fault
  schedule: trace recording and re-recording, the fused segment
  planner and the event kernel.
* ``collect`` — the Sec. III-C deployment data path: one 128-device
  cluster collecting readings through lossy, erasure-coded sensor hops,
  uplinking the latent and decoding it at the edge (forward-only nn),
  with devices dying and recovering on a fixed cycle.  It uses the live
  scalar channel ``transmit`` where the fleets use batched traces.

Every workload has the same shape: ``setup(seed)`` builds the state
and the untimed warm-up runs on it; ``prepare(state, index)`` draws the
inputs of one operation (untimed: seeds, arrays, fault times, nothing
the program builds or runs); ``execute(state, inputs)`` is the timed
call, including every object the program constructs for the
operation; ``check(state, inputs, result)`` verifies the outputs and
returns an :class:`Outcome` with a digest of everything deterministic
they hold.  Inputs derive from ``(seed, index)`` only, so a pass is
reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core import (
    AsymmetricAutoencoder,
    EdgeTrainingScheduler,
    EncoderDeployment,
    OrcoDCSConfig,
    OrcoDCSFramework,
    ResilientOrchestrationPolicy,
)
from repro.experiments import EXPERIMENTS, ExperimentResult
from repro.sim import ARQConfig, ChannelSpec, CodingSpec, FaultEvent, FaultSchedule
from repro.wsn import WSNetwork, build_aggregation_tree, select_aggregator
from repro.wsn.geometry import place_grid


@dataclass
class Outcome:
    """What one operation produced, as far as the benchmark checks it."""

    ok: bool
    units: int
    digest: bytes
    notes: Dict[str, int] = field(default_factory=dict)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _sha(payload) -> bytes:
    text = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode()).digest()


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value, key=repr)
    raise TypeError(f"cannot digest {type(value)}")


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


# ----------------------------------------------------------------------
# paper: every experiment, in sorted order
# ----------------------------------------------------------------------
#: Fields that ``multicluster`` and ``resilience`` fill from wall-clock
#: timings.  They differ on every run, so the digest leaves them out.
WALL_CLOCK_ROW_KEYS = frozenset({"fused_speedup_x", "inline_wall_s",
                                 "pooled_wall_s", "wall_s"})
WALL_CLOCK_SERIES = frozenset({"fused_event_speedup", "analytic_sweep_wall"})
WALL_CLOCK_SUMMARY = frozenset({
    "fused_event_speedup_at_max_clusters",
    "analytic_speedup_vs_event_extrapolated_x",
    "analytic_speedup_vs_fused_event_extrapolated_x",
    "lossy_fused_speedup_x",
    "fault_only_fused_speedup_x",
})
WALL_CLOCK_CHECK_PREFIXES = (
    "segment batching speeds up the fault-only event run",
    "analytic beats extrapolated per-round event cost",
)


def deterministic_view(result: ExperimentResult) -> dict:
    """An experiment's figure JSON minus its wall-clock fields."""
    return {
        "name": result.name,
        "series": {label: data for label, data in result.series.items()
                   if label not in WALL_CLOCK_SERIES},
        "rows": [{k: v for k, v in row.items() if k not in WALL_CLOCK_ROW_KEYS}
                 for row in result.rows],
        "summary": {k: v for k, v in result.summary.items()
                    if k not in WALL_CLOCK_SUMMARY},
        "checks": {k: v for k, v in result.checks.items()
                   if not k.startswith(WALL_CLOCK_CHECK_PREFIXES)},
    }


#: One sweep takes ~13 s here (at 0.1 it takes ~34 s, longer than a
#: run); the nn substrate is still three quarters of it.
PAPER_SCALE = 0.02


@dataclass(frozen=True)
class PaperWorkload:
    """One operation regenerates every experiment at ``PAPER_SCALE``.

    Sweep ``i`` of a pass seeded ``S`` runs at seed ``S + 1000 * i``, so
    the first sweep is exactly ``python -m repro.experiments all
    --scale 0.02 --seed S``.  Figure shape checks are counted in the
    notes, not as failures: at this scale some are seed-sensitive.
    """

    experiments: Tuple[str, ...] = tuple(sorted(EXPERIMENTS))
    warmup: int = 0
    digest_ops: int = 1
    name: str = "paper"
    unit: str = "experiment"
    #: Most of the time goes to numpy arrays of megabytes (optimiser
    #: steps, data generation, im2col), so the host-speed reference
    #: work includes its 2 MB copy (``e2e_hostspeed``).
    large_arrays: bool = True

    def setup(self, seed: int):
        return seed

    def prepare(self, seed: int, index: int) -> int:
        return seed + 1000 * index

    def execute(self, state, seed: int) -> Dict[str, ExperimentResult]:
        # Looked up per call: the traced pass swaps in wrapped entries.
        return {name: EXPERIMENTS[name](scale=PAPER_SCALE, seed=seed)
                for name in self.experiments}

    def check(self, state, seed: int, results) -> Outcome:
        ok = len(results) == len(self.experiments) and all(
            isinstance(result, ExperimentResult)
            and all(_finite(data["x"]) and _finite(data["y"])
                    for data in result.series.values())
            for result in results.values())
        checks = [v for result in results.values() for v in result.checks.values()]
        return Outcome(ok, len(results),
                       _sha({name: deterministic_view(result)
                             for name, result in results.items()}),
                       {"shape_checks_passed": sum(checks),
                        "shape_checks": len(checks)})


# ----------------------------------------------------------------------
# fleet_ideal / fleet_lossy: many-cluster edge scheduling
# ----------------------------------------------------------------------
#: Cluster geometry of both fleets, as in ``bench_multicluster``.
DEVICES, LATENT, BATCH, DATA_ROWS = 40, 6, 8, 96
#: Modeled makespan per round of the lossy fleet without faults: the
#: median of ``report.makespan_s / rounds`` over seeds 0-2, operations
#: 0-2 (range 0.0227-0.0260).  The fault schedule is placed in fractions
#: of it; the check requires every fault to have fired.
MAKESPAN_PER_ROUND_S = 0.0246


@dataclass(frozen=True)
class FleetWorkload:
    """One operation builds a fresh fleet and runs it once: new data,
    model seeds and (lossy) fault victims per index.  Only the input
    arrays and seeds are made outside the timed call; the schedulers,
    frameworks and clusters are built inside it."""

    name: str
    lossy: bool
    rounds: int
    clusters: int = 32
    warmup: int = 1
    digest_ops: int = 10
    unit: str = "cluster-round"
    large_arrays: bool = False

    def setup(self, seed: int):
        return seed

    def _faults(self, rng: np.random.Generator) -> FaultSchedule:
        victims = rng.choice(self.clusters, size=4, replace=False)
        span = MAKESPAN_PER_ROUND_S * self.rounds
        names = [f"cluster-{int(v)}" for v in victims]
        return FaultSchedule([
            FaultEvent(0.15 * span, "node_death", names[0],
                       device=int(rng.integers(DEVICES))),
            FaultEvent(0.30 * span, "brownout", names[1], magnitude=1e-12),
            FaultEvent(0.40 * span, "straggler", names[2], magnitude=3.0),
            FaultEvent(0.55 * span, "brownout", names[3], magnitude=1e-12),
            FaultEvent(0.70 * span, "recover", names[2]),
        ])

    def prepare(self, seed: int, index: int):
        """The run's inputs: (lossy) the fault schedule, the scheduler's
        seed, and each cluster's model seed and data."""
        rng = _rng(seed, index)
        faults = self._faults(rng) if self.lossy else None
        scheduler_seed = int(rng.integers(2 ** 63))
        clusters = [(int(rng.integers(2 ** 31)), rng.random((DATA_ROWS, DEVICES)))
                    for _ in range(self.clusters)]
        return scheduler_seed, clusters, faults

    def execute(self, state, inputs):
        scheduler_seed, clusters, faults = inputs
        kwargs = {}
        if self.lossy:
            kwargs = dict(
                engine="event",
                channels=ChannelSpec.preset("802154_indoor",
                                            arq=ARQConfig(max_retries=3)),
                resilience=ResilientOrchestrationPolicy(adaptive_arq=True,
                                                        recovery="hybrid"),
                fault_schedule=faults)
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(scheduler_seed), **kwargs)
        for k, (model_seed, data) in enumerate(clusters):
            config = OrcoDCSConfig(input_dim=DEVICES, latent_dim=LATENT,
                                   seed=model_seed, noise_sigma=0.05,
                                   batch_size=BATCH)
            scheduler.add_cluster(f"cluster-{k}", OrcoDCSFramework(config),
                                  data, batch_size=BATCH)
        return scheduler, scheduler.run(rounds_per_cluster=self.rounds)

    def check(self, state, inputs, result) -> Outcome:
        scheduler, report = result
        plan = scheduler.execution_plan()
        delivered = report.rounds_per_cluster
        if self.lossy:
            # A fused plan is the point of this workload: a silent fall
            # back to the unfused loop would change what it measures.
            ok = (plan.engine == "event" and plan.fused
                  and report.faults_applied == len(inputs[2]))
        else:
            ok = plan.engine == "batched" and all(
                delivered[c.name] == self.rounds for c in scheduler.clusters)
        ok = ok and all(_finite(c.history.losses) for c in scheduler.clusters)
        digest = _sha({
            "makespan_s": report.makespan_s,
            "total_edge_time_s": report.total_edge_time_s,
            "completion_times": report.completion_times,
            "rounds_per_cluster": delivered,
            "failed_rounds": report.failed_rounds,
            "fused_rounds": report.fused_rounds,
            "energy_j": report.energy_j,
            "arq_budgets": report.arq_budgets,
            "coding_budgets": report.coding_budgets,
            "clusters": [(c.trainer.clock_s, c.history.losses, c.history.times,
                          c.trainer.ledger.by_kind()) for c in scheduler.clusters],
        })
        return Outcome(ok, sum(delivered.values()), digest,
                       {"fused_rounds": report.fused_rounds})


# ----------------------------------------------------------------------
# collect: the deployed encoder's data path
# ----------------------------------------------------------------------
@dataclass
class _CollectState:
    deployment: EncoderDeployment
    network: WSNetwork
    readings_rng: np.random.Generator
    fault_rng: np.random.Generator
    victims: List[int] = field(default_factory=list)
    last_round: object = None


@dataclass(frozen=True)
class _CollectInputs:
    readings: Dict[int, float]
    revive: List[int]
    kill: List[int]
    ship_ledger: bool


@dataclass(frozen=True)
class CollectWorkload:
    """One operation is one ``EncoderDeployment.end_to_end_round``,
    preceded by the round's fault events.

    Faults cycle every ``cycle`` rounds: two random devices die at fixed
    points of the cycle and both recover at its end, so every stretch of
    rounds has the same healthy/masked mix however long a pass runs.
    The ledger is shipped (reset) at each cycle end for the same reason.
    Only the readings and the choice of victims are made outside the
    timed call; killing, reviving and shipping happen inside it.
    """

    devices: int = 128
    latent: int = 16
    cycle: int = 400
    kill_at: Tuple[int, int] = (150, 275)
    warmup: int = 50
    digest_ops: int = 1000
    name: str = "collect"
    unit: str = "round"
    large_arrays: bool = False

    def setup(self, seed: int) -> _CollectState:
        rng = np.random.default_rng(seed)
        # A 2:1 field with ~10 m grid spacing (16 x 8 at 128 devices), so
        # the 15 m radio range reaches diagonal neighbours.
        area = (10.0 * np.sqrt(2.0 * self.devices), 10.0 * np.sqrt(self.devices / 2.0))
        positions = place_grid(self.devices, area, jitter=2.0, rng=rng)
        network = WSNetwork(positions, comm_range_m=15.0, battery_capacity_j=1e9)
        network.set_aggregator(select_aggregator(positions))
        tree = build_aggregation_tree(network)
        network.attach_unreliable(
            sensor=ChannelSpec.preset("802154_indoor", arq=ARQConfig(max_retries=1),
                                      coding=CodingSpec(parity_frames=1)),
            up=ChannelSpec.preset("802154_indoor", arq=ARQConfig(max_retries=3)),
            rng=np.random.default_rng(rng.integers(2 ** 63)))
        model = AsymmetricAutoencoder(OrcoDCSConfig(
            input_dim=self.devices, latent_dim=self.latent,
            seed=int(rng.integers(2 ** 31))))
        deployment = EncoderDeployment(model, network, tree)
        deployment.distribute()
        state = _CollectState(deployment, network,
                              np.random.default_rng(rng.integers(2 ** 63)),
                              np.random.default_rng(rng.integers(2 ** 63)))

        def capture(readings, **kwargs):
            # Resolved on the class per call, so a traced pass sees its
            # wrapped method; keeps the round's contributors for check().
            state.last_round = type(deployment).compressed_round(
                deployment, readings, **kwargs)
            return state.last_round

        deployment.compressed_round = capture
        return state

    def prepare(self, state: _CollectState, index: int) -> _CollectInputs:
        network = state.network
        phase = index % self.cycle
        revive: List[int] = []
        if phase == 0:
            revive = state.victims
            candidates = [d for d in network.device_ids if d != network.aggregator_id]
            state.victims = [int(v) for v in state.fault_rng.choice(
                candidates, size=len(self.kill_at), replace=False)]
        kill = [device for at, device in zip(self.kill_at, state.victims)
                if phase == at]
        values = state.readings_rng.random(self.devices)
        return _CollectInputs(dict(zip(network.device_ids, values.tolist())),
                              revive, kill, ship_ledger=phase == 0)

    def execute(self, state: _CollectState, inputs: _CollectInputs):
        network = state.network
        for device in inputs.revive:
            network.revive_node(device)
        shipped = network.reset_ledger() if inputs.ship_ledger else None
        for device in inputs.kill:
            network.kill_node(device)
        latent, reconstruction = state.deployment.end_to_end_round(inputs.readings)
        return latent, reconstruction, shipped

    def check(self, state: _CollectState, inputs: _CollectInputs, result) -> Outcome:
        latent, reconstruction, shipped = result
        contributors = state.last_round.contributors
        # Eq. (1) over the readings that reached the aggregator: on a round
        # with no dead node or severed hop, exactly the centralized latent.
        kept = set(contributors)
        expected = state.deployment.centralized_latent(
            {nid: value if nid in kept else 0.0
             for nid, value in inputs.readings.items()})
        ok = (latent.shape == (self.latent,)
              and float(np.max(np.abs(latent - expected))) <= 1e-9
              and reconstruction.shape == (self.devices,)
              and _finite(reconstruction))
        payload = [latent, reconstruction, contributors]
        if shipped is not None:
            payload.append({"records": len(shipped), "by_kind": shipped.by_kind()})
        return Outcome(ok, 1, _sha(payload),
                       {"masked_rounds": int(len(contributors)
                                             < state.network.num_devices)})


WORKLOADS = {
    "paper": PaperWorkload(),
    "fleet_ideal": FleetWorkload("fleet_ideal", lossy=False, rounds=100),
    "fleet_lossy": FleetWorkload("fleet_lossy", lossy=True, rounds=40),
    "collect": CollectWorkload(),
}

__all__ = ["CollectWorkload", "FleetWorkload", "Outcome", "PaperWorkload",
           "WALL_CLOCK_CHECK_PREFIXES", "WALL_CLOCK_ROW_KEYS",
           "WALL_CLOCK_SERIES", "WALL_CLOCK_SUMMARY", "WORKLOADS",
           "deterministic_view"]
