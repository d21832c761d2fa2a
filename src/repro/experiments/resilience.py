"""Resilience experiment: orchestrated training under unreliable networks.

The paper evaluates OrcoDCS on an ideal testbed; its IoT-edge setting is
anything but ideal.  This experiment puts the scheduler's
``engine="event"`` runtime (:mod:`repro.sim`) to work on the questions
the deployment story raises:

* **Equivalence anchor** — with zero faults and zero loss the event
  engine must reproduce the sequential engine's loss trajectories,
  modeled clock and transmission ledger exactly (the correctness
  contract mirroring PR 1's batched-vs-sequential check);
* **Frame-loss sweep** — Bernoulli per-frame loss from 0 to 20% on the
  backhaul links: reconstruction NMSE must degrade gracefully (no
  crash, finite errors) while ARQ retransmissions show up as measured
  energy/byte overhead versus the ideal channel;
* **Fault schedule** — first-node-death mid-training, an aggregator
  death (resolved by proximity-rule failover) and a straggler window:
  training completes, the dead device's column is masked out of the
  partial sums, and the fleet's remaining clusters still converge;
* **Segment batching** — the same fault schedule with lossless channels
  runs under the fused event engine (fault-free spans pre-executed as
  :class:`~repro.core.fleet.FleetTrainer` waves) and must reproduce the
  unfused engine's modeled clock and ledger exactly, at lower
  wall-clock cost;
* **Lossy fusion anchor** — the frame-loss sweep itself runs fused
  (channel randomness pre-sampled into replayable
  :class:`~repro.sim.channel.ChannelTrace`\\ s), and one sweep point is
  re-run unfused to assert bit-identity end to end: delivered/attempt
  ledger, failed rounds, modeled clock and completion times;
* **Recovery strategies** — ARQ vs erasure-coded FEC vs hybrid on a
  narrow (802.15.4-class) backhaul where messages stripe across many
  frames: the Gilbert-Elliott presets are swept under all three
  strategies (NMSE, rounds-to-threshold, energy per delivered round,
  deadline misses) and a Bernoulli sweep locates the **crossover loss
  rate** above which coded uplinks beat ARQ on energy at equal
  reconstruction quality — the headline FEC result;
* **Intra-cluster loss** — unreliable *sensor* hops
  (:meth:`~repro.wsn.network.WSNetwork.attach_unreliable`) inside one
  deployed cluster: lost hops sever subtree contributions from the
  partial sum, degrading reconstruction NMSE with loss, and an
  erasure-coded sensor channel buys the contributions back at a fixed
  parity-airtime premium.

Reported per condition: mean reconstruction NMSE on held-out rounds,
mean rounds-to-threshold (threshold = halfway between the ideal run's
first and final loss), radiated wire bytes and backhaul radio energy
relative to the ideal channel.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import OrcoDCSConfig, OrcoDCSFramework, ResilientOrchestrationPolicy
from ..obs import JsonlWriter, TelemetryBus
from ..core.deployment import EncoderDeployment
from ..core.scheduler import EdgeTrainingScheduler
from ..core.timing import OrchestrationTimingModel
from ..datasets import FieldRegime, SensorField
from ..datasets.sensing import normalized_rounds
from ..metrics import nmse
from ..scale import FleetJob, default_fleet_builder, fleet_rng
from ..sim import ARQConfig, ChannelSpec, CodingSpec, FaultEvent, FaultSchedule
from ..wsn import WSNetwork, place_uniform, select_aggregator
from ..wsn.aggregation import build_aggregation_tree
from ..wsn.link import sensor_link
from .common import ExperimentResult, scaled

LOSS_RATES = (0.0, 0.05, 0.1, 0.2)
RECOVERY_RATES = (0.05, 0.1, 0.15, 0.2, 0.3)
SENSOR_LOSS_RATES = (0.0, 0.1, 0.2, 0.3)


def _make_fleet(num_clusters: int, devices: int, rounds_data: int, seed: int):
    """Generate the fleet's sensor data once; return its factory.

    ``factory()`` returns fresh (name, trainer, train_data, held_out,
    positions) tuples: new frameworks on every call, so every condition
    starts from identical weights, while the data and device geometry
    are generated here once and handed out read-only — differences
    measure the channel and the faults, nothing else.
    ``factory(narrow_backhaul=True)`` swaps the aggregator<->edge links
    for 802.15.4-class sensor links (the aggregator is itself an IoT
    device in the paper's setting): messages then stripe across many
    small frames, which is the regime where the ARQ-vs-FEC tradeoff is
    live — per-frame retry budgets give a long message many chances to
    die, while a shared parity budget protects it as a whole.
    Trajectories are timing-independent, so thresholds derived from the
    wide-backhaul ideal run carry over unchanged.
    """
    sensed = []
    for index in range(num_clusters):
        rng = np.random.default_rng(seed * 1000 + index)
        positions = place_uniform(devices, (80.0, 80.0), rng)
        regime = FieldRegime(mean=18.0 + 3 * index,
                             amplitude=2.0 + 0.5 * index,
                             correlation_length=6.0 + 2 * index)
        field = SensorField(regime=regime, rng=rng)
        rounds = field.generate_rounds(positions, rounds_data + 32)
        data, _, _ = normalized_rounds(rounds)
        data.setflags(write=False)
        positions.setflags(write=False)
        sensed.append((positions, data))

    def factory(narrow_backhaul: bool = False) -> List[Tuple]:
        fleet = []
        for index, (positions, data) in enumerate(sensed):
            config = OrcoDCSConfig(input_dim=devices,
                                   latent_dim=max(4, devices // 6),
                                   noise_sigma=0.05, seed=index,
                                   batch_size=16)
            timing = (OrchestrationTimingModel(up=sensor_link(),
                                               down=sensor_link())
                      if narrow_backhaul else None)
            fleet.append((f"cluster-{index}",
                          OrcoDCSFramework(config, timing=timing),
                          data[:rounds_data], data[rounds_data:], positions))
        return fleet

    return factory


def _build(factory, seed: int, engine: str,
           channels: Optional[ChannelSpec] = None,
           faults: Optional[FaultSchedule] = None,
           resilience: Optional[ResilientOrchestrationPolicy] = None,
           segment_batching: bool = True,
           telemetry: Optional[TelemetryBus] = None
           ) -> Tuple[EdgeTrainingScheduler, List[np.ndarray]]:
    scheduler = EdgeTrainingScheduler(
        "round_robin", rng=np.random.default_rng(seed), engine=engine,
        channels=channels, fault_schedule=faults, resilience=resilience,
        segment_batching=segment_batching, telemetry=telemetry)
    held_out = []
    for name, trainer, data, held, positions in factory():
        scheduler.add_cluster(name, trainer, data, batch_size=16,
                              positions=positions)
        held_out.append(held)
    return scheduler, held_out


def _fleet_nmse(scheduler: EdgeTrainingScheduler,
                held_out: List[np.ndarray],
                masks: Optional[Dict[str, np.ndarray]] = None) -> float:
    """Mean held-out reconstruction NMSE across the fleet.

    ``masks`` zeroes dead devices' columns (the aggregator imputes
    nothing for missing contributors), evaluating the degraded cluster
    on the data it can actually see.
    """
    errors = []
    for cluster, held in zip(scheduler.clusters, held_out):
        rows = held
        if masks and cluster.name in masks:
            rows = held * masks[cluster.name]
        errors.append(nmse(rows, cluster.trainer.reconstruct(rows)))
    return float(np.mean(errors))


def _mean_rounds_to_threshold(scheduler: EdgeTrainingScheduler,
                              thresholds: Dict[str, float],
                              budget: int) -> float:
    """Mean rounds until each cluster's loss first dips to its threshold.

    Clusters that never get there (lost rounds, early death) count the
    full budget — the degradation signal the sweep reports.
    """
    rounds_needed = []
    for cluster in scheduler.clusters:
        losses = cluster.history.losses
        hit = np.flatnonzero(losses <= thresholds[cluster.name])
        rounds_needed.append(int(hit[0]) + 1 if hit.size else budget)
    return float(np.mean(rounds_needed))


def _fleet_wire_bytes(scheduler: EdgeTrainingScheduler) -> int:
    return sum(c.trainer.ledger.total_wire_bytes() for c in scheduler.clusters)


def run(scale: float = 1.0, seed: int = 0,
        telemetry: Optional[object] = None) -> ExperimentResult:
    """Sweep frame loss x fault schedules on the event runtime.

    ``telemetry`` names a JSONL path: every scheduler session in the
    sweep then streams its structured bus events (rounds, faults,
    retirements, channel batches, spans) to that event log, written
    next to the figures by the CLI's ``--telemetry`` flag.  Passing a
    live :class:`~repro.obs.TelemetryBus` instead wires the sweep's
    events straight onto that bus (the control plane's ``--serve``
    path) with no file in between.
    """
    if telemetry is None:
        return _run_impl(scale, seed, None)
    if isinstance(telemetry, TelemetryBus):
        return _run_impl(scale, seed, telemetry)
    bus = TelemetryBus()
    with JsonlWriter(telemetry, bus):
        return _run_impl(scale, seed, bus)


def _run_impl(scale: float, seed: int,
              bus: Optional[TelemetryBus]) -> ExperimentResult:
    result = ExperimentResult(
        "Resilience — unreliable networks and fault injection",
        "Event-engine equivalence anchor, Bernoulli frame-loss sweep "
        "(NMSE / rounds-to-threshold / energy overhead vs the ideal "
        "channel) and a mid-training death + failover + straggler "
        "scenario.")
    num_clusters = 4
    devices = scaled(32, scale, minimum=16)
    rounds_data = scaled(96, scale, minimum=32)
    train_rounds = scaled(30, scale, minimum=10)
    factory = _make_fleet(num_clusters, devices, rounds_data, seed)

    # --- 1. equivalence anchor ----------------------------------------
    seq, seq_held = _build(factory, seed, engine="sequential", telemetry=bus)
    seq_report = seq.run(rounds_per_cluster=train_rounds)
    event, event_held = _build(factory, seed, engine="event", telemetry=bus)
    event_report = event.run(rounds_per_cluster=train_rounds)
    loss_div = max(
        float(np.abs(cs.history.losses - ce.history.losses).max())
        for cs, ce in zip(seq.clusters, event.clusters))
    clock_div = max(
        float(np.abs(cs.history.times - ce.history.times).max())
        for cs, ce in zip(seq.clusters, event.clusters))
    ledger_div = max(
        abs(cs.trainer.ledger.total_wire_bytes()
            - ce.trainer.ledger.total_wire_bytes())
        for cs, ce in zip(seq.clusters, event.clusters))
    result.summary["event_vs_sequential_max_loss_divergence"] = loss_div
    result.summary["event_vs_sequential_max_clock_divergence_s"] = clock_div
    result.summary["event_vs_sequential_ledger_divergence_bytes"] = ledger_div
    result.check("event engine matches sequential losses (<= 1e-6)",
                 loss_div <= 1e-6)
    result.check("event engine matches sequential clock (<= 1e-6 s)",
                 clock_div <= 1e-6)
    result.check("event engine matches sequential ledger exactly",
                 ledger_div == 0)
    result.check("event engine makespan matches sequential",
                 abs(event_report.makespan_s - seq_report.makespan_s) <= 1e-6)

    # Per-cluster thresholds from the ideal run: halfway between first
    # and final loss (reached by construction on the clean channel).
    thresholds = {
        c.name: 0.5 * (c.history.losses[0] + c.history.losses[-1])
        for c in seq.clusters}
    ideal_wire = _fleet_wire_bytes(event)
    ideal_energy = sum(event_report.energy_j.values())
    ideal_nmse = _fleet_nmse(event, event_held)

    # --- 2. frame-loss sweep ------------------------------------------
    nmses, round_counts, energy_overheads, byte_overheads = [], [], [], []
    for rate in LOSS_RATES:
        if rate == 0.0:
            scheduler, held, report = event, event_held, event_report
        else:
            # One retransmission per frame: a tight ARQ budget, so frame
            # loss translates into *failed rounds* (lost updates), not
            # just retransmission overhead — the degradation axis the
            # sweep is after.
            spec = ChannelSpec(loss=rate, arq=ARQConfig(max_retries=1))
            scheduler, held = _build(factory, seed, engine="event", telemetry=bus, channels=spec)
            report = scheduler.run(rounds_per_cluster=train_rounds)
        sweep_nmse = _fleet_nmse(scheduler, held)
        rounds_mean = _mean_rounds_to_threshold(scheduler, thresholds,
                                                train_rounds)
        wire = _fleet_wire_bytes(scheduler)
        energy = sum(report.energy_j.values())
        # Normalise per *successful* round: a failed round radiates an
        # uplink but never triggers the downlink, so raw totals can dip
        # below ideal while the cost of each delivered update rises.
        completed = sum(report.rounds_per_cluster.values())
        ideal_per_round = ideal_energy / (num_clusters * train_rounds)
        energy_overhead = (energy / max(1, completed)) / ideal_per_round
        nmses.append(sweep_nmse)
        round_counts.append(rounds_mean)
        byte_overheads.append(wire / ideal_wire)
        energy_overheads.append(energy_overhead)
        result.add_row(loss_rate=rate,
                       nmse=round(sweep_nmse, 5),
                       mean_rounds_to_threshold=round(rounds_mean, 1),
                       failed_rounds=sum(report.failed_rounds.values()),
                       fused_rounds=report.fused_rounds,
                       wire_overhead=round(wire / ideal_wire, 4),
                       energy_per_round_overhead=round(energy_overhead, 4))
    result.check("lossy sweep points run on the fused path",
                 all(r.get("fused_rounds", 0) > 0
                     for r in result.rows if r.get("loss_rate") != 0.0))
    result.add_series("nmse_vs_loss", LOSS_RATES, nmses,
                      "frame_loss_rate", "held_out_nmse")
    result.add_series("energy_overhead_vs_loss", LOSS_RATES, energy_overheads,
                      "frame_loss_rate", "x_ideal_energy")
    result.check("NMSE stays finite up to 20% frame loss",
                 all(np.isfinite(v) for v in nmses))
    result.check("NMSE degrades gracefully (no blow-up at 20% loss)",
                 nmses[-1] <= max(10 * ideal_nmse, ideal_nmse + 0.05))
    result.check("retransmission bytes grow with loss rate",
                 all(b2 >= b1 - 1e-9 for b1, b2 in
                     zip(byte_overheads, byte_overheads[1:]))
                 and byte_overheads[-1] > 1.01)
    result.check("energy per delivered round grows with loss",
                 energy_overheads[-1] > 1.01)
    result.summary["wire_overhead_at_20pct_loss"] = round(byte_overheads[-1], 4)
    result.summary["nmse_at_20pct_loss"] = nmses[-1]

    # --- 2a. lossy fused bit-identity anchor --------------------------
    # One sweep point re-run unfused (live channel draws instead of
    # pre-sampled traces): same seed => identical delivered/attempts,
    # ledger, failed rounds, modeled clock and completion times.
    anchor_rate = LOSS_RATES[2]
    anchor_spec = ChannelSpec(loss=anchor_rate, arq=ARQConfig(max_retries=1))
    lossy_fused, _ = _build(factory, seed, engine="event", telemetry=bus, channels=anchor_spec)
    start = time.perf_counter()
    lossy_fused_report = lossy_fused.run(rounds_per_cluster=train_rounds)
    lossy_fused_s = time.perf_counter() - start
    lossy_unfused, _ = _build(factory, seed, engine="event", telemetry=bus, channels=anchor_spec,
                              segment_batching=False)
    start = time.perf_counter()
    lossy_unfused_report = lossy_unfused.run(rounds_per_cluster=train_rounds)
    lossy_unfused_s = time.perf_counter() - start
    lossy_loss_div = max(
        float(np.abs(cf.history.losses - cu.history.losses).max())
        if len(cf.history.losses) else 0.0
        for cf, cu in zip(lossy_fused.clusters, lossy_unfused.clusters))
    lossy_clock_exact = all(
        np.array_equal(cf.history.times, cu.history.times)
        and cf.trainer.clock_s == cu.trainer.clock_s
        for cf, cu in zip(lossy_fused.clusters, lossy_unfused.clusters))
    lossy_ledger_exact = all(
        cf.trainer.ledger.by_kind() == cu.trainer.ledger.by_kind()
        and len(cf.trainer.ledger) == len(cu.trainer.ledger)
        for cf, cu in zip(lossy_fused.clusters, lossy_unfused.clusters))
    lossy_speedup = lossy_unfused_s / lossy_fused_s if lossy_fused_s > 0 \
        else float("inf")
    result.add_row(loss_rate=anchor_rate, scenario="lossy fused anchor",
                   fused_rounds=lossy_fused_report.fused_rounds,
                   failed_rounds=sum(
                       lossy_fused_report.failed_rounds.values()),
                   fused_speedup_x=round(lossy_speedup, 2))
    result.summary["lossy_fused_rounds"] = lossy_fused_report.fused_rounds
    result.summary["lossy_fused_speedup_x"] = round(lossy_speedup, 2)
    result.summary["lossy_fused_loss_divergence"] = lossy_loss_div
    result.check("lossy fused run pre-executes rounds as fleet waves",
                 lossy_fused_report.fused_rounds > 0)
    result.check("lossy fused clock and completion times are bit-exact",
                 lossy_clock_exact
                 and lossy_fused_report.completion_times
                 == lossy_unfused_report.completion_times
                 and lossy_fused_report.makespan_s
                 == lossy_unfused_report.makespan_s)
    result.check("lossy fused delivered/attempts ledger is bit-exact",
                 lossy_ledger_exact)
    result.check("lossy fused failed rounds and energy agree",
                 lossy_fused_report.failed_rounds
                 == lossy_unfused_report.failed_rounds
                 and lossy_fused_report.energy_j
                 == lossy_unfused_report.energy_j)
    result.check("lossy fused losses within reduction noise (1e-9)",
                 lossy_loss_div <= 1e-9)

    # --- 2b. Gilbert-Elliott preset (802.15.4-calibrated burst loss) --
    preset_spec = ChannelSpec.preset("802154_indoor",
                                     arq=ARQConfig(max_retries=1))
    preset_sched, preset_held = _build(factory, seed, engine="event", telemetry=bus,
                                       channels=preset_spec)
    preset_report = preset_sched.run(rounds_per_cluster=train_rounds)
    preset_nmse = _fleet_nmse(preset_sched, preset_held)
    preset_wire = _fleet_wire_bytes(preset_sched)
    result.add_row(loss_rate="GE:802154_indoor",
                   nmse=round(preset_nmse, 5),
                   mean_rounds_to_threshold=round(
                       _mean_rounds_to_threshold(preset_sched, thresholds,
                                                 train_rounds), 1),
                   failed_rounds=sum(preset_report.failed_rounds.values()),
                   wire_overhead=round(preset_wire / ideal_wire, 4))
    result.summary["preset_802154_indoor_nmse"] = preset_nmse
    result.check("802.15.4 indoor preset sweeps without blow-up",
                 np.isfinite(preset_nmse) and preset_wire >= ideal_wire)

    # --- 2c. recovery strategies: ARQ vs FEC vs hybrid ----------------
    # Narrow (802.15.4-class) backhaul so messages stripe across many
    # frames — the regime where recovery strategy matters (see
    # _make_fleet).  Same trajectories as the wide fleet (timing never
    # touches the math), so the ideal-run thresholds carry over.
    def run_recovery(recovery: str, channels: Optional[ChannelSpec],
                     deadline_s: Optional[float] = None):
        resilience = ResilientOrchestrationPolicy(
            recovery=recovery, max_consecutive_failures=10 ** 6)
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(seed), engine="event",
            channels=channels, resilience=resilience, telemetry=bus)
        held = []
        for name, trainer, data, held_rows, positions in factory(
                narrow_backhaul=True):
            scheduler.add_cluster(name, trainer, data, batch_size=16,
                                  positions=positions, deadline_s=deadline_s)
            held.append(held_rows)
        report = scheduler.run(rounds_per_cluster=train_rounds)
        completed = max(1, sum(report.rounds_per_cluster.values()))
        return (scheduler, held, report,
                sum(report.energy_j.values()) / completed)

    _, _, clean_report, clean_energy_per_round = run_recovery("arq", None)
    recovery_deadline = 1.25 * clean_report.makespan_s

    for preset in ("802154_indoor", "802154_outdoor", "noisy_office"):
        spec = ChannelSpec.preset(preset, arq=ARQConfig(max_retries=1))
        for recovery in ("arq", "fec", "hybrid"):
            sched, held, report, energy_per_round = run_recovery(
                recovery, spec, deadline_s=recovery_deadline)
            result.add_row(
                loss_rate=f"GE:{preset}", recovery=recovery,
                nmse=round(_fleet_nmse(sched, held), 5),
                mean_rounds_to_threshold=round(_mean_rounds_to_threshold(
                    sched, thresholds, train_rounds), 1),
                failed_rounds=sum(report.failed_rounds.values()),
                deadline_misses=len(report.deadline_misses),
                energy_per_round_overhead=round(
                    energy_per_round / clean_energy_per_round, 4),
                parity_k=report.coding_budgets.get("cluster-0"))

    # The headline: sweep Bernoulli loss under ARQ and FEC and locate
    # the loss rate above which coded uplinks deliver rounds cheaper
    # than retransmission at equal (or better) reconstruction quality.
    arq_energy_curve, fec_energy_curve = [], []
    arq_nmse_curve, fec_nmse_curve = [], []
    fec_parity_ks = []
    crossover = None
    for rate in RECOVERY_RATES:
        spec = ChannelSpec(loss=rate, arq=ARQConfig(max_retries=1))
        arq_sched, arq_held, arq_report, arq_epr = run_recovery("arq", spec)
        fec_sched, fec_held, fec_report, fec_epr = run_recovery("fec", spec)
        arq_rel = arq_epr / clean_energy_per_round
        fec_rel = fec_epr / clean_energy_per_round
        arq_err = _fleet_nmse(arq_sched, arq_held)
        fec_err = _fleet_nmse(fec_sched, fec_held)
        arq_energy_curve.append(arq_rel)
        fec_energy_curve.append(fec_rel)
        arq_nmse_curve.append(arq_err)
        fec_nmse_curve.append(fec_err)
        fec_parity_ks.append(fec_report.coding_budgets.get("cluster-0", 0))
        if crossover is None and fec_rel < arq_rel \
                and fec_err <= arq_err + 1e-3:
            crossover = rate
        result.add_row(loss_rate=rate, recovery="arq vs fec",
                       nmse=round(arq_err, 5),
                       fec_nmse=round(fec_err, 5),
                       failed_rounds=sum(arq_report.failed_rounds.values()),
                       fec_failed_rounds=sum(
                           fec_report.failed_rounds.values()),
                       energy_per_round_overhead=round(arq_rel, 4),
                       fec_energy_per_round_overhead=round(fec_rel, 4),
                       parity_k=fec_parity_ks[-1])
    result.add_series("arq_energy_per_round_vs_loss", RECOVERY_RATES,
                      arq_energy_curve, "frame_loss_rate", "x_ideal_energy")
    result.add_series("fec_energy_per_round_vs_loss", RECOVERY_RATES,
                      fec_energy_curve, "frame_loss_rate", "x_ideal_energy")
    result.summary["fec_beats_arq_above_loss_rate"] = crossover
    result.check("FEC beats ARQ on energy per delivered round above a "
                 "crossover loss rate", crossover is not None)
    result.check("at the mildest loss point, ARQ is the cheaper recovery",
                 arq_energy_curve[0] <= fec_energy_curve[0] + 1e-9)
    result.check("FEC wins decisively at the heaviest loss point",
                 fec_energy_curve[-1] < arq_energy_curve[-1])
    result.check("FEC holds reconstruction quality at the heaviest loss",
                 fec_nmse_curve[-1] <= arq_nmse_curve[-1] + 1e-3)
    result.check("adaptive parity budgets grow with loss",
                 all(k2 >= k1 for k1, k2 in zip(fec_parity_ks,
                                                fec_parity_ks[1:]))
                 and fec_parity_ks[-1] > 0)

    # --- 3. fault schedule: death, failover, straggler ----------------
    # Fault times are placed relative to the ideal makespan so the
    # deaths land mid-training at every scale.
    mk = event_report.makespan_s
    faults = FaultSchedule([
        FaultEvent(0.3 * mk, "node_death", "cluster-0", device=devices // 3),
        FaultEvent(0.45 * mk, "node_death", "cluster-0",
                   device=2 * devices // 3),
        FaultEvent(0.5 * mk, "aggregator_death", "cluster-1"),
        FaultEvent(0.4 * mk, "straggler", "cluster-2", magnitude=4.0),
        FaultEvent(0.8 * mk, "recover", "cluster-2"),
    ])
    resilience = ResilientOrchestrationPolicy(
        on_aggregator_death="replace",
        failover_downtime_s=0.05 * mk,
        min_device_fraction=0.25)
    faulty, faulty_held = _build(factory, seed, engine="event", telemetry=bus,
                                 channels=ChannelSpec(loss=0.05),
                                 faults=faults, resilience=resilience)
    faulty_report = faulty.run(rounds_per_cluster=train_rounds)
    masks = {"cluster-0": np.ones(devices)}
    masks["cluster-0"][devices // 3] = 0.0
    masks["cluster-0"][2 * devices // 3] = 0.0
    fault_nmse = _fleet_nmse(faulty, faulty_held, masks=masks)
    result.add_row(loss_rate=0.05, scenario="deaths+failover+straggler",
                   nmse=round(fault_nmse, 5),
                   faults_applied=faulty_report.faults_applied,
                   dead_clusters=len(faulty_report.dead_clusters),
                   makespan_s=round(faulty_report.makespan_s, 2))
    result.summary["fault_scenario_nmse"] = fault_nmse
    result.summary["fault_scenario_faults_applied"] = \
        faulty_report.faults_applied
    result.summary["fault_scenario_makespan_x_ideal"] = round(
        faulty_report.makespan_s / mk, 3)
    result.check("fault scenario completes without crashing",
                 np.isfinite(fault_nmse))
    result.check("all scheduled faults were injected",
                 faulty_report.faults_applied == len(faults))
    result.check("fleet survives first-node-death (no cluster retired)",
                 not faulty_report.dead_clusters)
    result.check("straggler + failover stretch the makespan",
                 faulty_report.makespan_s > mk)
    result.check("every cluster still trains to its round budget",
                 all(n == train_rounds
                     for n in faulty_report.rounds_per_cluster.values()))

    # --- 4. segment batching: fault-only fused vs unfused -------------
    # Same fault schedule, lossless channels: the fused engine must
    # reproduce the unfused event engine's clock and ledger exactly
    # while pre-executing the fault-free spans as fleet waves.
    fused, _ = _build(factory, seed, engine="event", telemetry=bus, faults=faults,
                      resilience=resilience)
    start = time.perf_counter()
    fused_report = fused.run(rounds_per_cluster=train_rounds)
    fused_s = time.perf_counter() - start
    unfused, _ = _build(factory, seed, engine="event", telemetry=bus, faults=faults,
                        resilience=resilience, segment_batching=False)
    start = time.perf_counter()
    unfused_report = unfused.run(rounds_per_cluster=train_rounds)
    unfused_s = time.perf_counter() - start

    fused_loss_div = max(
        float(np.abs(cf.history.losses - cu.history.losses).max())
        for cf, cu in zip(fused.clusters, unfused.clusters))
    clock_exact = all(
        np.array_equal(cf.history.times, cu.history.times)
        for cf, cu in zip(fused.clusters, unfused.clusters))
    ledger_exact = all(
        len(cf.trainer.ledger) == len(cu.trainer.ledger)
        and cf.trainer.ledger.total_wire_bytes()
        == cu.trainer.ledger.total_wire_bytes()
        for cf, cu in zip(fused.clusters, unfused.clusters))
    speedup = unfused_s / fused_s if fused_s > 0 else float("inf")
    result.add_row(loss_rate=0.0, scenario="fault-only segment batching",
                   fused_rounds=fused_report.fused_rounds,
                   segments=fused_report.segments,
                   fused_speedup_x=round(speedup, 2))
    result.summary["fault_only_fused_rounds"] = fused_report.fused_rounds
    result.summary["fault_only_segments"] = fused_report.segments
    result.summary["fault_only_fused_speedup_x"] = round(speedup, 2)
    result.summary["fault_only_fused_loss_divergence"] = fused_loss_div
    result.check("fused engine pre-executes rounds as fleet waves",
                 fused_report.fused_rounds > 0)
    result.check("fused fault-only clock and makespan are bit-exact",
                 clock_exact
                 and fused_report.makespan_s == unfused_report.makespan_s)
    result.check("fused fault-only ledger is bit-exact", ledger_exact)
    result.check("fused fault-only losses within reduction noise (1e-9)",
                 fused_loss_div <= 1e-9)
    result.check("fused fault-only reports agree (rounds, deaths, energy)",
                 fused_report.rounds_per_cluster
                 == unfused_report.rounds_per_cluster
                 and fused_report.dead_clusters
                 == unfused_report.dead_clusters
                 and fused_report.energy_j == unfused_report.energy_j)

    # --- 5. intra-cluster loss: sensor hops vs reconstruction NMSE ----
    # Unreliable *sensor* links inside one deployed cluster (the PR 2
    # open item): a hop that exhausts its recovery budget severs its
    # subtree from the partial sum, so per-frame loss shows up directly
    # as reconstruction error — and an erasure-coded sensor channel
    # buys the contributions back for a fixed parity premium.  The TDMA
    # cost model is loss-adaptive: ancestors of a severed subtree
    # forward only what was actually delivered, so the charged payloads
    # shrink with the contributions instead of assuming full
    # participation.
    rng = np.random.default_rng(seed + 77)
    positions = place_uniform(devices, (80.0, 80.0), rng)
    field = SensorField(regime=FieldRegime(mean=18.0, amplitude=2.0,
                                           correlation_length=6.0), rng=rng)
    rounds = field.generate_rounds(positions, rounds_data + 16)
    data, _, _ = normalized_rounds(rounds)
    config = OrcoDCSConfig(input_dim=devices, latent_dim=max(4, devices // 6),
                           noise_sigma=0.05, seed=seed, batch_size=16)
    framework = OrcoDCSFramework(config)
    framework.fit_config(data[:rounds_data], epochs=10)
    eval_rows = data[rounds_data:rounds_data + scaled(12, scale, minimum=6)]

    def deployed_recons(loss_rate: float, coding: Optional[CodingSpec]):
        """Per-row edge reconstructions + contributor fraction + wire."""
        network = WSNetwork(positions, battery_capacity_j=1e9)
        network.set_aggregator(select_aggregator(positions))
        if loss_rate > 0.0:
            network.attach_unreliable(
                sensor=ChannelSpec(loss=loss_rate,
                                   arq=ARQConfig(max_retries=0),
                                   coding=coding),
                rng=np.random.default_rng(seed + 1234))
        tree = build_aggregation_tree(network)
        deployment = EncoderDeployment(framework.model, network, tree)
        deployment.distribute()
        recons, contributors = [], []
        for row in eval_rows:
            readings = {nid: float(row[i])
                        for i, nid in enumerate(network.device_ids)}
            collected = deployment.compressed_round(readings)
            recons.append(deployment.reconstruct_at_edge(collected.latent))
            contributors.append(len(collected.contributors) / devices)
        return (np.array(recons), float(np.mean(contributors)),
                network.ledger.total_wire_bytes("compressed_round"))

    # The channel-induced error: degraded reconstruction vs the clean
    # cluster's reconstruction of the same rows.  (NMSE vs ground truth
    # is mean-dominated on smooth sensor fields and would bury the
    # channel's contribution; this isolates exactly what loss costs.)
    clean_recons, _, _ = deployed_recons(0.0, None)
    truth_nmse = float(nmse(eval_rows, clean_recons))
    plain_curve = []
    worst_stats = {}
    for rate in SENSOR_LOSS_RATES:
        plain_recons, plain_contrib, plain_wire = deployed_recons(rate, None)
        coded_recons, coded_contrib, coded_wire = deployed_recons(
            rate, CodingSpec(parity_frames=2))
        plain_err = float(nmse(clean_recons, plain_recons)) if rate else 0.0
        coded_err = float(nmse(clean_recons, coded_recons)) if rate else 0.0
        plain_curve.append(plain_err)
        if rate == SENSOR_LOSS_RATES[-1]:
            worst_stats = dict(plain=plain_err, coded=coded_err,
                               plain_contrib=plain_contrib,
                               coded_contrib=coded_contrib,
                               plain_wire=plain_wire, coded_wire=coded_wire)
        result.add_row(scenario="intra-cluster sensor loss",
                       loss_rate=rate,
                       nmse=round(plain_err, 6),
                       fec_nmse=round(coded_err, 6),
                       contributors=round(plain_contrib, 3),
                       fec_contributors=round(coded_contrib, 3),
                       wire_overhead=round(coded_wire / max(1, plain_wire),
                                           3))
    result.add_series("intra_cluster_nmse_vs_loss", SENSOR_LOSS_RATES,
                      plain_curve, "sensor_frame_loss_rate",
                      "channel_induced_nmse")
    result.summary["intra_cluster_truth_nmse"] = truth_nmse
    result.summary["intra_cluster_channel_nmse_at_30pct_loss"] = \
        worst_stats["plain"]
    result.summary["intra_cluster_coded_channel_nmse_at_30pct_loss"] = \
        worst_stats["coded"]
    result.check("intra-cluster NMSE stays finite under sensor loss",
                 all(np.isfinite(v) for v in plain_curve)
                 and np.isfinite(truth_nmse))
    result.check("sensor-hop loss degrades reconstruction",
                 worst_stats["plain"] > 0.0
                 and worst_stats["plain"] >= plain_curve[1])
    result.check("coded sensor hops keep more contributors at heavy loss",
                 worst_stats["coded_contrib"] > worst_stats["plain_contrib"])
    result.check("coded sensor hops reconstruct better at heavy loss",
                 worst_stats["coded"] < worst_stats["plain"])
    result.check("sensor-hop coding pays a parity wire premium",
                 worst_stats["coded_wire"] > worst_stats["plain_wire"])

    # --- 6. replicates: loss statistics across independent fleets ----
    # The lossy scenario replicated as independent fleets, replicate
    # ``i`` on its own :func:`repro.scale.fleet_rng` stream — the
    # replicate-to-replicate spread of failed rounds is the statistic
    # single runs cannot give.
    replica_count = 4
    replica_params = {"clusters": 2, "devices": min(devices, 16),
                      "rounds_data": 32, "engine": "event",
                      "loss": 0.15, "retries": 1}
    replica_rounds = min(train_rounds, 8)
    per_replica_failed = []
    for index in range(replica_count):
        job = FleetJob(index, f"replica-{index}", replica_params)
        fleet = default_fleet_builder(job, None, fleet_rng(seed, index))
        report = fleet.run(rounds_per_cluster=replica_rounds)
        per_replica_failed.append(sum(report.failed_rounds.values()))
    result.add_row(scenario="replicates", loss_rate=0.15,
                   failed_rounds=int(sum(per_replica_failed)),
                   replicas=replica_count)
    result.summary["replica_failed_rounds_spread"] = (
        int(min(per_replica_failed)), int(max(per_replica_failed)))
    return result


if __name__ == "__main__":
    print(run().format_report())
