"""Batched fleet execution of many cluster training sessions.

The paper's conclusion names edge-side training overhead under many
concurrent data aggregators as the open problem.  The scheduler models
that contention; this module makes simulating it *fast*: a
:class:`FleetTrainer` takes K live :class:`~repro.core.orchestrator.
OrchestratedTrainer` instances whose models share an architecture (the
multi-cluster experiments' setting — same device count and latent size,
independent weights) and executes one training round for **all K
clusters as a single stacked tensor program**:

* encoders/decoders become block-diagonal ``(K, B, N) @ (K, N, M)``
  matmuls via :mod:`repro.nn.batched`;
* per-cluster reconstruction losses come from the loss's
  ``per_cluster`` reduction, so every cluster keeps its own exact loss
  value and gradient;
* optimisers are slice-stacked with per-slice Adam step counts, so a
  cluster's update sequence is identical to training it alone.

Equivalence contract: for identical seeds (weights, noise draws and
minibatch streams), the per-cluster loss trajectory produced by
:meth:`FleetTrainer.step` matches running each trainer's
:meth:`~repro.core.orchestrator.OrchestratedTrainer.step` sequentially to
within floating-point reduction noise (asserted to <= 1e-6 in the test
suite and benchmarks; observed ~1e-12).  Modeled-time and byte accounting
are delegated to each trainer's own
:meth:`~repro.core.orchestrator.OrchestratedTrainer.account_round`, so
:class:`~repro.wsn.network.TransmissionLedger` entries stay per-cluster.

What batching changes is *wall-clock* cost only: K Python-level autograd
passes collapse into one pass over stacked arrays.  The modeled clock —
where edge compute serialises across clusters — is still produced by
:class:`~repro.core.scheduler.EdgeTrainingScheduler`, which replays its
policy over the fleet-executed rounds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..nn.batched import (
    ActiveSlices,
    FleetIncompatibilityError,
    _as_index,
    check_fleet_optimizers,
    fleet_optimizer_from,
    fleet_optimizer_to,
    fleet_settings,
    run_stack,
    stack_sequential,
    unstack_sequential,
)
from ..nn.layers import Module, Sequential
from ..nn.tensor import Tensor
from ..wsn.network import TransmissionRecord
from .orchestrator import OrchestratedTrainer, RoundRecord

__all__ = ["FleetTrainer", "FleetIncompatibilityError",
           "fleet_compatible", "stacking_key"]


def _check_homogeneous(trainers: Sequence[OrchestratedTrainer]) -> None:
    first = trainers[0]
    for trainer in trainers[1:]:
        if (trainer.input_dim, trainer.latent_dim) != \
                (first.input_dim, first.latent_dim):
            raise FleetIncompatibilityError(
                "input/latent dimensions differ across trainers: "
                f"({trainer.input_dim}, {trainer.latent_dim}) vs "
                f"({first.input_dim}, {first.latent_dim})")
        if trainer.dtype != first.dtype:
            # np.stack would promote the stack, and the write-back would
            # hand the narrower clusters wider parameters.
            raise FleetIncompatibilityError(
                "parameter dtypes differ across trainers: "
                f"{trainer.dtype} vs {first.dtype}")
        if type(trainer.loss) is not type(first.loss) or \
                vars(trainer.loss) != vars(first.loss):
            raise FleetIncompatibilityError(
                "loss type/parameters differ across trainers")
    for trainer in trainers:
        for side in (trainer.encoder, trainer.decoder):
            if not isinstance(side, Sequential):
                raise FleetIncompatibilityError(
                    "fleet execution requires Sequential encoder/decoder "
                    f"models, got {type(side).__name__}")


def fleet_compatible(trainers: Sequence[OrchestratedTrainer]) -> bool:
    """True when the trainers can be executed as one stacked fleet."""
    if not trainers:
        return False
    try:
        _check_homogeneous(trainers)
        stack_sequential([t.encoder for t in trainers])
        stack_sequential([t.decoder for t in trainers])
        check_fleet_optimizers([t.encoder_optimizer for t in trainers])
        check_fleet_optimizers([t.decoder_optimizer for t in trainers])
        probe = np.zeros((len(trainers), 1, trainers[0].input_dim))
        trainers[0].loss.per_cluster(Tensor(probe), probe)
    except (FleetIncompatibilityError, NotImplementedError):
        return False
    return True


def stacking_key(trainer: OrchestratedTrainer) -> Optional[tuple]:
    """Hashable architecture signature for homogeneous-group stacking.

    Trainers with equal keys are candidates for the same stacked
    program (same dimensions, parameter dtype, layer stack, loss and
    Adam settings); mixed-architecture fleets partition into groups by
    this key, each group batching on its own.  ``None`` marks a trainer with no
    stacked form at all (non-``Sequential`` models).  The key is a
    cheap *pre-filter*: candidate groups are still validated with
    :func:`fleet_compatible` before a fleet is built, so a key
    collision can cost a fallback but never correctness.
    """
    encoder, decoder = trainer.encoder, trainer.decoder
    if not isinstance(encoder, Sequential) or not isinstance(decoder,
                                                             Sequential):
        return None

    def model_signature(model: Sequential) -> tuple:
        signature = []
        for layer in model.layers:
            entry = [type(layer).__name__]
            for attr in ("in_features", "out_features"):
                if hasattr(layer, attr):
                    entry.append((attr, getattr(layer, attr)))
            entry.append(getattr(layer, "bias", None) is not None)
            signature.append(tuple(entry))
        return tuple(signature)

    loss = trainer.loss
    # The Adam settings are the ones check_fleet_optimizers compares: a
    # mismatch must land in a *different* group, not shatter a candidate
    # group at validation time.
    return (trainer.input_dim, trainer.latent_dim, trainer.dtype,
            type(loss).__name__,
            tuple(sorted((k, repr(v)) for k, v in vars(loss).items())),
            model_signature(encoder), model_signature(decoder),
            fleet_settings(trainer.encoder_optimizer),
            fleet_settings(trainer.decoder_optimizer))


class FleetTrainer:
    """Executes K orchestrated trainers' rounds as stacked tensor ops.

    Parameters
    ----------
    trainers:
        Architecture-homogeneous :class:`OrchestratedTrainer` instances.
        Weights, optimiser state (including mid-training state) and noise
        RNG streams are taken from them at construction; call
        :meth:`sync_to_trainers` to write trained state back.

    Notes
    -----
    Noise sigmas *may* differ per cluster (each cluster keeps its own
    :class:`~repro.core.noise.GaussianNoiseInjector` and RNG); model
    dimensions, parameter dtype, loss and optimiser settings may not.
    Batches are cast to the stack's :attr:`dtype`.
    """

    def __init__(self, trainers: Sequence[OrchestratedTrainer]):
        if not trainers:
            raise FleetIncompatibilityError("fleet needs at least one trainer")
        _check_homogeneous(trainers)
        self.trainers: List[OrchestratedTrainer] = list(trainers)
        first = trainers[0]
        self.input_dim = first.input_dim
        self.latent_dim = first.latent_dim
        self.dtype = first.dtype
        self.loss = first.loss
        self.encoder_layers: List[Module] = stack_sequential(
            [t.encoder for t in trainers])
        self.decoder_layers: List[Module] = stack_sequential(
            [t.decoder for t in trainers])
        self.encoder_optimizer = fleet_optimizer_from(
            [t.encoder_optimizer for t in trainers],
            _layer_params(self.encoder_layers))
        self.decoder_optimizer = fleet_optimizer_from(
            [t.decoder_optimizer for t in trainers],
            _layer_params(self.decoder_layers))
        self._noise_buffer: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        return len(self.trainers)

    def _active_trainers(self, index: Optional[np.ndarray]
                         ) -> List[OrchestratedTrainer]:
        if index is None:
            return self.trainers
        return [self.trainers[k] for k in index.tolist()]

    def _inject_noise(self, latent: Tensor,
                      trainers: Sequence[OrchestratedTrainer]) -> Tensor:
        """Per-cluster latent noise, drawn from each cluster's own RNG.

        Draw order is cluster order, matching a sequential sweep over the
        same trainers; clusters without noise contribute exact zeros.
        """
        buffer = self._noise_buffer
        if buffer is None or buffer.shape != latent.shape:
            buffer = self._noise_buffer = np.empty(latent.shape, latent.dtype)
        any_noise = False
        slice_shape = latent.shape[1:]
        for row, trainer in enumerate(trainers):
            injector = trainer.noise
            if injector is not None and injector.sigma > 0.0:
                any_noise = True
                buffer[row] = injector.rng.normal(0.0, injector.sigma,
                                                  slice_shape)
            else:
                buffer[row] = 0.0
        if not any_noise:
            return latent
        return latent + Tensor(buffer)

    # ------------------------------------------------------------------
    def forward(self, batches: np.ndarray,
                active: ActiveSlices = None) -> Tensor:
        """Stacked encode -> noise -> decode over ``(K, B, N)`` batches."""
        index = _as_index(active, self.num_clusters)
        x = Tensor(batches)
        latent = run_stack(self.encoder_layers, x, index)
        latent = self._inject_noise(latent, self._active_trainers(index))
        return run_stack(self.decoder_layers, latent, index)

    def step(self, batches: np.ndarray,
             epochs: Optional[Sequence[int]] = None,
             active: ActiveSlices = None) -> List[RoundRecord]:
        """One training round for every (active) cluster, in one pass.

        Parameters
        ----------
        batches:
            ``(A, B, N)`` stack, one minibatch per active cluster, in
            active-index order (all clusters when ``active`` is None).
        epochs:
            Optional per-active-cluster epoch labels for the records.
        active:
            Subset of cluster indices (unique, in range) or a boolean
            mask over the fleet to train this round; the other
            clusters' weights and optimiser state are untouched.

        Returns
        -------
        One :class:`RoundRecord` per active cluster (same order), after
        charging each cluster's own modeled clock and ledger.
        """
        batches = np.asarray(batches, dtype=self.dtype)
        index = _as_index(active, self.num_clusters)
        trainers = self._active_trainers(index)
        if batches.ndim != 3 or batches.shape[0] != len(trainers):
            raise ValueError(
                f"expected ({len(trainers)}, B, {self.input_dim}) batch "
                f"stack, got {batches.shape}")
        if batches.shape[2] != self.input_dim:
            raise ValueError(f"batch dim {batches.shape[2]} != "
                             f"input_dim {self.input_dim}")
        reconstruction = self.forward(batches, active=index)
        per_cluster = self.loss.per_cluster(reconstruction, batches)
        total = per_cluster.sum()
        self.encoder_optimizer.zero_grad()
        self.decoder_optimizer.zero_grad()
        total.backward()
        self.decoder_optimizer.step(index)   # edge first, as sequentially
        self.encoder_optimizer.step(index)

        batch_size = batches.shape[1]
        losses = per_cluster.data
        records = []
        for row, trainer in enumerate(trainers):
            epoch = int(epochs[row]) if epochs is not None else 0
            # Inline fast path of OrchestratedTrainer.account_round —
            # identical clock, ledger and record semantics, minus the
            # per-cluster call overhead on the engine's hottest loop.
            costs = trainer.round_costs(batch_size)
            timing = costs.timing
            trainer.clock_s += timing.total_s
            ledger_records = trainer.ledger.records
            ledger_records.append(TransmissionRecord(
                0, -1, costs.up_bytes, costs.up_wire_bytes,
                "latent_uplink", timing.uplink_s))
            ledger_records.append(TransmissionRecord(
                -1, 0, costs.down_bytes, costs.down_wire_bytes,
                "recon_downlink", timing.downlink_s))
            trainer._round_index += 1
            records.append(RoundRecord(trainer._round_index, epoch,
                                       trainer.clock_s, float(losses[row]),
                                       costs.up_bytes, costs.down_bytes))
        return records

    # ------------------------------------------------------------------
    def sync_to_trainers(self) -> None:
        """Write trained weights and optimiser state back to the trainers.

        After this, each trainer continues sequentially exactly as if it
        had executed its rounds itself.
        """
        unstack_sequential(self.encoder_layers,
                           [t.encoder for t in self.trainers])
        unstack_sequential(self.decoder_layers,
                           [t.decoder for t in self.trainers])
        fleet_optimizer_to(self.encoder_optimizer,
                           [t.encoder_optimizer for t in self.trainers])
        fleet_optimizer_to(self.decoder_optimizer,
                           [t.decoder_optimizer for t in self.trainers])


def _layer_params(layers: Sequence[Module]):
    params = []
    for layer in layers:
        params.extend(layer.parameters())
    return params
