"""IoT-Edge orchestrated online training (the paper's central mechanism).

One *round* of the protocol (Sec. III-B, "Training procedure"):

1. the data aggregator encodes a raw minibatch into latent vectors
   (eq. 1) and perturbs them with Gaussian noise (eq. 2);
2. the noisy latents travel over the uplink to the edge server;
3. the edge decodes them into reconstructions (eq. 3);
4. reconstructions (and latent gradients) travel back over the cheap
   downlink; the reconstruction error (eq. 4) is evaluated;
5. the edge updates the decoder, the aggregator updates the encoder.

The :class:`OrchestratedTrainer` executes these rounds with one shared
autograd graph (mathematically identical updates to the distributed
message exchange) while *accounting* for the distribution: every round is
charged modeled compute seconds on each side and bytes on each link.
The same trainer class drives both OrcoDCS and the online-DCSNet
baseline, which differ only in their modules, loss and noise policy.

The round is exposed as a composable pipeline — ``encode_batch`` ->
``decode_latent`` -> ``reconstruction_loss`` -> ``apply_updates`` — with
``step`` orchestrating one full accounted round.
:class:`repro.core.fleet.FleetTrainer` reimplements the same pipeline
over a *stacked* batch of K clusters (one block-diagonal tensor program
instead of K Python-level passes); the scheduler picks between the two
engines.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn import losses as losses_mod
from ..nn.optim import Adam
from ..nn.layers import Module
from ..nn.tensor import Tensor
from ..wsn.network import TransmissionLedger
from .autoencoder import AsymmetricAutoencoder
from .config import LOSSES, OrcoDCSConfig
from .noise import GaussianNoiseInjector
from .timing import (
    OrchestrationTimingModel,
    OverheadReport,
    RoundTiming,
    dense_flops,
    dense_stack_flops,
    overhead_report,
)


@dataclass(frozen=True)
class RoundCosts:
    """Memoised per-round cost profile for one (trainer, batch size)."""

    timing: RoundTiming
    up_bytes: int
    down_bytes: int
    up_wire_bytes: int
    down_wire_bytes: int


@dataclass
class RoundRecord:
    """One orchestrated minibatch round."""

    round_index: int
    epoch: int
    time_s: float          # cumulative modeled seconds after this round
    train_loss: float
    uplink_bytes: int
    downlink_bytes: int


@dataclass
class EpochRecord:
    """Aggregated view at an epoch boundary."""

    epoch: int
    time_s: float
    train_loss: float
    val_loss: Optional[float]


class TrainingHistory:
    """Loss-vs-modeled-time trajectory of one training run.

    This is the object Figures 4 and 6-8 are drawn from.
    """

    def __init__(self, name: str):
        self.name = name
        self.rounds: List[RoundRecord] = []
        self.epochs: List[EpochRecord] = []

    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        return np.array([r.time_s for r in self.rounds])

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.rounds])

    @property
    def final_loss(self) -> float:
        if not self.rounds:
            raise ValueError("history is empty")
        return self.rounds[-1].train_loss

    @property
    def total_time_s(self) -> float:
        return self.rounds[-1].time_s if self.rounds else 0.0


class OrchestratedTrainer:
    """Generic IoT-Edge orchestrated online trainer.

    Parameters
    ----------
    encoder / decoder:
        Aggregator-side and edge-side modules.  ``decoder(encoder(x))``
        must map ``(B, input_dim)`` rows back to ``(B, input_dim)`` rows.
    input_dim / latent_dim:
        Data and code dimensions (drive the byte accounting).
    loss:
        Reconstruction loss object.
    noise:
        Latent-noise injector (``None`` disables — DCSNet's setting).
    encoder_forward_flops / decoder_forward_flops:
        Per-sample forward FLOPs of each side, for the timing model.
    timing:
        :class:`OrchestrationTimingModel` (devices + links).
    learning_rate:
        Adam learning rate.  Each side gets its own :class:`Adam` — the
        aggregator and the edge each keep their own optimiser state, as
        in the real deployment.

    The trainer's :attr:`dtype` is its parameters' dtype, which both
    sides must share; every data entry point casts its rows to it once.
    """

    def __init__(self, encoder: Module, decoder: Module, *,
                 input_dim: int, latent_dim: int,
                 loss: losses_mod.Loss,
                 noise: Optional[GaussianNoiseInjector],
                 encoder_forward_flops: float,
                 decoder_forward_flops: float,
                 timing: Optional[OrchestrationTimingModel] = None,
                 learning_rate: float = 1e-3,
                 rng: Optional[np.random.Generator] = None,
                 name: str = "orchestrated"):
        self.encoder = encoder
        self.decoder = decoder
        self.input_dim = input_dim
        self.latent_dim = latent_dim
        self.loss = loss
        self.noise = noise
        self.encoder_forward_flops = encoder_forward_flops
        self.decoder_forward_flops = decoder_forward_flops
        self.timing = timing or OrchestrationTimingModel()
        self.rng = rng or np.random.default_rng()
        self.name = name
        self.encoder_optimizer = Adam(encoder.parameters(), lr=learning_rate)
        self.decoder_optimizer = Adam(decoder.parameters(), lr=learning_rate)
        dtypes = {p.dtype for p in self.encoder_optimizer.params
                  + self.decoder_optimizer.params}
        if len(dtypes) != 1:
            raise ValueError("encoder and decoder parameters must share "
                             f"one dtype, got {sorted(map(str, dtypes))}")
        (self.dtype,) = dtypes
        self.ledger = TransmissionLedger()
        self.clock_s = 0.0
        self._round_index = 0
        self._training = True
        self._round_costs_cache: Dict[int, RoundCosts] = {}

    # ------------------------------------------------------------------
    # Protocol steps (each maps to one leg of the Sec. III-B round; the
    # fleet engine mirrors this pipeline over stacked K-cluster batches)
    # ------------------------------------------------------------------
    def encode_batch(self, x: Tensor, training: bool = True) -> Tensor:
        """Aggregator side: eq. (1) encode, plus eq. (2) train-time noise."""
        latent = self.encoder(x)
        if self.noise is not None and training:
            latent = self.noise(latent)
        return latent

    def decode_latent(self, latent: Tensor) -> Tensor:
        """Edge side: eq. (3) decode latents into reconstructions."""
        return self.decoder(latent)

    def reconstruction_loss(self, reconstruction: Tensor, batch) -> Tensor:
        """Eq. (4) reconstruction error (differentiable)."""
        return self.loss(reconstruction, batch)

    def apply_updates(self, loss_value: Tensor) -> None:
        """Backprop and step both sides' optimisers (edge first)."""
        self.encoder_optimizer.zero_grad()
        self.decoder_optimizer.zero_grad()
        loss_value.backward()
        self.decoder_optimizer.step()   # edge updates first (has grads first)
        self.encoder_optimizer.step()

    def _forward(self, batch: np.ndarray, training: bool) -> Tensor:
        return self.decode_latent(self.encode_batch(Tensor(batch), training))

    def round_costs(self, batch_size: int) -> RoundCosts:
        """Memoised :class:`RoundCosts` for one batch size.

        The cost of a round depends only on the batch size for a fixed
        trainer, so schedulers and the fleet engine reuse this instead of
        re-deriving the cost model every round.
        """
        cached = self._round_costs_cache.get(batch_size)
        if cached is None:
            timing = self.timing.training_round(
                batch_size, self.input_dim, self.latent_dim,
                self.encoder_forward_flops, self.decoder_forward_flops)
            up_bytes, down_bytes = self.timing.round_bytes(
                batch_size, self.input_dim, self.latent_dim)
            cached = RoundCosts(timing, up_bytes, down_bytes,
                                self.timing.up.wire_bytes(up_bytes),
                                self.timing.down.wire_bytes(down_bytes))
            self._round_costs_cache[batch_size] = cached
        return cached

    def account_round(self, batch_size: int, epoch: int,
                      train_loss: float) -> RoundRecord:
        """Charge one round's modeled time/bytes and emit its record.

        Split out from :meth:`step` so the fleet engine — which executes
        the tensor math for K clusters at once — can reuse the identical
        per-cluster clock and ledger bookkeeping.
        """
        costs = self.round_costs(batch_size)
        timing = costs.timing
        self.clock_s += timing.total_s
        self.ledger.record(0, -1, costs.up_bytes, costs.up_wire_bytes,
                           "latent_uplink", timing.uplink_s)
        self.ledger.record(-1, 0, costs.down_bytes, costs.down_wire_bytes,
                           "recon_downlink", timing.downlink_s)
        self._round_index += 1
        return RoundRecord(self._round_index, epoch, self.clock_s,
                           train_loss, costs.up_bytes, costs.down_bytes)

    def step(self, batch: np.ndarray, epoch: int = 0) -> RoundRecord:
        """Run one orchestrated minibatch round and account for it."""
        batch = np.atleast_2d(np.asarray(batch, dtype=self.dtype))
        if batch.shape[1] != self.input_dim:
            raise ValueError(f"batch dim {batch.shape[1]} != input_dim {self.input_dim}")
        reconstruction = self._forward(batch, training=True)
        loss_value = self.reconstruction_loss(reconstruction, batch)
        self.apply_updates(loss_value)
        return self.account_round(batch.shape[0], epoch,
                                  float(loss_value.item()))

    # Historical name for :meth:`step`, kept for callers of the original API.
    train_round = step

    def evaluate(self, rows: np.ndarray) -> float:
        """Reconstruction loss without noise or parameter updates."""
        rows = np.atleast_2d(np.asarray(rows, dtype=self.dtype))
        reconstruction = self._forward(rows, training=False)
        return float(self.loss(reconstruction, rows).item())

    def reconstruct(self, rows: np.ndarray) -> np.ndarray:
        """Reconstruct rows (inference path, no noise)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=self.dtype))
        return self._forward(rows, training=False).data

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def fit(self, train_rows: np.ndarray, epochs: int = 10,
            batch_size: int = 32, val_rows: Optional[np.ndarray] = None,
            time_budget_s: Optional[float] = None,
            history: Optional[TrainingHistory] = None) -> TrainingHistory:
        """Online training over ``train_rows`` (``(num_samples, N)``).

        Each epoch visits the rows in a fresh random order.  Stops early
        when the modeled clock exceeds ``time_budget_s``; an existing
        ``history`` is continued (used by fine-tuning relaunches).
        """
        train_rows = np.atleast_2d(np.asarray(train_rows, dtype=self.dtype))
        for name, value in (("epochs", epochs), ("batch_size", batch_size)):
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, "
                                 f"got {value!r}")
        history = history or TrainingHistory(self.name)
        for epoch in range(1, epochs + 1):
            order = np.arange(len(train_rows))
            self.rng.shuffle(order)
            epoch_losses: List[float] = []
            for start in range(0, len(order), batch_size):
                batch = train_rows[order[start:start + batch_size]]
                record = self.train_round(batch, epoch)
                history.rounds.append(record)
                epoch_losses.append(record.train_loss)
                if time_budget_s is not None and self.clock_s >= time_budget_s:
                    break
            val_loss = self.evaluate(val_rows) if val_rows is not None else None
            history.epochs.append(EpochRecord(
                epoch, self.clock_s, float(np.mean(epoch_losses)), val_loss))
            if time_budget_s is not None and self.clock_s >= time_budget_s:
                break
        return history


class OrcoDCSFramework(OrchestratedTrainer):
    """OrcoDCS wired from an :class:`OrcoDCSConfig`.

    Builds the asymmetric autoencoder, the Huber loss and the Gaussian
    noise injector, computes the FLOP profile of both sides and exposes
    the trained model for deployment (Sec. III-C).
    """

    def __init__(self, config: OrcoDCSConfig,
                 timing: Optional[OrchestrationTimingModel] = None,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(config.seed)
        model = AsymmetricAutoencoder(config, rng)
        loss = LOSSES[config.loss]()
        encoder_flops, decoder_flops = _forward_flops(config)
        super().__init__(
            model.encoder, model.decoder,
            input_dim=config.input_dim, latent_dim=config.latent_dim,
            loss=loss, noise=model.noise,
            encoder_forward_flops=encoder_flops,
            decoder_forward_flops=decoder_flops,
            timing=timing, learning_rate=config.learning_rate, rng=rng,
            name="OrcoDCS")
        self.config = config
        self.model = model

    def fit_config(self, train_rows: np.ndarray, epochs: int = 10,
                   val_rows: Optional[np.ndarray] = None,
                   **kwargs) -> TrainingHistory:
        """`fit` with the batch size taken from the config."""
        return self.fit(train_rows, epochs=epochs,
                        batch_size=self.config.batch_size,
                        val_rows=val_rows, **kwargs)

    def reconstruct_diverse(self, rows: np.ndarray,
                            copies: int = 2) -> np.ndarray:
        """Decode one clean and ``copies - 1`` noise-perturbed latents
        per row.

        This is the mechanism behind the paper's Fig. 5 claim: "the
        addition of Gaussian noise to the latent spaces ... leads to the
        generation of more diverse data by the decoder", which the
        follow-up classifier benefits from.  Returns ``copies *
        len(rows)`` rows; the first ``len(rows)`` are clean decodes.
        """
        if copies < 1:
            raise ValueError("copies must be >= 1")
        rows = np.atleast_2d(np.asarray(rows, dtype=self.dtype))
        outputs = [self.reconstruct(rows)]
        for _ in range(copies - 1):
            latent = self.encoder(Tensor(rows))
            noisy = self.noise(latent)
            outputs.append(self.decoder(noisy).data)
        return np.vstack(outputs)

    def overhead(self) -> OverheadReport:
        """Sec. III-E's overhead breakdown for this configuration."""
        return config_overhead(self.config)


def _forward_flops(config: OrcoDCSConfig) -> Tuple[int, int]:
    """Per-sample forward FLOPs of ``config``'s encoder and decoder."""
    if config.decoder_layers == 1:
        decoder_dims = [config.latent_dim, config.input_dim]
    else:
        hidden = config.hidden_width
        decoder_dims = ([config.latent_dim]
                        + [hidden] * (config.decoder_layers - 1)
                        + [config.input_dim])
    return (dense_flops(config.input_dim, config.latent_dim),
            dense_stack_flops(decoder_dims))


def config_overhead(config: OrcoDCSConfig) -> OverheadReport:
    """Sec. III-E's overhead breakdown for ``config``.

    It reads the config alone, so no model is built:
    :meth:`OrcoDCSFramework.overhead` returns it for the framework's
    config, and the overhead experiment calls it directly.
    """
    encoder_flops, decoder_flops = _forward_flops(config)
    return overhead_report(config.batch_size, config.input_dim,
                           config.latent_dim, encoder_flops, decoder_flops)
