"""Deploying the trained encoder into the sensor network (Sec. III-C).

After orchestrated training finishes, each IoT device needs only *its*
column of the encoder weight matrix to participate in compressed
aggregation: device ``i`` computes ``We[:, i] * x_i`` and partial sums
accumulate up the aggregation tree (the hybrid-CS reading of eq. 6 — see
the README's "Substitutions" section).  The aggregator finishes with the
bias and activation, recovering exactly the centralized eq. (1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..wsn.aggregation import (
    AggregationReport,
    AggregationTree,
    hybrid_encode,
    hybrid_encode_partial,
    simulate_encoder_distribution,
    simulate_hybrid_aggregation,
    simulate_masked_hybrid_aggregation,
)
from ..wsn.network import VALUE_BYTES, WSNetwork
from .autoencoder import AsymmetricAutoencoder


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The encoder's eq. (1) activation, applied by the aggregator."""
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class CompressedRound:
    """Result of one compressed data-collection round.

    ``contributors`` lists the devices whose readings reached the
    aggregator (all of them on a healthy cluster; a strict subset under
    node faults, when the partial sum is masked).
    """

    latent: np.ndarray
    report: AggregationReport
    contributors: Tuple[int, ...] = ()


class EncoderDeployment:
    """Binds a trained autoencoder to a WSN cluster for data collection.

    Parameters
    ----------
    model:
        Trained :class:`AsymmetricAutoencoder`; ``model.config.input_dim``
        must equal the cluster's device count (every device, including
        the aggregator, contributes one reading per round).
    network / tree:
        The cluster and its aggregation tree.
    """

    def __init__(self, model: AsymmetricAutoencoder, network: WSNetwork,
                 tree: AggregationTree):
        if network.num_devices != model.config.input_dim:
            raise ValueError(
                f"model expects {model.config.input_dim} devices, network has "
                f"{network.num_devices}")
        self.model = model
        self.network = network
        self.tree = tree
        # The deployed encoder is float64 whatever the model trains in:
        # the in-network partial sums then reproduce eq. (1) exactly.
        weight_e, bias_e = model.encoder_weights()
        self.weight_e = weight_e.astype(np.float64, copy=False)
        self.bias_e = bias_e.astype(np.float64, copy=False)
        # Device -> encoder column assignment: sorted node ids map to
        # columns 0..N-1 so the stacked vector X is well defined.  A
        # cluster's devices never change, so rounds iterate this dict
        # for the sorted ids.
        self.device_index = {nid: idx for idx, nid in enumerate(network.device_ids)}
        self.distributed = False

    # ------------------------------------------------------------------
    def distribute(self) -> AggregationReport:
        """Ship each device its encoder column down the tree; returns the
        cost report (the one-time deployment overhead of Fig. 3)."""
        report = simulate_encoder_distribution(
            self.network, self.tree, self.model.config.latent_dim)
        self.distributed = True
        return report

    def compressed_round(self, readings: Dict[int, float]) -> CompressedRound:
        """Collect one round of readings as an M-dimensional latent vector.

        Bills the network for the transmissions of the hybrid scheme,
        then performs the actual distributed numerics (partial-sum
        hybrid aggregation).

        With an unreliable sensor channel attached
        (:meth:`~repro.wsn.network.WSNetwork.attach_unreliable`), hops
        whose recovery budget is exhausted sever their subtree from the
        partial sum — the round's latent is the masked product over the
        readings that actually reached the aggregator, exactly like a
        dead relay.  Erasure-coded sensor channels
        (``ChannelSpec(..., coding=CodingSpec(k))``) tolerate up to
        ``k`` lost frames per hop without retransmission, keeping
        subtrees attached at a fixed parity-airtime premium: the
        coded-partial-sum path the intra-cluster loss sweep measures.

        Raises
        ------
        RuntimeError
            If the encoder has not been distributed yet.
        """
        if not self.distributed:
            raise RuntimeError("call distribute() before compressed rounds")
        failed = self.network.dead_device_ids()
        missing = [nid for nid in self.device_index
                   if nid not in readings and nid not in failed]
        if missing:
            raise ValueError(f"missing readings for devices {missing[:5]}")
        # Charge the network first: on unreliable sensor links the
        # transmissions decide which subtrees' contributions survive.
        if failed:
            report = simulate_masked_hybrid_aggregation(
                self.network, self.tree, self.model.config.latent_dim,
                failed=failed, values_per_node=1, kind="compressed_round")
        else:
            report = simulate_hybrid_aggregation(
                self.network, self.tree, self.model.config.latent_dim,
                values_per_node=1, kind="compressed_round")
        severed = failed | report.failed_hops
        if severed:
            partial, _, contributors = hybrid_encode_partial(
                self.tree, readings, self.weight_e, self.device_index,
                failed=severed)
        else:
            partial, _ = hybrid_encode(self.tree, readings, self.weight_e,
                                       self.device_index)
            contributors = frozenset(self.device_index)
        latent = _sigmoid(partial + self.bias_e)
        return CompressedRound(latent, report, tuple(sorted(contributors)))

    def centralized_latent(self, readings: Dict[int, float]) -> np.ndarray:
        """Reference eq. (1) computation for equivalence checks."""
        stacked = np.array([readings[nid] for nid in self.device_index])
        return _sigmoid(self.weight_e @ stacked + self.bias_e)

    def uplink_latent(self, latent: np.ndarray) -> float:
        """Send the aggregated latent to the edge; returns elapsed seconds."""
        payload = latent.size * VALUE_BYTES
        return self.network.uplink_to_edge(payload, kind="latent_uplink")

    def reconstruct_at_edge(self, latent: np.ndarray) -> np.ndarray:
        """Edge-side decode of an aggregated latent vector, in the
        model's dtype."""
        from ..nn.tensor import Tensor
        latent = np.atleast_2d(np.asarray(latent, dtype=self.model.config.dtype))
        return self.model.decode(Tensor(latent)).data[0]

    def end_to_end_round(self, readings: Dict[int, float]) -> Tuple[np.ndarray, np.ndarray]:
        """Full Sec. III-C data path: distributed encode -> uplink ->
        edge decode.  Returns (latent, reconstruction)."""
        collected = self.compressed_round(readings)
        self.uplink_latent(collected.latent)
        reconstruction = self.reconstruct_at_edge(collected.latent)
        return collected.latent, reconstruction
