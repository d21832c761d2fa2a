"""Erasure coding for latent uplinks: FEC as a third recovery strategy.

ARQ (stop-and-wait retransmission, :mod:`repro.sim.channel`) is a
*closed-loop* recovery mechanism: it spends airtime reactively, per lost
frame, and a tight retry budget turns bursty loss into whole lost
rounds.  This module adds the *open-loop* alternative the paper's
energy story calls for — transmission dominates sensing-node budgets,
so retransmission-free recovery is the natural other axis: send ``M+k``
coded symbols up front and decode **exactly** from *any* ``M``
arrivals, no feedback channel required.

Two pieces:

* :class:`CodingSpec` — the declarative per-link recipe (how many
  parity frames per message, whether ARQ repairs a shortfall), the FEC
  counterpart of :class:`~repro.sim.channel.ARQConfig`.  A message of
  ``F`` data frames is transmitted as ``F + k`` coded frames
  (per-frame striping: each frame is one shard) and is decodable iff
  at least ``F`` of them arrive.
* :func:`delivery_probability` / :func:`expected_frames_per_delivery` —
  the closed-form pricing the scheduler's resilience policy uses to
  derive an adaptive redundancy ``k`` from observed loss and battery
  headroom (see :meth:`repro.core.scheduler.ResilientOrchestrationPolicy.
  coding_parity_for`).

The cost model in :class:`~repro.sim.channel.UnreliableChannel` moves
no real payload bytes, so it models the code by counting alone: ``k``
extra stripe-sized frames per message, decodable iff at least ``F`` of
the ``F + k`` arrive.  That is the guarantee of a systematic
Cauchy-Reed-Solomon code over GF(256) — every square submatrix of a
Cauchy matrix is nonsingular, so the code is MDS — which also caps a
message at 256 shards.  The codec itself lives with the tests
(``tests/test_sim_coding.py``) as the oracle that any ``F`` of ``F + k``
shards decode exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "CodingSpec", "delivery_probability", "expected_frames_per_delivery",
    "hybrid_delivery_probability",
]


# ----------------------------------------------------------------------
# The declarative recipe + closed-form pricing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CodingSpec:
    """Per-link erasure-coding policy (the FEC analogue of ARQConfig).

    A message fragmenting into ``F`` data frames is transmitted as
    ``F + parity_frames`` coded frames — per-frame striping, each frame
    one shard of a systematic Cauchy-RS code — and is decodable iff at
    least ``F`` of them arrive.  Pure FEC is open-loop: every frame is
    radiated exactly once, no ACKs, no timeouts, no retransmissions.

    ``arq_fallback=True`` selects the **hybrid** strategy: after the
    coded burst, a shortfall (fewer than ``F`` arrivals) is repaired by
    retransmitting the erased coded frames stop-and-wait under the
    channel's :class:`~repro.sim.channel.ARQConfig` budget — FEC's
    fixed overhead plus ARQ's persistence, at ARQ's feedback cost.

    ``parity_frames=0`` is the degenerate code: zero erasure tolerance
    adds nothing, so the channel falls through to its uncoded path
    (bit-identical to a spec with no coding at all — asserted in
    ``tests/test_sim_coding.py``).
    """

    parity_frames: int = 2
    arq_fallback: bool = False

    def __post_init__(self):
        if self.parity_frames < 0:
            raise ValueError("parity_frames must be >= 0")
        if self.parity_frames > 255:
            raise ValueError("GF(256) striping supports at most 255 "
                             "parity frames")


def delivery_probability(data_frames: int, parity_frames: int,
                         loss_rate) -> "float | np.ndarray":
    """P[message decodable] under i.i.d. per-frame loss.

    The message survives iff at most ``parity_frames`` of its
    ``data_frames + parity_frames`` coded frames are erased — the
    binomial tail the adaptive-redundancy policy prices.  For bursty
    (Gilbert-Elliott) channels the policy feeds the chain's *mean* loss
    rate in, making this a first-order approximation.

    ``loss_rate`` may be a scalar or a numpy array; arrays are priced
    elementwise in one vectorized pass (per-element results are
    bit-identical to the scalar path, which accumulates the binomial
    terms in the same order).
    """
    if data_frames < 1:
        raise ValueError("data_frames must be >= 1")
    if parity_frames < 0:
        raise ValueError("parity_frames must be >= 0")
    total = data_frames + parity_frames
    if np.ndim(loss_rate) == 0:
        loss_rate = float(loss_rate)
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if loss_rate == 0.0:
            return 1.0
        keep = 1.0 - loss_rate
        return float(sum(comb(total, erased)
                         * loss_rate ** erased * keep ** (total - erased)
                         for erased in range(parity_frames + 1)))
    rates = np.asarray(loss_rate, dtype=float)
    if np.any(rates < 0.0) or np.any(rates >= 1.0):
        raise ValueError("loss_rate must be in [0, 1)")
    keep = 1.0 - rates
    # Accumulate term by term (the scalar sum order) so each element
    # matches the scalar path to the last ulp.
    probs = np.zeros_like(rates)
    for erased in range(parity_frames + 1):
        probs += comb(total, erased) * rates ** erased \
            * keep ** (total - erased)
    probs[rates == 0.0] = 1.0
    return probs


def expected_frames_per_delivery(data_frames: int, parity_frames: int,
                                 loss_rate) -> "float | np.ndarray":
    """Expected radiated frames per *delivered* message, pure FEC.

    Open-loop FEC always radiates ``F + k`` frames; a failed message
    wastes them all, so the per-delivery price is ``(F + k) /
    P[deliver]`` — the quantity the battery-aware redundancy rule
    minimises (more parity costs airtime every round; less parity
    wastes whole rounds).  Accepts scalar or array ``loss_rate`` like
    :func:`delivery_probability`.
    """
    p_deliver = delivery_probability(data_frames, parity_frames, loss_rate)
    if np.ndim(p_deliver) == 0:
        if p_deliver <= 0.0:
            return float("inf")
        return (data_frames + parity_frames) / p_deliver
    frames = float(data_frames + parity_frames)
    with np.errstate(divide="ignore"):
        return np.where(p_deliver > 0.0, frames / p_deliver, np.inf)


def hybrid_delivery_probability(data_frames: int, parity_frames: int,
                                loss_rate: float,
                                max_retries: int) -> float:
    """P[message decodable] under hybrid FEC + ARQ shortfall repair.

    The burst of ``F + k`` coded frames erases ``e ~ Binomial(F+k, p)``
    frames; ``e <= k`` decodes outright, otherwise the sender repairs
    the ``e - k`` missing shards stop-and-wait, each under the ARQ
    budget, aborting on the first repair that exhausts it — so the
    shortfall survives with probability ``(1 - p^(R+1))^(e-k)``.  Exact
    for i.i.d. loss; first-order (mean-rate) for Gilbert-Elliott, like
    :func:`delivery_probability`.
    """
    if data_frames < 1:
        raise ValueError("data_frames must be >= 1")
    if parity_frames < 0:
        raise ValueError("parity_frames must be >= 0")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    loss_rate = float(loss_rate)
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss_rate must be in [0, 1)")
    if loss_rate == 0.0:
        return 1.0
    total = data_frames + parity_frames
    keep = 1.0 - loss_rate
    q_slot = 1.0 - loss_rate ** (max_retries + 1)
    prob = 0.0
    for erased in range(total + 1):
        pmf = comb(total, erased) * loss_rate ** erased \
            * keep ** (total - erased)
        if erased <= parity_frames:
            prob += pmf
        else:
            prob += pmf * q_slot ** (erased - parity_frames)
    return float(prob)
