"""Unreliable links: frame loss, ARQ retransmission and erasure coding.

The seed's :class:`~repro.wsn.link.LinkModel` moves every byte
perfectly.  Real 802.15.4 sensor links and congested backhauls do not,
and the paper's IoT-edge setting makes loss the interesting regime: a
dropped latent-uplink frame costs a retransmission (energy + airtime)
or, past the ARQ budget, the whole round.  This module models that
per-frame:

* **loss models** — i.i.d. :class:`BernoulliLoss` and the bursty
  two-state :class:`GilbertElliottLoss` channel (good/bad states with
  per-state loss rates), the two standard abstractions;
* **ARQ** — stop-and-wait per frame with a retry budget and an
  ACK-timeout charge per lost attempt (:class:`ARQConfig`);
* **FEC / hybrid** — erasure-coded messages
  (:class:`~repro.sim.coding.CodingSpec`): ``k`` parity frames per
  message, decodable from any ``F`` of ``F+k`` coded frames —
  retransmission-free open-loop recovery, optionally with ARQ repair of
  a shortfall (hybrid).

Contract with the ideal layer: with no loss events an uncoded
:meth:`UnreliableChannel.transmit` reports *exactly*
``link.transfer_time(n)`` seconds and ``link.wire_bytes(n)`` bytes —
the property the event engine's zero-fault equivalence anchor rests on.

Channel traces
--------------
Channel randomness is also available as a *replayable input* instead of
an execution side effect: :meth:`UnreliableChannel.record_trace` draws
the loss outcomes of a whole horizon of fixed-payload transmits
up front (consuming the channel's RNG and burst state exactly as live
transmits would) and :meth:`UnreliableChannel.replay` switches the
channel to serving those pre-sampled :class:`TransmitResult`\\ s in
order.  Because a channel's draw sequence depends only on its own RNG —
never on *when* the simulated clock reaches each transmit — a recorded
trace is bit-identical to the live draws under the same seed, which is
what lets the scheduler's segment planner price lossy rounds at plan
time (attempts, delivered verdicts, retransmission energy, clock
stretch) and still match the unfused live run exactly.

Sequence pricing
----------------
:meth:`UnreliableChannel.transmit_each` prices a sequence of messages
of varying size, such as the hops of one aggregation-tree level.  When
the verdicts each message consumes are fixed by its payload — lossless
channels and pure FEC — the whole sequence is read from one sampler
block; the verdicts of a message are consumed only as the caller takes
it, so a caller that stops early (a dead relay, an empty battery)
leaves the channel where that many live
:meth:`~UnreliableChannel.transmit` calls would.  Other sequences
transmit live, message by message.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..obs.telemetry import NULL_BUS
from ..obs.telemetry import TransmitBatch as TransmitBatchEvent
from ..wsn.link import LinkModel
from .coding import CodingSpec
from .sampler import (LossSampler, exact_message_elapsed, make_loss_sampler,
                      parse_arq_stream)


# ----------------------------------------------------------------------
# Loss models
# ----------------------------------------------------------------------
class BernoulliLoss:
    """Each frame is lost independently with probability ``rate``."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.rate = rate

    def frame_lost(self, rng: np.random.Generator) -> bool:
        return bool(self.rate > 0.0 and rng.random() < self.rate)

    @property
    def mean_loss_rate(self) -> float:
        return self.rate


class GilbertElliottLoss:
    """Two-state bursty loss: a Markov chain over GOOD/BAD channel states.

    Parameters
    ----------
    p_good_to_bad / p_bad_to_good:
        Per-frame transition probabilities of the hidden channel state.
    loss_good / loss_bad:
        Frame-loss probability while in each state (classic
        Gilbert-Elliott; Gilbert's original model is ``loss_good=0``).
    """

    def __init__(self, p_good_to_bad: float = 0.05,
                 p_bad_to_good: float = 0.4,
                 loss_good: float = 0.0, loss_bad: float = 0.8):
        for name, p in (("p_good_to_bad", p_good_to_bad),
                        ("p_bad_to_good", p_bad_to_good),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if p_bad_to_good == 0.0 and loss_bad >= 1.0:
            raise ValueError("an inescapable always-lossy BAD state never "
                             "delivers; give p_bad_to_good > 0 or loss_bad < 1")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False

    def frame_lost(self, rng: np.random.Generator) -> bool:
        flip = self.p_bad_to_good if self.bad else self.p_good_to_bad
        if rng.random() < flip:
            self.bad = not self.bad
        rate = self.loss_bad if self.bad else self.loss_good
        return bool(rate > 0.0 and rng.random() < rate)

    @property
    def mean_loss_rate(self) -> float:
        """Steady-state frame loss rate of the chain."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0.0:
            return self.loss_good
        pi_bad = self.p_good_to_bad / denom
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad


LossModelLike = Union[None, float, BernoulliLoss, GilbertElliottLoss]


def as_loss_model(loss: LossModelLike):
    """Coerce ``None`` / a float rate / a model instance to a loss model."""
    if loss is None:
        return None
    if isinstance(loss, (int, float)):
        return BernoulliLoss(float(loss)) if loss > 0 else None
    return loss


# ----------------------------------------------------------------------
# ARQ + channel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ARQConfig:
    """Stop-and-wait retransmission policy for one link.

    ``max_retries`` counts retransmissions *beyond* the first attempt;
    each lost attempt additionally costs ``ack_timeout_s`` of waiting
    before the sender concludes the frame is gone.
    """

    max_retries: int = 3
    ack_timeout_s: float = 0.01

    def __post_init__(self):
        if not (isinstance(self.max_retries, numbers.Integral)
                and self.max_retries >= 0):
            raise ValueError(f"max_retries must be an integer >= 0, "
                             f"got {self.max_retries!r}")
        if not 0.0 <= self.ack_timeout_s < math.inf:
            raise ValueError(f"ack_timeout_s must be finite and >= 0, "
                             f"got {self.ack_timeout_s!r}")


@dataclass(frozen=True)
class RecoveryStrategy:
    """The resolved loss-recovery dispatch of one channel.

    The three transmit paths — uncoded stop-and-wait ARQ, open-loop
    FEC, hybrid FEC with ARQ repair — used to be chosen by ad-hoc
    ``coding``/``arq`` inspection at three call sites.  A strategy is
    resolved once (from :class:`ARQConfig` + optional
    :class:`~repro.sim.coding.CodingSpec`) and every transmit, batch
    pricer and trace recorder dispatches on it.  ``kind`` names it.
    """

    kind: str                          # "none" | "arq" | "fec" | "hybrid"
    coding: Optional[CodingSpec] = None

    @classmethod
    def resolve(cls, arq: "ARQConfig",
                coding: Optional[CodingSpec]) -> "RecoveryStrategy":
        """Derive the strategy a channel with these policies runs.

        A zero-parity coding spec degenerates to the uncoded path
        (bit-identical — zero erasure tolerance adds nothing), so only
        specs with real parity resolve to ``fec``/``hybrid``.
        """
        if coding is not None and coding.parity_frames > 0:
            return cls("hybrid" if coding.arq_fallback else "fec", coding)
        return cls("arq" if arq.max_retries > 0 else "none")

    @property
    def coded(self) -> bool:
        """True when transmits take the erasure-coded burst path."""
        return self.coding is not None


@dataclass(frozen=True)
class TransmitResult:
    """Outcome of one message transmission over an unreliable channel.

    On an erasure-coded channel ``delivered`` means the receiver holds
    enough coded frames to decode (any ``frames`` of the
    ``frames + parity_frames`` radiated); ``fec_wire_bytes`` /
    ``fec_time_s`` price the parity overhead separately so the ledger
    can attribute coding cost apart from retransmissions.
    """

    payload_bytes: int
    frames: int          # data frames the message fragments into
    attempts: int        # frame transmissions actually radiated
    lost_frames: int     # attempts that were lost in flight
    delivered: bool      # decodable / every frame within its ARQ budget?
    wire_bytes: int      # bytes radiated across all attempts
    elapsed_s: float     # sender-side elapsed time incl. ACK timeouts
    received_wire_bytes: int = 0   # bytes that actually reached the receiver
    retransmissions: int = 0       # attempts beyond the first, per frame
    parity_frames: int = 0         # erasure-code parity frames radiated
    fec_wire_bytes: int = 0        # bytes radiated as parity overhead
    fec_time_s: float = 0.0        # parity airtime


#: The outcome of a zero-byte message: no frames, nothing radiated.
_NOTHING = TransmitResult(0, 0, 0, 0, True, 0, 0.0, 0, 0)


def ideal_transmit_result(link: LinkModel, n_bytes: int) -> TransmitResult:
    """The closed-form outcome of a clean transmit on an ideal link.

    Exactly what :meth:`UnreliableChannel.transmit` reports for a
    lossless, uncoded message — the one pricing formula the batched
    kernel, the segment planner's no-trace stand-ins and the event
    engine's ideal links all share.
    """
    frames = link.frame_sizes(n_bytes)
    if not frames:
        return _NOTHING
    wire = link.wire_bytes(n_bytes)
    return TransmitResult(n_bytes, len(frames), len(frames), 0, True, wire,
                          link.transfer_time(n_bytes), wire, 0)


class ChannelTraceExhausted(RuntimeError):
    """A trace-driven channel was asked for more transmits than recorded."""


@dataclass
class ChannelTrace:
    """Pre-sampled transmit outcomes of one channel over a horizon.

    ``entries[i]`` is the :class:`TransmitResult` of the channel's
    ``i``-th transmit; ``cursor`` is the next entry a trace-driven
    :meth:`UnreliableChannel.transmit` will serve.  The scheduler's
    segment planner reads entries by absolute index (:meth:`entry`)
    without disturbing the cursor, so planning never perturbs replay.

    Traces recorded by :meth:`UnreliableChannel.record_trace` carry the
    re-recording metadata (``channel``, ``payload_bytes``, ``origin`` —
    the absolute sampler verdict offset of ``entries[0]``) that lets
    :meth:`rerecord` re-price the unconsumed horizon after the
    channel's ARQ/coding budgets change mid-run.
    """

    entries: Tuple[TransmitResult, ...]
    cursor: int = 0
    channel: Optional["UnreliableChannel"] = None
    payload_bytes: int = 0
    origin: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, index: int) -> TransmitResult:
        """Entry at absolute ``index`` (planner lookahead; cursor-free)."""
        return self.entries[index]

    def next(self) -> TransmitResult:
        """Consume and return the next recorded outcome."""
        if self.cursor >= len(self.entries):
            raise ChannelTraceExhausted(
                f"trace of {len(self.entries)} transmits exhausted")
        result = self.entries[self.cursor]
        self.cursor += 1
        return result

    def rerecord(self) -> None:
        """Re-record the unconsumed horizon under the channel's current
        budgets.

        The loss-verdict stream is budget-independent — an ARQ cap or
        parity count only changes how verdicts parse into slots and
        bursts — so re-recording rewinds the channel's sampler to the
        verdict offset the consumed entries end at (exactly where a
        live run would stand) and re-batches the remaining transmits.
        Consumed entries are kept verbatim: they already happened.
        """
        channel = self.channel
        if channel is None:
            raise ValueError(
                "trace lacks re-recording metadata; record it via "
                "UnreliableChannel.record_trace")
        consumed = self.entries[:self.cursor]
        remaining = len(self.entries) - self.cursor
        sampler = channel._sampler
        if sampler is not None:
            resume = self.origin + sum(e.attempts for e in consumed)
            sampler.rewind(resume)
            sampler.pin(resume)
        if remaining:
            self.entries = consumed + tuple(
                channel.transmit_batch(self.payload_bytes, remaining))


class UnreliableChannel:
    """A :class:`LinkModel` wrapped with loss, ARQ and erasure coding.

    Parameters
    ----------
    link:
        The ideal link (bandwidth/latency/framing) being degraded.
    loss:
        ``None`` (lossless), a float Bernoulli rate, or a loss model
        object with ``frame_lost(rng) -> bool``.
    arq:
        Retransmission policy; ``None`` uses the default budget.
    coding:
        Optional :class:`~repro.sim.coding.CodingSpec`: the message's
        frames become shards of a systematic erasure code (``k`` extra
        parity frames; decodable from any ``F`` of ``F+k``).  Pure FEC
        is open-loop (no ACKs, no retransmissions); with
        ``arq_fallback`` a shortfall is ARQ-repaired (hybrid).  A
        zero-parity spec degenerates to the uncoded path bit-for-bit.
    rng:
        Generator driving loss draws (deterministic per seed).
    vectorize:
        Route draws and trace recording through the block-sampling
        kernel of :mod:`repro.sim.sampler` when the loss model supports
        it (bit-identical, much faster).  ``False`` forces the scalar
        per-frame reference path — the baseline the kernel is
        bench-raced and property-tested against.
    """

    def __init__(self, link: LinkModel, loss: LossModelLike = None,
                 arq: Optional[ARQConfig] = None,
                 coding: Optional[CodingSpec] = None,
                 rng: Optional[np.random.Generator] = None,
                 vectorize: bool = True):
        self.link = link
        self.loss = as_loss_model(loss)
        self.arq = arq or ARQConfig()
        self.coding = coding
        self.rng = rng or np.random.default_rng()
        self.bus = NULL_BUS
        self.trace: Optional[ChannelTrace] = None
        self.strategy = RecoveryStrategy.resolve(self.arq, self.coding)
        self._sampler: Optional[LossSampler] = (
            make_loss_sampler(self.loss, self.rng) if vectorize else None)
        # Exact-elapsed memo tables, keyed by payload (see _batch_arq).
        self._elapsed_memo: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    def record_trace(self, payload_bytes: int,
                     transmits: int) -> ChannelTrace:
        """Pre-sample ``transmits`` fixed-payload transmit outcomes.

        Consumes this channel's RNG stream and burst state exactly as
        the same sequence of live :meth:`transmit` calls would, so a
        recorded-then-replayed run is bit-identical to a live run from
        the same seed.  Recording more transmits than a run consumes is
        harmless: each channel owns its RNG, so surplus draws leak into
        nothing.
        """
        if transmits < 0:
            raise ValueError("transmits must be non-negative")
        origin = self._sampler.position if self._sampler is not None else 0
        if self._sampler is not None:
            self._sampler.pin(origin)
        return ChannelTrace(tuple(self.transmit_batch(payload_bytes,
                                                      transmits)),
                            channel=self, payload_bytes=payload_bytes,
                            origin=origin)

    def replay(self, trace: ChannelTrace) -> None:
        """Serve future :meth:`transmit` calls from ``trace`` in order."""
        self.trace = trace

    @property
    def rerecordable(self) -> bool:
        """True when this channel's trace can re-record mid-run.

        Requires the draw stream to be rewindable: lossless channels
        draw nothing, block-sampled lossy channels retain their pinned
        verdict buffer.  Lossy channels on the scalar per-frame path
        (``vectorize=False``, or a loss model without a block sampler)
        consume the raw generator irreversibly.
        """
        return self.loss is None or self._sampler is not None

    def set_arq(self, arq: ARQConfig) -> None:
        """Swap the retransmission budget mid-run (fault re-derivation).

        Re-resolves the recovery strategy and drops the exact-elapsed
        memo tables — their entries are priced under the old retry cap.
        """
        self.arq = arq
        self.strategy = RecoveryStrategy.resolve(self.arq, self.coding)
        self._elapsed_memo.clear()

    def set_coding(self, coding: Optional[CodingSpec]) -> None:
        """Swap the erasure-coding budget mid-run (parity re-derivation)."""
        self.coding = coding
        self.strategy = RecoveryStrategy.resolve(self.arq, self.coding)
        self._elapsed_memo.clear()

    def rerecord_trace(self) -> None:
        """Re-record the attached trace's unconsumed horizon under the
        current budgets; no-op for live (untraced) channels."""
        if self.trace is None:
            return
        if not self.rerecordable:
            raise RuntimeError(
                "channel draws cannot be rewound (scalar per-frame "
                "path); the execution plan should not have fused")
        self.trace.rerecord()

    # ------------------------------------------------------------------
    def transmit(self, n_bytes: int) -> TransmitResult:
        """Move ``n_bytes`` across the link, frame by frame with ARQ.

        A message is delivered iff *every* frame is delivered within the
        retry budget; on a frame giving up, remaining frames are not
        sent (the sender aborts the message).  Lossless uncoded
        transmits reproduce the ideal link's closed-form time and bytes
        exactly.  Trace-driven channels pop the next pre-sampled
        outcome instead of drawing live.
        """
        if self.trace is not None:
            result = self.trace.next()
            if result.payload_bytes != n_bytes:
                raise ValueError(
                    f"trace recorded {result.payload_bytes}-byte transmits "
                    f"but {n_bytes} bytes were requested")
            return result
        return self._transmit_live(n_bytes)

    def _frame_lost(self) -> bool:
        """One loss verdict — from the block sampler when attached.

        The sampler consumes the channel RNG's stream in the same order
        scalar draws would, so routing every verdict through here keeps
        the scalar and batched paths on one stream.
        """
        if self._sampler is not None:
            return self._sampler.take()
        return self.loss is not None and self.loss.frame_lost(self.rng)

    def _arq_frame(self, payload: int, elapsed: float,
                   repair: bool) -> Tuple[bool, int, int, int, int, int,
                                          float]:
        """Stop-and-wait one frame under the ARQ budget.

        The one copy of the per-frame attempt/timeout accounting,
        shared by the uncoded message loop and the hybrid repair phase
        (which must never diverge).  The message's running ``elapsed``
        is threaded through so float accumulation order is identical to
        an inlined loop.  ``repair`` marks a retransmitted coded frame:
        every attempt, the first included, counts as a retransmission.
        Returns ``(delivered, attempts, lost, retransmissions, wire,
        received, elapsed)``.
        """
        link = self.link
        frame_wire = payload + link.header_bytes
        frame_time = link.frame_time(payload)
        attempts = lost = retransmissions = wire = received = 0
        for attempt in range(self.arq.max_retries + 1):
            attempts += 1
            retransmissions += repair or attempt > 0
            wire += frame_wire
            elapsed += frame_time
            if self._frame_lost():
                lost += 1
                elapsed += self.arq.ack_timeout_s
                continue
            received += frame_wire
            return True, attempts, lost, retransmissions, wire, received, \
                elapsed
        return False, attempts, lost, retransmissions, wire, received, elapsed

    def _transmit_live(self, n_bytes: int) -> TransmitResult:
        """One live transmit, dispatched on the resolved strategy."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        link = self.link
        frames = link.frame_sizes(n_bytes)
        if not frames:
            return _NOTHING
        if self.strategy.coded:
            return self._transmit_coded(n_bytes, frames)
        return self._transmit_arq(n_bytes, frames)

    def _transmit_arq(self, n_bytes: int,
                      frames: List[int]) -> TransmitResult:
        """Uncoded path: frame-by-frame stop-and-wait under the budget.

        Covers both the ``"arq"`` and ``"none"`` strategies — a zero
        retry budget is stop-and-wait with a single attempt per frame.
        """
        link = self.link
        elapsed = link.latency_s
        wire = 0
        received = 0
        attempts = 0
        lost = 0
        retransmissions = 0
        delivered = True
        for payload in frames:
            (frame_done, f_attempts, f_lost, f_retx, f_wire, f_received,
             elapsed) = self._arq_frame(payload, elapsed, repair=False)
            attempts += f_attempts
            lost += f_lost
            retransmissions += f_retx
            wire += f_wire
            received += f_received
            if not frame_done:
                delivered = False
                break

        if delivered and lost == 0:
            # Bit-exact agreement with the ideal link (no per-frame
            # floating-point summation drift on the clean path).
            elapsed = link.transfer_time(n_bytes)
            wire = link.wire_bytes(n_bytes)
            received = wire
        return TransmitResult(n_bytes, len(frames), attempts, lost,
                              delivered, wire, elapsed, received,
                              retransmissions)

    def _transmit_coded(self, n_bytes: int,
                        frames: List[int]) -> TransmitResult:
        """Erasure-coded transmit: an open-loop burst of ``F+k`` coded
        frames, decodable from any ``F`` arrivals.

        Per-frame striping: each data frame is one shard of a
        systematic Cauchy-RS code (:mod:`repro.sim.coding`); the ``k``
        parity frames carry stripe-sized parity shards (the stripe is
        the largest data-frame payload, so a short final frame is
        zero-padded into the code).  Pure FEC radiates every frame
        exactly once — no ACKs, no timeouts.  With ``arq_fallback`` a
        shortfall is repaired by retransmitting the erased coded frames
        stop-and-wait under the channel's ARQ budget (hybrid); a repair
        frame exhausting its budget loses the message, exactly like an
        uncoded ARQ abort.
        """
        link = self.link
        coding = self.coding
        if len(frames) + coding.parity_frames > 256:
            raise ValueError(
                f"message of {len(frames)} data frames + "
                f"{coding.parity_frames} parity frames exceeds the "
                "256-shard limit of the GF(256) Cauchy-RS code; split the "
                "payload or reduce the parity budget")
        stripe = frames[0]   # all but the last frame carry the max payload
        elapsed = link.latency_s
        wire = received = attempts = lost = retransmissions = 0
        arrived = 0
        erased: List[int] = []   # payload sizes of lost coded frames
        for payload in frames + [stripe] * coding.parity_frames:
            frame_wire = payload + link.header_bytes
            attempts += 1
            wire += frame_wire
            elapsed += link.frame_time(payload)
            if self._frame_lost():
                lost += 1
                erased.append(payload)
                continue
            received += frame_wire
            arrived += 1
        delivered = arrived >= len(frames)
        if not delivered and coding.arq_fallback:
            # Hybrid repair: the receiver NACKs the burst and the sender
            # retransmits erased coded frames until the decoder holds F
            # shards, each repair under the stop-and-wait ARQ budget.
            for payload in erased[:len(frames) - arrived]:
                (frame_done, f_attempts, f_lost, f_retx, f_wire, f_received,
                 elapsed) = self._arq_frame(payload, elapsed, repair=True)
                attempts += f_attempts
                lost += f_lost
                retransmissions += f_retx
                wire += f_wire
                received += f_received
                if not frame_done:
                    break   # repair budget exhausted: message lost
            else:
                delivered = True
        return TransmitResult(
            n_bytes, len(frames), attempts, lost, delivered, wire, elapsed,
            received, retransmissions, coding.parity_frames,
            coding.parity_frames * (stripe + link.header_bytes),
            coding.parity_frames * link.frame_time(stripe))

    # ------------------------------------------------------------------
    # Batched pricing (the vectorized kernel)
    # ------------------------------------------------------------------
    def transmit_batch(self, n_bytes: int, count: int) -> List[TransmitResult]:
        """Price ``count`` consecutive fixed-payload transmits at once.

        Bit-identical to ``count`` live :meth:`transmit` calls — same
        RNG stream, same burst-state evolution, same float accumulation
        — but the loss horizon is pre-sampled in blocks and ARQ/FEC
        outcomes are priced in O(count) array ops instead of per-frame
        generator steps.  Trace recording runs on this path; channels
        whose draws cannot be block-sampled (loss models without a
        sampler, ``vectorize=False``) fall back to the scalar per-frame
        reference.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if count == 0:
            return []
        results = self._transmit_batch(n_bytes, count)
        if self.bus.wants(TransmitBatchEvent.kind):
            self.bus.emit(TransmitBatchEvent(
                payload_bytes=n_bytes, count=count,
                delivered=sum(1 for r in results if r.delivered),
                attempts=sum(r.attempts for r in results),
                lost_frames=sum(r.lost_frames for r in results),
                retransmissions=sum(r.retransmissions for r in results),
                wire_bytes=sum(r.wire_bytes + r.fec_wire_bytes
                               for r in results)))
        return results

    def _transmit_batch(self, n_bytes: int, count: int
                        ) -> List[TransmitResult]:
        frames = self.link.frame_sizes(n_bytes)
        if not frames:
            return [_NOTHING] * count
        if self.loss is None:
            # Draw-free channel: one outcome, shared (results are
            # frozen).  Coded channels still radiate parity every time.
            if self.strategy.coded:
                return [self._transmit_coded(n_bytes, frames)] * count
            return [ideal_transmit_result(self.link, n_bytes)] * count
        if self._sampler is None:
            return [self._transmit_live(n_bytes) for _ in range(count)]
        if not self.strategy.coded:
            return self._batch_arq(n_bytes, frames, count)
        if self.coding.arq_fallback:
            return self._batch_hybrid(n_bytes, frames, count)
        return self._batch_fec(n_bytes, frames, count)

    def _batch_arq(self, n_bytes: int, frames: List[int],
                   count: int) -> List[TransmitResult]:
        """Vectorized uncoded pricing over a pre-sampled loss horizon.

        :func:`~repro.sim.sampler.parse_arq_stream` resolves the whole
        horizon's slot/message structure in closed form; counts and
        bytes then fall out of segment sums.  Elapsed time is the one
        quantity array math cannot reproduce bit-for-bit (float adds
        are order-sensitive), so lossy messages take their elapsed from
        memoized exact scalar replays — attempt patterns repeat
        heavily, single-frame payloads have at most ``cap + 1`` of
        them, so the replay loop runs a handful of times per payload.
        """
        sampler = self._sampler
        link = self.link
        cap = self.arq.max_retries + 1
        F = len(frames)
        mean = min(self.loss.mean_loss_rate, 0.95)
        est = int(count * F / (1.0 - mean) * 1.25) + 64
        while True:
            parsed = parse_arq_stream(sampler.peek(est), F, cap, count)
            if parsed is not None:
                break
            est *= 2
        sampler.advance(parsed["consumed"])
        header = link.header_bytes
        first, last = frames[0], frames[-1]
        slot_att = parsed["slot_attempts"]
        m_att = parsed["m_attempts"]
        m_slots = parsed["m_slots"]
        m_del = parsed["m_delivered"]
        m_start, m_end = parsed["m_start"], parsed["m_end"]
        del_slots = m_slots - (~m_del)
        lost = m_att - del_slots
        retx = m_att - m_slots
        # Every attempt radiates a full-size frame except attempts of
        # the final (possibly short) fragment, reached iff the message
        # delivered or failed on its very last frame.
        reached_last = m_del | (m_slots == F)
        last_att = slot_att[np.maximum(m_end - 1, 0)]
        wire = m_att * (first + header) \
            + np.where(reached_last, last_att * (last - first), 0)
        received = del_slots * (first + header) \
            + np.where(m_del, last - first, 0)
        clean = m_del & (lost == 0)
        ideal = ideal_transmit_result(link, n_bytes)
        # Results are frozen, so every clean message shares one object
        # and lossy outcomes are memoized: a fixed payload only admits
        # a handful of distinct (attempt pattern, delivered) values.
        if F == 1:
            table, failed_elapsed = self._arq_elapsed_tables(
                n_bytes, frames, cap)
            cache = self._elapsed_memo.setdefault(("arq1", n_bytes), {})
            frame_wire = first + header
            out: List[TransmitResult] = []
            for attempts, delivered in zip(m_att.tolist(), m_del.tolist()):
                if delivered and attempts == 1:
                    out.append(ideal)
                    continue
                result = cache.get((attempts, delivered))
                if result is None:
                    result = TransmitResult(
                        n_bytes, 1, attempts,
                        attempts - 1 if delivered else attempts, delivered,
                        attempts * frame_wire,
                        table[attempts] if delivered else failed_elapsed,
                        frame_wire if delivered else 0, attempts - 1)
                    cache[(attempts, delivered)] = result
                out.append(result)
            return out
        elapsed = np.full(count, ideal.elapsed_s)
        memo = self._elapsed_memo.setdefault(n_bytes, {})
        for i in np.flatnonzero(~clean):
            key = (tuple(slot_att[m_start[i]:m_end[i]].tolist()),
                   bool(m_del[i]))
            value = memo.get(key)
            if value is None:
                value = exact_message_elapsed(
                    link, frames, key[0], key[1], self.arq.ack_timeout_s)
                if len(memo) < 65536:
                    memo[key] = value
            elapsed[i] = value
        return [ideal if c else TransmitResult(n_bytes, F, a, l, d, w, e,
                                               r, x)
                for c, a, l, d, w, e, r, x in zip(
                    clean.tolist(), m_att.tolist(), lost.tolist(),
                    m_del.tolist(), wire.tolist(), elapsed.tolist(),
                    received.tolist(), retx.tolist())]

    def _arq_elapsed_tables(self, n_bytes: int, frames: List[int],
                            cap: int) -> Tuple[np.ndarray, float]:
        """Exact elapsed by attempt count for single-frame messages.

        Returns ``(table, failed)``: ``table[a]`` is the elapsed of a
        message delivered on its ``a``-th attempt, ``failed`` the one
        elapsed an exhausted budget can produce (``cap`` lost
        attempts).  ``cap + 2`` scalar replays cover every pattern a
        single-frame payload admits.
        """
        cached = self._elapsed_memo.get(("table", n_bytes))
        if cached is None:
            timeout = self.arq.ack_timeout_s
            table = np.empty(cap + 1)
            table[0] = 0.0   # unused: a delivery takes >= 1 attempt
            for attempts in range(1, cap + 1):
                table[attempts] = exact_message_elapsed(
                    self.link, frames, (attempts,), True, timeout)
            failed = exact_message_elapsed(self.link, frames, (cap,),
                                           False, timeout)
            cached = (table, failed)
            self._elapsed_memo[("table", n_bytes)] = cached
        return cached

    def _coded_constants(self, n_bytes: int, frames: List[int]) -> tuple:
        """Per-payload constants of the open-loop coded burst.

        A burst always radiates the same ``F + k`` frames, so its wire
        bytes and elapsed time (no timeouts — losses cost nothing but
        erasures) are payload constants; elapsed is accumulated in the
        scalar path's add order.
        """
        cached = self._elapsed_memo.get(("coded", n_bytes))
        if cached is None:
            link = self.link
            coding = self.coding
            stripe = frames[0]
            elapsed = link.latency_s
            wire = 0
            for payload in frames + [stripe] * coding.parity_frames:
                wire += payload + link.header_bytes
                elapsed += link.frame_time(payload)
            cached = (elapsed, wire,
                      coding.parity_frames * (stripe + link.header_bytes),
                      coding.parity_frames * link.frame_time(stripe))
            self._elapsed_memo[("coded", n_bytes)] = cached
        return cached

    def _batch_fec(self, n_bytes: int, frames: List[int],
                   count: int) -> List[TransmitResult]:
        """Vectorized open-loop FEC: every message consumes exactly
        ``F + k`` verdicts, so the horizon reshapes into per-message
        rows and delivery is a row-sum threshold."""
        coding = self.coding
        F = len(frames)
        burst = F + coding.parity_frames
        if burst > 256:
            # Same guard as the scalar path (kept there for fallbacks).
            return [self._transmit_coded(n_bytes, frames)
                    for _ in range(count)]
        sampler = self._sampler
        verdicts = np.array(sampler.peek(count * burst)[:count * burst],
                            dtype=bool).reshape(count, burst)
        sampler.advance(count * burst)
        lost = verdicts.sum(axis=1)
        return self._fec_results(n_bytes, frames, lost.tolist(),
                                 verdicts[:, F - 1].tolist())

    def _fec_results(self, n_bytes: int, frames: List[int],
                     lost: List[int],
                     last_lost: List[bool]) -> List[TransmitResult]:
        """Coded-burst outcomes from per-message erasure counts.

        A burst's outcome is fully determined by how many frames were
        erased and whether the (possibly short) final data frame was
        among them — at most ``2 * (F + k + 1)`` distinct frozen
        results per payload, so they are memoized and shared.
        """
        coding = self.coding
        F = len(frames)
        burst = F + coding.parity_frames
        elapsed, wire, fec_wire, fec_time = \
            self._coded_constants(n_bytes, frames)
        header = self.link.header_bytes
        stripe, last = frames[0], frames[-1]
        k = coding.parity_frames
        cache = self._elapsed_memo.setdefault(("fec", n_bytes), {})
        out: List[TransmitResult] = []
        for erased, short_lost in zip(lost, last_lost):
            result = cache.get((erased, short_lost))
            if result is None:
                # All arrivals are stripe-sized except the last data
                # frame.
                received = (burst - erased) * (stripe + header) \
                    + (0 if short_lost else last - stripe)
                result = TransmitResult(
                    n_bytes, F, burst, erased, burst - erased >= F, wire,
                    elapsed, received, 0, k, fec_wire, fec_time)
                cache[(erased, short_lost)] = result
            out.append(result)
        return out

    def _batch_hybrid(self, n_bytes: int, frames: List[int],
                      count: int) -> List[TransmitResult]:
        """Hybrid FEC+ARQ: vectorize runs of repair-free bursts.

        Repairs interleave extra draws between bursts, so the horizon
        cannot reshape wholesale; instead each run of bursts that
        decode outright is priced like pure FEC (delivered by
        construction) and each shortfall message replays through the
        scalar coded path — which draws from the same sampler, so the
        stream stays aligned.
        """
        coding = self.coding
        F = len(frames)
        burst = F + coding.parity_frames
        if burst > 256:
            return [self._transmit_coded(n_bytes, frames)
                    for _ in range(count)]
        sampler = self._sampler
        k = coding.parity_frames
        results: List[TransmitResult] = []
        while len(results) < count:
            remaining = count - len(results)
            verdicts = np.array(
                sampler.peek(remaining * burst)[:remaining * burst],
                dtype=bool).reshape(remaining, burst)
            shortfall = verdicts.sum(axis=1) > k
            clean_run = int(np.argmax(shortfall)) if shortfall.any() \
                else remaining
            if clean_run:
                block = verdicts[:clean_run]
                sampler.advance(clean_run * burst)
                results.extend(self._fec_results(
                    n_bytes, frames, block.sum(axis=1).tolist(),
                    block[:, F - 1].tolist()))
            if clean_run < remaining:
                results.append(self._transmit_coded(n_bytes, frames))
        return results

    # ------------------------------------------------------------------
    # Sequence pricing (one sampler block per sequence of messages)
    # ------------------------------------------------------------------
    def transmit_each(self, payloads: Sequence[int]
                      ) -> Iterator[TransmitResult]:
        """Transmit ``payloads`` one message at a time, lazily.

        Yields what ``transmit(n)`` would return for each ``n`` in turn,
        and takes a message's loss verdicts from the sampler only when
        the caller takes that message: stopping after ``k`` messages
        leaves the verdict stream and the burst state where ``k`` live
        transmits would.  Where the verdicts a message consumes are
        fixed by its payload (lossless channels, pure FEC) the whole
        sequence is priced from one sampler block when the first message
        is taken; otherwise (no sampler, lossy ARQ, hybrid repair, trace
        replay) each message transmits live as it is taken.  Nothing
        else may draw from this channel while the iterator is being
        taken: a block-priced message taken after another draw raises
        :class:`RuntimeError`.
        """
        priced = self._price_sequence(payloads)
        if priced is None:
            for n_bytes in payloads:
                yield self.transmit(n_bytes)
            return
        sampler = self._sampler
        cursor = sampler.position if sampler is not None else 0
        for result, verdicts in zip(*priced):
            if verdicts:
                if sampler.position != cursor:
                    raise RuntimeError(
                        "the channel drew loss verdicts while a priced "
                        "sequence was being taken")
                sampler.advance(verdicts)
                cursor += verdicts
            yield result

    def _price_sequence(self, payloads: Sequence[int]
                        ) -> Optional[Tuple[List[TransmitResult], List[int]]]:
        """Outcomes of ``payloads`` and the verdicts each one consumes,
        read from one sampler block without consuming it; ``None`` when
        a message's verdict count depends on its own verdicts (ARQ,
        hybrid repair), no sampler draws them, or the channel replays a
        trace."""
        if self.trace is not None or not payloads or min(payloads) < 0:
            return None
        link = self.link
        draws = self.loss is not None
        if not self.strategy.coded:
            if draws:
                return None
            return ([ideal_transmit_result(link, n_bytes)
                     for n_bytes in payloads], [0] * len(payloads))
        coding = self.coding
        sampler = self._sampler
        frames_of = {n_bytes: link.frame_sizes(n_bytes)
                     for n_bytes in set(payloads)}
        if len(frames_of[max(payloads)]) + coding.parity_frames > 256 or (
                draws and (sampler is None or coding.arq_fallback)):
            return None
        # Open-loop bursts draw F + k verdicts per message; on a lossless
        # channel none, and every burst decodes outright.
        used = [len(frames_of[n_bytes]) + coding.parity_frames
                if n_bytes and draws else 0 for n_bytes in payloads]
        verdicts = sampler.peek(sum(used)).tolist() if draws else []
        # Messages with equal (payload, erasures, short final data frame
        # lost) share one frozen outcome; zero-byte messages radiate
        # nothing.
        priced: Dict[tuple, TransmitResult] = {}
        results = []
        start = 0
        for n_bytes, width in zip(payloads, used):
            row = verdicts[start:start + width]
            start += width
            key = (n_bytes, sum(row),
                   bool(width) and row[len(frames_of[n_bytes]) - 1])
            result = priced.get(key)
            if result is None:
                result = priced[key] = self._fec_results(
                    n_bytes, frames_of[n_bytes], [key[1]], [key[2]])[0] \
                    if n_bytes else _NOTHING
            results.append(result)
        return results, used


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative recipe for building per-link unreliable channels.

    Experiments and the scheduler's event engine describe degradation
    once (loss rate, ARQ budget, coding) and stamp out one channel per
    cluster/link with independent RNG streams via :meth:`build`.

    ``loss`` may be a float (Bernoulli rate) or a zero-argument factory
    returning a fresh loss-model instance (needed for stateful
    Gilbert-Elliott channels, which must not share burst state).
    ``vectorize=False`` pins built channels to the scalar per-frame
    reference path (testing/benchmarking only).
    """

    loss: Union[float, Callable[[], object], None] = None
    arq: ARQConfig = field(default_factory=ARQConfig)
    coding: Optional[CodingSpec] = None
    vectorize: bool = True

    def __post_init__(self):
        # Checked here so that a bad value fails where it is set, not at
        # the first read of ``recovery``; with_arq and with_coding go
        # through dataclasses.replace, which runs this too.
        if not isinstance(self.arq, ARQConfig):
            raise TypeError(f"arq must be an ARQConfig, got {self.arq!r}")
        if self.coding is not None and not isinstance(self.coding, CodingSpec):
            raise TypeError("coding must be a CodingSpec or None, "
                            f"got {self.coding!r}")

    def build(self, link: LinkModel,
              rng: np.random.Generator) -> UnreliableChannel:
        loss = self.loss() if callable(self.loss) else self.loss
        return UnreliableChannel(link, loss=loss, arq=self.arq,
                                 coding=self.coding, rng=rng,
                                 vectorize=self.vectorize)

    def with_arq(self, arq: ARQConfig) -> "ChannelSpec":
        """This spec with a different retransmission budget.

        The hook per-cluster ARQ adaptation uses: the scheduler's
        resilience policy derives one budget per cluster (deadline
        slack, battery state) and stamps per-cluster channels from the
        shared loss recipe.
        """
        return replace(self, arq=arq)

    def with_coding(self, coding: CodingSpec) -> "ChannelSpec":
        """This spec with an erasure-coding recipe on every link.

        The hook per-cluster redundancy adaptation uses: the resilience
        policy derives one :class:`~repro.sim.coding.CodingSpec` per
        cluster from observed loss and battery headroom and stamps
        per-cluster channels from the shared recipe.
        """
        return replace(self, coding=coding)

    @property
    def rerecordable(self) -> bool:
        """True when channels built from this spec can re-record traces.

        Re-recording rewinds the sampler's verdict stream, so it needs
        a block-samplable loss model (or no loss at all) — the
        condition :func:`~repro.sim.sampler.make_loss_sampler` checks,
        probed here on a throwaway model instance (factories draw
        nothing at construction).
        """
        model = as_loss_model(self.loss() if callable(self.loss)
                              else self.loss)
        if model is None:
            return True
        if not self.vectorize:
            return False
        return make_loss_sampler(model, np.random.default_rng(0)) is not None

    @property
    def ideal(self) -> bool:
        """True when this spec degrades nothing (lossless, no coding
        overhead — parity frames radiate extra bytes and airtime even on
        a lossless link)."""
        if callable(self.loss):
            return False
        if self.coding is not None and self.coding.parity_frames > 0:
            return False
        return self.loss is None or self.loss == 0.0

    @classmethod
    def preset(cls, name: str, arq: Optional[ARQConfig] = None,
               coding: Optional[CodingSpec] = None) -> "ChannelSpec":
        """Named Gilbert-Elliott channel calibrated to 802.15.4 traces.

        Parameters per preset live in :data:`GILBERT_ELLIOTT_PRESETS`;
        ``loss`` is a factory, so every built channel gets its own burst
        state (bursts on one cluster's uplink must not synchronise with
        another's).
        """
        if name not in GILBERT_ELLIOTT_PRESETS:
            raise ValueError(f"unknown channel preset {name!r}; choose from "
                             f"{sorted(GILBERT_ELLIOTT_PRESETS)}")
        params = GILBERT_ELLIOTT_PRESETS[name]
        return cls(loss=lambda: GilbertElliottLoss(**params),
                   arq=arq or ARQConfig(), coding=coding)


#: Gilbert-Elliott parameter sets distilled from published IEEE 802.15.4
#: burst-loss measurements (Petrova et al., "Performance study of IEEE
#: 802.15.4 using measurements and simulations", WCNC 2006; Srinivasan
#: et al., "An empirical study of low-power wireless", ACM TOSN 2010;
#: Boano et al., "JamLab: augmenting sensornet testbeds with realistic
#: and controlled interference generation", IPSN 2011).  Transition
#: probabilities are per *frame*; mean burst length is
#: ``1 / p_bad_to_good`` frames, and the steady-state frame-loss rate is
#: reported next to each preset.
GILBERT_ELLIOTT_PRESETS: Dict[str, Dict[str, float]] = {
    # Indoor office link at moderate range: long good runs with ~1%
    # residual loss, occasional multipath fades of ~3 frames losing
    # about half the frames inside the burst.  Steady-state loss ~3.8%
    # — the "intermediate link" band TOSN 2010 measures indoors.
    "802154_indoor": dict(p_good_to_bad=0.02, p_bad_to_good=0.35,
                          loss_good=0.01, loss_bad=0.50),
    # Outdoor deployment near the sensitivity threshold: higher floor
    # loss (~3%) from low SNR, fades rarer but deeper and longer
    # (~4 frames at 60% loss), steady-state loss ~5.2% — matching the
    # longer-range outdoor PER curves in WCNC 2006.
    "802154_outdoor": dict(p_good_to_bad=0.01, p_bad_to_good=0.25,
                           loss_good=0.03, loss_bad=0.60),
    # 2.4 GHz office under Wi-Fi/microwave interference (the JamLab
    # regime): bursts are frequent (one every ~17 frames) and severe
    # (70% loss while jammed), steady-state loss ~15% — the hostile end
    # of the coexistence measurements.
    "noisy_office": dict(p_good_to_bad=0.06, p_bad_to_good=0.25,
                         loss_good=0.02, loss_bad=0.70),
}
