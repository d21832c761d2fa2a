"""Vectorized channel kernel: pre-sampled loss horizons, batched pricing.

The per-frame channel in :mod:`repro.sim.channel` prices every frame
with one or two scalar ``Generator.random()`` calls plus a Python loop
iteration — fine for a handful of transmits, ruinous for the
10^4–10^6-frame horizons that trace recording and unfused lossy runs
walk.  This module replaces the *draw* side with block sampling and the
*pricing* side with O(horizon) array ops, both bit-identical to the
scalar path:

* **Samplers** (:class:`BernoulliSampler`, :class:`GilbertElliottSampler`)
  pre-draw whole blocks of uniforms with a single ``rng.random(n)`` call.
  NumPy's ``Generator.random(n)`` consumes the underlying bit stream
  exactly as ``n`` successive scalar ``random()`` calls do, so verdicts
  derived from a block equal the per-frame draws draw-for-draw.  The
  Gilbert-Elliott chain vectorizes by scanning sojourns: with both
  per-state loss rates positive every frame consumes exactly two
  uniforms (flip, then loss), so a block splits into stride-2 flip/loss
  lanes and the hidden state advances one geometric sojourn per Python
  iteration instead of one frame.
* **Pricing** (:func:`parse_arq_stream`) tiles a pre-sampled verdict
  stream into stop-and-wait ARQ slots and groups slots into messages in
  closed form — the greedy slot structure is context-free (an aborted
  message radiates nothing further, the stream simply continues with the
  next message), so a ``floor``/``mod`` over inter-delivery run lengths
  recovers attempts, delivered flags, retransmissions and wire bytes
  without stepping frames.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..wsn.link import LinkModel

#: Minimum uniforms drawn per refill — amortizes Generator call overhead
#: for scalar consumers (live transmits popping one verdict at a time).
_MIN_BLOCK = 512


class LossSampler:
    """Block-sampled frame-loss verdicts, bit-identical to scalar draws.

    ``peek(n)`` exposes the next ``n`` loss verdicts (True = frame lost)
    without consuming them; ``advance(k)`` consumes ``k``.  All loss
    draws of a channel must flow through its sampler once one is
    attached — the sampler owns the generator's stream from the first
    refill on.
    """

    def peek(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def advance(self, n: int) -> None:
        raise NotImplementedError

    def take(self) -> bool:
        """Consume and return one verdict (the scalar hot path)."""
        verdict = bool(self.peek(1)[0])
        self.advance(1)
        return verdict

    # -- absolute stream addressing (trace re-recording support) -------
    #
    # Subclasses keep ``_origin`` (absolute verdict offset of the buffer
    # base), ``_pos`` (consumed frames relative to the base) and
    # ``_pin`` (absolute offset the buffer must retain, or None).

    @property
    def position(self) -> int:
        """Absolute verdict offset of the next unconsumed frame."""
        return self._origin + self._pos

    def pin(self, offset: Optional[int]) -> None:
        """Retain buffered verdicts from absolute ``offset`` on.

        Pinned verdicts survive compaction, so a later :meth:`rewind`
        to any offset at or past the pin replays them bit-identically.
        ``None`` releases the pin.
        """
        if offset is not None and not self._origin <= offset <= self.position:
            raise ValueError(
                f"pin offset {offset} outside retained buffer "
                f"[{self._origin}, {self.position}]")
        self._pin = offset

    def rewind(self, offset: int) -> None:
        """Move the cursor back to absolute ``offset`` (pinned region)."""
        rel = offset - self._origin
        if not 0 <= rel <= self._pos:
            raise ValueError(
                f"rewind offset {offset} outside retained buffer "
                f"[{self._origin}, {self.position}]")
        self._pos = rel


class BernoulliSampler(LossSampler):
    """i.i.d. losses: one uniform per frame, block-compared to the rate."""

    def __init__(self, model, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self._verdicts = np.empty(0, dtype=bool)
        self._pos = 0
        self._origin = 0
        self._pin: Optional[int] = None

    def peek(self, n: int) -> np.ndarray:
        avail = self._verdicts.size - self._pos
        if avail < n:
            drop = self._pos if self._pin is None else \
                min(self._pos, max(self._pin - self._origin, 0))
            if drop:
                self._verdicts = self._verdicts[drop:]
                self._pos -= drop
                self._origin += drop
            draw = max(self._pos + n - self._verdicts.size, _MIN_BLOCK)
            fresh = self.rng.random(draw) < self.model.rate
            self._verdicts = np.concatenate([self._verdicts, fresh])
        return self._verdicts[self._pos:self._pos + n]

    def advance(self, n: int) -> None:
        self._pos += n


class GilbertElliottSampler(LossSampler):
    """Bursty two-state losses, vectorized via geometric sojourn scans.

    Requires both per-state loss rates positive so every frame consumes
    exactly two uniforms — flip at even stream offsets, loss at odd —
    matching :meth:`GilbertElliottLoss.frame_lost` draw-for-draw.  Raw
    uniforms are kept for the underived/unconsumed region; the hidden
    state is re-synced to ``model.bad`` whenever the buffer drains (and
    pushed back into ``model.bad`` on every advance), so external pokes
    at the burst state between transmits behave as on the scalar path.
    """

    def __init__(self, model, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self._flip_u = np.empty(0, dtype=float)
        self._loss_u = np.empty(0, dtype=float)
        self._verdicts = np.empty(0, dtype=bool)
        self._states = np.empty(0, dtype=bool)   # post-transition per frame
        self._derived = 0    # frames of the buffer with verdicts computed
        self._pos = 0        # frames already consumed
        self._chain_bad = bool(model.bad)   # state after frame _derived-1
        self._origin = 0
        self._origin_bad = bool(model.bad)  # state entering frame _origin
        self._pin: Optional[int] = None

    def _compact(self) -> None:
        drop = self._pos if self._pin is None else \
            min(self._pos, max(self._pin - self._origin, 0))
        if drop == 0:
            return
        self._origin_bad = bool(self._states[drop - 1])
        self._flip_u = self._flip_u[drop:]
        self._loss_u = self._loss_u[drop:]
        self._verdicts = self._verdicts[drop:]
        self._states = self._states[drop:]
        self._derived -= drop
        self._pos -= drop
        self._origin += drop

    def _derive(self, upto: int) -> None:
        """Extend derived verdicts/states to cover ``upto`` frames."""
        model = self.model
        if self._derived == self._pos:
            # Buffer drained: honor any external poke at the burst state.
            self._chain_bad = bool(model.bad)
        start = self._derived
        n = upto - start
        flips = self._flip_u[start:upto]
        states = np.empty(n, dtype=bool)
        g_hits = np.flatnonzero(flips < model.p_good_to_bad)
        b_hits = np.flatnonzero(flips < model.p_bad_to_good)
        bad = self._chain_bad
        pos = 0
        while pos < n:
            hits = b_hits if bad else g_hits
            j = np.searchsorted(hits, pos)
            nxt = int(hits[j]) if j < hits.size else n
            states[pos:nxt] = bad
            if nxt < n:
                bad = not bad
                states[nxt] = bad
            pos = nxt + 1
        rates = np.where(states, model.loss_bad, model.loss_good)
        verdicts = self._loss_u[start:upto] < rates
        self._verdicts = np.concatenate([self._verdicts[:start], verdicts])
        self._states = np.concatenate([self._states[:start], states])
        self._derived = upto
        self._chain_bad = bad

    def peek(self, n: int) -> np.ndarray:
        want = self._pos + n
        if want > self._flip_u.size:
            self._compact()
            want = self._pos + n
            draw = max(want - self._flip_u.size, _MIN_BLOCK)
            u = self.rng.random(2 * draw)
            self._flip_u = np.concatenate([self._flip_u, u[0::2]])
            self._loss_u = np.concatenate([self._loss_u, u[1::2]])
        if want > self._derived:
            self._derive(self._flip_u.size)
        return self._verdicts[self._pos:self._pos + n]

    def advance(self, n: int) -> None:
        self._pos += n
        if self._pos:
            self.model.bad = bool(self._states[self._pos - 1])

    def rewind(self, offset: int) -> None:
        """Rewind and re-sync the chain state to the resume point.

        Already-derived verdicts/states are retained and replayed —
        they depend only on the raw uniforms and the chain state at the
        buffer base, never on how the stream was parsed downstream.
        """
        super().rewind(offset)
        rel = self._pos
        self.model.bad = bool(self._states[rel - 1]) if rel > 0 \
            else self._origin_bad


def make_loss_sampler(loss,
                      rng: np.random.Generator) -> Optional[LossSampler]:
    """A block sampler for ``loss`` when one can match scalar draws.

    Returns ``None`` when block sampling cannot reproduce the scalar
    RNG stream: a Gilbert-Elliott model with a zero per-state loss rate
    (the default ``GilbertElliottLoss()`` among them) draws a
    state-dependent number of uniforms per frame; unknown or lossless
    models have nothing to sample.  Callers fall back to the per-frame
    path in those cases.
    """
    # Imported here: channel.py imports this module at load time.
    from .channel import BernoulliLoss, GilbertElliottLoss

    if loss is None:
        return None
    if isinstance(loss, BernoulliLoss):
        return BernoulliSampler(loss, rng) if loss.rate > 0.0 else None
    if isinstance(loss, GilbertElliottLoss):
        if loss.loss_good > 0.0 and loss.loss_bad > 0.0:
            return GilbertElliottSampler(loss, rng)
    return None


# ----------------------------------------------------------------------
# Batched ARQ pricing
# ----------------------------------------------------------------------
def parse_arq_stream(verdicts: np.ndarray, frames_per_msg: int, cap: int,
                     max_msgs: int) -> Optional[dict]:
    """Tile a loss-verdict stream into ARQ slots and messages, in closed
    form.

    ``verdicts[i]`` is the loss verdict of the ``i``-th frame attempt
    (True = lost).  A *slot* is one frame's stop-and-wait run: up to
    ``cap`` attempts, delivered on the first False, failed after ``cap``
    Trues.  A *message* is ``frames_per_msg`` consecutive delivered
    slots, or fewer slots terminated by a failed slot (the sender aborts
    and the stream continues with the next message) — both tilings are
    greedy and context-free, so run lengths between delivered attempts
    resolve them with ``floor``/``mod`` instead of stepping frames.

    Returns per-message/per-slot arrays and the number of verdicts the
    first ``max_msgs`` messages consume, or ``None`` if fewer than
    ``max_msgs`` complete messages fit in ``verdicts``.
    """
    v = np.asarray(verdicts, dtype=bool)
    delivered_at = np.flatnonzero(~v)
    # --- slots: each delivered attempt ends a slot; a run of g lost
    # attempts before it greedily fills g // cap failed slots first.
    runs = np.diff(np.concatenate(([-1], delivered_at))) - 1
    fails = runs // cap
    del_att = runs % cap + 1
    per_block = fails + 1
    total_slots = int(per_block.sum())
    if total_slots:
        block = np.repeat(np.arange(per_block.size), per_block)
        offs = np.concatenate(([0], np.cumsum(per_block)))
        within = np.arange(total_slots) - offs[block]
        is_del = within == fails[block]
        slot_attempts = np.where(is_del, del_att[block], cap)
        slot_ok = is_del
    else:
        slot_attempts = np.empty(0, dtype=np.int64)
        slot_ok = np.empty(0, dtype=bool)
    tail = v.size - (int(delivered_at[-1]) + 1 if delivered_at.size else 0)
    tail_fails = tail // cap   # trailing all-lost slots; remainder is an
    if tail_fails:             # incomplete slot and stays unconsumed
        slot_attempts = np.concatenate(
            [slot_attempts, np.full(tail_fails, cap, dtype=np.int64)])
        slot_ok = np.concatenate([slot_ok, np.zeros(tail_fails, dtype=bool)])
    # --- messages: the same floor/mod trick one level up, over runs of
    # delivered slots between failed slots.
    F = frames_per_msg
    failed_at = np.flatnonzero(~slot_ok)
    seg = np.diff(np.concatenate(([-1], failed_at))) - 1
    full = seg // F
    rem = seg % F
    per_seg = full + 1
    total_msgs = int(per_seg.sum())
    if total_msgs:
        segi = np.repeat(np.arange(per_seg.size), per_seg)
        moffs = np.concatenate(([0], np.cumsum(per_seg)))
        mwithin = np.arange(total_msgs) - moffs[segi]
        m_failed = mwithin == full[segi]
        m_slots = np.where(m_failed, rem[segi] + 1, F)
        m_delivered = ~m_failed
    else:
        m_slots = np.empty(0, dtype=np.int64)
        m_delivered = np.empty(0, dtype=bool)
    tail_ok = slot_ok.size - (int(failed_at[-1]) + 1 if failed_at.size else 0)
    tail_msgs = tail_ok // F
    if tail_msgs:
        m_slots = np.concatenate(
            [m_slots, np.full(tail_msgs, F, dtype=np.int64)])
        m_delivered = np.concatenate(
            [m_delivered, np.ones(tail_msgs, dtype=bool)])
    if m_slots.size < max_msgs:
        return None
    m_slots = m_slots[:max_msgs]
    m_delivered = m_delivered[:max_msgs]
    m_end = np.cumsum(m_slots)
    m_start = m_end - m_slots
    att_cum = np.concatenate(([0], np.cumsum(slot_attempts)))
    m_attempts = att_cum[m_end] - att_cum[m_start]
    consumed = int(att_cum[m_end[-1]]) if max_msgs else 0
    return dict(slot_attempts=slot_attempts, m_slots=m_slots,
                m_delivered=m_delivered, m_start=m_start, m_end=m_end,
                m_attempts=m_attempts, consumed=consumed)


def exact_message_elapsed(link: LinkModel, frames: List[int],
                          attempts_seq: Tuple[int, ...], delivered: bool,
                          ack_timeout_s: float) -> float:
    """Elapsed time of one uncoded message, in scalar accumulation order.

    Replays the float-add sequence of the per-frame ARQ loop (latency,
    then per attempt ``frame_time`` and per lost attempt the ACK
    timeout) so batched pricing matches the scalar path bit-for-bit —
    ``a*t + l*T`` style closed forms differ in the last ulp.  Memoized
    by callers: attempt patterns repeat heavily, so the loop runs once
    per distinct ``(payload, pattern)`` pair.
    """
    elapsed = link.latency_s
    last = len(attempts_seq) - 1
    for idx, attempts in enumerate(attempts_seq):
        frame_time = link.frame_time(frames[idx])
        slot_delivered = delivered or idx < last
        for k in range(attempts):
            elapsed += frame_time
            if k < attempts - 1 or not slot_delivered:
                elapsed += ack_timeout_s
    return elapsed


# ----------------------------------------------------------------------
# Closed-form ARQ pricing (the analytic ensemble mode's fold)
# ----------------------------------------------------------------------
def arq_slot_delivery_probability(loss_rate: float,
                                  max_retries: int) -> float:
    """P[one frame delivered] under stop-and-wait with ``max_retries``.

    A slot gets ``max_retries + 1`` attempts; it fails only when every
    attempt is lost: ``1 - p^(R+1)``.  Exact for i.i.d. (Bernoulli)
    per-frame loss; for Gilbert-Elliott channels the analytic mode
    feeds the chain's *mean* loss rate in, a first-order approximation
    (attempts of one frame are burst-correlated).
    """
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError("loss_rate must be in [0, 1]")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    return 1.0 - loss_rate ** (max_retries + 1)


def expected_slot_attempts(loss_rate: float, max_retries: int) -> float:
    """E[attempts] for one frame slot under the truncated retry budget.

    The truncated-geometric mean ``(1 - p^(R+1)) / (1 - p)``: with
    ``R = 0`` exactly one attempt; as ``R -> inf`` the untruncated
    ``1 / (1 - p)``.  The expectation holds whether or not the slot
    ultimately delivers (attempt ``j`` happens iff the first ``j - 1``
    were lost), which is what lets expected wire bytes and airtime fold
    linearly per slot.
    """
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss_rate must be in [0, 1)")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if loss_rate == 0.0:
        return 1.0
    return (1.0 - loss_rate ** (max_retries + 1)) / (1.0 - loss_rate)
