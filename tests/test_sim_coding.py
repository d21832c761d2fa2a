"""Erasure coding: the GF(256) codec oracle, coded channels, pricing.

The channel models FEC by counting alone — a message of ``F`` data
frames plus ``k`` parity frames is delivered iff at least ``F`` of the
``F + k`` arrive.  The systematic Cauchy-Reed-Solomon codec below is
the oracle behind that rule: its tests prove that *any* ``F`` of the
``F + k`` coded shards decode the data exactly.
"""

import itertools
from typing import Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResilientOrchestrationPolicy
from repro.sim import (
    ARQConfig,
    ChannelSpec,
    CodingSpec,
    TransmitResult,
    UnreliableChannel,
    delivery_probability,
    expected_frames_per_delivery,
)
from repro.wsn.link import sensor_link, uplink


# ----------------------------------------------------------------------
# GF(256) arithmetic (AES-standard reduction polynomial 0x11d)
# ----------------------------------------------------------------------
def _build_tables() -> Tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int64)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= 0x11D
    exp[255:510] = exp[:255]  # wraparound so log sums need no modulo
    return exp, log


_GF_EXP, _GF_LOG = _build_tables()


def gf_mul(a, b) -> np.ndarray:
    """Element-wise GF(256) product of two uint8 arrays (broadcasting)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    product = _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]
    return np.where((a == 0) | (b == 0), 0, product).astype(np.uint8)


def gf_inverse(a: int) -> int:
    """Multiplicative inverse in GF(256); 0 has none."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_GF_EXP[255 - _GF_LOG[a]])


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256): XOR-accumulated gf_mul products."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    # (n, K, 1) x (1, K, m) -> (n, K, m), XOR-reduced over K.  Shard
    # counts are small (<= 256), so the broadcast stays tiny.
    products = gf_mul(a[:, :, None], b[None, :, :])
    return np.bitwise_xor.reduce(products, axis=1)


def gf_inv_matrix(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.concatenate([matrix.copy(),
                          np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot_rows = np.nonzero(aug[col:, col])[0]
        if pivot_rows.size == 0:
            raise np.linalg.LinAlgError("matrix is singular over GF(256)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = gf_mul(gf_inverse(int(aug[col, col])), aug[col])
        for row in range(n):
            if row != col and aug[row, col]:
                aug[row] ^= gf_mul(aug[row, col], aug[col])
    return aug[:, n:]


# ----------------------------------------------------------------------
# Systematic Cauchy-Reed-Solomon codec
# ----------------------------------------------------------------------
class ErasureDecodeError(ValueError):
    """Decoding was asked of fewer/invalid shards than the code needs."""


class ErasureCodec:
    """Systematic ``(M, M+k)`` Cauchy-Reed-Solomon code over GF(256).

    ``encode`` maps ``M`` data shards (equal-length byte rows) to
    ``M + k`` coded shards whose first ``M`` are the data untouched
    (systematic).  The parity rows come from a Cauchy matrix
    ``C[i, j] = 1 / (x_i ^ y_j)`` with ``x_i = M + i``, ``y_j = j`` —
    every square submatrix of a Cauchy matrix is nonsingular, so any
    ``M`` rows of the generator ``[I; C]`` are invertible: the code is
    MDS and ``decode`` recovers the data **exactly** (byte-for-byte)
    from any ``M`` of the ``M + k`` shards.
    """

    def __init__(self, data_shards: int, parity_shards: int):
        if data_shards < 1:
            raise ValueError("data_shards must be >= 1")
        if parity_shards < 0:
            raise ValueError("parity_shards must be >= 0")
        if data_shards + parity_shards > 256:
            raise ValueError("GF(256) supports at most 256 total shards, "
                             f"got {data_shards + parity_shards}")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        x = np.arange(data_shards,
                      data_shards + parity_shards, dtype=np.uint8)
        y = np.arange(data_shards, dtype=np.uint8)
        denom = x[:, None] ^ y[None, :]
        cauchy = _GF_EXP[255 - _GF_LOG[denom]].astype(np.uint8) \
            if parity_shards else np.zeros((0, data_shards), dtype=np.uint8)
        self.matrix = np.concatenate(
            [np.eye(data_shards, dtype=np.uint8), cauchy], axis=0)

    @property
    def total_shards(self) -> int:
        return self.data_shards + self.parity_shards

    def encode(self, shards: np.ndarray) -> np.ndarray:
        """``(M, L)`` data bytes -> ``(M+k, L)`` coded bytes."""
        shards = np.atleast_2d(np.asarray(shards, dtype=np.uint8))
        if shards.shape[0] != self.data_shards:
            raise ValueError(f"expected {self.data_shards} data shards, "
                             f"got {shards.shape[0]}")
        if self.parity_shards == 0:
            return shards.copy()
        parity = gf_matmul(self.matrix[self.data_shards:], shards)
        return np.concatenate([shards, parity], axis=0)

    def decode(self, indices: Sequence[int],
               shards: np.ndarray) -> np.ndarray:
        """Recover the ``(M, L)`` data from any ``M`` coded shards.

        ``indices`` names which coded rows ``shards`` holds (0-based
        positions in the ``M+k`` output of :meth:`encode`).  Exact by
        construction: GF(256) arithmetic has no rounding, so data bytes
        — float bit patterns included — round-trip untouched.
        """
        indices = [int(i) for i in indices]
        shards = np.atleast_2d(np.asarray(shards, dtype=np.uint8))
        if len(indices) != self.data_shards:
            raise ErasureDecodeError(
                f"need exactly {self.data_shards} shards to decode, "
                f"got {len(indices)}")
        if len(set(indices)) != len(indices):
            raise ErasureDecodeError(f"duplicate shard indices {indices}")
        if not all(0 <= i < self.total_shards for i in indices):
            raise ErasureDecodeError(
                f"shard indices {indices} out of range 0.."
                f"{self.total_shards - 1}")
        if shards.shape[0] != len(indices):
            raise ErasureDecodeError("one shard row per index required")
        if indices == list(range(self.data_shards)):
            return shards.copy()   # all systematic rows arrived
        return gf_matmul(gf_inv_matrix(self.matrix[indices]), shards)


def encode_floats(values: np.ndarray, parity: int) -> np.ndarray:
    """``M`` float64 scalars -> ``M + parity`` coded float64 scalars.

    Each scalar is one 8-byte shard; parity scalars are GF(256) parity
    bytes reinterpreted as float64 bit patterns (meaningless as numbers,
    wire-compatible with the simulator's scalar accounting).
    """
    values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if values.ndim != 1:
        raise ValueError("values must be a 1-D scalar vector")
    shards = values.view(np.uint8).reshape(values.size, 8)
    coded = ErasureCodec(values.size, parity).encode(shards)
    return np.ascontiguousarray(coded).view(np.float64).ravel()


def decode_floats(indices: Sequence[int], coded: np.ndarray,
                  data_scalars: int) -> np.ndarray:
    """Recover the original scalars from any ``data_scalars`` coded ones.

    ``indices`` names each received scalar's position in the
    :func:`encode_floats` output; recovery is bit-exact (NaN payloads
    and signed zeros included).
    """
    coded = np.ascontiguousarray(np.asarray(coded, dtype=np.float64))
    if coded.ndim != 1:
        raise ValueError("coded must be a 1-D scalar vector")
    parity = 0 if not len(indices) else max(
        0, max(int(i) for i in indices) - data_scalars + 1)
    codec = ErasureCodec(data_scalars, max(parity, 0))
    shards = coded.view(np.uint8).reshape(coded.size, 8)
    decoded = codec.decode(indices, shards)
    return np.ascontiguousarray(decoded).view(np.float64).ravel()


class _ScriptedLoss:
    """Loss model driven by an explicit verdict list (deterministic)."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)

    def frame_lost(self, rng):
        return self.verdicts.pop(0)

    def reset(self):
        pass

    mean_loss_rate = 0.0


# ----------------------------------------------------------------------
# GF(256) arithmetic
# ----------------------------------------------------------------------
class TestGF256:
    def test_field_axioms_on_samples(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.integers(0, 256, 64, dtype=np.uint8) for _ in range(3))
        # Distributivity: a * (b ^ c) == (a*b) ^ (a*c).
        assert np.array_equal(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c))
        # Associativity and commutativity.
        assert np.array_equal(gf_mul(gf_mul(a, b), c), gf_mul(a, gf_mul(b, c)))
        assert np.array_equal(gf_mul(a, b), gf_mul(b, a))

    def test_inverses(self):
        for value in range(1, 256):
            assert int(gf_mul(value, gf_inverse(value))) == 1
        with pytest.raises(ZeroDivisionError):
            gf_inverse(0)

    def test_matrix_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 6):
            while True:
                matrix = rng.integers(0, 256, (n, n), dtype=np.uint8)
                try:
                    inverse = gf_inv_matrix(matrix)
                    break
                except np.linalg.LinAlgError:
                    continue
            product = np.bitwise_xor.reduce(
                gf_mul(matrix[:, :, None], inverse[None, :, :]), axis=1)
            assert np.array_equal(product, np.eye(n, dtype=np.uint8))

    def test_singular_matrix_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            gf_inv_matrix(np.zeros((2, 2), dtype=np.uint8))


# ----------------------------------------------------------------------
# Codec: the MDS exactness property
# ----------------------------------------------------------------------
class TestErasureCodec:
    @pytest.mark.parametrize("data,parity", [(1, 1), (1, 3), (4, 2), (5, 3),
                                             (6, 0), (3, 4), (8, 2)])
    def test_decode_exact_from_every_subset(self, data, parity):
        """The tentpole property: *any* M of M+k shards decode exactly."""
        rng = np.random.default_rng(data * 31 + parity)
        codec = ErasureCodec(data, parity)
        shards = rng.integers(0, 256, (data, 17), dtype=np.uint8)
        coded = codec.encode(shards)
        assert np.array_equal(coded[:data], shards)   # systematic
        for subset in itertools.combinations(range(data + parity), data):
            decoded = codec.decode(subset, coded[list(subset)])
            assert np.array_equal(decoded, shards), subset

    @given(st.integers(1, 6), st.integers(0, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_decode_exact_property(self, data, parity, draw):
        payload = draw.draw(st.binary(min_size=data * 4, max_size=data * 4))
        shards = np.frombuffer(payload, dtype=np.uint8).reshape(data, 4)
        codec = ErasureCodec(data, parity)
        coded = codec.encode(shards)
        subset = draw.draw(st.permutations(range(data + parity)))[:data]
        decoded = codec.decode(subset, coded[list(subset)])
        assert np.array_equal(decoded, shards)

    def test_float_scalars_round_trip_bit_exactly(self):
        values = np.array([1.5, -0.0, np.nan, np.inf, 1e-308, np.pi])
        coded = encode_floats(values, 3)
        assert coded.size == 9
        # Systematic prefix is the data itself, bit for bit.
        assert np.array_equal(coded[:6].view(np.uint64),
                              values.view(np.uint64))
        picks = [8, 3, 0, 7, 5, 6]   # three systematic scalars erased
        decoded = decode_floats(picks, coded[picks], 6)
        assert np.array_equal(decoded.view(np.uint64), values.view(np.uint64))

    def test_decode_rejects_bad_requests(self):
        codec = ErasureCodec(3, 2)
        coded = codec.encode(np.zeros((3, 4), dtype=np.uint8))
        with pytest.raises(ErasureDecodeError):
            codec.decode([0, 1], coded[:2])           # too few
        with pytest.raises(ErasureDecodeError):
            codec.decode([0, 0, 1], coded[:3])        # duplicates
        with pytest.raises(ErasureDecodeError):
            codec.decode([0, 1, 9], coded[:3])        # out of range

    def test_shard_count_limits(self):
        with pytest.raises(ValueError):
            ErasureCodec(0, 2)
        with pytest.raises(ValueError):
            ErasureCodec(200, 100)   # > 256 total


# ----------------------------------------------------------------------
# CodingSpec + ChannelSpec plumbing
# ----------------------------------------------------------------------
class TestCodingSpecPlumbing:
    def test_coding_spec_validation(self):
        with pytest.raises(ValueError):
            CodingSpec(parity_frames=-1)
        with pytest.raises(ValueError):
            CodingSpec(parity_frames=300)

    def test_with_coding_and_recovery(self):
        base = ChannelSpec(loss=0.1, arq=ARQConfig(max_retries=2))
        assert base.recovery == "arq"
        assert ChannelSpec(loss=0.1,
                           arq=ARQConfig(max_retries=0)).recovery == "none"
        fec = base.with_coding(2)
        assert fec.coding == CodingSpec(parity_frames=2)
        assert fec.recovery == "fec"
        hybrid = base.with_coding(3, arq_fallback=True)
        assert hybrid.recovery == "hybrid"
        assert hybrid.with_coding(None).recovery == "arq"

    def test_coded_spec_is_never_ideal(self):
        # Parity frames radiate bytes and airtime even with zero loss.
        assert ChannelSpec().ideal
        assert not ChannelSpec(coding=CodingSpec(1)).ideal
        assert ChannelSpec(coding=CodingSpec(0)).ideal

    def test_preset_carries_coding(self):
        spec = ChannelSpec.preset("802154_indoor", coding=CodingSpec(2))
        assert spec.recovery == "fec"
        channel = spec.build(sensor_link(), np.random.default_rng(0))
        assert channel.coding == CodingSpec(2)


# ----------------------------------------------------------------------
# Coded transmission paths
# ----------------------------------------------------------------------
class TestCodedChannel:
    def test_lossless_coded_accounting(self):
        link = sensor_link()
        channel = UnreliableChannel(link, coding=CodingSpec(2),
                                    rng=np.random.default_rng(0))
        result = channel.transmit(320)   # 4 data frames of <= 96 bytes
        assert result.delivered
        assert result.frames == 4 and result.parity_frames == 2
        assert result.attempts == 6 and result.retransmissions == 0
        assert result.fec_wire_bytes == 2 * (96 + link.header_bytes)
        assert result.wire_bytes == link.wire_bytes(320) + result.fec_wire_bytes
        assert result.received_wire_bytes == result.wire_bytes
        assert result.elapsed_s == pytest.approx(
            link.latency_s
            + sum(link.frame_time(p) for p in link.frame_sizes(320))
            + 2 * link.frame_time(96))
        assert result.fec_time_s == pytest.approx(2 * link.frame_time(96))

    def test_fec_tolerates_up_to_k_erasures(self):
        link = sensor_link()
        channel = UnreliableChannel(link, coding=CodingSpec(2),
                                    rng=np.random.default_rng(0))
        # 4 data + 2 parity; exactly 2 lost -> still decodable.
        channel.loss = _ScriptedLoss([True, False, True, False, False, False])
        result = channel.transmit(320)
        assert result.delivered and result.lost_frames == 2
        # No ACKs in open loop: every frame radiated exactly once.
        assert result.attempts == 6 and result.retransmissions == 0
        # 3 lost -> fewer than F arrivals, undecodable; airtime still spent.
        channel.loss = _ScriptedLoss([True, True, False, True, False, False])
        result = channel.transmit(320)
        assert not result.delivered
        assert result.attempts == 6   # open loop never aborts the burst

    def test_fec_adds_no_ack_timeouts(self):
        link = sensor_link()
        channel = UnreliableChannel(link, arq=ARQConfig(ack_timeout_s=9.0),
                                    coding=CodingSpec(1),
                                    rng=np.random.default_rng(0))
        channel.loss = _ScriptedLoss([True, False, False, False, False])
        result = channel.transmit(320)
        assert result.delivered
        assert result.elapsed_s < 1.0   # the 9 s timeout never charged

    def test_hybrid_repairs_shortfall_with_arq(self):
        link = sensor_link()
        channel = UnreliableChannel(
            link, arq=ARQConfig(max_retries=2, ack_timeout_s=0.01),
            coding=CodingSpec(1, arq_fallback=True),
            rng=np.random.default_rng(0))
        # Burst: 2 of 5 coded frames erased (shortfall 1); repair frame
        # lost once, then delivered within its budget.
        channel.loss = _ScriptedLoss([True, True, False, False, False,
                                      True, False])
        result = channel.transmit(320)
        assert result.delivered
        assert result.attempts == 7 and result.retransmissions == 2
        assert result.elapsed_s > channel.arq.ack_timeout_s   # timeout charged

    def test_hybrid_gives_up_when_repair_budget_exhausts(self):
        link = sensor_link()
        channel = UnreliableChannel(
            link, arq=ARQConfig(max_retries=1, ack_timeout_s=0.01),
            coding=CodingSpec(1, arq_fallback=True),
            rng=np.random.default_rng(0))
        channel.loss = _ScriptedLoss([True, True, False, False, False,
                                      True, True])
        result = channel.transmit(320)
        assert not result.delivered
        assert result.retransmissions == 2   # both repair attempts radiated

    def test_zero_parity_coded_path_is_bit_identical_to_uncoded(self):
        """k=0 degenerates to the uncoded channel exactly, on the scalar
        per-frame path and on the block-sampled one."""
        link = uplink()
        for seed, vectorize in zip(range(4), (False, True, False, True)):
            plain = UnreliableChannel(link, loss=0.3,
                                      arq=ARQConfig(max_retries=1),
                                      rng=np.random.default_rng(seed),
                                      vectorize=vectorize)
            coded = UnreliableChannel(link, loss=0.3,
                                      arq=ARQConfig(max_retries=1),
                                      coding=CodingSpec(parity_frames=0),
                                      rng=np.random.default_rng(seed),
                                      vectorize=vectorize)
            for _ in range(30):
                assert plain.transmit(3000) == coded.transmit(3000)

    def test_coded_trace_record_replay_bit_identical(self):
        link = sensor_link()

        def channel():
            return UnreliableChannel(link, loss=0.2,
                                     coding=CodingSpec(2),
                                     rng=np.random.default_rng(5))

        live = channel()
        expected = [live.transmit(320) for _ in range(50)]
        replayed = channel()
        replayed.replay(replayed.record_trace(320, 50))
        assert [replayed.transmit(320) for _ in range(50)] == expected

    def test_empty_payload_skips_coding(self):
        channel = UnreliableChannel(sensor_link(), coding=CodingSpec(2),
                                    rng=np.random.default_rng(0))
        assert channel.transmit(0) == TransmitResult(0, 0, 0, 0, True, 0,
                                                     0.0, 0, 0)

    def test_messages_beyond_256_shards_rejected(self):
        # The cost model refuses what the GF(256) codec cannot build.
        link = sensor_link()   # 96-byte frames -> 300 frames for ~28 KB
        channel = UnreliableChannel(link, coding=CodingSpec(2),
                                    rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="256-shard"):
            channel.transmit(300 * link.max_payload_bytes)
        # 254 data frames + 2 parity still fit.
        assert channel.transmit(254 * link.max_payload_bytes).delivered


# ----------------------------------------------------------------------
# Closed-form pricing + the adaptive redundancy rule
# ----------------------------------------------------------------------
class TestAdaptiveRedundancy:
    def test_delivery_probability_sanity(self):
        assert delivery_probability(4, 0, 0.0) == 1.0
        assert delivery_probability(1, 0, 0.3) == pytest.approx(0.7)
        # One parity frame: survives any single loss of the two frames.
        assert delivery_probability(1, 1, 0.3) == pytest.approx(
            0.7 ** 2 + 2 * 0.3 * 0.7)
        # Monotone in k.
        probs = [delivery_probability(5, k, 0.2) for k in range(6)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_expected_frames_tradeoff(self):
        # More parity always costs airtime on a clean channel...
        assert expected_frames_per_delivery(4, 0, 0.0) == 4
        assert expected_frames_per_delivery(4, 2, 0.0) == 6
        # ...but pays for itself once loss makes whole messages fail.
        lossy = [expected_frames_per_delivery(10, k, 0.35)
                 for k in range(8)]
        assert min(lossy) < lossy[0]

    def test_array_pricing_bit_identical_to_scalar(self):
        """Vectorized pricing: one call over an array of loss rates
        equals the scalar loop element for element (exactly — the
        redundancy policy's decisions must not shift with the API)."""
        rates = np.array([0.0, 0.05, 0.2, 0.35, 0.6, 0.95])
        for frames, parity in [(1, 0), (4, 2), (10, 7)]:
            vec_p = delivery_probability(frames, parity, rates)
            assert isinstance(vec_p, np.ndarray)
            assert vec_p.tolist() == [
                delivery_probability(frames, parity, float(r))
                for r in rates]
            vec_e = expected_frames_per_delivery(frames, parity, rates)
            assert vec_e.tolist() == [
                expected_frames_per_delivery(frames, parity, float(r))
                for r in rates]

    def test_array_pricing_validation(self):
        with pytest.raises(ValueError):
            delivery_probability(4, 2, np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            delivery_probability(4, 2, np.array([-0.1, 0.5]))

    def test_coding_parity_for_rules(self):
        policy = ResilientOrchestrationPolicy(recovery="fec",
                                              fec_max_parity=6,
                                              fec_target_residual=1e-2)
        # ARQ recovery never provisions parity.
        arq = ResilientOrchestrationPolicy(recovery="arq")
        assert arq.coding_parity_for(8, 0.2, 100.0) == 0
        # Clean channel: nothing to protect against.
        assert policy.coding_parity_for(8, 0.0, 100.0) == 0
        # Loss raises the budget, clamped at fec_max_parity.
        k_low = policy.coding_parity_for(8, 0.05, 100.0)
        k_high = policy.coding_parity_for(8, 0.3, 100.0)
        assert 0 < k_low <= k_high <= 6
        # Battery-poor clusters take the energy-optimal budget, which
        # never exceeds the reliability-first one the rich cluster gets.
        assert policy.coding_parity_for(8, 0.2, 0.1) \
            <= policy.coding_parity_for(8, 0.2, 100.0)
        # The budget is clamped to the GF(256) shard limit: long
        # messages get less parity, 256+-frame messages none at all
        # (they cannot be coded and must fall back to the uncoded path).
        assert policy.coding_parity_for(253, 0.3, 100.0) <= 3
        assert policy.coding_parity_for(256, 0.3, 100.0) == 0
        assert policy.coding_parity_for(400, 0.3, 100.0) == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResilientOrchestrationPolicy(recovery="parrot")
        with pytest.raises(ValueError):
            ResilientOrchestrationPolicy(fec_max_parity=-1)
        with pytest.raises(ValueError):
            ResilientOrchestrationPolicy(fec_target_residual=0.0)
