"""Property tests for the vectorized channel kernel (PR 6 tentpole).

The block sampler and the batched ARQ/FEC/hybrid pricing must be
**bit-identical** to the scalar per-frame reference path — same RNG
stream consumption, same verdicts, same ``TransmitResult`` fields
(including the order-sensitive float ``elapsed_s``).  Hypothesis drives
the loss-model parameters, payload sizes and recovery budgets; a fixed
grid covers the published Gilbert-Elliott presets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    ARQConfig,
    BernoulliLoss,
    BernoulliSampler,
    ChannelSpec,
    CodingSpec,
    GILBERT_ELLIOTT_PRESETS,
    GilbertElliottLoss,
    GilbertElliottSampler,
    UnreliableChannel,
    make_loss_sampler,
)
from repro.wsn.link import sensor_link


def _result_fields(result):
    """Every field, elapsed_s compared exactly (dataclass equality)."""
    return result


def _pair(seed, loss, arq=None, coding=None, link=None):
    """Same spec, same seed: one kernel channel, one reference channel.

    ``loss`` may be a rate or a zero-arg factory — stateful models
    (Gilbert-Elliott) must NOT be shared between the two channels.
    """
    link = link or sensor_link()

    def build(vectorize):
        return UnreliableChannel(link, loss=loss() if callable(loss) else loss,
                                 arq=arq, coding=coding,
                                 rng=np.random.default_rng(seed),
                                 vectorize=vectorize)
    return build(True), build(False)


def _assert_transmits_identical(vec, ref, payloads):
    for payload in payloads:
        a = vec.transmit(payload)
        b = ref.transmit(payload)
        assert _result_fields(a) == _result_fields(b)
    # Both channels must leave their RNG streams in the same state
    # relative to future draws: one more transmit each still agrees.
    assert _result_fields(vec.transmit(64)) == _result_fields(ref.transmit(64))


# ----------------------------------------------------------------------
# Sampler layer: verdicts draw-for-draw against the scalar models
# ----------------------------------------------------------------------
class TestSamplerBitIdentity:
    @given(rate=st.floats(0.01, 0.95), seed=st.integers(0, 2 ** 16),
           n=st.integers(1, 600))
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_verdicts_match_scalar_draws(self, rate, seed, n):
        sampler = BernoulliSampler(BernoulliLoss(rate),
                                   np.random.default_rng(seed))
        model, rng = BernoulliLoss(rate), np.random.default_rng(seed)
        got = [bool(v) for v in sampler.peek(n)]
        want = [model.frame_lost(rng) for _ in range(n)]
        assert got == want

    @given(p_gb=st.floats(0.01, 0.9), p_bg=st.floats(0.01, 0.9),
           loss_g=st.floats(0.001, 0.5), loss_b=st.floats(0.1, 0.95),
           seed=st.integers(0, 2 ** 16), n=st.integers(1, 600))
    @settings(max_examples=40, deadline=None)
    def test_gilbert_elliott_verdicts_match_scalar_draws(
            self, p_gb, p_bg, loss_g, loss_b, seed, n):
        params = dict(p_good_to_bad=p_gb, p_bad_to_good=p_bg,
                      loss_good=loss_g, loss_bad=loss_b)
        sampler = GilbertElliottSampler(GilbertElliottLoss(**params),
                                        np.random.default_rng(seed))
        model, rng = GilbertElliottLoss(**params), np.random.default_rng(seed)
        got = [bool(v) for v in sampler.peek(n)]
        want = [model.frame_lost(rng) for _ in range(n)]
        assert got == want

    @pytest.mark.parametrize("preset", sorted(GILBERT_ELLIOTT_PRESETS))
    def test_presets_match_across_block_boundaries(self, preset):
        params = GILBERT_ELLIOTT_PRESETS[preset]
        sampler = GilbertElliottSampler(GilbertElliottLoss(**params),
                                        np.random.default_rng(7))
        model, rng = GilbertElliottLoss(**params), np.random.default_rng(7)
        # Consume in ragged chunks so refills land mid-burst.
        for chunk in (1, 3, 511, 512, 513, 1000, 2048):
            got = [bool(v) for v in sampler.peek(chunk)[:chunk]]
            sampler.advance(chunk)
            want = [model.frame_lost(rng) for _ in range(chunk)]
            assert got == want

    def test_interleaved_take_peek_reset_matches_scalar(self):
        params = GILBERT_ELLIOTT_PRESETS["noisy_office"]
        sampler = GilbertElliottSampler(GilbertElliottLoss(**params),
                                        np.random.default_rng(3))
        model, rng = GilbertElliottLoss(**params), np.random.default_rng(3)
        got, want = [], []
        for round_no in range(6):
            got.extend(bool(v) for v in sampler.peek(40))
            sampler.advance(40)
            want.extend(model.frame_lost(rng) for _ in range(40))
            got.append(sampler.take())
            want.append(model.frame_lost(rng))
            sampler.reset()
            model.reset()
        assert got == want

    def test_factory_gates_unsupported_models(self):
        rng = np.random.default_rng(0)
        assert make_loss_sampler(None, rng) is None
        assert make_loss_sampler(BernoulliLoss(0.0), rng) is None
        assert make_loss_sampler(BernoulliLoss(0.3), rng) is not None
        # A zero per-state loss rate (the default loss_good=0) draws a
        # state-dependent number of uniforms per frame: no sampler.
        assert make_loss_sampler(GilbertElliottLoss(), rng) is None
        assert make_loss_sampler(GilbertElliottLoss(loss_good=0.01),
                                 rng) is not None
        assert make_loss_sampler(object(), rng) is None


# ----------------------------------------------------------------------
# pin/position/rewind: the trace re-recording API (PR 9)
# ----------------------------------------------------------------------
class TestSamplerRewindPin:
    def _samplers(self):
        return [
            BernoulliSampler(BernoulliLoss(0.3), np.random.default_rng(5)),
            GilbertElliottSampler(
                GilbertElliottLoss(
                    **GILBERT_ELLIOTT_PRESETS["noisy_office"]),
                np.random.default_rng(5)),
        ]

    def test_position_counts_consumed_verdicts(self):
        for sampler in self._samplers():
            assert sampler.position == 0
            sampler.peek(10)
            assert sampler.position == 0     # peeking never consumes
            sampler.advance(7)
            assert sampler.position == 7
            sampler.take()
            assert sampler.position == 8

    def test_rewind_replays_identical_verdicts(self):
        for sampler in self._samplers():
            first = [bool(v) for v in sampler.peek(200)[:200]]
            sampler.advance(200)
            sampler.pin(60)
            sampler.rewind(60)
            assert sampler.position == 60
            assert [bool(v) for v in sampler.peek(140)[:140]] == first[60:]

    def test_pin_survives_compaction(self):
        """Refills compact consumed verdicts away — but never past the
        pin, so a later rewind to the pinned offset stays legal."""
        for sampler in self._samplers():
            sampler.peek(50)
            sampler.advance(50)
            sampler.pin(20)
            for _ in range(40):
                sampler.peek(600)
                sampler.advance(600)
            sampler.rewind(20)
            assert sampler.position == 20

    def test_rewind_before_retained_origin_raises(self):
        for sampler in self._samplers():
            sampler.peek(50)
            sampler.advance(50)
            for _ in range(40):   # unpinned compaction drops history
                sampler.peek(600)
                sampler.advance(600)
            with pytest.raises(ValueError):
                sampler.rewind(0)

    def test_pin_beyond_consumed_raises(self):
        for sampler in self._samplers():
            sampler.peek(10)
            sampler.advance(10)
            with pytest.raises(ValueError):
                sampler.pin(11)

    def test_rewind_then_reconsume_continues_the_same_stream(self):
        """Externally, rewind + re-consume is a no-op: future draws
        continue the chain exactly where an un-rewound twin's do —
        the property Gilbert-Elliott needs its state re-sync for."""
        for sampler, twin in zip(self._samplers(), self._samplers()):
            for s in (sampler, twin):
                s.peek(200)
                s.advance(200)
            sampler.pin(90)
            sampler.rewind(90)
            sampler.advance(110)
            sampler.pin(None)
            got = [bool(v) for v in sampler.peek(700)[:700]]
            want = [bool(v) for v in twin.peek(700)[:700]]
            assert got == want

    def test_gilbert_elliott_reset_releases_pin(self):
        """A chain reset re-derives buffered verdicts from GOOD, so the
        retained pre-reset verdicts a rewind would replay are invalid.
        (Bernoulli verdicts are i.i.d. — reset keeps them, and the pin.)"""
        sampler = self._samplers()[1]
        sampler.peek(50)
        sampler.advance(50)
        sampler.pin(10)
        sampler.model.reset()
        sampler.reset()
        sampler.peek(50)
        sampler.advance(50)
        with pytest.raises(ValueError):
            sampler.rewind(10)   # pre-reset offsets are gone


# ----------------------------------------------------------------------
# Channel layer: batched pricing vs the per-frame reference
# ----------------------------------------------------------------------
CODINGS = [None, CodingSpec(parity_frames=2),
           CodingSpec(parity_frames=2, arq_fallback=True)]


class TestBatchedPricingBitIdentity:
    @given(rate=st.floats(0.05, 0.7), seed=st.integers(0, 2 ** 16),
           retries=st.integers(0, 3),
           payload=st.sampled_from([4, 60, 300, 1200]),
           coding_idx=st.integers(0, len(CODINGS) - 1))
    @settings(max_examples=30, deadline=None)
    def test_bernoulli_live_transmits(self, rate, seed, retries, payload,
                                      coding_idx):
        vec, ref = _pair(seed, rate, arq=ARQConfig(max_retries=retries),
                         coding=CODINGS[coding_idx])
        _assert_transmits_identical(vec, ref, [payload] * 30)

    @given(preset=st.sampled_from(sorted(GILBERT_ELLIOTT_PRESETS)),
           seed=st.integers(0, 2 ** 16), retries=st.integers(0, 2),
           payload=st.sampled_from([4, 300, 1200]),
           coding_idx=st.integers(0, len(CODINGS) - 1))
    @settings(max_examples=30, deadline=None)
    def test_gilbert_elliott_live_transmits(self, preset, seed, retries,
                                            payload, coding_idx):
        vec, ref = _pair(
            seed,
            lambda: GilbertElliottLoss(**GILBERT_ELLIOTT_PRESETS[preset]),
            arq=ARQConfig(max_retries=retries), coding=CODINGS[coding_idx])
        _assert_transmits_identical(vec, ref, [payload] * 30)

    @given(rate=st.floats(0.05, 0.6), seed=st.integers(0, 2 ** 16),
           transmits=st.integers(0, 200),
           coding_idx=st.integers(0, len(CODINGS) - 1))
    @settings(max_examples=30, deadline=None)
    def test_recorded_traces_match_reference(self, rate, seed, transmits,
                                             coding_idx):
        vec, ref = _pair(seed, rate, arq=ARQConfig(max_retries=1),
                         coding=CODINGS[coding_idx])
        trace_v = vec.record_trace(300, transmits)
        trace_r = ref.record_trace(300, transmits)
        entries_v = [trace_v.next() for _ in range(transmits)]
        entries_r = [trace_r.next() for _ in range(transmits)]
        assert [_result_fields(e) for e in entries_v] \
            == [_result_fields(e) for e in entries_r]

    def test_live_then_record_then_live_shares_one_stream(self):
        """Mixing live transmits, batch recording and resets must keep
        the kernel channel on the reference channel's RNG stream."""
        vec, ref = _pair(
            5,
            lambda: GilbertElliottLoss(
                **GILBERT_ELLIOTT_PRESETS["802154_indoor"]),
            arq=ARQConfig(max_retries=2))
        assert _result_fields(vec.transmit(300)) \
            == _result_fields(ref.transmit(300))
        batch_v = list(vec.transmit_batch(120, 25))
        batch_r = [ref.transmit(120) for _ in range(25)]
        assert [_result_fields(r) for r in batch_v] \
            == [_result_fields(r) for r in batch_r]
        vec.reset()
        ref.reset()
        _assert_transmits_identical(vec, ref, [300, 120, 4, 1200])


# ----------------------------------------------------------------------
# Engine level: an unfused lossy run must not notice the kernel
# ----------------------------------------------------------------------
class TestEngineBitIdentity:
    def _run(self, vectorize):
        from repro.core import (EdgeTrainingScheduler, OrcoDCSConfig,
                                OrcoDCSFramework,
                                ResilientOrchestrationPolicy)
        spec = ChannelSpec(loss=0.15, arq=ARQConfig(max_retries=1),
                           vectorize=vectorize)
        scheduler = EdgeTrainingScheduler(
            "round_robin", rng=np.random.default_rng(0), engine="event",
            channels=spec, segment_batching=False,
            resilience=ResilientOrchestrationPolicy(recovery="arq"))
        for index in range(3):
            config = OrcoDCSConfig(input_dim=16, latent_dim=4, seed=index,
                                   noise_sigma=0.05, batch_size=8)
            data = np.random.default_rng(100 + index).random((32, 16))
            scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config),
                                  data, batch_size=8)
        report = scheduler.run(rounds_per_cluster=12)
        return scheduler, report

    def test_unfused_lossy_run_identical_with_and_without_kernel(self):
        fast, fast_report = self._run(vectorize=True)
        slow, slow_report = self._run(vectorize=False)
        assert fast_report.makespan_s == slow_report.makespan_s
        assert fast_report.completion_times == slow_report.completion_times
        assert fast_report.failed_rounds == slow_report.failed_rounds
        assert fast_report.energy_j == slow_report.energy_j
        for c_f, c_s in zip(fast.clusters, slow.clusters):
            assert c_f.trainer.clock_s == c_s.trainer.clock_s
            assert c_f.trainer.ledger.by_kind() == c_s.trainer.ledger.by_kind()
            assert np.array_equal(c_f.history.times, c_s.history.times)
