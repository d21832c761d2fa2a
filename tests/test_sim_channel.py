"""Unit tests for unreliable channels: loss models, ARQ, traces."""

import numpy as np
import pytest

from repro.sim import (
    ARQConfig,
    BernoulliLoss,
    ChannelSpec,
    ChannelTrace,
    GILBERT_ELLIOTT_PRESETS,
    GilbertElliottLoss,
    UnreliableChannel,
    as_loss_model,
)
from repro.wsn import LinkModel, sensor_link, uplink


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLossModels:
    def test_bernoulli_rate_statistics(self):
        loss = BernoulliLoss(0.3)
        generator = rng(3)
        hits = sum(loss.frame_lost(generator) for _ in range(20000))
        assert abs(hits / 20000 - 0.3) < 0.02

    def test_bernoulli_zero_never_loses(self):
        loss = BernoulliLoss(0.0)
        generator = rng(0)
        assert not any(loss.frame_lost(generator) for _ in range(100))

    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.0)
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1)

    def test_gilbert_elliott_steady_state(self):
        loss = GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=0.3,
                                  loss_good=0.0, loss_bad=0.8)
        generator = rng(0)
        hits = sum(loss.frame_lost(generator) for _ in range(40000))
        assert abs(hits / 40000 - loss.mean_loss_rate) < 0.02

    def test_gilbert_elliott_burstiness(self):
        """Losses cluster: P(loss | previous loss) >> marginal rate."""
        loss = GilbertElliottLoss(p_good_to_bad=0.02, p_bad_to_good=0.2,
                                  loss_good=0.0, loss_bad=0.9)
        generator = rng(0)
        draws = [loss.frame_lost(generator) for _ in range(40000)]
        marginal = np.mean(draws)
        pairs = [(a, b) for a, b in zip(draws, draws[1:])]
        after_loss = [b for a, b in pairs if a]
        assert np.mean(after_loss) > 3 * marginal

    def test_gilbert_elliott_reset(self):
        loss = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0,
                                  loss_bad=0.5)
        generator = rng(0)
        loss.frame_lost(generator)
        assert loss.bad
        loss.reset()
        assert not loss.bad

    def test_inescapable_lossy_state_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_bad_to_good=0.0, loss_bad=1.0)

    def test_as_loss_model_coercion(self):
        assert as_loss_model(None) is None
        assert as_loss_model(0.0) is None
        assert isinstance(as_loss_model(0.2), BernoulliLoss)
        model = GilbertElliottLoss()
        assert as_loss_model(model) is model


class TestIdealEquivalence:
    """The zero-fault anchor: lossless channels match the ideal link."""

    @pytest.mark.parametrize("n_bytes", [0, 1, 96, 97, 5000])
    def test_lossless_matches_link_exactly(self, n_bytes):
        link = sensor_link()
        channel = UnreliableChannel(link, loss=None, rng=rng(0))
        result = channel.transmit(n_bytes)
        assert result.delivered
        assert result.elapsed_s == link.transfer_time(n_bytes)
        assert result.wire_bytes == link.wire_bytes(n_bytes)
        assert result.received_wire_bytes == result.wire_bytes
        assert result.attempts == result.frames == link.frames_for(n_bytes)
        assert result.lost_frames == 0

    def test_zero_rate_loss_model_also_exact(self):
        link = uplink()
        channel = UnreliableChannel(link, loss=0.0, rng=rng(0))
        result = channel.transmit(4096)
        assert result.elapsed_s == link.transfer_time(4096)
        assert result.wire_bytes == link.wire_bytes(4096)


class TestARQ:
    def test_retransmissions_add_wire_bytes_and_time(self):
        link = sensor_link()
        channel = UnreliableChannel(link, loss=0.4, rng=rng(0),
                                    arq=ARQConfig(max_retries=10,
                                                  ack_timeout_s=0.005))
        result = channel.transmit(960)   # 10 frames
        assert result.delivered
        assert result.lost_frames > 0
        assert result.attempts > result.frames
        assert result.wire_bytes > link.wire_bytes(960)
        assert result.elapsed_s > link.transfer_time(960)
        assert result.received_wire_bytes == link.wire_bytes(960)

    def test_budget_exhaustion_fails_delivery(self):
        link = sensor_link()
        channel = UnreliableChannel(link, loss=0.95, rng=rng(0),
                                    arq=ARQConfig(max_retries=1))
        result = channel.transmit(960)
        assert not result.delivered
        # The sender radiated something before giving up, and gave up
        # before finishing every frame.
        assert result.attempts >= 2
        assert result.wire_bytes < link.wire_bytes(960) * 2 + 1000

    def test_zero_retries_single_attempt_per_frame(self):
        channel = UnreliableChannel(sensor_link(), loss=0.5, rng=rng(0),
                                    arq=ARQConfig(max_retries=0))
        result = channel.transmit(96)
        assert result.attempts == 1
        assert result.delivered == (result.lost_frames == 0)

    def test_timeout_charged_per_lost_attempt(self):
        link = LinkModel(bandwidth_bps=8e6, latency_s=0.0,
                         max_payload_bytes=100, header_bytes=0)
        channel = UnreliableChannel(link, loss=0.5, rng=rng(3),
                                    arq=ARQConfig(max_retries=20,
                                                  ack_timeout_s=1.0))
        result = channel.transmit(100)
        expected = result.attempts * link.frame_time(100) \
            + result.lost_frames * 1.0
        assert result.elapsed_s == pytest.approx(expected)

    def test_arq_validation(self):
        with pytest.raises(ValueError):
            ARQConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ARQConfig(ack_timeout_s=-0.1)
        with pytest.raises(ValueError):
            UnreliableChannel(sensor_link()).transmit(-1)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_ack_timeout_rejected(self, timeout):
        """A NaN or infinite timeout would turn every lost attempt's
        elapsed time into NaN or inf."""
        with pytest.raises(ValueError, match="ack_timeout_s"):
            ARQConfig(ack_timeout_s=timeout)

    def test_fractional_retry_budget_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            ARQConfig(max_retries=2.5)
        # numpy integers are integers.
        assert ARQConfig(max_retries=np.int64(2)).max_retries == 2


class TestChannelSpec:
    def test_build_stamps_independent_channels(self):
        spec = ChannelSpec(loss=0.2)
        root = rng(0)
        a = spec.build(sensor_link(), np.random.default_rng(root.integers(2**63)))
        b = spec.build(sensor_link(), np.random.default_rng(root.integers(2**63)))
        assert a is not b
        assert a.transmit(960).wire_bytes != b.transmit(960).wire_bytes \
            or a.transmit(5000).wire_bytes != b.transmit(5000).wire_bytes

    def test_stateful_loss_needs_factory(self):
        spec = ChannelSpec(loss=GilbertElliottLoss)
        channel_a = spec.build(sensor_link(), rng(0))
        channel_b = spec.build(sensor_link(), rng(1))
        assert channel_a.loss is not channel_b.loss
        assert not spec.ideal

    def test_ideal_property(self):
        assert ChannelSpec().ideal
        assert ChannelSpec(loss=0.0).ideal
        assert not ChannelSpec(loss=0.1).ideal

    def test_reset_clears_burst_state(self):
        channel = UnreliableChannel(
            sensor_link(),
            loss=GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.1,
                                    loss_bad=0.5),
            rng=rng(0))
        channel.transmit(960)
        channel.reset()
        assert not channel.loss.bad


class TestGilbertElliottPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown channel preset"):
            ChannelSpec.preset("802154_marsbase")

    @pytest.mark.parametrize("name,max_mean_loss", [
        ("802154_indoor", 0.08), ("802154_outdoor", 0.10),
        ("noisy_office", 0.25)])
    def test_preset_steady_state_in_measured_band(self, name, max_mean_loss):
        channel = ChannelSpec.preset(name).build(sensor_link(), rng(0))
        assert 0.0 < channel.loss.mean_loss_rate < max_mean_loss
        params = GILBERT_ELLIOTT_PRESETS[name]
        assert channel.loss.p_good_to_bad == params["p_good_to_bad"]
        # Bursty by construction: BAD state much lossier than GOOD.
        assert channel.loss.loss_bad > 10 * channel.loss.loss_good

    def test_presets_do_not_share_burst_state(self):
        spec = ChannelSpec.preset("noisy_office")
        a = spec.build(sensor_link(), rng(0))
        b = spec.build(sensor_link(), rng(1))
        assert a.loss is not b.loss
        a.loss.bad = True
        assert not b.loss.bad

    def test_preset_severity_ordering(self):
        rates = {name: ChannelSpec.preset(name).build(
                     sensor_link(), rng(0)).loss.mean_loss_rate
                 for name in GILBERT_ELLIOTT_PRESETS}
        assert rates["802154_indoor"] < rates["802154_outdoor"] \
            < rates["noisy_office"]

    def test_preset_round_trips_through_channel_sweep(self):
        """A preset drives the event engine's loss sweep end to end:
        retransmissions land in the ledger, the run completes."""
        import numpy as np

        from repro.core import (
            EdgeTrainingScheduler,
            OrcoDCSConfig,
            OrcoDCSFramework,
        )

        totals = {}
        for spec, label in [(None, "ideal"),
                            (ChannelSpec.preset("noisy_office"), "noisy")]:
            scheduler = EdgeTrainingScheduler(
                "round_robin", rng=np.random.default_rng(0), engine="event",
                channels=spec)
            for index in range(2):
                config = OrcoDCSConfig(input_dim=24, latent_dim=4, seed=index,
                                       noise_sigma=0.05, batch_size=8)
                data = np.random.default_rng(index).random((48, 24))
                scheduler.add_cluster(f"c{index}", OrcoDCSFramework(config),
                                      data, batch_size=8)
            report = scheduler.run(rounds_per_cluster=8)
            totals[label] = sum(
                c.trainer.ledger.total_wire_bytes()
                for c in scheduler.clusters)
            assert sum(report.rounds_per_cluster.values()) \
                + sum(report.failed_rounds.values()) == 16
        # Burst loss radiates retransmission bytes over the ideal run.
        assert totals["noisy"] > totals["ideal"]


class TestChannelTrace:
    """Record/replay: channel randomness as a replayable input."""

    def _channel(self, seed=7, **kwargs):
        defaults = dict(loss=0.2, arq=ARQConfig(max_retries=2))
        defaults.update(kwargs)
        return UnreliableChannel(uplink(), rng=rng(seed), **defaults)

    def test_replay_bit_identical_to_live(self):
        live = self._channel()
        traced = self._channel()
        traced.replay(traced.record_trace(3000, 40))
        for _ in range(40):
            assert traced.transmit(3000) == live.transmit(3000)

    def test_scalar_path_replay_bit_identical_to_live(self):
        """The per-frame reference path records and replays too."""
        live = self._channel(vectorize=False)
        traced = self._channel(vectorize=False)
        traced.replay(traced.record_trace(3000, 40))
        for _ in range(40):
            assert traced.transmit(3000) == live.transmit(3000)

    def test_long_horizon_records_one_full_trace(self):
        """Any horizon records as one ChannelTrace, equal entry for entry
        to the same number of live transmits."""
        live = self._channel(seed=4)
        traced = self._channel(seed=4)
        trace = traced.record_trace(300, 5000)
        assert type(trace) is ChannelTrace
        assert len(trace) == 5000
        assert list(trace.entries) == [live.transmit(300)
                                       for _ in range(5000)]

    def test_gilbert_elliott_replay_bit_identical(self):
        def build(seed):
            return UnreliableChannel(
                uplink(), loss=GilbertElliottLoss(0.1, 0.3, 0.02, 0.7),
                arq=ARQConfig(max_retries=1), rng=rng(seed))
        live, traced = build(3), build(3)
        traced.replay(traced.record_trace(2000, 60))
        for _ in range(60):
            assert traced.transmit(2000) == live.transmit(2000)

    def test_trace_entry_peek_does_not_move_cursor(self):
        channel = self._channel()
        trace = channel.record_trace(500, 5)
        channel.replay(trace)
        peeked = trace.entry(2)
        assert trace.cursor == 0
        channel.transmit(500)
        channel.transmit(500)
        assert channel.transmit(500) == peeked
        assert trace.remaining == 2

    def test_exhausted_trace_raises(self):
        from repro.sim import ChannelTraceExhausted
        channel = self._channel()
        channel.replay(channel.record_trace(500, 1))
        channel.transmit(500)
        with pytest.raises(ChannelTraceExhausted):
            channel.transmit(500)

    def test_payload_mismatch_rejected(self):
        channel = self._channel()
        channel.replay(channel.record_trace(500, 2))
        with pytest.raises(ValueError, match="trace recorded"):
            channel.transmit(600)

    def test_lossless_trace_matches_ideal_closed_form(self):
        link = uplink()
        channel = UnreliableChannel(link, rng=rng(0))
        trace = channel.record_trace(3000, 3)
        for entry in trace.entries:
            assert entry.delivered
            assert entry.elapsed_s == link.transfer_time(3000)
            assert entry.wire_bytes == link.wire_bytes(3000)


class TestTraceRerecord:
    """Budget swaps mid-trace re-record the remaining horizon from the
    cursor's resume point, bit-identical to a live channel swapping
    budgets at the same consume point (PR 9 tentpole)."""

    def _pair(self, seed=7, **kwargs):
        def build():
            # Stateful loss models must not be shared between the pair.
            options = dict(loss=0.2, arq=ARQConfig(max_retries=2))
            options.update({key: value() if callable(value) else value
                            for key, value in kwargs.items()})
            return UnreliableChannel(uplink(), rng=rng(seed), **options)
        return build(), build()

    def _swap_and_compare(self, live, traced, payload=2000, total=40,
                          consumed=13):
        from repro.sim import ARQConfig as ARQ
        traced.replay(traced.record_trace(payload, total))
        for _ in range(consumed):
            assert traced.transmit(payload) == live.transmit(payload)
        for channel in (live, traced):
            channel.set_arq(ARQ(max_retries=5,
                                ack_timeout_s=channel.arq.ack_timeout_s))
        traced.rerecord_trace()
        for _ in range(total - consumed):
            assert traced.transmit(payload) == live.transmit(payload)
        # The resume offset counted every consumed attempt: both
        # channels stand at the same place in their verdict streams.
        assert traced._sampler.position == live._sampler.position

    # 39 and 40 are the horizon's total - 1 and total.
    @pytest.mark.parametrize("consumed", [0, 1, 13, 39, 40])
    @pytest.mark.parametrize("preset", [False, True],
                             ids=["bernoulli", "preset"])
    def test_full_trace_rerecord_matches_live_swap(self, preset, consumed):
        """Re-recording at any consume point, the horizon's first and
        last included, continues exactly where a live channel swapping
        budgets at the same point stands — on i.i.d. loss and on the
        bursty ``noisy_office`` preset."""
        if preset:
            params = GILBERT_ELLIOTT_PRESETS["noisy_office"]
            live, traced = self._pair(
                loss=lambda: GilbertElliottLoss(**params),
                arq=ARQConfig(max_retries=1))
        else:
            live, traced = self._pair()
        self._swap_and_compare(live, traced, total=40, consumed=consumed)

    def test_gilbert_elliott_rerecord_restores_burst_state(self):
        """Rewinding a bursty sampler must re-sync the Markov state at
        the resume point, not just the draw offset."""
        live, traced = self._pair(
            seed=3, loss=lambda: GilbertElliottLoss(0.1, 0.3, 0.02, 0.7),
            arq=ARQConfig(max_retries=1))
        self._swap_and_compare(live, traced)

    def test_double_rerecord_matches_two_live_swaps(self):
        from repro.sim import ARQConfig as ARQ
        live, traced = self._pair(seed=9)
        traced.replay(traced.record_trace(2000, 30))
        for _ in range(10):
            assert traced.transmit(2000) == live.transmit(2000)
        for retries in (5, 0):
            for channel in (live, traced):
                channel.set_arq(ARQ(max_retries=retries))
            traced.rerecord_trace()
            for _ in range(10):
                assert traced.transmit(2000) == live.transmit(2000)

    def test_coding_swap_rerecords(self):
        from repro.sim import CodingSpec
        live, traced = self._pair(seed=13, loss=0.15,
                                  coding=CodingSpec(2, arq_fallback=True))
        traced.replay(traced.record_trace(2000, 30))
        for _ in range(10):
            assert traced.transmit(2000) == live.transmit(2000)
        for channel in (live, traced):
            channel.set_coding(CodingSpec(4, arq_fallback=True))
        traced.rerecord_trace()
        for _ in range(20):
            assert traced.transmit(2000) == live.transmit(2000)

    def test_rerecordable_property(self):
        assert UnreliableChannel(uplink(), loss=0.2, rng=rng(0)).rerecordable
        assert UnreliableChannel(uplink(), rng=rng(0)).rerecordable
        assert UnreliableChannel(uplink(), rng=rng(0),
                                 vectorize=False).rerecordable
        # The two channels that cannot rewind: the scalar path, and a
        # loss model without a block sampler (loss_good=0 by default).
        assert not UnreliableChannel(uplink(), loss=0.2, rng=rng(0),
                                     vectorize=False).rerecordable
        assert not UnreliableChannel(uplink(), loss=GilbertElliottLoss(),
                                     rng=rng(0)).rerecordable
        assert ChannelSpec(loss=0.1).rerecordable
        assert ChannelSpec().rerecordable
        assert ChannelSpec(vectorize=False).rerecordable
        assert not ChannelSpec(loss=0.1, vectorize=False).rerecordable
        assert not ChannelSpec(loss=GilbertElliottLoss).rerecordable
        assert ChannelSpec.preset("noisy_office").rerecordable

    @pytest.mark.parametrize("scalar_path", [
        dict(loss=0.2, vectorize=False),
        dict(loss=GilbertElliottLoss()),
    ], ids=["vectorize-off", "no-sampler"])
    def test_rerecord_refuses_scalar_path_channel(self, scalar_path):
        channel = UnreliableChannel(uplink(), rng=rng(0), **scalar_path)
        channel.replay(channel.record_trace(500, 5))
        channel.transmit(500)
        with pytest.raises(RuntimeError, match="cannot be rewound"):
            channel.rerecord_trace()

    def test_rerecord_without_trace_is_noop(self):
        channel = UnreliableChannel(uplink(), loss=0.2, rng=rng(0))
        channel.rerecord_trace()     # no trace: nothing to do
        channel.transmit(500)

class TestTraceDigests:
    """The presets' calibration data lives in-repo as trace digests;
    the test *fits* Gilbert-Elliott parameters from the digests instead
    of asserting the hand-derived constants against themselves."""

    def test_digests_cover_every_preset(self):
        from repro.sim import GILBERT_ELLIOTT_TRACE_DIGESTS
        assert set(GILBERT_ELLIOTT_TRACE_DIGESTS) \
            == set(GILBERT_ELLIOTT_PRESETS)

    @pytest.mark.parametrize("name", sorted(GILBERT_ELLIOTT_PRESETS))
    def test_fitted_parameters_recover_preset(self, name):
        from repro.sim import (
            GILBERT_ELLIOTT_TRACE_DIGESTS,
            fit_gilbert_elliott,
        )
        digest = GILBERT_ELLIOTT_TRACE_DIGESTS[name]
        fitted = fit_gilbert_elliott(digest)
        for param, value in GILBERT_ELLIOTT_PRESETS[name].items():
            assert getattr(fitted, param) == pytest.approx(value, rel=0.10), \
                f"{name}.{param}"
        # The fitted chain's steady state agrees with the trace's
        # empirical loss rate (the published figure each preset cites).
        assert fitted.mean_loss_rate == pytest.approx(digest.loss_rate,
                                                      rel=0.05)

    @pytest.mark.parametrize("name", sorted(GILBERT_ELLIOTT_PRESETS))
    def test_digest_reproducible_from_generator(self, name):
        """The committed numbers are exactly what the in-repo generator
        produces — the digests are data, not hand-tuned constants."""
        from repro.sim import (
            GILBERT_ELLIOTT_TRACE_DIGESTS,
            digest_gilbert_elliott,
        )
        model = GilbertElliottLoss(**GILBERT_ELLIOTT_PRESETS[name])
        regenerated = digest_gilbert_elliott(
            model, 200_000, np.random.default_rng(0x802154))
        assert regenerated == GILBERT_ELLIOTT_TRACE_DIGESTS[name]

    def test_digest_mean_burst_length(self):
        from repro.sim import GILBERT_ELLIOTT_TRACE_DIGESTS
        digest = GILBERT_ELLIOTT_TRACE_DIGESTS["802154_indoor"]
        expected = 1.0 / GILBERT_ELLIOTT_PRESETS[
            "802154_indoor"]["p_bad_to_good"]
        assert digest.mean_bad_sojourn_frames == pytest.approx(expected,
                                                               rel=0.1)
