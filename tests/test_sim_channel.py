"""Unit tests for unreliable channels: loss models, ARQ, traces."""

import numpy as np
import pytest

from repro.obs.telemetry import TelemetryBus
from repro.sim import (
    ARQConfig,
    BernoulliLoss,
    ChannelSpec,
    ChannelTrace,
    CodingSpec,
    GILBERT_ELLIOTT_PRESETS,
    GilbertElliottLoss,
    UnreliableChannel,
    as_loss_model,
)
from repro.wsn import LinkModel, sensor_link, uplink


def rng(seed=0):
    return np.random.default_rng(seed)


def _gilbert_elliott_trace(model, frames, seed=0x802154):
    """Per-frame hidden state (True = BAD) and loss verdict of a chain."""
    generator = rng(seed)
    states = np.empty(frames, dtype=bool)
    lost = np.empty(frames, dtype=bool)
    for i in range(frames):
        lost[i] = model.frame_lost(generator)
        states[i] = model.bad
    return states, lost


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

    def test_inescapable_lossy_state_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_bad_to_good=0.0, loss_bad=1.0)

    @pytest.mark.parametrize("param", ["p_good_to_bad", "p_bad_to_good",
                                       "loss_good", "loss_bad"])
    def test_gilbert_elliott_probability_range(self, param):
        with pytest.raises(ValueError, match=param):
            GilbertElliottLoss(**{param: 1.5})
        with pytest.raises(ValueError, match=param):
            GilbertElliottLoss(**{param: -0.1})

    def test_frozen_chain_stays_good(self):
        """With no transitions the chain never leaves GOOD, so its
        steady-state loss is the GOOD-state rate."""
        loss = GilbertElliottLoss(p_good_to_bad=0.0, p_bad_to_good=0.0,
                                  loss_good=0.1, loss_bad=0.9)
        assert loss.mean_loss_rate == 0.1
        generator = rng(0)
        hits = sum(loss.frame_lost(generator) for _ in range(20000))
        assert not loss.bad
        assert hits / 20000 == pytest.approx(0.1, abs=0.01)

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

    # A wrong-typed ``coding`` or ``arq`` used to construct and fail
    # only at the first read of ``recovery`` (``AttributeError``).
    def test_int_coding_rejected_at_construction(self):
        with pytest.raises(TypeError, match="coding must be a CodingSpec"):
            ChannelSpec(coding=2)

    def test_int_coding_rejected_by_with_coding(self):
        with pytest.raises(TypeError, match="coding must be a CodingSpec"):
            ChannelSpec(loss=0.1).with_coding(2)

    def test_int_arq_rejected_at_construction(self):
        with pytest.raises(TypeError, match="arq must be an ARQConfig"):
            ChannelSpec(loss=0.1, arq=3)

    def test_int_arq_rejected_by_with_arq(self):
        with pytest.raises(TypeError, match="arq must be an ARQConfig"):
            ChannelSpec(loss=0.1).with_arq(3)

    def test_ideal_property(self):
        assert ChannelSpec().ideal
        assert ChannelSpec(loss=0.0).ideal
        assert not ChannelSpec(loss=0.1).ideal


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

    @pytest.mark.parametrize("name", sorted(GILBERT_ELLIOTT_PRESETS))
    def test_fitted_parameters_recover_preset(self, name):
        """Fit the chain's parameters back from a generated trace: the
        generator realises each preset's transition and loss rates."""
        states, lost = _gilbert_elliott_trace(
            GilbertElliottLoss(**GILBERT_ELLIOTT_PRESETS[name]), 200_000)
        entering = np.concatenate([[False], states[:-1]])
        fitted = {
            "p_good_to_bad": states[~entering].mean(),
            "p_bad_to_good": (~states[entering]).mean(),
            "loss_good": lost[~states].mean(),
            "loss_bad": lost[states].mean(),
        }
        for param, value in GILBERT_ELLIOTT_PRESETS[name].items():
            assert fitted[param] == pytest.approx(value, rel=0.10), \
                f"{name}.{param}"
        model = GilbertElliottLoss(**fitted)
        assert model.mean_loss_rate == pytest.approx(lost.mean(), rel=0.05)

    @pytest.mark.parametrize("name", sorted(GILBERT_ELLIOTT_PRESETS))
    def test_mean_burst_length(self, name):
        """BAD sojourns are geometric: mean length 1 / p_bad_to_good."""
        states, _ = _gilbert_elliott_trace(
            GilbertElliottLoss(**GILBERT_ELLIOTT_PRESETS[name]), 200_000)
        edges = np.diff(np.concatenate([[0], states.astype(int), [0]]))
        lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
        expected = 1.0 / GILBERT_ELLIOTT_PRESETS[name]["p_bad_to_good"]
        assert lengths.mean() == pytest.approx(expected, rel=0.10)

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
        assert trace.cursor == 3 and len(trace) == 5

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

    def test_hand_built_trace_cannot_rerecord(self):
        entries = UnreliableChannel(uplink(), loss=0.2,
                                    rng=rng(0)).transmit_batch(500, 3)
        with pytest.raises(ValueError, match="re-recording metadata"):
            ChannelTrace(tuple(entries)).rerecord()


class TestTransmitBatchEdges:
    """Inputs the batched pricer short-cuts before touching the stream."""

    @pytest.mark.parametrize("count, n_bytes", [(-1, 96), (3, -1)],
                             ids=["count", "payload"])
    def test_negative_input_rejected(self, count, n_bytes):
        channel = UnreliableChannel(sensor_link(), loss=0.3, rng=rng(0))
        with pytest.raises(ValueError, match="non-negative"):
            channel.transmit_batch(n_bytes, count)
        assert channel._sampler.position == 0

    def test_negative_trace_length_rejected(self):
        channel = UnreliableChannel(sensor_link(), loss=0.3, rng=rng(0))
        with pytest.raises(ValueError, match="transmits"):
            channel.record_trace(96, -1)

    def test_empty_payload_radiates_nothing(self):
        channel = UnreliableChannel(sensor_link(), loss=0.3, rng=rng(0))
        results = channel.transmit_batch(0, 4)
        assert len(results) == 4
        assert all(r.delivered and r.frames == r.wire_bytes == 0
                   and r.elapsed_s == 0.0 for r in results)
        # No frame was sent, so no loss verdict was drawn.
        assert channel._sampler.position == 0

    def test_lossless_coded_batch_radiates_parity_every_time(self):
        coding = CodingSpec(parity_frames=2)
        batch = UnreliableChannel(sensor_link(), loss=None, rng=rng(0),
                                  coding=coding).transmit_batch(500, 3)
        live = UnreliableChannel(sensor_link(), loss=None, rng=rng(0),
                                 coding=coding).transmit(500)
        assert batch == [live] * 3
        assert live.delivered and live.lost_frames == 0
        assert live.parity_frames == 2 and live.fec_wire_bytes > 0

#: Channel configurations transmit_each is checked on, covering every
#: pricing route: lossless, block-sampled Bernoulli and Gilbert-Elliott,
#: and the sampler-less default Gilbert-Elliott chain (loss_good == 0).
_EACH_LOSS = {
    "lossless": lambda: None,
    "bernoulli": lambda: 0.3,
    "indoor": lambda: GilbertElliottLoss(**GILBERT_ELLIOTT_PRESETS[
        "802154_indoor"]),
    "ge_default": GilbertElliottLoss,
}
_EACH_RECOVERY = {
    "none": dict(arq=ARQConfig(max_retries=0)),
    "arq": dict(arq=ARQConfig(max_retries=2)),
    "fec": dict(arq=ARQConfig(max_retries=1),
                coding=CodingSpec(parity_frames=2)),
    "hybrid": dict(arq=ARQConfig(max_retries=1),
                   coding=CodingSpec(parity_frames=1, arq_fallback=True)),
}


class TestTransmitEach:
    """The lazy sequence pricer equals one live transmit per message,
    however many messages the caller takes."""

    @staticmethod
    def _channel(loss, recovery, vectorize, seed):
        return UnreliableChannel(sensor_link(), loss=_EACH_LOSS[loss](),
                                 rng=rng(seed), vectorize=vectorize,
                                 **_EACH_RECOVERY[recovery])

    @staticmethod
    def _state(channel):
        sampler = channel._sampler
        return (sampler.position if sampler is not None else None,
                getattr(channel.loss, "bad", None))

    @pytest.mark.parametrize("vectorize", [True, False])
    @pytest.mark.parametrize("recovery", sorted(_EACH_RECOVERY))
    @pytest.mark.parametrize("loss", sorted(_EACH_LOSS))
    def test_any_prefix_leaves_the_channel_as_live_transmits(
            self, loss, recovery, vectorize):
        # Zero-byte, single-frame and fragmenting messages, mixed.
        payloads = [40, 64, 0, 8, 96, 64, 97, 40, 250, 64, 1, 64] * 2
        for seed in range(3):
            live = self._channel(loss, recovery, vectorize, seed)
            expected = [live.transmit(n_bytes) for n_bytes in payloads]
            for taken in range(len(payloads) + 1):
                each = self._channel(loss, recovery, vectorize, seed)
                replay = self._channel(loss, recovery, vectorize, seed)
                priced = each.transmit_each(payloads)
                assert [next(priced) for _ in range(taken)] \
                    == expected[:taken]
                for n_bytes in payloads[:taken]:
                    replay.transmit(n_bytes)
                assert self._state(each) == self._state(replay)
                assert each.transmit(64) == replay.transmit(64)

    def test_emits_no_batch_telemetry(self):
        seen = []
        bus = TelemetryBus()
        bus.subscribe(seen.append)
        channel = self._channel("bernoulli", "fec", True, 2)
        channel.bus = bus
        list(channel.transmit_each([40, 64, 8]))
        assert seen == []

    def test_a_draw_between_taken_messages_raises(self):
        channel = self._channel("indoor", "fec", True, 5)
        priced = channel.transmit_each([40, 64, 8])
        next(priced)
        channel.transmit(40)
        with pytest.raises(RuntimeError, match="drew loss verdicts"):
            next(priced)

    def test_replayed_trace_serves_its_entries(self):
        channel = self._channel("bernoulli", "arq", True, 3)
        trace = channel.record_trace(64, 4)
        channel.replay(trace)
        assert list(channel.transmit_each([64] * 4)) == list(trace.entries)
        trace.cursor = 0
        with pytest.raises(ValueError, match="64-byte"):
            next(channel.transmit_each([40]))

    def test_negative_payload_raises_when_taken(self):
        channel = self._channel("bernoulli", "arq", True, 4)
        priced = channel.transmit_each([40, -1])
        assert next(priced).payload_bytes == 40
        with pytest.raises(ValueError, match="non-negative"):
            next(priced)
