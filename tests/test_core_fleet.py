"""Unit tests for the batched fleet execution engine."""

import numpy as np
import pytest

from repro.core import (
    FleetIncompatibilityError,
    FleetTrainer,
    OrcoDCSConfig,
    OrcoDCSFramework,
    fleet_compatible,
)
from repro.core.fleet import stacking_key
from repro.nn import Module


def make_trainers(K=3, dim=20, latent=4, noise=0.05, **overrides):
    trainers = []
    for i in range(K):
        config = OrcoDCSConfig(input_dim=dim, latent_dim=latent, seed=i,
                               noise_sigma=noise, **overrides)
        trainers.append(OrcoDCSFramework(config))
    return trainers


def batch_stack(K=3, B=8, dim=20, seed=0):
    return np.random.default_rng(seed).random((K, B, dim))


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(FleetIncompatibilityError):
            FleetTrainer([])

    def test_dimension_mismatch_rejected(self):
        trainers = make_trainers(2) + make_trainers(1, dim=24)
        with pytest.raises(FleetIncompatibilityError):
            FleetTrainer(trainers)
        assert not fleet_compatible(trainers)

    def test_loss_mismatch_rejected(self):
        trainers = make_trainers(2)
        trainers += make_trainers(1, loss="mse")
        with pytest.raises(FleetIncompatibilityError):
            FleetTrainer(trainers)

    def test_depth_mismatch_rejected(self):
        trainers = make_trainers(2) + make_trainers(1, decoder_layers=3)
        with pytest.raises(FleetIncompatibilityError):
            FleetTrainer(trainers)

    def test_homogeneous_trainers_compatible(self):
        assert fleet_compatible(make_trainers(3))
        assert fleet_compatible(make_trainers(2, decoder_layers=3))

    def test_dtype_mismatch_rejected(self):
        trainers = make_trainers(2) + make_trainers(1, dtype=np.float32)
        with pytest.raises(FleetIncompatibilityError):
            FleetTrainer(trainers)
        assert not fleet_compatible(trainers)
        assert fleet_compatible(make_trainers(2, dtype=np.float32))

    def test_no_trainers_are_not_compatible(self):
        assert not fleet_compatible([])

    def test_non_sequential_models_rejected(self):
        class Wrapped(Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return self.inner(x)

        trainers = make_trainers(2)
        trainers[1].encoder = Wrapped(trainers[1].encoder)
        with pytest.raises(FleetIncompatibilityError, match="Sequential"):
            FleetTrainer(trainers)
        assert not fleet_compatible(trainers)
        assert stacking_key(trainers[1]) is None
        assert stacking_key(trainers[0]) is not None

    def test_heterogeneous_noise_allowed(self):
        trainers = make_trainers(2, noise=0.1) + make_trainers(1, noise=0.0)
        assert fleet_compatible(trainers)
        FleetTrainer(trainers)


class TestStepEquivalence:
    def test_matches_sequential_trainers(self):
        # Two identical universes; one steps sequentially, one as a fleet.
        seq = make_trainers(3)
        fleet = FleetTrainer(make_trainers(3))
        for round_index in range(5):
            batches = batch_stack(seed=round_index)
            records = fleet.step(batches)
            for k, trainer in enumerate(seq):
                expected = trainer.step(batches[k])
                got = records[k]
                assert abs(got.train_loss - expected.train_loss) <= 1e-9
                assert got.time_s == pytest.approx(expected.time_s)
                assert got.uplink_bytes == expected.uplink_bytes
                assert got.round_index == expected.round_index

    def test_noise_streams_match_sequential(self):
        seq = make_trainers(2, noise=0.3)
        fleet = FleetTrainer(make_trainers(2, noise=0.3))
        batches = batch_stack(K=2)
        records = fleet.step(batches)
        for k, trainer in enumerate(seq):
            expected = trainer.step(batches[k])
            assert abs(records[k].train_loss - expected.train_loss) <= 1e-9

    def test_float32_fleet_tracks_sequential(self):
        """A float32 stack keeps float32 and stays within the repo-wide
        1e-6 trajectory budget of its per-cluster twins (the stacked
        and per-cluster reductions differ by an ulp, not bit for bit)."""
        seq = make_trainers(3, dtype=np.float32)
        fleet = FleetTrainer(make_trainers(3, dtype=np.float32))
        assert fleet.dtype == np.float32
        for round_index in range(5):
            batches = batch_stack(seed=round_index)
            records = fleet.step(batches)
            for k, trainer in enumerate(seq):
                expected = trainer.step(batches[k])
                assert abs(records[k].train_loss
                           - expected.train_loss) <= 1e-6
        # The float64 batches were cast at the fleet's data boundary.
        for opt in (fleet.encoder_optimizer, fleet.decoder_optimizer):
            assert {p.grad.dtype for p in opt.params} == {np.dtype(np.float32)}
        fleet.sync_to_trainers()
        for trainer in fleet.trainers:
            for opt in (trainer.encoder_optimizer, trainer.decoder_optimizer):
                for array in [p.data for p in opt.params] + opt._m + opt._v:
                    assert array.dtype == np.float32

    def test_sync_back_continues_identically(self):
        seq = make_trainers(2)
        fleet = FleetTrainer(make_trainers(2))
        for round_index in range(3):
            batches = batch_stack(K=2, seed=round_index)
            fleet.step(batches)
            for k, trainer in enumerate(seq):
                trainer.step(batches[k])
        fleet.sync_to_trainers()
        follow = batch_stack(K=2, seed=99)
        for k, (fleet_trainer, trainer) in enumerate(zip(fleet.trainers, seq)):
            got = fleet_trainer.step(follow[k])
            expected = trainer.step(follow[k])
            assert abs(got.train_loss - expected.train_loss) <= 1e-9

    def test_mid_training_adoption(self):
        # A fleet assembled from already-trained trainers keeps their state.
        seq = make_trainers(2)
        warm = make_trainers(2)
        for round_index in range(3):
            batches = batch_stack(K=2, seed=round_index)
            for trainers in (seq, warm):
                for k, trainer in enumerate(trainers):
                    trainer.step(batches[k])
        fleet = FleetTrainer(warm)
        batches = batch_stack(K=2, seed=50)
        records = fleet.step(batches)
        for k, trainer in enumerate(seq):
            expected = trainer.step(batches[k])
            assert abs(records[k].train_loss - expected.train_loss) <= 1e-9


class TestStepInterface:
    def test_ledger_stays_per_cluster(self):
        fleet = FleetTrainer(make_trainers(2))
        fleet.step(batch_stack(K=2))
        for trainer in fleet.trainers:
            kinds = trainer.ledger.by_kind()
            assert "latent_uplink" in kinds and "recon_downlink" in kinds

    def test_epoch_labels_recorded(self):
        fleet = FleetTrainer(make_trainers(2))
        records = fleet.step(batch_stack(K=2), epochs=[3, 7])
        assert [r.epoch for r in records] == [3, 7]

    def test_bad_stack_shape_rejected(self):
        fleet = FleetTrainer(make_trainers(2))
        with pytest.raises(ValueError):
            fleet.step(np.zeros((3, 8, 20)))
        with pytest.raises(ValueError):
            fleet.step(np.zeros((2, 8, 21)))

    def test_active_subset_trains_only_those(self):
        fleet = FleetTrainer(make_trainers(3, noise=0.0))
        before = [layer.weight.data[0].copy()
                  for layer in fleet.encoder_layers if hasattr(layer, "weight")]
        records = fleet.step(batch_stack(K=2), active=[1, 2])
        assert len(records) == 2
        after = [layer.weight.data[0]
                 for layer in fleet.encoder_layers if hasattr(layer, "weight")]
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)   # slice 0 untouched
        assert fleet.trainers[0].clock_s == 0.0
        assert fleet.trainers[1].clock_s > 0.0


class TestFleetSubset:
    """A partial wave: ``step(active=...)`` trains a subset of the fleet
    through its stacked parameters."""

    def test_subset_validation(self):
        fleet = FleetTrainer(make_trainers(3))
        with pytest.raises(ValueError):
            fleet.step(batch_stack(K=1), active=[])
        with pytest.raises(ValueError):
            fleet.step(batch_stack(K=2), active=[0, 0])
        with pytest.raises(IndexError):
            fleet.step(batch_stack(K=2), active=[0, 3])
        with pytest.raises(ValueError):
            fleet.step(batch_stack(K=1),
                       active=np.array([True, False]))   # wrong mask length

    @pytest.mark.parametrize("active,error", [
        ([1, 1], ValueError),                  # duplicate
        ([-1], IndexError),                    # negative
        ([0, 3], IndexError),                  # out of range
        (np.array([True, False]), ValueError),  # wrong-length mask
        ([], ValueError),                      # empty
        ([0.5], ValueError),                   # not an integer
    ])
    def test_step_and_forward_reject_bad_active(self, active, error):
        """Before validation, ``active=[1, 1]`` returned two records and
        charged trainer 1 twice for one Adam step, and ``active=[-1]``
        trained slice 2."""
        fleet = FleetTrainer(make_trainers(3))
        before = fleet.decoder_layers[0].weight.data.copy()
        with pytest.raises(error):
            fleet.step(batch_stack(K=max(len(active), 1)), active=active)
        with pytest.raises(error):
            fleet.forward(batch_stack(K=max(len(active), 1)), active=active)
        assert [t.clock_s for t in fleet.trainers] == [0.0, 0.0, 0.0]
        assert [len(t.ledger) for t in fleet.trainers] == [0, 0, 0]
        assert list(fleet.decoder_optimizer._t) == [0, 0, 0]
        np.testing.assert_array_equal(fleet.decoder_layers[0].weight.data,
                                      before)

    def test_boolean_mask_selects_members(self):
        fleet = FleetTrainer(make_trainers(3))
        records = fleet.step(batch_stack(K=2),
                             active=np.array([True, False, True]))
        assert len(records) == 2
        assert list(fleet.decoder_optimizer._t) == [1, 0, 1]
        assert [t.clock_s > 0.0 for t in fleet.trainers] == [True, False, True]

    def test_subset_shares_parameters_with_fleet(self):
        """Mid-training slicing copies nothing: a subset step mutates
        the fleet's stacked parameters in place."""
        fleet = FleetTrainer(make_trainers(3))
        weight = fleet.encoder_layers[0].weight.data
        before = weight.copy()
        fleet.step(batch_stack(K=1), active=[1])
        after = fleet.encoder_layers[0].weight.data
        assert after is weight
        assert not np.allclose(before[1], after[1])      # member trained
        np.testing.assert_array_equal(before[0], after[0])   # others frozen
        np.testing.assert_array_equal(before[2], after[2])

    def test_subset_trajectory_matches_standalone(self):
        """A cluster trained through shifting subsets matches training
        it alone — the per-slice equivalence contract."""
        fleet = FleetTrainer(make_trainers(3))
        solo = make_trainers(3)[1]      # same seed -> same init weights
        batches = [np.random.default_rng(10 + r).random((8, 20))
                   for r in range(6)]
        memberships = [[0, 1], [1, 2], [0, 1, 2], [1], [1, 2], [0, 1]]
        fleet_losses = []
        for batch, members in zip(batches, memberships):
            row = members.index(1)
            stack = np.random.default_rng(99).random(
                (len(members), 8, 20))
            stack[row] = batch
            records = fleet.step(stack, active=members)
            fleet_losses.append(records[row].train_loss)
        solo_losses = [solo.step(batch).train_loss for batch in batches]
        np.testing.assert_allclose(fleet_losses, solo_losses, atol=1e-9)
