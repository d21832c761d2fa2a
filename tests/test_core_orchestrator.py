"""Unit tests for the IoT-Edge orchestrated online trainer."""

import numpy as np
import pytest

from repro.core import (
    OrcoDCSConfig,
    OrcoDCSFramework,
    OrchestratedTrainer,
    TrainingHistory,
    config_overhead,
)
from repro.nn import Dense, HuberLoss, Sequential, Sigmoid, Tensor


def toy_rows(count=64, dim=20, seed=0):
    return np.random.default_rng(seed).random((count, dim))


def toy_trainer(dim=20, latent=4, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    encoder = Sequential(Dense(dim, latent, rng=rng), Sigmoid())
    decoder = Sequential(Dense(latent, dim, rng=rng), Sigmoid())
    defaults = dict(input_dim=dim, latent_dim=latent, loss=HuberLoss(),
                    noise=None, encoder_forward_flops=2 * dim * latent,
                    decoder_forward_flops=2 * dim * latent,
                    rng=rng, name="toy")
    defaults.update(kwargs)
    return OrchestratedTrainer(encoder, decoder, **defaults)


class TestDtype:
    def test_dtype_is_the_parameters_dtype(self):
        assert toy_trainer().dtype == np.float64

    def test_sides_must_share_one_dtype(self):
        rng = np.random.default_rng(0)
        encoder = Sequential(Dense(20, 4, rng=rng), Sigmoid()).astype(np.float32)
        decoder = Sequential(Dense(4, 20, rng=rng), Sigmoid())
        with pytest.raises(ValueError, match="one dtype"):
            OrchestratedTrainer(encoder, decoder, input_dim=20, latent_dim=4,
                                loss=HuberLoss(), noise=None,
                                encoder_forward_flops=160.0,
                                decoder_forward_flops=160.0)


class TestTrainRound:
    def test_returns_record_with_accounting(self):
        trainer = toy_trainer()
        record = trainer.train_round(toy_rows(8))
        assert record.round_index == 1
        assert record.train_loss > 0
        assert record.uplink_bytes == 8 * 4 * 4
        assert record.downlink_bytes == 8 * (20 + 4) * 4
        assert record.time_s > 0

    def test_clock_accumulates(self):
        trainer = toy_trainer()
        first = trainer.train_round(toy_rows(8))
        second = trainer.train_round(toy_rows(8))
        assert second.time_s > first.time_s

    def test_ledger_kinds(self):
        trainer = toy_trainer()
        trainer.train_round(toy_rows(8))
        kinds = trainer.ledger.by_kind()
        assert "latent_uplink" in kinds and "recon_downlink" in kinds

    def test_updates_both_sides(self):
        trainer = toy_trainer()
        enc_before = trainer.encoder.parameters()[0].data.copy()
        dec_before = trainer.decoder.parameters()[0].data.copy()
        trainer.train_round(toy_rows(16))
        assert not np.allclose(enc_before, trainer.encoder.parameters()[0].data)
        assert not np.allclose(dec_before, trainer.decoder.parameters()[0].data)

    def test_dimension_validation(self):
        trainer = toy_trainer()
        with pytest.raises(ValueError):
            trainer.train_round(np.zeros((4, 7)))


class TestFit:
    def test_loss_decreases(self):
        trainer = toy_trainer()
        history = trainer.fit(toy_rows(128), epochs=20, batch_size=32)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_round_and_epoch_counts(self):
        trainer = toy_trainer()
        history = trainer.fit(toy_rows(64), epochs=3, batch_size=16)
        assert len(history.epochs) == 3
        assert len(history.rounds) == 3 * 4

    def test_each_epoch_visits_every_row_once_in_a_fresh_order(self):
        trainer = toy_trainer()
        rows = toy_rows(32)
        seen = []
        train_round = trainer.train_round

        def record(batch, epoch):
            seen.append([int(np.flatnonzero((rows == r).all(axis=1))[0])
                         for r in batch])
            return train_round(batch, epoch)

        trainer.train_round = record
        trainer.fit(rows, epochs=2, batch_size=8)
        first, second = sum(seen[:4], []), sum(seen[4:], [])
        assert sorted(first) == sorted(second) == list(range(32))
        assert first != list(range(32)) and first != second

    def test_validation_loss_recorded(self):
        trainer = toy_trainer()
        history = trainer.fit(toy_rows(32), epochs=2, batch_size=16,
                              val_rows=toy_rows(16, seed=1))
        assert all(e.val_loss is not None for e in history.epochs)

    def test_time_budget_stops_early(self):
        trainer = toy_trainer()
        probe = trainer.train_round(toy_rows(16))
        budget = probe.time_s * 3.5
        trainer.fit(toy_rows(256), epochs=50, batch_size=16,
                    time_budget_s=budget)
        assert trainer.clock_s <= budget + probe.time_s

    def test_history_continuation(self):
        trainer = toy_trainer()
        history = trainer.fit(toy_rows(32), epochs=1, batch_size=16)
        continued = trainer.fit(toy_rows(32), epochs=1, batch_size=16,
                                history=history)
        assert continued is history
        assert len(history.epochs) == 2

    def test_parameter_validation(self):
        trainer = toy_trainer()
        with pytest.raises(ValueError):
            trainer.fit(toy_rows(8), epochs=0)

    @pytest.mark.parametrize("name,value", [("epochs", 2.5),
                                            ("batch_size", 2.5),
                                            ("epochs", float("nan"))])
    def test_fractional_or_nan_counts_rejected(self, name, value):
        trainer = toy_trainer()
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            trainer.fit(toy_rows(8), **{name: value})
        assert trainer.clock_s == 0.0

    def test_numpy_integer_counts_accepted(self):
        history = toy_trainer().fit(toy_rows(32), epochs=np.int64(2),
                                    batch_size=np.int32(16))
        assert len(history.rounds) == 4


class TestEvaluateReconstruct:
    def test_evaluate_does_not_update(self):
        trainer = toy_trainer()
        before = trainer.encoder.parameters()[0].data.copy()
        trainer.evaluate(toy_rows(8))
        assert np.allclose(before, trainer.encoder.parameters()[0].data)

    def test_evaluate_does_not_advance_clock(self):
        trainer = toy_trainer()
        trainer.evaluate(toy_rows(8))
        assert trainer.clock_s == 0.0

    def test_reconstruct_shape_and_range(self):
        trainer = toy_trainer()
        out = trainer.reconstruct(toy_rows(5))
        assert out.shape == (5, 20)
        assert out.min() >= 0 and out.max() <= 1


class TestTrainingHistory:
    def test_final_loss_and_total_time(self):
        history = TrainingHistory("x")
        from repro.core import RoundRecord
        history.rounds = [RoundRecord(1, 1, 1.0, 0.5, 0, 0),
                          RoundRecord(2, 1, 2.0, 0.2, 0, 0),
                          RoundRecord(3, 1, 3.0, 0.1, 0, 0)]
        assert history.final_loss == 0.1
        assert history.total_time_s == 3.0

    def test_empty_history_guards(self):
        history = TrainingHistory("x")
        assert history.total_time_s == 0.0
        with pytest.raises(ValueError):
            _ = history.final_loss


class TestOrcoDCSFramework:
    def test_framework_wires_config(self):
        config = OrcoDCSConfig(input_dim=30, latent_dim=6, seed=0,
                               batch_size=8)
        framework = OrcoDCSFramework(config)
        assert framework.input_dim == 30
        assert framework.latent_dim == 6
        assert framework.name == "OrcoDCS"

    def test_fit_config_uses_config_batch(self):
        config = OrcoDCSConfig(input_dim=30, latent_dim=6, seed=0,
                               batch_size=8)
        framework = OrcoDCSFramework(config)
        history = framework.fit_config(toy_rows(32, 30), epochs=1)
        assert len(history.rounds) == 4

    def test_training_reduces_loss_on_structured_data(self):
        rng = np.random.default_rng(0)
        basis = rng.random((3, 30))
        rows = np.clip(rng.random((96, 3)) @ basis / 3.0, 0, 1)
        config = OrcoDCSConfig(input_dim=30, latent_dim=6, seed=0,
                               noise_sigma=0.05)
        framework = OrcoDCSFramework(config)
        history = framework.fit_config(rows, epochs=30)
        assert history.epochs[-1].train_loss < 0.5 * history.epochs[0].train_loss

    def test_mse_framework_trains(self):
        rng = np.random.default_rng(0)
        basis = rng.random((3, 30))
        rows = np.clip(rng.random((96, 3)) @ basis / 3.0, 0, 1)
        config = OrcoDCSConfig(input_dim=30, latent_dim=6, seed=0,
                               noise_sigma=0.05, loss="mse")
        history = OrcoDCSFramework(config).fit_config(rows, epochs=30)
        assert history.epochs[-1].train_loss < 0.5 * history.epochs[0].train_loss

    def test_huber_threshold_is_one(self):
        framework = OrcoDCSFramework(OrcoDCSConfig(input_dim=30,
                                                   latent_dim=6))
        # Residuals 0.5 and 3.0: 0.5 * 0.5**2 and 3.0 - 0.5 under delta 1.
        loss = framework.loss(Tensor(np.array([0.5, 3.0])), np.zeros(2))
        assert loss.item() == pytest.approx((0.125 + 2.5) / 2)

    def test_noise_sigma_stays_fixed_through_fit(self):
        config = OrcoDCSConfig(input_dim=30, latent_dim=6, noise_sigma=0.2)
        framework = OrcoDCSFramework(config)
        framework.fit_config(toy_rows(16, 30), epochs=3)
        assert framework.noise.sigma == 0.2

    def test_overhead_reflects_decoder_depth(self):
        shallow = OrcoDCSFramework(OrcoDCSConfig(input_dim=64, latent_dim=8,
                                                 decoder_layers=1))
        deep = OrcoDCSFramework(OrcoDCSConfig(input_dim=64, latent_dim=8,
                                              decoder_layers=5))
        assert deep.overhead().edge_compute_share > \
            shallow.overhead().edge_compute_share

    @pytest.mark.parametrize("kwargs", [
        dict(input_dim=64, latent_dim=8),
        dict(input_dim=64, latent_dim=8, decoder_layers=3, batch_size=16),
        dict(input_dim=30, latent_dim=40, decoder_layers=2,
             dtype=np.float32),
        dict(input_dim=784, latent_dim=128, decoder_layers=5, seed=3),
    ])
    def test_config_overhead_matches_the_built_framework(self, kwargs):
        config = OrcoDCSConfig(**kwargs)
        assert config_overhead(config) == OrcoDCSFramework(config).overhead()

    def test_reconstruct_diverse_shapes_and_clean_head(self):
        config = OrcoDCSConfig(input_dim=30, latent_dim=6, noise_sigma=0.3,
                               seed=0)
        framework = OrcoDCSFramework(config)
        rows = toy_rows(5, 30)
        out = framework.reconstruct_diverse(rows, copies=3)
        assert out.shape == (15, 30)
        # The first block is the clean decode.
        assert np.allclose(out[:5], framework.reconstruct(rows))
        # Noisy copies differ from the clean ones.
        assert not np.allclose(out[5:10], out[:5])

    def test_reconstruct_diverse_single_copy_is_clean(self):
        config = OrcoDCSConfig(input_dim=30, latent_dim=6, noise_sigma=0.3)
        framework = OrcoDCSFramework(config)
        rows = toy_rows(4, 30)
        assert np.allclose(framework.reconstruct_diverse(rows, copies=1),
                           framework.reconstruct(rows))

    def test_reconstruct_diverse_validation(self):
        config = OrcoDCSConfig(input_dim=30, latent_dim=6)
        framework = OrcoDCSFramework(config)
        with pytest.raises(ValueError):
            framework.reconstruct_diverse(toy_rows(2, 30), copies=0)
