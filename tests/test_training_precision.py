"""Training precision: a float32 model is the float64 one rounded, and a
float32 round computes in float32 from its data boundary to its Adam
state."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps import ImageClassifier
from repro.apps.classifier import build_simple_cnn
from repro.baselines import DCSNetOnline
from repro.baselines.dcsnet import build_dcsnet_decoder, build_dcsnet_encoder
from repro.core import OrcoDCSConfig, OrcoDCSFramework

#: Relative gap allowed between float32 and float64 losses over five
#: rounds, fixed in advance from float32's epsilon (~1.2e-7) with room
#: for each round's rounding to compound through the updates.
FLOAT32_RTOL = 1e-5

ORCO_CASES = [(1, "huber"), (1, "mse"), (3, "huber"), (3, "mse")]


def captured_step(trainer, batch):
    """One real :meth:`step`; returns its reconstruction and loss tensors."""
    seen = {}
    decode, apply = trainer.decode_latent, trainer.apply_updates

    def decode_latent(latent):
        seen["reconstruction"] = decode(latent)
        return seen["reconstruction"]

    def apply_updates(loss):
        seen["loss"] = loss
        apply(loss)

    trainer.decode_latent = decode_latent
    trainer.apply_updates = apply_updates
    trainer.step(batch)
    return seen["reconstruction"], seen["loss"]


def optimizer_arrays(optimizer):
    """Every parameter, gradient and Adam moment an optimiser holds."""
    arrays = []
    for param, m, v in zip(optimizer.params, optimizer._m, optimizer._v):
        assert param.grad is not None
        arrays += [param.data, param.grad, m, v]
    return arrays


def trainer_arrays(trainer, batch):
    reconstruction, loss = captured_step(trainer, batch)
    return ([reconstruction.data, loss.data]
            + optimizer_arrays(trainer.encoder_optimizer)
            + optimizer_arrays(trainer.decoder_optimizer))


def assert_all(arrays, dtype):
    found = sorted({str(array.dtype) for array in arrays})
    assert found == [np.dtype(dtype).name]


def orco_config(decoder_layers=1, loss="huber", **overrides):
    return OrcoDCSConfig(input_dim=48, latent_dim=8, noise_sigma=0.1,
                         decoder_layers=decoder_layers, loss=loss, seed=3,
                         **overrides)


def float64_rows(count, width, seed=0):
    return np.random.default_rng(seed).random((count, width))


class TestOneRoundStaysInItsDtype:
    @pytest.mark.parametrize("decoder_layers,loss", ORCO_CASES)
    def test_float32_orcodcs(self, decoder_layers, loss):
        trainer = OrcoDCSFramework(orco_config(decoder_layers, loss,
                                               dtype=np.float32))
        assert trainer.dtype == np.float32
        assert_all(trainer_arrays(trainer, float64_rows(8, 48)), np.float32)

    @pytest.mark.parametrize("decoder_layers,loss", ORCO_CASES)
    def test_float64_default_orcodcs(self, decoder_layers, loss):
        trainer = OrcoDCSFramework(orco_config(decoder_layers, loss))
        assert trainer.dtype == np.float64
        assert_all(trainer_arrays(trainer, float64_rows(8, 48)), np.float64)

    def test_dcsnet(self):
        trainer = DCSNetOnline(image_shape=(1, 8, 8), seed=0)
        assert trainer.dtype == np.float32
        assert_all(trainer_arrays(trainer, float64_rows(4, 64)), np.float32)

    def test_classifier(self):
        classifier = ImageClassifier((1, 8, 8), num_classes=3, seed=0)
        seen = {}
        loss_fn = classifier.loss

        def loss(logits, labels):
            seen["logits"], seen["loss"] = logits, loss_fn(logits, labels)
            return seen["loss"]

        classifier.loss = loss
        classifier.train_epoch(float64_rows(6, 64), np.arange(6) % 3,
                               batch_size=6)
        assert_all([seen["logits"].data, seen["loss"].data]
                   + optimizer_arrays(classifier.optimizer), np.float32)

    def test_reconstruction_paths_return_the_model_dtype(self):
        trainer = OrcoDCSFramework(orco_config(dtype=np.float32))
        rows = float64_rows(5, 48)
        assert trainer.reconstruct(rows).dtype == np.float32
        assert trainer.reconstruct_diverse(rows, copies=3).dtype == np.float32
        assert isinstance(trainer.evaluate(rows), float)


class TestFloat32IsFloat64Rounded:
    @pytest.mark.parametrize("decoder_layers", [1, 3])
    def test_orcodcs_initial_parameters(self, decoder_layers):
        config = orco_config(decoder_layers)
        wide = OrcoDCSFramework(config).model
        narrow = OrcoDCSFramework(replace(config, dtype=np.float32)).model
        pairs = list(zip(wide.named_parameters(), narrow.named_parameters()))
        assert len(pairs) == 2 * (decoder_layers + 1)
        for (name, p64), (name32, p32) in pairs:
            assert name == name32
            assert p64.dtype == np.float64 and p32.dtype == np.float32
            np.testing.assert_array_equal(p32.data, p64.data.astype(np.float32))

    def test_dcsnet_initial_parameters(self):
        trainer = DCSNetOnline(image_shape=(3, 8, 8), seed=5)
        rng = np.random.default_rng(5)
        reference = (build_dcsnet_encoder(192, rng).parameters()
                     + build_dcsnet_decoder((3, 8, 8), rng).parameters())
        params = trainer.encoder.parameters() + trainer.decoder.parameters()
        assert len(params) == len(reference)
        for p32, p64 in zip(params, reference):
            assert p32.dtype == np.float32
            np.testing.assert_array_equal(p32.data, p64.data.astype(np.float32))

    def test_classifier_initial_parameters(self):
        classifier = ImageClassifier((1, 8, 8), num_classes=4, seed=2)
        reference = build_simple_cnn((1, 8, 8), 4, np.random.default_rng(2))
        for p32, p64 in zip(classifier.model.parameters(),
                            reference.parameters()):
            assert p32.dtype == np.float32
            np.testing.assert_array_equal(p32.data, p64.data.astype(np.float32))

    @pytest.mark.parametrize("decoder_layers,loss", ORCO_CASES)
    def test_five_rounds_track_float64(self, decoder_layers, loss):
        config = orco_config(decoder_layers, loss)
        rows = float64_rows(5 * config.batch_size, 48, seed=1)
        losses = {}
        for dtype in (np.float64, np.float32):
            trainer = OrcoDCSFramework(replace(config, dtype=dtype))
            losses[dtype] = trainer.fit(rows, epochs=1).losses
        assert len(losses[np.float32]) == 5
        assert not np.array_equal(losses[np.float32], losses[np.float64])
        np.testing.assert_allclose(losses[np.float32], losses[np.float64],
                                   rtol=FLOAT32_RTOL, atol=0)
