"""Unit tests for the asymmetric autoencoder."""

import numpy as np

from repro.core import (
    AsymmetricAutoencoder,
    OrcoDCSConfig,
    build_decoder,
    build_encoder,
)
from repro.nn import Dense, Sigmoid
from repro.nn.tensor import Tensor


def config(**kwargs):
    defaults = dict(input_dim=40, latent_dim=8, seed=0)
    defaults.update(kwargs)
    return OrcoDCSConfig(**defaults)


class TestArchitecture:
    def test_encoder_is_single_dense_plus_activation(self):
        encoder = build_encoder(config())
        assert len(encoder) == 2
        assert isinstance(encoder[0], Dense)
        assert isinstance(encoder[1], Sigmoid)
        assert encoder[0].in_features == 40
        assert encoder[0].out_features == 8

    def test_single_layer_decoder(self):
        decoder = build_decoder(config(decoder_layers=1))
        dense_layers = [l for l in decoder.layers if isinstance(l, Dense)]
        assert len(dense_layers) == 1
        assert isinstance(decoder.layers[-1], Sigmoid)

    def test_deep_decoder_layer_count(self):
        for depth in (2, 3, 5):
            decoder = build_decoder(config(decoder_layers=depth))
            dense_layers = [l for l in decoder.layers if isinstance(l, Dense)]
            assert len(dense_layers) == depth

    def test_deep_decoder_uses_hidden_width(self):
        cfg = config(decoder_layers=3)
        # max(latent_dim, input_dim // 2) = max(8, 20)
        assert cfg.hidden_width == 20
        decoder = build_decoder(cfg)
        dense_layers = [l for l in decoder.layers if isinstance(l, Dense)]
        assert dense_layers[0].out_features == 20
        assert dense_layers[-1].in_features == 20
        assert dense_layers[-1].out_features == 40

    def test_deterministic_init_with_seed(self):
        a = AsymmetricAutoencoder(config())
        b = AsymmetricAutoencoder(config())
        x = np.random.default_rng(0).random((2, 40))
        assert np.allclose(a.reconstruct(x), b.reconstruct(x))

    def test_asymmetry_deep_decoder_bigger(self):
        model = AsymmetricAutoencoder(config(decoder_layers=5))
        enc_params = sum(p.size for p in model.encoder_parameters())
        dec_params = sum(p.size for p in model.decoder_parameters())
        assert dec_params > 3 * enc_params


class TestForward:
    def test_shapes(self):
        model = AsymmetricAutoencoder(config())
        x = Tensor(np.random.default_rng(0).random((5, 40)))
        latent = model.encode(x)
        assert latent.shape == (5, 8)
        recon = model.decode(latent)
        assert recon.shape == (5, 40)

    def test_outputs_in_unit_interval(self):
        model = AsymmetricAutoencoder(config())
        recon = model.reconstruct(np.random.default_rng(0).random((4, 40)))
        assert recon.min() >= 0.0 and recon.max() <= 1.0

    def test_training_forward_is_noisy(self):
        model = AsymmetricAutoencoder(config(noise_sigma=0.5))
        model.train()
        x = Tensor(np.random.default_rng(0).random((3, 40)))
        a = model(x).data
        b = model(x).data
        assert not np.allclose(a, b)

    def test_reconstruct_is_deterministic(self):
        model = AsymmetricAutoencoder(config(noise_sigma=0.5))
        x = np.random.default_rng(0).random((3, 40))
        assert np.allclose(model.reconstruct(x), model.reconstruct(x))

    def test_reconstruct_restores_training_mode(self):
        model = AsymmetricAutoencoder(config())
        model.train()
        model.reconstruct(np.zeros((1, 40)))
        assert model.training


class TestEncoderWeights:
    def test_orientation_matches_eq1(self):
        model = AsymmetricAutoencoder(config())
        weight_e, bias_e = model.encoder_weights()
        assert weight_e.shape == (8, 40)    # We in R^{M x N}
        x = np.random.default_rng(0).random(40)
        manual = 1.0 / (1.0 + np.exp(-(weight_e @ x + bias_e)))
        latent = model.encode(Tensor(x[None, :])).data[0]
        assert np.allclose(manual, latent, atol=1e-12)

    def test_device_column(self):
        model = AsymmetricAutoencoder(config())
        weight_e, _ = model.encoder_weights()
        assert np.allclose(model.device_column(7), weight_e[:, 7])

    def test_columns_are_copies(self):
        model = AsymmetricAutoencoder(config())
        column = model.device_column(0)
        column[:] = 99.0
        assert not np.allclose(model.device_column(0), 99.0)
