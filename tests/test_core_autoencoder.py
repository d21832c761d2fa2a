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
        for pa, pb in zip(a.parameters(), b.parameters(), strict=True):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_asymmetry_deep_decoder_bigger(self):
        model = AsymmetricAutoencoder(config(decoder_layers=5))
        enc_params = sum(p.data.size for p in model.encoder.parameters())
        dec_params = sum(p.data.size for p in model.decoder.parameters())
        assert dec_params > 3 * enc_params


class TestForward:
    def test_shapes(self):
        model = AsymmetricAutoencoder(config())
        x = Tensor(np.random.default_rng(0).random((5, 40)))
        latent = model.encoder(x)
        assert latent.shape == (5, 8)
        recon = model.decode(latent)
        assert recon.shape == (5, 40)

    def test_outputs_in_unit_interval(self):
        model = AsymmetricAutoencoder(config())
        x = Tensor(np.random.default_rng(0).random((4, 40)))
        recon = model.decode(model.encoder(x)).data
        assert recon.min() >= 0.0 and recon.max() <= 1.0


class TestEncoderWeights:
    def test_orientation_matches_eq1(self):
        model = AsymmetricAutoencoder(config())
        weight_e, bias_e = model.encoder_weights()
        assert weight_e.shape == (8, 40)    # We in R^{M x N}
        x = np.random.default_rng(0).random(40)
        manual = 1.0 / (1.0 + np.exp(-(weight_e @ x + bias_e)))
        latent = model.encoder(Tensor(x[None, :])).data[0]
        assert np.allclose(manual, latent, atol=1e-12)
