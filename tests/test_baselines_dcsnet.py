"""Unit tests for the DCSNet baseline."""

import numpy as np
import pytest

from repro.baselines import (
    DCSNET_LATENT_DIM,
    DCSNetOnline,
    build_dcsnet_decoder,
    build_dcsnet_encoder,
    dcsnet_decoder_flops,
)
from repro.nn import Conv2D
from repro.nn.tensor import Tensor


class TestArchitecture:
    def test_encoder_maps_to_fixed_latent(self):
        encoder = build_dcsnet_encoder(784, np.random.default_rng(0))
        out = encoder(Tensor(np.random.default_rng(1).random((2, 784))))
        assert out.shape == (2, DCSNET_LATENT_DIM)

    def test_decoder_has_four_conv_layers(self):
        decoder = build_dcsnet_decoder((1, 28, 28), np.random.default_rng(0))
        convs = [l for l in decoder.layers if isinstance(l, Conv2D)]
        assert len(convs) == 4

    def test_decoder_output_shape_grayscale(self):
        decoder = build_dcsnet_decoder((1, 28, 28), np.random.default_rng(0))
        out = decoder(Tensor(np.random.default_rng(1).random((2, 1024))))
        assert out.shape == (2, 784)

    def test_decoder_output_shape_color(self):
        decoder = build_dcsnet_decoder((3, 32, 32), np.random.default_rng(0))
        out = decoder(Tensor(np.random.default_rng(1).random((2, 1024))))
        assert out.shape == (2, 3072)

    def test_decoder_output_in_unit_interval(self):
        decoder = build_dcsnet_decoder((1, 28, 28), np.random.default_rng(0))
        out = decoder(Tensor(np.random.default_rng(1).standard_normal((1, 1024))))
        assert out.data.min() >= 0 and out.data.max() <= 1

    def test_decoder_shape_validation(self):
        with pytest.raises(ValueError):
            build_dcsnet_decoder((1, 30, 30))

    def test_flops_positive_and_scale_with_image(self):
        small = dcsnet_decoder_flops((1, 28, 28))
        large = dcsnet_decoder_flops((3, 32, 32))
        assert 0 < small < large


class TestOnlineFramework:
    def test_factories(self):
        digits = DCSNetOnline.for_digits(seed=0)
        assert digits.input_dim == 784
        assert digits.latent_dim == DCSNET_LATENT_DIM

    def test_name_includes_fraction(self):
        assert DCSNetOnline.for_digits(data_fraction=0.3).name == "DCSNet-30%"

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            DCSNetOnline.for_digits(data_fraction=0.0)

    def test_fit_fraction_trains_and_reduces_loss(self):
        framework = DCSNetOnline.for_digits(seed=0, data_fraction=0.5)
        rows = np.random.default_rng(0).random((64, 784))
        history = framework.fit_fraction(rows, epochs=3, batch_size=16)
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss

    def test_fraction_limits_rounds(self):
        full = DCSNetOnline.for_digits(seed=0, data_fraction=1.0)
        half = DCSNetOnline.for_digits(seed=0, data_fraction=0.5)
        rows = np.random.default_rng(0).random((64, 784))
        history_full = full.fit_fraction(rows, epochs=1, batch_size=16)
        history_half = half.fit_fraction(rows, epochs=1, batch_size=16)
        assert len(history_half.rounds) == len(history_full.rounds) // 2

    def test_no_latent_noise(self):
        assert DCSNetOnline.for_digits().noise is None

    def test_reconstruct_shape(self):
        framework = DCSNetOnline.for_digits(seed=0)
        out = framework.reconstruct(np.random.default_rng(0).random((3, 784)))
        assert out.shape == (3, 784)
