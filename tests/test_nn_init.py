"""Weight initialisation schemes, as layers select them by name."""

import math

import numpy as np
import pytest

from repro import nn
from repro.nn.init import _fan_in_out, get_initializer

FAN_IN, FAN_OUT = 200, 100

#: scheme -> (mean, std, bound) of a (FAN_IN, FAN_OUT) dense weight;
#: ``bound`` is the half-width of a uniform scheme's support.
_XAVIER_STD = math.sqrt(2.0 / (FAN_IN + FAN_OUT))
_HE_STD = math.sqrt(2.0 / FAN_IN)
EXPECTED = {
    "xavier_uniform": (0.0, _XAVIER_STD, _XAVIER_STD * math.sqrt(3.0)),
    "he_uniform": (0.0, _HE_STD, _HE_STD * math.sqrt(3.0)),
}


class TestSchemes:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_dense_weight_statistics(self, name):
        mean, std, bound = EXPECTED[name]
        layer = nn.Dense(FAN_IN, FAN_OUT, weight_init=name,
                         rng=np.random.default_rng(0))
        weight = layer.weight.data
        assert weight.shape == (FAN_IN, FAN_OUT)
        assert weight.mean() == pytest.approx(mean, abs=0.1 * std + 1e-12)
        assert weight.std() == pytest.approx(std, rel=0.03)
        assert np.abs(weight).max() <= bound
        # Biases start at zero whatever the weight scheme.
        assert np.all(layer.bias.data == 0.0)

    def test_same_generator_same_weights(self):
        first = nn.Dense(8, 4, rng=np.random.default_rng(3))
        second = nn.Dense(8, 4, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(first.weight.data, second.weight.data)

    def test_conv_weights_use_receptive_field_fans(self):
        conv = nn.Conv2D(3, 64, 3, weight_init="he_uniform",
                         rng=np.random.default_rng(0))
        # fan_in = in_channels * kh * kw = 27.
        assert conv.weight.data.std() == pytest.approx(math.sqrt(2.0 / 27),
                                                       rel=0.05)

    def test_unknown_scheme_lists_choices(self):
        with pytest.raises(KeyError, match="he_uniform"):
            get_initializer("glorot")
        with pytest.raises(KeyError, match="unknown initializer"):
            nn.Dense(4, 2, weight_init="glorot")


class TestFans:
    @pytest.mark.parametrize("shape, fans", [
        ((7,), (7, 7)),
        ((5, 3), (5, 3)),
        ((16, 4, 3, 3), (36, 144)),
    ], ids=["vector", "dense", "conv"])
    def test_fan_in_out(self, shape, fans):
        assert _fan_in_out(shape) == fans

    def test_unsupported_rank_rejected(self):
        with pytest.raises(ValueError, match="unsupported weight shape"):
            _fan_in_out((2, 3, 4))
