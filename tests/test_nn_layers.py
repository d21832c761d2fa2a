"""Unit tests for Module machinery and individual layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


class TestModuleMachinery:
    def test_parameter_registration(self):
        dense = nn.Dense(4, 3)
        names = [name for name, _ in dense.named_parameters()]
        assert set(names) == {"weight", "bias"}

    def test_nested_registration(self):
        model = nn.Sequential(nn.Dense(4, 3), nn.ReLU(), nn.Dense(3, 2))
        assert len(model.parameters()) == 4
        names = [name for name, _ in model.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dense(2, 2), nn.Sequential(nn.Sigmoid()))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(Tensor(np.zeros(1)))


class TestSequential:
    def test_applies_in_order(self):
        # ReLU then sigmoid; the other order would give sigmoid(-1) first.
        model = nn.Sequential(nn.ReLU(), nn.Sigmoid())
        out = model(Tensor(np.array([-1.0, 2.0])))
        assert np.allclose(out.data, [0.5, 1 / (1 + np.exp(-2.0))])

    def test_len_and_getitem(self):
        model = nn.Sequential(nn.Sigmoid(), nn.ReLU())
        assert len(model) == 2
        assert isinstance(model[1], nn.ReLU)
        assert len(model.parameters()) == 0


class TestDense:
    def test_output_shape(self):
        dense = nn.Dense(5, 3, rng=np.random.default_rng(0))
        assert dense(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_no_bias(self):
        dense = nn.Dense(5, 3, bias=False)
        assert dense.bias is None
        assert len(dense.parameters()) == 1

    def test_linear_map_matches_numpy(self):
        dense = nn.Dense(3, 2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, 3))
        expected = x @ dense.weight.data + dense.bias.data
        assert np.allclose(dense(Tensor(x)).data, expected)

    def test_deterministic_with_seeded_rng(self):
        a = nn.Dense(4, 4, rng=np.random.default_rng(42))
        b = nn.Dense(4, 4, rng=np.random.default_rng(42))
        assert np.allclose(a.weight.data, b.weight.data)


class TestConvLayers:
    def test_conv2d_shape(self):
        conv = nn.Conv2D(3, 8, 3, padding=1, rng=np.random.default_rng(0))
        assert conv(Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 8, 8)

    def test_pool_layers(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        assert nn.MaxPool2D(2)(x).shape == (1, 2, 4, 4)
        assert nn.MaxPool2D(4)(x).shape == (1, 2, 2, 2)

    def test_upsample_layer(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        assert nn.Upsample2D(2)(x).shape == (1, 2, 8, 8)


class TestShapeLayers:
    def test_flatten(self):
        assert nn.Flatten()(Tensor(np.zeros((3, 2, 4)))).shape == (3, 8)

    def test_reshape(self):
        layer = nn.Reshape((2, 2))
        assert layer(Tensor(np.zeros((5, 4)))).shape == (5, 2, 2)


class TestActivationLayers:
    @pytest.mark.parametrize("layer,fn", [
        (nn.ReLU, lambda x: np.maximum(x, 0)),
        (nn.Sigmoid, lambda x: 1 / (1 + np.exp(-x))),
    ])
    def test_matches_numpy(self, layer, fn):
        layer = layer()
        x = np.linspace(-2, 2, 7)
        assert np.allclose(layer(Tensor(x)).data, fn(x))
