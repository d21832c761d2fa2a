"""Unit tests for latent Gaussian noise injection (eq. 2)."""

import numpy as np
import pytest

from repro.core import GaussianNoiseInjector
from repro.nn.tensor import Tensor


class TestInjector:
    def test_adds_zero_mean_noise_with_sigma(self):
        injector = GaussianNoiseInjector(0.5, np.random.default_rng(0))
        latent = Tensor(np.zeros((200, 50)))
        noisy = injector(latent)
        delta = noisy.data - latent.data
        assert abs(delta.mean()) < 0.02           # zero mean (eq. 2)
        assert abs(delta.std() - 0.5) < 0.02      # requested sigma

    def test_zero_sigma_passthrough(self):
        injector = GaussianNoiseInjector(0.0)
        latent = Tensor(np.ones((4, 4)))
        assert injector(latent) is latent

    def test_gradient_flows_through_identity(self):
        injector = GaussianNoiseInjector(0.1, np.random.default_rng(0))
        latent = Tensor(np.ones((3, 3)), requires_grad=True)
        injector(latent).sum().backward()
        assert np.allclose(latent.grad, np.ones((3, 3)))

    def test_validation(self):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                GaussianNoiseInjector(sigma)
