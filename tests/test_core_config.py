"""Unit tests for OrcoDCSConfig."""

import numpy as np
import pytest

from repro.core import OrcoDCSConfig, OrcoDCSFramework
from repro.core.config import LOSSES
from repro.nn import HuberLoss, MSELoss


class TestValidation:
    def test_defaults_valid(self):
        config = OrcoDCSConfig(input_dim=784)
        assert config.latent_dim == 128
        assert config.loss == "huber"

    @pytest.mark.parametrize("kwargs", [
        {"input_dim": 0},
        {"input_dim": 100, "latent_dim": 0},
        {"input_dim": 100, "noise_sigma": -0.1},
        {"input_dim": 100, "decoder_layers": 0},
        {"input_dim": 100, "batch_size": 0},
        {"input_dim": 100, "batch_size": 2.5},
        {"input_dim": 100, "batch_size": float("nan")},
        {"input_dim": 100, "noise_sigma": float("nan")},
        {"input_dim": 100, "noise_sigma": float("inf")},
        {"input_dim": 100, "latent_dim": 2.5},
        {"input_dim": 100, "latent_dim": float("nan")},
        {"input_dim": 24.5},
        {"input_dim": 100, "decoder_layers": 1.5},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OrcoDCSConfig(**kwargs)

    @pytest.mark.parametrize("loss", ["l1", "vector_huber", "bce",
                                      "cross_entropy", "bogus", "Huber",
                                      ""])
    def test_rejects_untrainable_loss_names(self, loss):
        """Only the two losses a framework can train with are accepted;
        the refusal names both, at construction."""
        with pytest.raises(ValueError, match="'huber', 'mse'"):
            OrcoDCSConfig(input_dim=8, loss=loss)

    @pytest.mark.parametrize("loss, cls", [("huber", HuberLoss),
                                           ("mse", MSELoss)])
    def test_loss_table_builds_the_framework_loss(self, loss, cls):
        framework = OrcoDCSFramework(OrcoDCSConfig(input_dim=8,
                                                   latent_dim=2, loss=loss))
        assert sorted(LOSSES) == ["huber", "mse"]
        assert type(framework.loss) is cls

    def test_numpy_integer_batch_size_accepted(self):
        config = OrcoDCSConfig(input_dim=np.int64(24),
                               latent_dim=np.int32(4),
                               decoder_layers=np.int64(3),
                               batch_size=np.int64(8))
        assert config.batch_size == 8 and config.hidden_width == 12

    def test_dtype_defaults_to_float64(self):
        assert OrcoDCSConfig(input_dim=8).dtype == np.dtype(np.float64)

    @pytest.mark.parametrize("dtype,expected", [
        (np.float32, np.float32), ("float32", np.float32),
        (np.dtype("float32"), np.float32), (np.float64, np.float64),
        (float, np.float64),
    ])
    def test_dtype_is_stored_as_numpy_dtype(self, dtype, expected):
        config = OrcoDCSConfig(input_dim=8, dtype=dtype)
        assert config.dtype == np.dtype(expected)
        assert isinstance(config.dtype, np.dtype)

    @pytest.mark.parametrize("dtype", [
        np.float16, "float16", np.int32, "int32", np.longdouble,
        np.complex64, None, "nonsense", 32,
    ])
    def test_dtype_must_be_float32_or_float64(self, dtype):
        with pytest.raises(ValueError):
            OrcoDCSConfig(input_dim=8, dtype=dtype)

    def test_latent_may_exceed_input(self):
        # The paper's Fig. 6 sweeps M=1024 on the 784-dim digits task.
        config = OrcoDCSConfig(input_dim=784, latent_dim=1024)
        assert config.compression_ratio < 1.0


class TestProperties:
    def test_compression_ratio(self):
        config = OrcoDCSConfig(input_dim=784, latent_dim=128)
        assert abs(config.compression_ratio - 784 / 128) < 1e-12

    def test_hidden_width_default(self):
        config = OrcoDCSConfig(input_dim=1000, latent_dim=100,
                               decoder_layers=3)
        assert config.hidden_width == 500
