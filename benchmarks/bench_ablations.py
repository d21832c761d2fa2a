"""Ablation benches for the design choices the paper calls out.

Each ablation isolates one OrcoDCS design decision and measures its
effect on a small shared workload:

* Huber loss (eq. 4) vs plain MSE — robustness to outlier pixels;
* latent Gaussian noise (eq. 2) on vs off — generalisation;
* hybrid CS aggregation vs raw tree aggregation — intra-cluster bytes;
* asymmetric (1-layer encoder) vs symmetric (deep encoder) split —
  aggregator-side compute under the timing model.
"""

import numpy as np

from repro.core import OrcoDCSConfig, OrcoDCSFramework, dense_stack_flops
from repro.datasets import flatten_images, generate_digits
from repro.wsn import (
    WSNetwork,
    build_aggregation_tree,
    select_aggregator,
    simulate_hybrid_aggregation,
    simulate_raw_aggregation,
)


def _digit_rows(count=220, seed=0):
    images, _ = generate_digits(count, np.random.default_rng(seed))
    return flatten_images(images)


def _train(config, rows, epochs=8):
    framework = OrcoDCSFramework(config)
    history = framework.fit_config(rows, epochs=epochs,
                                   val_rows=rows[-32:])
    return framework, history


class TestLossAblation:
    def test_huber_vs_mse(self, run_once):
        rows = _digit_rows()
        # Inject a few corrupted (outlier) rows — Huber's target regime.
        corrupted = rows.copy()
        corrupted[:8] = np.clip(corrupted[:8] + 3.0, 0, 1)

        def ablation():
            _, huber_hist = _train(
                OrcoDCSConfig(input_dim=784, latent_dim=64, loss="huber",
                              seed=0), corrupted)
            _, mse_hist = _train(
                OrcoDCSConfig(input_dim=784, latent_dim=64, loss="mse",
                              seed=0), corrupted)
            return huber_hist, mse_hist

        huber_hist, mse_hist = run_once(ablation)
        # Both must train; Huber should not blow up on the outliers.
        assert huber_hist.epochs[-1].train_loss < huber_hist.epochs[0].train_loss
        assert mse_hist.epochs[-1].train_loss < mse_hist.epochs[0].train_loss
        print(f"\nhuber final={huber_hist.epochs[-1].train_loss:.5f} "
              f"mse final={mse_hist.epochs[-1].train_loss:.5f}")


class TestNoiseAblation:
    def test_noise_on_vs_off_validation_loss(self, run_once):
        rows = _digit_rows()

        def ablation():
            _, with_noise = _train(
                OrcoDCSConfig(input_dim=784, latent_dim=64, noise_sigma=0.1,
                              seed=0), rows)
            _, without = _train(
                OrcoDCSConfig(input_dim=784, latent_dim=64, noise_sigma=0.0,
                              seed=0), rows)
            return with_noise, without

        with_noise, without = run_once(ablation)
        noisy_val = with_noise.epochs[-1].val_loss
        clean_val = without.epochs[-1].val_loss
        print(f"\nval loss with noise={noisy_val:.5f} without={clean_val:.5f}")
        # Moderate noise must not catastrophically hurt generalisation
        # (the paper argues it helps robustness).
        assert noisy_val < 3.0 * clean_val


class TestAggregationAblation:
    def test_hybrid_vs_raw_intra_cluster_bytes(self, benchmark):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 120, (128, 2))

        def build_and_measure():
            net_a = WSNetwork(positions, comm_range_m=25.0,
                              battery_capacity_j=1e5)
            net_a.set_aggregator(select_aggregator(positions))
            tree_a = build_aggregation_tree(net_a)
            raw = simulate_raw_aggregation(net_a, tree_a)
            net_b = WSNetwork(positions, comm_range_m=25.0,
                              battery_capacity_j=1e5)
            net_b.set_aggregator(select_aggregator(positions))
            tree_b = build_aggregation_tree(net_b)
            hybrid = simulate_hybrid_aggregation(net_b, tree_b, latent_dim=16)
            return raw, hybrid

        raw, hybrid = benchmark(build_and_measure)
        print(f"\nraw={raw.wire_bytes}B hybrid={hybrid.wire_bytes}B "
              f"saving={raw.wire_bytes / hybrid.wire_bytes:.2f}x")
        assert hybrid.wire_bytes < raw.wire_bytes
        assert hybrid.slots == raw.slots   # same TDMA schedule


class TestAsymmetryAblation:
    def test_shallow_encoder_minimises_aggregator_time(self, benchmark):
        """Asymmetric split vs a symmetric deep-encoder alternative."""
        from repro.core import OrchestrationTimingModel

        model = OrchestrationTimingModel()
        n, m, hidden, batch = 784, 128, 456, 32
        asym_encoder_flops = dense_stack_flops([n, m])
        deep_encoder_flops = dense_stack_flops([n, hidden, hidden, m])
        decoder_flops = dense_stack_flops([m, hidden, n])

        def compare():
            asym = model.training_round(batch, n, m, asym_encoder_flops,
                                        decoder_flops)
            sym = model.training_round(batch, n, m, deep_encoder_flops,
                                       decoder_flops)
            return asym, sym

        asym, sym = benchmark(compare)
        print(f"\nasymmetric round={asym.total_s:.3f}s "
              f"symmetric round={sym.total_s:.3f}s")
        # Moving encoder depth onto the IoT-class aggregator dominates
        # the round time — the reason OrcoDCS keeps the encoder shallow.
        assert sym.total_s > 2.0 * asym.total_s
        assert sym.aggregator_compute_s > 5.0 * asym.aggregator_compute_s
