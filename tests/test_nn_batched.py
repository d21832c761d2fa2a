"""Unit tests for the stacked (fleet) nn primitives."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    BatchedDense,
    Conv2D,
    Dense,
    FleetAdam,
    FleetIncompatibilityError,
    HuberLoss,
    MSELoss,
    Optimizer,
    ReLU,
    Sequential,
    Sigmoid,
    Tensor,
    fleet_optimizer_from,
    fleet_optimizer_to,
    run_stack,
    stack_sequential,
    unstack_sequential,
)
from repro.nn.batched import _gather_rows, check_fleet_optimizers
from repro.nn.losses import CrossEntropyLoss


def make_models(K=3, din=6, dout=4, seed=0):
    rng = np.random.default_rng(seed)
    return [Sequential(Dense(din, dout, rng=rng), Sigmoid()) for _ in range(K)]


class TestBatchedDense:
    def test_forward_matches_slices(self):
        rng = np.random.default_rng(0)
        layers = [Dense(5, 3, rng=rng) for _ in range(4)]
        batched = BatchedDense.from_layers(layers)
        x = rng.random((4, 7, 5))
        out = batched(Tensor(x))
        assert out.shape == (4, 7, 3)
        for k, layer in enumerate(layers):
            expected = layer(Tensor(x[k])).data
            np.testing.assert_array_equal(out.data[k], expected)

    def test_backward_matches_slices(self):
        rng = np.random.default_rng(1)
        layers = [Dense(5, 3, rng=rng) for _ in range(3)]
        batched = BatchedDense.from_layers(layers)
        x = rng.random((3, 6, 5))
        batched(Tensor(x)).sum().backward()
        for k, layer in enumerate(layers):
            layer(Tensor(x[k])).sum().backward()
            np.testing.assert_allclose(batched.weight.grad[k],
                                       layer.weight.grad, atol=1e-12)
            np.testing.assert_allclose(batched.bias.grad[k, 0],
                                       layer.bias.grad, atol=1e-12)

    def test_active_subset_gathers_and_scatters(self):
        rng = np.random.default_rng(2)
        layers = [Dense(4, 2, rng=rng) for _ in range(5)]
        batched = BatchedDense.from_layers(layers)
        x = rng.random((2, 3, 4))
        out = batched(Tensor(x), active=[1, 3])
        np.testing.assert_array_equal(out.data[0], layers[1](Tensor(x[0])).data)
        np.testing.assert_array_equal(out.data[1], layers[3](Tensor(x[1])).data)
        out.sum().backward()
        # Inactive slices get zero gradient; active slices get the usual one.
        assert np.all(batched.weight.grad[[0, 2, 4]] == 0)
        assert np.any(batched.weight.grad[1] != 0)
        assert np.any(batched.weight.grad[3] != 0)

    def test_roundtrip_to_layers(self):
        layers = [Dense(3, 2, rng=np.random.default_rng(k)) for k in range(3)]
        batched = BatchedDense.from_layers(layers)
        batched.weight.data += 1.0
        batched.to_layers(layers)
        for k, layer in enumerate(layers):
            np.testing.assert_array_equal(layer.weight.data,
                                          batched.weight.data[k])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FleetIncompatibilityError):
            BatchedDense.from_layers([Dense(3, 2), Dense(3, 4)])

    @pytest.mark.parametrize("layers, match", [
        ([], "empty layer list"),
        ([Dense(3, 2), Sigmoid()], "expected Dense, got Sigmoid"),
        ([Dense(3, 2), Dense(3, 2, bias=False)], "bias presence differs"),
    ], ids=["empty", "not-dense", "bias-presence"])
    def test_unstackable_layers_rejected(self, layers, match):
        with pytest.raises(FleetIncompatibilityError, match=match):
            BatchedDense.from_layers(layers)

    def test_bias_free_stack_matches_slices(self):
        rng = np.random.default_rng(4)
        layers = [Dense(4, 3, bias=False, rng=rng) for _ in range(3)]
        batched = BatchedDense.from_layers(layers)
        assert batched.bias is None
        x = rng.random((3, 2, 4))
        out = batched(Tensor(x))
        for k, layer in enumerate(layers):
            np.testing.assert_array_equal(out.data[k],
                                          layer(Tensor(x[k])).data)
        batched.weight.data += 1.0
        batched.to_layers(layers)
        assert all(layer.bias is None for layer in layers)
        np.testing.assert_array_equal(layers[2].weight.data,
                                      batched.weight.data[2])

    def test_write_back_needs_one_layer_per_slice(self):
        layers = [Dense(3, 2), Dense(3, 2)]
        batched = BatchedDense.from_layers(layers)
        with pytest.raises(ValueError, match="expected 2 layers, got 1"):
            batched.to_layers(layers[:1])

    def test_repr(self):
        batched = BatchedDense.from_layers([Dense(3, 2), Dense(3, 2)])
        assert repr(batched) == "BatchedDense(slices=2, 3, 2)"


class TestStackSequential:
    def test_stack_and_run_matches_models(self):
        models = make_models()
        stacked = stack_sequential(models)
        x = np.random.default_rng(3).random((3, 5, 6))
        out = run_stack(stacked, Tensor(x))
        for k, model in enumerate(models):
            np.testing.assert_array_equal(out.data[k], model(Tensor(x[k])).data)

    def test_unstack_writes_back(self):
        models = make_models()
        stacked = stack_sequential(models)
        stacked[0].weight.data *= 2.0
        unstack_sequential(stacked, models)
        np.testing.assert_array_equal(models[1][0].weight.data,
                                      stacked[0].weight.data[1])

    def test_depth_mismatch_rejected(self):
        with pytest.raises(FleetIncompatibilityError):
            stack_sequential([Sequential(Dense(3, 2)),
                              Sequential(Dense(3, 2), Sigmoid())])

    def test_layer_class_mismatch_rejected(self):
        with pytest.raises(FleetIncompatibilityError):
            stack_sequential([Sequential(Dense(3, 2), Sigmoid()),
                              Sequential(Dense(3, 2), ReLU())])

    def test_empty_model_list_rejected(self):
        with pytest.raises(FleetIncompatibilityError, match="empty model"):
            stack_sequential([])

    def test_stateful_layers_rejected(self):
        # A convolution carries weights but has no slice-exact stacked form.
        with pytest.raises(FleetIncompatibilityError):
            stack_sequential([Sequential(Dense(3, 2), Conv2D(1, 1, 1)),
                              Sequential(Dense(3, 2), Conv2D(1, 1, 1))])


class TestRowGather:
    def test_backward_matches_add_at_bitwise(self):
        """``full[index] += grad`` over unique rows gives the bits
        ``np.add.at`` gives, ``-0.0`` turned to ``0.0`` included."""
        rng = np.random.default_rng(0)
        stacked = Tensor(rng.standard_normal((5, 3, 4)), requires_grad=True)
        index = np.array([3, 0, 4])
        grad = rng.standard_normal((3, 3, 4))
        grad[0, 0] = -0.0
        grad[2, 1, 2] = 0.0
        out = _gather_rows(stacked, index)
        np.testing.assert_array_equal(out.data, stacked.data[index])
        out.backward(grad)
        expected = np.zeros_like(stacked.data)
        np.add.at(expected, index, grad)
        assert np.array_equal(stacked.grad.view(np.uint64),
                              expected.view(np.uint64))
        zeros = stacked.grad[stacked.grad == 0.0]
        assert zeros.size == 2 * 12 + 5 and not np.signbit(zeros).any()

    def test_active_forward_grads_match_getitem_path(self):
        rng = np.random.default_rng(1)
        batched = BatchedDense.from_layers(
            [Dense(4, 3, rng=rng) for _ in range(5)])
        x = rng.standard_normal((2, 6, 4))
        active = [4, 1]
        out = batched(Tensor(x), active=active)
        out.backward(np.ones_like(out.data))
        weight = Tensor(batched.weight.data, requires_grad=True)
        bias = Tensor(batched.bias.data, requires_grad=True)
        reference = Tensor(x).matmul(weight[active]) + bias[active]
        reference.backward(np.ones_like(reference.data))
        np.testing.assert_array_equal(out.data, reference.data)
        np.testing.assert_array_equal(batched.weight.grad, weight.grad)
        np.testing.assert_array_equal(batched.bias.grad, bias.grad)

    @pytest.mark.parametrize("active,error", [
        ([1, 1], ValueError),                  # duplicate
        ([2, 0, 2], ValueError),               # duplicate, unsorted
        ([-1], IndexError),                    # negative
        ([0, 3], IndexError),                  # out of range
        (np.array([True, False]), ValueError),  # wrong-length mask
        ([], ValueError),                      # empty
        ([0.5], ValueError),                   # not an integer
    ])
    def test_bad_active_slices_raise(self, active, error):
        """``active=[1, 1]`` used to gather slice 1 twice, and its row
        gather keeps only one of the two gradients; ``[-1]`` wrapped
        round to slice 2."""
        rng = np.random.default_rng(2)
        batched = BatchedDense.from_layers(
            [Dense(4, 3, rng=rng) for _ in range(3)])
        x = Tensor(rng.standard_normal((max(len(active), 1), 2, 4)))
        with pytest.raises(error):
            batched(x, active=active)
        batched.weight.grad = np.ones_like(batched.weight.data)
        batched.bias.grad = np.ones_like(batched.bias.data)
        before = batched.weight.data.copy()
        with pytest.raises(error):
            FleetAdam(batched.parameters(), num_slices=3).step(active)
        np.testing.assert_array_equal(batched.weight.data, before)

    def test_boolean_mask_selects_slices(self):
        rng = np.random.default_rng(3)
        batched = BatchedDense.from_layers(
            [Dense(4, 3, rng=rng) for _ in range(3)])
        x = Tensor(rng.standard_normal((2, 2, 4)))
        np.testing.assert_array_equal(
            batched(x, active=np.array([True, False, True])).data,
            batched(x, active=[0, 2]).data)


class TestFleetOptimizers:
    def _stacked_problem(self, K=3, seed=0):
        rng = np.random.default_rng(seed)
        singles = [Dense(4, 3, rng=rng) for _ in range(K)]
        batched = BatchedDense.from_layers(singles)
        x = rng.random((K, 5, 4))
        target = rng.random((K, 5, 3))
        return singles, batched, x, target

    def _train(self, module, opt, x, target, batched, steps, active=None):
        for _ in range(steps):
            if batched:
                out = module(Tensor(x), active=active)
                rows = active if active is not None else range(x.shape[0])
                diff = out - Tensor(target[list(rows)] if active is not None
                                    else target)
            else:
                out = module(Tensor(x))
                diff = out - Tensor(target)
            loss = (diff * diff).sum()
            opt.zero_grad()
            loss.backward()
            opt.step(active) if batched else opt.step()

    def test_full_step_matches_singles(self):
        singles, batched, x, target = self._stacked_problem()
        fleet_opt = FleetAdam(batched.parameters(), lr=0.01, num_slices=3)
        self._train(batched, fleet_opt, x, target, batched=True, steps=4)
        for k, layer in enumerate(singles):
            opt = Adam(layer.parameters(), lr=0.01)
            self._train(layer, opt, x[k], target[k], batched=False, steps=4)
            np.testing.assert_allclose(batched.weight.data[k],
                                       layer.weight.data, atol=1e-12)

    def test_masked_adam_keeps_per_slice_state(self):
        singles, batched, x, target = self._stacked_problem(seed=1)
        fleet_opt = FleetAdam(batched.parameters(), lr=0.01, num_slices=3)
        # Slice 1 trains twice, slices 0/2 once: per-slice t must diverge.
        self._train(batched, fleet_opt, x, target, batched=True, steps=1)
        self._train(batched, fleet_opt, x[[1]], target, batched=True,
                    steps=1, active=[1])
        assert list(fleet_opt._t) == [1, 2, 1]
        # Slice 0 must equal a standalone model trained a single step.
        layer = singles[0]
        opt = Adam(layer.parameters(), lr=0.01)
        self._train(layer, opt, x[0], target[0], batched=False, steps=1)
        np.testing.assert_allclose(batched.weight.data[0], layer.weight.data,
                                   atol=1e-12)

    def test_state_roundtrip(self):
        singles, batched, x, target = self._stacked_problem(seed=2)
        single_opts = [Adam(layer.parameters(), lr=0.02) for layer in singles]
        for layer, opt in zip(singles, single_opts):
            self._train(layer, opt, x[0], target[0], batched=False, steps=2)
        fleet_opt = fleet_optimizer_from(single_opts, batched.parameters())
        assert list(fleet_opt._t) == [2, 2, 2]
        np.testing.assert_array_equal(fleet_opt._m[0][1], single_opts[1]._m[0])
        np.testing.assert_array_equal(fleet_opt._v[0][2], single_opts[2]._v[0])
        fleet_opt._m[0][1] += 0.5
        fleet_opt._v[0][2] += 0.25
        fleet_opt._t[1] = 7
        fleet_optimizer_to(fleet_opt, single_opts)
        np.testing.assert_array_equal(single_opts[1]._m[0], fleet_opt._m[0][1])
        np.testing.assert_array_equal(single_opts[2]._v[0], fleet_opt._v[0][2])
        assert [opt._t for opt in single_opts] == [2, 7, 2]

    @pytest.mark.parametrize("num_slices, match", [
        (0, "num_slices must be positive"),
        (2, "leading dim 3 != num_slices 2"),
    ], ids=["no-slices", "leading-dim"])
    def test_fleet_adam_validation(self, num_slices, match):
        _, batched, _, _ = self._stacked_problem()
        with pytest.raises(ValueError, match=match):
            FleetAdam(batched.parameters(), lr=0.01, num_slices=num_slices)

    def test_parameters_without_gradient_are_left_alone(self):
        _, batched, x, target = self._stacked_problem(seed=3)
        fleet_opt = FleetAdam(batched.parameters(), lr=0.01, num_slices=3)
        # Only the weight took part in the loss: the bias has no grad.
        out = Tensor(x).matmul(batched.weight)
        diff = out - Tensor(target)
        (diff * diff).sum().backward()
        bias_before = batched.bias.data.copy()
        weight_before = batched.weight.data.copy()
        fleet_opt.step()
        assert batched.bias.grad is None
        np.testing.assert_array_equal(batched.bias.data, bias_before)
        assert np.all(batched.weight.data != weight_before)

    def test_no_optimisers_rejected(self):
        with pytest.raises(FleetIncompatibilityError, match="no optimisers"):
            check_fleet_optimizers([])

    def test_mixed_optimizers_rejected(self):
        # Only Adam has a fleet form.
        class Momentum(Optimizer):
            def step(self):
                pass

        layers = [Dense(2, 2), Dense(2, 2)]
        batched = BatchedDense.from_layers(layers)
        with pytest.raises(FleetIncompatibilityError,
                           match="no fleet equivalent for optimiser Momentum"):
            fleet_optimizer_from([Adam(layers[0].parameters(), lr=0.01),
                                  Momentum(layers[1].parameters(), lr=0.01)],
                                 batched.parameters())

    def test_mixed_hyperparameters_rejected(self):
        # Adam optimisers that differ in their learning rate must not
        # stack silently: slice 1 would be retrained with slice 0's.
        layers = [Dense(2, 2), Dense(2, 2)]
        batched = BatchedDense.from_layers(layers)
        odd = Adam(layers[1].parameters(), lr=0.02)
        with pytest.raises(FleetIncompatibilityError,
                           match="setting 'lr' differs"):
            fleet_optimizer_from([Adam(layers[0].parameters(), lr=0.01),
                                  odd], batched.parameters())


class TestPerClusterLosses:
    # Predictions in [0, 3) against targets in [0, 1) put residuals on
    # both sides of the Huber threshold (1.0).
    @pytest.mark.parametrize("loss", [MSELoss(), HuberLoss()])
    def test_matches_per_slice_forward(self, loss):
        rng = np.random.default_rng(0)
        prediction = Tensor(3.0 * rng.random((4, 6, 5)), requires_grad=True)
        target = rng.random((4, 6, 5))
        per = loss.per_cluster(prediction, target)
        assert per.shape == (4,)
        for k in range(4):
            single = loss(Tensor(prediction.data[k]), target[k]).item()
            assert abs(per.data[k] - single) < 1e-12

    @pytest.mark.parametrize("loss", [MSELoss(), HuberLoss()])
    def test_fused_gradient_matches_per_slice(self, loss):
        rng = np.random.default_rng(1)
        stacked = 3.0 * rng.random((3, 4, 5))
        prediction = Tensor(stacked, requires_grad=True)
        loss.per_cluster(prediction, np.zeros((3, 4, 5))).sum().backward()
        for k in range(3):
            single = Tensor(stacked[k], requires_grad=True)
            loss(single, np.zeros((4, 5))).backward()
            np.testing.assert_allclose(prediction.grad[k], single.grad,
                                       atol=1e-15)

    @pytest.mark.parametrize("loss", [MSELoss(), HuberLoss()])
    def test_fused_gradient_reaches_a_trainable_target(self, loss):
        rng = np.random.default_rng(2)
        stacked_pred, stacked_target = rng.random((2, 3, 4, 5))
        stacked_pred = 3.0 * stacked_pred
        prediction = Tensor(stacked_pred, requires_grad=True)
        target = Tensor(stacked_target, requires_grad=True)
        loss.per_cluster(prediction, target).sum().backward()
        for k in range(3):
            single_pred = Tensor(stacked_pred[k], requires_grad=True)
            single_target = Tensor(stacked_target[k], requires_grad=True)
            loss(single_pred, single_target).backward()
            np.testing.assert_allclose(target.grad[k], single_target.grad,
                                       atol=1e-15)
        np.testing.assert_array_equal(target.grad, -prediction.grad)

    def test_unsupported_loss_raises(self):
        with pytest.raises(NotImplementedError):
            CrossEntropyLoss().per_cluster(Tensor(np.zeros((2, 3, 4))),
                                           np.zeros((2, 3, 4)))
