"""Unit tests for optimisers and LR schedules."""

import numpy as np
import pytest

from repro import nn
from repro.nn.optim import CHUNK
from repro.nn.tensor import get_default_dtype, set_default_dtype


def quadratic_param(start=5.0):
    return nn.Parameter(np.array([start]))


def quadratic_step(param, optimizer):
    loss = (param * param).sum()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return float(loss.data)


class TestSGD:
    def test_vanilla_step_math(self):
        p = quadratic_param(1.0)
        opt = nn.SGD([p], lr=0.1)
        quadratic_step(p, opt)          # grad = 2 -> p = 1 - 0.2
        assert np.allclose(p.data, [0.8])

    def test_momentum_accumulates(self):
        p = quadratic_param(1.0)
        opt = nn.SGD([p], lr=0.1, momentum=0.9)
        quadratic_step(p, opt)
        first = p.data.copy()
        quadratic_step(p, opt)
        # Second update is bigger than plain SGD would give from first.
        assert abs(1.0 - first[0]) < abs(first[0] - p.data[0]) / 0.9 + 1e-9

    def test_weight_decay_shrinks(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=0.5)
        # Zero-loss gradient: only decay acts.
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            nn.SGD([quadratic_param()], lr=0.1, nesterov=True)

    def test_skips_params_without_grad(self):
        p = quadratic_param(1.0)
        opt = nn.SGD([p], lr=0.1)
        opt.step()
        assert np.allclose(p.data, [1.0])

    def test_converges_on_quadratic(self):
        p = quadratic_param(3.0)
        opt = nn.SGD([p], lr=0.1, momentum=0.5)
        for _ in range(100):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 1e-3


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = quadratic_param(1.0)
        opt = nn.Adam([p], lr=0.01)
        quadratic_step(p, opt)
        # With bias correction the first step is ~lr * sign(grad).
        assert abs((1.0 - p.data[0]) - 0.01) < 1e-6

    def test_converges_on_quadratic(self):
        p = quadratic_param(3.0)
        opt = nn.Adam([p], lr=0.3)
        for _ in range(200):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 1e-2

    def test_weight_decay(self):
        p = nn.Parameter(np.array([1.0]))
        opt = nn.Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0


class ReferenceAdam(nn.Optimizer):
    """The allocating Adam expression the in-place kernel must match."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def run_against_reference(arrays, steps=4, no_grad=(), **kwargs):
    """Step Adam and ReferenceAdam on copies of ``arrays`` with the same
    read-only gradients; return both optimisers."""
    rng = np.random.default_rng(0)
    fast = [nn.Parameter(a.copy(order="K")) for a in arrays]
    slow = [nn.Parameter(a.copy(order="K")) for a in arrays]
    fast_opt = nn.Adam(fast, lr=0.01, **kwargs)
    slow_opt = ReferenceAdam(slow, lr=0.01, **kwargs)
    for _ in range(steps):
        for i, (f, s) in enumerate(zip(fast, slow)):
            if i in no_grad:
                f.grad = s.grad = None
                continue
            grad = rng.standard_normal(f.shape).astype(f.data.dtype)
            grad.setflags(write=False)
            f.grad = s.grad = grad
        fast_opt.step()
        slow_opt.step()
    return fast_opt, slow_opt


def assert_bit_identical(fast_opt, slow_opt):
    for f, s, fm, sm, fv, sv in zip(fast_opt.params, slow_opt.params,
                                    fast_opt._m, slow_opt._m,
                                    fast_opt._v, slow_opt._v):
        assert f.data.dtype == s.data.dtype
        np.testing.assert_array_equal(f.data, s.data)
        np.testing.assert_array_equal(fm, sm)
        np.testing.assert_array_equal(fv, sv)


class TestAdamKernelOracle:
    """The blocked in-place kernel is bit-identical to the allocating
    expression, across block boundaries and awkward layouts."""

    SIZES = (1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)

    def arrays(self, dtype=np.float64):
        rng = np.random.default_rng(1)
        return [rng.standard_normal(n).astype(dtype) for n in self.SIZES]

    def test_block_boundary_sizes(self):
        assert_bit_identical(*run_against_reference(self.arrays()))

    def test_weight_decay(self):
        assert_bit_identical(*run_against_reference(self.arrays(),
                                                    weight_decay=0.05))

    def test_param_without_grad_mid_list(self):
        fast_opt, slow_opt = run_against_reference(self.arrays(), no_grad={1})
        assert_bit_identical(fast_opt, slow_opt)
        np.testing.assert_array_equal(fast_opt.params[1].data,
                                      self.arrays()[1])
        assert not fast_opt._m[1].any()

    def test_fortran_ordered_and_transposed_params(self):
        rng = np.random.default_rng(2)
        fortran = np.asfortranarray(rng.standard_normal((170, 130)))
        transposed = rng.standard_normal((130, 170)).T
        assert not fortran.flags.c_contiguous
        assert not transposed.flags.c_contiguous
        fast_opt, slow_opt = run_against_reference([fortran, transposed],
                                                   weight_decay=0.01)
        assert_bit_identical(fast_opt, slow_opt)
        # The update landed in the parameter's own array.
        assert not np.array_equal(fast_opt.params[0].data, fortran)

    def test_float32_param(self):
        previous = get_default_dtype()
        set_default_dtype(np.float32)
        try:
            param = nn.Parameter(np.arange(3 * CHUNK + 7) % 11 - 5)
        finally:
            set_default_dtype(previous)
        assert param.data.dtype == np.float32
        fast_opt, slow_opt = run_against_reference([param.data, np.ones(5)])
        assert_bit_identical(fast_opt, slow_opt)
        assert fast_opt.params[0].data.dtype == np.float32

    def test_step_updates_param_data_in_place(self):
        param = nn.Parameter(np.ones(CHUNK + 3))
        data = param.data
        opt = nn.Adam([param], lr=0.1)
        param.grad = np.ones(CHUNK + 3)
        opt.step()
        assert param.data is data
        assert (data < 1.0).all()

    def test_step_never_writes_grad(self):
        # Autograd can hand two tensors the same gradient array.
        rng = np.random.default_rng(3)
        shared = rng.standard_normal(CHUNK + 9)
        before = shared.copy()
        a = nn.Parameter(rng.standard_normal(CHUNK + 9))
        b = nn.Parameter(rng.standard_normal(CHUNK + 9))
        a.grad = b.grad = shared
        nn.Adam([a, b], lr=0.01, weight_decay=0.1).step()
        np.testing.assert_array_equal(shared, before)

    def test_fleet_adam_matches_reference_per_slice(self):
        rng = np.random.default_rng(4)
        slices, n = 3, CHUNK + 5
        stacked = nn.Parameter(rng.standard_normal((slices, 1, n)))
        singles = [nn.Parameter(stacked.data[k].copy()) for k in range(slices)]
        fleet = nn.FleetAdam([stacked], lr=0.01, num_slices=slices,
                             weight_decay=0.02)
        refs = [ReferenceAdam([p], lr=0.01, weight_decay=0.02)
                for p in singles]
        for _ in range(3):
            stacked.grad = rng.standard_normal(stacked.shape)
            for k, (p, ref) in enumerate(zip(singles, refs)):
                p.grad = stacked.grad[k]
                ref.step()
            fleet.step()
        for k, (p, ref) in enumerate(zip(singles, refs)):
            np.testing.assert_array_equal(stacked.data[k], p.data)
            np.testing.assert_array_equal(fleet._m[0][k], ref._m[0])
            np.testing.assert_array_equal(fleet._v[0][k], ref._v[0])


def reference_masked_fleet_adam_step(opt, active):
    """Oracle: ``FleetAdam.step(active)`` as the allocating expression
    it used to be (gather, update and scatter the active slices)."""
    idx = np.asarray(active, dtype=np.intp)
    opt._t[idx] += 1
    t = opt._t[idx]
    bias1 = 1.0 - opt.beta1 ** t
    bias2 = 1.0 - opt.beta2 ** t
    for param, m, v in zip(opt.params, opt._m, opt._v):
        if param.grad is None:
            continue
        grad = param.grad[idx]
        if opt.weight_decay:
            grad = grad + opt.weight_decay * param.data[idx]
        m_new = m[idx] * opt.beta1 + (1.0 - opt.beta1) * grad
        v_new = v[idx] * opt.beta2 + (1.0 - opt.beta2) * grad * grad
        m[idx] = m_new
        v[idx] = v_new
        per_slice = t.shape + (1,) * (param.data.ndim - 1)
        m_hat = m_new / bias1.reshape(per_slice)
        v_hat = v_new / bias2.reshape(per_slice)
        param.data[idx] = param.data[idx] \
            - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMaskedFleetAdam:
    """The masked step runs the in-place kernel on gathered rows; it
    must keep every bit of the allocating expression."""

    SLICES = 4

    def _pair(self, weight_decay):
        rng = np.random.default_rng(7)
        shapes = [(self.SLICES, 1, CHUNK + 5), (self.SLICES, 3, 4)]
        pair = []
        for _ in range(2):
            params = [nn.Parameter(np.random.default_rng(k).standard_normal(
                shape)) for k, shape in enumerate(shapes)]
            pair.append(nn.FleetAdam(params, lr=0.01,
                                     num_slices=self.SLICES,
                                     weight_decay=weight_decay))
        return rng, pair

    @pytest.mark.parametrize("weight_decay", [0.0, 0.02])
    def test_matches_the_allocating_expression(self, weight_decay):
        rng, (fleet, reference) = self._pair(weight_decay)
        # A=1, A=K-1 unsorted, a full step between, then A=K-1 again.
        for active in ([2], [3, 0, 1], None, [1, 3, 0], [0]):
            for a, b in zip(fleet.params, reference.params):
                a.grad = rng.standard_normal(a.shape)
                b.grad = a.grad.copy()
            fleet.step(active)
            if active is None:
                reference.step()
            else:
                reference_masked_fleet_adam_step(reference, active)
            np.testing.assert_array_equal(fleet._t, reference._t)
            for a, b, ma, mb, va, vb in zip(fleet.params, reference.params,
                                            fleet._m, reference._m,
                                            fleet._v, reference._v):
                assert_bits_equal(a.data, b.data)
                assert_bits_equal(ma, mb)
                assert_bits_equal(va, vb)

    def test_inactive_slices_untouched(self):
        rng, (fleet, _) = self._pair(0.02)
        before = [p.data.copy() for p in fleet.params]
        for p in fleet.params:
            p.grad = rng.standard_normal(p.shape)
        fleet.step([1, 2])
        assert list(fleet._t) == [0, 1, 1, 0]
        for p, old, m in zip(fleet.params, before, fleet._m):
            assert_bits_equal(p.data[[0, 3]], old[[0, 3]])
            assert not m[[0, 3]].any()
            assert m[[1, 2]].all()


class TestAdamScratch:
    def test_scratch_is_min_of_chunk_and_largest_param(self):
        small = nn.Adam([nn.Parameter(np.zeros(3)),
                         nn.Parameter(np.zeros((4, 50)))])
        large = nn.Adam([nn.Parameter(np.zeros(7)),
                         nn.Parameter(np.zeros(3 * CHUNK + 7))])
        for opt, expected in ((small, 200), (large, CHUNK)):
            (buffers,) = opt._scratch.values()
            assert [b.size for b in buffers] == [expected, expected]

    def test_scratch_takes_each_params_dtype(self):
        opt = nn.Adam([nn.Parameter(np.zeros(9, np.float32)),
                       nn.Parameter(np.zeros(4))])
        assert {dtype: buffers[0].size
                for dtype, buffers in opt._scratch.items()} == {
            np.dtype(np.float32): 9, np.dtype(np.float64): 4}


class TestRMSPropAdaGrad:
    def test_rmsprop_converges(self):
        p = quadratic_param(2.0)
        opt = nn.RMSProp([p], lr=0.05)
        for _ in range(300):
            quadratic_step(p, opt)
        assert abs(p.data[0]) < 0.05

    def test_adagrad_steps_shrink(self):
        p = quadratic_param(5.0)
        opt = nn.AdaGrad([p], lr=1.0)
        quadratic_step(p, opt)
        first_step = abs(5.0 - p.data[0])
        before = p.data[0]
        quadratic_step(p, opt)
        second_step = abs(before - p.data[0])
        assert second_step < first_step


class TestValidation:
    def test_empty_params(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_nonpositive_lr(self):
        with pytest.raises(ValueError):
            nn.Adam([quadratic_param()], lr=0.0)

    def test_make_optimizer(self):
        opt = nn.make_optimizer("sgd", [quadratic_param()], lr=0.1)
        assert isinstance(opt, nn.SGD)
        with pytest.raises(KeyError):
            nn.make_optimizer("lion", [quadratic_param()])


class TestSchedulers:
    def test_step_lr(self):
        # step() is called at the end of each epoch (PyTorch semantics):
        # epochs 0-1 run at the base rate, 2-3 at base*gamma, ...
        opt = nn.SGD([quadratic_param()], lr=1.0)
        sched = nn.StepLR(opt, step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        assert np.allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_exponential_lr(self):
        opt = nn.SGD([quadratic_param()], lr=1.0)
        sched = nn.ExponentialLR(opt, gamma=0.5)
        sched.step()
        sched.step()
        assert abs(opt.lr - 0.25) < 1e-12

    def test_cosine_reaches_min(self):
        opt = nn.SGD([quadratic_param()], lr=1.0)
        sched = nn.CosineAnnealingLR(opt, t_max=10, min_lr=0.1)
        for _ in range(10):
            sched.step()
        assert abs(opt.lr - 0.1) < 1e-9

    def test_cosine_monotone_decreasing(self):
        opt = nn.SGD([quadratic_param()], lr=1.0)
        sched = nn.CosineAnnealingLR(opt, t_max=5)
        lrs = [sched.step() for _ in range(5)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestClipGradNorm:
    def test_scales_down_large_grads(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert abs(norm - 20.0) < 1e-9
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-9

    def test_leaves_small_grads(self):
        p = nn.Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1)
        nn.clip_grad_norm([p], max_norm=10.0)
        assert np.allclose(p.grad, 0.1)
