"""Unit tests for Adam and its slice-stacked fleet form."""

import numpy as np
import pytest

from repro import nn
from repro.nn.optim import BETA1, BETA2, BLOCK_BYTES, EPS

#: Elements per Adam block: 32K in float64, 64K in float32.
BLOCK64 = BLOCK_BYTES // 8
BLOCK32 = BLOCK_BYTES // 4


def quadratic_param(start=5.0):
    return nn.Parameter(np.array([start]))


def quadratic_step(param, optimizer):
    loss = (param * param).sum()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return float(loss.data)


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

    def test_zero_gradient_leaves_params_unchanged(self):
        # No weight decay: without a gradient nothing pulls the weights.
        p = nn.Parameter(np.array([1.0, -2.0, 0.0]))
        opt = nn.Adam([p], lr=0.1)
        for _ in range(3):
            p.grad = np.zeros(3)
            opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 0.0])


class ReferenceAdam(nn.Optimizer):
    """The allocating Adam expression the in-place kernel must match."""

    def __init__(self, params, lr=1e-3):
        super().__init__(params, lr)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - BETA1 ** self._t
        bias2 = 1.0 - BETA2 ** self._t
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def run_against_reference(arrays, steps=4, no_grad=()):
    """Step Adam and ReferenceAdam on copies of ``arrays`` with the same
    read-only gradients; return both optimisers."""
    rng = np.random.default_rng(0)
    fast = [nn.Parameter(a.copy(order="K")) for a in arrays]
    slow = [nn.Parameter(a.copy(order="K")) for a in arrays]
    fast_opt = nn.Adam(fast, lr=0.01)
    slow_opt = ReferenceAdam(slow, lr=0.01)
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

    def arrays(self, dtype=np.float64):
        block = BLOCK_BYTES // np.dtype(dtype).itemsize
        rng = np.random.default_rng(1)
        return [rng.standard_normal(n).astype(dtype)
                for n in (1, block, block + 1, 3 * block + 7)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["float64", "float32"])
    def test_block_boundary_sizes(self, dtype):
        assert_bit_identical(*run_against_reference(self.arrays(dtype)))

    def test_zero_gradient_leaves_params_unchanged(self):
        arrays = self.arrays()
        params = [nn.Parameter(a.copy()) for a in arrays]
        opt = nn.Adam(params, lr=0.01)
        for _ in range(3):
            for p in params:
                p.grad = np.zeros_like(p.data)
            opt.step()
        for p, a, m, v in zip(params, arrays, opt._m, opt._v):
            assert_bits_equal(p.data, a)
            assert not m.any() and not v.any()

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
        fast_opt, slow_opt = run_against_reference([fortran, transposed])
        assert_bit_identical(fast_opt, slow_opt)
        # The update landed in the parameter's own array.
        assert not np.array_equal(fast_opt.params[0].data, fortran)

    def test_float32_param(self):
        param = nn.Parameter(
            (np.arange(3 * BLOCK32 + 7) % 11 - 5).astype(np.float32))
        assert param.data.dtype == np.float32
        fast_opt, slow_opt = run_against_reference([param.data, np.ones(5)])
        assert_bit_identical(fast_opt, slow_opt)
        assert fast_opt.params[0].data.dtype == np.float32

    def test_step_updates_param_data_in_place(self):
        param = nn.Parameter(np.ones(BLOCK64 + 3))
        data = param.data
        opt = nn.Adam([param], lr=0.1)
        param.grad = np.ones(BLOCK64 + 3)
        opt.step()
        assert param.data is data
        assert (data < 1.0).all()

    def test_step_never_writes_grad(self):
        # Autograd can hand two tensors the same gradient array.
        rng = np.random.default_rng(3)
        shared = rng.standard_normal(BLOCK64 + 9)
        before = shared.copy()
        a = nn.Parameter(rng.standard_normal(BLOCK64 + 9))
        b = nn.Parameter(rng.standard_normal(BLOCK64 + 9))
        a.grad = b.grad = shared
        nn.Adam([a, b], lr=0.01).step()
        np.testing.assert_array_equal(shared, before)

    def test_fleet_adam_matches_reference_per_slice(self):
        rng = np.random.default_rng(4)
        slices, n = 3, BLOCK64 + 5
        stacked = nn.Parameter(rng.standard_normal((slices, 1, n)))
        singles = [nn.Parameter(stacked.data[k].copy()) for k in range(slices)]
        fleet = nn.FleetAdam([stacked], lr=0.01, num_slices=slices)
        refs = [ReferenceAdam([p], lr=0.01) for p in singles]
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
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for param, m, v in zip(opt.params, opt._m, opt._v):
        if param.grad is None:
            continue
        grad = param.grad[idx]
        m_new = m[idx] * BETA1 + (1.0 - BETA1) * grad
        v_new = v[idx] * BETA2 + (1.0 - BETA2) * grad * grad
        m[idx] = m_new
        v[idx] = v_new
        per_slice = t.shape + (1,) * (param.data.ndim - 1)
        m_hat = m_new / bias1.reshape(per_slice)
        v_hat = v_new / bias2.reshape(per_slice)
        param.data[idx] = param.data[idx] \
            - opt.lr * m_hat / (np.sqrt(v_hat) + EPS)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMaskedFleetAdam:
    """The masked step runs the in-place kernel on gathered rows; it
    must keep every bit of the allocating expression."""

    SLICES = 4

    def _pair(self):
        rng = np.random.default_rng(7)
        shapes = [(self.SLICES, 1, BLOCK64 + 5), (self.SLICES, 3, 4)]
        pair = []
        for _ in range(2):
            params = [nn.Parameter(np.random.default_rng(k).standard_normal(
                shape)) for k, shape in enumerate(shapes)]
            pair.append(nn.FleetAdam(params, lr=0.01,
                                     num_slices=self.SLICES))
        return rng, pair

    def test_matches_the_allocating_expression(self):
        rng, (fleet, reference) = self._pair()
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
        rng, (fleet, _) = self._pair()
        before = [p.data.copy() for p in fleet.params]
        for p in fleet.params:
            p.grad = rng.standard_normal(p.shape)
        fleet.step([1, 2])
        assert list(fleet._t) == [0, 1, 1, 0]
        for p, old, m in zip(fleet.params, before, fleet._m):
            assert_bits_equal(p.data[[0, 3]], old[[0, 3]])
            assert not m[[0, 3]].any()
            assert m[[1, 2]].all()


    def test_zero_gradient_leaves_active_slices_unchanged(self):
        _, (fleet, _) = self._pair()
        before = [p.data.copy() for p in fleet.params]
        for p in fleet.params:
            p.grad = np.zeros_like(p.data)
        fleet.step([1, 2])
        assert list(fleet._t) == [0, 1, 1, 0]
        for p, old in zip(fleet.params, before):
            assert_bits_equal(p.data, old)


class TestAdamScratch:
    def test_scratch_is_min_of_chunk_and_largest_param(self):
        """Blocks are 256 KiB per array: 32K float64 or 64K float32
        elements."""
        small = nn.Adam([nn.Parameter(np.zeros(3)),
                         nn.Parameter(np.zeros((4, 50)))])
        large = nn.Adam([nn.Parameter(np.zeros(7)),
                         nn.Parameter(np.zeros(3 * BLOCK64 + 7))])
        large32 = nn.Adam([nn.Parameter(np.zeros(3 * BLOCK32 + 7,
                                                 np.float32))])
        for opt, expected in ((small, 200), (large, 32 * 1024),
                              (large32, 64 * 1024)):
            (buffers,) = opt._scratch.values()
            assert [b.size for b in buffers] == [expected, expected]

    def test_scratch_takes_each_params_dtype(self):
        opt = nn.Adam([nn.Parameter(np.zeros(9, np.float32)),
                       nn.Parameter(np.zeros(4))])
        assert {dtype: buffers[0].size
                for dtype, buffers in opt._scratch.items()} == {
            np.dtype(np.float32): 9, np.dtype(np.float64): 4}


class TestValidation:
    def test_empty_params(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_nonpositive_lr(self):
        with pytest.raises(ValueError):
            nn.Adam([quadratic_param()], lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_settings_that_make_the_first_step_nan_rejected(self, lr):
        """Each of these used to be accepted, and one step on a zero
        gradient wrote NaN into every weight, of a model and of a fleet."""
        with pytest.raises(ValueError):
            nn.Adam([quadratic_param()], lr=lr)
        with pytest.raises(ValueError):
            nn.FleetAdam([nn.Parameter(np.zeros((2, 3)))], num_slices=2,
                         lr=lr)
