"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import nn
from repro.datasets import denormalize_rounds, normalized_rounds
from repro.nn.losses import HUBER_DELTA
from repro.nn.tensor import Tensor
from repro.wsn.aggregation import AggregationTree, hybrid_encode

finite_floats = st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False)


def small_arrays(max_side=6):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return hnp.arrays(np.float64, shapes, elements=finite_floats)


@st.composite
def random_trees(draw, max_nodes=20):
    """Random rooted trees as parent maps (node 0 is the root)."""
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    parent = {0: None}
    for node in range(1, count):
        parent[node] = draw(st.integers(min_value=0, max_value=node - 1))
    return AggregationTree(parent)


class TestAutogradProperties:
    @given(small_arrays(), small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_addition_gradient_is_ones(self, a, b):
        if a.shape != b.shape:
            return
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        assert np.allclose(ta.grad, 1.0)
        assert np.allclose(tb.grad, 1.0)

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_sum_of_parts_matches_total(self, a):
        t = Tensor(a)
        assert np.allclose(t.sum(axis=0).data.sum(), a.sum())

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_relu_output_nonnegative_grad_binary(self, a):
        t = Tensor(a, requires_grad=True)
        out = t.relu()
        assert (out.data >= 0).all()
        out.sum().backward()
        assert set(np.unique(t.grad)).issubset({0.0, 1.0})

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_matmul_grad_shapes(self, m, k, n):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
        b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
        a.matmul(b).sum().backward()
        assert a.grad.shape == (m, k)
        assert b.grad.shape == (k, n)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_numeric_gradient_of_sigmoid_square(self, a):
        t = Tensor(a, requires_grad=True)
        s = t.sigmoid()
        (s * s).sum().backward()
        sig = 1 / (1 + np.exp(-a))
        expected = 2 * sig * sig * (1 - sig)
        assert np.allclose(t.grad, expected, atol=1e-10)


class TestLossProperties:
    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_huber_between_zero_and_half_mse(self, a):
        target = np.zeros_like(a)
        huber = nn.HuberLoss()(Tensor(a), target).item()
        half_mse = 0.5 * float(np.mean(a ** 2))
        scaled_l1 = HUBER_DELTA * float(np.mean(np.abs(a)))
        assert huber >= 0
        assert huber <= half_mse + 1e-9
        assert huber <= scaled_l1 + 1e-9

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_losses_zero_iff_exact(self, a):
        for loss in (nn.MSELoss(), nn.HuberLoss()):
            assert loss(Tensor(a), a).item() == 0.0

    @given(st.integers(2, 16), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_cross_entropy_lower_bounded_by_zero(self, classes, batch):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((batch, classes)))
        targets = rng.integers(0, classes, batch)
        assert nn.CrossEntropyLoss()(logits, targets).item() >= 0


class TestNormalizationProperties:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                      elements=finite_floats))
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_inverse(self, rounds):
        scaled, low, high = normalized_rounds(rounds)
        assert scaled.min() >= -1e-12
        assert scaled.max() <= 1 + 1e-12
        assert np.allclose(denormalize_rounds(scaled, low, high), rounds,
                           atol=1e-8)


class TestTreeProperties:
    @given(random_trees())
    @settings(max_examples=50, deadline=None)
    def test_subtree_sizes_sum_over_children(self, tree):
        for node in tree.nodes:
            expected = 1 + sum(tree.subtree_size(c)
                               for c in tree.children[node])
            assert tree.subtree_size(node) == expected
        assert tree.subtree_size(tree.root) == len(tree.nodes)

    @given(random_trees())
    @settings(max_examples=50, deadline=None)
    def test_post_order_is_valid_aggregation_order(self, tree):
        order = tree.post_order()
        assert sorted(order) == sorted(tree.nodes)
        position = {n: i for i, n in enumerate(order)}
        for node in tree.nodes:
            for child in tree.children[node]:
                assert position[child] < position[node]

    @given(random_trees())
    @settings(max_examples=50, deadline=None)
    def test_tdma_each_non_root_exactly_once(self, tree):
        slots = tree.tdma_slots()
        sent = [n for slot in slots for n in slot]
        assert sorted(sent) == sorted(n for n in tree.nodes if n != tree.root)
        for slot in slots:
            receivers = [tree.parent[n] for n in slot]
            assert len(receivers) == len(set(receivers))

    @given(random_trees(), st.integers(1, 8), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_hybrid_encode_equals_centralized(self, tree, latent_dim, seed):
        rng = np.random.default_rng(seed)
        ids = sorted(tree.nodes)
        readings = {nid: float(rng.standard_normal()) for nid in ids}
        index = {nid: i for i, nid in enumerate(ids)}
        weight = rng.standard_normal((latent_dim, len(ids)))
        latent, sent = hybrid_encode(tree, readings, weight, index)
        stacked = np.array([readings[nid] for nid in ids])
        assert np.allclose(latent, weight @ stacked, atol=1e-9)
        # Nobody ever transmits more than M scalars (the hybrid cap).
        assert all(count <= latent_dim for count in sent.values())
