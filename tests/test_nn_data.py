"""Unit tests for datasets, loaders and split utilities."""

import numpy as np
import pytest

from repro import nn


class TestArrayDataset:
    def test_len_and_indexing(self):
        ds = nn.ArrayDataset(np.arange(10), np.arange(10) * 2)
        assert len(ds) == 10
        x, y = ds[3]
        assert x == 3 and y == 6

    def test_single_array_returns_scalar_item(self):
        ds = nn.ArrayDataset(np.arange(5))
        assert ds[2] == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nn.ArrayDataset(np.arange(3), np.arange(4))

    def test_empty_args(self):
        with pytest.raises(ValueError):
            nn.ArrayDataset()


class TestDataLoader:
    def test_batch_count_without_drop(self):
        ds = nn.ArrayDataset(np.arange(10))
        loader = nn.DataLoader(ds, batch_size=3)
        batches = list(loader)
        assert len(batches) == 4
        assert len(batches[-1]) == 1

    def test_drop_last(self):
        ds = nn.ArrayDataset(np.arange(10))
        loader = nn.DataLoader(ds, batch_size=3, drop_last=True)
        batches = list(loader)
        assert len(batches) == 3
        assert all(len(b) == 3 for b in batches)

    def test_covers_all_samples(self):
        ds = nn.ArrayDataset(np.arange(17))
        loader = nn.DataLoader(ds, batch_size=5, shuffle=True,
                               rng=np.random.default_rng(0))
        seen = np.concatenate(list(loader))
        assert sorted(seen.tolist()) == list(range(17))

    def test_shuffle_changes_order(self):
        ds = nn.ArrayDataset(np.arange(32))
        loader = nn.DataLoader(ds, batch_size=32, shuffle=True,
                               rng=np.random.default_rng(0))
        first = list(loader)[0]
        assert not np.array_equal(first, np.arange(32))

    def test_multi_array_batches(self):
        ds = nn.ArrayDataset(np.zeros((8, 3)), np.arange(8))
        xb, yb = next(iter(nn.DataLoader(ds, batch_size=4)))
        assert xb.shape == (4, 3)
        assert yb.shape == (4,)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            nn.DataLoader(nn.ArrayDataset(np.arange(4)), batch_size=0)
