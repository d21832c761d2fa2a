"""Dataset and batching utilities.

Everything yields plain numpy arrays; models wrap batches in Tensors at
the call site so datasets stay framework-agnostic (the WSN simulator also
consumes them directly).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np


class ArrayDataset:
    """In-memory dataset over one or more aligned arrays.

    Parameters
    ----------
    arrays:
        Arrays whose first axis is the sample axis; all must agree on
        length.  Typically ``(images, labels)`` or just ``(signals,)``.
    """

    def __init__(self, *arrays: np.ndarray):
        if not arrays:
            raise ValueError("ArrayDataset needs at least one array")
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1:
            raise ValueError(f"arrays disagree on length: {sorted(lengths)}")
        self.arrays = tuple(np.asarray(a) for a in arrays)

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, index):
        items = tuple(a[index] for a in self.arrays)
        return items[0] if len(items) == 1 else items


class DataLoader:
    """Mini-batch iterator over an :class:`ArrayDataset`.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Number of samples per batch.
    shuffle:
        Reshuffle sample order at the start of every iteration.
    drop_last:
        Drop the final short batch instead of yielding it.
    rng:
        Generator used for shuffling (reproducible pipelines should pass
        their own).
    """

    def __init__(self, dataset: ArrayDataset, batch_size: int = 32,
                 shuffle: bool = False, drop_last: bool = False,
                 rng: Optional[np.random.Generator] = None):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.rng = rng or np.random.default_rng()

    def __iter__(self) -> Iterator:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self.rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            if self.drop_last and len(batch) < self.batch_size:
                return
            yield self.dataset[batch]
