"""Unit tests for the follow-up CNN classifier."""

import numpy as np
import pytest

from repro.apps import ImageClassifier, build_simple_cnn
from repro.nn import Conv2D
from repro.nn.tensor import Tensor


def easy_task(count=120, size=8, seed=0):
    """Two trivially separable classes: bright vs dark images."""
    rng = np.random.default_rng(seed)
    labels = np.arange(count) % 2
    images = np.zeros((count, size, size))
    images[labels == 0] = rng.random((int(count / 2), size, size)) * 0.3
    images[labels == 1] = 0.7 + rng.random((count - int(count / 2), size, size)) * 0.3
    return images, labels


class TestArchitecture:
    def test_two_conv_layers(self):
        model = build_simple_cnn((1, 28, 28), 10, np.random.default_rng(0))
        convs = [l for l in model.layers if isinstance(l, Conv2D)]
        assert len(convs) == 2

    def test_logit_shape(self):
        model = build_simple_cnn((3, 32, 32), 43, np.random.default_rng(0))
        out = model(Tensor(np.random.default_rng(1).random((2, 3, 32, 32))))
        assert out.shape == (2, 43)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            build_simple_cnn((1, 30, 30), 10)


class TestInputHandling:
    def test_flat_rows_grayscale(self):
        clf = ImageClassifier((1, 8, 8), 2)
        nchw = clf._to_nchw(np.zeros((4, 64)))
        assert nchw.shape == (4, 1, 8, 8)

    def test_flat_rows_color(self):
        clf = ImageClassifier((3, 8, 8), 2)
        nchw = clf._to_nchw(np.zeros((4, 192)))
        assert nchw.shape == (4, 3, 8, 8)

    def test_hw_images(self):
        clf = ImageClassifier((1, 8, 8), 2)
        assert clf._to_nchw(np.zeros((4, 8, 8))).shape == (4, 1, 8, 8)

    def test_nhwc_images(self):
        clf = ImageClassifier((3, 8, 8), 2)
        assert clf._to_nchw(np.zeros((4, 8, 8, 3))).shape == (4, 3, 8, 8)

    def test_nchw_passthrough(self):
        clf = ImageClassifier((3, 8, 8), 2)
        assert clf._to_nchw(np.zeros((4, 3, 8, 8))).shape == (4, 3, 8, 8)

    def test_unknown_rank_rejected(self):
        clf = ImageClassifier((1, 8, 8), 2)
        with pytest.raises(ValueError):
            clf._to_nchw(np.zeros((2, 2, 2, 2, 2)))


class TestTraining:
    def test_learns_easy_task(self):
        images, labels = easy_task()
        clf = ImageClassifier((1, 8, 8), 2, learning_rate=5e-3, seed=0)
        history = clf.fit(images[:80], labels[:80], images[80:], labels[80:],
                          epochs=4)
        assert history.final_accuracy > 0.9

    def test_history_fields_aligned(self):
        images, labels = easy_task(40)
        clf = ImageClassifier((1, 8, 8), 2, seed=0)
        history = clf.fit(images[:30], labels[:30], images[30:], labels[30:],
                          epochs=3)
        assert len(history.epochs) == len(history.test_accuracy) \
            == len(history.test_loss) == len(history.train_loss) == 3

    def test_eval_epochs_subset(self):
        images, labels = easy_task(40)
        clf = ImageClassifier((1, 8, 8), 2, seed=0)
        history = clf.fit(images[:30], labels[:30], images[30:], labels[30:],
                          epochs=4, eval_epochs=[2, 4])
        assert history.epochs == [2, 4]

    def test_evaluate_returns_accuracy_and_loss(self):
        images, labels = easy_task(30)
        clf = ImageClassifier((1, 8, 8), 2, seed=0)
        accuracy, loss = clf.evaluate(images, labels)
        assert 0.0 <= accuracy <= 1.0
        assert loss > 0

    def test_epochs_validation(self):
        images, labels = easy_task(10)
        clf = ImageClassifier((1, 8, 8), 2)
        with pytest.raises(ValueError):
            clf.fit(images, labels, images, labels, epochs=0)

    def test_history_empty_guard(self):
        from repro.apps import ClassifierHistory
        with pytest.raises(ValueError):
            _ = ClassifierHistory().final_accuracy

    def test_best_accuracy_empty_guard(self):
        from repro.apps import ClassifierHistory
        with pytest.raises(ValueError, match="history is empty"):
            _ = ClassifierHistory().best_accuracy

    def test_best_accuracy_is_the_peak_not_the_last(self):
        from repro.apps import ClassifierHistory
        history = ClassifierHistory(test_accuracy=[0.5, 0.9, 0.7])
        assert history.best_accuracy == 0.9
        assert history.final_accuracy == 0.7
