"""Synthetic-dataset substrate tests."""

import numpy as np
import pytest

from repro.data import (
    TASK_REGISTRY,
    get_task,
    make_graph_task,
    make_image_task,
    make_sequence_task,
)


class TestImageTask:
    def test_shapes_and_labels(self):
        t = make_image_task("t", n_classes=5, n_train=64, n_test=32, shape=(3, 8, 8))
        assert t.x_train.shape == (64, 3, 8, 8)
        assert t.x_test.shape == (32, 3, 8, 8)
        assert t.y_train.min() >= 0 and t.y_train.max() < 5

    def test_deterministic_given_seed(self):
        a = make_image_task("t", seed=7)
        b = make_image_task("t", seed=7)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_test, b.y_test)

    def test_different_seeds_differ(self):
        a = make_image_task("t", seed=1)
        b = make_image_task("t", seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_values_bounded_for_int16(self):
        t = make_image_task("t", noise=5.0)
        assert np.abs(t.x_train).max() <= 4.0

    def test_borderline_fraction_mixes(self):
        clean = make_image_task("t", borderline_fraction=0.0, seed=0)
        mixed = make_image_task("t", borderline_fraction=0.9, seed=0)
        assert not np.array_equal(clean.x_train, mixed.x_train)


class TestSequenceTask:
    def test_shapes(self):
        t = make_sequence_task("t", n_train=32, n_test=16, seq_len=12, vocab=20)
        assert t.x_train.shape == (32, 12)
        assert t.x_train.max() < 20
        assert t.seq_len == 12

    def test_signal_learnable(self):
        """With zero noise, class keywords must appear in sequences."""
        t = make_sequence_task("t", noise=0.0, seed=0)
        assert t.x_train.dtype.kind in "iu"

    def test_deterministic(self):
        a = make_sequence_task("t", seed=3)
        b = make_sequence_task("t", seed=3)
        assert np.array_equal(a.x_test, b.x_test)


class TestGraphTask:
    def test_shapes_and_masks(self):
        t = make_graph_task("g", n_nodes=50, n_classes=3, n_features=8)
        assert t.features.shape == (50, 8)
        assert t.a_hat.shape == (50, 50)
        assert t.train_mask.sum() + t.test_mask.sum() == 50
        assert not np.any(t.train_mask & t.test_mask)

    def test_adjacency_symmetric_normalized(self):
        t = make_graph_task("g", n_nodes=40)
        assert np.allclose(t.a_hat, t.a_hat.T)
        assert np.linalg.eigvalsh(t.a_hat).max() <= 1.0 + 1e-9

    def test_deterministic(self):
        a = make_graph_task("g", seed=5)
        b = make_graph_task("g", seed=5)
        assert np.array_equal(a.a_hat, b.a_hat)


class TestRegistry:
    def test_twelve_tasks_registered(self):
        """Table III evaluates 4 tasks per family, 3 families."""
        assert len(TASK_REGISTRY) == 12

    def test_four_per_family(self):
        families = [spec.family for spec in TASK_REGISTRY.values()]
        assert all(families.count(f) == 4 for f in ("cnn", "bert", "gcn"))

    def test_get_task_builds(self):
        t = get_task("qmnist")
        assert t.n_classes == 10

    def test_unknown_task(self):
        with pytest.raises(KeyError, match="qmnist"):
            get_task("imagenet")

    def test_paper_baselines_recorded(self):
        assert TASK_REGISTRY["cola"].paper_baseline == pytest.approx(0.565)
        assert TASK_REGISTRY["qmnist"].paper_baseline == pytest.approx(1.0)

    def test_difficulty_ordering_in_registry(self):
        """Within each family, paper baselines order the difficulty."""
        tasks = TASK_REGISTRY
        assert tasks["qmnist"].family == tasks["cifar100"].family == "cnn"
        assert tasks["qmnist"].paper_baseline > tasks["cifar100"].paper_baseline
        assert tasks["sst2"].family == tasks["cola"].family == "bert"
        assert tasks["sst2"].paper_baseline > tasks["cola"].paper_baseline
