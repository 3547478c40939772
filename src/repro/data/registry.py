"""Named stand-in tasks for the paper's benchmark datasets.

Table III evaluates four benchmarks per network family.  Each entry
below maps a paper benchmark to a synthetic task whose *relative
difficulty* mirrors the paper's baseline accuracies (QMNIST ≈ 100% down
to CoLA's 56.5% Matthews-like hardness).  Difficulty is encoded through
noise, class count and signal sparsity — see
:mod:`repro.data.synthetic` for the knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.data.synthetic import (
    GraphTask,
    ImageTask,
    SequenceTask,
    make_graph_task,
    make_image_task,
    make_sequence_task,
)


@dataclass(frozen=True)
class TaskSpec:
    """One registered stand-in task."""

    name: str
    family: str  # 'cnn' | 'bert' | 'gcn'
    paper_dataset: str
    paper_baseline: float  # the Table III "Original" column
    build: Callable[[int], object]  # seed -> task


def _image(name: str, **kwargs) -> Callable[[int], ImageTask]:
    return lambda seed=0: make_image_task(name, seed=seed, **kwargs)


def _sequence(name: str, **kwargs) -> Callable[[int], SequenceTask]:
    return lambda seed=0: make_sequence_task(name, seed=seed, **kwargs)


def _graph(name: str, **kwargs) -> Callable[[int], GraphTask]:
    return lambda seed=0: make_graph_task(name, seed=seed, **kwargs)


TASK_REGISTRY: Dict[str, TaskSpec] = {
    # --- CNN family (Table III rows 1-4) --------------------------------
    "qmnist": TaskSpec(
        "qmnist", "cnn", "QMNIST", 1.000, _image("qmnist", noise=0.25, n_classes=10)
    ),
    "fashion": TaskSpec(
        "fashion",
        "cnn",
        "Fashion-MNIST",
        0.912,
        _image("fashion", noise=0.48, n_classes=10),
    ),
    "cifar10": TaskSpec(
        "cifar10",
        "cnn",
        "CIFAR-10",
        0.962,
        _image("cifar10", noise=0.6, n_classes=10, shape=(3, 8, 8)),
    ),
    "cifar100": TaskSpec(
        "cifar100",
        "cnn",
        "CIFAR-100",
        0.851,
        _image("cifar100", noise=0.5, n_classes=20, shape=(3, 8, 8)),
    ),
    # --- BERT family (GLUE-like) ----------------------------------------
    "sst2": TaskSpec(
        "sst2", "bert", "SST-2", 0.923, _sequence("sst2", noise=0.15)
    ),
    "qnli": TaskSpec(
        "qnli", "bert", "QNLI", 0.907, _sequence("qnli", noise=0.2)
    ),
    "stsb": TaskSpec(
        "stsb",
        "bert",
        "STS-B",
        0.887,
        _sequence("stsb", noise=0.12, n_classes=3),
    ),
    "cola": TaskSpec(
        "cola",
        "bert",
        "CoLA",
        0.565,
        _sequence("cola", noise=0.75, signal_tokens=2),
    ),
    # --- GCN family ------------------------------------------------------
    "reddit": TaskSpec(
        "reddit",
        "gcn",
        "Reddit",
        0.927,
        _graph("reddit", n_nodes=300, p_in=0.09, feature_noise=1.6),
    ),
    "cora": TaskSpec(
        "cora",
        "gcn",
        "CORA",
        0.843,
        _graph("cora", n_nodes=200, n_classes=7, feature_noise=1.1),
    ),
    "pubmed": TaskSpec(
        "pubmed",
        "gcn",
        "Pubmed",
        0.745,
        _graph("pubmed", n_nodes=200, n_classes=3, feature_noise=2.3, p_in=0.05, p_out=0.02),
    ),
    "citeseer": TaskSpec(
        "citeseer",
        "gcn",
        "Citeseer",
        0.646,
        _graph("citeseer", n_nodes=200, n_classes=6, feature_noise=2.9, p_in=0.06),
    ),
}


def get_task(name: str, seed: int = 0):
    """Build a registered stand-in task by name."""
    try:
        spec = TASK_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(TASK_REGISTRY))
        raise KeyError(f"unknown task {name!r}; known: {known}") from None
    return spec.build(seed)
