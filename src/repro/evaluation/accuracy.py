"""Table III — end-to-end inference accuracy vs CPWL granularity.

For every registered stand-in task the harness trains the family's
small model once, then evaluates inference accuracy under

* the INT16 baseline with exact nonlinearities ("Original" column), and
* the full CPWL pipeline at each granularity (0.1 … 1.0 columns),

reporting the deltas exactly like the paper's table.  The reproduced
claims are the *trends*: accuracy declines as granularity grows, harder
tasks degrade more, and GCNs barely move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.granularity import PAPER_GRANULARITIES
from repro.data.registry import TASK_REGISTRY, TaskSpec
from repro.evaluation.reporting import delta_percent, format_table
from repro.nn.executor import CPWLBackend, QuantizedFloatBackend
from repro.nn.models import GCN, SmallResNet, TinyBERT
from repro.nn.training import accuracy, train_classifier, train_gcn


@dataclass
class AccuracyRow:
    """One Table III row: a task's baseline and per-granularity deltas."""

    family: str
    task: str
    paper_dataset: str
    baseline: float
    deltas: Dict[float, float] = field(default_factory=dict)

    def delta_at(self, granularity: float) -> float:
        return self.deltas[granularity]


def _train_for_task(spec: TaskSpec, seed: int):
    """Train the family model for a task; returns (model, eval_fn).

    ``eval_fn(backend) -> float`` measures test accuracy under a given
    inference backend.
    """
    task = spec.build(seed)
    if spec.family == "cnn":
        model = SmallResNet(
            in_channels=task.x_train.shape[1], n_classes=task.n_classes, seed=seed
        )
        train_classifier(
            model, task.x_train, task.y_train, epochs=8, lr=3e-3, seed=seed
        )
        return model, lambda backend: accuracy(
            model.predict(task.x_test, backend), task.y_test
        )
    if spec.family == "bert":
        model = TinyBERT(
            vocab=task.vocab,
            seq_len=task.seq_len,
            n_classes=task.n_classes,
            seed=seed,
        )
        train_classifier(
            model,
            task.x_train,
            task.y_train,
            epochs=10,
            lr=2e-3,
            seed=seed,
            forward=lambda batch: model.forward(batch),
        )
        return model, lambda backend: accuracy(
            model.predict(task.x_test, backend), task.y_test
        )
    if spec.family == "gcn":
        model = GCN(
            task.features.shape[1], hidden=16, n_classes=task.n_classes, seed=seed
        )
        train_gcn(
            model, task.features, task.a_hat, task.labels, task.train_mask,
            epochs=150,
        )
        return model, lambda backend: accuracy(
            model.predict(task.features, task.a_hat, backend)[task.test_mask],
            task.labels[task.test_mask],
        )
    raise ValueError(f"unknown family {spec.family!r}")


def table3_accuracy(
    tasks: Optional[Sequence[str]] = None,
    granularities: Sequence[float] = PAPER_GRANULARITIES,
    seed: int = 0,
) -> List[AccuracyRow]:
    """Run the Table III experiment.

    Parameters
    ----------
    tasks:
        Task names to evaluate (default: the full registry).
    granularities:
        The CPWL granularity sweep (paper default 0.1 … 1.0).
    seed:
        Controls task generation and training determinism.
    """
    names = list(tasks) if tasks is not None else list(TASK_REGISTRY)
    rows: List[AccuracyRow] = []
    for name in names:
        spec = TASK_REGISTRY[name]
        _, evaluate = _train_for_task(spec, seed)
        baseline = evaluate(QuantizedFloatBackend())
        row = AccuracyRow(
            family=spec.family,
            task=name,
            paper_dataset=spec.paper_dataset,
            baseline=baseline,
        )
        for g in granularities:
            row.deltas[g] = evaluate(CPWLBackend(g)) - baseline
        rows.append(row)
    return rows


def format_table3(rows: Sequence[AccuracyRow]) -> str:
    """Paper-style rendering of the accuracy table."""
    if not rows:
        return "(no rows)"
    grans = sorted(rows[0].deltas)
    headers = ["family", "task (stands in for)", "Original"] + [
        str(g) for g in grans
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.family.upper(),
                f"{row.task} ({row.paper_dataset})",
                f"{100 * row.baseline:.1f}%",
            ]
            + [delta_percent(row.baseline + row.deltas[g], row.baseline) for g in grans]
        )
    return format_table(headers, body, title="Table III: accuracy vs granularity")
