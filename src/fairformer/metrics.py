"""Utility and fairness metrics for binary node classification.

Statistical parity difference is the absolute gap between the two sensitive
groups' positive-prediction rates; 0 means perfectly balanced acceptance.
Predicted labels come from argmax with ties broken toward class 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError


def predict_labels(logits: np.ndarray) -> np.ndarray:
    """Argmax over the two logit columns; exact ties go to class 0."""
    logits = np.asarray(logits)
    return (logits[:, 1] > logits[:, 0]).astype(np.int64)


@dataclass(frozen=True)
class GroupRates:
    rate_group0: float
    rate_group1: float
    count_group0: int
    count_group1: int

    @property
    def delta(self) -> float:
        return abs(self.rate_group0 - self.rate_group1)


def statistical_parity(pred, sens) -> GroupRates:
    """Positive-prediction rates per sensitive group.

    Raises when either group is empty: an undefined rate must never silently
    read as perfectly fair.
    """
    pred = np.asarray(pred)
    sens = np.asarray(sens)
    in1 = sens == 1
    n0 = int((~in1).sum())
    n1 = int(in1.sum())
    if n0 == 0 or n1 == 0:
        raise UndefinedMetricError(
            f"statistical parity undefined: group sizes are ({n0}, {n1})")
    return GroupRates(
        rate_group0=float(pred[~in1].mean()),
        rate_group1=float(pred[in1].mean()),
        count_group0=n0,
        count_group1=n1,
    )


def accuracy(pred, labels) -> float:
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    if pred.size == 0:
        raise UndefinedMetricError("accuracy undefined on an empty node set")
    return float((pred == labels).mean())


def f1_score(pred, labels) -> float:
    """Binary F1 for the positive class; 0 when there are no positives anywhere."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    tp = int(np.sum((pred == 1) & (labels == 1)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def auc_score(scores, labels) -> float:
    """Rank-statistic AUC with tied scores counted one half.

    Equivalent to exhaustive positive/negative pair comparison: average ranks
    are assigned to ties, then the Mann-Whitney statistic is normalized.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC undefined: both classes must be present")

    # a tie group of c scores ending at 1-based sorted position e shares rank e - (c - 1) / 2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    rank_sum_pos = float(ranks[labels == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EvalReport:
    """Metrics of one evaluation pass over a node set."""

    accuracy: float
    delta_sp: float
    f1: float
    auc: float


def evaluate(logits, labels, sens) -> EvalReport:
    """Score utility and statistical parity; row i of each argument is the same node."""
    logits = np.asarray(logits, dtype=np.float64)
    pred = predict_labels(logits)
    delta_sp = statistical_parity(pred, sens).delta
    return EvalReport(
        accuracy=accuracy(pred, labels),
        delta_sp=delta_sp,
        f1=f1_score(pred, labels),
        auc=auc_score(logits[:, 1] - logits[:, 0], labels),
    )
