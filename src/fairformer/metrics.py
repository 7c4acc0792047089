"""Utility and fairness metrics for binary node classification.

Statistical parity difference is the absolute gap between the two sensitive
groups' positive-prediction rates; 0 means perfectly balanced acceptance.
Predicted labels come from argmax with ties broken toward class 0.
"""

from __future__ import annotations

import json
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


def statistical_parity(pred, sens, mask=None) -> GroupRates:
    """Positive-prediction rates per sensitive group over the masked nodes.

    Raises when either group is empty: an undefined rate must never silently
    read as perfectly fair.
    """
    pred = np.asarray(pred)
    sens = np.asarray(sens)
    if mask is not None:
        idx = np.asarray(mask)
        pred = pred[idx]
        sens = sens[idx]
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


def accuracy(pred, labels, mask=None) -> float:
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    if mask is not None:
        idx = np.asarray(mask)
        pred = pred[idx]
        labels = labels[idx]
    if pred.size == 0:
        raise UndefinedMetricError("accuracy undefined on an empty node set")
    return float((pred == labels).mean())


def f1_score(pred, labels, mask=None) -> float:
    """Binary F1 for the positive class; 0 when there are no positives anywhere."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    if mask is not None:
        idx = np.asarray(mask)
        pred = pred[idx]
        labels = labels[idx]
    tp = int(np.sum((pred == 1) & (labels == 1)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def auc_score(scores, labels, mask=None) -> float:
    """Rank-statistic AUC with tied scores counted one half.

    Equivalent to exhaustive positive/negative pair comparison: average ranks
    are assigned to ties, then the Mann-Whitney statistic is normalized.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if mask is not None:
        idx = np.asarray(mask)
        scores = scores[idx]
        labels = labels[idx]
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
    rate_group0: float
    rate_group1: float
    count_group0: int
    count_group1: int
    node_count: int

    def to_text(self) -> str:
        lines = [
            f"nodes={self.node_count}",
            f"accuracy={self.accuracy!r}",
            f"accuracy_pct={self.accuracy * 100:.2f}",
            f"delta_sp={self.delta_sp!r}",
            f"delta_sp_pct={self.delta_sp * 100:.2f}",
            f"f1={self.f1!r}",
            f"f1_pct={self.f1 * 100:.2f}",
            f"auc={self.auc!r}",
            f"auc_pct={self.auc * 100:.2f}",
            f"rate_group0={self.rate_group0!r}",
            f"rate_group1={self.rate_group1!r}",
            f"count_group0={self.count_group0}",
            f"count_group1={self.count_group1}",
        ]
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def evaluate(logits, labels, sens, mask) -> EvalReport:
    """Score utility and statistical parity for the masked nodes."""
    logits = np.asarray(logits, dtype=np.float64)
    idx = np.asarray(mask)
    pred = predict_labels(logits)
    scores = logits[:, 1] - logits[:, 0]
    rates = statistical_parity(pred, sens, idx)
    return EvalReport(
        accuracy=accuracy(pred, labels, idx),
        delta_sp=rates.delta,
        f1=f1_score(pred, labels, idx),
        auc=auc_score(scores, labels, idx),
        rate_group0=rates.rate_group0,
        rate_group1=rates.rate_group1,
        count_group0=rates.count_group0,
        count_group1=rates.count_group1,
        node_count=int(np.asarray(idx).size),
    )
