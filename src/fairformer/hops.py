"""Sensitive-group hop aggregation and per-node token stacks.

The same-group graph connects two nodes exactly when they share the sensitive
value, self-loops included, so its adjacency is two all-ones blocks. That
matrix is never materialized: one application reduces to a per-group row sum,
O(n * d) per hop. In raw mode the sensitive column of hop slice j equals
q^j times the original column (q = size of the sensitive-1 group), which is
what the exact certificate below checks; group-mean mode divides each
application by the group size, making the sensitive column invariant and
keeping magnitudes bounded during training.

Note the algebra: because each group is complete, every hop token for j >= 2
is a scalar multiple of the hop-1 token (raw) or identical to it (group-mean),
the latter up to rounding, as a mean of means is not bit-equal. The hop count
is still exposed as a depth parameter for parity with the adjacency-based
variant, where depth is meaningful. Training runs on all k + 1 tokens;
validation and test scoring use the group-mean tie, running tokens 0 and 1
with multiplicities (1, k) (`HopStack.counts`, see `model.forward`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Graph
from .errors import FairformerError
from .synth import refuse_unfit

_MODES = ("raw", "group-mean")


@dataclass(frozen=True)
class HopStack:
    """Per-node token sequences: tensor[v, j] is the hop-j embedding of node v.

    `counts`, when set, says token j stands for counts[j] equal tokens.
    """

    tensor: np.ndarray  # (n, k + 1, d), or (n, distinct tokens, d) with counts
    counts: np.ndarray | None = None  # (distinct tokens,) multiplicities

    @property
    def d(self) -> int:
        return self.tensor.shape[2]


def build_group_graph(g: Graph) -> np.ndarray:
    """Each node's sensitive group, 0 or 1: the same-group graph is fixed by it."""
    return g.sensitive.astype(np.intp)


def _features_of(h) -> np.ndarray:
    arr = np.asarray(h, dtype=np.float64)
    if arr.ndim != 2:
        raise FairformerError(f"feature matrix must be 2-D, got shape {arr.shape}")
    return arr


def _group_apply(group: np.ndarray, x: np.ndarray, mean: bool) -> np.ndarray:
    sums = np.zeros((2, x.shape[1]))
    sums[0] = x[group == 0].sum(axis=0)
    sums[1] = x[group == 1].sum(axis=0)
    if mean:  # an empty group's sum is 0, so dividing it by 1 keeps it 0
        sums /= np.maximum(np.bincount(group, minlength=2), 1)[:, None]
    return sums[group]


def _hop_stack(x: np.ndarray, k: int, step) -> HopStack:
    """Token 0 is x and token j is step applied to token j - 1, never a matrix power;
    a stack that cannot fit in physical memory is refused, naming k, before allocation."""
    if k < 0:
        raise FairformerError("k must be >= 0")
    n, width = x.shape
    refuse_unfit(8 * n * (k + 1) * width,
                 f"the hop stack of k={k} ({n} nodes x {k + 1} tokens x {width} columns)")
    tensor = np.empty((n, k + 1, width))
    tensor[:, 0] = x
    for j in range(1, k + 1):
        tensor[:, j] = step(tensor[:, j - 1])
    return HopStack(tensor=tensor)


def hop_aggregate(group, h, k: int, normalization: str = "raw") -> HopStack:
    """Stack hop slices over the same-group graph of `group` (each node's 0/1
    sensitive group, see `build_group_graph`): slice 0 is the input itself.

    Each step is a per-group row sum, divided by the group size in group-mean
    mode.
    """
    if normalization not in _MODES:
        raise FairformerError(f"normalization must be one of {_MODES}")
    group = np.asarray(group)
    if group.ndim != 1 or not np.all((group == 0) | (group == 1)):
        raise FairformerError("sensitive groups must be a 1-D array of 0s and 1s")
    group = group.astype(np.intp)
    x = _features_of(h)
    if x.shape[0] != group.size:
        raise FairformerError(f"feature rows {x.shape[0]} do not match {group.size} groups")
    mean = normalization == "group-mean"
    return _hop_stack(x, k, lambda current: _group_apply(group, current, mean))


def hop_aggregate_adjacency(g: Graph, h, k: int) -> HopStack:
    """Hop stack over the graph adjacency instead of the same-group graph.

    Each step is one sparse product with the raw adjacency.
    """
    x = _features_of(h)
    if x.shape[0] != g.n:
        raise FairformerError(f"feature rows {x.shape[0]} do not match graph n={g.n}")
    return _hop_stack(x, k, lambda current: g.adjacency @ current)


@dataclass(frozen=True)
class GroupScalingReport:
    """Exact certificate that raw hop aggregation scales the sensitive column by q^k."""

    q: int
    k_checked: int
    exact_pass: bool  # arbitrary-precision integer recurrence matches q^k * column
    float_pass: bool  # float64 production path matches with zero error
    max_abs_deviation: float

    @property
    def passed(self) -> bool:
        return self.exact_pass and self.float_pass


def _float_or_inf(value: int) -> float:
    """float(value), correctly rounded, or inf past float64's range."""
    try:
        return float(value)
    except OverflowError:
        return np.inf


def group_scaling_report(group, h, k_max: int) -> GroupScalingReport:
    """Verify the q^k sensitive-column identity for k = 1..k_max.

    Two routes: an arbitrary-precision integer recurrence over the implicit
    group adjacency (python ints never overflow, so k_max is honored in full)
    and the float64 production path, which must match exactly as long as
    q^k_max stays inside the 2^53 integer window; past float64's range it fails.
    """
    if k_max < 1:
        raise FairformerError("k_max must be >= 1")
    x = _features_of(h)
    binary = np.flatnonzero(np.all((x == 0.0) | (x == 1.0), axis=0))
    if binary.size == 0:
        raise FairformerError("no binary column found to certify")
    column = x[:, binary[0]]  # certify the first exactly-binary column

    with np.errstate(over="ignore", invalid="ignore"):  # past float64's range: inf, then nan
        stack = hop_aggregate(group, x, k_max, normalization="raw")  # also checks `group`
        groups = np.asarray(group, dtype=np.intp).tolist()
        q = sum(groups)
        powers = np.array([_float_or_inf(q ** k) for k in range(1, k_max + 1)])
        want = np.where(column == 1.0, powers[:, None], 0.0)  # (k_max, n)
        deviations = np.abs(stack.tensor[:, 1:, binary[0]].T - want)
    max_dev = float(deviations.max()) if deviations.size else 0.0

    ints = [int(v) for v in column]
    exact_ok = True
    current = ints
    for k in range(1, k_max + 1):
        sums = [0, 0]
        for grp, value in zip(groups, current):
            sums[grp] += value
        current = [sums[grp] for grp in groups]
        expected = [q ** k * v for v in ints]
        if current != expected:
            exact_ok = False
            break

    return GroupScalingReport(q=q, k_checked=k_max, exact_pass=exact_ok,
                              float_pass=(max_dev == 0.0), max_abs_deviation=max_dev)
