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
is a scalar multiple of the hop-1 token (raw) or identical to it (group-mean).
The hop count is still exposed as a depth parameter for parity with the
adjacency-based variant, where depth is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Graph
from .errors import FairformerError
from .spectral import FusedFeatures

_MODES = ("raw", "group-mean")
_ADJ_MODES = ("raw", "row-mean")


@dataclass(frozen=True)
class SensitiveGroupGraph:
    """Partition of nodes by sensitive value; adjacency is implicit."""

    group_of: np.ndarray  # (n,) int8 in {0, 1}
    group_sizes: tuple  # (m0, m1); m1 is the size of the sensitive-1 group
    includes_self: bool = True

    @property
    def n(self) -> int:
        return self.group_of.shape[0]

    @property
    def q(self) -> int:
        return self.group_sizes[1]


@dataclass(frozen=True)
class HopStack:
    """Per-node token sequences: tensor[v, j] is the hop-j embedding of node v."""

    tensor: np.ndarray  # (n, k + 1, d)
    k: int
    normalization: str
    sensitive_index: int | None = None

    @property
    def n(self) -> int:
        return self.tensor.shape[0]

    @property
    def d(self) -> int:
        return self.tensor.shape[2]


def build_group_graph(g: Graph) -> SensitiveGroupGraph:
    """Partition nodes by their sensitive value."""
    sens = g.sensitive
    group_of = sens.astype(np.int8)
    m1 = int(group_of.sum())
    return SensitiveGroupGraph(group_of=group_of, group_sizes=(g.n - m1, m1))


def _features_of(h):
    if isinstance(h, FusedFeatures):
        return h.matrix, h.sensitive_index
    arr = np.asarray(h, dtype=np.float64)
    if arr.ndim != 2:
        raise FairformerError(f"feature matrix must be 2-D, got shape {arr.shape}")
    return arr, None


def _group_apply(sg: SensitiveGroupGraph, x: np.ndarray, mean: bool) -> np.ndarray:
    mask1 = sg.group_of == 1
    sums = np.zeros((2, x.shape[1]))
    sums[0] = x[~mask1].sum(axis=0)
    sums[1] = x[mask1].sum(axis=0)
    if mean:
        m0, m1 = sg.group_sizes
        if m0:
            sums[0] /= m0
        if m1:
            sums[1] /= m1
    return sums[sg.group_of.astype(np.intp)]


def hop_aggregate(sg: SensitiveGroupGraph, h, k: int, normalization: str = "raw") -> HopStack:
    """Stack hop slices over the same-group graph: slice 0 is the input itself.

    Slices are built iteratively (never through an explicit matrix power);
    each step is a per-group row sum, divided by the group size in group-mean
    mode.
    """
    if k < 0:
        raise FairformerError("k must be >= 0")
    if normalization not in _MODES:
        raise FairformerError(f"normalization must be one of {_MODES}")
    x, sensitive_index = _features_of(h)
    if x.shape[0] != sg.n:
        raise FairformerError(f"feature rows {x.shape[0]} do not match group graph n={sg.n}")

    slices = np.empty((k + 1, x.shape[0], x.shape[1]))
    slices[0] = x
    current = x
    for j in range(1, k + 1):
        current = _group_apply(sg, current, mean=(normalization == "group-mean"))
        slices[j] = current
    return HopStack(tensor=slices.transpose(1, 0, 2).copy(), k=k,
                    normalization=normalization, sensitive_index=sensitive_index)


def hop_aggregate_adjacency(g: Graph, h, k: int, normalization: str = "raw") -> HopStack:
    """Hop stack over the graph adjacency instead of the same-group graph.

    Each slice applies one sparse mat-vec sweep; row-mean divides by the node
    degree (isolated nodes keep zero rows).
    """
    if k < 0:
        raise FairformerError("k must be >= 0")
    if normalization not in _ADJ_MODES:
        raise FairformerError(f"normalization must be one of {_ADJ_MODES}")
    x, sensitive_index = _features_of(h)
    if x.shape[0] != g.n:
        raise FairformerError(f"feature rows {x.shape[0]} do not match graph n={g.n}")

    inv_degree = None
    if normalization == "row-mean":
        degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
        inv_degree = 1.0 / np.maximum(degrees, 1.0)

    slices = np.empty((k + 1, x.shape[0], x.shape[1]))
    slices[0] = x
    current = x
    for j in range(1, k + 1):
        current = g.adjacency @ current
        if inv_degree is not None:
            current = current * inv_degree[:, None]
        slices[j] = current
    return HopStack(tensor=slices.transpose(1, 0, 2).copy(), k=k,
                    normalization=normalization, sensitive_index=sensitive_index)


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

    def lines(self):
        yield f"q={self.q}"
        yield f"k_checked={self.k_checked}"
        yield f"exact_pass={int(self.exact_pass)}"
        yield f"float_pass={int(self.float_pass)}"
        yield f"max_abs_deviation={self.max_abs_deviation!r}"


def group_scaling_report(sg: SensitiveGroupGraph, h, k_max: int) -> GroupScalingReport:
    """Verify the q^k sensitive-column identity for k = 1..k_max.

    Two routes: an arbitrary-precision integer recurrence over the implicit
    group adjacency (python ints never overflow, so k_max is honored in full)
    and the float64 production path, which must match exactly as long as
    q^k_max stays inside the 2^53 integer window.
    """
    if k_max < 1:
        raise FairformerError("k_max must be >= 1")
    x, sensitive_index = _features_of(h)
    col_idx = sensitive_index
    if col_idx is None:
        # fall back to the first exactly-binary column
        for j in range(x.shape[1]):
            if np.all(np.isin(x[:, j], (0.0, 1.0))):
                col_idx = j
                break
        if col_idx is None:
            raise FairformerError("no binary column found to certify")
    column = x[:, col_idx]
    if not np.all(column == np.round(column)):
        raise FairformerError("sensitive column must be integer-valued in raw mode")

    ints = [int(v) for v in column]
    groups = sg.group_of.tolist()
    q = sg.q

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

    stack = hop_aggregate(sg, x, k_max, normalization="raw")
    float_col = stack.tensor[:, :, col_idx]
    deviations = []
    for k in range(1, k_max + 1):
        expected = np.array([float(q ** k * v) for v in ints])
        deviations.append(np.max(np.abs(float_col[:, k] - expected)) if len(ints) else 0.0)
    max_dev = float(max(deviations)) if deviations else 0.0

    return GroupScalingReport(q=q, k_checked=k_max, exact_pass=exact_ok,
                              float_pass=(max_dev == 0.0), max_abs_deviation=max_dev)
