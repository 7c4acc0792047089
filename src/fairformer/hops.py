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
the latter up to rounding, as a mean of means is not bit-equal. So a group-mean
stack of k >= 2 hops is built as tokens 0 and 1 with multiplicities (1, k)
(`HopStack.counts`, see `model.forward`), the one stack training and scoring
run: its size does not grow with k, which only weighs the group token by log k.
Raw stacks, which serve `verify`'s q^k check, and adjacency stacks keep every
token.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    counts: tuple | None = None  # (distinct tokens,) integer multiplicities

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


# The largest |entry| a training hop of `width` columns may hold is this over
# sqrt(width). The first layer norm squares the projected tokens: a hop row x
# projects to D entries each at most |x|_2 * |W[:, i]|_2 + |b_i| (Cauchy-Schwarz),
# with |x|_2 <= sqrt(width) * max|x|, and the variance sums D squares of centred
# entries, each at most (2 * max|y|)^2. So it stays finite while
# 2 * sqrt(D) * |W[:, i]|_2 * |x|_2 < sqrt(float max). The 2^20 margin covers a
# hidden width D up to 2^16 with weight columns grown to 2^11 times their initial
# norm, which is at most 1. On `--synthetic 300` (|lambda_1| about 25.7) adj_nf
# hop 104 passes, hop 105 is refused, and the layer norm itself overflowed from
# hop 109.
_LAYER_NORM_SCALE = float(np.sqrt(np.finfo(np.float64).max)) * 2.0 ** -20


def _hop_stack(x: np.ndarray, k: int, step, what: str | None = None) -> HopStack:
    """Token 0 is x and token j is step applied to token j - 1, never a matrix power;
    a stack that cannot fit in physical memory is refused, naming k, before allocation.

    With `what`, each token is checked before the next one is built: the first that
    is too large for the model's first layer norm to square is refused, naming
    `what` and the hop, so no step runs on it and overflows."""
    if k < 0:
        raise FairformerError("k must be >= 0")
    n, width = x.shape
    refuse_unfit(8 * n * (k + 1) * width,
                 f"the hop stack of k={k} ({n} nodes x {k + 1} tokens x {width} columns)")
    limit = _LAYER_NORM_SCALE / np.sqrt(width)
    tensor = np.empty((n, k + 1, width))
    tensor[:, 0] = x
    for j in range(k + 1):
        if what is not None:
            top = np.abs(tensor[:, j]).max(initial=0.0)
            if not top <= limit:  # also refuses nan
                raise FairformerError(
                    f"{what} outgrows what layer norm can square at hop {j}: "
                    f"its largest |entry| is {top:.3g}, the limit {limit:.3g}")
        if j < k:
            tensor[:, j + 1] = step(tensor[:, j])
    return HopStack(tensor=tensor)


def hop_aggregate(group, h, k: int, normalization: str = "raw") -> HopStack:
    """Stack hop slices over the same-group graph of `group` (each node's 0/1
    sensitive group, see `build_group_graph`): slice 0 is the input itself.

    Each step is a per-group row sum, divided by the group size in group-mean
    mode, where k >= 2 hops come back as tokens 0 and 1 with counts (1, k). A
    group-mean stack is the one training runs, so it is refused, naming k and the
    hop, when a hop is too large for the model's first layer norm to square.
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

    def step(current):
        return _group_apply(group, current, mean)

    if not mean:  # raw hops serve verify, whose q^k certificate reports their overflow
        return _hop_stack(x, k, step)
    stack = _hop_stack(x, min(k, 1), step, f"the group-mean hop stack of k={k}")
    return replace(stack, counts=(1, k)) if k >= 2 else stack


def hop_aggregate_adjacency(g: Graph, h, k: int) -> HopStack:
    """Hop stack over the graph adjacency instead of the same-group graph (the
    `adj_nf` ablation).

    Each step is one sparse product with the raw adjacency, so hop j grows like
    |lambda_1|^j. The stack is refused, naming k and the hop, from the first hop
    too large for the model's first layer norm to square. That hop is finite:
    one step multiplies the largest |entry| by at most the largest degree.
    """
    x = _features_of(h)
    if x.shape[0] != g.n:
        raise FairformerError(f"feature rows {x.shape[0]} do not match graph n={g.n}")
    return _hop_stack(x, k, lambda current: g.adjacency @ current,
                      f"the adj_nf hop stack of k={k}")


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
