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

Every `HopStack` holds one layout. Token 0 is column blocks laid side by side,
and the later tokens are one (rows, tokens - 1, d) array, of which each node
reads one row. A stack built from a dense (n, tokens, d) array holds views of it,
and node v reads row v through an index of 8 bytes a node. A group-mean stack holds the blocks it was given, a
read-only block (a Graph's features, a remembered structure basis) by reference
and a writable one as a copy, and its later tokens as the (2, 1, d) table of
group means, (2, 0, d) at k = 0, which node v reads through its group, one byte
a node. So a stack over [H | B] given as (H, B) holds about 2 * d float64s and
n bytes of its own; `HopStack.rows` lays out only the rows asked for. Raw
stacks, which serve `verify`'s q^k check, and adjacency stacks are dense.
`scale_columns` min-max scales a stack's trailing columns where they lie, except
in a read-only block, which it swaps for a scaled copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Graph
from .errors import FairformerError
from .synth import refuse_unfit

_MODES = ("raw", "group-mean")


class HopStack:
    """Per-node token sequences: tensor[v, j] is the hop-j embedding of node v.

    `counts`, when set, says token j stands for counts[j] equal tokens.
    `HopStack(tensor, counts)` holds views of the (n, tokens, d) array it is given:
    token 0 as one block and tokens 1 and up as one array, of which node v reads
    row v. A group-mean stack from `hop_aggregate` holds the same layout with token
    0 as the blocks it was given and one row of later tokens per group (see the
    module docstring). `rows` lays out the rows it selects; `tensor` returns the array the
    stack was built from, or lays the whole stack out on every read.
    """

    __slots__ = ("counts", "_dense", "_blocks", "_later", "_row")

    def __init__(self, tensor: np.ndarray, counts: tuple | None = None):
        self.counts = counts  # (distinct tokens,) integer multiplicities
        self._dense = tensor  # kept only for `tensor`; None once a block is swapped
        self._blocks = (tensor[:, 0],)  # token 0's (n, d_i) column blocks
        self._later = tensor[:, 1:]  # (rows, tokens - 1, d)
        self._row = np.arange(tensor.shape[0])  # (n,): node v's row of `_later`

    @property
    def n(self) -> int:
        return self._row.size

    @property
    def d(self) -> int:
        return self._later.shape[2]

    @property
    def tensor(self) -> np.ndarray:
        """The (n, tokens, d) array; a stack built without one lays it out on every read."""
        return self.rows(slice(None)) if self._dense is None else self._dense

    def rows(self, idx) -> np.ndarray:
        """A new array of tensor[idx], built from only the rows `idx` selects."""
        row = self._row[idx]
        out = np.empty((row.size, 1 + self._later.shape[1], self.d))
        lo = 0
        for block in self._blocks:
            out[:, 0, lo:lo + block.shape[1]] = block[idx]
            lo += block.shape[1]
        out[:, 1:] = self._later[row]
        return out


def build_group_graph(g: Graph) -> np.ndarray:
    """Each node's sensitive group, 0 or 1: the same-group graph is fixed by it."""
    return g.sensitive.astype(np.intp)


def _features_of(h) -> np.ndarray:
    arr = np.asarray(h, dtype=np.float64)
    if arr.ndim != 2:
        raise FairformerError(f"feature matrix must be 2-D, got shape {arr.shape}")
    return arr


def _blocks_of(h) -> tuple:
    """`h`, one array or a tuple of column blocks laid side by side, as a tuple of 2-D
    float64 blocks with one row count."""
    blocks = tuple(_features_of(block) for block in (h if isinstance(h, tuple) else (h,)))
    if not blocks:
        raise FairformerError("no feature blocks given")
    if len({block.shape[0] for block in blocks}) > 1:
        raise FairformerError(f"feature blocks have unequal row counts "
                              f"{[block.shape[0] for block in blocks]}")
    return blocks


def _groups_of(group) -> np.ndarray:
    arr = np.asarray(group)
    if arr.ndim != 1 or not np.all((arr == 0) | (arr == 1)):
        raise FairformerError("sensitive groups must be a 1-D array of 0s and 1s")
    return arr.astype(np.uint8)  # a group-mean stack holds it: one byte a node


def _row_order_sum(rows: np.ndarray) -> np.ndarray:
    """rows.sum(axis=0), added in row order. numpy adds two or more columns that way
    but pairs up the rows of a lone column, so without this a column's hops would
    round by how many columns ride beside it. The q^k certificate stacks the
    sensitive column alone; past 2^53 its float route then keeps the bits the
    column has in a wider stack."""
    if rows.shape[1] == 1 and rows.shape[0]:
        return np.cumsum(rows, axis=0)[-1]
    return rows.sum(axis=0)


def _group_sums(group: np.ndarray, x: np.ndarray, mean: bool) -> np.ndarray:
    """(2, d): row 0 sums (or averages) the rows of group 0, row 1 those of group 1."""
    sums = np.zeros((2, x.shape[1]))
    sums[0] = _row_order_sum(x[group == 0])
    sums[1] = _row_order_sum(x[group == 1])
    if mean:  # an empty group's sum is 0, so dividing it by 1 keeps it 0
        sums /= np.maximum(np.bincount(group, minlength=2), 1)[:, None]
    return sums


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


def _refuse_outgrown(blocks, j: int, what: str) -> None:
    """Refuse hop j, naming `what`, when the token its column `blocks` lay out side by
    side is too large for the model's first layer norm to square. The limit is set by
    the whole token's width, not by one block's."""
    limit = _LAYER_NORM_SCALE / np.sqrt(sum(block.shape[-1] for block in blocks))
    # the largest |entry| with no |block| copy; np.max keeps a nan
    top = np.max([[block.max(initial=0.0), -block.min(initial=0.0)] for block in blocks])
    if not top <= limit:  # also refuses nan
        raise FairformerError(f"{what} outgrows what layer norm can square at hop {j}: "
                              f"its largest |entry| is {top:.3g}, the limit {limit:.3g}")


def _hop_stack(x: np.ndarray, k: int, step, what: str | None = None) -> HopStack:
    """Token 0 is x and token j is step applied to token j - 1, never a matrix power;
    a stack that cannot fit in physical memory is refused, naming k, before allocation.

    With `what`, each token is checked before the next one is built: the first that
    is too large for the model's first layer norm to square is refused, naming
    `what` and the hop, so no step runs on it and overflows."""
    n, width = x.shape
    refuse_unfit(8 * n * (k + 1) * width,
                 f"the hop stack of k={k} ({n} nodes x {k + 1} tokens x {width} columns)")
    tensor = np.empty((n, k + 1, width))
    tensor[:, 0] = x
    for j in range(k + 1):
        if what is not None:
            _refuse_outgrown((tensor[:, j],), j, what)
        if j < k:
            tensor[:, j + 1] = step(tensor[:, j])
    return HopStack(tensor=tensor)


def hop_aggregate(group, h, k: int, normalization: str = "raw") -> HopStack:
    """Stack hop slices over the same-group graph of `group` (each node's 0/1
    sensitive group, see `build_group_graph`): slice 0 is the input itself, `h`,
    given as one array or as a tuple of column blocks laid side by side.

    Each step is a per-group row sum, divided by the group size in group-mean
    mode, where k >= 2 hops come back as tokens 0 and 1 with counts (1, k) and
    token 1 is held once per group (see the module docstring). A group-mean
    stack holds token 0 as its blocks: a read-only block by reference, a writable
    one as a copy. It is the stack training runs, so it is refused, naming k and
    the hop, when a hop is too large for the model's first layer norm to square.
    """
    if normalization not in _MODES:
        raise FairformerError(f"normalization must be one of {_MODES}")
    if k < 0:
        raise FairformerError("k must be >= 0")
    group = _groups_of(group)
    blocks = _blocks_of(h)
    if blocks[0].shape[0] != group.size:
        raise FairformerError(f"feature rows {blocks[0].shape[0]} do not match "
                              f"{group.size} groups")
    if normalization == "raw":  # raw hops serve verify, whose q^k certificate reports overflow
        x = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        return _hop_stack(x, k, lambda current: _group_sums(group, current, False)[group])
    what = f"the group-mean hop stack of k={k}"
    n, width = group.size, sum(block.shape[1] for block in blocks)
    if k == 0:  # it holds read-only blocks by reference
        copied = sum(block.shape[1] for block in blocks if block.flags.writeable)
        refuse_unfit(8 * n * copied + n, f"{what} ({n} nodes x {copied} copied columns, "
                                         f"1 group byte a node)")
    else:  # the charge also bounds the boolean-index copies `_group_sums` makes
        refuse_unfit(8 * (n + 2) * width + n,
                     f"{what} ({n} nodes x 1 token x {width} columns, 2 group tokens)")
    _refuse_outgrown(blocks, 0, what)
    later = np.empty((2, 0, width))
    if k >= 1:  # each column is summed in row order, so block by block keeps its bits
        later = np.concatenate([_group_sums(group, block, True) for block in blocks],
                               axis=1)[:, None]
        _refuse_outgrown((later[:, 0],), 1, what)
    stack = HopStack.__new__(HopStack)  # the one layout, with no dense array
    stack.counts, stack._dense, stack._later, stack._row = (
        (1, k) if k >= 2 else None, None, later, group)
    stack._blocks = tuple(block.copy() if block.flags.writeable else block for block in blocks)
    return stack


_FLAT_SPREAD = 1e-6  # largest column spread, relative to its magnitude, left unscaled


def _scale_alike(views) -> None:
    """Map every (n_i, w) view in place, column by column, by -1 + 2 * (x - lo) / (hi - lo)
    with lo and hi the min and max of that column in views[0], so views[0]'s columns
    span [-1, 1]. A column whose spread is at most `_FLAT_SPREAD` of its magnitude is
    left as it is. Column by column, because a row of operands broadcast down a view
    takes a scratch copy of the view's size."""
    lo, hi = views[0].min(axis=0), views[0].max(axis=0)
    wide = hi - lo > _FLAT_SPREAD * np.maximum(np.abs(lo), np.abs(hi))
    for c in np.flatnonzero(wide):
        for view in views:
            column = view[:, c]
            column -= lo[c]
            column *= 2.0
            column /= hi[c] - lo[c]
            column += -1.0


def scale_columns(stack: HopStack, start: int) -> None:
    """Min-max scale columns `start`: of every token of `stack` to [-1, 1], in place,
    each by its range in token 0. A column whose spread is at most 1e-6 of its
    magnitude (a regular graph's Perron vector, say) is constant up to rounding and is
    kept as it is.

    `train` scales the structure columns of the stack it runs this way: unit-norm
    eigenvector entries are about 1/sqrt(n). The columns are scaled where they lie,
    in token 0's blocks and in the later-token array; a group mean commutes with the
    per-column affine map, so a group-mean stack becomes the stack of the scaled
    blocks, up to rounding. A read-only block that holds such columns, a remembered
    basis say, is not written: it is swapped for a scaled copy, also read-only,
    refused before it is made when it cannot fit in physical memory, and a stack that
    swaps one no longer returns the array it was built from as `tensor`. Each token is
    then held to the layer-norm bound, as when the stack was built: scaling multiplies
    an adjacency hop by 2 / (hi - lo).
    """
    later = stack._later
    offsets = np.cumsum([0] + [block.shape[1] for block in stack._blocks])
    copied = sum(block.shape[1] for block, at in zip(stack._blocks, offsets)
                 if at + block.shape[1] > start and not block.flags.writeable)
    refuse_unfit(8 * stack.n * copied, f"the scaled columns {start}: of a hop stack "
                                       f"({stack.n} nodes x {copied} columns)")
    held = []
    for block, at in zip(stack._blocks, offsets):
        cut = max(start - at, 0)
        if cut < block.shape[1]:
            scaled = block if block.flags.writeable else block.copy()
            with np.errstate(over="ignore"):  # a hop scaled past float64's range is refused below
                _scale_alike([scaled[:, cut:]] + [later[:, j, at + cut:at + block.shape[1]]
                                                  for j in range(later.shape[1])])
            if scaled is not block:  # swapped: read-only like the block, and `tensor` is stale
                scaled.setflags(write=False)
                stack._dense = None
            block = scaled
        held.append(block)
    stack._blocks = tuple(held)
    token_blocks = [stack._blocks] + [(later[:, j],) for j in range(later.shape[1])]
    k = stack.counts[1] if stack.counts else len(token_blocks) - 1
    for j, blocks in enumerate(token_blocks):
        _refuse_outgrown(blocks, j, f"the scaled hop stack of k={k}")


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
    if k < 0:
        raise FairformerError("k must be >= 0")
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


def group_scaling_report(group, k_max: int) -> GroupScalingReport:
    """Verify the q^k identity for k = 1..k_max on the sensitive column itself:
    `group` (each node's 0/1 sensitive group) as the one column of a raw stack.

    Two routes: an arbitrary-precision integer recurrence over the implicit
    group adjacency (python ints never overflow, so k_max is honored in full)
    and the float64 production path, which must match exactly as long as
    q^k_max stays inside the 2^53 integer window; past float64's range it fails.
    """
    if k_max < 1:
        raise FairformerError("k_max must be >= 1")
    groups = _groups_of(group)
    column = groups.astype(np.float64)

    with np.errstate(over="ignore", invalid="ignore"):  # past float64's range: inf, then nan
        stack = hop_aggregate(groups, column[:, None], k_max, normalization="raw")
        q = int(groups.sum())
        powers = np.array([_float_or_inf(q ** k) for k in range(1, k_max + 1)])
        want = np.where(column == 1.0, powers[:, None], 0.0)  # (k_max, n)
        deviations = np.abs(stack.tensor[:, 1:, 0].T - want)
    max_dev = float(deviations.max()) if deviations.size else 0.0

    ints = groups.tolist()
    exact_ok = True
    current = ints
    for k in range(1, k_max + 1):
        sums = [0, 0]
        for grp, value in zip(ints, current):
            sums[grp] += value
        current = [sums[grp] for grp in ints]
        expected = [q ** k * v for v in ints]
        if current != expected:
            exact_ok = False
            break

    return GroupScalingReport(q=q, k_checked=k_max, exact_pass=exact_ok,
                              float_pass=(max_dev == 0.0), max_abs_deviation=max_dev)
