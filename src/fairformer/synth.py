"""Synthetic graph generators for tests, verification runs and benchmarks.

`sensitive_block_graph` plants the structure the fairness evaluation needs:
edges prefer same-sensitive-value endpoints (sensitive homophily) and same
label endpoints (community signal), and the label leaks through the sensitive
attribute at a small fixed rate. Node features carry the binary sensitive
column, one weak label-informative column and pure noise, so a classifier
only beats the leak-driven baseline by exploiting graph structure.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .data import Graph, _symmetric_adjacency
from .errors import FairformerError, IngestionError

# Bytes charged per node pair of edge sampling. sensitive_block_graph draws its n x n grid a
# block of rows at a time (_BLOCK_ENTRIES draws per block), so its traced peak is about 1.4 MB
# at n = 1000 and no longer grows with n^2; it keeps the 28 bytes its dense draw peaked at
# (28.03, 28.01 and 28.01 at n = 1000, 2000 and 4000) as the refusal that limits the size of
# the draw grid, whose n^2 draws still cost O(n^2) time. random_connected_graph samples
# densely and grows with density: from its edge list it peaks at 9.0, 9.1, 18.1 and 36.0
# bytes at density 0, 0.25, 0.5 and 1.0 (36.01-36.02 at n = 1000 and 2000), so it is
# charged that worst case, rounded up.
_BLOCK_BYTES_PER_PAIR = 28
_RANDOM_BYTES_PER_PAIR = 37
_BLOCK_ENTRIES = 2 ** 16  # draws per row block: 512 KiB of float64 whatever n is

# sensitive_block_graph's planted structure (see its docstring)
_LEAK = 0.02
_SENSITIVE_HOMOPHILY = 12.0
_LABEL_HOMOPHILY = 3.0
_SIGNAL = 0.1
_FEATURE_BIAS = 1.0
_NOISE_BIAS = 0.6
_BLOCK_NOISE_DIM = 8

# benchmark_graph: mean degree, community count, within/across edge-rate ratio, noise width
_BENCH_AVG_DEGREE = 16.0
_COMMUNITIES = 4
_COMMUNITY_CONTRAST = 8.0
_BENCH_NOISE_DIM = 7
# Bytes charged per node of benchmark_graph: its traced peak is 871-873 bytes a node at
# n = 1000-46340, where an adjacency entry's row * n + col key fits int32, and 1299-1301 at
# n = 46341, 50000 and 100000, where it takes int64; it is charged the larger.
_BENCH_BYTES_PER_NODE = 1301


def refuse_unfit(need: int, what: str, error=FairformerError) -> None:
    """Raise `error` when `need` bytes exceed physical memory; `what` names the cause."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise error(f"{what} needs about {need / 1e9:.1f} GB, more than the "
                    f"{have / 1e9:.1f} GB of physical memory found")


def _refuse_unfit_benchmark(n: int) -> None:
    """Raise IngestionError, before anything is drawn, when benchmark_graph(n) cannot fit."""
    refuse_unfit(_BENCH_BYTES_PER_NODE * n, f"benchmark_graph at n={n}", IngestionError)


def _connected_adjacency(n: int, heads, tails, rng) -> sp.csr_matrix:
    """The adjacency of edges (heads[i], tails[i]), plus one edge between consecutive
    components so the graph is connected."""
    adj = _symmetric_adjacency(n, heads, tails)
    n_comp, labels = connected_components(adj, directed=False)
    if n_comp <= 1:
        return adj
    reps = [rng.choice(np.nonzero(labels == c)[0]) for c in range(n_comp)]
    return _symmetric_adjacency(n, np.concatenate([heads, reps[:-1]]),
                                np.concatenate([tails, reps[1:]]))


def _assemble(adj, sens, labels, extra_features):
    feats = np.column_stack(list(extra_features) + [sens.astype(np.float64)])
    return Graph(adjacency=adj, features=feats, sensitive_index=feats.shape[1] - 1,
                 labels=labels.astype(np.int64), label_mask=np.ones(len(sens), dtype=bool))


def _force_both_values(vec, rng):
    if vec.min() == vec.max():
        vec[rng.integers(0, vec.size)] = 1 - vec[0]
    return vec


def random_connected_graph(n: int, density: float = 0.2, seed: int = 0) -> Graph:
    """Erdos-Renyi graph patched to be connected, with binary sensitive column.

    Features are one standard-normal column plus the sensitive column; labels
    are balanced coin flips. Intended for n up to a few hundred (dense edge
    sampling); raises IngestionError when that cannot fit in physical memory.
    """
    refuse_unfit(_RANDOM_BYTES_PER_PAIR * n * n, f"dense edge sampling at n={n}", IngestionError)
    rng = np.random.default_rng(seed)
    heads, tails = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    adj = _connected_adjacency(n, heads, tails, rng)

    sens = _force_both_values(rng.integers(0, 2, n), rng)
    labels = _force_both_values(rng.integers(0, 2, n), rng)
    noise = rng.standard_normal((n, 1))
    return _assemble(adj, sens, labels, [noise])


def sensitive_block_graph(n: int = 1000, seed: int = 0, *, avg_degree: float = 24.0) -> Graph:
    """Planted sensitive-homophily fixture with label leakage.

    P(y=1 | s) = 0.5 +- _LEAK/2, so the sensitive attribute predicts the label
    at rate (1 + _LEAK) / 2. Edge probability scales by _SENSITIVE_HOMOPHILY
    for same-s pairs and _LABEL_HOMOPHILY for same-y pairs, so labels are
    mostly carried by community structure. The node-level label signal in the
    features is weak (_SIGNAL * (2y - 1) in unit noise) and skewed by
    _FEATURE_BIAS * (2s - 1); the _BLOCK_NOISE_DIM noise columns carry
    alternating-sign group shifts of size _NOISE_BIAS. Sensitive-correlated
    feature columns are the point: a classifier must actively cancel those
    skews to stay group-balanced, and neighborhood sums amplify them.

    Pair (i, j), i < j, is an edge when the (i, j) draw of one n x n uniform
    grid falls below its probability. The grid is drawn a block of rows at a
    time, about _BLOCK_ENTRIES draws each, which reads the generator's stream
    as one n x n draw would, so the graph does not depend on the block size.
    The draws still take O(n^2) time, and n is refused with IngestionError
    when the n x n grid at _BLOCK_BYTES_PER_PAIR would not fit in physical
    memory.
    """
    refuse_unfit(_BLOCK_BYTES_PER_PAIR * n * n, f"the n x n grid of edge draws at n={n}",
                 IngestionError)
    rng = np.random.default_rng(seed)
    sens = _force_both_values(rng.integers(0, 2, n), rng)
    p_pos = np.where(sens == 1, 0.5 + _LEAK / 2.0, 0.5 - _LEAK / 2.0)
    labels = _force_both_values((rng.random(n) < p_pos).astype(np.int64), rng)

    # a pair's weight depends only on the (s, y) classes of its ends; every weight
    # is a small integer, so the sum over all n^2 pairs is an exact integer, far
    # below 2^53 within the refusal, and float64 holds it exactly
    kind = 2 * sens + labels
    classes = np.arange(4)
    same_s = classes[:, None] // 2 == classes // 2
    same_y = classes[:, None] % 2 == classes % 2
    weight = (np.where(same_s, _SENSITIVE_HOMOPHILY, 1.0)
              * np.where(same_y, _LABEL_HOMOPHILY, 1.0))
    counts = np.bincount(kind, minlength=4).astype(np.float64)
    base = avg_degree * n / (counts @ weight @ counts)
    prob = np.minimum(base * weight, 1.0)  # indexed by the kinds of a pair's ends

    heads, tails = [], []
    by_kind = prob[:, kind]  # (4, n): row s is each node's probability against kind s
    rows = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        draws = rng.random((hi - lo, n))  # the whole block, so the stream reads on as before
        # only pairs right of the block's first row can lie above the diagonal
        r, c = np.nonzero(draws[:, lo + 1:] < by_kind[kind[lo:hi], lo + 1:])
        upper = c >= r  # column c + lo + 1 past row r + lo
        heads.append(r[upper] + lo)
        tails.append(c[upper] + lo + 1)
    adj = _connected_adjacency(n, np.concatenate(heads), np.concatenate(tails), rng)

    signal_col = (_SIGNAL * (2.0 * labels - 1.0)
                  + _FEATURE_BIAS * (2.0 * sens - 1.0)
                  + rng.standard_normal(n))
    noise = rng.standard_normal((n, _BLOCK_NOISE_DIM))
    shifts = _NOISE_BIAS * (-1.0) ** np.arange(_BLOCK_NOISE_DIM)
    noise = noise + np.outer(2.0 * sens - 1.0, shifts)
    return _assemble(adj, sens, labels, [signal_col.reshape(-1, 1), noise])


def benchmark_graph(n: int, seed: int = 0) -> Graph:
    """Sparse community graph with O(n) edges and n-independent spectral gaps.

    Edges are sampled per endpoint pair from within/across community rates
    whose ratio is _COMMUNITY_CONTRAST, so the leading eigenvalues stay
    separated from the spectral bulk as n grows and eigensolver iteration
    counts do not drift upward with size. Raises IngestionError, before
    drawing anything, when _BENCH_BYTES_PER_NODE * n bytes would not fit in
    physical memory.
    """
    _refuse_unfit_benchmark(n)
    rng = np.random.default_rng(seed)
    comm = rng.integers(0, _COMMUNITIES, n).astype(np.uint8)  # one byte: two gathers read it
    p_out = _BENCH_AVG_DEGREE / (n * (1.0 + (_COMMUNITY_CONTRAST - 1.0) / _COMMUNITIES))
    p_in = _COMMUNITY_CONTRAST * p_out

    # sample candidate pairs, thin each by rate/p_in so no probability clips
    mean_keep = (1.0 + (_COMMUNITY_CONTRAST - 1.0) / _COMMUNITIES) / _COMMUNITY_CONTRAST
    m_samples = int(n * _BENCH_AVG_DEGREE / (2.0 * mean_keep))
    u = rng.integers(0, n, m_samples)
    v = rng.integers(0, n, m_samples)
    # a same-community pair is kept at rate 1, and a draw in [0, 1) is always below it
    kept = np.flatnonzero(((comm[u] == comm[v]) | (rng.random(m_samples) < p_out / p_in))
                          & (u != v))
    path = np.arange(n - 1)
    heads, tails = np.concatenate([u[kept], path]), np.concatenate([v[kept], path + 1])
    del u, v  # the candidate draws are freed before the build's arrays are made
    adj = _symmetric_adjacency(n, heads, tails)

    sens = _force_both_values(rng.integers(0, 2, n), rng)
    labels = _force_both_values(rng.integers(0, 2, n), rng)
    noise = rng.standard_normal((n, _BENCH_NOISE_DIM))
    return _assemble(adj, sens, labels, [noise])
