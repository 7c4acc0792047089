"""Synthetic graph generators for tests, verification runs and benchmarks.

`sensitive_block_graph` plants the structure the fairness evaluation needs:
edges prefer same-sensitive-value endpoints (sensitive homophily) and same
label endpoints (community signal), and the label leaks through the sensitive
attribute with a configurable rate. Node features carry the binary sensitive
column, one weak label-informative column and pure noise, so a classifier
only beats the leak-driven baseline by exploiting graph structure.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .data import Graph
from .errors import IngestionError

# tracemalloc peak of sensitive_block_graph at its defaults: 28.03, 28.01 and 28.01 bytes per
# node pair at n = 1000, 2000 and 4000. random_connected_graph peaks at 16-18 bytes per pair
# at density 0.2-0.25 and grows with density (43 at density 1.0).
_DENSE_BYTES_PER_PAIR = 28


def _refuse_unfit_dense(n: int) -> None:
    """Raise IngestionError when dense n x n edge sampling cannot fit in physical memory."""
    need = _DENSE_BYTES_PER_PAIR * n * n
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise IngestionError(
            f"synthetic graph with n={n} needs about {need / 1e9:.1f} GB for dense edge "
            f"sampling, more than the {have / 1e9:.1f} GB of physical memory found")


def _connect_components(adj: sp.csr_matrix, rng) -> sp.csr_matrix:
    """Add one edge between consecutive components so the graph is connected."""
    n_comp, labels = connected_components(adj, directed=False)
    if n_comp <= 1:
        return adj
    reps = [rng.choice(np.nonzero(labels == c)[0]) for c in range(n_comp)]
    extra_r = []
    extra_c = []
    for a, b in zip(reps[:-1], reps[1:]):
        extra_r += [a, b]
        extra_c += [b, a]
    patch = sp.coo_matrix((np.ones(len(extra_r)), (extra_r, extra_c)), shape=adj.shape)
    out = (adj + patch).tocsr()
    out.data[:] = 1.0
    return out


def _assemble(adj, sens, labels, extra_features):
    feats = np.column_stack(list(extra_features) + [sens.astype(np.float64)])
    return Graph(adjacency=adj, features=feats, sensitive_index=feats.shape[1] - 1,
                 labels=labels.astype(np.int64), label_mask=np.ones(len(sens), dtype=bool))


def _force_both_values(vec, rng):
    if vec.min() == vec.max():
        vec[rng.integers(0, vec.size)] = 1 - vec[0]
    return vec


def random_connected_graph(n: int, density: float = 0.2, seed: int = 0,
                           noise_dim: int = 1) -> Graph:
    """Erdos-Renyi graph patched to be connected, with binary sensitive column.

    Features are `noise_dim` standard-normal columns plus the sensitive
    column; labels are balanced coin flips. Intended for n up to a few
    hundred (dense edge sampling); raises IngestionError when that cannot fit
    in physical memory.
    """
    _refuse_unfit_dense(n)
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, k=1)
    dense = (upper | upper.T).astype(np.float64)
    adj = _connect_components(sp.csr_matrix(dense), rng)

    sens = _force_both_values(rng.integers(0, 2, n), rng)
    labels = _force_both_values(rng.integers(0, 2, n), rng)
    noise = rng.standard_normal((n, noise_dim))
    return _assemble(adj, sens, labels, [noise])


def sensitive_block_graph(n: int = 1000, seed: int = 0, *,
                          leak: float = 0.02,
                          sensitive_homophily: float = 12.0,
                          label_homophily: float = 3.0,
                          avg_degree: float = 24.0,
                          signal: float = 0.1,
                          feature_bias: float = 1.0,
                          noise_bias: float = 0.6,
                          noise_dim: int = 8) -> Graph:
    """Planted sensitive-homophily fixture with label leakage.

    P(y=1 | s) = 0.5 +- leak/2, so the sensitive attribute predicts the label
    at rate (1 + leak) / 2. Edge probability scales by `sensitive_homophily`
    for same-s pairs and `label_homophily` for same-y pairs, so labels are
    mostly carried by community structure. The node-level label signal in the
    features is weak (`signal * (2y - 1)` in unit noise) and skewed by
    `feature_bias * (2s - 1)`; the noise columns carry alternating-sign group
    shifts of size `noise_bias`. Sensitive-correlated feature columns are the
    point: a classifier must actively cancel those skews to stay
    group-balanced, and neighborhood sums amplify them. Edges are drawn from
    dense n x n arrays; raises IngestionError when they cannot fit in physical
    memory.
    """
    _refuse_unfit_dense(n)
    rng = np.random.default_rng(seed)
    sens = _force_both_values(rng.integers(0, 2, n), rng)
    p_pos = np.where(sens == 1, 0.5 + leak / 2.0, 0.5 - leak / 2.0)
    labels = _force_both_values((rng.random(n) < p_pos).astype(np.int64), rng)

    same_s = sens[:, None] == sens[None, :]
    same_y = labels[:, None] == labels[None, :]
    weight = np.where(same_s, sensitive_homophily, 1.0) * np.where(same_y, label_homophily, 1.0)
    base = avg_degree * n / weight.sum()
    prob = np.minimum(base * weight, 1.0)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    dense = (upper | upper.T).astype(np.float64)
    adj = _connect_components(sp.csr_matrix(dense), rng)

    signal_col = (signal * (2.0 * labels - 1.0)
                  + feature_bias * (2.0 * sens - 1.0)
                  + rng.standard_normal(n))
    noise = rng.standard_normal((n, noise_dim))
    shifts = noise_bias * (-1.0) ** np.arange(noise_dim)
    noise = noise + np.outer(2.0 * sens - 1.0, shifts)
    return _assemble(adj, sens, labels, [signal_col.reshape(-1, 1), noise])


def benchmark_graph(n: int, seed: int = 0, avg_degree: float = 16.0,
                    communities: int = 4, community_contrast: float = 8.0,
                    noise_dim: int = 7) -> Graph:
    """Sparse community graph with O(n) edges and n-independent spectral gaps.

    Edges are sampled per endpoint pair from within/across community rates
    whose ratio is `community_contrast`, so the leading eigenvalues stay
    separated from the spectral bulk as n grows and eigensolver iteration
    counts do not drift upward with size.
    """
    rng = np.random.default_rng(seed)
    comm = rng.integers(0, communities, n)
    p_out = avg_degree / (n * (1.0 + (community_contrast - 1.0) / communities))
    p_in = community_contrast * p_out

    # sample candidate pairs, thin each by rate/p_in so no probability clips
    mean_keep = (1.0 + (community_contrast - 1.0) / communities) / community_contrast
    m_samples = int(n * avg_degree / (2.0 * mean_keep))
    u = rng.integers(0, n, m_samples)
    v = rng.integers(0, n, m_samples)
    keep_prob = np.where(comm[u] == comm[v], 1.0, p_out / p_in)
    keep = (rng.random(m_samples) < keep_prob) & (u != v)
    rows = np.concatenate([u[keep], v[keep], np.arange(n - 1), np.arange(1, n)])
    cols = np.concatenate([v[keep], u[keep], np.arange(1, n), np.arange(n - 1)])
    adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0

    sens = _force_both_values(rng.integers(0, 2, n), rng)
    labels = _force_both_values(rng.integers(0, 2, n), rng)
    noise = rng.standard_normal((n, noise_dim))
    return _assemble(adj, sens, labels, [noise])
