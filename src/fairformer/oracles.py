"""Slow, independent brute-force references used by tests and the verify command.

Of the production modules only `cli` imports this one (`verify` checks against
`dense_eig`); nothing here imports what it checks, so every cross-check stays a genuine
dual route. The eigensolver is a threshold cyclic Jacobi iteration in round-robin order,
written without reference to the implicitly restarted Lanczos (ARPACK) solver in `spectral`.
"""

from __future__ import annotations

import numpy as np

from .errors import FairformerError


def _round_robin(n: int) -> list:
    """Rounds of disjoint index pairs (p < q) that cover each pair once over a sweep.

    The circle method: index 0 stays put and the others rotate one place per
    round, pairing position i with position m - 1 - i; an odd n adds an index n
    whose pairs are dropped.
    """
    m = n + n % 2
    ring, rounds = list(range(m)), []
    for _ in range(m - 1):
        p, q = np.array(ring[:m // 2]), np.array(ring[::-1][:m // 2])
        p, q = np.minimum(p, q), np.maximum(p, q)
        rounds.append((p[q < n], q[q < n]))
        ring = [ring[0], ring[-1]] + ring[1:-1]
    return rounds


def dense_eig(a, tol: float = 1e-12, max_sweeps: int = 100):
    """All eigenpairs of a symmetric matrix via cyclic Jacobi rotations.

    Each sweep visits every off-diagonal pair once, in the round-robin parallel
    ordering of Brent & Luk (1985): a round's n / 2 rotations touch disjoint
    rows and columns, so they are applied together as row and column slices.
    Returns (eigenvalues, vectors) sorted by descending |eigenvalue| with each
    column's first nonzero component made positive. Restricted to n <= 500;
    per-pair residual is at the 1e-10 level or better.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FairformerError(f"dense_eig: expected square matrix, got {a.shape}")
    n = a.shape[0]
    if n > 500:
        raise FairformerError(f"dense_eig: n={n} exceeds the 500-node oracle limit")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise FairformerError("dense_eig: matrix is not symmetric")

    w = a.copy()
    v = np.eye(n)
    scale = max(np.linalg.norm(a), 1e-300)

    def off_norm():
        off_entries = w - np.diag(np.diag(w))
        return float(np.linalg.norm(off_entries))

    for _ in range(max_sweeps):
        off = off_norm()
        if off <= tol * scale:
            break
        # rotations below this size are deferred to later sweeps
        skip = max(off / max(n, 1) * 1e-2, tol * scale * 1e-2)
        for p, q in _round_robin(n):
            apq = w[p, q]
            big = np.abs(apq) > skip
            p, q, apq = p[big], q[big], apq[big]
            theta = (w[q, q] - w[p, p]) / (2.0 * apq)
            # small root of t^2 - 2*theta*t - 1 = 0 for the rotation below
            t = np.where(theta == 0.0, 1.0,
                         -np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # rows p, q <- [[c, s], [-s, c]] @ rows p, q; then the same on columns of w and v
            wp, wq = w[p], w[q]
            w[p], w[q] = c[:, None] * wp + s[:, None] * wq, c[:, None] * wq - s[:, None] * wp
            for m in (w, v):
                mp, mq = m[:, p], m[:, q]
                m[:, p], m[:, q] = mp * c + mq * s, mq * c - mp * s
    if off_norm() > tol * scale:
        raise FairformerError("dense_eig: Jacobi sweeps did not converge")

    lam = np.diag(w).copy()
    order = np.argsort(-np.abs(lam), kind="stable")
    lam = lam[order]
    v = v[:, order]
    for i in range(n):
        nz = np.nonzero(np.abs(v[:, i]) > 1e-12)[0]
        if nz.size and v[nz[0], i] < 0:
            v[:, i] = -v[:, i]
    return lam, v


def dense_power_apply(m, x, k: int):
    """Repeated dense multiplication m^k x, the naive way."""
    m = np.asarray(m, dtype=np.float64)
    out = np.array(x, dtype=np.float64)
    for _ in range(int(k)):
        out = m @ out
    return out


def attention_direct(x, wq, wk, wv, bq=None, bk=None, bv=None):
    """Single-head scaled dot-product attention evaluated literally.

    `x` is one token matrix (seq, dim); projections use the full width as the
    key dimension. Returns softmax(QK^T / sqrt(d_K)) V.
    """
    x = np.asarray(x, dtype=np.float64)
    q = x @ wq + (0.0 if bq is None else bq)
    k = x @ wk + (0.0 if bk is None else bk)
    v = x @ wv + (0.0 if bv is None else bv)
    scores = q @ k.T / np.sqrt(wq.shape[1])
    scores = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=1, keepdims=True)
    return attn @ v


def pairwise_auc(scores, labels) -> float:
    """AUC by exhaustive positive/negative pair enumeration, ties counted 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise FairformerError("pairwise_auc: need both classes present")
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (pos.size * neg.size)


def fd_gradient(fn, arrays, step: float = 1e-5):
    """Central finite-difference gradients of a scalar function.

    `arrays` is a list of ndarrays; `fn(arrays)` must return a float. Each
    entry is perturbed by +-step in turn. Returns gradients of the same shapes.
    """
    grads = []
    for idx, base in enumerate(arrays):
        base = np.asarray(base, dtype=np.float64)
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            plus = fn(arrays)
            flat[j] = orig - step
            minus = fn(arrays)
            flat[j] = orig
            gflat[j] = (plus - minus) / (2.0 * step)
        grads.append(g)
    return grads
