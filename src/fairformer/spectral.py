"""Structure encoding from adjacency eigenvectors.

The eigensolver is implicitly restarted Lanczos (ARPACK, through scipy's
`eigsh`) driven by mat-vec products, with a Krylov basis of fixed dimension ncv.
When that basis would span the whole space (ncv = n) restarting gains nothing,
so the operator is applied once to the identity and solved by `eigh`: graphs of
at most 20 nodes, t >= (n - 1) / 2, and the alignment certificate below, which
is restricted to n <= 500 by contract.

A basis is a pure function of the immutable graph, its source, t, tol and seed,
so this module remembers each Graph's adjacency and Laplacian solve of the largest
t asked for: asking again with the same tol and seed returns that basis at its own
t, and `SpectralBasis.head` of it at a smaller t, without solving. Each solver
flags such a slice by its own cut rule, as a solve at that t would be flagged. A
slice agrees with a fresh solve to within the solver's tolerance, not bit for bit.
Basis arrays are read-only, so no caller can change another's. `ablate`,
`sweep --param layers` and `sweep --param t` therefore solve each source once per
graph. `dataclasses.replace(g)` is a new Graph that remembers nothing, and a sparse
or dense operator is never remembered.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .data import Graph
from .synth import refuse_unfit
from .errors import (ConvergenceError, FairformerError, SpectralGapError,
                     TieWarning, DegenerateSpectrumWarning, UndefinedCosineError)

_MAX_ITERS = 1000  # ARPACK's restart cap (eigsh's maxiter)
_TOL = 1e-10  # residual tolerance of a solve: the Laplacian's, and the adjacency's default
_SOLVES = weakref.WeakKeyDictionary()  # Graph -> {source: ((tol, seed), basis)}


@dataclass(frozen=True)
class SpectralBasis:
    """Selected eigenpairs: column i of structure_matrix pairs with eigenvalues[i]."""

    eigenvalues: np.ndarray
    structure_matrix: np.ndarray
    source: str  # "adjacency" (largest magnitude) or "laplacian" (smallest nontrivial)
    residuals: np.ndarray
    tie_warning: bool = False
    degenerate_warning: bool = False

    def __post_init__(self):
        for arr in (self.eigenvalues, self.structure_matrix, self.residuals):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.structure_matrix.shape[0]

    @property
    def t(self) -> int:
        return self.structure_matrix.shape[1]

    def head(self, t: int, **flags) -> SpectralBasis:
        """This basis at its own t; below it, read-only views of its first t eigenvalues,
        columns and residuals carrying `flags`. A repeated eigenvalue inside the slice
        keeps an arbitrary basis of its eigenspace, as a solve would give it."""
        if t == self.t:
            return self
        return SpectralBasis(self.eigenvalues[:t], self.structure_matrix[:, :t], self.source,
                             self.residuals[:t], **flags)


def _as_matvec(a):
    """Return (product with a vector or a column block, n); an operator other than a Graph
    (validated when built) must be square, finite and exactly symmetric."""
    if isinstance(a, Graph):
        mat = a.adjacency
        return (lambda x: mat @ x), a.n
    mat = a.tocsr() if sp.issparse(a) else np.asarray(a, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise FairformerError(f"expected a square operator, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.data if sp.issparse(mat) else mat)):
        raise FairformerError("operator has non-finite entries")
    if abs(mat - mat.T).sum():
        raise FairformerError("operator is not symmetric")
    return (lambda x: mat @ x), mat.shape[0]


def _canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        cutoff = 1e-12 * max(np.max(np.abs(col)), 1e-300)
        nz = np.nonzero(np.abs(col) > cutoff)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, i] = -col
    return out


def _krylov_dim(n, k):
    """ARPACK's Krylov dimension ncv for k pairs; `_select` goes dense once it reaches n."""
    return min(n, max(2 * k + 1, 20))


def _refuse_unfit_solve(n, t):
    """Refuse, before it allocates, a structure solve of t pairs that cannot fit in memory.

    ARPACK is charged in float64s for its Krylov basis (n * ncv), its workspace (ncv^2)
    and five n * t copies of the selected vectors: 4.5 n^2 at t = n / 2 - 1. The dense
    route (`eigh`'s input, copy, workspace and output) is charged 6 n^2 floats plus 4 MB.
    Measured as resident growth on `benchmark_graph` at n = 500, 1000 and 2000, both
    solvers: at most 3.1 n^2 floats for ARPACK at t = n / 2 - 1, and for the dense route
    at t from n / 2 to n, 5.2 to 5.5 n^2 at n >= 1000 and 6.4 n^2 at n = 500.
    """
    ncv = _krylov_dim(n, t)
    need = 8 * 6 * n * n + 4_000_000 if ncv == n else 8 * (n * ncv + ncv * ncv + 5 * n * t)
    refuse_unfit(need, f"the structure solve of t={t} at n={n}")


def _remembered(a, source, t, key, solve) -> SpectralBasis:
    """Graph `a`'s kept `source` basis when that solve's (tol, seed) equals `key` and
    its t is at least t; otherwise `solve()`, kept in its place. Only this function
    touches `_SOLVES`, whose weak keys drop a Graph's solves with the Graph. A sparse
    or dense operator is solved every time."""
    if not isinstance(a, Graph):
        return solve()
    kept = _SOLVES.get(a, {}).get(source)
    if kept is None or kept[0] != key or kept[1].t < t:
        kept = _SOLVES.setdefault(a, {})[source] = (key, solve())
    return kept[1]


def _select(matvec, n, k, tol, seed, which):
    """The k eigenpairs of a symmetric operator chosen by `which` ("LM" or "SA").

    Implicitly restarted Lanczos (ARPACK's `eigsh`) on mat-vec products, with
    at most `_MAX_ITERS` restarts of an `ncv`-dimensional Krylov basis. When that
    basis would span the whole space (ncv = n), the operator is applied once to
    the identity and solved by `eigh` instead. Returns (eigenvalues, vectors,
    true residuals) ordered by |eigenvalue| descending for "LM" and ascending for
    "SA"; `_check_residuals` gates them.
    """
    ncv = _krylov_dim(n, k)
    if ncv == n:
        theta, vectors = np.linalg.eigh(matvec(np.eye(n)))
    else:
        op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            theta, vectors = eigsh(op, k=k, which=which, v0=v0, ncv=ncv, maxiter=_MAX_ITERS,
                                   tol=tol)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"eigensolver converged {len(exc.eigenvalues)} of {k} eigenpairs before the "
                f"restart cap max_iters={_MAX_ITERS} (Krylov dimension ncv={ncv})") from None
        except ArpackError as exc:
            if np.any(matvec(v0)):
                raise ConvergenceError(f"eigensolver failed: {exc}") from None
            theta, vectors = np.zeros(k), np.eye(n, k)  # ARPACK stops on the zero operator
    order = np.argsort(-np.abs(theta) if which == "LM" else theta, kind="stable")[:k]
    theta, vectors = theta[order], vectors[:, order]
    return theta, vectors, np.linalg.norm(matvec(vectors) - vectors * theta, axis=0)


def _check_residuals(theta, resid, tol) -> None:
    """Raise ConvergenceError when a residual exceeds tol * max(1, |eigenvalue|)."""
    bad = resid > tol * np.maximum(1.0, np.abs(theta))
    if np.any(bad):
        raise ConvergenceError(
            f"eigensolver residual {resid[bad].max():.3e} exceeds tol={tol:.1e} "
            f"(restart cap max_iters={_MAX_ITERS})")


def _basis(theta, vectors, resid, tol, source, **flags) -> SpectralBasis:
    """The final pairs, gated on their residuals, as a sign-canonical SpectralBasis."""
    _check_residuals(theta, resid, tol)
    return SpectralBasis(eigenvalues=theta, structure_matrix=_canonicalize_signs(vectors),
                         source=source, residuals=resid, **flags)


def _is_tie(last, following, tol) -> bool:
    """Does |following| match |last|, the magnitude at the cut, within tol * max(1, |last|)?"""
    return abs(abs(last) - abs(following)) <= tol * max(1.0, abs(last))


# Loose tolerances of the cut check's deflated solve, tried before the caller's tol
_LOOSE_CUT_TOLS = (1e-1, 1e-4)


def _settle_cut(matvec, n, theta, vectors, resid, tol, seed):
    """Swap in pairs the main solve missed; then, does |lambda_{t+1}| match
    |lambda_t| within tol? Returns (theta, vectors, resid, tie).

    The top eigenpair (mu, v) of the deflated operator A - V diag(theta) V^T
    estimates lambda_{t+1}. It is solved on a ladder of tolerances, 1e-1, 1e-4
    and then tol: a rung settles the cut as soon as |mu| plus its residual falls
    clearly below |lambda_t|, so a small gap past the cut (5.8e-4 relative
    between |lambda_5| and |lambda_6| of `benchmark_graph(16000)`) settles at
    1e-4 instead of at tol, while 1e-1 settles the wide gaps. A settled rung
    can only answer "no tie, no missed pair", which is what the full-tolerance
    solve answers too; a loose rung that does not converge or fails its
    residual gate passes on to the next. Every other answer comes from the
    full-tolerance solve: a refined |mu| above |lambda_t| by more than tol is a
    missed pair (Krylov solves find one copy of a repeated eigenvalue at a
    time), which replaces the last pair before the check repeats, and a
    refinement that does not converge reports no tie. Every rung starts from
    the start vector of seed + 1: the main solve's start vector leans towards
    the copy it already found, and from it the deflated solve missed the second
    copy of -2cos(pi / n) on the odd cycles C51 and C101.
    """
    while theta.size < n:
        cut = abs(theta[-1])
        margin = tol * max(1.0, cut)
        scaled = vectors * theta

        def deflated(x):
            return matvec(x) - scaled @ (vectors.T @ x)

        for step_tol in (*_LOOSE_CUT_TOLS, tol):
            try:
                mu, v, mu_resid = _select(deflated, n, 1, step_tol, seed + 1, "LM")
                _check_residuals(mu, mu_resid, step_tol)
            except ConvergenceError:
                mu = None
                continue
            if abs(mu[0]) + mu_resid[0] < cut - margin:
                return theta, vectors, resid, False
        if mu is None:
            return theta, vectors, resid, False
        if abs(mu[0]) <= cut + margin:
            return theta, vectors, resid, _is_tie(theta[-1], mu[0], tol)
        theta, vectors = np.append(theta[:-1], mu), np.column_stack([vectors[:, :-1], v])
        resid = np.append(resid[:-1], np.linalg.norm(matvec(v) - v * mu, axis=0))
        order = np.argsort(-np.abs(theta), kind="stable")
        theta, vectors, resid = theta[order], vectors[:, order], resid[order]
    return theta, vectors, resid, False


def top_magnitude_eigenpairs(a, t: int, tol: float = _TOL, seed: int = 0) -> SpectralBasis:
    """The t eigenpairs of largest |eigenvalue| of a symmetric operator.

    Accepts a Graph (its adjacency), a scipy sparse matrix or a dense symmetric
    array; an array that is not finite and exactly symmetric is refused. A
    magnitude tie at the cut index (|lambda_t| matching |lambda_{t+1}| within
    tol) sets tie_warning: the basis stays valid but which eigenvector fills
    the last slot is seed-dependent, and every call that returns one warns. A
    solve that cannot fit in physical memory is refused, naming t and n, before it
    allocates. A slice of a Graph's kept basis compares |lambda_t| with the kept
    |lambda_{t+1}|.
    """
    matvec, n = _as_matvec(a)
    if t < 0 or t > n:
        raise FairformerError(f"t={t} out of range for n={n}")
    if t == 0:
        return SpectralBasis(np.empty(0), np.empty((n, 0)), "adjacency", np.empty(0))

    def solve():
        _refuse_unfit_solve(n, t)
        theta, vectors, resid = _select(matvec, n, t, tol, seed, "LM")
        theta, vectors, resid, tie = _settle_cut(matvec, n, theta, vectors, resid, tol, seed)
        return _basis(theta, vectors, resid, tol, "adjacency", tie_warning=tie)

    basis = _remembered(a, "adjacency", t, (tol, seed), solve)
    if basis.t > t:
        basis = basis.head(t, tie_warning=_is_tie(basis.eigenvalues[t - 1],
                                                  basis.eigenvalues[t], tol))
    if basis.tie_warning:
        warnings.warn("magnitude tie at the selection cut; last eigenvector is seed-dependent",
                      TieWarning, stacklevel=2)
    return basis


def laplacian_small_eigenpairs(g: Graph, t: int, seed: int = 0) -> SpectralBasis:
    """The t smallest nontrivial eigenpairs of L = D - A, solved to `_TOL`.

    The constant eigenvector is shifted above the spectrum: L + s 11^T / n with
    s = 2 * max_degree + 1 > lambda_max(L). Graphs with more than t + 1
    connected components cannot avoid the remaining kernel, so the result
    carries degenerate_warning and may include (near-)zero eigenvalues, whether it
    is solved or sliced from the graph's kept basis. A solve that cannot fit in
    physical memory is refused, naming t and n, before it allocates.
    """
    if t < 0 or t > g.n - 1:
        raise FairformerError(f"t={t} out of range for the deflated Laplacian of n={g.n}")
    if t == 0:
        return SpectralBasis(np.empty(0), np.empty((g.n, 0)), "laplacian", np.empty(0))
    n_components = connected_components(g.adjacency, directed=False)[0]
    degenerate = n_components > t + 1

    def solve():
        _refuse_unfit_solve(g.n, t)
        degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
        shift = 2.0 * degrees.max() + 1.0

        def matvec(x):  # x is a vector or a column block; degrees scale its rows
            return (degrees * x.T).T - g.adjacency @ x + shift * x.sum(axis=0) / g.n

        theta, vectors, resid = _select(matvec, g.n, t, _TOL, seed, "SA")
        theta = np.where(np.abs(theta) <= _TOL, 0.0, theta)
        return _basis(theta, vectors, resid, _TOL, "laplacian", degenerate_warning=degenerate)

    basis = _remembered(g, "laplacian", t, (_TOL, seed), solve).head(
        t, degenerate_warning=degenerate)
    if basis.degenerate_warning:
        warnings.warn(
            f"laplacian kernel has dimension {n_components}; selection includes degenerate pairs",
            DegenerateSpectrumWarning, stacklevel=2)
    return basis


def fuse(g: Graph, basis: SpectralBasis) -> np.ndarray:
    """[H | B]: node features with the structure matrix appended, features first, as
    one new array. A group-mean hop stack takes (H, B) as blocks instead, with no such
    copy. Both keep the basis's unit-norm columns as they are; `train` scales them in
    the stack it runs (`hops.scale_columns`)."""
    if basis.n != g.n:
        raise FairformerError(f"basis has {basis.n} rows but graph has {g.n} nodes")
    return np.concatenate([g.features, basis.structure_matrix], axis=1)


@dataclass(frozen=True)
class AlignmentReport:
    """Cosine alignment of hop-aggregated features with the dominant eigenvector.

    For each hop count k the report carries the directly computed cosine
    between the k-hop aggregate of the sensitive column and the column itself,
    the k -> infinity limit cos(p1, column), and the gap to that limit;
    identity_max_error is the largest difference between the direct cosines and
    the same numbers evaluated through the eigendecomposition identity. The decay
    constant is fit from hop-1 quantities: with beta_i the normalized squared
    alignment coefficients, U_1 the aggregate non-dominant correlation mass
    and rho the eigenvalue ratio, gap_k <= C rho^k holds for every k >= 1
    whenever U_1 < beta_1.
    """

    k_values: np.ndarray
    direct: np.ndarray
    limit: float
    gaps: np.ndarray
    alphas: np.ndarray
    eigenvalue_ratio: float
    decay_constant: float | None
    decay_applicable: bool
    identity_max_error: float
    decay_ok: bool


_DECAY_FLOAT_SLACK = 1e-12
_GAP_RTOL = 1e-8  # |lambda_1| - |lambda_2| must exceed this share of max(1, |lambda_1|)


def spectral_alignment_report(g: Graph, k_max: int) -> AlignmentReport:
    """Certify the dominant-eigenvector alignment identity for the sensitive column
    on a small graph.

    Dense route: all n eigenpairs from `top_magnitude_eigenpairs`, whose Krylov
    basis then spans the graph, so it runs `eigh` (n <= 500 enforced).
    Direct route: repeated sparse mat-vec application, the iterate normalized
    after each product. The two cosine series
    must agree to machine precision; their gap to the limit cosine is bounded
    by decay_constant * ratio^k when the hop-1 fit is applicable.
    """
    if g.n > 500:
        raise FairformerError(f"alignment certificate requires n <= 500, got {g.n}")
    if k_max < 1:
        raise FairformerError("k_max must be >= 1")
    h = g.sensitive
    norm_h = np.linalg.norm(h)
    if norm_h == 0:
        raise UndefinedCosineError("sensitive column is identically zero")

    basis = top_magnitude_eigenpairs(g, g.n)
    lam, pvecs = basis.eigenvalues, basis.structure_matrix
    if g.n < 2 or abs(lam[0]) - abs(lam[1]) <= _GAP_RTOL * max(1.0, abs(lam[0])):
        raise SpectralGapError(
            f"|lambda_1|={abs(lam[0]):.6g} and |lambda_2|={abs(lam[1]) if g.n > 1 else 0:.6g} "
            "violate the strict-gap precondition")

    alphas = pvecs.T @ h
    total = float(np.sum(alphas ** 2))
    limit = float(alphas[0] / np.sqrt(total))
    beta = alphas ** 2 / total
    r_signed = lam / lam[0]
    r_abs = np.abs(r_signed)
    ratio = float(r_abs[1])

    ks = np.arange(1, k_max + 1)
    direct = np.zeros(k_max)
    formula = np.zeros(k_max)
    x = h
    for i, k in enumerate(ks):
        x = g.adjacency @ x
        nx = np.linalg.norm(x)
        if nx == 0:
            raise UndefinedCosineError(f"hop-{k} aggregate vanished; cosine undefined")
        x /= nx  # the cosine does not depend on scale, and |lambda_1|^k overflows
        direct[i] = float((x @ h) / norm_h)
        num = alphas[0] ** 2 + np.sum(alphas[1:] ** 2 * r_signed[1:] ** k)
        den = np.sqrt(alphas[0] ** 2 + np.sum(alphas[1:] ** 2 * r_signed[1:] ** (2 * k)))
        formula[i] = float(num / (den * np.sqrt(total)))

    gaps = np.abs(direct - limit)
    b1 = float(beta[0])
    u1 = float(np.sum(beta[1:] * r_abs[1:]))  # hop-1 non-dominant correlation mass
    applicable = u1 < b1
    constant = None
    if applicable and ratio > 0:
        constant = u1 * (2 * b1 + u1 + b1 * ratio) / (np.sqrt(b1) * (2 * b1 - u1) * ratio)

    decay_ok = False
    if constant is not None:
        decay_ok = bool(np.all(gaps <= constant * ratio ** ks + _DECAY_FLOAT_SLACK))

    return AlignmentReport(
        k_values=ks,
        direct=direct,
        limit=limit,
        gaps=gaps,
        alphas=alphas,
        eigenvalue_ratio=ratio,
        decay_constant=None if constant is None else float(constant),
        decay_applicable=applicable,
        identity_max_error=float(np.max(np.abs(direct - formula))),
        decay_ok=decay_ok,
    )
