import dataclasses
import gc
import itertools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

import fairformer.spectral as spectral
from fairformer.data import Graph
from fairformer.errors import (ConvergenceError, FairformerError, SpectralGapError, TieWarning,
                               DegenerateSpectrumWarning, UndefinedCosineError)
from fairformer.oracles import dense_eig
from fairformer.spectral import (fuse, laplacian_small_eigenpairs,
                                 spectral_alignment_report, top_magnitude_eigenpairs)
from fairformer.synth import benchmark_graph, random_connected_graph, sensitive_block_graph


def graph_from_dense(dense, sens=None, labels=None):
    n = dense.shape[0]
    sens = np.asarray(sens if sens is not None else ([0, 1] * n)[:n], dtype=float)
    labels = np.asarray(labels if labels is not None else ([0, 1] * n)[:n])
    feats = np.column_stack([np.arange(n, dtype=float), sens])
    return Graph(adjacency=sp.csr_matrix(dense), features=feats, sensitive_index=1,
                 labels=labels, label_mask=np.ones(n, dtype=bool))


def triangle_graph(**kw):
    return graph_from_dense(np.ones((3, 3)) - np.eye(3), **kw)


def path2_graph():
    return graph_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))


def path_or_cycle_graph(n, cycle):
    dense = np.eye(n, k=1) + np.eye(n, k=-1)
    if cycle:
        dense[0, n - 1] = dense[n - 1, 0] = 1.0
    return graph_from_dense(dense)


def test_triangle_dominant_pair():
    basis = top_magnitude_eigenpairs(triangle_graph(), t=1)
    assert abs(basis.eigenvalues[0] - 2.0) < 1e-9
    assert np.allclose(basis.structure_matrix[:, 0], np.ones(3) / np.sqrt(3), atol=1e-9)
    assert not basis.tie_warning


def test_diagonal_operator_is_its_own_basis():
    basis = top_magnitude_eigenpairs(np.diag([3.0, 1.0]), t=1)
    assert abs(basis.eigenvalues[0] - 3.0) < 1e-12
    assert np.allclose(basis.structure_matrix[:, 0], [1.0, 0.0], atol=1e-9)


def test_path2_tie_warning():
    with pytest.warns(TieWarning):
        basis = top_magnitude_eigenpairs(path2_graph(), t=1, tol=1e-9)
    assert basis.tie_warning
    assert abs(abs(basis.eigenvalues[0]) - 1.0) < 1e-9
    assert basis.residuals[0] <= 1e-9


@pytest.mark.parametrize("cycle,t,tie", [(False, 1, True), (True, 3, True),
                                         (False, 2, False), (True, 2, False)])
def test_tie_warning_on_arpack_path(cycle, t, tie):
    # Pn has eigenvalues +-2cos(j pi / (n + 1)); Cn (n even) has +-2 once and +-2cos(2 pi / n)
    # twice each. n = 40 is solved by ARPACK; n = 20 takes the dense route (ncv = n)
    for n in (20, 40):
        g = path_or_cycle_graph(n, cycle)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            basis = top_magnitude_eigenpairs(g, t=t)
        assert basis.tie_warning == tie
        assert any(issubclass(w.category, TieWarning) for w in caught) == tie
        lam = np.linalg.eigvalsh(g.adjacency.toarray())
        assert np.allclose(np.abs(basis.eigenvalues), np.sort(np.abs(lam))[::-1][:t], atol=1e-9)


def test_missed_copies_of_a_repeated_eigenvalue_are_swapped_in():
    # three copies of one random 10-node component plus one other: Krylov solves
    # find one copy of a repeated eigenvalue at a time, and the cut check swaps in the rest.
    # At density 0.2, seed 5 the main solve returns an unconverged pair in place of a
    # missed copy; only the basis returned is gated, so the swap replaces it
    wrong = []
    for density, seed in itertools.product((0.3, 0.2), range(40)):
        a = random_connected_graph(10, density=density, seed=seed).adjacency
        b = random_connected_graph(10, density=density, seed=1000 + seed).adjacency
        adj = sp.block_diag([a, a, a, b], format="csr")
        want = np.sort(np.abs(np.linalg.eigvalsh(adj.toarray())))[::-1]
        for t in (3, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TieWarning)
                basis = top_magnitude_eigenpairs(adj, t)
            if not np.allclose(np.abs(basis.eigenvalues), want[:t], rtol=0, atol=1e-8):
                wrong.append((density, seed, t))
            vecs = basis.structure_matrix
            resid = np.linalg.norm(adj @ vecs - vecs * basis.eigenvalues, axis=0)
            assert np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(basis.eigenvalues)))
            assert np.allclose(vecs.T @ vecs, np.eye(t), rtol=0, atol=1e-9)
            assert np.all(np.abs(basis.eigenvalues)[:-1] >= np.abs(basis.eigenvalues)[1:])
    assert wrong == []


@pytest.mark.parametrize("n", [51, 101])
def test_cut_check_finds_the_second_copy_on_odd_cycles(n):
    # Cn (n odd) has -2cos(pi / n) twice; the deflated solve must see the copy the main
    # solve did not take
    g = path_or_cycle_graph(n, cycle=True)
    lam = np.linalg.eigvalsh(g.adjacency.toarray())
    want = lam[np.argsort(-np.abs(lam), kind="stable")]
    basis = top_magnitude_eigenpairs(g, t=3)
    assert not basis.tie_warning
    assert np.allclose(basis.eigenvalues, want[:3], rtol=0, atol=1e-9)
    assert np.allclose(want[1:3], -2 * np.cos(np.pi / n), rtol=0, atol=1e-12)
    with pytest.warns(TieWarning):
        assert top_magnitude_eigenpairs(g, t=2).tie_warning


def test_a_graph_returns_its_last_solve_per_source(monkeypatch):
    g = random_connected_graph(60, density=0.1, seed=2)
    adjacency = top_magnitude_eigenpairs(g, 4, seed=1)
    laplacian = laplacian_small_eigenpairs(g, 4, seed=1)

    def unreachable(*args):
        raise AssertionError("a remembered basis was solved again")

    select = spectral._select
    monkeypatch.setattr(spectral, "_select", unreachable)
    assert top_magnitude_eigenpairs(g, 4, seed=1) is adjacency
    assert laplacian_small_eigenpairs(g, 4, seed=1) is laplacian
    main_solves = []  # the cut check's deflated solves ask for one pair

    def counted(matvec, n, k, tol, seed, which):
        if k == 4:
            main_solves.append(which)
        return select(matvec, n, k, tol, seed, which)

    monkeypatch.setattr(spectral, "_select", counted)
    fresh = dataclasses.replace(g)  # a new Graph: nothing remembered
    assert_same_basis(top_magnitude_eigenpairs(fresh, 4, seed=1), adjacency)
    assert_same_basis(laplacian_small_eigenpairs(fresh, 4, seed=1), laplacian)
    assert main_solves == ["LM", "SA"]
    assert top_magnitude_eigenpairs(g, 4, seed=1) is adjacency
    assert main_solves == ["LM", "SA"]


def test_a_remembered_basis_cannot_go_stale():
    # zeroing one edge of this graph in place once left the t=3 eigenvalues remembered as
    # [6.6856, -4.5557, 4.4964], where a fresh solve gives [6.6644, -4.5953, 4.4745]
    g = random_connected_graph(60, density=0.1, seed=2)
    kept = top_magnitude_eigenpairs(g, 3)
    rows, cols = g.adjacency.nonzero()
    with pytest.raises(ValueError):
        g.adjacency[rows[0], cols[0]] = 0.0
    assert top_magnitude_eigenpairs(g, 3) is kept
    assert_same_basis(top_magnitude_eigenpairs(dataclasses.replace(g), 3), kept)


def test_remembered_solves_do_not_keep_a_graph_alive():
    g = random_connected_graph(60, density=0.1, seed=2)
    basis = top_magnitude_eigenpairs(g, 3)
    laplacian_small_eigenpairs(g, 3)
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None and basis.t == 3


@pytest.mark.parametrize("change", [{"t": 5}, {"tol": 1e-9}, {"seed": 2}],
                         ids=["t", "tol", "seed"])
@pytest.mark.parametrize("solve", [top_magnitude_eigenpairs, laplacian_small_eigenpairs])
def test_a_changed_solve_key_solves_again(solve, change):
    g = random_connected_graph(60, density=0.1, seed=2)
    key = {"t": 4, "tol": 1e-10, "seed": 1}
    kept = solve(g, **key)
    other = solve(g, **{**key, **change})
    assert other is not kept
    assert other is solve(g, **{**key, **change})  # the latest solve is the one kept
    assert solve(g, **key) is not kept


def test_a_remembered_tie_still_warns():
    # C40 at t=3 cuts inside the pair at 2cos(2 pi / 40), as in the ARPACK tie test
    g = path_or_cycle_graph(40, cycle=True)
    with pytest.warns(TieWarning):
        first = top_magnitude_eigenpairs(g, t=3)
    with pytest.warns(TieWarning):
        again = top_magnitude_eigenpairs(g, t=3)
    assert again is first and again.tie_warning
    empty = graph_from_dense(np.zeros((3, 3)), sens=[0, 1, 0], labels=[0, 1, 0])
    for _ in range(2):
        with pytest.warns(DegenerateSpectrumWarning, match="kernel has dimension 3"):
            assert laplacian_small_eigenpairs(empty, t=1).degenerate_warning


@pytest.mark.parametrize("solve", [top_magnitude_eigenpairs, laplacian_small_eigenpairs])
def test_a_smaller_t_is_the_kept_solve_sliced(monkeypatch, solve):
    g = random_connected_graph(60, density=0.1, seed=2)
    fresh = {t: solve(dataclasses.replace(g), t, seed=1) for t in range(1, 6)}
    kept = solve(g, 6, seed=1)
    calls = recorded_select_calls(monkeypatch)
    for t, want in fresh.items():
        got = solve(g, t, seed=1)
        assert np.array_equal(got.eigenvalues, kept.eigenvalues[:t])
        assert np.array_equal(got.structure_matrix, kept.structure_matrix[:, :t])
        assert np.array_equal(got.residuals, kept.residuals[:t])
        for arr in (got.eigenvalues, got.structure_matrix, got.residuals):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12)
        assert np.allclose(got.structure_matrix, want.structure_matrix, rtol=0, atol=1e-8)
        assert (got.tie_warning, got.degenerate_warning) == (want.tie_warning,
                                                             want.degenerate_warning)
    assert solve(g, 6, seed=1) is kept and calls == []


def flag_and_warnings(solve, g, t):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = solve(g, t)
    return basis.tie_warning, basis.degenerate_warning, [w.category for w in caught]


def test_a_slice_flags_a_tie_as_a_solve_would(monkeypatch):
    # C40's magnitudes are 2 twice, then 2cos(2 pi / 40) and 2cos(4 pi / 40) four times
    # each: t = 1, 3, 4 and 5 cut inside a tie, t = 2 and 6 between two
    g = path_or_cycle_graph(40, cycle=True)
    fresh = [flag_and_warnings(top_magnitude_eigenpairs, dataclasses.replace(g), t)
             for t in range(1, 7)]
    assert [tie for tie, _, _ in fresh] == [True, False, True, True, True, False]
    with pytest.warns(TieWarning):
        top_magnitude_eigenpairs(g, t=7)
    calls = recorded_select_calls(monkeypatch)
    assert [flag_and_warnings(top_magnitude_eigenpairs, g, t) for t in range(1, 7)] == fresh
    assert calls == []


def test_a_laplacian_slice_warns_of_the_kernel_a_solve_would_hit(monkeypatch):
    # three components: t = 2 holds the kernel past the constant vector, t = 1 does not
    g = graph_from_dense(np.zeros((3, 3)), sens=[0, 1, 0], labels=[0, 1, 0])
    assert flag_and_warnings(laplacian_small_eigenpairs, g, 2) == (False, False, [])
    calls = recorded_select_calls(monkeypatch)
    with pytest.warns(DegenerateSpectrumWarning, match="kernel has dimension 3"):
        assert laplacian_small_eigenpairs(g, t=1).degenerate_warning
    assert calls == []


def test_a_laplacian_call_counts_components_once(monkeypatch):
    g = graph_from_dense(np.zeros((3, 3)), sens=[0, 1, 0], labels=[0, 1, 0])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return connected_components(*args, **kwargs)

    monkeypatch.setattr(spectral, "connected_components", counted)
    for t, degenerate in ((1, True), (2, False), (1, True)):  # a solve, a solve, a slice
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSpectrumWarning)
            assert laplacian_small_eigenpairs(g, t).degenerate_warning == degenerate
    assert len(calls) == 3


@pytest.mark.parametrize("change", [{"t": 5}, {"tol": 1e-9}, {"seed": 2}],
                         ids=["t", "tol", "seed"])
@pytest.mark.parametrize("solve", [top_magnitude_eigenpairs, laplacian_small_eigenpairs])
def test_a_new_solve_replaces_the_kept_basis(monkeypatch, solve, change):
    # a larger t still serves the smaller one; another tol or seed leaves nothing to serve it
    g = random_connected_graph(60, density=0.1, seed=2)
    key = {"t": 4, "tol": 1e-10, "seed": 1}
    solve(g, **key)
    replaced = solve(g, **{**key, **change})
    calls = recorded_select_calls(monkeypatch)
    solve(g, **key)
    assert (calls == []) == ("t" in change)
    assert (solve(g, **{**key, **change}) is replaced) == ("t" in change)


@pytest.mark.parametrize("operator", ["graph", "sparse", "dense"])
def test_basis_arrays_are_read_only(operator):
    g = random_connected_graph(30, density=0.2, seed=4)
    a = {"graph": g, "sparse": g.adjacency, "dense": g.adjacency.toarray()}[operator]
    bases = [top_magnitude_eigenpairs(a, 3), top_magnitude_eigenpairs(a, 0)]
    if operator == "graph":
        bases.append(laplacian_small_eigenpairs(g, 3))
    for basis in bases:
        for arr in (basis.eigenvalues, basis.structure_matrix, basis.residuals):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
    if operator != "graph":  # an operator other than a Graph is solved every time
        assert top_magnitude_eigenpairs(a, 3) is not bases[0]


@pytest.fixture(scope="module")
def past_the_gap_graphs():
    return {"benchmark_graph": benchmark_graph(4000),
            "sensitive_block_graph": sensitive_block_graph(2000)}


def assert_same_basis(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.structure_matrix, want.structure_matrix)
    assert np.array_equal(got.residuals, want.residuals)
    assert got.tie_warning == want.tie_warning


@pytest.mark.parametrize("name", ["benchmark_graph", "sensitive_block_graph"])
def test_cut_ladder_returns_the_single_screen_basis(monkeypatch, past_the_gap_graphs, name):
    # a 1e-4 rung can only end the cut check with "no tie, no missed pair", so the basis
    # equals the one of a 1e-1 screen followed directly by the full-tolerance solve
    g = past_the_gap_graphs[name]
    ladder = [top_magnitude_eigenpairs(g, t) for t in range(5, 9)]
    monkeypatch.setattr(spectral, "_LOOSE_CUT_TOLS", (1e-1,))
    fresh = dataclasses.replace(g)  # a copy remembers no solve
    for t, got in zip(range(5, 9), ladder):
        assert_same_basis(got, top_magnitude_eigenpairs(fresh, t))


def recorded_select_calls(monkeypatch, fail_loose=False):
    calls = []
    select = spectral._select

    def recording(matvec, n, k, tol, *args):
        calls.append((k, tol))
        if fail_loose and k == 1 and tol in spectral._LOOSE_CUT_TOLS:
            raise ConvergenceError("loose rung failed")
        return select(matvec, n, k, tol, *args)

    monkeypatch.setattr(spectral, "_select", recording)
    return calls


def test_past_the_gap_cut_settles_without_a_full_tolerance_solve(monkeypatch,
                                                                 past_the_gap_graphs):
    # |lambda_5| and |lambda_6| of benchmark_graph lie inside its clustered bulk: the 1e-1
    # screen cannot separate them, the 1e-4 rung does
    calls = recorded_select_calls(monkeypatch)
    top_magnitude_eigenpairs(dataclasses.replace(past_the_gap_graphs["benchmark_graph"]), 5,
                             tol=1e-10)
    assert calls == [(5, 1e-10), (1, 1e-1), (1, 1e-4)]


def test_loose_rungs_that_fail_pass_on_to_the_full_tolerance_solve(monkeypatch,
                                                                   past_the_gap_graphs):
    g = past_the_gap_graphs["benchmark_graph"]
    want = top_magnitude_eigenpairs(dataclasses.replace(g), 5)  # g may keep a larger t
    calls = recorded_select_calls(monkeypatch, fail_loose=True)
    assert_same_basis(top_magnitude_eigenpairs(dataclasses.replace(g), 5), want)
    assert calls == [(5, 1e-10), (1, 1e-1), (1, 1e-4), (1, 1e-10)]


@pytest.mark.parametrize("solve,t", [(top_magnitude_eigenpairs, 400),
                                     (top_magnitude_eigenpairs, 1000),
                                     (laplacian_small_eigenpairs, 999)],
                         ids=["adjacency_arpack", "adjacency_dense", "laplacian"])
def test_structure_solve_that_cannot_fit_is_refused_before_it_allocates(monkeypatch, solve, t):
    # 8 MB of physical memory: a t=5 solve at n=1000 charges 0.4 MB, t=400 (ARPACK with
    # ncv=801) 27.5 MB and the dense route (t >= 500) 52 MB
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 8 * 10**6}
    monkeypatch.setattr("fairformer.synth.os.sysconf", pages.__getitem__)
    g = benchmark_graph(1000)
    assert solve(g, 5).t == 5
    tracemalloc.start()
    try:
        with pytest.raises(FairformerError, match=rf"structure solve of t={t} at n=1000 needs"):
            solve(g, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_edgeless_graph_is_all_ties():
    # n = 20 takes the dense route; at n = 40 ARPACK stops on the zero operator
    for n in (20, 40):
        g = graph_from_dense(np.zeros((n, n)))
        with pytest.warns(TieWarning):
            basis = top_magnitude_eigenpairs(g, t=5)
        assert np.array_equal(basis.eigenvalues, np.zeros(5))
        assert np.allclose(basis.structure_matrix.T @ basis.structure_matrix, np.eye(5))


def test_residual_invariant_per_column():
    g = random_connected_graph(40, density=0.2, seed=5)
    tol = 1e-10
    basis = top_magnitude_eigenpairs(g, t=6, tol=tol)
    a = g.adjacency
    for i in range(basis.t):
        resid = np.linalg.norm(a @ basis.structure_matrix[:, i]
                               - basis.eigenvalues[i] * basis.structure_matrix[:, i])
        assert resid <= tol * max(1.0, abs(basis.eigenvalues[i]))
    assert np.all(np.abs(basis.eigenvalues)[:-1] >= np.abs(basis.eigenvalues)[1:] - 1e-12)
    assert np.allclose(np.linalg.norm(basis.structure_matrix, axis=0), 1.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_matches_jacobi_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(8, 60))
    t_random = int(rng.integers(1, min(8, n)))
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    lam_ref, vec_ref = dense_eig(a)
    # every seed draws n > 20, so n // 2 - 1 is the last ARPACK case (ncv = 2t + 1 < n);
    # n // 2 and above take the dense route
    for t in (t_random, n // 2 - 1, n // 2, n - 3, n - 2, n - 1, n):
        basis = top_magnitude_eigenpairs(a, t=t, tol=1e-11)
        assert np.allclose(basis.eigenvalues, lam_ref[:t], atol=1e-6)
        for i in range(t):
            assert np.allclose(basis.structure_matrix[:, i], vec_ref[:, i], atol=1e-6)


@pytest.mark.parametrize("solve", [top_magnitude_eigenpairs, laplacian_small_eigenpairs])
def test_krylov_basis_spanning_the_graph_routes_to_eigh(monkeypatch, solve):
    # n = 41: t = 19 runs ARPACK with ncv = 39; t = 20 would need ncv = 41 = n
    g = random_connected_graph(41, density=0.2, seed=3)
    dense = g.adjacency.toarray()
    if solve is top_magnitude_eigenpairs:
        want = np.sort(np.abs(np.linalg.eigvalsh(dense)))[::-1]
    else:
        want = np.linalg.eigvalsh(np.diag(dense.sum(axis=1)) - dense)[1:]
    arpack_ks = []

    def recording(op, k, **kwargs):
        arpack_ks.append(k)
        return eigsh(op, k, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", recording)
    for t, on_arpack in ((19, True), (20, False)):
        basis = solve(g, t)
        got = np.abs(basis.eigenvalues) if solve is top_magnitude_eigenpairs else basis.eigenvalues
        assert np.allclose(got, want[:t], rtol=0, atol=1e-9)
        assert (t in arpack_ks) == on_arpack  # at t = 20 only the k = 1 cut check runs ARPACK
    assert set(arpack_ks) <= {19, 1}


def test_restart_cap_raises_convergence_error(monkeypatch):
    g = benchmark_graph(2000)
    monkeypatch.setattr(spectral, "_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError, match=r"max_iters=1 \(Krylov dimension ncv=20\)"):
        top_magnitude_eigenpairs(g, 5)
    with pytest.raises(ConvergenceError, match=r"max_iters=1 \(Krylov dimension ncv=20\)"):
        laplacian_small_eigenpairs(g, 5)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("case,cause", [("non_symmetric", "operator is not symmetric"),
                                        ("nan_diagonal", "operator has non-finite entries")],
                         ids=["non_symmetric", "nan_diagonal"])
def test_bad_operator_is_refused_before_the_solve(monkeypatch, sparse, case, cause):
    if case == "non_symmetric":
        a = np.random.default_rng(0).standard_normal((10, 10))
    else:
        a = np.eye(10)
        a[3, 3] = np.nan

    def unreachable(*args):
        raise AssertionError("the solve ran on a bad operator")

    monkeypatch.setattr(spectral, "_select", unreachable)
    with pytest.raises(FairformerError, match=f"^{cause}$") as exc:
        top_magnitude_eigenpairs(sp.csr_matrix(a) if sparse else a, 2)
    assert type(exc.value) is FairformerError


def test_t_zero_and_out_of_range():
    g = triangle_graph()
    basis = top_magnitude_eigenpairs(g, t=0)
    assert basis.t == 0
    with pytest.raises(FairformerError):
        top_magnitude_eigenpairs(g, t=4)
    basis = laplacian_small_eigenpairs(g, t=0)
    assert basis.t == 0 and basis.structure_matrix.shape == (3, 0)
    with pytest.raises(FairformerError, match=r"t=3 out of range for the deflated Laplacian of n=3"):
        laplacian_small_eigenpairs(g, t=3)


def test_laplacian_triangle():
    basis = laplacian_small_eigenpairs(triangle_graph(), t=1)
    assert abs(basis.eigenvalues[0] - 3.0) < 1e-9
    assert abs(basis.structure_matrix[:, 0].sum()) < 1e-9  # orthogonal to constant


def test_laplacian_path2():
    basis = laplacian_small_eigenpairs(path2_graph(), t=1)
    assert abs(basis.eigenvalues[0] - 2.0) < 1e-9
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.allclose(basis.structure_matrix[:, 0], expected, atol=1e-9)


def test_laplacian_edgeless_degenerate():
    g = graph_from_dense(np.zeros((3, 3)), sens=[0, 1, 0], labels=[0, 1, 0])
    with pytest.warns(DegenerateSpectrumWarning):
        basis = laplacian_small_eigenpairs(g, t=1)
    assert basis.degenerate_warning
    assert abs(basis.eigenvalues[0]) < 1e-9


def test_laplacian_matches_dense_oracle():
    g = random_connected_graph(30, density=0.2, seed=9)
    basis = laplacian_small_eigenpairs(g, t=4, tol=1e-11)
    dense = g.adjacency.toarray()
    lap = np.diag(dense.sum(axis=1)) - dense
    lam_all = np.linalg.eigvalsh(lap)
    assert np.allclose(np.sort(basis.eigenvalues), lam_all[1:5], atol=1e-6)


def test_fuse_concatenates():
    g = graph_from_dense(np.zeros((2, 2)))
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = Graph(adjacency=g.adjacency, features=feats, sensitive_index=1,
              labels=np.array([0, 1]), label_mask=np.ones(2, dtype=bool))
    basis = top_magnitude_eigenpairs(np.diag([5.0, 2.0]), t=1)
    fused = fuse(g, basis)
    a, b = basis.structure_matrix[0, 0], basis.structure_matrix[1, 0]
    assert isinstance(fused, np.ndarray)
    assert np.array_equal(fused, [[1.0, 0.0, a], [0.0, 1.0, b]])
    assert fused.shape[1] == 3


def test_fuse_empty_basis_is_identity():
    g = triangle_graph()
    basis = top_magnitude_eigenpairs(g, t=0)
    fused = fuse(g, basis)
    assert np.array_equal(fused, g.features)


def test_fuse_dimension_mismatch():
    g = triangle_graph()
    basis = top_magnitude_eigenpairs(np.diag([1.0, 2.0]), t=1)
    with pytest.raises(FairformerError):
        fuse(g, basis)


def test_fuse_scaling_keeps_a_column_flat_up_to_rounding():
    # the Perron vector of C51 is 1/sqrt(51) up to the solver's rounding; min-max scaling
    # would stretch that noise over [-1, 1]
    g = path_or_cycle_graph(51, cycle=True)
    basis = top_magnitude_eigenpairs(g, t=1)
    perron = basis.structure_matrix[:, 0]
    assert 0 < np.ptp(perron) <= 1e-6 * np.max(np.abs(perron))
    assert np.array_equal(fuse(g, basis, scale_structure=True)[:, g.d], perron)
    varied = top_magnitude_eigenpairs(random_connected_graph(51, density=0.2, seed=0), t=1)
    scaled = fuse(g, varied, scale_structure=True)[:, g.d]
    assert scaled.min() == -1.0 and scaled.max() == 1.0


def test_fuse_slices_recover_inputs_bit_exact():
    g = random_connected_graph(25, density=0.25, seed=11)
    basis = top_magnitude_eigenpairs(g, t=3)
    fused = fuse(g, basis)
    assert np.array_equal(fused[:, :g.d], g.features)
    assert np.array_equal(fused[:, g.d:], basis.structure_matrix)


def test_alignment_eigenvector_input_is_fixed_point():
    # a triangle (lambda 2) beside a 3-node path (lambda +-sqrt 2, 0): the sensitive
    # column marks the triangle, so it is the dominant eigenvector up to scale
    dense = np.zeros((6, 6))
    dense[:3, :3] = np.ones((3, 3)) - np.eye(3)
    dense[3:, 3:] = np.eye(3, k=1) + np.eye(3, k=-1)
    g = graph_from_dense(dense, sens=[1, 1, 1, 0, 0, 0])
    report = spectral_alignment_report(g, k_max=5)
    assert np.all(np.abs(report.direct - 1.0) < 1e-9)
    assert np.all(report.gaps < 1e-9)
    assert report.decay_ok


@pytest.mark.parametrize("seed", range(4))
def test_alignment_identity_and_decay(seed):
    g = random_connected_graph(30, density=0.25, seed=40 + seed)
    report = spectral_alignment_report(g, k_max=6)
    assert report.identity_max_error <= 1e-8
    assert report.decay_applicable
    assert report.decay_ok
    # limit is the cosine against the dominant eigenvector
    assert abs(report.limit - report.alphas[0] / np.sqrt(np.sum(report.alphas ** 2))) < 1e-12


def test_alignment_zero_column_rejected():
    g = triangle_graph(sens=[0, 0, 0], labels=[0, 1, 1])
    with pytest.raises(UndefinedCosineError):
        spectral_alignment_report(g, k_max=3)


def test_alignment_requires_strict_gap():
    with pytest.raises(SpectralGapError):
        spectral_alignment_report(path2_graph(), k_max=3)


def test_alignment_rejects_large_graphs():
    big = Graph(adjacency=sp.identity(501, format="csr"),
                features=np.ones((501, 2)) * np.array([[1.0, 0.0]]),
                sensitive_index=1, labels=np.zeros(501, dtype=int),
                label_mask=np.ones(501, dtype=bool))
    with pytest.raises(FairformerError):
        spectral_alignment_report(big, k_max=3)

