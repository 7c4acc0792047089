import numpy as np
import pytest

from fairformer.errors import FairformerError
from fairformer.oracles import (attention_direct, dense_eig, dense_power_apply,
                                fd_gradient, pairwise_auc)


def test_dense_eig_triangle():
    # complete graph on 3 nodes: spectrum {2, -1, -1}
    a = np.ones((3, 3)) - np.eye(3)
    lam, vecs = dense_eig(a)
    assert np.allclose(sorted(lam), [-1, -1, 2], atol=1e-10)
    assert abs(lam[0] - 2.0) < 1e-10  # magnitude sort puts 2 first
    assert np.allclose(vecs[:, 0], np.ones(3) / np.sqrt(3), atol=1e-9)


def test_dense_eig_identity_and_zero():
    lam_i, _ = dense_eig(np.eye(3))
    assert np.allclose(lam_i, 1.0)
    lam_z, _ = dense_eig(np.zeros((4, 4)))
    assert np.allclose(lam_z, 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_dense_eig_residuals(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2
    lam, vecs = dense_eig(a)
    assert np.all(np.abs(lam)[:-1] >= np.abs(lam)[1:] - 1e-12)
    for i in range(n):
        resid = np.linalg.norm(a @ vecs[:, i] - lam[i] * vecs[:, i])
        assert resid <= 1e-10 * max(1.0, abs(lam[i]))
    # orthonormality
    assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)


def test_dense_eig_rejects_asymmetric():
    with pytest.raises(FairformerError):
        dense_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_power_apply():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((10, 10))
    x = rng.standard_normal((10, 4))
    assert np.array_equal(dense_power_apply(m, x, 0), x)
    want = np.linalg.matrix_power(m, 3) @ x
    assert np.allclose(dense_power_apply(m, x, 3), want, atol=1e-9 * np.max(np.abs(want)))


def test_attention_direct_uniform_for_identical_tokens():
    rng = np.random.default_rng(4)
    d = 6
    x = np.tile(rng.standard_normal(d), (3, 1))
    w = [rng.standard_normal((d, d)) for _ in range(3)]
    out = attention_direct(x, *w)
    v = x @ w[2]
    assert np.allclose(out, v.mean(axis=0), atol=1e-12)


def test_pairwise_auc_cases():
    assert pairwise_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert pairwise_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    with pytest.raises(FairformerError):
        pairwise_auc([0.1, 0.2], [1, 1])


def test_fd_gradient_quadratic():
    grads = fd_gradient(lambda arrs: float(np.sum(arrs[0] ** 2)), [np.array([1.0, 2.0])])
    assert np.allclose(grads[0], [2.0, 4.0], atol=1e-8)


def test_fd_gradient_linear_exact():
    w = np.array([3.0, -1.0, 0.5])
    grads = fd_gradient(lambda arrs: float(w @ arrs[0]), [np.zeros(3)])
    assert np.allclose(grads[0], w, atol=1e-10)

