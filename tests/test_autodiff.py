import numpy as np
import pytest

import fairformer.autodiff as ad
from fairformer.errors import FairformerError
from fairformer.oracles import fd_gradient


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = max(np.max(np.abs(want)), 1e-8)
    return np.max(np.abs(got - want)) / denom


def check_grads(build, arrays, tol=1e-5, step=1e-5):
    """Compare tape gradients of a scalar-valued builder against central differences."""
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(leaves)
    ad.backward(loss)

    def numeric(arrs):
        ts = [ad.Tensor(a) for a in arrs]
        return float(build(ts).data)

    fd = fd_gradient(numeric, [np.array(a, dtype=float) for a in arrays], step=step)
    for leaf, g in zip(leaves, fd):
        assert leaf.grad is not None
        assert rel_err(leaf.grad, g) <= tol


def weighted_sum(t, rng):
    w = ad.Tensor(rng.standard_normal(t.data.shape))
    return ad.sum_all(ad.mul(t, w))


def test_matmul_identity():
    x = np.arange(6.0).reshape(2, 3)
    out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor(x))
    assert np.array_equal(out.data, x)


def test_matmul_hand_arithmetic():
    out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(FairformerError):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("seed", range(3))
def test_matmul_grad(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    check_grads(lambda ts: weighted_sum(ad.matmul(ts[0], ts[1]), np.random.default_rng(99)),
                [a, b])


def test_matmul_batched_grad():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 5))
    c = rng.standard_normal((2, 5, 3))
    check_grads(
        lambda ts: weighted_sum(ad.matmul(ad.matmul(ts[0], ts[1]), ts[2]),
                                np.random.default_rng(5)),
        [a, b, c])


def test_softmax_symmetric_row():
    out = ad.softmax_rows(ad.Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])


def test_softmax_large_values_stable():
    out = ad.softmax_rows(ad.Tensor([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0] > 1 - 1e-12
    assert out.data[0, 1] < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    out = ad.softmax_rows(ad.Tensor(rng.standard_normal((6, 5)) * 10))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_softmax_nan_rejected():
    with pytest.raises(FairformerError):
        ad.softmax_rows(ad.Tensor([[np.nan, 0.0]]))


@pytest.mark.parametrize("seed", range(3))
def test_softmax_grad(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4, 4))
    check_grads(lambda ts: weighted_sum(ad.softmax_rows(ts[0]), np.random.default_rng(11)), [x])


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    ls = ad.log_softmax_rows(ad.Tensor(x)).data
    s = ad.softmax_rows(ad.Tensor(x)).data
    assert np.allclose(ls, np.log(s), atol=1e-12)


def test_log_softmax_grad():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3))
    check_grads(lambda ts: weighted_sum(ad.log_softmax_rows(ts[0]), np.random.default_rng(2)), [x])


def test_layer_norm_constant_row_zero_before_affine():
    x = ad.Tensor(np.full((1, 4), 3.7))
    out = ad.layer_norm(x, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_closed_form():
    eps = 1e-5
    out = ad.layer_norm(ad.Tensor([[1.0, -1.0]]), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)),
                        eps=eps)
    expected = np.array([[1.0, -1.0]]) / np.sqrt(1.0 + eps)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_layer_norm_grad():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5))
    gain = rng.standard_normal(5)
    bias = rng.standard_normal(5)
    check_grads(
        lambda ts: weighted_sum(ad.layer_norm(ts[0], ts[1], ts[2]), np.random.default_rng(6)),
        [x, gain, bias])


def test_gelu_values():
    assert ad.gelu(ad.Tensor(0.0)).data == 0.0
    assert abs(ad.gelu(ad.Tensor(10.0)).data - 10.0) < 1e-6


def test_gelu_grad():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 3))
    check_grads(lambda ts: weighted_sum(ad.gelu(ts[0]), np.random.default_rng(3)), [x])


def test_add_bias_broadcast_grad():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal(4)
    check_grads(lambda ts: weighted_sum(ad.add(ts[0], ts[1]), np.random.default_rng(7)), [x, b])


def test_permute_reshape_pick_grads():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((2, 3, 4))

    def build(ts):
        y = ad.permute(ts[0], (1, 0, 2))
        y = ad.reshape(y, (3, 8))
        picked = ad.pick(y, [0, 1, 2], [1, 5, 7])
        return ad.sum_all(picked)

    check_grads(build, [x])


def test_backward_sum_is_ones():
    x = ad.Tensor(np.zeros((2, 2)), requires_grad=True)
    ad.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_composite_matches_fd():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 3))
    w = rng.standard_normal((3, 3))
    check_grads(
        lambda ts: weighted_sum(ad.softmax_rows(ad.matmul(ts[0], ts[1])),
                                np.random.default_rng(4)),
        [x, w], tol=1e-4)


def test_detached_tensor_has_no_grad():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    frozen = ad.Tensor(np.ones((2, 2)))
    loss = ad.sum_all(ad.mul(x, frozen))
    ad.backward(loss)
    assert x.grad is not None
    assert frozen.grad is None


def test_second_backward_is_error():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    loss = ad.sum_all(x)
    ad.backward(loss)
    with pytest.raises(FairformerError):
        ad.backward(loss)


def test_grad_accumulates_over_shared_input():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    loss = ad.sum_all(ad.add(x, x))
    ad.backward(loss)
    assert np.allclose(x.grad, 2.0)


def test_checkpoint_rejects_garbage(tmp_path):
    from fairformer.model import load_model
    path = tmp_path / "junk.bin"
    path.write_bytes(b"nope")
    with pytest.raises(FairformerError, match="junk.bin"):
        load_model(path)
