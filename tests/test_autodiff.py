import numpy as np
import pytest
from scipy.special import erf

import fairformer.autodiff as ad
from fairformer.errors import FairformerError
from fairformer.oracles import fd_gradient


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = max(np.max(np.abs(want)), 1e-8)
    return np.max(np.abs(got - want)) / denom


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def sweep_with_upstream(out, upstream):
    """Backward from `out` with `upstream` as its grad, bit for bit (1.0 * u == u)."""
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(upstream))))


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


def test_matmul_3d_by_2d_on_permuted_input_matches_einsum():
    rng = np.random.default_rng(17)
    a = ad.Tensor(rng.standard_normal((4, 5, 3)).transpose(1, 0, 2), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    assert not a.data.flags["C_CONTIGUOUS"]
    out = ad.matmul(a, b)
    np.testing.assert_allclose(out.data, np.einsum("bmp,pq->bmq", a.data, b.data),
                               rtol=0, atol=1e-12)
    g = rng.standard_normal(out.data.shape)
    ad.backward(ad.sum_all(ad.mul(out, ad.Tensor(g))))
    np.testing.assert_allclose(a.grad, np.einsum("bmq,pq->bmp", g, b.data), rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, np.einsum("bmp,bmq->pq", a.data, g), rtol=0, atol=1e-12)


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
    with pytest.raises(FairformerError, match="tape already consumed"):
        ad.backward(loss)


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    rng = np.random.default_rng(21)
    x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    frozen = ad.Tensor(rng.standard_normal((3, 2)))
    h = ad.matmul(x, w)
    y = ad.gelu(ad.mul(h, frozen))
    z = ad.softmax_rows(y)
    loss = ad.sum_all(ad.mul(z, ad.Tensor(rng.standard_normal((3, 2)))))
    interior = [h, y, z, loss]
    assert all(t._backward_fn is not None and t._parents for t in interior)
    ad.backward(loss)
    for t in interior:
        assert t.grad is None and t._backward_fn is None and t._parents == ()
    assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)
    assert frozen.grad is None


def test_second_loss_through_a_swept_subgraph_is_error():
    # y = 2x feeds both losses, whose true total gradient is 2 + 6 = 8; sweeping
    # on with y's kept grad would read 10, with y's closure dropped silently 2
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    y = ad.scale(x, 2.0)
    ad.backward(ad.sum_all(y))
    assert np.array_equal(x.grad, [2.0])
    with pytest.raises(FairformerError, match="tape already consumed"):
        ad.backward(ad.sum_all(ad.scale(y, 3.0)))
    assert np.array_equal(x.grad, [2.0])


def test_grad_accumulates_over_shared_input():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    loss = ad.sum_all(ad.add(x, x))
    ad.backward(loss)
    assert np.allclose(x.grad, 2.0)


def test_grads_are_never_written_in_place():
    # one residual add hands the same upstream array to both leaves; x then takes
    # a second grad, which must not reach y's grad through the shared array
    rng = np.random.default_rng(22)
    xv, yv = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    w, v = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    x, y = ad.Tensor(xv, requires_grad=True), ad.Tensor(yv, requires_grad=True)

    def build(ts, spy=None):
        s = ad.add(ts[0], ts[1])
        if spy is not None:
            inner = s._backward_fn

            def recording(g):
                spy.append((g, g.copy()))
                inner(g)

            s._backward_fn = recording
        residual = ad.sum_all(ad.mul(s, ad.Tensor(w)))
        return ad.add(residual, ad.sum_all(ad.mul(ts[0], ad.Tensor(v))))

    incoming = []
    ad.backward(build([x, y], incoming))
    [(g, before)] = incoming
    assert y.grad is g and x.grad is not g
    assert np.array_equal(g, before)
    fd = fd_gradient(lambda arrs: float(build([ad.Tensor(a) for a in arrs]).data),
                     [xv.copy(), yv.copy()], step=1e-5)
    assert rel_err(x.grad, fd[0]) <= 1e-6 and rel_err(y.grad, fd[1]) <= 1e-6

    first = (x.grad, y.grad)
    ad.zero_grads([x, y])
    ad.backward(build([x, y]))
    assert same_bits(x.grad, first[0]) and same_bits(y.grad, first[1])


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
def test_matmul_bias_matches_add_of_matmul_bit_for_bit(shape):
    rng = np.random.default_rng(23)
    arrays = [rng.standard_normal(shape), rng.standard_normal((4, 6)), rng.standard_normal(6)]
    upstream = rng.standard_normal(shape[:-1] + (6,))
    runs = []
    for fused in (True, False):
        a, w, b = (ad.Tensor(v, requires_grad=True) for v in arrays)
        out = ad.matmul(a, w, bias=b) if fused else ad.add(ad.matmul(a, w), b)
        runs.append([out.data])
        sweep_with_upstream(out, upstream)
        runs[-1] += [a.grad, w.grad, b.grad]
    assert all(same_bits(got, want) for got, want in zip(*runs))


def test_matmul_bias_shape_is_checked():
    a, w = ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 4)))
    with pytest.raises(FairformerError, match="bias"):
        ad.matmul(a, w, bias=ad.Tensor(np.ones(3)))
    with pytest.raises(FairformerError, match="bias"):
        ad.matmul(ad.Tensor(np.ones((2, 2, 3))), ad.Tensor(np.ones((2, 3, 4))),
                  bias=ad.Tensor(np.ones(4)))


# The out-of-place expressions the in-place kernels replace; each must give the
# same bits, forward and backward.
_SQRT_2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def reference_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x / _SQRT_2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x ** 2)
    return [x * cdf, g * (cdf + x * pdf)]


def reference_layer_norm(x, gain, bias, g, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    gg = g * gain
    m1 = gg.mean(axis=-1, keepdims=True)
    m2 = (gg * xhat).mean(axis=-1, keepdims=True)
    lead = tuple(range(g.ndim - 1))
    return [xhat * gain + bias, (gg - m1 - xhat * m2) * inv, (g * xhat).sum(axis=lead),
            g.sum(axis=lead)]


def reference_softmax_rows(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return [s, s * (g - (g * s).sum(axis=-1, keepdims=True))]


def run_op(op, arrays, upstream):
    """[forward, grad of each input] through the tape; a 0-d output is its own loss."""
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    if out.data.ndim == 0:
        ad.backward(ad.scale(out, float(upstream)))
    else:
        sweep_with_upstream(out, upstream)
    return [out.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("shape", [(), (7,), (4, 9), (2, 3, 16)])
def test_gelu_matches_the_out_of_place_expressions_bit_for_bit(shape):
    rng = np.random.default_rng(24)
    x = rng.standard_normal(shape) * 3.0
    g = np.asarray(rng.standard_normal(shape))
    got = run_op(ad.gelu, [x], g)
    assert all(same_bits(a, b) for a, b in zip(got, reference_gelu(np.asarray(x), g)))


@pytest.mark.parametrize("shape", [(7,), (4, 9), (2, 3, 16)])
def test_layer_norm_matches_the_out_of_place_expressions_bit_for_bit(shape):
    rng = np.random.default_rng(25)
    x = rng.standard_normal(shape) * 2.0 + 0.5
    gain, bias = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
    g = rng.standard_normal(shape)
    got = run_op(ad.layer_norm, [x, gain, bias], g)
    assert all(same_bits(a, b) for a, b in zip(got, reference_layer_norm(x, gain, bias, g)))


@pytest.mark.parametrize("shape", [(7,), (4, 9), (2, 3, 16)])
def test_softmax_rows_matches_the_out_of_place_expressions_bit_for_bit(shape):
    rng = np.random.default_rng(26)
    x = rng.standard_normal(shape) * 4.0
    g = rng.standard_normal(shape)
    got = run_op(ad.softmax_rows, [x], g)
    assert all(same_bits(a, b) for a, b in zip(got, reference_softmax_rows(x, g)))


def test_checkpoint_rejects_garbage(tmp_path):
    from fairformer.model import load_model
    path = tmp_path / "junk.bin"
    path.write_bytes(b"nope")
    with pytest.raises(FairformerError, match="junk.bin"):
        load_model(path)
