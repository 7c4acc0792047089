"""Minimal dense-tensor engine with reverse-mode differentiation.

Only the operations the hop-token transformer needs are provided, each with
an explicit backward rule so the whole tape stays auditable. Everything runs
in float64; broadcasting is restricted to the bias-add pattern (a trailing
1-D vector added over the last axis), which `matmul` also takes as `bias=`.

Grads are never written in place. A tensor's first grad is kept by reference
(it may be the very array another tensor holds, or a view of it) and each
later one is added out of place, so no closure may write into the `g` it is
given or into a grad it has passed on. Kernels write in place only into
arrays they have just allocated, with the same IEEE operations in the same
order as the out-of-place expressions, so their results match those bit for
bit.

`backward` frees the tape as it sweeps it: each interior node gives up its
grad, its closure (and with it the forward values the closure saved) and its
parents once its closure has run, while leaves keep their grads. A swept node
cannot be differentiated through again; reaching one raises `FairformerError`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import FairformerError

_SQRT_2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A dense float64 array plus an optional gradient accumulator.

    Tensors produced by ops keep references to their parents and a backward
    closure; `backward(loss)` replays those closures in reverse topological
    order and then drops them (`_done` marks a swept node). Leaf tensors with
    ``requires_grad=False`` never receive a grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_done")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t, g):
    """Add `g` to `t`'s grad: the first by reference, later ones out of place.

    `g` may be shared (a residual `add` hands the same array to both operands),
    so neither `t.grad` nor `g` is ever written in place.
    """
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; `b` may be a 1-D bias broadcast over the last axis."""
    if a.data.shape != b.data.shape:
        if b.data.ndim != 1 or a.data.shape[-1] != b.data.shape[0]:
            raise FairformerError(
                f"add: shapes {a.data.shape} and {b.data.shape} are neither equal "
                "nor a bias-add pattern")

    def backward(g):
        _accumulate(a, g)
        if b.data.shape == a.data.shape:
            _accumulate(b, g)
        else:
            _accumulate(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise FairformerError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _result(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def backward(g):
        _accumulate(a, g * c)

    return _result(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product, plus an optional 1-D `bias` over the last axis.

    Supported shapes: (m,p)@(p,q), (B,m,p)@(p,q) and (B,m,p)@(B,p,q); `bias`
    (q,) only with a 2-D `b`. Backward: dA = g·Bᵀ, dB = Aᵀ·g, dbias = the row
    sum of g, each only for an operand that requires grad (the projection's
    token input does not). (…,p)@(p,q) runs as one (rows,p)@(p,q) GEMM both
    ways, which also does the batch-sum of dB. The bias is added in place to
    the GEMM's fresh output: the same sums as `add(matmul(a, b), bias)`
    without a second activation.
    """
    ad, bd = a.data, b.data
    if ad.ndim in (2, 3) and bd.ndim == 2:
        if ad.shape[-1] != bd.shape[0]:
            raise FairformerError(f"matmul: inner dims {ad.shape} vs {bd.shape}")
        if bias is not None and bias.data.shape != bd.shape[1:]:
            raise FairformerError(f"matmul: bias {bias.data.shape} does not match {bd.shape}")
        flat = ad.reshape(math.prod(ad.shape[:-1]), ad.shape[-1])
        out = flat @ bd
        if bias is not None:
            out += bias.data

        def backward(g):
            g2 = g.reshape(flat.shape[0], g.shape[-1])
            if a.requires_grad:
                _accumulate(a, (g2 @ bd.T).reshape(ad.shape))
            if b.requires_grad:
                _accumulate(b, flat.T @ g2)
            if bias is not None and bias.requires_grad:
                _accumulate(bias, g2.sum(axis=0))

        parents = (a, b) if bias is None else (a, b, bias)
        return _result(out.reshape(ad.shape[:-1] + bd.shape[1:]), parents, backward)

    if bias is not None:
        raise FairformerError("matmul: a bias needs a 2-D right operand")
    if ad.ndim != 3 or bd.ndim != 3:
        raise FairformerError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")
    if ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
        raise FairformerError(f"matmul: batch shapes {ad.shape} vs {bd.shape}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ bd.transpose(0, 2, 1))
        if b.requires_grad:
            _accumulate(b, ad.transpose(0, 2, 1) @ g)

    return _result(ad @ bd, (a, b), backward)


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    axes = list(range(a.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]

    def backward(g):
        _accumulate(a, g.transpose(axes))

    return _result(a.data.transpose(axes), (a,), backward)


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return _result(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    src = a.data.shape

    def backward(g):
        _accumulate(a, g.reshape(src))

    return _result(a.data.reshape(shape), (a,), backward)


def pick(a: Tensor, rows, cols) -> Tensor:
    """Gather a[rows[i], cols[i]] into a 1-D tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, cols), g)
        _accumulate(a, full)

    return _result(a.data[rows, cols].copy(), (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    if not np.all(np.isfinite(a.data)):
        raise FairformerError("softmax_rows: non-finite input")
    s = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def backward(g):
        da = g * s
        dot = da.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=da)
        da *= s
        _accumulate(a, da)

    return _result(s, (a,), backward)


def log_softmax_rows(a: Tensor) -> Tensor:
    """Numerically stable log-softmax over the last axis."""
    if not np.all(np.isfinite(a.data)):
        raise FairformerError("log_softmax_rows: non-finite input")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    s = np.exp(out)

    def backward(g):
        _accumulate(a, g - s * g.sum(axis=-1, keepdims=True))

    return _result(out, (a,), backward)


_LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise FairformerError(f"layer_norm: affine shape must be ({d},)")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / d  # as ndarray.var sums it
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        dx = g * gain.data
        m1 = dx.mean(axis=-1, keepdims=True)
        t = dx * xhat
        m2 = t.mean(axis=-1, keepdims=True)
        dx -= m1
        dx -= np.multiply(xhat, m2, out=t)
        dx *= inv
        _accumulate(x, dx)
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, np.multiply(g, xhat, out=t).sum(axis=lead))
        _accumulate(bias, g.sum(axis=lead))

    return _result(out, (x, gain, bias), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x), with Phi the standard normal CDF."""
    x = a.data
    cdf = np.divide(x, _SQRT_2, out=np.empty_like(x))  # out= keeps a 0-d x an array
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def backward(g):
        da = np.square(x, out=np.empty_like(x))  # then pdf, then g * (cdf + x * pdf)
        da *= -0.5
        np.exp(da, out=da)
        da *= _INV_SQRT_2PI
        da *= x
        da += cdf
        da *= g
        _accumulate(a, da)

    return _result(x * cdf, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    """Reduce to a scalar tensor."""

    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    return _result(a.data.sum(), (a,), backward)


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad leaf reachable from `loss`.

    The recorded graph is swept once in reverse topological order, and the
    sweep frees what it has consumed: once an interior node's closure has run,
    its grad, closure and parents are dropped, so the closures' saved forward
    values go with them and a training step holds its forward tape plus one
    frontier of grads. Leaves keep their grads. A tape is therefore good for
    one backward: reaching a swept node, from the same loss or from a second
    loss that shares a subgraph with the first, raises `FairformerError`
    ("tape already consumed") before any grad is touched.
    """
    if loss.data.shape != ():
        raise FairformerError("backward: loss must be a scalar tensor")
    if not loss.requires_grad:
        return

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node._done:
            raise FairformerError("backward: tape already consumed; run a new forward pass")
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward_fn is None:  # a leaf: its grad is the result
            continue
        node._backward_fn(node.grad)
        node.grad, node._backward_fn, node._parents, node._done = None, None, (), True


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
