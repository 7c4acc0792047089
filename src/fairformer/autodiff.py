"""Minimal dense-tensor engine with reverse-mode differentiation.

Only the operations the hop-token transformer needs are provided, each with
an explicit backward rule so the whole tape stays auditable. Everything runs
in float64; broadcasting is restricted to the bias-add pattern (a trailing
1-D vector added over the last axis).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import FairformerError

_SQRT_2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A dense float64 array plus an optional gradient accumulator.

    Tensors produced by ops keep references to their parents and a backward
    closure; `backward(loss)` replays those closures in reverse topological
    order. Leaf tensors with ``requires_grad=False`` never receive a grad.
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
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _result(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)

    def backward(g):
        _accumulate(a, g * c)

    return _result(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supported shapes: (m,p)@(p,q), (B,m,p)@(p,q) and (B,m,p)@(B,p,q).
    Backward: dA = g·Bᵀ, dB = Aᵀ·g, with a batch-sum when b is un-batched.
    """
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise FairformerError(f"matmul: inner dims {ad.shape} vs {bd.shape}")

        def backward(g):
            _accumulate(a, g @ bd.T)
            _accumulate(b, ad.T @ g)

    elif ad.ndim == 3 and bd.ndim == 2:
        if ad.shape[2] != bd.shape[0]:
            raise FairformerError(f"matmul: inner dims {ad.shape} vs {bd.shape}")

        def backward(g):
            _accumulate(a, g @ bd.T)
            _accumulate(b, np.tensordot(ad, g, axes=([0, 1], [0, 1])))

    elif ad.ndim == 3 and bd.ndim == 3:
        if ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
            raise FairformerError(f"matmul: batch shapes {ad.shape} vs {bd.shape}")

        def backward(g):
            _accumulate(a, g @ bd.transpose(0, 2, 1))
            _accumulate(b, ad.transpose(0, 2, 1) @ g)

    else:
        raise FairformerError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")
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
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _accumulate(a, s * (g - dot))

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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise FairformerError(f"layer_norm: affine shape must be ({d},)")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv

    def backward(g):
        gg = g * gain.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, (gg - m1 - xhat * m2) * inv)
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead))
        _accumulate(bias, g.sum(axis=lead))

    return _result(xhat * gain.data + bias.data, (x, gain, bias), backward)


def gelu(a: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x), with Phi the standard normal CDF."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x / _SQRT_2))

    def backward(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x ** 2)
        _accumulate(a, g * (cdf + x * pdf))

    return _result(x * cdf, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    """Reduce to a scalar tensor."""

    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    return _result(a.data.sum(), (a,), backward)


def backward(loss: Tensor) -> None:
    """Populate grads of every requires_grad leaf reachable from `loss`.

    The recorded graph is swept once in reverse topological order; calling
    backward a second time on the same tape is an error because the closures
    capture forward values that a fresh forward pass must rebuild.
    """
    if loss.data.shape != ():
        raise FairformerError("backward: loss must be a scalar tensor")
    if loss._done:
        raise FairformerError("backward: tape already consumed; run a new forward pass")
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
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
        node._done = True


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
