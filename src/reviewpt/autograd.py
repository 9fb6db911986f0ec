"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is deliberately small: a :class:`Tensor` wraps an ndarray and,
when an operation touches at least one tensor with ``requires_grad``, the
result records a closure that routes gradients back to its parents.
Gradients ACCUMULATE (``+=``) into ``.grad`` buffers and are never
overwritten; callers zero them between optimizer steps.  That accumulation
is what lets the training loop sum sub-batch gradients with plain repeated
``backward`` calls.

Arrays keep whatever float dtype they carry: float32 for ordinary training,
float64 when tight gradient checks are wanted.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

LOG_CLAMP = 1e-12  # floor inside log() so saturated predictions stay finite
MASK_FILL = -1e9  # additive logit penalty for positions excluded from a softmax

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """Dense n-dimensional array of reals, optionally tracked by autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- graph ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``.grad``.

        ``self`` must be a scalar.  Grad buffers are never reset here, so a
        second call without ``zero_grad`` doubles them.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce operands; bare python/numpy scalars adopt the tensor's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        dt = a.dtype if isinstance(b, (int, float, np.floating, np.integer)) else None
        b = Tensor(np.asarray(b, dtype=dt))
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        dt = b.dtype if isinstance(a, (int, float, np.floating, np.integer)) else None
        a = Tensor(np.asarray(a, dtype=dt))
    else:
        a, b = as_tensor(a), as_tensor(b)
    return a, b


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along the axes numpy broadcast over."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- arithmetic -------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape).astype(a.dtype, copy=False))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape).astype(b.dtype, copy=False))

    return _make(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape).astype(a.dtype, copy=False))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape).astype(b.dtype, copy=False))

    return _make(data, (a, b), bw)


def matmul(a, b) -> Tensor:
    """Matrix product; leading dims broadcast like ``numpy.matmul``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} vs {b.shape}")
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accumulate(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            _accumulate(b, _unbroadcast(gb, b.shape))

    return _make(data, (a, b), bw)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` with ``w`` stored ``[in, out]``.

    The leading dims of ``x`` fold into one 2-D GEMM, so the weight gradient
    is one product over every row rather than a batched product summed down.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n_in, n_out = w.shape
    if x.shape[-1] != n_in:
        raise ValueError(f"linear shape mismatch: {x.shape} vs {w.shape}")
    x2 = x.data.reshape(-1, n_in)
    out = x2 @ w.data
    out += b.data
    data = out.reshape(x.shape[:-1] + (n_out,))

    def bw(g):
        g2 = g.reshape(-1, n_out)
        if x.requires_grad:
            _accumulate(x, (g2 @ w.data.T).reshape(x.shape))
        if w.requires_grad:
            _accumulate(w, x2.T @ g2)
        if b.requires_grad:
            _accumulate(b, g2.sum(axis=0))

    return _make(data, (x, w, b), bw)


def attention(q, k, v, bias, heads: int, rate: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Multi-head scaled dot-product attention over ``[B, L, H]`` projections.

    ``bias`` is added to the scaled scores (``MASK_FILL`` at padded keys) and
    must broadcast to ``[B, heads, L, L]``.  The attention probabilities get
    inverted dropout, with the mask drawn as :func:`dropout` draws it; nothing
    is drawn when ``train`` is off or ``rate == 0``.  Returns the context
    ``[B, L, H]`` with the heads merged back.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    nb, length, h = q.shape
    dh = h // heads
    scale = 1.0 / math.sqrt(dh)  # a python float keeps float32 scores float32

    def split(a):
        return a.reshape(nb, length, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(nb, length, h)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    probs = qh @ kh.transpose(0, 1, 3, 2)
    probs *= scale
    probs += bias
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = None
    dropped = probs
    if train and rate > 0.0:
        keep = (rng.random(probs.shape, dtype=probs.dtype) >= rate).astype(probs.dtype)
        keep_scale = 1.0 / (1.0 - rate)
        dropped = probs * keep * keep_scale
    data = merge(dropped @ vh)

    def bw(g):
        gc = split(g)
        if v.requires_grad:
            _accumulate(v, merge(dropped.transpose(0, 1, 3, 2) @ gc))
        gp = gc @ vh.transpose(0, 1, 3, 2)
        if keep is not None:
            gp = gp * keep * keep_scale
        gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True))
        gs *= scale
        if q.requires_grad:
            _accumulate(q, merge(gs @ kh))
        if k.requires_grad:
            _accumulate(k, merge(gs.transpose(0, 1, 3, 2) @ qh))

    return _make(data, (q, k, v), bw)


# -- shape moves ------------------------------------------------------------


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    data = x.data.reshape(shape)

    def bw(g):
        _accumulate(x, g.reshape(x.shape))

    return _make(data, (x,), bw)


def transpose(x, axes=None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        _accumulate(x, g.transpose(inverse))

    return _make(data, (x,), bw)


def take(x, idx) -> Tensor:
    """Index/slice ``x``; gradients scatter-add back (duplicate indices sum)."""
    x = as_tensor(x)
    data = x.data[idx]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accumulate(x, gx)

    return _make(np.array(data, copy=True), (x,), bw)


def take_rows(table, ids) -> Tensor:
    """Gather rows of a 2-d table by an integer array of any shape."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    data = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        _accumulate(table, gt)

    return _make(data, (table,), bw)


# -- reductions --------------------------------------------------------------


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(ge, x.shape).astype(x.dtype, copy=False))

    return _make(data, (x,), bw)


# -- neural-net primitives ---------------------------------------------------


def softmax_rows(x, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, computed with max-subtraction for stability.

    Each slice along the axis is nonnegative and sums to 1; adding a
    constant to a slice leaves the output unchanged.
    """
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, (y * (g - dot)).astype(x.dtype, copy=False))

    return _make(y, (x,), bw)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization over the last axis, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    n = x.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gain.data + bias.data

    def bw(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, n).sum(axis=0).reshape(gain.shape))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, n).sum(axis=0).reshape(bias.shape))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, (inv * (dxhat - m1 - xhat * m2)).astype(x.dtype, copy=False))

    return _make(y, (x, gain, bias), bw)


def gelu(x) -> Tensor:
    """Elementwise x * Phi(x) with the exact normal-CDF (erf) form."""
    x = as_tensor(x)
    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))
    y = x.data * cdf

    def bw(g):
        pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
        _accumulate(x, (g * (cdf + x.data * pdf)).astype(x.dtype, copy=False))

    return _make(y, (x,), bw)


def cross_entropy(probs, targets, row_mask=None, denom: float | None = None) -> Tensor:
    """Mean of -log p[target] over contributing rows of a [N, K] table.

    ``row_mask`` (bool [N]) selects which rows contribute.  ``denom``
    overrides the averaging denominator (defaults to the number of
    contributing rows); the training loop uses this to keep sub-batch sums
    exactly composable.  Probabilities are clamped at ``LOG_CLAMP``.
    """
    probs = as_tensor(probs)
    if probs.ndim != 2:
        raise ValueError(f"cross_entropy expects a 2-d probability table, got {probs.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    n = probs.shape[0]
    rows = np.arange(n)
    if row_mask is not None:
        rows = rows[np.asarray(row_mask, dtype=bool)]
    if rows.size == 0:
        raise ValueError("no targets")
    d = float(denom) if denom is not None else float(rows.size)
    p = probs.data[rows, targets[rows]]
    clamped = np.maximum(p, LOG_CLAMP)
    loss = -np.log(clamped).sum() / d

    def bw(g):
        gp = np.zeros_like(probs.data)
        live = p > LOG_CLAMP
        gp[rows[live], targets[rows[live]]] = -g / (p[live] * d)
        _accumulate(probs, gp)

    return _make(np.asarray(loss, dtype=probs.dtype), (probs,), bw)


def dropout(x, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout; identity (and no rng draw) when off or rate == 0."""
    x = as_tensor(x)
    if not train or rate <= 0.0:
        return x
    keep = (rng.random(x.shape, dtype=x.dtype) >= rate).astype(x.dtype)
    scale = 1.0 / (1.0 - rate)
    data = x.data * keep * scale

    def bw(g):
        _accumulate(x, (g * keep * scale).astype(x.dtype, copy=False))

    return _make(data, (x,), bw)
