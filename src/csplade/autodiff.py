"""Minimal dense-tensor reverse-mode autodiff.

Just enough op coverage to train the toy encoder: matmuls, pointwise
nonlinearities, reductions, layer norm, softmax, cross-entropy, slicing
and a fused multi-head attention node. Training runs in float32; gradient
checking should be done in float64 (pass dtype=np.float64 when building the
leaf tensors). Inside `no_grad()` no op records a graph.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "relu",
    "gelu",
    "reparam_relu",
    "log1p",
    "exp",
    "transpose",
    "reshape",
    "max_over_axis",
    "sum_over_axis",
    "mean_over_axis",
    "embedding",
    "masked_fill",
    "slice_axis",
    "layer_norm",
    "softmax",
    "attention",
    "softmax_cross_entropy",
    "no_grad",
]

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

ATTN_NEG = -1e9  # exp(-1e9 - max) underflows to exactly 0.0, so masked
                 # positions contribute bit-exact zeros to attention sums

LN_EPS = 1e-5  # layer_norm's epsilon

_grad_enabled = True


@contextmanager
def no_grad():
    """Within this block ops build no graph: outputs never require grad."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class ShapeError(ValueError):
    """Raised when op inputs have incompatible shapes."""


class Tensor:
    """A numpy array plus an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op", "_consumed")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=(), _op="leaf"):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = _parents
        self.op = _op
        self._consumed = False

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

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        """Add `g` to .grad, never writing into an existing array.

        The first contribution is kept as is when it already has the dtype,
        shape and C layout of `data`, so one array may be the .grad of
        several tensors and nothing may update a .grad in place. Otherwise it
        is copied, and every later sum is stored, in an array laid out like
        `data`: the layout fixes the order of downstream float reductions.
        """
        data = self.data
        if self.grad is not None:
            self.grad = np.add(self.grad, g, out=np.empty_like(data))
        elif (isinstance(g, np.ndarray) and g.dtype == data.dtype and g.shape == data.shape
              and g.flags.c_contiguous and data.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.empty_like(data)
            self.grad[...] = g

    def backward(self):
        """Populate .grad on every reachable requires_grad tensor.

        The graph is single-use: a second backward from the same loss
        raises, so there is no silent-accumulation ambiguity. Callers
        zero parameter grads explicitly before each new forward/backward.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        if self._consumed:
            raise RuntimeError("backward called twice on the same graph")
        self._consumed = True
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op}, requires_grad={self.requires_grad})"


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(*ts):
    return _grad_enabled and any(t.requires_grad for t in ts)


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _make(data, parents, op, backward):
    out = Tensor(data, requires_grad=True, _parents=parents, _op=op)
    out._backward = backward
    return out


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    if not _needs_grad(a, b):
        return Tensor(data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), "add", backward)


def sub(a, b):
    return add(a, scale(b, -1.0))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None
    if not _needs_grad(a, b):
        return Tensor(data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), "mul", backward)


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)
    data = a.data * c
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        a._accumulate(g * c)

    return _make(data, (a,), "scale", backward)


def matmul(a, b):
    """a @ b for a 2-D right operand; `a` may carry leading batch dims.

    The leading axes of `a` are folded into rows, so the forward and both
    gradients are one GEMM each; the weight gradient is a2.T @ g2 rather
    than one GEMM per batch entry and a sum.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    a2 = a.data.reshape(-1, a.shape[-1])
    data = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])
    if not _needs_grad(a, b):
        return Tensor(data)

    def backward(g):
        g2 = g.reshape(-1, b.shape[1])
        if a.requires_grad:
            a._accumulate((g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            b._accumulate(a2.T @ g2)

    return _make(data, (a, b), "matmul", backward)


def relu(a):
    a = _as_tensor(a)
    data = np.maximum(a.data, 0)
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        a._accumulate(g * (a.data > 0))

    return _make(data, (a,), "relu", backward)


# Float32 GELU does not call a scalar erf loop (numpy has no erf). It uses
# Abramowitz & Stegun 7.1.26: erfc(z) = t P(t) exp(-z^2) with
# t = 1 / (1 + p z), |error| <= 1.5e-7. At z = |x| / sqrt 2 the factor
# exp(-z^2) = exp(-x^2 / 2) is also the Gaussian of the derivative, so one
# exp serves both. With K = sqrt 2 / p, t = K s for s = 1 / (K + |x|), and
# the coefficients below are a_i K^i / 2, so the polynomial in s is
# erfc(z) / 2. The constants are 0-d float32 arrays because numpy applies
# them to a float32 block with less overhead than scalars, and per-call
# overhead is most of the cost on the small blocks of one-query encoding.
_AS_P = 0.3275911
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
_AS_K = np.sqrt(2.0) / _AS_P
_F32_K = np.array(_AS_K, dtype=np.float32)
_F32_B1, _F32_B2, _F32_B3, _F32_B4, _F32_B5 = (
    np.array(0.5 * a * _AS_K ** i, dtype=np.float32) for i, a in enumerate(_AS_A, 1))
_F32_HALF = np.array(0.5, dtype=np.float32)
_F32_NEG_HALF = np.array(-0.5, dtype=np.float32)
_F32_INV_SQRT_2PI = np.array(_INV_SQRT_2PI, dtype=np.float32)


def _erf(x):
    """erf of a float64 array, by math.erf element by element. Only the
    float64 GELU of gradient checks calls it, on small arrays."""
    return np.array([math.erf(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _gelu(x, need_grad):
    """GELU(x) = x Phi(x) and, if need_grad, its derivative
    Phi(x) + x phi(x) (else None), in the dtype of x. Float64, the dtype of
    gradient checks, uses math.erf (`_erf`); float32 the erfc above, in
    place."""
    if x.dtype != np.float32:
        one_plus_erf = 1.0 + _erf(x / _SQRT2)
        data = 0.5 * x * one_plus_erf
        if not need_grad:
            return data, None
        return data, 0.5 * one_plus_erf + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    if x.ndim == 0:  # ufuncs return scalars for 0-d input, and out= needs arrays
        return tuple(v if v is None else v.reshape(()) for v in _gelu(x.reshape(1), need_grad))
    s = np.abs(x)
    s += _F32_K
    np.reciprocal(s, out=s)
    gauss = np.square(x)
    gauss *= _F32_NEG_HALF
    np.exp(gauss, out=gauss)
    cdf = s * _F32_B5
    cdf += _F32_B4
    cdf *= s
    cdf += _F32_B3
    cdf *= s
    cdf += _F32_B2
    cdf *= s
    cdf += _F32_B1
    cdf *= s
    cdf *= gauss  # erfc(|x| / sqrt 2) / 2
    # Phi(x) = 1/2 + sign(x) (1/2 - erfc / 2), by copysign: np.where on the
    # sign costs about as much as all the arithmetic here
    np.subtract(_F32_HALF, cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += _F32_HALF
    data = np.multiply(x, cdf, out=s)
    if not need_grad:
        return data, None
    gauss *= x
    gauss *= _F32_INV_SQRT_2PI
    cdf += gauss
    return data, cdf


def gelu(a):
    """Exact (erf-form) GELU, evaluated in the input's dtype. The forward of
    a node that records a graph also finishes the derivative its backward
    needs."""
    a = _as_tensor(a)
    data, deriv = _gelu(a.data, _needs_grad(a))
    if deriv is None:
        return Tensor(data)

    def backward(g):
        a._accumulate(g * deriv)

    return _make(data, (a,), "gelu", backward)


def reparam_relu(a):
    """Forward identical to relu; backward uses the GeLU derivative.

    Keeps inference (argmax / top-k of downstream scores) unchanged while
    letting gradient flow through negative pre-activations.
    """
    a = _as_tensor(a)
    data = np.maximum(a.data, 0)
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        a._accumulate(g * _gelu(a.data, True)[1])

    return _make(data, (a,), "reparam_relu", backward)


def log1p(a):
    a = _as_tensor(a)
    data = np.log1p(a.data)
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        a._accumulate(g / (1.0 + a.data))

    return _make(data, (a,), "log1p", backward)


def exp(a):
    a = _as_tensor(a)
    data = np.exp(a.data)
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        a._accumulate(g * data)

    return _make(data, (a,), "exp", backward)


def transpose(a, axes=None):
    a = _as_tensor(a)
    data = np.transpose(a.data, axes)
    if not _needs_grad(a):
        return Tensor(data)
    inv = None if axes is None else np.argsort(axes)

    def backward(g):
        a._accumulate(np.transpose(g, inv))

    return _make(data, (a,), "transpose", backward)


def reshape(a, shape):
    a = _as_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _make(data, (a,), "reshape", backward)


def max_over_axis(a, axis):
    """Max reduction; gradient routes to the first argmax along `axis`."""
    a = _as_tensor(a)
    if a.shape[axis] == 0:
        raise ShapeError(f"max_over_axis: empty axis {axis} of shape {a.shape}")
    data = a.data.max(axis=axis)
    if not _needs_grad(a):
        return Tensor(data)
    idx = np.expand_dims(a.data.argmax(axis=axis), axis)

    def backward(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis)
        a._accumulate(full)

    return _make(data, (a,), "max_over_axis", backward)


def sum_over_axis(a, axis=None):
    a = _as_tensor(a)
    data = a.data.sum(axis=axis)
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return _make(data, (a,), "sum_over_axis", backward)


def mean_over_axis(a, axis=None):
    a = _as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return scale(sum_over_axis(a, axis), 1.0 / n)


def _embedding(table, ids):
    """Rows of a plain array `table` at integer `ids`; ids outside the table
    raise ShapeError, so negative ids never wrap around."""
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding: ids out of range for table of {table.shape[0]} rows")
    return table[ids]


def embedding(weight, ids):
    """Row lookup: ids of any integer shape -> ids.shape + (d,).

    The backward groups the gradient rows by id with a stable sort of the
    ids, made once when the graph is recorded, and sums every group with
    one np.add.reduceat.
    """
    weight = _as_tensor(weight)
    ids = np.asarray(ids)
    data = _embedding(weight.data, ids)
    if not _needs_grad(weight):
        return Tensor(data)
    flat = ids.ravel()
    order = np.argsort(flat, kind="stable")
    grouped = flat[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))  # first row of each id
    rows = grouped[starts]

    def backward(g):
        # a copy, never the existing grad: grads may be shared (see _accumulate)
        grad = np.zeros_like(weight.data) if weight.grad is None else weight.grad.copy()
        if flat.size:
            grad[rows] += np.add.reduceat(g.reshape(-1, weight.shape[1])[order], starts, axis=0)
        weight.grad = grad

    return _make(data, (weight,), "embedding", backward)


def masked_fill(a, mask, value):
    """Replace entries where mask is True with `value`; mask may broadcast."""
    a = _as_tensor(a)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    data = np.where(mask, np.asarray(value, dtype=a.dtype), a.data)
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        a._accumulate(np.where(mask, 0.0, g))

    return _make(data, (a, ), "masked_fill", backward)


def slice_axis(a, axis, start, stop):
    """Entries start:stop along `axis`, as a C-contiguous copy.

    The backward writes the incoming gradient into a zero array of the
    input's shape.
    """
    a = _as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"slice_axis: axis {axis} out of range for shape {a.shape}")
    key = (slice(None),) * (axis % a.ndim) + (slice(start, stop),)
    data = np.ascontiguousarray(a.data[key])
    if not _needs_grad(a):
        return Tensor(data)

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        a._accumulate(full)

    return _make(data, (a,), "slice_axis", backward)


def _layer_norm(x, gain, bias, need_grad):
    """Layer norm of a plain array over its last axis, then scale and shift.

    Returns the output and, if need_grad, the (xhat, invstd) that the
    backward needs (else None). Each mean is np.add.reduce divided by d in
    the dtype of x. For float32 np.mean divides in float64 and rounds the
    quotient to float32, which gives the same correctly rounded float32
    quotient, but it costs a Python wrapper per call. Without need_grad the
    normalization runs in place in one scratch array.
    """
    d = x.dtype.type(x.shape[-1])
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= d
    xmu = x - mu
    var = np.add.reduce(np.square(xmu), axis=-1, keepdims=True)
    var /= d
    var += LN_EPS
    invstd = np.sqrt(var, out=var)
    np.divide(1.0, invstd, out=invstd)
    if need_grad:
        xhat = xmu * invstd
        return xhat * gain + bias, (xhat, invstd)
    xhat = np.multiply(xmu, invstd, out=xmu)
    if gain.dtype != xhat.dtype or bias.dtype != xhat.dtype:  # promotes: no in place
        return xhat * gain + bias, None
    xhat *= gain
    xhat += bias
    return xhat, None


def layer_norm(a, gain, bias):
    """Normalize over the last axis, then scale and shift."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match last dim {d}")
    need_grad = _needs_grad(a, gain, bias)
    data, saved = _layer_norm(a.data, gain.data, bias.data, need_grad)
    if not need_grad:
        return Tensor(data)
    xhat, invstd = saved

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            a._accumulate(invstd * term)

    return _make(data, (a, gain, bias), "layer_norm", backward)


def softmax(a, axis=-1):
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    if not _needs_grad(a):
        return Tensor(p)

    def backward(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        a._accumulate(p * (g - dot))

    return _make(p, (a,), "softmax", backward)


def _attention(q, k, v, banned, heads):
    """Multi-head attention on plain (B, L, d) arrays.

    `banned` is a bool mask broadcastable to (B, heads, L, L), or None when
    no query is barred from any key. Returns the (B, L, d) context and the
    (q4, kt, v4, p, c) that the backward of `attention` needs. The scores are
    scaled, masked with ATTN_NEG, shifted, exponentiated and normalized in
    place in one array, which ends as the softmax p.
    """
    b, l, d = q.shape
    dh = d // heads

    def split(t):  # (B, L, d) -> (B, H, L, dh) view
        return t.reshape(b, l, heads, dh).transpose(0, 2, 1, 3)

    q4, k4, v4 = split(q), split(k), split(v)
    kt = k4.transpose(0, 1, 3, 2)
    c = float(1.0 / np.sqrt(dh))  # a Python float keeps float32 scores float32
    p = np.matmul(q4, kt)
    p *= c
    if banned is not None:
        np.copyto(p, p.dtype.type(ATTN_NEG), where=banned)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    data = np.matmul(p, v4).transpose(0, 2, 1, 3).reshape(b, l, d)
    return data, (q4, kt, v4, p, c)


def attention(q, k, v, banned, heads):
    """Multi-head scaled dot-product attention as a single graph node.

    q, k, v: (B, L, d) tensors, split into `heads` heads of d // heads dims;
    banned: bool mask broadcastable to (B, heads, L, L), True where a query
    position may not attend to a key position, or None when no query is
    barred from any key. Returns the (B, L, d) context.

    The forward (`_attention`) computes the values of the primitive chain
    reshape, transpose, matmul, scale, masked_fill (ATTN_NEG), softmax,
    matmul, transpose, reshape with the same numpy arithmetic, and the
    backward replays that chain's backward with every intermediate gradient
    laid out as the chain stores it, so values and gradients are
    bit-identical to the chain.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention: q, k, v must share one (B, L, d) shape, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    b, l, d = q.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: d={d} not divisible by heads={heads}")
    dh = d // heads
    mask = None if banned is None else np.broadcast_to(np.asarray(banned, dtype=bool),
                                                       (b, heads, l, l))
    data, (q4, kt, v4, p, c) = _attention(q.data, k.data, v.data, mask, heads)
    if not _needs_grad(q, k, v):
        return Tensor(data)

    def merge(g4):  # (B, H, L, dh) -> (B, L, d) copy
        return g4.transpose(0, 2, 1, 3).reshape(b, l, d)

    def backward(g):
        g4 = np.ascontiguousarray(g.reshape(b, l, heads, dh).transpose(0, 2, 1, 3))
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(g4, np.swapaxes(v4, -1, -2))
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
            if mask is not None:
                gs = np.where(mask, 0.0, gs)
            gs *= c
            if q.requires_grad:
                q._accumulate(merge(np.matmul(gs, np.swapaxes(kt, -1, -2))))
            if k.requires_grad:
                gkt = np.matmul(np.swapaxes(q4, -1, -2), gs)
                k._accumulate(merge(gkt.transpose(0, 1, 3, 2)))
        if v.requires_grad:
            v._accumulate(merge(np.matmul(np.swapaxes(p, -1, -2), g4)))

    return _make(data, (q, k, v), "attention", backward)


def softmax_cross_entropy(logits, targets, weights=None):
    """Mean cross-entropy of (N, V) logits against integer targets (N,).

    `weights` optionally masks/weights rows; the mean is taken over the
    total weight. Returns a scalar tensor.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"softmax_cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    n, v = logits.shape
    if weights is None:
        w = np.ones(n, dtype=logits.dtype)
    else:
        w = np.asarray(weights, dtype=logits.dtype)
    wsum = w.sum()
    if wsum <= 0:
        raise ValueError("softmax_cross_entropy: total weight must be positive")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    nll = logz - shifted[np.arange(n), targets]
    data = np.asarray((w * nll).sum() / wsum, dtype=logits.dtype)
    if not _needs_grad(logits):
        return Tensor(data)

    def backward(g):
        p = np.exp(shifted - logz[:, None])
        p[np.arange(n), targets] -= 1.0
        logits._accumulate(g * p * (w / wsum)[:, None])

    return _make(data, (logits,), "softmax_cross_entropy", backward)
