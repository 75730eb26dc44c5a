"""Dense float64 tensors with taped reverse-mode differentiation.

Operations record onto the active :class:`Tape` whenever at least one
input requires gradients; outside any tape they compute forward values
only. Tape order is creation order, which is topological by construction;
:func:`backward` walks it in reverse. Leaf tensors (created directly, not
by an op) accumulate into ``.grad`` across backward calls until their
``zero_grad``; intermediate gradients live only for the duration of one
backward pass.
"""

from __future__ import annotations

import threading

import numpy as np


class DimensionError(ValueError):
    """Shape disagreement between operands."""


class _TapeState(threading.local):
    def __init__(self):
        self.stack: list["Tape"] = []


_STATE = _TapeState()


class Tape:
    """Ordered record of differentiable ops for one forward pass.

    Entering pushes the tape as the active recording target for the current
    thread; ops created outside any tape are forward-only.
    """

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _STATE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.stack.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def _active_tape() -> Tape | None:
    return _STATE.stack[-1] if _STATE.stack else None


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node_id: int | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __truediv__(self, s):
        if isinstance(s, Tensor):
            raise TypeError("tensor/tensor division is not provided; use mul with a reciprocal")
        return mul(self, 1.0 / float(s))


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result; record it when a tape is active and an input needs grads."""
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
        out.node_id = len(tape.nodes)
        tape.nodes.append(out)
    return out


def _accum(parent: Tensor, contribution: np.ndarray, grads: dict) -> None:
    if not parent.requires_grad:
        return
    if parent._backward is None:  # leaf: persistent accumulation
        if parent.grad is None:
            parent.grad = np.zeros_like(parent.data)
        parent.grad += contribution
    else:
        key = id(parent)
        prev = grads.get(key)
        grads[key] = contribution if prev is None else prev + contribution


def backward(loss: Tensor) -> None:
    """Reverse-accumulate d(loss)/d(leaf) into every requiring leaf's .grad."""
    if loss.data.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = _active_tape()
    if tape is None or loss.node_id is None or tape.nodes[loss.node_id] is not loss:
        raise RuntimeError("loss is not recorded on the active tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes[: loss.node_id + 1]):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        node._backward(g, grads)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape` (reverses numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and linear algebra primitives

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g, grads):
        _accum(a, _unbroadcast(g, a.data.shape), grads)
        _accum(b, _unbroadcast(g, b.data.shape), grads)

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g, grads):
        _accum(a, _unbroadcast(g, a.data.shape), grads)
        _accum(b, _unbroadcast(-g, b.data.shape), grads)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g, grads):
        _accum(a, _unbroadcast(g * b.data, a.data.shape), grads)
        _accum(b, _unbroadcast(g * a.data, b.data.shape), grads)

    return _make(a.data * b.data, (a, b), bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g, grads):
        _accum(a, -g, grads)

    return _make(-a.data, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in np.matmul."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul expects operands of 2 or more axes, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

    def bwd(g, grads):
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape), grads)
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape), grads)

    return _make(np.matmul(a.data, b.data), (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def bwd(g, grads):
        _accum(a, g * mask, grads)

    return _make(np.where(mask, a.data, 0.0), (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    z = np.exp(-np.abs(x))  # stable in both tails
    y = np.where(x >= 0, 1.0, z) / (1.0 + z)  # 1/(1+z) or z/(1+z), one division

    def bwd(g, grads):
        _accum(a, g * y * (1.0 - y), grads)

    return _make(y, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def bwd(g, grads):
        _accum(a, g * (1.0 - y * y), grads)

    return _make(y, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)

    def bwd(g, grads):
        _accum(a, g * y, grads)

    return _make(y, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.sqrt(a.data)

    def bwd(g, grads):
        # guard the derivative at 0 (forward stays exact)
        _accum(a, g * 0.5 / np.maximum(y, 1e-12), grads)

    return _make(y, (a,), bwd)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    a = _as_tensor(a)
    passed = (a.data > lo) & (a.data < hi)

    def bwd(g, grads):
        _accum(a, g * passed, grads)

    return _make(np.clip(a.data, lo, hi), (a,), bwd)


# ---------------------------------------------------------------------------
# reductions and shape ops

def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    shape = a.data.shape

    def bwd(g, grads):
        if axis is None:
            _accum(a, np.broadcast_to(g, shape).copy(), grads)
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(ge, shape).copy(), grads)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape

    def bwd(g, grads):
        _accum(a, g.reshape(old), grads)

    return _make(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Axes of `a` permuted as in np.transpose; the default swaps the last two."""
    a = _as_tensor(a)
    if axes is None:
        if a.data.ndim < 2:
            raise DimensionError(f"transpose expects 2 or more axes, got {a.data.shape}")
        axes = (*range(a.data.ndim - 2), a.data.ndim - 1, a.data.ndim - 2)
    inverse = np.argsort(axes)

    def bwd(g, grads):
        _accum(a, g.transpose(inverse), grads)

    return _make(a.data.transpose(axes).copy(), (a,), bwd)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, grads):
        for p, a, b in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(a, b)
            _accum(p, g[tuple(idx)], grads)

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """`length` entries of `axis` from `start`, as a read-only view of `a`.

    A view holds no memory of its own; being read-only, an in-place write
    to it fails instead of changing `a`.
    """
    a = _as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(g, grads):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full, grads)

    out = a.data[idx]
    out.flags.writeable = False
    return _make(out, (a,), bwd)


def stack(parts: list[Tensor]) -> Tensor:
    """(V, ...) from V tensors of one shape, built from `reshape` and `concat`;
    a single part gains its axis as a view, so a one-vessel call puts no copy
    on the tape."""
    rows = [reshape(part, (1, *part.shape)) for part in parts]
    return rows[0] if len(rows) == 1 else concat(rows, axis=0)


# ---------------------------------------------------------------------------
# fused neural-net primitives

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; rows sum to 1 to float precision."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g, grads):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot), grads)

    return _make(y, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    eps sits inside the variance denominator: (x - mu) / sqrt(var + eps).
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match feature dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gain.data + bias.data

    def bwd(g, grads):
        reduce_axes = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=reduce_axes), grads)
        _accum(bias, g.sum(axis=reduce_axes), grads)
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * term, grads)

    return _make(y, (x, gain, bias), bwd)
