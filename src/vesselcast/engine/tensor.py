"""Dense float64 tensors with taped reverse-mode differentiation.

Operations record onto the active :class:`Tape` whenever at least one
input is a gradient target; outside any tape they compute forward values
only. A record is a pair ``(targets, backward_fn)``. Each target stands for
one input: the input's node id when it was recorded on this tape, the input
itself when it is a leaf that requires gradients (created directly, not by
an op), and ``None`` otherwise, so a tensor recorded on another tape acts
as a constant. ``backward_fn(g, need)`` takes the gradient of the op's
output and one flag per input (is its target not ``None``), and returns
one contribution per input: an array, or ``None`` where the flag is false.

The tape holds no output tensor, and a backward function captures only the
arrays its formula reads: ``mul``, ``matmul`` and ``conv2d`` keep their
inputs' data, where ``conv2d`` keeps a constant input passed as an array as
given (float32 rasters stay float32), not as a float64 copy; ``sigmoid``,
``tanh``, ``exp``, ``sqrt`` and ``softmax`` their output; ``relu`` and
``clamp`` their mask; ``layer_norm`` the normalized input, its scale and the
gain; ``roi_align`` its boxes, from which its backward rebuilds the pooling
weights; the rest only shapes and indices. A value no formula reads is freed
as soon as the forward pass drops it. An output tensor refers to its tape,
and so keeps the tape's records alive while it lives.

Tape order is creation order, which is topological by construction;
:func:`backward` walks it in reverse and is the only place that
accumulates: intermediate gradients, keyed by node id, live only for the
duration of one backward pass, and leaves accumulate into ``.grad`` across
backward calls until their ``zero_grad``.
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
    thread; ops created outside any tape are forward-only. ``nodes[i]`` is the
    ``(targets, backward_fn)`` record of the op whose output has node id i.
    """

    def __init__(self):
        self.nodes: list[tuple[tuple, object]] = []

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
    __slots__ = ("data", "grad", "requires_grad", "node_id", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node_id: int | None = None
        self._tape: Tape | None = None

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


def _target(p: Tensor, tape: Tape):
    """What a record keeps for input p, a Tensor or a constant array: see the module docstring."""
    if not isinstance(p, Tensor) or not p.requires_grad:
        return None
    if p.node_id is None:
        return p
    return p.node_id if p._tape is tape else None


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result; record it when a tape is active and an input is a target.

    A one-input op is recorded only when its input is a target, so its
    backward function reads no flag.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        targets = tuple(_target(p, tape) for p in parents)
        if any(t is not None for t in targets):
            out.requires_grad = True
            out.node_id = len(tape.nodes)
            out._tape = tape
            tape.nodes.append((targets, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Reverse-accumulate d(loss)/d(leaf) into every requiring leaf's .grad."""
    if loss.data.size != 1:
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = _active_tape()
    if tape is None or loss._tape is not tape:
        raise RuntimeError("loss is not recorded on the active tape")
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for node_id in range(loss.node_id, -1, -1):
        g = grads.pop(node_id, None)
        if g is None:
            continue
        targets, backward_fn = tape.nodes[node_id]
        for target, contribution in zip(targets, backward_fn(g, [t is not None for t in targets])):
            if target is None:
                continue
            if isinstance(target, int):
                prev = grads.get(target)
                grads[target] = contribution if prev is None else prev + contribution
            else:  # leaf: persistent accumulation
                if target.grad is None:
                    target.grad = np.zeros_like(target.data)
                target.grad += contribution


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
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g, need):
        return (_unbroadcast(g, a_shape) if need[0] else None,
                _unbroadcast(g, b_shape) if need[1] else None)

    return _make(a.data + b.data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    a_shape, b_shape = a.data.shape, b.data.shape

    def bwd(g, need):
        return (_unbroadcast(g, a_shape) if need[0] else None,
                _unbroadcast(-g, b_shape) if need[1] else None)

    return _make(a.data - b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data

    def bwd(g, need):
        return (_unbroadcast(g * y, x.shape) if need[0] else None,
                _unbroadcast(g * x, y.shape) if need[1] else None)

    return _make(x * y, (a, b), bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def bwd(g, _need):
        return (-g,)

    return _make(-a.data, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in np.matmul."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul expects operands of 2 or more axes, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    x, y = a.data, b.data

    def bwd(g, need):
        return (_unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), x.shape) if need[0] else None,
                _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), y.shape) if need[1] else None)

    return _make(np.matmul(x, y), (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def bwd(g, _need):
        return (g * mask,)

    return _make(np.where(mask, a.data, 0.0), (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    z = np.exp(-np.abs(x))  # stable in both tails
    y = np.where(x >= 0, 1.0, z) / (1.0 + z)  # 1/(1+z) or z/(1+z), one division

    def bwd(g, _need):
        return (g * y * (1.0 - y),)

    return _make(y, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def bwd(g, _need):
        return (g * (1.0 - y * y),)

    return _make(y, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)

    def bwd(g, _need):
        return (g * y,)

    return _make(y, (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.sqrt(a.data)

    def bwd(g, _need):
        # guard the derivative at 0 (forward stays exact)
        return (g * 0.5 / np.maximum(y, 1e-12),)

    return _make(y, (a,), bwd)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    a = _as_tensor(a)
    passed = (a.data > lo) & (a.data < hi)

    def bwd(g, _need):
        return (g * passed,)

    return _make(np.clip(a.data, lo, hi), (a,), bwd)


# ---------------------------------------------------------------------------
# reductions and shape ops

def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    shape = a.data.shape

    def bwd(g, _need):
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape

    def bwd(g, _need):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Axes of `a` permuted as in np.transpose; the default swaps the last two."""
    a = _as_tensor(a)
    if axes is None:
        if a.data.ndim < 2:
            raise DimensionError(f"transpose expects 2 or more axes, got {a.data.shape}")
        axes = (*range(a.data.ndim - 2), a.data.ndim - 1, a.data.ndim - 2)
    inverse = np.argsort(axes)

    def bwd(g, _need):
        return (g.transpose(inverse),)

    return _make(a.data.transpose(axes).copy(), (a,), bwd)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, need):
        idx = [slice(None)] * g.ndim
        out = []
        for wanted, a, b in zip(need, offsets[:-1], offsets[1:]):
            idx[axis] = slice(a, b)
            out.append(g[tuple(idx)] if wanted else None)
        return out

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """`length` entries of `axis` from `start`, as a read-only view of `a`.

    A view holds no memory of its own; being read-only, an in-place write
    to it fails instead of changing `a`.
    """
    a = _as_tensor(a)
    shape = a.data.shape
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(g, _need):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

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

    def bwd(g, _need):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

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
    gamma = gain.data
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gamma + bias.data

    def bwd(g, need):
        reduce_axes = tuple(range(g.ndim - 1))
        d_gain = (g * xhat).sum(axis=reduce_axes) if need[1] else None
        d_bias = g.sum(axis=reduce_axes) if need[2] else None
        d_x = None
        if need[0]:
            dxhat = g * gamma
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            d_x = inv * term
        return d_x, d_gain, d_bias

    return _make(y, (x, gain, bias), bwd)
