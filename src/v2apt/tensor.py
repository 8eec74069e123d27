"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

Storage is a flat row-major numpy buffer. Scalars are float32 by default and
float64 in gradient-check mode; the mode is a global run flag so every buffer
in a run (and hence every checkpoint) shares one element type.

Broadcasting is deliberately minimal: `add` and `mul` align a trailing-shape
operand (a bias or a per-feature scale) against the leading axes of the other,
and `expand_leading` stacks a tensor along a new batch axis. Nothing else
broadcasts, which keeps every adjoint a few lines of auditable numpy.

Adjoints are frozen-aware: a multi-input primitive computes the gradient of
an input only when that input requires one, so a frozen weight costs no
backward work. `linear`, affine `layer_norm`, `attention` and `mlp` are fused
primitives, one tape record each, for the transformer's hot path.

A tape record keeps its inputs' and output's nodes (`Tensor.node`: the
gradient slot without the value) and the arrays its adjoint reads, nothing
else, so an intermediate's value is freed as soon as the forward code drops
it unless an adjoint reads it. A primitive builds nodes and its adjoint only
when a tape records it. Custom primitives keep the same rule (see
`record_operation`). Tapes are per thread: a primitive records on the
innermost tape its own thread holds open. A tensor changes after it is built
only in its gradient slot, so training or freezing a parameter replaces it.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError, ValidationError

_FLOAT64 = False


def set_float64(enabled: bool) -> None:
    """Switch the global scalar type; affects tensors created afterwards."""
    global _FLOAT64
    _FLOAT64 = bool(enabled)


def active_dtype() -> np.dtype:
    return np.dtype(np.float64 if _FLOAT64 else np.float32)


class float64_mode:
    """Context manager: run the enclosed block in 64-bit mode."""

    def __enter__(self) -> "float64_mode":
        self._prev = _FLOAT64
        set_float64(True)
        return self

    def __exit__(self, *exc) -> bool:
        set_float64(self._prev)
        return False


class Node:
    """The gradient slot of a tensor, apart from its value.

    Tape records and adjoints hold nodes, never tensors, so a tape keeps an
    intermediate's value only where an adjoint reads it.
    """

    __slots__ = ("requires_grad", "grad", "shape", "dtype")

    def __init__(self, requires_grad: bool, shape: tuple[int, ...], dtype: np.dtype):
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """A dense array plus a gradient slot.

    Tensors are immutable after construction except for `grad`; whether one
    requires a gradient is fixed when it is built. Operations return new
    tensors and record their adjoints on the active tape whenever an input
    requires a gradient. The gradient lives on the tensor's `node`, which is
    made only when a tape records the tensor or a gradient is written, so a
    tape-free forward makes none.
    """

    __slots__ = ("data", "_requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=active_dtype())
        self._requires_grad = bool(requires_grad)
        self._node: Node | None = None

    @property
    def requires_grad(self) -> bool:
        return self._requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if value is not None or self._node is not None:
            self.node.grad = value

    @property
    def node(self) -> Node:
        """This tensor's gradient slot, made on first use."""
        if self._node is None:
            self._node = Node(self._requires_grad, self.data.shape, self.data.dtype)
        return self._node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # operator sugar over the primitives below
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(as_tensor(other)))

    def __rsub__(self, other):
        return add(as_tensor(other), neg(self))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis: int | None = None) -> "Tensor":
        return tsum(self, axis)

    def mean(self, axis: int | None = None) -> "Tensor":
        return tmean(self, axis)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def wrap(data: np.ndarray, requires_grad: bool = False) -> Tensor:
    """A tensor over `data` as it is: no copy and no cast to the active dtype."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t._requires_grad = requires_grad
    t._node = None
    return t


# ---------------------------------------------------------------------------
# tape


class TapeRecord(NamedTuple):
    op: str
    inputs: tuple[Node, ...]
    output: Node


class _TapeStack(threading.local):  # each thread's open tapes, innermost last
    def __init__(self):
        self.tapes: list[Tape] = []


_TAPES = _TapeStack()


def active_tape() -> "Tape | None":
    """The calling thread's innermost open tape, or None when it records no
    primitive."""
    tapes = _TAPES.tapes
    return tapes[-1] if tapes else None


def _taped(out: Tensor) -> bool:
    """Whether the active tape records the op that made `out`; only then does
    a primitive make nodes and an adjoint."""
    return out._requires_grad and bool(_TAPES.tapes)


class Tape:
    """Ordered record of executed primitives, replayed in reverse for adjoints.

    Execution order is a topological order by construction (an op's inputs
    exist before it runs), so one reverse sweep visits each record exactly
    once and applies the chain rule with plain accumulation.
    """

    def __init__(self):
        self._records: list[TapeRecord] = []
        self._adjoints: list[Callable[[np.ndarray], None]] = []
        self._ran = False

    def __enter__(self) -> "Tape":
        _TAPES.tapes.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _TAPES.tapes.pop()
        if popped is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[TapeRecord, ...]:
        return tuple(self._records)

    def backward(self, loss: Tensor) -> None:
        """Propagate d(loss)/d(leaf) into the grad buffer of every leaf.

        A leaf is an input that no record on this tape produced. Each
        intermediate's gradient is dropped as soon as its record's adjoint
        has consumed it, so intermediates end with `grad` None and only the
        loss keeps its own. Each adjoint is dropped, with the arrays it
        saved, once it has run, so a tape runs backward once; `records`
        stays whole. Trainable leaves that do not reach the loss end with an
        all-zero buffer rather than None, so callers can treat every recorded
        leaf uniformly.
        """
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self._ran:
            raise ContractError("backward already ran on this tape; record a new one")
        if not self._records:
            raise ContractError("backward on an empty tape")
        root = loss._node
        if root is None or not any(rec.output is root for rec in self._records):
            raise ContractError("loss tensor was not produced on this tape")
        self._ran = True
        root.grad = np.ones(root.shape, dtype=root.dtype)
        adjoints = self._adjoints
        for rec in reversed(self._records):
            out = rec.output
            if out.grad is None:
                adjoints.pop()  # this branch never reached the loss
                continue
            adjoints.pop()(out.grad)
            if out is not root:
                out.grad = None  # every consumer of `out` has already run
        produced = {id(rec.output) for rec in self._records}
        for rec in self._records:
            for t in rec.inputs:
                if t.requires_grad and t.grad is None and id(t) not in produced:
                    t.grad = np.zeros(t.shape, dtype=t.dtype)


def record_operation(
    op: str,
    inputs: Sequence[Tensor],
    output: Tensor,
    adjoint: Callable[[np.ndarray], None],
) -> None:
    """Append a primitive to the active tape.

    All built-in ops funnel through here; it is also the extension point for
    custom primitives (the adjoint receives d(loss)/d(output) and must
    accumulate into the inputs' grads via `accumulate_grad`). The record
    keeps the nodes of `inputs` and `output`, never the tensors; the adjoint
    should close over those nodes (`Tensor.node`) and the arrays it reads,
    nothing else, so that a value no adjoint reads is freed when the forward
    code drops it. `accumulate_grad` takes ownership of the array it is
    given: an adjoint passes an array it made and no one else holds, and
    copies `g`, or a view of it, before passing it on.
    """
    tape = active_tape()
    if tape is not None and output.requires_grad:
        tape._records.append(TapeRecord(op, tuple(t.node for t in inputs), output.node))
        tape._adjoints.append(adjoint)


def accumulate_grad(t: Node | Tensor, g: np.ndarray) -> None:
    """Add `g` into `t.grad`; a first write keeps `g` itself, which the caller
    hands over (see `record_operation`), cast to `t`'s dtype if it differs."""
    if not t.requires_grad:
        return
    if t.grad is None:
        ours = isinstance(g, np.ndarray) and g.dtype == t.dtype
        t.grad = g if ours else np.array(g, dtype=t.dtype)
    else:
        t.grad += g


def _pass_grad(t: Node, g: np.ndarray) -> None:
    """`accumulate_grad` of `g` or a view of it, which other tensors may hold:
    a first write takes a copy."""
    accumulate_grad(t, np.array(g) if t.grad is None else g)


# ---------------------------------------------------------------------------
# broadcasting helpers (suffix alignment only)


def _suffix_of(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    return len(small) <= len(big) and big[len(big) - len(small):] == small


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over the leading axes a suffix-aligned operand was stretched over."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape:
        return
    if _suffix_of(b.shape, a.shape) or _suffix_of(a.shape, b.shape):
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not suffix-aligned")


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as an axis of 1, by a matrix-vector product.

    numpy reduces a short contiguous axis (25 to 200 here) row by row, several
    times slower than one BLAS pass.
    """
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.ones(n, dtype=x.dtype)).reshape(x.shape[:-1] + (1,))


def _row_max(x: np.ndarray) -> np.ndarray:
    """Exact max over the last axis, kept as an axis of 1, one column at a time."""
    cols = x.reshape(-1, x.shape[-1])
    m = cols[:, 0].copy()
    for j in range(1, cols.shape[1]):
        np.maximum(m, cols[:, j], out=m)
    return m.reshape(x.shape[:-1] + (1,))


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array the caller owns, in place."""
    x -= _row_max(x)  # overflow guard
    np.exp(x, out=x)
    x /= _row_sum(x)
    return x


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "add")
    out = wrap(a.data + b.data, a.requires_grad or b.requires_grad)
    if not _taped(out):
        return out
    nodes = (a.node, b.node)

    def adjoint(g: np.ndarray) -> None:
        for t in nodes:
            if t.requires_grad:
                if t.shape == g.shape:
                    _pass_grad(t, g)
                else:
                    accumulate_grad(t, _reduce_to(g, t.shape))

    record_operation("add", (a, b), out, adjoint)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _binary_shapes(a, b, "mul")
    out = wrap(a.data * b.data, a.requires_grad or b.requires_grad)
    if not _taped(out):
        return out
    an, bn = a.node, b.node
    # each operand is kept only for the other's gradient
    av = a.data if b.requires_grad else None
    bv = b.data if a.requires_grad else None

    def adjoint(g: np.ndarray) -> None:
        if an.requires_grad:
            accumulate_grad(an, _reduce_to(g * bv, an.shape))
        if bn.requires_grad:
            accumulate_grad(bn, _reduce_to(g * av, bn.shape))

    record_operation("mul", (a, b), out, adjoint)
    return out


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = wrap(-a.data, a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        accumulate_grad(an, -g)

    record_operation("neg", (a,), out, adjoint)
    return out


def matmul(a, b) -> Tensor:
    """Matrix product.

    Supported forms: plain (m,k)@(k,n); stacked with identical leading axes
    (..., m, k) @ (..., k, n); and a shared rank-2 right operand
    (..., m, k) @ (k, n), whose adjoint sums over the leading axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ: {a.shape} @ {b.shape}")
    shared_rhs = b.ndim == 2 and a.ndim > 2
    if not shared_rhs and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dimensions differ: {a.shape} @ {b.shape}")
    out = wrap(a.data @ b.data, a.requires_grad or b.requires_grad)
    if not _taped(out):
        return out
    an, bn = a.node, b.node
    # each operand is kept only for the other's gradient
    av = a.data if b.requires_grad else None
    bv = b.data if a.requires_grad else None

    def adjoint(g: np.ndarray) -> None:
        if an.requires_grad:
            accumulate_grad(an, g @ np.swapaxes(bv, -1, -2))
        if not bn.requires_grad:
            return
        if shared_rhs:
            k, n = bn.shape
            accumulate_grad(bn, av.reshape(-1, k).T @ g.reshape(-1, n))
        else:
            accumulate_grad(bn, np.swapaxes(av, -1, -2) @ g)

    record_operation("matmul", (a, b), out, adjoint)
    return out


def linear(x, w, b) -> Tensor:
    """Affine map `x @ w + b` over the last axis of `x`.

    `w` is (k, n) and `b` is (n,). The leading axes of `x` are flattened into
    one 2-D product, and the bias is added in place: one tape record instead
    of a matmul and an add. Under a tape `x` is kept only when `w` trains.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: cannot apply weight {w.shape} to input {x.shape}")
    k, n = w.shape
    if b.shape != (n,):
        raise ShapeError(f"linear: bias {b.shape} does not match output width {n}")
    x2 = x.data.reshape(-1, k)
    y = x2 @ w.data
    y += b.data
    out = wrap(y.reshape(x.shape[:-1] + (n,)), x.requires_grad or w.requires_grad or b.requires_grad)
    if not _taped(out):
        return out
    xn, wn, bn = x.node, w.node, b.node
    x2 = x2 if w.requires_grad else None
    wv = w.data if x.requires_grad else None

    def adjoint(g: np.ndarray) -> None:
        g2 = g.reshape(-1, n)
        if xn.requires_grad:
            accumulate_grad(xn, (g2 @ wv.T).reshape(xn.shape))
        if wn.requires_grad:
            accumulate_grad(wn, x2.T @ g2)
        if bn.requires_grad:
            accumulate_grad(bn, g2.sum(axis=0))

    record_operation("linear", (x, w, b), out, adjoint)
    return out


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = as_tensor(a)
    out = wrap(np.transpose(a.data, axes), a.requires_grad)
    if not _taped(out):
        return out
    an = a.node
    inverse = None if axes is None else tuple(np.argsort(axes))

    def adjoint(g: np.ndarray) -> None:
        _pass_grad(an, np.transpose(g, inverse))

    record_operation("transpose", (a,), out, adjoint)
    return out


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    out = wrap(a.data.reshape(shape), a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        _pass_grad(an, g.reshape(an.shape))

    record_operation("reshape", (a,), out, adjoint)
    return out


def _axis(op: str, axis: int, rank: int) -> int:
    """`axis` as an index from 0 into `rank` axes; a negative one counts from the end."""
    ax = axis + rank if axis < 0 else axis
    if not 0 <= ax < rank:
        raise ShapeError(f"{op}: axis {axis} out of range for rank {rank}")
    return ax


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    rank = parts[0].ndim
    ax = _axis("concat", axis, rank)
    ref = list(parts[0].shape)
    for p in parts[1:]:
        other = list(p.shape)
        if len(other) != rank or other[:ax] + other[ax + 1:] != ref[:ax] + ref[ax + 1:]:
            raise ShapeError(f"concat: incompatible shapes {parts[0].shape} and {p.shape} on axis {axis}")
    out = wrap(np.concatenate([p.data for p in parts], axis=ax), any(p.requires_grad for p in parts))
    if not _taped(out):
        return out
    nodes = [p.node for p in parts]

    def adjoint(g: np.ndarray) -> None:
        offset = 0
        for p in nodes:
            n = p.shape[ax]
            if p.requires_grad:
                sl = [slice(None)] * rank
                sl[ax] = slice(offset, offset + n)
                _pass_grad(p, g[tuple(sl)])
            offset += n

    record_operation("concat", parts, out, adjoint)
    return out


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    ax = _axis("slice", axis, a.ndim)
    if not 0 <= start <= stop <= a.shape[ax]:
        raise ShapeError(f"slice: [{start}:{stop}] invalid for extent {a.shape[ax]} on axis {axis}")
    index = [slice(None)] * a.ndim
    index[ax] = slice(start, stop)
    index = tuple(index)
    out = wrap(a.data[index], a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        # write the rows in place; a full-size buffer would be copied again
        if an.grad is None:
            an.grad = np.zeros(an.shape, dtype=an.dtype)
        an.grad[index] += g

    record_operation("slice", (a,), out, adjoint)
    return out


def expand_leading(a, n: int) -> Tensor:
    """Stack `n` copies of `a` along a new leading axis; adjoint sums them."""
    a = as_tensor(a)
    out = wrap(np.broadcast_to(a.data, (n,) + a.shape).copy(), a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        accumulate_grad(an, g.sum(axis=0))

    record_operation("expand_leading", (a,), out, adjoint)
    return out


def tsum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    ax = None if axis is None else _axis("sum", axis, a.ndim)
    out = wrap(a.data.sum(axis=ax), a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        if ax is None:
            accumulate_grad(an, np.broadcast_to(g, an.shape).copy())
        else:
            accumulate_grad(an, np.broadcast_to(np.expand_dims(g, ax), an.shape).copy())

    record_operation("sum", (a,), out, adjoint)
    return out


def tmean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    ax = None if axis is None else _axis("mean", axis, a.ndim)
    count = a.size if ax is None else a.shape[ax]
    if count == 0:
        raise ShapeError("mean over zero elements")
    inv = 1.0 / count
    out = wrap(a.data.mean(axis=ax), a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        if ax is None:
            accumulate_grad(an, np.broadcast_to(g * inv, an.shape).copy())
        else:
            accumulate_grad(an, np.broadcast_to(np.expand_dims(g * inv, ax), an.shape).copy())

    record_operation("mean", (a,), out, adjoint)
    return out


def texp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)
    out = wrap(y, a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        accumulate_grad(an, g * y)

    record_operation("exp", (a,), out, adjoint)
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# Float32 GELU reads the Gaussian tail e(a) = Phi(-a), a = |x|, from a table
# at steps of 1/1024, interpolated linearly, and takes
#     gelu(x) = max(x, 0) - |x| * e(|x|)
# which is exact algebra for both signs. The tail is small where |x| is large,
# so its float32 rounding stays far below the output's own. Past a = 6 the
# tail (1e-9) is taken as 0 and GELU is exactly relu. The table is built with
# `math.erfc`, so importing this module does not load scipy.special; float64
# mode imports scipy's erf where it runs.
_TAIL_STEP = 1.0 / 1024
_TAIL_END = 6.0


def _tail_table() -> tuple[np.ndarray, np.ndarray]:
    n = round(_TAIL_END / _TAIL_STEP) + 2
    tail = np.array([0.5 * math.erfc(i * _TAIL_STEP * _INV_SQRT2) for i in range(n)])
    tail[-2:] = 0.0
    return tail[:-1].astype(np.float32), np.diff(tail).astype(np.float32)


_TAIL, _TAIL_SLOPE = _tail_table()


def _gelu(x: np.ndarray, y: np.ndarray, cdf: np.ndarray | None) -> None:
    """GELU of the flat array `x` into `y`, and Phi(x) into `cdf` unless it is None.

    Float64 takes erf from scipy, the reference. Float32 reads the tail table
    above. `mlp` calls it one row block at a time, which keeps these
    temporaries cache-sized.
    """
    if x.dtype == np.float64:
        from scipy.special import erf

        c = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        np.multiply(x, c, out=y)
        if cdf is not None:
            cdf[...] = c
        return
    absx, u, w, e = np.empty((4, x.size), dtype=np.float32)
    i = np.empty(x.size, dtype=np.intp)
    np.abs(x, out=absx)
    np.minimum(absx, _TAIL_END, out=absx)
    np.multiply(absx, 1.0 / _TAIL_STEP, out=u)
    np.trunc(u, out=w)
    np.copyto(i, w, casting="unsafe")
    u -= w  # position between table entries
    np.take(_TAIL_SLOPE, i, out=e, mode="clip")
    e *= u
    e += np.take(_TAIL, i, out=w, mode="clip")
    absx *= e
    np.maximum(x, 0.0, out=y)
    y -= absx
    if cdf is not None:  # Phi(x): e below 0, 1 - e above
        np.subtract(0.5, e, out=cdf)
        np.copysign(cdf, x, out=cdf)
        cdf += 0.5


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d gelu / dx = Phi(x) + x * phi(x)."""
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return cdf + x * pdf


def gelu(a) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit.

    Float64 mode takes erf from scipy, the reference. Float32 mode uses the
    tail table above; it stays within 5e-7 of the float64 reference and is
    exactly 0 at 0.
    """
    a = as_tensor(a)
    x = np.ascontiguousarray(a.data).reshape(-1)
    keep = a.requires_grad and active_tape() is not None  # the adjoint needs the cdf
    y = np.empty_like(x)
    cdf = np.empty_like(x) if keep else None
    _gelu(x, y, cdf)
    out = wrap(y.reshape(a.shape), a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        accumulate_grad(an, (g.reshape(-1) * _gelu_slope(x, cdf)).reshape(an.shape))

    record_operation("gelu", (a,), out, adjoint)
    return out


# `mlp` works through its input in blocks of this many rows, so a block's
# hidden activation (256 x 192 float32 in the default encoder, 192 KiB) stays
# in a core's L2 cache and no full-width activation exists outside a tape.
# 256 to 1024 rows measured the same.
MLP_ROWS = 256


def mlp(x, w1, b1, w2, b2) -> Tensor:
    """Two-layer perceptron `gelu(x @ w1 + b1) @ w2 + b2` over the last axis of `x`.

    One tape record whose values equal `linear`, `gelu`, `linear` bit for
    bit. The rows run in blocks of MLP_ROWS. Under a tape the pre-activation
    and Phi of the hidden layer are kept for the adjoint, the input only when
    `w1` needs a gradient, and the GELU output only when `w2` does. Keeping
    that output rather than recomputing it in the adjoint adds 2.6 MB to the
    19.9 MB peak of a default batch-64 pretrain step and saves a GELU pass
    per layer, which made the step about 30% slower (2-core x86-64, two BLAS
    threads).
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (w1.ndim != 2 or w2.ndim != 2 or x.ndim < 1
            or x.shape[-1] != w1.shape[0] or w2.shape[0] != w1.shape[1]):
        raise ShapeError(f"mlp: cannot apply weights {w1.shape}, {w2.shape} to input {x.shape}")
    k, h = w1.shape
    n = w2.shape[1]
    if b1.shape != (h,) or b2.shape != (n,):
        raise ShapeError(f"mlp: biases {b1.shape}, {b2.shape} do not match widths {h}, {n}")
    x2 = x.data.reshape(-1, k)
    rows = x2.shape[0]
    requires_grad = any(t.requires_grad for t in (x, w1, b1, w2, b2))
    keep = requires_grad and active_tape() is not None
    y = np.empty((rows, n), dtype=x2.dtype)
    pre = np.empty((rows if keep else min(rows, MLP_ROWS), h), dtype=x2.dtype)
    cdf = np.empty_like(pre) if keep else None
    keep_act = keep and w2.requires_grad
    act = np.empty((rows if keep_act else min(rows, MLP_ROWS), h), dtype=x2.dtype)
    for lo in range(0, rows, MLP_ROWS):
        hi = min(lo + MLP_ROWS, rows)
        p = pre[lo:hi] if keep else pre[:hi - lo]
        a = act[lo:hi] if keep_act else act[:hi - lo]
        np.matmul(x2[lo:hi], w1.data, out=p)
        p += b1.data
        _gelu(p.reshape(-1), a.reshape(-1), cdf[lo:hi].reshape(-1) if keep else None)
        np.matmul(a, w2.data, out=y[lo:hi])
        y[lo:hi] += b2.data
    out = wrap(y.reshape(x.shape[:-1] + (n,)), requires_grad)
    if not _taped(out):
        return out
    xn, w1n, b1n, w2n, b2n = (t.node for t in (x, w1, b1, w2, b2))
    w1v, w2v = w1.data, w2.data
    x2 = x2 if w1.requires_grad else None
    act = act if keep_act else None  # one block of scratch otherwise

    def adjoint(g: np.ndarray) -> None:
        g2 = g.reshape(-1, n)
        if b2n.requires_grad:
            accumulate_grad(b2n, g2.sum(axis=0))
        if w2n.requires_grad:
            accumulate_grad(w2n, act.T @ g2)
        if not (xn.requires_grad or w1n.requires_grad or b1n.requires_grad):
            return
        dh = g2 @ w2v.T
        for lo in range(0, rows, MLP_ROWS):
            dh[lo:lo + MLP_ROWS] *= _gelu_slope(pre[lo:lo + MLP_ROWS], cdf[lo:lo + MLP_ROWS])
        if w1n.requires_grad:
            accumulate_grad(w1n, x2.T @ dh)
        if b1n.requires_grad:
            accumulate_grad(b1n, dh.sum(axis=0))
        if xn.requires_grad:
            accumulate_grad(xn, (dh @ w1v.T).reshape(xn.shape))

    record_operation("mlp", (x, w1, b1, w2, b2), out, adjoint)
    return out


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    ax = _axis("softmax", axis, a.ndim)
    y = np.moveaxis(_softmax_rows(np.moveaxis(a.data, ax, -1).copy()), -1, ax)
    out = wrap(y, a.requires_grad)
    if not _taped(out):
        return out
    an = a.node

    def adjoint(g: np.ndarray) -> None:
        inner = (g * y).sum(axis=ax, keepdims=True)
        accumulate_grad(an, y * (g - inner))

    record_operation("softmax", (a,), out, adjoint)
    return out


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of (B, Sq, d) queries over (B, S, d) keys.

    The width d splits into `heads` blocks of d / heads; each head attends
    over the S key and value positions, and the heads merge back into
    (B, Sq, d). There may be fewer queries than keys (Sq <= S), as when only
    the first rows of a sequence are needed. One tape record: the adjoint
    works from the saved softmax, and no scores or per-head contexts are kept.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape
            or q.shape[0] != k.shape[0] or q.shape[2] != k.shape[2] or q.shape[1] > k.shape[1]):
        raise ShapeError(
            f"attention needs (B, Sq, d) queries over (B, S, d) keys and values with Sq <= S, "
            f"got {q.shape}, {k.shape}, {v.shape}"
        )
    b, _, d = q.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    hd = d // heads
    scale = 1.0 / math.sqrt(hd)

    def split(t: np.ndarray) -> np.ndarray:  # (B, S, d) -> (B, heads, S, hd) view
        return t.reshape(b, t.shape[1], heads, hd).transpose(0, 2, 1, 3)

    def merge(t: np.ndarray) -> np.ndarray:  # (B, heads, S, hd) -> (B, S, d)
        return t.transpose(0, 2, 1, 3).reshape(b, t.shape[2], d)

    q4, k4, v4 = split(q.data), split(k.data), split(v.data)
    p = q4 @ np.swapaxes(k4, -1, -2)
    p *= scale
    _softmax_rows(p)
    out = wrap(merge(p @ v4), q.requires_grad or k.requires_grad or v.requires_grad)
    if not _taped(out):
        return out
    qn, kn, vn = q.node, k.node, v.node
    # the softmax is always kept; q, k and v only for each other's gradients
    v4 = v4 if q.requires_grad or k.requires_grad else None
    k4 = k4 if q.requires_grad else None
    q4 = q4 if k.requires_grad else None

    def adjoint(g: np.ndarray) -> None:
        g4 = split(g)
        if vn.requires_grad:
            accumulate_grad(vn, merge(np.swapaxes(p, -1, -2) @ g4))
        if not (qn.requires_grad or kn.requires_grad):
            return
        ds = g4 @ np.swapaxes(v4, -1, -2)
        ds -= _row_sum(ds * p)
        ds *= p
        ds *= scale
        if qn.requires_grad:
            accumulate_grad(qn, merge(ds @ k4))
        if kn.requires_grad:
            accumulate_grad(kn, merge(np.swapaxes(ds, -1, -2) @ q4))

    record_operation("attention", (q, k, v), out, adjoint)
    return out


LAYER_NORM_EPS = 1e-6


def layer_norm(a, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then `* gamma + beta`.

    `gamma` and `beta` are each of the normalized width; pass frozen ones and
    zeros for the plain normalization.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    d = a.shape[-1] if a.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm over an empty axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma {gamma.shape} and beta {beta.shape} must be ({d},)")
    mu = _row_sum(a.data) / d
    centered = a.data - mu
    var = _row_sum(centered * centered) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = centered * inv
    z = y * gamma.data
    z += beta.data
    out = wrap(z, a.requires_grad or gamma.requires_grad or beta.requires_grad)
    if not _taped(out):
        return out
    an, gn, bn = a.node, gamma.node, beta.node
    gv = gamma.data

    def adjoint(g: np.ndarray) -> None:
        if gn.requires_grad:
            accumulate_grad(gn, (g * y).reshape(-1, d).sum(axis=0))
        if bn.requires_grad:
            accumulate_grad(bn, g.reshape(-1, d).sum(axis=0))
        if not an.requires_grad:
            return
        g = g * gv
        gm = _row_sum(g) / d
        gym = _row_sum(g * y) / d
        accumulate_grad(an, inv * (g - gm - y * gym))

    record_operation("layer_norm", (a, gamma, beta), out, adjoint)
    return out


def clamp(a, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    out = wrap(np.clip(a.data, lo, hi), a.requires_grad)
    if not _taped(out):
        return out
    an = a.node
    # subgradient: pass-through on the closed interval, zero outside
    mask = (a.data >= lo) & (a.data <= hi)

    def adjoint(g: np.ndarray) -> None:
        accumulate_grad(an, g * mask)

    record_operation("clamp", (a,), out, adjoint)
    return out


def embedding(table, indices) -> Tensor:
    """Row lookup `table[indices]`; the adjoint scatter-adds into the table."""
    table = as_tensor(table)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("embedding indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValidationError(f"embedding index out of range [0, {table.shape[0]})")
    out = wrap(table.data[idx], table.requires_grad)
    if not _taped(out):
        return out
    tn = table.node

    def adjoint(g: np.ndarray) -> None:
        if tn.requires_grad:
            if tn.grad is None:
                tn.grad = np.zeros(tn.shape, dtype=tn.dtype)
            np.add.at(tn.grad, idx, g)

    record_operation("embedding", (table,), out, adjoint)
    return out


def cross_entropy_with_logits(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(f"cross entropy: logits {logits.shape} vs labels {labels.shape}")
    n, c = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValidationError(f"label out of range [0, {c})")
    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    lse = np.log(np.exp(shifted).sum(axis=1)) + m[:, 0]
    picked = logits.data[np.arange(n), labels]
    out = wrap(np.asarray((lse - picked).mean(), dtype=logits.data.dtype), logits.requires_grad)
    if not _taped(out):
        return out
    ln = logits.node

    def adjoint(g: np.ndarray) -> None:
        e = np.exp(shifted)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        accumulate_grad(ln, p * (g / n))

    record_operation("cross_entropy_with_logits", (logits,), out, adjoint)
    return out


def gaussian(shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """A sampled standard-normal node, constant with respect to the tape."""
    return Tensor(rng.standard_normal(shape))
