"""Dense tensor algebra with reverse-mode differentiation on an explicit tape.

Tensors wrap a numpy array plus an optional gradient buffer. Primitive ops
record their adjoint closures on the active ComputationTape; replaying the
tape in reverse accumulates gradients into every leaf on the path to the
loss. An adjoint may return None for an input that needs no gradient. A
tape is replayed once: backward releases each record as its adjoint runs,
so afterwards only leaves hold .grad.
Precision is a process-global switch: float32 for training, float64 for
gradient verification.

The layers that run most often are single primitives with hand-written
adjoints: residual_norm, the post-norm residual layer norm of x + y; linear
(x @ w + b) and linear_relu, which keeps only its output; self_attention, a
whole post-norm residual multi-head self-attention layer over each clip's
queries; and context_attention, a whole projected attention layer in which
each query attends only to its own context rows (aggregation and
box-guided cross-attention). Each forward runs the numpy operations of the
elementwise composition it replaces, in the same order, so its output bytes
are those of the composition.

Discrete decisions (ReLU masks, carried boxes, selections, assignments) are
made off the tape, each in one hold(make) whose make holds nothing; outside
a Replay, hold returns make(). A Replay records a pass's held values and
plays them back, so later passes are smooth near the recorded point.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

_dtype = np.dtype(np.float64)
_tapes: list["ComputationTape"] = []       # innermost active tape last
_replays: list["Replay"] = []              # innermost active replay last
LN_EPS = 1e-5                              # every layer norm's variance floor


def set_precision(bits: int) -> None:
    """Select 32- or 64-bit floats for all freshly created tensors."""
    global _dtype
    if bits not in (32, 64):
        raise ConfigError(f"precision must be 32 or 64, got {bits}")
    _dtype = np.dtype(np.float32 if bits == 32 else np.float64)


def get_dtype() -> np.dtype:
    return _dtype


@contextmanager
def precision(bits: int):
    global _dtype
    old = _dtype
    set_precision(bits)
    try:
        yield
    finally:
        _dtype = old


class Tensor:
    """Shape-tagged dense array with an optional same-shape gradient buffer,
    None until a backward pass reaches the tensor or a caller sets one."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=get_dtype())
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; scalars and arrays are wrapped as constants.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def tensor(data) -> Tensor:
    """Constant tensor in the current precision."""
    return Tensor(data)


def param(data) -> Tensor:
    """Trainable leaf: requires_grad, without a grad buffer until backward
    reaches it (training.flatten gives the trained ones theirs)."""
    return Tensor(data, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class ComputationTape:
    """Ordered record of primitive ops, replayed in reverse for adjoints.

    One record per primitive: (op name, inputs, output, adjoint fn). A tape
    is replayed once. After backward only leaves hold .grad; the records'
    slots are None, and len() still counts the records that were made."""

    def __init__(self):
        self.records: list[tuple | None] = []
        self.spent = False

    def __enter__(self) -> "ComputationTape":
        _tapes.append(self)
        return self

    def __exit__(self, *exc):
        _tapes.pop()
        return False

    def __len__(self) -> int:
        return len(self.records)

    def backward(self, loss: Tensor, seed=None) -> None:
        """Accumulate d(loss)/dx into .grad of every leaf on the path.

        Each record's slot and its output's .grad are cleared as its adjoint
        runs, so the forward arrays, closures and upstream gradients that
        only the tape held are freed during the pass."""
        if self.spent:
            raise RuntimeError("backward on a spent tape: a tape is replayed once")
        self.spent = True
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += np.ones_like(loss.data) if seed is None else seed
        records = self.records
        for i in range(len(records) - 1, -1, -1):
            _op, inputs, output, backward = records[i]
            records[i] = None
            og, output.grad = output.grad, None
            if og is None:
                continue
            grads = backward(og)
            for inp, g in zip(inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                if inp.grad is None:
                    # Copy: adjoints may alias the upstream gradient buffer.
                    inp.grad = np.array(g, dtype=inp.data.dtype)
                else:
                    inp.grad += g


def _active_tape() -> ComputationTape | None:
    return _tapes[-1] if _tapes else None


class Replay:
    """One pass's held values, recorded and played back (see above)."""

    def __init__(self):
        self.values, self.read, self.recording = [], 0, False

    def record(self):
        self.values, self.recording = [], True
        return self.play()

    @contextmanager
    def play(self):
        """Serve the values in order to a pass that must read exactly as many."""
        self.read = 0
        _replays.append(self)
        try:
            yield
        finally:
            _replays.pop()
            self.recording = False
        if self.read != len(self.values):
            raise RuntimeError(f"replay: the pass read {self.read} of {len(self.values)} values")


def hold(make: Callable[[], object]):
    """make(), or the value the innermost Replay records or plays back."""
    if not _replays:
        return make()
    r = _replays[-1]
    if r.recording:
        r.values.append(make())
    elif r.read == len(r.values):
        raise RuntimeError(f"replay: the pass reads more than its {len(r.values)} values")
    r.read += 1
    return r.values[r.read - 1]


def _record(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
            backward: Callable[[np.ndarray], tuple]) -> Tensor:
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = False
    out.grad = None
    if track:
        out.requires_grad = True
        tape.records.append((op, inputs, out, backward))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    return _record("add", (a, b), a.data + b.data,
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _record("sub", (a, b), a.data - b.data,
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _record("mul", (a, b), a.data * b.data,
                   lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                              _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return _record("div", (a, b), out,
                   lambda g: (_unbroadcast(g / b.data, a.shape),
                              _unbroadcast(-g * out / b.data, b.shape)))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record("exp", (a,), out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return _record("log", (a,), np.log(a.data), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    return _record("sqrt", (a,), out, lambda g: (g * (0.5 / out),))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def stable_softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow for large |x|."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(a: Tensor) -> Tensor:
    out = stable_sigmoid(a.data)
    return _record("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


# ---------------------------------------------------------------------------
# Reductions and shape ops


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record("sum", (a,), np.asarray(out), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[i] for i in ax]))
    return reduce_sum(a, axis, keepdims) * (1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    return _record("reshape", (a,), a.data.reshape(shape),
                   lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _record("transpose", (a,), np.ascontiguousarray(a.data.transpose(axes)),
                   lambda g: (g.transpose(inv),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(piece)
                     for piece in np.split(g, offsets, axis=axis))

    return _record("concat", tuple(parts), out, backward)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0; adjoint scatter-adds back."""
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def backward(g):
        z = np.zeros_like(a.data)
        rows = idx % len(a)                 # a negative index and its alias are one row
        order = np.argsort(rows, kind="stable")
        ordered = rows[order]
        first = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))   # run starts
        if len(first) == len(idx):
            z[idx] = g
        else:
            # One reduction per run of equal indices in the stably sorted order.
            z[ordered[first]] = np.add.reduceat(g[order], first, axis=0)
        return (z,)

    return _record("gather_rows", (a,), out, backward)


def row_update(a: Tensor, idx, rows: Tensor) -> Tensor:
    """Replace rows of a (along axis 0) with the given rows; indices unique."""
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data.copy()
    out[idx] = rows.data

    def backward(g):
        ga = g.copy()
        ga[idx] = 0.0
        return (ga, g[idx])

    return _record("row_update", (a, rows), out, backward)


# ---------------------------------------------------------------------------
# Linear algebra


def _check_matmul(op: str, a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _shared_weight_adjoint(g: np.ndarray, a: Tensor, w: Tensor) -> tuple:
    """Gradients of a @ w for a 2-D w that every leading index of a shares:
    one GEMM each over the [rows, k] flattening of a, so no [B, k, m] stack
    of per-matrix weight gradients is built."""
    k, m = w.shape
    rows = g.reshape(-1, m)
    return ((rows @ w.data.T).reshape(a.shape) if a.requires_grad else None,
            a.data.reshape(len(rows), k).T @ rows if w.requires_grad else None)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, leading axes broadcast.

    The forward pass makes one BLAS call per stacked matrix, so a matrix's
    product does not depend on how many others share the batch, down to the
    last bit. The adjoint folds a 2-D b that every leading index of a
    shares (see _shared_weight_adjoint)."""
    _check_matmul("matmul", a, b)
    out = a.data @ b.data

    def backward(g):
        if b.ndim == 2:
            return _shared_weight_adjoint(g, a, b)
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None
        return (ga, gb)

    return _record("matmul", (a, b), out, backward)


def _softmax(x: np.ndarray, nan_message: str, axis: int = -1) -> np.ndarray:
    """The max-shifted softmax of x over axis; a NaN in x raises
    NumericError(nan_message)."""
    if np.isnan(x).any():
        raise NumericError(nan_message)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_adjoint(g: np.ndarray, p: np.ndarray, axis: int = -1) -> np.ndarray:
    """The gradient of the softmax logits, given p = _softmax(...) and g,
    the gradient of p."""
    return (g - (g * p).sum(axis=axis, keepdims=True)) * p


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = _softmax(a.data, "softmax: NaN in input", axis)
    return _record("softmax", (a,), out, lambda g: (_softmax_adjoint(g, out, axis),))


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    # Max shift is a constant; its contribution to the derivative cancels.
    shift = a.data.max(axis=axis, keepdims=True)
    return log(reduce_sum(exp(a - tensor(shift)), axis=axis)) + tensor(np.squeeze(shift, axis=axis))


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xhat, 1 / std) of the last axis of x: zero mean, unit variance."""
    d = x.shape[-1]
    if d < 2:
        raise ConfigError(f"layer norm needs a normalized dim >= 2, got {d}")
    dt = get_dtype()
    inv_d = np.asarray(1.0 / d, dtype=dt)
    centered = x - x.sum(axis=-1, keepdims=True) * inv_d
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    inv = np.asarray(1.0, dtype=dt) / np.sqrt(var + np.asarray(LN_EPS, dtype=dt))
    return centered * inv, inv


def _norm_adjoint(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: Tensor,
                  bias: Tensor) -> tuple:
    """Gradients of xhat * gain + bias: (normalized input, gain, bias)."""
    gh = g * gain.data
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    return (gx,
            _unbroadcast(g * xhat, gain.shape) if gain.requires_grad else None,
            _unbroadcast(g, bias.shape) if bias.requires_grad else None)


def residual_norm(x: Tensor, y: Tensor, ln: LayerNormParams) -> Tensor:
    """The layer norm of x + y with ln's gain and bias, as one record: the
    sum is not kept, and both summands get the normalized input's gradient.
    residual_norm(x, tensor(0.0), ln) is the layer norm of x alone."""
    xhat, inv = _normalize(x.data + y.data)

    def backward(g):
        gs, ggain, gbias = _norm_adjoint(g, xhat, inv, ln.gain, ln.bias)
        return (_unbroadcast(gs, x.shape) if x.requires_grad else None,
                _unbroadcast(gs, y.shape) if y.requires_grad else None, ggain, gbias)

    return _record("residual_norm", (x, y, ln.gain, ln.bias),
                   xhat * ln.gain.data + ln.bias.data, backward)


def self_attention(x: Tensor, p: MHAParams, ln: LayerNormParams, clips: int = 1) -> Tensor:
    """Post-norm residual multi-head self-attention within each clip of a
    [B*T, L, d] stack of B = clips clips: each clip's T*L rows attend over
    one another, layer_norm(x + out(attention(q(x), k(x), v(x)))) with ln's
    gain and bias, as one record. The q, k and v products, the head split
    and merge, the max-shifted softmax, the output projection and the norm
    are those of the composition, in its order. The adjoint reuses the
    head stacks, probabilities and merged context, and sums x's gradient
    as the composition does: residual, then value, key, query."""
    t, L, d = x.shape
    h = p.heads
    if d % h != 0:
        raise ConfigError(f"attention dim {d} not divisible by {h} heads")
    n, hd = t // clips * L, d // h
    scale = np.asarray(1.0 / math.sqrt(hd), dtype=get_dtype())
    wq, wk, wv, wo = p.q.w.data, p.k.data, p.v.w.data, p.out.w.data
    xs = x.data.reshape(clips, n, d)

    def split(a: np.ndarray) -> np.ndarray:                       # [B, H, n, hd]
        return np.ascontiguousarray(a.reshape(clips, n, h, hd).transpose(0, 2, 1, 3))

    def merge(a: np.ndarray) -> np.ndarray:                       # [B, n, d]
        return np.ascontiguousarray(a.transpose(0, 2, 1, 3)).reshape(clips, n, d)

    qh, kh, vh = split(xs @ wq + p.q.b.data), split(xs @ wk), split(xs @ wv + p.v.b.data)
    attn = _softmax((qh @ np.ascontiguousarray(kh.transpose(0, 1, 3, 2))) * scale,
                    "self_attention: NaN in logits")
    ctx = merge(attn @ vh)
    xhat, inv = _normalize(xs + (ctx @ wo + p.out.b.data))

    def backward(g):
        gs, ggain, gbias = _norm_adjoint(g.reshape(xs.shape), xhat, inv, ln.gain, ln.bias)
        gctx = (gs.reshape(-1, d) @ wo.T).reshape(clips, n, h, hd).transpose(0, 2, 1, 3)
        gattn = gctx @ np.swapaxes(vh, -1, -2)
        glogits = _softmax_adjoint(gattn, attn) * scale
        gq, gk = merge(glogits @ kh), merge(np.swapaxes(glogits, -1, -2) @ qh)
        gv = merge(np.swapaxes(attn, -1, -2) @ gctx)
        gx = None
        if x.requires_grad:
            gx = gs + (gv.reshape(-1, d) @ wv.T).reshape(xs.shape)
            gx += (gk.reshape(-1, d) @ wk.T).reshape(xs.shape)
            gx += (gq.reshape(-1, d) @ wq.T).reshape(xs.shape)
        rows = xs.reshape(-1, d).T
        return (None if gx is None else gx.reshape(x.shape),
                rows @ gq.reshape(-1, d) if p.q.w.requires_grad else None,
                _unbroadcast(gq, p.q.b.shape) if p.q.b.requires_grad else None,
                rows @ gk.reshape(-1, d) if p.k.requires_grad else None,
                rows @ gv.reshape(-1, d) if p.v.w.requires_grad else None,
                _unbroadcast(gv, p.v.b.shape) if p.v.b.requires_grad else None,
                ctx.reshape(-1, d).T @ gs.reshape(-1, d) if p.out.w.requires_grad else None,
                _unbroadcast(gs, p.out.b.shape) if p.out.b.requires_grad else None, ggain, gbias)

    return _record("self_attention", (x, p.q.w, p.q.b, p.k, p.v.w, p.v.b, p.out.w, p.out.b,
                                      ln.gain, ln.bias),
                   (xhat * ln.gain.data + ln.bias.data).reshape(x.shape), backward)


def context_attention(q: Tensor, ctx: Tensor, p: MHAParams) -> Tensor:
    """Multi-head attention of each query row of q [..., d] over its own
    context rows ctx [..., n, d] -> [..., d], projecting no key or value
    row, as one record: the query projection and 1/sqrt(hd) scale, each
    head's key weight folded into its query, the max-shifted softmax over
    the last axis of the [A, H, n] logits, the weighted sum of the context
    rows, then the value weight and bias and the output projection. Each
    forward product is one row's or one (row, head)'s, so no row changes
    another's bits; the adjoint computes each weight gradient as one GEMM
    over the rows (per head for the key and value weights), and recomputes
    the [A, H, d] folded queries and mixed context rows rather than keeping
    them."""
    d = q.shape[-1]
    n = ctx.shape[-2]
    if ctx.shape != q.shape[:-1] + (n, d):
        raise DimensionError(f"context_attention: queries {q.shape}, context {ctx.shape}")
    if d % p.heads != 0:
        raise ConfigError(f"attention dim {d} not divisible by {p.heads} heads")
    A, h = math.prod(q.shape[:-1]), p.heads
    hd = d // h
    scale = np.asarray(1.0 / math.sqrt(hd), dtype=get_dtype())
    wq, wk, wv, wo = p.q.w.data, p.k.data, p.v.w.data, p.out.w.data
    x = q.data.reshape(A, 1, d)
    c = ctx.data.reshape(A, n, d)
    qh = (x @ wq + p.q.b.data).reshape(A, h, 1, hd) * scale
    wk_h = np.ascontiguousarray(wk.reshape(d, h, hd).transpose(1, 2, 0))      # [H, hd, d]
    qk = (qh @ wk_h).reshape(A, h, d)
    # Transpose the logits, not ctx: an axis-1 softmax over [A, n, H] is slower.
    logits = np.ascontiguousarray((c @ np.ascontiguousarray(qk.transpose(0, 2, 1)))
                                  .transpose(0, 2, 1))                       # [A, H, n]
    attn = _softmax(logits, "context_attention: NaN in logits")
    mixed = attn @ c                                                          # [A, H, d]
    wv_h = np.ascontiguousarray(wv.reshape(d, h, hd).transpose(1, 0, 2))      # [H, d, hd]
    vals = (mixed.reshape(A, h, 1, d) @ wv_h).reshape(A, 1, d) + p.v.b.data
    out = vals @ wo + p.out.b.data

    def per_head(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """sum over rows of a[r, h, :]^T b[r, h, :] for [A, H, i] a and
        [A, H, j] b, as the [i, H*j] weight gradient."""
        g = np.swapaxes(a, 0, 1).transpose(0, 2, 1) @ np.swapaxes(b, 0, 1)   # [H, i, j]
        return g.transpose(1, 0, 2).reshape(a.shape[-1], -1)

    def backward(g):
        g = g.reshape(A, d)
        gvals = (g @ wo.T).reshape(A, h, hd)
        gmixed = np.swapaxes(np.swapaxes(gvals, 0, 1) @ np.swapaxes(wv_h, 1, 2), 0, 1)
        gattn = gmixed @ np.swapaxes(c, 1, 2)
        glogits = _softmax_adjoint(gattn, attn)
        gqk = glogits @ c                                                     # [A, H, d]
        gqh = np.swapaxes(np.swapaxes(gqk, 0, 1) @ np.swapaxes(wk_h, 1, 2), 0, 1)
        gqp = gqh.reshape(A, d) * scale
        gctx = None
        if ctx.requires_grad:
            gctx = (np.swapaxes(attn, 1, 2) @ gmixed
                    + np.swapaxes(glogits, 1, 2) @ (qh @ wk_h).reshape(A, h, d)).reshape(ctx.shape)
        return ((gqp @ wq.T).reshape(q.shape) if q.requires_grad else None,
                gctx,
                x.reshape(A, d).T @ gqp if p.q.w.requires_grad else None,
                gqp.sum(axis=0) if p.q.b.requires_grad else None,
                per_head(gqk, qh.reshape(A, h, hd)) if p.k.requires_grad else None,
                per_head(attn @ c, gvals) if p.v.w.requires_grad else None,
                gvals.reshape(A, d).sum(axis=0) if p.v.b.requires_grad else None,
                vals.reshape(A, d).T @ g if p.out.w.requires_grad else None,
                g.sum(axis=0) if p.out.b.requires_grad else None)

    return _record("context_attention", (q, ctx, p.q.w, p.q.b, p.k, p.v.w, p.v.b,
                                         p.out.w, p.out.b), out.reshape(q.shape), backward)


# ---------------------------------------------------------------------------
# Convolution


def extract_patches(x: Tensor, ksize: int, stride: int, pad: int) -> Tensor:
    """im2col over a batched [B,H,W,C] map -> [B,OH,OW,ksize*ksize*C]."""
    b, h, w, c = x.shape
    xp = np.pad(x.data, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    oh = (h + 2 * pad - ksize) // stride + 1
    ow = (w + 2 * pad - ksize) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (ksize, ksize), axis=(1, 2))
    win = win[:, ::stride, ::stride]          # [B,OH,OW,C,k,k]
    out = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    out = out.reshape(b, oh, ow, ksize * ksize * c)

    padded = xp.shape

    def backward(g):
        g = g.reshape(b, oh, ow, ksize, ksize, c)
        gp = np.zeros(padded, dtype=x.data.dtype)
        for ki in range(ksize):
            for kj in range(ksize):
                gp[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += g[:, :, :, ki, kj]
        if pad:
            gp = gp[:, pad:-pad, pad:-pad]
        return (np.ascontiguousarray(gp),)

    return _record("extract_patches", (x,), out, backward)


# ---------------------------------------------------------------------------
# Parameter containers and layers


@dataclass
class LinearParams:
    w: Tensor
    b: Tensor


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int,
                gain: float = 1.0) -> LinearParams:
    """Uniform +-gain/sqrt(fan_in) weights and biases; gain sqrt(6) keeps
    activation variance through a relu layer (used by the conv blocks)."""
    bound = gain / math.sqrt(fan_in)
    w = param(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    b = param(rng.uniform(-bound, bound, size=(fan_out,)) / gain)
    return LinearParams(w, b)


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """x @ w + b over the last axis of x, as one record: matmul's product
    and weight adjoint, and add's bias reduction."""
    w, b = p.w, p.b
    _check_matmul("linear", x, w)

    def backward(g):
        return _shared_weight_adjoint(g, x, w) + (
            _unbroadcast(g, b.shape) if b.requires_grad else None,)

    return _record("linear", (x, w, b), x.data @ w.data + b.data, backward)


def linear_relu(x: Tensor, p: LinearParams) -> Tensor:
    """relu(x @ w + b) as one record that keeps only its output, not the
    pre-activation or its held mask pre > 0; the adjoint's mask is out > 0."""
    w, b = p.w, p.b
    _check_matmul("linear_relu", x, w)
    pre = x.data @ w.data + b.data
    out = pre * hold(lambda: pre > 0)

    def backward(g):
        g = g * (out > 0)
        return _shared_weight_adjoint(g, x, w) + (
            _unbroadcast(g, b.shape) if b.requires_grad else None,)

    return _record("linear_relu", (x, w, b), out, backward)


@dataclass
class MHAParams:
    """One multi-head attention layer's projections. The key has a weight
    only: a key bias adds a per-head constant to a query's logits, which
    cancels in the softmax."""

    heads: int
    q: LinearParams
    k: Tensor
    v: LinearParams
    out: LinearParams


def init_mha(rng: np.random.Generator, dim: int, heads: int) -> MHAParams:
    if dim % heads != 0:
        raise ConfigError(f"model dim {dim} not divisible by {heads} heads")
    return MHAParams(heads,
                     init_linear(rng, dim, dim),
                     init_linear(rng, dim, dim).w,   # draw the bias: later draws keep their values
                     init_linear(rng, dim, dim), init_linear(rng, dim, dim))


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckReport:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor,
               step: float = 1e-5, tol: float = 1e-4,
               name: str = "f", weight: np.ndarray | None = None) -> GradCheckReport:
    """Compare the taped gradient of sum(weight * f(x)) against central
    differences; without a weight, f must be scalar-valued. The error is
    per tensor: max|a - n| over the entries, relative to the largest
    magnitude of either gradient (at least 1e-6), so an entry far below the
    tensor's largest carries its rounding at the tensor's scale.

    The weighting stays off the tape: it seeds the backward pass, so a
    check exercises only the records f makes. Runs in the current
    precision, which must be 64-bit, on a float64 x. The differences
    perturb x in place, one element at a time, so f may read x through a
    closure (a model parameter) rather than its argument; x.requires_grad
    and x.grad are restored afterwards. f must be deterministic in x.
    """
    if get_dtype() != np.float64 or x.data.dtype != np.float64:
        raise ConfigError("grad_check requires 64-bit precision mode and a float64 x")
    w = 1.0 if weight is None else weight
    saved = (x.requires_grad, x.grad)
    x.requires_grad, x.grad = True, np.zeros_like(x.data)
    try:
        with ComputationTape() as tape:
            y = f(x)
        if weight is None and y.data.size != 1:
            raise DimensionError(f"grad_check: f must be scalar-valued, got {y.shape}")
        if weight is not None and y.shape != np.shape(weight):
            raise DimensionError(f"grad_check: f gives {y.shape}, weight is {np.shape(weight)}")
        if not np.isfinite(y.data).all():
            raise NumericError("grad_check: non-finite function value")
        tape.backward(y, seed=weight)
        analytic = x.grad.copy()
    finally:
        x.requires_grad, x.grad = saved

    numeric = np.zeros_like(x.data)
    for i in np.ndindex(x.shape):
        orig = x.data[i]
        x.data[i] = orig + step
        fp = float(np.sum(w * f(x).data))
        x.data[i] = orig - step
        fm = float(np.sum(w * f(x).data))
        x.data[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError("grad_check: non-finite function value")
        numeric[i] = (fp - fm) / (2.0 * step)

    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-6)
    return GradCheckReport(name, float(np.abs(analytic - numeric).max(initial=0.0) / scale), tol)
