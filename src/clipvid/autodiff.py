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
adjoints: layer_norm, linear (x @ w + b), attention, the scaled dot-product
core of multi_head_attention, which splits and merges the heads inside its
one record, and context_attention, a whole projected attention layer in
which each query attends only to its own context rows (aggregation and
box-guided cross-attention). Each forward runs the numpy operations of the
elementwise composition it replaces, in the same order, so its output bytes
are those of the composition.
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

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

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


def neg(a: Tensor) -> Tensor:
    return _record("neg", (a,), -a.data, lambda g: (-g,))


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


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record("relu", (a,), a.data * mask, lambda g: (g * mask,))


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
            a.data.reshape(-1, k).T @ rows if w.requires_grad else None)


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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    if np.isnan(x).any():
        raise NumericError("softmax: NaN in input")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _record("softmax", (a,), out, backward)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    # Max shift is a constant; its contribution to the derivative cancels.
    shift = a.data.max(axis=axis, keepdims=True)
    return log(reduce_sum(exp(a - tensor(shift)), axis=axis)) + tensor(np.squeeze(shift, axis=axis))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if d < 2:
        raise ConfigError(f"layer_norm needs a normalized dim >= 2, got {d}")
    dt = get_dtype()
    inv_d = np.asarray(1.0 / d, dtype=dt)
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_d
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    inv = np.asarray(1.0, dtype=dt) / np.sqrt(var + np.asarray(eps, dtype=dt))
    xhat = centered * inv

    def backward(g):
        gx = None
        if x.requires_grad:
            gh = g * gain.data
            gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                        - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return (gx,
                _unbroadcast(g * xhat, gain.shape) if gain.requires_grad else None,
                _unbroadcast(g, bias.shape) if bias.requires_grad else None)

    return _record("layer_norm", (x, gain, bias), xhat * gain.data + bias.data, backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention of [B, nq, d] queries over [B, nk, d]
    keys and values in heads of width hd = d / heads: softmax(q_h k_hT /
    sqrt(hd)) v_h for each head h, merged back to [B, nq, d].

    The head split and merge, the max-shifted softmax and both products
    are one record; the adjoint reuses the forward's head stacks and
    probabilities."""
    bsz, nq, d = q.shape
    nk = k.shape[1]
    if d % heads != 0:
        raise ConfigError(f"attention dim {d} not divisible by {heads} heads")
    hd = d // heads
    scale = np.asarray(1.0 / math.sqrt(hd), dtype=get_dtype())

    def split(x: np.ndarray, n: int) -> np.ndarray:               # [B, H, n, hd]
        return np.ascontiguousarray(x.reshape(bsz, n, heads, hd).transpose(0, 2, 1, 3))

    def merge(x: np.ndarray, n: int) -> np.ndarray:               # [B, n, d]
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(bsz, n, d)

    qh, kh, vh = split(q.data, nq), split(k.data, nk), split(v.data, nk)
    logits = (qh @ np.ascontiguousarray(kh.transpose(0, 1, 3, 2))) * scale
    if np.isnan(logits).any():
        raise NumericError("attention: NaN in logits")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gctx = g.reshape(bsz, nq, heads, hd).transpose(0, 2, 1, 3)
        gattn = gctx @ np.swapaxes(vh, -1, -2)
        glogits = (gattn - (gattn * attn).sum(axis=-1, keepdims=True)) * attn * scale
        return (merge(glogits @ kh, nq) if q.requires_grad else None,
                merge(np.swapaxes(glogits, -1, -2) @ qh, nk) if k.requires_grad else None,
                merge(np.swapaxes(attn, -1, -2) @ gctx, nk) if v.requires_grad else None)

    return _record("attention", (q, k, v), merge(attn @ vh, nq), backward)


def context_attention(q: Tensor, ctx: Tensor, p: MHAParams) -> Tensor:
    """Multi-head attention of each query row of q [..., d] over its own
    context rows ctx [..., n, d] -> [..., d], projecting no key or value
    row, as one record: the query projection and 1/sqrt(hd) scale, each
    head's key weight folded into its query, the max-shifted softmax over
    the last axis of the [A, H, n] logits, the weighted sum of the context
    rows, then the value weight and bias and the output projection. The key
    bias, a per-head logit constant, cancels in the softmax and is not
    read. Each forward product is one row's or one (row, head)'s, so no row
    changes another's bits; the adjoint computes each weight gradient as
    one GEMM over the rows (per head for the key and value weights)."""
    d = q.shape[-1]
    n = ctx.shape[-2]
    if ctx.shape != q.shape[:-1] + (n, d):
        raise DimensionError(f"context_attention: queries {q.shape}, context {ctx.shape}")
    if d % p.heads != 0:
        raise ConfigError(f"attention dim {d} not divisible by {p.heads} heads")
    A, h = math.prod(q.shape[:-1]), p.heads
    hd = d // h
    scale = np.asarray(1.0 / math.sqrt(hd), dtype=get_dtype())
    wq, wk, wv, wo = p.q.w.data, p.k.w.data, p.v.w.data, p.out.w.data
    x = q.data.reshape(A, 1, d)
    c = ctx.data.reshape(A, n, d)
    qh = (x @ wq + p.q.b.data).reshape(A, h, 1, hd) * scale
    wk_h = np.ascontiguousarray(wk.reshape(d, h, hd).transpose(1, 2, 0))      # [H, hd, d]
    qk = (qh @ wk_h).reshape(A, h, d)
    # Transpose the logits, not ctx: an axis-1 softmax over [A, n, H] is slower.
    logits = np.ascontiguousarray((c @ np.ascontiguousarray(qk.transpose(0, 2, 1)))
                                  .transpose(0, 2, 1))                       # [A, H, n]
    if np.isnan(logits).any():
        raise NumericError("context_attention: NaN in logits")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
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
        glogits = (gattn - (gattn * attn).sum(axis=-1, keepdims=True)) * attn
        gqk = glogits @ c                                                     # [A, H, d]
        gqh = np.swapaxes(np.swapaxes(gqk, 0, 1) @ np.swapaxes(wk_h, 1, 2), 0, 1)
        gqp = gqh.reshape(A, d) * scale
        gctx = None
        if ctx.requires_grad:
            gctx = (np.swapaxes(attn, 1, 2) @ gmixed
                    + np.swapaxes(glogits, 1, 2) @ qk).reshape(ctx.shape)
        return ((gqp @ wq.T).reshape(q.shape) if q.requires_grad else None,
                gctx,
                x.reshape(A, d).T @ gqp if p.q.w.requires_grad else None,
                gqp.sum(axis=0) if p.q.b.requires_grad else None,
                per_head(gqk, qh.reshape(A, h, hd)) if p.k.w.requires_grad else None,
                per_head(mixed, gvals) if p.v.w.requires_grad else None,
                gvals.reshape(A, d).sum(axis=0) if p.v.b.requires_grad else None,
                vals.reshape(A, d).T @ g if p.out.w.requires_grad else None,
                g.sum(axis=0) if p.out.b.requires_grad else None)

    return _record("context_attention", (q, ctx, p.q.w, p.q.b, p.k.w, p.v.w, p.v.b,
                                         p.out.w, p.out.b), out.reshape(q.shape), backward)


# ---------------------------------------------------------------------------
# Structured primitives for convolution and RoI sampling


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

    def backward(g):
        g = g.reshape(b, oh, ow, ksize, ksize, c)
        gp = np.zeros_like(xp)
        for ki in range(ksize):
            for kj in range(ksize):
                gp[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += g[:, :, :, ki, kj]
        if pad:
            gp = gp[:, pad:-pad, pad:-pad]
        return (np.ascontiguousarray(gp),)

    return _record("extract_patches", (x,), out, backward)


def bilinear_sample(f: Tensor, points: np.ndarray) -> Tensor:
    """Sample each map of a [T,H,W,C] stack at its own fractional (x, y)
    index pairs [T,N,2] -> [T,N,C].

    Points are data, not differentiated; gradients flow to f only.
    Coordinates are clamped to the border (replicate padding). Internally a
    dense [T, N, H*W] interpolation-weight stack makes the forward pass and
    the adjoint one batched matmul each.
    """
    t, h, w, c = f.shape
    pts = np.asarray(points, dtype=f.data.dtype)
    n = pts.shape[1]
    xs = np.clip(pts[..., 0], 0.0, w - 1.0)
    ys = np.clip(pts[..., 1], 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.minimum(x0, w - 2) if w > 1 else x0 * 0
    y0 = np.minimum(y0, h - 2) if h > 1 else y0 * 0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    weights = np.zeros((t, n, h * w), dtype=f.data.dtype)
    at = (np.arange(t)[:, None], np.arange(n)[None, :],
          np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1]))      # [4, T, N]
    corner = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])
    if h > 1 and w > 1:
        weights[at] = corner            # a point's four corners are distinct cells
    else:
        np.add.at(weights, at, corner)
    out = weights @ f.data.reshape(t, h * w, c)

    def backward(g):
        return ((np.swapaxes(weights, 1, 2) @ g).reshape(t, h, w, c),)

    return _record("bilinear_sample", (f,), out, backward)


# ---------------------------------------------------------------------------
# Parameter containers and layers


@dataclass
class LinearParams:
    w: Tensor
    b: Tensor


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


@dataclass
class MHAParams:
    heads: int
    q: LinearParams
    k: LinearParams
    v: LinearParams
    out: LinearParams


def init_mha(rng: np.random.Generator, dim: int, heads: int) -> MHAParams:
    if dim % heads != 0:
        raise ConfigError(f"model dim {dim} not divisible by {heads} heads")
    return MHAParams(heads,
                     init_linear(rng, dim, dim), init_linear(rng, dim, dim),
                     init_linear(rng, dim, dim), init_linear(rng, dim, dim))


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, p: MHAParams) -> Tensor:
    """Projected multi-head attention over [B, n, d] stacks (a batch of
    independent attention problems sharing the projections): the q, k and
    v projections, the attention core, which splits the heads inside its
    record, and the output projection, five records in all."""
    return linear(attention(linear(q, p.q), linear(k, p.k), linear(v, p.v), p.heads), p.out)


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
    differences; without a weight, f must be scalar-valued.

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

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    return GradCheckReport(name, float(rel.max()) if rel.size else 0.0, tol)
