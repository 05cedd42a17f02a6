"""Dense tensor algebra with reverse-mode differentiation on an explicit tape.

Tensors wrap a numpy array plus an optional gradient buffer. Primitive ops
record their adjoint closures on the active ComputationTape; replaying the
tape in reverse accumulates gradients into every leaf on the path to the
loss. An adjoint returns a gradient for every input, and backward keeps
only those of the inputs that require one, so the tape is the one
gradient filter; conv_relu alone returns None, for a constant map (the
pixels into the first block), to skip its map product and col2im. A tape
is replayed once: backward releases each record as its adjoint runs, so
afterwards only leaves hold .grad.
Precision is a process-global switch: float32 for training, float64 for
gradient verification.

The layers that run most often are single primitives with hand-written
adjoints: residual_norm, the post-norm residual layer norm of x + y;
conv_relu, a backbone block (a 3x3 stride-2 convolution and its ReLU),
which keeps its patches and output, copies its im2col as 3C-float chunks
(one per kernel row of a patch) and adds its col2im in four strided adds;
mlp, a chain of linear layers with a ReLU between each two (a linear
layer, the feed-forward block, box and identity heads), which keeps only
its layers' outputs; self_attention, a whole post-norm residual
multi-head self-attention layer over each clip's queries; and
context_attention, a whole projected attention layer in which each query
attends only to its own context rows (aggregation and box-guided
cross-attention). Each forward runs the numpy operations of the
elementwise composition it replaces, in the same order, so its output bytes
are those of the composition; it writes them in place into the
temporaries it allocates rather than allocating one per operation.

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
                   lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


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
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record("sum", (a,), np.asarray(out), backward)


def mean(a: Tensor, axis, keepdims: bool = False) -> Tensor:
    total = reduce_sum(a, axis, keepdims)
    return total * (total.data.size / a.data.size)


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
    """Select rows along axis 0 at an index array of any shape, which
    replaces axis 0; adjoint scatter-adds back."""
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def backward(g):
        z = np.zeros_like(a.data)
        rows = idx.reshape(-1) % len(a)     # a negative index and its alias are one row
        order = np.argsort(rows, kind="stable")
        ordered = rows[order]
        first = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))   # run starts
        if len(first) == len(rows):
            z[idx] = g
        else:
            # One reduction per run of equal indices in the stably sorted order.
            z[ordered[first]] = np.add.reduceat(g.reshape(len(rows), *a.shape[1:])[order],
                                                first, axis=0)
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


def _shared_weight_adjoint(g: np.ndarray, a: np.ndarray, w: np.ndarray) -> tuple:
    """Gradients (a, w) of a @ w for a 2-D w that every leading index of a
    shares: one GEMM each over the [rows, k] flattening of a, so no
    [B, k, m] stack of per-matrix weight gradients is built."""
    k, m = w.shape
    rows = g.reshape(-1, m)
    return (rows @ w.T).reshape(a.shape), a.reshape(len(rows), k).T @ rows


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
            return _shared_weight_adjoint(g, a.data, b.data)
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _record("matmul", (a, b), out, backward)


def _softmax(x: np.ndarray, nan_message: str, axis: int = -1) -> np.ndarray:
    """The max-shifted softmax of x over axis; a NaN in x raises
    NumericError(nan_message). x is a temporary of the caller's: the shift,
    exp and division overwrite it, and it is returned. The row maximum is
    read at argmax, which takes a row's first NaN as its maximum, so only
    the maxima need the NaN test; a -0 maximum where max reads +0 gives the
    same exp(x - max)."""
    m = np.take_along_axis(x, np.expand_dims(x.argmax(axis=axis), axis), axis=axis)
    if np.isnan(m).any():
        raise NumericError(nan_message)
    x -= m
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def _softmax_adjoint(g: np.ndarray, p: np.ndarray, axis: int = -1) -> np.ndarray:
    """The gradient of the softmax logits, (g - sum(g * p)) * p, given
    p = _softmax(...) and g, the gradient of p."""
    out = g * p
    np.subtract(g, out.sum(axis=axis, keepdims=True), out=out)
    out *= p
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = _softmax(a.data.copy(), "softmax: NaN in input", axis)
    return _record("softmax", (a,), out, lambda g: (_softmax_adjoint(g, out, axis),))


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    # Max shift is a constant; its contribution to the derivative cancels.
    shift = a.data.max(axis=axis, keepdims=True)
    return log(reduce_sum(exp(a - tensor(shift)), axis=axis)) + tensor(np.squeeze(shift, axis=axis))


def _normalize(s: np.ndarray, ln: LayerNormParams
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(layer norm of s with ln's gain and bias, xhat, 1 / std) over the
    last axis of s, where xhat has zero mean and unit variance. s is a
    temporary of the caller's: it is centered and scaled in place and
    becomes xhat, and the squares' buffer becomes the output."""
    d = s.shape[-1]
    if d < 2:
        raise ConfigError(f"layer norm needs a normalized dim >= 2, got {d}")
    dt = get_dtype()
    inv_d = np.asarray(1.0 / d, dtype=dt)
    s -= s.sum(axis=-1, keepdims=True) * inv_d
    out = np.multiply(s, s)
    inv = out.sum(axis=-1, keepdims=True)
    inv *= inv_d
    inv += np.asarray(LN_EPS, dtype=dt)
    np.sqrt(inv, out=inv)
    np.divide(np.asarray(1.0, dtype=dt), inv, out=inv)
    s *= inv
    np.multiply(s, ln.gain.data, out=out)
    out += ln.bias.data
    return out, s, inv


def _norm_adjoint(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                  ln: LayerNormParams) -> tuple:
    """Gradients of xhat * gain + bias: (normalized input, gain, bias). The
    input's is inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gain."""
    gh = g * ln.gain.data
    t = gh * xhat
    mean_t = t.mean(axis=-1, keepdims=True)
    gh -= gh.mean(axis=-1, keepdims=True)
    gh -= np.multiply(xhat, mean_t, out=t)
    gh *= inv
    return gh, _unbroadcast(g * xhat, ln.gain.shape), _unbroadcast(g, ln.bias.shape)


def residual_norm(x: Tensor, y: Tensor, ln: LayerNormParams) -> Tensor:
    """The layer norm of x + y with ln's gain and bias, as one record: the
    sum is not kept, and both summands get the normalized input's gradient.
    residual_norm(x, tensor(0.0), ln) is the layer norm of x alone."""
    out, xhat, inv = _normalize(x.data + y.data, ln)

    def backward(g):
        gs, ggain, gbias = _norm_adjoint(g, xhat, inv, ln)
        return _unbroadcast(gs, x.shape), _unbroadcast(gs, y.shape), ggain, gbias

    return _record("residual_norm", (x, y, ln.gain, ln.bias), out, backward)


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

    q, v = xs @ wq, xs @ wv
    q += p.q.b.data
    v += p.v.b.data
    qh, kh, vh = split(q), split(xs @ wk), split(v)
    logits = qh @ np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    logits *= scale
    attn = _softmax(logits, "self_attention: NaN in logits")
    del q, v                      # not kept: freed before the value product
    ctx = merge(attn @ vh)
    summed = ctx @ wo
    summed += p.out.b.data
    summed += xs                  # xs + (ctx @ wo + b): addition commutes bit for bit
    out, xhat, inv = _normalize(summed, ln)

    def backward(g):
        gs, ggain, gbias = _norm_adjoint(g.reshape(xs.shape), xhat, inv, ln)
        gctx = (gs.reshape(-1, d) @ wo.T).reshape(clips, n, h, hd).transpose(0, 2, 1, 3)
        gattn = gctx @ np.swapaxes(vh, -1, -2)
        glogits = _softmax_adjoint(gattn, attn)
        glogits *= scale
        gq, gk = merge(glogits @ kh), merge(np.swapaxes(glogits, -1, -2) @ qh)
        gv = merge(np.swapaxes(attn, -1, -2) @ gctx)
        gx = gs + (gv.reshape(-1, d) @ wv.T).reshape(xs.shape)
        gx += (gk.reshape(-1, d) @ wk.T).reshape(xs.shape)
        gx += (gq.reshape(-1, d) @ wq.T).reshape(xs.shape)
        rows = xs.reshape(-1, d).T
        return (gx.reshape(x.shape), rows @ gq.reshape(-1, d), _unbroadcast(gq, p.q.b.shape),
                rows @ gk.reshape(-1, d), rows @ gv.reshape(-1, d), _unbroadcast(gv, p.v.b.shape),
                ctx.reshape(-1, d).T @ gs.reshape(-1, d), _unbroadcast(gs, p.out.b.shape),
                ggain, gbias)

    return _record("self_attention", (x, p.q.w, p.q.b, p.k, p.v.w, p.v.b, p.out.w, p.out.b,
                                      ln.gain, ln.bias), out.reshape(x.shape), backward)


def context_attention(q: Tensor, ctx: Tensor, p: MHAParams) -> Tensor:
    """Multi-head attention of each row of F frame blocks q [F, G, d] (2-D
    [A, d] is one block) over its own context rows ctx [F, G, n, d] -> q's
    shape, projecting no key or value row, as one record: the query
    projection and 1/sqrt(hd) scale, each head's key weight folded into its
    query (qk), the max-shifted softmax of the logits qk @ cᵀ, the weighted
    sum of the context rows, then the value weight and bias and the output
    projection. Each forward product is one frame block's (per head for the
    folds) or one row's, so no block changes another's bits; the adjoint
    computes each weight gradient as one GEMM over the rows (per head for
    the key and value weights), and recomputes the folded keys and mixed
    context rows rather than keeping them."""
    d = q.shape[-1]
    n = ctx.shape[-2]
    if q.ndim not in (2, 3) or ctx.shape != q.shape[:-1] + (n, d):
        raise DimensionError(f"context_attention: queries {q.shape}, context {ctx.shape}")
    if d % p.heads != 0:
        raise ConfigError(f"attention dim {d} not divisible by {p.heads} heads")
    h, hd = p.heads, d // p.heads
    scale = np.asarray(1.0 / math.sqrt(hd), dtype=get_dtype())
    wq, wk, wv, wo = p.q.w.data, p.k.data, p.v.w.data, p.out.w.data
    x = q.data.reshape(math.prod(q.shape[:-2]), *q.shape[-2:])                # [F, G, d]
    (F, G, _), A = x.shape, x.size // d
    c = ctx.data.reshape(A, n, d)
    wk_h = np.ascontiguousarray(wk.reshape(d, h, hd).transpose(1, 2, 0))      # [H, hd, d]
    wv_h = np.ascontiguousarray(wv.reshape(d, h, hd).transpose(1, 0, 2))      # [H, d, hd]
    # [F, G, d] scaled queries -> [F, G, H, d] folded keys, per frame block and head
    fold = lambda qp: np.swapaxes(np.swapaxes(qp.reshape(F, G, h, hd), 1, 2) @ wk_h, 1, 2)
    qp = (x @ wq + p.q.b.data) * scale
    attn = _softmax((fold(qp) @ np.swapaxes(c.reshape(F, G, n, d), 2, 3)).reshape(A, h, n),
                    "context_attention: NaN in logits")
    mixed = (attn @ c).reshape(F, G, h, d)
    vals = np.swapaxes(np.swapaxes(mixed, 1, 2) @ wv_h, 1, 2).reshape(F, G, d) + p.v.b.data
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
        gctx = (np.swapaxes(attn, 1, 2) @ gmixed
                + np.swapaxes(glogits, 1, 2) @ fold(qp).reshape(A, h, d)).reshape(ctx.shape)
        return ((gqp @ wq.T).reshape(q.shape), gctx, x.reshape(A, d).T @ gqp, gqp.sum(axis=0),
                per_head(gqk, qp.reshape(A, h, hd)), per_head(attn @ c, gvals),
                gvals.reshape(A, d).sum(axis=0), vals.reshape(A, d).T @ g, g.sum(axis=0))

    return _record("context_attention", (q, ctx, p.q.w, p.q.b, p.k, p.v.w, p.v.b,
                                         p.out.w, p.out.b), out.reshape(q.shape), backward)


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


def _affine(x: np.ndarray, p: LinearParams, relu: bool) -> np.ndarray:
    """x @ w + b, times the held mask of its positive entries if relu: one
    layer of mlp or conv_relu."""
    out = x @ p.w.data
    out += p.b.data
    if relu:
        out *= hold(lambda: out > 0)
    return out


def _affine_adjoint(g: np.ndarray, x: np.ndarray, p: LinearParams) -> tuple:
    """Gradients (x, w, b) of x @ w + b."""
    return _shared_weight_adjoint(g, x, p.w.data) + (_unbroadcast(g, p.b.shape),)


def conv_relu(x: Tensor, p: LinearParams) -> Tensor:
    """relu of the 3x3, stride-2 convolution of a [B, H, W, C] map zero
    padded by one pixel -> [B, ceil(H/2), ceil(W/2), cout], as one record:
    the im2col patches [B, OH, OW, 9C], taps in (row, column, channel)
    order as p.w's rows, then _affine with its ReLU. A patch row is three
    runs of 3C contiguous floats of the padded map, one per kernel row, so
    im2col is one strided copy of 3C-float chunks. The record keeps the
    patches and its output. The adjoint's mask is out > 0; it computes the
    weight and bias gradients first, and for a constant map (the pixels
    into the first block) returns before the patches' gradient. col2im adds
    the nine taps into a [B, OH+1, 2, OW+1, 2, C] (row pair, parity, column
    pair, parity) view of the padded gradient in four adds, each cell's
    contributions in (row, column) tap order."""
    b, h, w, c = x.shape
    if p.w.shape[0] != 9 * c:
        raise DimensionError(f"conv_relu: map {x.shape}, weight {p.w.shape}")
    oh, ow = (h + 1) // 2, (w + 1) // 2
    xp = np.zeros((b, h + 2, w + 2, c), dtype=x.data.dtype)      # np.pad's bytes
    xp[:, 1:h + 1, 1:w + 1] = x.data
    sb, sr, sc, _ = xp.strides
    runs = np.ndarray((b, oh, ow, 3), dtype=np.dtype((np.void, 3 * c * xp.itemsize)),
                      buffer=xp, strides=(sb, 2 * sr, 2 * sc, sr))   # [B, OH, OW, kernel row]
    patches = runs.copy().view(xp.dtype).reshape(b, oh, ow, 9 * c)
    del xp, runs                  # not kept: freed before the product
    out = _affine(patches, p, relu=True)

    def backward(g):
        g = g * (out > 0)
        rows = g.reshape(-1, p.w.shape[1])
        gw, gb = patches.reshape(len(rows), 9 * c).T @ rows, _unbroadcast(g, p.b.shape)
        if not x.requires_grad:       # the pixels into block 0: no patch gradient
            return None, gw, gb
        gpatch = (rows @ p.w.data.T).reshape(b, oh, ow, 3, 3, c)
        gx = np.zeros((b, 2 * oh + 2, 2 * ow + 2, c), dtype=x.data.dtype)
        pairs = gx.reshape(b, oh + 1, 2, ow + 1, 2, c)
        pairs[:, :oh, :, :ow] += gpatch[:, :, :, :2, :2].transpose(0, 1, 3, 2, 4, 5)
        pairs[:, :oh, :, 1:, 0] += gpatch[:, :, :, :2, 2].transpose(0, 1, 3, 2, 4)
        pairs[:, 1:, 0, :ow] += gpatch[:, :, :, 2, :2]
        pairs[:, 1:, 0, 1:, 0] += gpatch[:, :, :, 2, 2]
        return gx[:, 1:h + 1, 1:w + 1], gw, gb

    return _record("conv_relu", (x, p.w, p.b), out, backward)


def mlp(x: Tensor, layers: Sequence[LinearParams]) -> Tensor:
    """Linear layers with a ReLU after each but the last, as one record; a
    one-layer chain is x @ w + b over the last axis of x. Each layer runs
    _affine, and the ReLU masks are held in layer order. The record keeps
    each layer's output and no pre-activation or mask; the adjoint chains
    _affine_adjoint back through them."""
    last = len(layers) - 1
    acts = [x.data]                     # each layer's input, then the output
    for i, p in enumerate(layers):
        if acts[-1].ndim < 2 or p.w.ndim != 2 or acts[-1].shape[-1] != p.w.shape[0]:
            raise DimensionError(f"mlp: incompatible shapes {acts[-1].shape} and {p.w.shape}")
        acts.append(_affine(acts[-1], p, relu=i < last))

    def backward(g):
        grads = [None] * (2 * len(layers))
        for i in range(last, -1, -1):
            if i < last:
                g = g * (acts[i + 1] > 0)
            g, grads[2 * i], grads[2 * i + 1] = _affine_adjoint(g, acts[i], layers[i])
        return (g, *grads)

    inputs = (x, *(t for p in layers for t in (p.w, p.b)))
    return _record("mlp", inputs, acts[-1], backward)


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


GRAD_TOL = 1e-4          # a gradient check passes below this relative error


@dataclass
class GradCheckReport:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRAD_TOL


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-5,
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
    return GradCheckReport(name, float(np.abs(analytic - numeric).max(initial=0.0) / scale))
