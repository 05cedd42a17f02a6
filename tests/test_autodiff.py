import gc
import importlib
import inspect
import pkgutil
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import clipvid
from clipvid import autodiff as ad
from clipvid import geometry as geo
from clipvid import gradcheck_suite
from clipvid.errors import ConfigError, DimensionError, NumericError
from oracles import (composed_context_attention, composed_conv_relu, composed_layer_norm,
                     composed_linear, composed_mlp, composed_multi_head_attention,
                     composed_residual_norm, composed_roi_sample, composed_self_attention,
                     corrupt_adjoint, leaf_grad, loop_conv_relu, scatter_add_rows,
                     stacked_matmul_adjoint)

# Every primitive that records itself on the tape and the number of inputs
# it records, read from the source of every module of the package, so that
# a new primitive, or a new input, without a gradient check fails the tests
# below, wherever it is defined. concat's parts are checked in pairs, and
# mlp's layers as a three-layer chain: input, then each layer's w and b.
SOURCE = "".join(inspect.getsource(importlib.import_module(f"clipvid.{m.name}"))
                 for m in pkgutil.iter_modules(clipvid.__path__))
RECORDED_OPS = sorted(set(re.findall(r'_record\("(\w+)"', SOURCE)))
ARITY = {"concat": 2, "mlp": 7} | {op: len([n for n in names.split(",") if n.strip()])
                                   for op, names
                                   in re.findall(r'_record\("(\w+)", \(([^)]*)\)', SOURCE)}
INPUTS = [(op, i) for op in RECORDED_OPS for i in range(ARITY[op])]


def test_matmul_identity():
    a = ad.tensor(np.eye(2))
    b = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(ad.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_hand_case():
    out = ad.matmul(ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0], [4.0]]))
    assert_allclose(out.data, [[11.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError) as exc:
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_gradient_matches_hand_adjoint():
    a = ad.param([[1.0, 1.0]])
    b = ad.param([[2.0], [5.0]])
    with ad.ComputationTape() as tape:
        y = ad.reduce_sum(ad.matmul(a, b))
    tape.backward(y)
    assert_allclose(a.grad, [[2.0, 5.0]])
    assert_allclose(b.grad, [[1.0], [1.0]])
    rep = ad.grad_check(lambda x: ad.reduce_sum(ad.matmul(x, ad.tensor([[2.0], [5.0]]))),
                        ad.tensor([[1.0, 1.0]]))
    assert rep.passed


def test_softmax_uniform_and_scalar_oracle():
    assert_allclose(ad.softmax(ad.tensor([0.0, 0.0, 0.0])).data, np.ones(3) / 3)
    out = ad.softmax(ad.tensor([1.0, 2.0])).data
    assert_allclose(out, [0.26894, 0.73106], atol=1e-5)


def test_softmax_overflow_stability():
    out = ad.softmax(ad.tensor([1000.0, 0.0])).data
    assert np.isfinite(out).all()
    assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_softmax_nan_rejected():
    with pytest.raises(NumericError):
        ad.softmax(ad.tensor([np.nan, 1.0]))


def max_shifted_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The softmax formula with the row maximum read by max."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("axis", [-1, 1])
def test_softmax_gives_the_max_shifted_formula_s_bytes_at_extremes(bits, axis):
    """Rows of +-inf, rows whose maximum is a +0 and -0 tie (argmax and max
    may read different zeros), all -0 rows and ordinary rows: the argmax
    row maximum gives the max-shifted formula's bytes, NaNs included."""
    inf = np.inf
    rows = np.array([[inf, 1.0, -2.0, inf], [-inf, -inf, -inf, -inf], [1.0, inf, -inf, 0.5],
                     [-0.0, 0.0, -3.0, -0.0], [0.0, -0.0, -0.0, -1.0], [-0.0, -0.0, -0.0, -0.0],
                     [-inf, -0.0, -inf, -5.0], [0.3, -1.2, 2.5, 2.5]])
    with ad.precision(bits), np.errstate(invalid="ignore"):
        x = ad.tensor(np.stack([rows, rows[::-1]], axis=1 if axis == 1 else 0)).data
        got = ad._softmax(x.copy(), "unused", axis=axis)
        want = max_shifted_softmax(x, axis=axis)
    assert got.dtype == want.dtype == np.dtype(f"float{bits}")
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("row", [[np.nan, 1.0, 2.0], [1.0, np.inf, np.nan], [-np.inf, np.nan, 0.0],
                                 [np.nan, np.nan, np.nan]])
def test_softmax_raises_on_a_nan_anywhere_in_a_row(row):
    """A NaN in any place of a row, beside +-inf or not, raises the record's
    message; the other rows do not matter."""
    x = np.array([[0.0, 1.0, 2.0], row, [3.0, 4.0, 5.0]])
    with pytest.raises(NumericError, match="^softmax: NaN in input$"):
        ad.softmax(ad.tensor(x))
    with pytest.raises(NumericError, match="^self_attention: NaN in logits$"):
        ad._softmax(x.T, "self_attention: NaN in logits", axis=0)


def test_softmax_record_leaves_its_input_unchanged(rng):
    """_softmax overwrites its argument; the softmax record gives it a copy,
    so the input tensor keeps its bytes."""
    x = ad.param(rng.normal(size=(3, 5)))
    before = x.data.copy()
    out = ad.softmax(x)
    assert x.data.tobytes() == before.tobytes()
    assert out.data.tobytes() == max_shifted_softmax(before).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_slices_sum_to_one(vals):
    out = ad.softmax(ad.tensor(np.array([vals, vals[::-1]]))).data
    assert_allclose(out.sum(axis=-1), [1.0, 1.0], atol=1e-6)


def layer_norm(x, gain, bias):
    """A one-input layer norm: residual_norm of x and a constant zero."""
    return ad.residual_norm(x, ad.tensor(0.0), ad.LayerNormParams(gain, bias))


def unit_norm(d):
    return ad.LayerNormParams(ad.tensor(np.ones(d)), ad.tensor(np.zeros(d)))


def test_layer_norm_constant_slice():
    gain = ad.tensor(np.ones(4))
    bias = ad.tensor(np.zeros(4))
    out = layer_norm(ad.tensor([[5.0, 5.0, 5.0, 5.0]]), gain, bias)
    assert_allclose(out.data, np.zeros((1, 4)), atol=1e-8)


def test_layer_norm_two_values():
    out = layer_norm(ad.tensor([[1.0, 3.0]]), ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)))
    assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_rejects_width_one():
    with pytest.raises(ConfigError):
        layer_norm(ad.tensor([[3.0]]), ad.tensor(np.ones(1)), ad.tensor(np.zeros(1)))


def test_layer_norm_statistics_random(rng):
    x = ad.tensor(rng.normal(size=(5, 16)))
    out = layer_norm(x, ad.tensor(np.ones(16)), ad.tensor(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4


def test_layer_norm_gradient(rng):
    gain = ad.tensor(rng.normal(size=8))
    bias = ad.tensor(rng.normal(size=8))
    w = ad.tensor(rng.normal(size=(1, 8)))
    rep = ad.grad_check(
        lambda x: ad.reduce_sum(ad.mul(layer_norm(x, gain, bias), w)),
        ad.tensor(rng.normal(size=(1, 8))))
    assert rep.max_rel_err < 1e-4


def test_mha_zero_value_projection_gives_bias_only(rng):
    """With no value path, self-attention adds the output bias alone."""
    p = ad.init_mha(rng, 8, 2)
    p.v.w.data[:] = 0.0
    p.v.b.data[:] = 0.0
    p.out.w.data[:] = np.eye(8)
    q = ad.tensor(rng.normal(size=(1, 3, 8)))
    ln = unit_norm(8)
    out = ad.self_attention(q, p, ln)
    assert_allclose(out.data, ad.residual_norm(q, p.out.b, ln).data, atol=1e-12)


def test_mha_single_key_degenerate(rng):
    """A clip of one query attends to itself alone: its value row."""
    p = ad.init_mha(rng, 8, 2)
    q = ad.tensor(rng.normal(size=(1, 1, 8)))
    ln = unit_norm(8)
    out = ad.self_attention(q, p, ln)
    expect = ad.residual_norm(q, composed_linear(composed_linear(q, p.v), p.out), ln)
    assert_allclose(out.data, expect.data, atol=1e-10)


def test_mha_head_divisibility_error(rng):
    with pytest.raises(ConfigError):
        ad.init_mha(rng, 9, 2)


def test_mha_gradients(rng):
    p = ad.init_mha(rng, 8, 2)
    ln = ad.LayerNormParams(ad.tensor(rng.uniform(0.5, 2.0, 8)), ad.tensor(rng.normal(size=8)))
    weight = rng.normal(size=(2, 2, 8))
    rep = ad.grad_check(lambda x: ad.self_attention(x, p, ln, clips=2),
                        ad.tensor(rng.normal(size=(2, 2, 8))), weight=weight)
    assert rep.max_rel_err < 1e-4


def test_grad_check_closed_form():
    rep = ad.grad_check(lambda x: ad.reduce_sum(ad.mul(x, x)), ad.tensor([1.0, 2.0]))
    assert rep.max_rel_err < 1e-8


def test_grad_check_constant_function():
    rep = ad.grad_check(lambda x: ad.tensor(3.0) * ad.tensor(1.0), ad.tensor([1.0, 2.0]))
    assert rep.max_rel_err == 0.0


def test_grad_check_through_a_closure_restores_the_tensor():
    """f may ignore its argument and read x as a parameter; x keeps its
    values, its flag and its grad: none for a fresh parameter, or the
    buffer it held."""
    p = ad.param([[1.0, -2.0], [0.5, 3.0]])
    before = p.data.copy()
    rep = ad.grad_check(lambda _x: ad.reduce_sum(ad.mul(p, ad.exp(p))), p)
    assert rep.max_rel_err < 1e-8
    assert np.array_equal(p.data, before) and p.requires_grad
    assert p.grad is None
    p.grad = grad = np.full_like(p.data, 7.0)
    assert ad.grad_check(lambda _x: ad.reduce_sum(ad.mul(p, ad.exp(p))), p).passed
    assert p.grad is grad and np.all(grad == 7.0)
    x = ad.tensor([0.3])
    assert ad.grad_check(lambda v: ad.reduce_sum(ad.mul(v, v)), x).passed
    assert not x.requires_grad and x.grad is None


def test_every_recorded_op_has_a_case_of_its_arity():
    arity = {name: len(arrays) for name, _op, arrays in gradcheck_suite.primitive_cases(0)}
    assert {op: arity.get(op) for op in RECORDED_OPS} == ARITY


def _corrupted_input_fails_its_check(monkeypatch, op, position):
    """Corrupt the gradient op's adjoint returns for one input: the check
    of that input must fail in every primitive_cases row of op's, the row
    named op and each second path, op_<path> (op or op[i] by arity)."""
    rows = [name for name, _op, _arrays in gradcheck_suite.primitive_cases(0)
            if name == op or name.startswith(f"{op}_")]
    corrupt_adjoint(monkeypatch, op, position)
    failed = {r.name for r in gradcheck_suite.primitive_checks(0) if not r.passed}
    want = {f"{row}[{position}]" if ARITY[op] > 1 else row for row in rows}
    assert op in rows and want <= failed, want - failed


# One (op, input) list, run as input 0 and the inputs after it.
@pytest.mark.parametrize("op", [op for op, i in INPUTS if i == 0])
def test_primitive_checks_catch_a_corrupted_adjoint(monkeypatch, op):
    _corrupted_input_fails_its_check(monkeypatch, op, 0)


@pytest.mark.parametrize("op,position", [(op, i) for op, i in INPUTS if i > 0],
                         ids=[f"{op}[{i}]" for op, i in INPUTS if i > 0])
def test_checks_catch_a_corrupted_adjoint_of_every_later_input(monkeypatch, op, position):
    _corrupted_input_fails_its_check(monkeypatch, op, position)


@pytest.mark.parametrize("op", ["mul", "sum"])
def test_a_corrupted_adjoint_fails_only_rows_that_record_it(monkeypatch, op):
    """The audit weights each row's output outside the tape, so a broken
    mul or sum adjoint fails no row that never records that op."""
    recording = set()
    for name, fn, arrays in gradcheck_suite.primitive_cases(0):
        with ad.ComputationTape() as tape:
            fn(*[ad.param(a) for a in arrays])
        if any(record[0] == op for record in tape.records):
            recording.add(name)
    corrupt_adjoint(monkeypatch, op, 0)
    failed = {r.name.split("[")[0] for r in gradcheck_suite.primitive_checks(0)
              if not r.passed}
    assert op in failed and failed <= recording, failed - recording


def test_grad_check_requires_64bit():
    ad.set_precision(32)
    with pytest.raises(ConfigError):
        ad.grad_check(lambda x: ad.reduce_sum(x), ad.tensor([1.0]))


def test_backward_accumulates_sum_of_adjoints():
    x = ad.param([2.0, 3.0])
    with ad.ComputationTape() as tape:
        y = ad.reduce_sum(ad.add(ad.mul(x, x), x))    # x used twice
    tape.backward(y)
    assert_allclose(x.grad, [5.0, 7.0])


def test_unused_leaf_gets_no_gradient():
    x = ad.param([1.0])
    unused = ad.param([4.0])
    assert x.grad is None and unused.grad is None
    with ad.ComputationTape() as tape:
        y = ad.reduce_sum(ad.mul(x, x))
    tape.backward(y)
    assert_allclose(x.grad, [2.0])
    assert unused.grad is None


def test_tape_replay_is_deterministic(rng):
    vals = rng.normal(size=(6, 6))

    def run():
        x = ad.param(vals.copy())
        w = ad.param(rng2.normal(size=(6, 6)))
        with ad.ComputationTape() as tape:
            y = ad.reduce_sum(ad.softmax(ad.matmul(x, w), axis=-1))
        tape.backward(y)
        return x.grad.copy()

    rng2 = np.random.default_rng(7)
    g1 = run()
    rng2 = np.random.default_rng(7)
    g2 = run()
    assert np.array_equal(g1, g2)


def _fused_chain(seed):
    """linear -> a layer norm -> self_attention -> a weighted sum, taped;
    returns the tape, the loss, the leaves, a weakref to the linear
    output's array and the later intermediate outputs."""
    rng = np.random.default_rng(seed)
    p = ad.init_mha(rng, 8, 2)
    x = ad.param(rng.normal(size=(2, 3, 8)))
    gain, bias = ad.param(rng.normal(size=8)), ad.param(rng.normal(size=8))
    weight = ad.tensor(rng.normal(size=(2, 3, 8)))
    with ad.ComputationTape() as tape:
        h = ad.mlp(x, (p.q,))
        n = layer_norm(h, gain, bias)
        a = ad.self_attention(n, p, ad.LayerNormParams(gain, bias), clips=2)
        loss = ad.reduce_sum(ad.mul(a, weight))
    leaves = [x, gain, bias, p.k] + [t for lin in (p.q, p.v, p.out) for t in (lin.w, lin.b)]
    return tape, loss, leaves, weakref.ref(h.data), [n, a]


def test_backward_releases_each_record_and_keeps_leaf_gradients():
    """backward frees what only the tape held, drops every intermediate
    gradient, keeps the record count, and gives the leaf gradients of a
    replay that releases nothing."""
    tape, loss, leaves, h_data, intermediates = _fused_chain(0)
    made = len(tape)
    assert h_data() is not None
    tape.backward(loss)
    assert h_data() is None                  # the tape itself is still alive
    assert len(tape) == made
    assert all(t.grad is None for t in intermediates + [loss])

    ref_tape, ref_loss, ref_leaves, ref_h_data, _ = _fused_chain(0)
    ref_loss.grad = np.ones_like(ref_loss.data)
    for _op, inputs, output, adjoint in reversed(ref_tape.records):
        if output.grad is None:
            continue
        for inp, g in zip(inputs, adjoint(output.grad)):
            if g is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = np.array(g, dtype=inp.data.dtype)
            else:
                inp.grad += g
    assert ref_h_data() is not None
    for got, want in zip(leaves, ref_leaves):
        assert np.array_equal(got.grad, want.grad)


def test_backward_on_a_spent_tape_raises():
    tape, loss, leaves, _, _ = _fused_chain(1)
    tape.backward(loss)
    grads = [t.grad.copy() for t in leaves]
    with pytest.raises(RuntimeError, match="spent"):
        tape.backward(loss)
    assert all(np.array_equal(t.grad, g) for t, g in zip(leaves, grads))


def test_played_conv_relu_keeps_the_recorded_mask():
    """A played pass keeps the ReLU mask of the recorded one after the
    pre-activations change sign; outside a replay the mask is fresh, and
    hold returns make()."""
    x = ad.tensor([[[[1.0, -1.0]]]])                 # one pixel, two channels
    w = np.zeros((18, 2))
    w[8:10] = np.eye(2)                              # the centre tap passes the pixel on
    p = ad.LinearParams(ad.tensor(w), ad.tensor(np.zeros(2)))
    replay = ad.Replay()
    with replay.record():
        assert np.array_equal(ad.conv_relu(x, p).data, [[[[1.0, 0.0]]]])
    x.data[...] = [[[[-2.0, 3.0]]]]
    with replay.play():
        assert np.array_equal(ad.conv_relu(x, p).data, [[[[-2.0, 0.0]]]])
    assert np.array_equal(ad.conv_relu(x, p).data, [[[[0.0, 3.0]]]])
    made = object()
    assert ad.hold(lambda: made) is made


def test_play_raises_when_a_pass_reads_too_few_or_too_many_values():
    replay = ad.Replay()
    with replay.record():
        assert [ad.hold(lambda: v) for v in ("a", "b")] == ["a", "b"]
    with pytest.raises(RuntimeError, match="read 1 of 2"):
        with replay.play():
            ad.hold(lambda: pytest.fail("a played hold called make"))
    with pytest.raises(RuntimeError, match="more than its 2"):
        with replay.play():
            [ad.hold(lambda: None) for _ in range(3)]
    with replay.play():
        assert [ad.hold(lambda: None) for _ in range(2)] == ["a", "b"]
    assert ad.hold(lambda: "c") == "c"


def test_row_update_semantics(rng):
    x = ad.param(rng.normal(size=(4, 3)))
    rows = ad.param(rng.normal(size=(2, 3)))
    with ad.ComputationTape() as tape:
        out = ad.row_update(x, [1, 3], rows)
        y = ad.reduce_sum(ad.mul(out, out))
    expect = x.data.copy()
    expect[[1, 3]] = rows.data
    assert_allclose(out.data, expect)
    tape.backward(y)
    assert_allclose(x.grad[[1, 3]], np.zeros((2, 3)))
    assert_allclose(rows.grad, 2 * rows.data)


def test_precision_switch_changes_dtype():
    ad.set_precision(32)
    assert ad.tensor([1.0]).data.dtype == np.float32
    ad.set_precision(64)
    assert ad.tensor([1.0]).data.dtype == np.float64


def test_gather_rows_duplicate_indices_accumulate():
    x = ad.param(np.arange(6.0).reshape(3, 2))
    with ad.ComputationTape() as tape:
        y = ad.reduce_sum(ad.gather_rows(x, [0, 0, 2]))
    tape.backward(y)
    assert_allclose(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("shape", [(64, 1, 16), (64, 5, 16), (3, 4, 6, 16)],
                         ids=["rows", "stacks", "maps"])
def test_folded_matmul_adjoint_matches_the_stacked_reference(rng, shape):
    """A weight shared by every leading index of the left operand gets one
    GEMM per gradient; it only regroups the stacked form's sums."""
    a = ad.param(rng.normal(size=shape))
    w = ad.param(rng.normal(size=(16, 12)))
    g = rng.normal(size=shape[:-1] + (12,))
    with ad.ComputationTape() as tape:
        out = ad.matmul(a, w)
    tape.backward(out, seed=g)
    for got, ref in zip((a.grad, w.grad), stacked_matmul_adjoint(a.data, w.data, g)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_folded_matmul_adjoint_builds_no_per_row_weight_stack():
    """The adjoint of a [4096, 1, 64] @ [64, 64] product allocates about its
    operands' bytes; a [4096, 64, 64] stack of per-row weight gradients
    would take 134 MB in 64-bit."""
    rng = np.random.default_rng(0)
    a = ad.param(rng.normal(size=(4096, 1, 64)))
    w = ad.param(rng.normal(size=(64, 64)))
    with ad.ComputationTape() as tape:
        out = ad.matmul(a, w)
    (_op, _inputs, _out, adjoint), = tape.records
    g = np.ones_like(out.data)
    tracemalloc.start()
    try:
        grads = adjoint(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [x.shape for x in grads] == [a.shape, w.shape]
    assert peak < 2 * (a.data.nbytes + w.data.nbytes + g.nbytes)


def test_gather_rows_repeated_indices_match_the_scatter_reference(rng):
    """Rows that share an index, negative aliases included, sum to what
    np.add.at adds up one row at a time, up to the grouping of the sums."""
    x = ad.param(rng.normal(size=(64, 16, 8)))
    idx = rng.integers(-64, 64, size=256)
    g = rng.normal(size=(256, 16, 8))
    with ad.ComputationTape() as tape:
        out = ad.gather_rows(x, idx)
    tape.backward(out, seed=g)
    ref = scatter_add_rows(x.shape, idx, g)
    assert np.abs(x.grad - ref).max() <= 1e-12 * np.abs(ref).max()


def test_constant_operands_get_no_gradient(rng):
    """Every adjoint returns a gradient for each of its inputs, constant or
    not, but conv_relu's for a constant map (a first backbone block's
    pixels, whose col2im it skips); backward keeps only those of the inputs
    that require one, so after it no constant holds a gradient and every
    parameter does. The three self_attention calls, the two
    context_attention calls and the two roi_sample_frame calls split the
    inputs between them."""
    x, c = ad.param(rng.normal(size=(2, 3, 8))), ad.tensor(rng.normal(size=(2, 3, 8)))
    w, cw = ad.param(rng.normal(size=(8, 8))), ad.tensor(rng.normal(size=(8, 8)))
    b, cb = ad.param(rng.normal(size=8)), ad.tensor(rng.normal(size=8))
    cstack = ad.tensor(rng.normal(size=(2, 8, 3)))
    rows, crows = ad.param(rng.normal(size=(2, 8))), ad.tensor(rng.normal(size=(2, 8)))
    xmap, cmap = ad.param(rng.normal(size=(2, 5, 4, 2))), ad.tensor(rng.normal(size=(2, 5, 4, 2)))
    kernel, ckernel = ad.param(rng.normal(size=(18, 8))), ad.tensor(rng.normal(size=(18, 8)))
    fmap, cfmap = ad.param(rng.normal(size=(2, 4, 4, 8))), ad.tensor(rng.normal(size=(2, 4, 4, 8)))
    adapter, cadapter = ad.param(rng.normal(size=(8, 32))), ad.tensor(rng.normal(size=(8, 32)))
    boxes = np.tile(geo.FULL_FRAME, (2, 1, 1))
    lin, norm = ad.LinearParams, ad.LayerNormParams
    with ad.ComputationTape() as tape:
        outs = [
            ad.mul(x, c), ad.mul(c, x),
            ad.matmul(x, cw), ad.matmul(c, w), ad.matmul(x, cstack), ad.matmul(cstack, x),
            layer_norm(x, cb, cb), layer_norm(c, b, cb), layer_norm(c, cb, b),
            ad.mlp(x, (lin(cw, cb),)), ad.mlp(c, (lin(w, cb),)), ad.mlp(c, (lin(cw, b),)),
            ad.self_attention(x, ad.MHAParams(2, lin(cw, cb), cw, lin(cw, cb), lin(cw, cb)),
                              norm(cb, cb)),
            ad.self_attention(c, ad.MHAParams(2, lin(w, cb), cw, lin(w, b), lin(cw, b)),
                              norm(b, cb)),
            ad.self_attention(c, ad.MHAParams(2, lin(cw, b), w, lin(cw, cb), lin(w, cb)),
                              norm(cb, b)),
            ad.context_attention(rows, c, ad.MHAParams(2, lin(w, b), cw, lin(w, cb), lin(cw, b))),
            ad.context_attention(crows, x, ad.MHAParams(2, lin(cw, cb), w, lin(cw, b),
                                                        lin(w, cb))),
            ad.conv_relu(xmap, lin(ckernel, cb)), ad.conv_relu(cmap, lin(kernel, b)),
            geo.roi_sample_frame(fmap, boxes, 2, c, cadapter),
            geo.roi_sample_frame(cfmap, boxes, 2, x, adapter)]
        assert len(tape) == len(outs) == 21
        total = ad.reduce_sum(outs[0])
        for out in outs[1:]:
            total = total + ad.reduce_sum(out)
    for op, inputs, out, adjoint in tape.records:
        grads = adjoint(np.ones_like(out.data))
        skipped = op == "conv_relu" and not inputs[0].requires_grad
        assert [g is None for g in grads] == [skipped] + [False] * (len(inputs) - 1), op
    tape.backward(total)
    constants = (c, cw, cb, cstack, crows, cmap, ckernel, cfmap, cadapter)
    assert [t.grad is None for t in constants] == [True] * len(constants)
    params = (x, w, b, rows, xmap, kernel, fmap, adapter)
    assert [t.grad is not None for t in params] == [True] * len(params)


@pytest.mark.parametrize("layer", [
    lambda x, p: layer_norm(x, p.q.b, p.v.b),
    lambda x, p: ad.mlp(x, (p.q,)),
    lambda x, p: ad.self_attention(x, p, ad.LayerNormParams(p.q.b, p.v.b), clips=2),
    lambda x, p: ad.context_attention(ad.tensor(x.data[:, 0]), x, p),
], ids=["layer_norm", "linear", "self_attention", "context_attention"])
def test_fused_layer_record_count(rng, layer):
    """Hardware-independent gate: one tape record per layer norm, linear
    layer (a one-layer mlp), self_attention (a whole residual
    self-attention layer, reshapes included) and context_attention call."""
    p = ad.init_mha(rng, 8, 2)
    x = ad.param(rng.normal(size=(2, 3, 8)))
    with ad.ComputationTape() as tape:
        layer(x, p)
    assert len(tape) == 1


# A clip's self-attention over [1, T*L, d], and the projections and layer
# norm of [T*L, 1, d] queries with their own [s*s, d] region rows, at the
# desk width (d=32, four heads) and the gradient-check width (d=8, two heads).
ATTENTION_CASES = [((1, 32, 32), None, 4), ((32, 1, 32), (32, 16, 32), 4),
                   ((1, 8, 8), None, 2), ((8, 1, 8), (8, 4, 8), 2)]
ATTENTION_IDS = ["self_d32", "cross_d32", "self_d8", "cross_d8"]


def _attention_inputs(seed, q_shape, kv_shape, heads):
    rng = np.random.default_rng(seed)
    p = ad.init_mha(rng, q_shape[-1], heads)
    q = ad.param(rng.normal(size=q_shape))
    kv = q if kv_shape is None else ad.param(rng.normal(size=kv_shape))
    return p, q, kv


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("q_shape,kv_shape,heads", ATTENTION_CASES, ids=ATTENTION_IDS)
def test_fused_forward_matches_the_composed_form_bitexactly(bits, q_shape, kv_shape, heads):
    """Each fused primitive runs the composed form's numpy operations in the
    same order, so its output bytes are the same in 32 and 64 bits."""
    with ad.precision(bits):
        p, q, kv = _attention_inputs(0, q_shape, kv_shape, heads)
        ln = ad.LayerNormParams(p.q.b, p.out.b)
        pairs = [(ad.mlp(kv, (p.v,)), composed_linear(kv, p.v)),
                 (layer_norm(q, p.q.b, p.out.b), composed_layer_norm(q, p.q.b, p.out.b))]
        if kv is q:
            pairs.append((ad.self_attention(q, p, ln), composed_self_attention(q, p, ln)))
    for fused, composed in pairs:
        assert fused.data.dtype == composed.data.dtype == np.dtype(f"float{bits}")
        assert np.array_equal(fused.data, composed.data)


def _gradients(forward, tensors, seed):
    for t in tensors:
        t.grad = None
    with ad.ComputationTape() as tape:
        out = forward()
    tape.backward(out, seed=seed)
    return [leaf_grad(t).copy() for t in tensors]


@pytest.mark.parametrize("q_shape,kv_shape,heads", ATTENTION_CASES, ids=ATTENTION_IDS)
def test_fused_gradients_match_the_composed_form(q_shape, kv_shape, heads):
    """64-bit gradients of every input and parameter of a layer norm, a
    linear and, on a clip's queries, self_attention agree with the composed
    forms' taped chain rule up to the regrouping of float sums."""
    with ad.precision(64):
        p, q, kv = _attention_inputs(1, q_shape, kv_shape, heads)
        rng = np.random.default_rng(3)
        gain = ad.param(rng.uniform(0.5, 2.0, q_shape[-1]))
        bias = ad.param(rng.normal(size=q_shape[-1]))
        ln = ad.LayerNormParams(gain, bias)
        cases = [(lambda: layer_norm(q, gain, bias), lambda: composed_layer_norm(q, gain, bias),
                  [("x", q), ("gain", gain), ("bias", bias)]),
                 (lambda: ad.mlp(kv, (p.v,)), lambda: composed_linear(kv, p.v),
                  [("x", kv), ("v.w", p.v.w), ("v.b", p.v.b)])]
        if kv is q:
            cases.append((lambda: ad.self_attention(q, p, ln),
                          lambda: composed_self_attention(q, p, ln),
                          [("x", q), ("gain", gain), ("bias", bias), ("k", p.k)]
                          + [(f"{lin}.{part}", getattr(getattr(p, lin), part))
                             for lin in ("q", "v", "out") for part in ("w", "b")]))
        for fused, composed, named in cases:
            tensors = [t for _, t in named]
            seed = np.random.default_rng(2).normal(size=fused().shape)
            pairs = zip(named, _gradients(fused, tensors, seed),
                        _gradients(composed, tensors, seed), strict=True)
            for (name, _), got, ref in pairs:
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


# Aggregation's anchors over their picked blocks [A, F*s*s, d] and box-guided
# cross-attention's queries over their own regions [T*L, s*s, d], each as one
# frame block, at the desk width, a gradient-check width case, and a clip's
# cross-attention as [T, L] frame blocks: (query rows' shape, n, d, heads).
CONTEXT_CASES = [((16,), 64, 32, 4), ((32,), 16, 32, 4), ((5,), 4, 8, 2), ((4, 8), 16, 32, 4)]
CONTEXT_IDS = ["ica_d32", "cross_d32", "cross_d8", "cross_frames_d32"]


def _context_inputs(seed, rows, n, d, heads):
    rng = np.random.default_rng(seed)
    p = ad.init_mha(rng, d, heads)
    return p, ad.param(rng.normal(size=(*rows, d))), ad.param(rng.normal(size=(*rows, n, d)))


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("rows,n,d,heads", CONTEXT_CASES, ids=CONTEXT_IDS)
def test_context_attention_matches_the_composed_chain_bitexactly(bits, rows, n, d, heads):
    """context_attention runs the composed chain's numpy operations in the
    same order, so its output bytes are the chain's in 32 and 64 bits."""
    with ad.precision(bits):
        p, q, ctx = _context_inputs(0, rows, n, d, heads)
        fused, composed = ad.context_attention(q, ctx, p), composed_context_attention(q, ctx, p)
    assert fused.data.dtype == composed.data.dtype == np.dtype(f"float{bits}")
    assert np.array_equal(fused.data, composed.data)


# Frame blocks of G rows at the desk cross-attention's, aggregation's and
# train_mid's cross-attention's context length and width: (n, d).
BLOCK_SHAPES = [(16, 32), (64, 32), (16, 64)]


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("G", [1, 4, 8, 30])
@pytest.mark.parametrize("n,d", BLOCK_SHAPES, ids=["desk_cross", "desk_ica", "mid_cross"])
def test_context_attention_frame_blocks_equal_one_frame_calls_bitexactly(bits, G, n, d):
    """Each frame block's products are its own: a [F, G, d] stack gives
    each block the output bytes of its own one-frame call, and a 2-D [A, d]
    call is the [1, A, d] call."""
    with ad.precision(bits):
        p, q, ctx = _context_inputs(5, (3, G), n, d, 4)
        stacked = ad.context_attention(q, ctx, p).data
        alone = [ad.context_attention(ad.tensor(q.data[i]), ad.tensor(ctx.data[i]), p).data
                 for i in range(3)]
        one_block = ad.context_attention(ad.tensor(q.data[:1]), ad.tensor(ctx.data[:1]), p).data
    assert np.array_equal(stacked, np.stack(alone))
    assert np.array_equal(one_block[0], alone[0])


@pytest.mark.parametrize("reference", ["composed_chain", "multi_head_attention"])
@pytest.mark.parametrize("rows,n,d,heads", CONTEXT_CASES, ids=CONTEXT_IDS)
def test_context_attention_gradients_match_the_references(reference, rows, n, d, heads):
    """In 64-bit, the output and the gradient of every input and parameter
    agree within 1e-12 relative with the composed chain's taped chain rule,
    and with the composed multi-head attention of [A, 1, d] queries over
    their own projected keys and values."""
    with ad.precision(64):
        p, q, ctx = _context_inputs(1, rows, n, d, heads)
        named = [("q", q), ("ctx", ctx), ("k", p.k)] + [
            (f"{lin}.{part}", getattr(getattr(p, lin), part))
            for lin in ("q", "v", "out") for part in "wb"]
        tensors = [t for _, t in named]
        seed = np.random.default_rng(2).normal(size=(*rows, d))

        def multi_head_attention():
            kv = ad.reshape(ctx, (-1, n, d))
            return ad.reshape(composed_multi_head_attention(ad.reshape(q, (-1, 1, d)), kv, kv, p),
                              q.shape)

        ref = {"composed_chain": lambda: composed_context_attention(q, ctx, p),
               "multi_head_attention": multi_head_attention}[reference]
        out, want = ad.context_attention(q, ctx, p).data, ref().data
        got = _gradients(lambda: ad.context_attention(q, ctx, p), tensors, seed)
        expect = _gradients(ref, tensors, seed)
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
    for (name, _), a, b in zip(named, got, expect, strict=True):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


# The fused records against the records they fuse: (fused, composed, input
# shapes). conv_relu on a desk backbone block's [T, h, w, c] map; mlp as an
# FFN and as the 3-layer box head on [T, L, d] rows; residual_norm at the
# self-attention's [1, T*L, d]; self_attention on a desk training stack of
# two 4-frame clips, [B*T, L, d]; roi_sample on [T, h, w, d] maps, including
# maps one pixel high, one pixel wide and 1x1, whose corners fold onto shared
# cells, with [T, n, 4] boxes, and with [T, 1, 4] boxes that every query of a
# frame shares, against the composed form of the boxes tiled over the queries.
def _roi(boxes, s):
    return (lambda f, q, a: geo.roi_sample_frame(f, boxes, s, q, a),
            lambda f, q, a: composed_roi_sample(f, boxes, s, q, a))


def _mlp(form):
    def run(x, *wb):
        return form(x, [ad.LinearParams(w, b) for w, b in zip(wb[::2], wb[1::2])])
    return run


def _self_attention(form, clips):
    def run(x, wq, bq, wk, wv, bv, wo, bo, gain, bias):
        lin = ad.LinearParams
        p = ad.MHAParams(4, lin(wq, bq), wk, lin(wv, bv), lin(wo, bo))
        return form(x, p, ad.LayerNormParams(gain, bias), clips)
    return run


_SELF_ATTENTION_SHAPES = [(8, 8, 32), (32, 32), (32,), (32, 32), (32, 32), (32,), (32, 32),
                          (32,), (32,), (32,)]


_ROI_BOXES = np.array([[[0.4, 0.5, 0.5, 0.4], [0.3, 0.7, 0.22, 0.34], [0.5, 0.5, 1.0, 1.0]],
                       [[0.62, 0.38, 0.44, 0.5], [0.9, 0.1, 0.3, 0.3], [0.2, 0.8, 0.6, 0.2]]])
FUSED_CASES = {
    "conv_relu": (lambda x, w, b: ad.conv_relu(x, ad.LinearParams(w, b)),
                  lambda x, w, b: composed_conv_relu(x, ad.LinearParams(w, b)),
                  [(2, 8, 8, 8), (72, 16), (16,)]),
    "mlp_ffn": (_mlp(ad.mlp), _mlp(composed_mlp), [(4, 8, 32), (32, 128), (128,), (128, 32),
                                                    (32,)]),
    "mlp_box_head": (_mlp(ad.mlp), _mlp(composed_mlp), [(4, 8, 32), (32, 32), (32,), (32, 32),
                                                        (32,), (32, 4), (4,)]),
    "residual_norm": (lambda x, y, g, b: ad.residual_norm(x, y, ad.LayerNormParams(g, b)),
                      lambda x, y, g, b: composed_residual_norm(x, y, ad.LayerNormParams(g, b)),
                      [(1, 32, 32), (1, 32, 32), (32,), (32,)]),
    "self_attention": (_self_attention(ad.self_attention, 2),
                       _self_attention(composed_self_attention, 2), _SELF_ATTENTION_SHAPES),
    "roi_sample": (*_roi(_ROI_BOXES, 4), [(2, 8, 8, 16), (2, 3, 16), (16, 256)]),
    "roi_sample_one_row": (*_roi(_ROI_BOXES, 2), [(2, 1, 6, 4), (2, 3, 4), (4, 16)]),
    "roi_sample_one_column": (*_roi(_ROI_BOXES, 2), [(2, 6, 1, 4), (2, 3, 4), (4, 16)]),
    "roi_sample_one_pixel": (*_roi(_ROI_BOXES, 2), [(2, 1, 1, 4), (2, 3, 4), (4, 16)]),
    "roi_sample_shared_box": (*_roi(_ROI_BOXES[:, :1], 4), [(2, 8, 8, 16), (2, 3, 16),
                                                            (16, 256)]),
}


@pytest.mark.parametrize("shape", [(2, 8, 6, 3), (1, 7, 5, 2)], ids=["even", "odd"])
def test_conv_relu_is_the_direct_convolution(shape):
    """conv_relu's patch layout and weight rows are those of a 3x3,
    stride-2, one-pixel zero-padded convolution, on even and odd maps."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=shape)
    w, b = rng.normal(size=(9 * shape[-1], 4)), rng.normal(size=4)
    with ad.precision(64):
        got = ad.conv_relu(ad.tensor(x), ad.LinearParams(ad.tensor(w), ad.tensor(b))).data
    want = loop_conv_relu(x, w, b)
    assert got.shape == want.shape and want.any()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("shape", [(2, 8, 6, 3), (1, 7, 5, 2), (2, 9, 9, 4), (3, 1, 1, 2),
                                   (2, 1, 6, 3), (2, 6, 1, 3)],
                         ids=["even", "odd", "odd_square", "one_pixel", "one_row",
                              "one_column"])
@pytest.mark.parametrize("constant", [False, True], ids=["param_map", "constant_map"])
def test_conv_relu_bytes_equal_the_transposed_im2col_and_nine_add_col2im(bits, shape,
                                                                          constant):
    """conv_relu's chunk-copy im2col, four-add col2im and weight and bias
    gradients give the bytes of extract_patches' transposed window copy and
    nine adds under linear_relu's records: output, map, weight and bias
    gradients, in 32 and 64 bits, on even, odd, 1x1, 1xn and nx1 maps; a
    constant map gets no gradient."""
    rng = np.random.default_rng(6)
    with ad.precision(bits):
        x = ad.Tensor(rng.normal(size=shape), requires_grad=not constant)
        w, b = ad.param(rng.normal(size=(9 * shape[-1], 5))), ad.param(rng.normal(size=5))
        seed = ad.tensor(rng.normal(size=(shape[0], (shape[1] + 1) // 2,
                                          (shape[2] + 1) // 2, 5))).data
        outs, grads = [], []
        for form in (ad.conv_relu, composed_conv_relu):
            x.grad = w.grad = b.grad = None
            with ad.ComputationTape() as tape:
                out = form(x, ad.LinearParams(w, b))
            tape.backward(out, seed=seed)
            outs.append(out.data)
            grads.append([x.grad, w.grad, b.grad])
    assert outs[0].dtype == outs[1].dtype == np.dtype(f"float{bits}")
    assert outs[0].tobytes() == outs[1].tobytes() and outs[0].any()
    assert (grads[0][0] is None) == (grads[1][0] is None) == constant
    for got, want in zip(grads[0], grads[1]):
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and want.any()


def _fused_inputs(seed, shapes):
    rng = np.random.default_rng(seed)
    return [ad.param(rng.normal(size=shape)) for shape in shapes]


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("case", FUSED_CASES)
def test_fused_records_match_their_composed_forms_bitexactly(bits, case):
    """conv_relu, mlp, residual_norm, self_attention and roi_sample run
    the numpy operations of the records they fuse, in the same order: the same
    output bytes in 32 and 64 bits."""
    fused, composed, shapes = FUSED_CASES[case]
    with ad.precision(bits):
        inputs = _fused_inputs(0, shapes)
        got, want = fused(*inputs), composed(*inputs)
    assert got.data.dtype == want.data.dtype == np.dtype(f"float{bits}")
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("case", FUSED_CASES)
def test_fused_record_gradients_match_their_composed_forms(case):
    """In 64-bit, the gradient of every input of each fused record agrees
    with the composed form's taped chain rule within 1e-12 relative."""
    fused, composed, shapes = FUSED_CASES[case]
    inputs = _fused_inputs(1, shapes)
    seed = np.random.default_rng(2).normal(size=fused(*inputs).shape)
    got = _gradients(lambda: fused(*inputs), inputs, seed)
    want = _gradients(lambda: composed(*inputs), inputs, seed)
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        assert b.any() and np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), i


@pytest.mark.parametrize("case", ["conv_relu", "mlp_ffn", "mlp_box_head",
                                  "residual_norm", "self_attention", "roi_sample"])
def test_fused_records_keep_fewer_bytes_than_their_composed_forms(case):
    """Each fused record is one record that keeps less than the chain it
    replaces: conv_relu no pre-activation or mask, mlp no pre-activations or
    masks, residual_norm no sum,
    self_attention no projections, logits or pre-norm sum, and roi_sample
    no dense interpolation stack and no sampled or adapted halves of the
    sum."""
    fused, composed, shapes = FUSED_CASES[case]
    inputs = _fused_inputs(3, shapes)

    def kept(fn):
        gc.collect()
        tracemalloc.start()
        try:
            with ad.ComputationTape() as tape:
                out = fn(*inputs)
            return len(tape), tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
            del tape

    (records, fused_bytes), (_, composed_bytes) = kept(fused), kept(composed)
    assert records == 1 and fused_bytes < composed_bytes


@pytest.mark.parametrize("bits", [32, 64])
def test_self_attention_stack_equals_each_clip_alone_bitexactly(bits):
    """Each clip of a stack attends only within itself, and each of its
    products is the clip's own: a two-clip stack gives each clip the output
    bytes of its own call."""
    fused = FUSED_CASES["self_attention"][0]
    with ad.precision(bits):
        x, *rest = _fused_inputs(4, _SELF_ATTENTION_SHAPES)
        stacked = fused(x, *rest).data
        alone = [_self_attention(ad.self_attention, 1)(ad.tensor(part), *rest).data
                 for part in np.split(x.data, 2)]
    assert np.array_equal(stacked, np.concatenate(alone))
