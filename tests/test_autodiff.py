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
from clipvid import gradcheck_suite
from clipvid.errors import ConfigError, DimensionError, NumericError
from oracles import (composed_attention, composed_context_attention, composed_layer_norm,
                     composed_linear, composed_multi_head_attention, corrupt_adjoint,
                     leaf_grad, scatter_add_rows, stacked_matmul_adjoint)

# Every primitive that records itself on the tape and the number of inputs
# it records, read from the source of every module of the package, so that
# a new primitive, or a new input, without a gradient check fails the tests
# below, wherever it is defined. concat's parts are checked in pairs.
SOURCE = "".join(inspect.getsource(importlib.import_module(f"clipvid.{m.name}"))
                 for m in pkgutil.iter_modules(clipvid.__path__))
RECORDED_OPS = sorted(set(re.findall(r'_record\("(\w+)"', SOURCE)))
ARITY = {"concat": 2} | {op: len([n for n in names.split(",") if n.strip()]) for op, names
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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_slices_sum_to_one(vals):
    out = ad.softmax(ad.tensor(np.array([vals, vals[::-1]]))).data
    assert_allclose(out.sum(axis=-1), [1.0, 1.0], atol=1e-6)


def test_layer_norm_constant_slice():
    gain = ad.tensor(np.ones(4))
    bias = ad.tensor(np.zeros(4))
    out = ad.layer_norm(ad.tensor([[5.0, 5.0, 5.0, 5.0]]), gain, bias)
    assert_allclose(out.data, np.zeros((1, 4)), atol=1e-8)


def test_layer_norm_two_values():
    out = ad.layer_norm(ad.tensor([[1.0, 3.0]]), ad.tensor(np.ones(2)),
                        ad.tensor(np.zeros(2)))
    assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_rejects_width_one():
    with pytest.raises(ConfigError):
        ad.layer_norm(ad.tensor([[3.0]]), ad.tensor(np.ones(1)), ad.tensor(np.zeros(1)))


def test_layer_norm_statistics_random(rng):
    x = ad.tensor(rng.normal(size=(5, 16)))
    out = ad.layer_norm(x, ad.tensor(np.ones(16)), ad.tensor(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4


def test_layer_norm_gradient(rng):
    gain = ad.tensor(rng.normal(size=8))
    bias = ad.tensor(rng.normal(size=8))
    w = ad.tensor(rng.normal(size=(1, 8)))
    rep = ad.grad_check(
        lambda x: ad.reduce_sum(ad.mul(ad.layer_norm(x, gain, bias), w)),
        ad.tensor(rng.normal(size=(1, 8))))
    assert rep.max_rel_err < 1e-4


def test_mha_zero_value_projection_gives_bias_only(rng):
    p = ad.init_mha(rng, 8, 2)
    p.v.w.data[:] = 0.0
    p.v.b.data[:] = 0.0
    p.out.w.data[:] = np.eye(8)
    q = ad.tensor(rng.normal(size=(1, 3, 8)))
    out = ad.multi_head_attention(q, q, q, p)
    assert_allclose(out.data, np.broadcast_to(p.out.b.data, (1, 3, 8)), atol=1e-12)


def test_mha_single_key_degenerate(rng):
    p = ad.init_mha(rng, 8, 2)
    q = ad.tensor(rng.normal(size=(1, 2, 8)))
    k = ad.tensor(rng.normal(size=(1, 1, 8)))
    out = ad.multi_head_attention(q, k, k, p)
    vrow = ad.linear(k, p.v)
    expect = ad.linear(vrow, p.out)
    assert_allclose(out.data, np.broadcast_to(expect.data, (1, 2, 8)), atol=1e-10)


def test_mha_head_divisibility_error(rng):
    with pytest.raises(ConfigError):
        ad.init_mha(rng, 9, 2)


def test_mha_gradients(rng):
    p = ad.init_mha(rng, 8, 2)
    k = ad.tensor(rng.normal(size=(1, 4, 8)))
    for which in range(3):
        def f(x, which=which):
            args = [k, k, k]
            args[which] = x
            return ad.reduce_sum(ad.multi_head_attention(*args, p))
        rep = ad.grad_check(f, ad.tensor(rng.normal(size=(1, 4, 8))))
        assert rep.max_rel_err < 1e-4, which


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
    of that input, op or op[i], must fail."""
    corrupt_adjoint(monkeypatch, op, position)
    failed = {r.name for r in gradcheck_suite.primitive_checks(0, 1e-4) if not r.passed}
    assert (f"{op}[{position}]" if ARITY[op] > 1 else op) in failed, failed


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
    failed = {r.name.split("[")[0] for r in gradcheck_suite.primitive_checks(0, 1e-4)
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
    """linear -> layer_norm -> multi_head_attention -> a weighted sum, taped;
    returns the tape, the loss, the leaves, a weakref to the linear output's
    array and the later intermediate outputs."""
    rng = np.random.default_rng(seed)
    p = ad.init_mha(rng, 8, 2)
    x = ad.param(rng.normal(size=(2, 3, 8)))
    gain, bias = ad.param(rng.normal(size=8)), ad.param(rng.normal(size=8))
    weight = ad.tensor(rng.normal(size=(2, 3, 8)))
    with ad.ComputationTape() as tape:
        h = ad.linear(x, p.q)
        n = ad.layer_norm(h, gain, bias, 1e-5)
        a = ad.multi_head_attention(n, n, n, p)
        loss = ad.reduce_sum(ad.mul(a, weight))
    leaves = [x, gain, bias] + [t for lin in (p.q, p.k, p.v, p.out) for t in (lin.w, lin.b)]
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
    """The adjoints of mul, matmul and the fused layers compute no gradient
    for an input that needs none; the two context_attention calls each have
    every other input constant."""
    x, c = ad.param(rng.normal(size=(2, 3, 8))), ad.tensor(rng.normal(size=(2, 3, 8)))
    w, cw = ad.param(rng.normal(size=(8, 8))), ad.tensor(rng.normal(size=(8, 8)))
    b, cb = ad.param(rng.normal(size=8)), ad.tensor(rng.normal(size=8))
    cstack = ad.tensor(rng.normal(size=(2, 8, 3)))
    with ad.ComputationTape() as tape:
        ad.mul(x, c), ad.mul(c, x)
        ad.matmul(x, cw), ad.matmul(c, w), ad.matmul(x, cstack), ad.matmul(cstack, x)
        ad.layer_norm(x, cb, cb), ad.layer_norm(c, b, cb), ad.layer_norm(c, cb, b)
        ad.attention(x, c, c, 2), ad.attention(c, x, c, 2), ad.attention(c, c, x, 2)
        ad.linear(x, ad.LinearParams(cw, cb)), ad.linear(c, ad.LinearParams(w, cb))
        ad.linear(c, ad.LinearParams(cw, b))
        rows, crows = ad.param(rng.normal(size=(2, 8))), ad.tensor(rng.normal(size=(2, 8)))
        lin = ad.LinearParams
        ad.context_attention(rows, c, ad.MHAParams(2, lin(w, b), lin(cw, cb), lin(w, cb),
                                                   lin(cw, b)))
        ad.context_attention(crows, x, ad.MHAParams(2, lin(cw, cb), lin(w, b), lin(cw, b),
                                                    lin(w, cb)))
    assert len(tape) == 17
    for op, inputs, out, adjoint in tape.records:
        grads = adjoint(np.ones_like(out.data))
        assert [g is not None for g in grads] == [t.requires_grad for t in inputs], op


@pytest.mark.parametrize("layer,records", [
    (lambda x, p: ad.layer_norm(x, p.q.b, p.k.b), 1),
    (lambda x, p: ad.linear(x, p.q), 1),
    (lambda x, p: ad.multi_head_attention(x, x, x, p), 5),
    (lambda x, p: ad.context_attention(ad.tensor(x.data[:, 0]), x, p), 1),
], ids=["layer_norm", "linear", "multi_head_attention", "context_attention"])
def test_fused_layer_record_count(rng, layer, records):
    """Hardware-independent gate: one tape record per layer_norm, linear and
    context_attention call, five per multi_head_attention call (four
    projections and the attention core)."""
    p = ad.init_mha(rng, 8, 2)
    x = ad.param(rng.normal(size=(2, 3, 8)))
    with ad.ComputationTape() as tape:
        layer(x, p)
    assert len(tape) == records


# A clip's self-attention over [1, T*L, d], and [T*L, 1, d] queries each over
# its own [s*s, d] region rows (context_attention's projected form), at the
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
        pairs = [
            (ad.multi_head_attention(q, kv, kv, p), composed_multi_head_attention(q, kv, kv, p)),
            (ad.attention(q, kv, kv, heads), composed_attention(q, kv, kv, heads)),
            (ad.linear(kv, p.v), composed_linear(kv, p.v)),
            (ad.layer_norm(q, p.q.b, p.k.b, 1e-5), composed_layer_norm(q, p.q.b, p.k.b, 1e-5)),
        ]
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
    """64-bit gradients of every input and parameter of multi_head_attention
    and of a layer norm agree with the composed forms' taped chain rule up
    to the regrouping of float sums. A key bias shifts every logit of a
    query alike, so its true gradient is exactly zero: both forms must give
    rounding noise only."""
    with ad.precision(64):
        p, q, kv = _attention_inputs(1, q_shape, kv_shape, heads)
        inputs = [("q", q)] + ([("kv", kv)] if kv is not q else [])
        named = inputs + [(f"{lin}.{part}", getattr(getattr(p, lin), part))
                          for lin in ("q", "k", "v", "out") for part in ("w", "b")]
        tensors = [t for _, t in named]
        seed = np.random.default_rng(2).normal(size=q_shape)
        fused = _gradients(lambda: ad.multi_head_attention(q, kv, kv, p), tensors, seed)
        composed = _gradients(lambda: composed_multi_head_attention(q, kv, kv, p),
                              tensors, seed)
        gain = ad.param(np.random.default_rng(3).uniform(0.5, 2.0, q_shape[-1]))
        ln = [("ln.x", q), ("ln.gain", gain), ("ln.bias", p.out.b)]
        named += ln
        tensors = [t for _, t in ln]
        fused += _gradients(lambda: ad.layer_norm(q, gain, p.out.b), tensors, seed)
        composed += _gradients(lambda: composed_layer_norm(q, gain, p.out.b), tensors, seed)
    for (name, _), got, ref in zip(named, fused, composed, strict=True):
        if name == "k.b":
            assert np.abs(got).max() < 1e-12 and np.abs(ref).max() < 1e-12
        else:
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


# Aggregation's anchors over their picked blocks [A, F*s*s, d] and box-guided
# cross-attention's queries over their own regions [T*L, s*s, d], at the desk
# width, and a gradient-check width case: (A, n, d, heads).
CONTEXT_CASES = [(16, 64, 32, 4), (32, 16, 32, 4), (5, 4, 8, 2)]
CONTEXT_IDS = ["ica_d32", "cross_d32", "cross_d8"]


def _context_inputs(seed, rows, n, d, heads):
    rng = np.random.default_rng(seed)
    p = ad.init_mha(rng, d, heads)
    return p, ad.param(rng.normal(size=(rows, d))), ad.param(rng.normal(size=(rows, n, d)))


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


@pytest.mark.parametrize("reference", ["composed_chain", "multi_head_attention"])
@pytest.mark.parametrize("rows,n,d,heads", CONTEXT_CASES, ids=CONTEXT_IDS)
def test_context_attention_gradients_match_the_references(reference, rows, n, d, heads):
    """In 64-bit, the output and the gradient of every input and parameter
    agree within 1e-12 relative with the composed chain's taped chain rule,
    and with multi_head_attention of [A, 1, d] queries over their own
    projected keys and values. The key bias is not read: its gradient is
    an exact zero, where the projected form gives rounding noise."""
    with ad.precision(64):
        p, q, ctx = _context_inputs(1, rows, n, d, heads)
        named = [("q", q), ("ctx", ctx)] + [(f"{lin}.{part}", getattr(getattr(p, lin), part))
                                            for lin in ("q", "k", "v", "out") for part in "wb"]
        tensors = [t for _, t in named]
        seed = np.random.default_rng(2).normal(size=(rows, d))
        ref = {"composed_chain": lambda: composed_context_attention(q, ctx, p),
               "multi_head_attention": lambda: ad.reshape(ad.multi_head_attention(
                   ad.reshape(q, (rows, 1, d)), ctx, ctx, p), (rows, d))}[reference]
        out, want = ad.context_attention(q, ctx, p).data, ref().data
        got = _gradients(lambda: ad.context_attention(q, ctx, p), tensors, seed)
        expect = _gradients(ref, tensors, seed)
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
    for (name, _), a, b in zip(named, got, expect, strict=True):
        if name == "k.b":
            assert not a.any() and np.abs(b).max() < 1e-12
        else:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name
