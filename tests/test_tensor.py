"""Unit tests for the tape-based autodiff core."""

import contextlib
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2apt import errors
from v2apt import tensor as T
from v2apt.gradcheck import finite_diff_check
from v2apt.tensor import Tape, Tensor, float64_mode


def rng():
    return np.random.default_rng(7)


def plain_norm(x):
    """layer_norm with frozen unit gamma and zero beta: the plain normalization."""
    d = x.shape[-1]
    return T.layer_norm(x, np.ones(d), np.zeros(d))


def check(build_loss, params, eps=1e-5, tol=1e-6):
    report = finite_diff_check(build_loss, params, eps=eps, tol=tol)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# dtype mode


def test_default_dtype_is_float32():
    assert Tensor([1.0, 2.0]).data.dtype == np.float32


def test_float64_mode_switches_and_restores():
    with float64_mode():
        assert Tensor([1.0]).data.dtype == np.float64
    assert Tensor([1.0]).data.dtype == np.float32


def test_requires_grad_is_fixed_when_a_tensor_is_built():
    # freezing replaces a tensor; no flag changes under a node a tape holds
    t = Tensor(np.ones(3), requires_grad=True)
    assert t.node.requires_grad
    with pytest.raises(AttributeError):
        t.requires_grad = False
    assert t.requires_grad and t.node.requires_grad


# ---------------------------------------------------------------------------
# elementwise and broadcasting


def test_add_suffix_broadcast_bias():
    with float64_mode():
        x = Tensor(rng().standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng().standard_normal(4), requires_grad=True)
        check(lambda: (x + b).sum(), {"x": x, "b": b})


def test_mul_suffix_broadcast_scale():
    with float64_mode():
        x = Tensor(rng().standard_normal((2, 3, 4)), requires_grad=True)
        s = Tensor(rng().standard_normal((3, 4)), requires_grad=True)
        check(lambda: (x * s).sum(), {"x": x, "s": s})


def test_add_rejects_non_suffix_shapes():
    with pytest.raises(errors.ShapeError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((2, 4)))


def test_leading_broadcast_is_rejected():
    # (2, 1) against (2, 3) would need numpy-style inner broadcasting
    with pytest.raises(errors.ShapeError):
        Tensor(np.zeros((2, 1))) * Tensor(np.zeros((2, 3)))


def test_sub_and_neg():
    with float64_mode():
        x = Tensor(rng().standard_normal(5), requires_grad=True)
        y = Tensor(rng().standard_normal(5), requires_grad=True)
        check(lambda: (x - y).sum(), {"x": x, "y": y})
        check(lambda: (-x).sum(), {"x": x})


# ---------------------------------------------------------------------------
# matmul


def test_matmul_value_matches_numpy():
    a = rng().standard_normal((3, 4))
    b = rng().standard_normal((4, 5))
    out = Tensor(a) @ Tensor(b)
    np.testing.assert_allclose(out.data, (a @ b).astype(np.float32), rtol=1e-6)


def test_matmul_grads_plain():
    with float64_mode():
        a = Tensor(rng().standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng().standard_normal((4, 5)), requires_grad=True)
        check(lambda: (a @ b).sum(), {"a": a, "b": b})


def test_matmul_grads_stacked_batch():
    with float64_mode():
        a = Tensor(rng().standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng().standard_normal((2, 4, 5)), requires_grad=True)
        check(lambda: (a @ b).sum(), {"a": a, "b": b})


def test_matmul_grads_shared_weight():
    # batched activations against one rank-2 weight: dW sums over the batch
    with float64_mode():
        x = Tensor(rng().standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng().standard_normal((4, 5)), requires_grad=True)
        check(lambda: (x @ w).sum(), {"x": x, "w": w})


def test_matmul_inner_dim_error_names_both_shapes():
    with pytest.raises(errors.ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
        Tensor(np.zeros((3, 4))) @ Tensor(np.zeros((5, 2)))


def test_matmul_leading_dim_mismatch():
    with pytest.raises(errors.ShapeError):
        Tensor(np.zeros((2, 3, 4))) @ Tensor(np.zeros((3, 4, 5)))


# ---------------------------------------------------------------------------
# shape ops


def test_transpose_roundtrip_and_grad():
    with float64_mode():
        x = Tensor(rng().standard_normal((2, 3, 4)), requires_grad=True)
        y = x.transpose(2, 0, 1)
        assert y.shape == (4, 2, 3)
        check(lambda: (x.transpose(2, 0, 1) * Tensor(np.ones((4, 2, 3)) * 0.5)).sum(), {"x": x})


def test_reshape_grad_and_bad_size():
    with float64_mode():
        x = Tensor(rng().standard_normal((2, 6)), requires_grad=True)
        check(lambda: (x.reshape(3, 4) @ Tensor(rng().standard_normal((4, 2)))).sum(), {"x": x})
    with pytest.raises(errors.ShapeError):
        x.reshape(5, 5)


def test_concat_then_slice_recovers_parts():
    a = Tensor(rng().standard_normal((2, 3)))
    b = Tensor(rng().standard_normal((2, 5)))
    cat = T.concat([a, b], axis=1)
    assert cat.shape == (2, 8)
    np.testing.assert_array_equal(T.slice_axis(cat, 1, 0, 3).data, a.data)
    np.testing.assert_array_equal(T.slice_axis(cat, 1, 3, 8).data, b.data)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    seed=st.integers(0, 2**31 - 1),
)
def test_concat_slice_identity_property(rows, cols, seed):
    g = np.random.default_rng(seed)
    parts = [g.standard_normal((rows, c)).astype(np.float32) for c in cols]
    cat = T.concat([Tensor(p) for p in parts], axis=1)
    offset = 0
    for p in parts:
        got = T.slice_axis(cat, 1, offset, offset + p.shape[1]).data
        np.testing.assert_array_equal(got, p)
        offset += p.shape[1]
    assert offset == cat.shape[1]


def test_concat_grad_splits_correctly():
    with float64_mode():
        a = Tensor(rng().standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng().standard_normal((2, 4)), requires_grad=True)
        w = Tensor(rng().standard_normal((7, 2)))
        check(lambda: (T.concat([a, b], axis=1) @ w).sum(), {"a": a, "b": b})


def test_slice_grad_zero_fills_complement():
    with Tape() as tape:
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        y = T.slice_axis(x, 1, 1, 2)
        tape.backward(y.sum())
    expected = np.array([[0, 1, 0], [0, 1, 0]], dtype=np.float32)
    np.testing.assert_array_equal(x.grad, expected)


def test_slice_adjoints_accumulate_rows_into_one_grad():
    g = rng()
    x = Tensor(g.standard_normal((2, 5, 3)).astype(np.float32), requires_grad=True)
    p1 = g.standard_normal((2, 2, 3)).astype(np.float32)
    p2 = g.standard_normal((2, 3, 3)).astype(np.float32)
    with Tape() as tape:
        y1 = T.slice_axis(x, 1, 0, 2)
        y2 = T.slice_axis(x, 1, 1, 4)
        tape.backward((y1 * Tensor(p1)).sum() + (y2 * Tensor(p2)).sum())
    # the adjoints run in reverse: y2's rows are written first, then y1's added
    want = np.zeros((2, 5, 3), dtype=np.float32)
    want[:, 1:4] += p2
    want[:, 0:2] += p1
    np.testing.assert_array_equal(x.grad, want)
    assert x.grad.dtype == np.float32


def test_slice_first_write_does_not_alias_the_upstream_grad():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        y = T.slice_axis(x, 0, 0, 2)  # covers the whole input
        tape.backward((y * 3.0).sum())
    assert not np.shares_memory(x.grad, y.grad)
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0, dtype=np.float32))


def test_slice_bounds_checked():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(errors.ShapeError):
        T.slice_axis(x, 1, 2, 5)
    with pytest.raises(errors.ShapeError):
        T.slice_axis(x, 5, 0, 1)


def test_expand_leading_stacks_and_sums_grad():
    with Tape() as tape:
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = T.expand_leading(p, 3)
        assert y.shape == (3, 2)
        tape.backward((y * Tensor(np.array([[1.0, 1], [2, 2], [3, 3]]))).sum())
    np.testing.assert_allclose(p.grad, [6.0, 6.0])


# ---------------------------------------------------------------------------
# reductions and nonlinearities


def test_sum_mean_axis_grads():
    with float64_mode():
        x = Tensor(rng().standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng().standard_normal(4))
        check(lambda: (x.sum(axis=0) * w).sum(), {"x": x})
        check(lambda: (x.mean(axis=1)).sum(), {"x": x})
        check(lambda: x.mean(), {"x": x})


def test_exp_gelu_grads():
    with float64_mode():
        x = Tensor(rng().standard_normal(16) * 1.5, requires_grad=True)
        check(lambda: T.texp(x).sum(), {"x": x})
        check(lambda: T.gelu(x).sum(), {"x": x})


def test_gelu_reference_values():
    x = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    got = T.gelu(Tensor(x)).data
    from scipy.special import erf

    want = x * 0.5 * (1 + erf(x / np.sqrt(2)))
    np.testing.assert_allclose(got, want.astype(np.float32), atol=1e-6)
    assert got[2] == 0.0


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = rng().standard_normal((4, 7)).astype(np.float32)
    y = T.softmax(Tensor(x), axis=-1).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    # adding 1000 in float32 quantizes the inputs, so compare loosely
    y2 = T.softmax(Tensor(x + 1000.0), axis=-1).data
    np.testing.assert_allclose(y, y2, atol=1e-4)
    assert np.all(np.isfinite(y2))


def test_softmax_grad():
    with float64_mode():
        x = Tensor(rng().standard_normal((3, 5)), requires_grad=True)
        w = Tensor(rng().standard_normal((3, 5)))
        check(lambda: (T.softmax(x, axis=-1) * w).sum(), {"x": x})


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_softmax_matches_numpy_on_any_axis(axis):
    with float64_mode():
        x = rng().standard_normal((3, 4, 5)) * 4
        got = T.softmax(Tensor(x), axis=axis).data
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    np.testing.assert_allclose(got, e / e.sum(axis=axis, keepdims=True), rtol=0, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), shift=st.floats(-50, 50))
def test_layer_norm_shift_invariance_property(seed, shift):
    g = np.random.default_rng(seed)
    x = g.standard_normal((2, 8)).astype(np.float32)
    a = plain_norm(Tensor(x)).data
    b = plain_norm(Tensor(x + np.float32(shift))).data
    np.testing.assert_allclose(a, b, atol=1e-3)


def test_layer_norm_moments_and_grad():
    with float64_mode():
        x = Tensor(rng().standard_normal((4, 16)) * 3 + 1, requires_grad=True)
        y = plain_norm(x)
        np.testing.assert_allclose(y.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(y.data.var(axis=-1), 1.0, atol=1e-5)
        w = Tensor(rng().standard_normal((4, 16)))
        check(lambda: (plain_norm(x) * w).sum(), {"x": x})


def test_clamp_values_and_masked_grad():
    with Tape() as tape:
        x = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        y = T.clamp(x, -1.0, 1.0)
        tape.backward(y.sum())
    np.testing.assert_array_equal(y.data, np.array([-1.0, -0.5, 0.5, 1.0], dtype=np.float32))
    np.testing.assert_array_equal(x.grad, np.array([0.0, 1.0, 1.0, 0.0], dtype=np.float32))


def test_embedding_gather_and_scatter_add():
    with Tape() as tape:
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
        idx = np.array([1, 1, 3])
        y = T.embedding(table, idx)
        tape.backward(y.sum())
    np.testing.assert_array_equal(y.data, table.data[idx])
    expected = np.zeros((4, 3), dtype=np.float32)
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)
    with pytest.raises(errors.ValidationError):
        T.embedding(table, np.array([4]))


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_matches_manual_log_softmax():
    logits = rng().standard_normal((5, 3)).astype(np.float64)
    labels = np.array([0, 2, 1, 1, 0])
    with float64_mode():
        got = T.cross_entropy_with_logits(Tensor(logits), labels).item()
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    want = -logp[np.arange(5), labels].mean()
    assert got == pytest.approx(want, rel=1e-12)


def test_cross_entropy_grad():
    with float64_mode():
        logits = Tensor(rng().standard_normal((4, 6)), requires_grad=True)
        labels = np.array([5, 0, 3, 3])
        check(lambda: T.cross_entropy_with_logits(logits, labels), {"logits": logits})


def test_cross_entropy_is_stable_for_huge_logits():
    logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
    val = T.cross_entropy_with_logits(logits, np.array([0, 1])).item()
    assert np.isfinite(val) and val == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_label_out_of_range():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(errors.ValidationError, match=r"\[0, 3\)"):
        T.cross_entropy_with_logits(logits, np.array([0, 3]))


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_requires_scalar_and_nonempty_tape():
    with Tape() as tape:
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        with pytest.raises(errors.ContractError):
            tape.backward(y)
    with Tape() as tape:
        with pytest.raises(errors.ContractError):
            tape.backward(Tensor(1.0))


def test_backward_rejects_foreign_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = x.sum()  # built outside any tape
    with Tape() as tape:
        _ = (x * 1.0).sum()
        with pytest.raises(errors.ContractError):
            tape.backward(loss)


def test_unreached_leaf_gets_zero_grad():
    with Tape() as tape:
        x = Tensor(np.ones(3), requires_grad=True)
        dead = Tensor(np.ones(2), requires_grad=True)
        _ = dead * 5.0  # recorded but disconnected from the loss
        loss = x.sum()
        tape.backward(loss)
    np.testing.assert_array_equal(dead.grad, np.zeros(2, dtype=np.float32))
    np.testing.assert_array_equal(x.grad, np.ones(3, dtype=np.float32))


def test_backward_keeps_gradients_only_on_leaves_and_the_loss():
    with Tape() as tape:
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        w = Tensor(np.array([0.5, 0.5, 0.5]))  # a frozen leaf
        dead = Tensor(np.ones(2), requires_grad=True)
        dead_mid = dead * 5.0  # recorded but disconnected from the loss
        mid = T.gelu(x * w)
        loss = (mid * mid).sum()
        tape.backward(loss)
    assert len(tape.records) == 5  # the tape itself stays whole
    for t in (mid, dead_mid):
        assert t.grad is None
    np.testing.assert_array_equal(loss.grad, np.float32(1.0))
    assert w.grad is None
    np.testing.assert_array_equal(dead.grad, np.zeros(2, dtype=np.float32))
    assert x.grad is not None and np.all(x.grad != 0)


@pytest.mark.parametrize("case", ["a + a", "a + b", "reshape", "transpose", "concat"])
def test_no_two_tensors_share_a_gradient_buffer_after_backward(case):
    # each loss is the pass-through op's own output, whose gradient the tape
    # keeps: a leaf gradient that aliased it, or another leaf's, would share its buffer
    a = Tensor(np.array([[2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0]]), requires_grad=True)
    empty = Tensor(np.zeros((1, 0)), requires_grad=True)
    ops = {"a + a": lambda: a + a, "a + b": lambda: a + b, "reshape": lambda: a.reshape(1),
           "transpose": lambda: a.transpose(), "concat": lambda: T.concat([a, empty], axis=1)}
    with Tape() as tape:
        loss = ops[case]()
        tape.backward(loss)
    np.testing.assert_array_equal(loss.grad, np.ones(loss.shape))
    np.testing.assert_array_equal(a.grad, [[2.0 if case == "a + a" else 1.0]])
    grads = [t.grad for t in (loss, a, b) if t.grad is not None]
    assert len(grads) == (3 if case == "a + b" else 2)
    for i, g in enumerate(grads):
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h), case


def test_grad_accumulates_across_fanout():
    with Tape() as tape:
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = (x * x).sum()  # d/dx x^2 = 2x needs two accumulations
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0])


def test_a_second_backward_raises_and_the_records_stay_whole():
    # a second pass once added every leaf gradient again: [2, 4] became [4, 8]
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        sq = x * x
        loss = sq.sum()
        tape.backward(loss)
        with pytest.raises(errors.ContractError, match="already ran"):
            tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    mul, total = tape.records
    assert (mul.op, total.op) == ("mul", "sum")
    assert mul.inputs[0] is x.node and mul.inputs[1] is x.node
    assert mul.output is sq.node and total.inputs[0] is sq.node and total.output is loss.node


def test_two_threads_with_interleaved_tapes_each_record_only_their_own_ops():
    # both tapes open at once, the first opened exits first
    both_open, both_recorded = threading.Barrier(2, timeout=30), threading.Barrier(2, timeout=30)
    first_closed = threading.Event()
    found, failures = {}, []

    def run(doublings: int) -> None:
        try:
            x = Tensor(np.array([1.0, 3.0]), requires_grad=True)
            with Tape() as tape:
                both_open.wait()
                y = x
                for _ in range(doublings):
                    y = y * 2.0
                both_recorded.wait()
                if doublings == 2:
                    assert first_closed.wait(30)
                tape.backward(y.sum())
            first_closed.set()
            found[doublings] = ([r.op for r in tape.records], x.grad)
        except Exception as e:  # surfaced by the main thread
            failures.append(e)
            both_open.abort()
            both_recorded.abort()
            first_closed.set()

    threads = [threading.Thread(target=run, args=(n,)) for n in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and not failures, failures
    assert sorted(found) == [1, 2]
    for doublings, (ops, grad) in found.items():
        assert ops == ["mul"] * doublings + ["sum"]
        np.testing.assert_array_equal(grad, [2.0 ** doublings] * 2)
    assert T.active_tape() is None


def _saved(tape: Tape, op: str) -> dict[str, np.ndarray]:
    """The arrays the adjoint of the tape's first `op` record closes over."""
    adjoint = tape._adjoints[[r.op for r in tape.records].index(op)]
    cells = zip(adjoint.__code__.co_freevars, adjoint.__closure__)
    return {name: c.cell_contents for name, c in cells if isinstance(c.cell_contents, np.ndarray)}


def test_a_tape_frees_each_value_no_adjoint_reads():
    # records hold nodes, so a value lives on only in the arrays adjoints read
    g = np.random.default_rng(0)
    x = Tensor(g.standard_normal((2, 3, 4)), requires_grad=True)
    prompt = Tensor(g.standard_normal((2, 1, 4)), requires_grad=True)
    shift = Tensor(g.standard_normal(4), requires_grad=True)
    w, b = Tensor(g.standard_normal((4, 4))), Tensor(np.zeros(4))  # frozen
    w1, b1 = Tensor(g.standard_normal((4, 8))), Tensor(np.zeros(8))
    w2, b2 = Tensor(g.standard_normal((8, 4))), Tensor(np.zeros(4))
    with Tape() as tape:
        context = T.concat([x, prompt], axis=-2)
        shifted = context + shift
        h = T.linear(shifted, w, b)
        dead = [weakref.ref(t.data) for t in (context, shifted)]
        del context, shifted
        assert [r() for r in dead] == [None, None]  # concat and add outputs, frozen linear input
        y = T.mlp(T.attention(h, h, h, heads=2), w1, b1, w2, b2)
        del h
        kept = [weakref.ref(_saved(tape, "attention")["p"]), weakref.ref(_saved(tape, "mlp")["pre"])]
        loss = (y * y).sum()
        del y
        assert all(r() is not None for r in kept)  # the softmax and the pre-activation
        tape.backward(loss)
    assert [r() for r in kept] == [None, None]
    assert x.grad is not None and prompt.grad is not None and shift.grad is not None


def test_a_default_tune_forward_frees_each_layer_context_and_residual(monkeypatch):
    # every layer norm input is a layer's context or residual, or the last
    # layer's output; the tape keeps none of them
    from types import SimpleNamespace

    from v2apt import backbone
    from v2apt.config import default_config
    from v2apt.model import PromptedClassifier
    from v2apt.rng import SeededStreams
    from v2apt.trainer import total_loss

    cfg = default_config()
    m = PromptedClassifier.from_pretrained(PromptedClassifier.init(cfg, SeededStreams(0)),
                                           cfg, SeededStreams(1))
    inputs = []

    def layer_norm(a, gamma, beta):
        inputs.append(weakref.ref(a.data))
        return T.layer_norm(a, gamma, beta)

    monkeypatch.setattr(backbone, "T", SimpleNamespace(**{**vars(T), "layer_norm": layer_norm}))
    images = np.random.default_rng(0).random((64, 16, 16, 1)).astype(np.float32)
    with Tape() as tape:
        out = m.forward(images, rng=SeededStreams(0).generator("eps"))
        loss = total_loss(out.logits, np.zeros(64, dtype=np.int64), out.kl, 1e-3)[0]
        assert len(inputs) == 2 * cfg.depth + 1
        assert [r() for r in inputs] == [None] * len(inputs)
        tape.backward(loss)
    assert all(p.grad is not None for p in m.trainables().values())


def test_no_recording_outside_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    _ = (x * 2.0).sum()
    with Tape() as tape:
        assert len(tape) == 0


def test_forward_is_bit_deterministic():
    def run():
        g = np.random.default_rng(123)
        x = Tensor(g.standard_normal((4, 8)))
        w = Tensor(g.standard_normal((8, 8)))
        y = T.softmax(plain_norm(T.gelu(x @ w)), axis=-1)
        return T.cross_entropy_with_logits(y, np.array([0, 1, 2, 3])).data.tobytes()

    assert run() == run()


def test_gaussian_is_reproducible_and_untracked():
    a = T.gaussian((3, 2), np.random.Generator(np.random.Philox(42)))
    b = T.gaussian((3, 2), np.random.Generator(np.random.Philox(42)))
    np.testing.assert_array_equal(a.data, b.data)
    assert not a.requires_grad


# ---------------------------------------------------------------------------
# fused primitives and frozen-aware adjoints


def _frozen_grads_stay_none(frozen):
    for t in frozen:
        assert t.grad is None


def test_linear_matches_matmul_plus_bias():
    x = rng().standard_normal((2, 3, 4)).astype(np.float32)
    w = rng().standard_normal((4, 5)).astype(np.float32)
    b = rng().standard_normal(5).astype(np.float32)
    got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, x @ w + b, atol=1e-5)
    assert got.shape == (2, 3, 5)


@pytest.mark.parametrize("shape", [(6, 4), (2, 3, 4)])
def test_linear_grads_all_trainable_and_frozen_weights(shape):
    with float64_mode():
        g = rng()
        arrays = {"x": g.standard_normal(shape), "w": g.standard_normal((4, 5)), "b": g.standard_normal(5)}
        probe = Tensor(g.standard_normal(shape[:-1] + (5,)))
        for trainable in (("x", "w", "b"), ("x",), ("w",)):  # all, frozen weights, frozen x and b
            ts = {n: Tensor(a, requires_grad=n in trainable) for n, a in arrays.items()}
            check(lambda: (T.linear(ts["x"], ts["w"], ts["b"]) * probe).sum(),
                  {n: t for n, t in ts.items() if n in trainable})
            _frozen_grads_stay_none([t for n, t in ts.items() if n not in trainable])


def test_linear_shape_errors():
    with pytest.raises(errors.ShapeError, match="weight"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    with pytest.raises(errors.ShapeError, match="bias"):
        T.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


def test_affine_layer_norm_grads_all_trainable_and_frozen_weights():
    with float64_mode():
        g = rng()
        arrays = {"x": g.standard_normal((2, 3, 6)) * 2 + 1, "gamma": g.standard_normal(6),
                  "beta": g.standard_normal(6)}
        probe = Tensor(g.standard_normal((2, 3, 6)))
        for trainable in (("x", "gamma", "beta"), ("x",), ("gamma", "beta")):
            ts = {n: Tensor(a, requires_grad=n in trainable) for n, a in arrays.items()}
            check(lambda: (T.layer_norm(ts["x"], ts["gamma"], ts["beta"]) * probe).sum(),
                  {n: t for n, t in ts.items() if n in trainable})
            _frozen_grads_stay_none([t for n, t in ts.items() if n not in trainable])


def test_affine_layer_norm_equals_norm_times_gamma_plus_beta():
    with float64_mode():
        g = rng()
        x, gamma, beta = g.standard_normal((3, 8)), g.standard_normal(8), g.standard_normal(8)
        fused = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        plain = (plain_norm(Tensor(x)) * Tensor(gamma) + Tensor(beta)).data
        np.testing.assert_array_equal(fused, plain)
        # row means come from a matrix-vector product, so only rounding differs
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        want = (x - mu) / np.sqrt(var + T.LAYER_NORM_EPS) * gamma + beta
        np.testing.assert_allclose(fused, want, rtol=0, atol=1e-12)
    with pytest.raises(TypeError, match="beta"):
        T.layer_norm(Tensor(x), Tensor(gamma))
    with pytest.raises(errors.ShapeError):
        T.layer_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)))


def _attention_reference(q, k, v, heads):
    b, sq, d = q.shape
    hd = d // heads
    split = lambda t: t.reshape(b, t.shape[1], heads, hd).transpose(0, 2, 1, 3)  # noqa: E731
    scores = split(q) @ split(k).transpose(0, 1, 3, 2) / np.sqrt(hd)
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return (p @ split(v)).transpose(0, 2, 1, 3).reshape(b, sq, d)


def test_attention_matches_reference():
    g = rng()
    q, k, v = (g.standard_normal((2, 5, 6)) for _ in range(3))
    with float64_mode():
        got = T.attention(Tensor(q), Tensor(k), Tensor(v), heads=3).data
    np.testing.assert_allclose(got, _attention_reference(q, k, v, 3), atol=1e-12)


def _check_attention_grads(queries):
    with float64_mode():
        g = rng()
        arrays = {"q": g.standard_normal((2, queries, 6))}
        arrays.update((n, g.standard_normal((2, 4, 6))) for n in ("k", "v"))
        probe = Tensor(g.standard_normal((2, queries, 6)))
        for trainable in (("q", "k", "v"), ("q",), ("k",), ("v",)):  # all, then each alone
            ts = {n: Tensor(a, requires_grad=n in trainable) for n, a in arrays.items()}
            check(lambda: (T.attention(ts["q"], ts["k"], ts["v"], heads=2) * probe).sum(),
                  {n: t for n, t in ts.items() if n in trainable})
            _frozen_grads_stay_none([t for n, t in ts.items() if n not in trainable])


def test_attention_grads_all_trainable_and_frozen_inputs():
    _check_attention_grads(queries=4)


def test_attention_fewer_queries_grads_all_trainable_and_frozen_inputs():
    _check_attention_grads(queries=1)


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_attention_fewer_queries_equals_rows_of_full_attention(rows):
    g = rng()
    q, k, v = (g.standard_normal((2, 5, 6)) for _ in range(3))
    with float64_mode():
        full = T.attention(Tensor(q), Tensor(k), Tensor(v), heads=3).data
        part = T.attention(Tensor(q[:, :rows]), Tensor(k), Tensor(v), heads=3).data
    assert part.shape == (2, rows, 6)
    np.testing.assert_allclose(part, full[:, :rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(part, _attention_reference(q[:, :rows], k, v, 3), atol=1e-12)


def test_attention_shape_errors():
    x = Tensor(np.zeros((2, 4, 6)))
    with pytest.raises(errors.ShapeError, match="heads"):
        T.attention(x, x, x, heads=4)
    with pytest.raises(errors.ShapeError):
        T.attention(x, Tensor(np.zeros((2, 3, 6))), x, heads=2)
    with pytest.raises(errors.ShapeError, match="Sq <= S"):
        T.attention(Tensor(np.zeros((2, 5, 6))), x, x, heads=2)  # more queries than keys
    with pytest.raises(errors.ShapeError):
        T.attention(Tensor(np.zeros((3, 1, 6))), x, x, heads=2)  # batch mismatch
    with pytest.raises(errors.ShapeError):
        T.attention(Tensor(np.zeros((2, 1, 4))), x, x, heads=2)  # width mismatch


def test_adjoints_never_hand_a_frozen_input_a_gradient(monkeypatch):
    seen = []
    real = T.accumulate_grad

    def spy(t, g):
        seen.append(t)
        real(t, g)

    monkeypatch.setattr(T, "accumulate_grad", spy)
    g = rng()
    x = Tensor(g.standard_normal((2, 3, 4)), requires_grad=True)
    frozen = [Tensor(g.standard_normal(shape)) for shape in ((4, 4), (4,), (4,), (4,), (4, 4))]
    w, b, gamma, beta, w2 = frozen
    with Tape() as tape:
        h = T.layer_norm(x, gamma, beta)
        a = T.attention(T.linear(h, w, b), h, h, heads=2)
        const = T.expand_leading(T.expand_leading(gamma, 3), 2)  # frozen (2, 3, 4)
        y = T.concat([(a @ w2) * b + b, const], axis=1)
        tape.backward(y.sum())
    assert seen and all(t.requires_grad for t in seen)
    assert x.grad is not None
    _frozen_grads_stay_none(frozen)


def test_first_gradient_write_is_an_owned_copy():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = a + b
        loss = (y * 2.0).sum()
        tape.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, y.grad)
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0, dtype=np.float32))


# ---------------------------------------------------------------------------
# fused MLP: linear -> gelu -> linear in row blocks


def _mlp_inputs(rows, k=4, h=6, n=5, seed=7):
    g = np.random.default_rng(seed)
    shapes = ((rows, k), (k, h), (h,), (h, n), (n,))
    return [Tensor(g.standard_normal(s), requires_grad=True) for s in shapes]


def test_mlp_grads_all_trainable_and_each_input_frozen():
    with float64_mode():
        arrays = [t.data for t in _mlp_inputs(6)]
        arrays[0] = arrays[0].reshape(2, 3, 4)
        names = ("x", "w1", "b1", "w2", "b2")
        probe = Tensor(rng().standard_normal((2, 3, 5)))
        # none frozen, each input alone, then every weight
        for frozen in ((), *((n,) for n in names), names[1:]):
            inputs = [Tensor(a, requires_grad=n not in frozen) for n, a in zip(names, arrays)]
            check(lambda: (T.mlp(*inputs) * probe).sum(),
                  {n: t for n, t in zip(names, inputs) if t.requires_grad})
            _frozen_grads_stay_none([t for n, t in zip(names, inputs) if n in frozen])


def _mlp_output_and_grads(fused, inputs, probe):
    x, w1, b1, w2, b2 = inputs
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        if fused:
            y = T.mlp(x, w1, b1, w2, b2)
        else:
            y = T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2)
        tape.backward((y * probe).sum())
    return [y.data] + [t.grad for t in inputs]


@pytest.mark.parametrize("rows", [1, T.MLP_ROWS - 1, T.MLP_ROWS, 2 * T.MLP_ROWS + 7])
@pytest.mark.parametrize("float64", [False, True])
def test_mlp_equals_linear_gelu_linear_bit_for_bit(rows, float64):
    # the encoder's shape; the blocks cover every row count around MLP_ROWS
    with float64_mode() if float64 else contextlib.nullcontext():
        inputs = _mlp_inputs(rows, k=48, h=192, n=48)
        probe = Tensor(rng().standard_normal((rows, 48)))
        fused = _mlp_output_and_grads(True, inputs, probe)
        unfused = _mlp_output_and_grads(False, inputs, probe)
        inference = T.mlp(*inputs).data  # no tape: nothing is kept
    assert fused[0].dtype == (np.float64 if float64 else np.float32)
    for name, a, b in zip(("y", "x", "w1", "b1", "w2", "b2"), fused, unfused):
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    np.testing.assert_array_equal(inference, fused[0])


def test_mlp_shape_errors():
    x, w1, b1, w2, b2 = _mlp_inputs(3)
    with pytest.raises(errors.ShapeError, match="weights"):
        T.mlp(x, w2, b1, w2, b2)
    with pytest.raises(errors.ShapeError, match="weights"):
        T.mlp(x, w1, b1, w1, b2)
    with pytest.raises(errors.ShapeError, match="biases"):
        T.mlp(x, w1, b2, w2, b2)
    with pytest.raises(errors.ShapeError, match="biases"):
        T.mlp(x, w1, b1, w2, b1)


# ---------------------------------------------------------------------------
# float32 GELU: interpolated Gaussian tail, computed in blocks


def test_tail_table_equals_the_scipy_ndtr_table():
    # the table is built with math.erfc; scipy's ndtr is the oracle
    from scipy.special import ndtr

    a = np.arange(round(T._TAIL_END / T._TAIL_STEP) + 2) * T._TAIL_STEP
    tail = ndtr(-a)
    tail[-2:] = 0.0
    assert np.array_equal(T._TAIL, tail[:-1].astype(np.float32))
    assert np.array_equal(T._TAIL_SLOPE, np.diff(tail).astype(np.float32))
    assert T._TAIL.dtype == T._TAIL_SLOPE.dtype == np.float32


def _gelu_reference(x):
    from scipy.special import erf

    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def test_float32_gelu_error_bound_against_float64_scipy():
    x = np.linspace(-6.0, 6.0, 480_001).astype(np.float32)  # not a multiple of the block
    got = T.gelu(Tensor(x)).data
    assert got.dtype == np.float32
    assert np.abs(got - _gelu_reference(x)).max() <= 5e-7
    assert T.gelu(Tensor(np.zeros(3, dtype=np.float32))).data.tolist() == [0.0, 0.0, 0.0]


def test_float32_gelu_clamp_region():
    # from |x| = 6 on the Gaussian tail is taken as 0: GELU is exactly relu
    x = np.array([6.0, 6.5, 10.0, 1e4, np.inf], dtype=np.float32)
    np.testing.assert_array_equal(T.gelu(Tensor(x)).data, x)
    np.testing.assert_array_equal(T.gelu(Tensor(-x)).data, np.zeros(5, dtype=np.float32))
    edge = np.float32(np.nextafter(np.float32(6.0), np.float32(0.0)))  # last point inside
    got = T.gelu(Tensor(np.array([edge, -edge]))).data
    np.testing.assert_allclose(got, _gelu_reference([edge, -edge]), rtol=0, atol=5e-7)


@pytest.mark.parametrize("n", [1, 5, 16383, 16384, 32775])
def test_float32_gelu_blocking_is_invisible(n):
    x = (np.random.default_rng(n).standard_normal(n) * 3).astype(np.float32)
    whole = T.gelu(Tensor(x)).data
    pieces = np.concatenate([T.gelu(Tensor(x[i:i + 3])).data for i in range(0, n, 3)])
    np.testing.assert_array_equal(whole, pieces)
    np.testing.assert_allclose(whole, _gelu_reference(x), rtol=0, atol=5e-7)


def test_float32_gelu_grad_across_blocks():
    from scipy.special import ndtr

    n = 32775
    x = Tensor((np.random.default_rng(1).standard_normal(n) * 3).astype(np.float32),
               requires_grad=True)
    w = np.random.default_rng(2).standard_normal(n).astype(np.float32)
    with Tape() as tape:
        loss = (T.gelu(x) * Tensor(w)).sum()
        tape.backward(loss)
    x64 = x.data.astype(np.float64)
    want = w * (ndtr(x64) + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi))
    np.testing.assert_allclose(x.grad, want, rtol=0, atol=2e-6)
