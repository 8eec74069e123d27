"""Tests for the finite-difference gradient checker.

Each oracle here is computed independently of the tape: closed-form
gradients for a quadratic form and for the diagonal-Gaussian divergence,
plus a deliberately corrupted adjoint that the checker must catch and
attribute to the offending op.
"""

import numpy as np
import pytest

from v2apt import errors
from v2apt import tensor as T
from v2apt.gradcheck import finite_diff_check
from v2apt.tensor import Tape, Tensor, float64_mode, record_operation


def test_quadratic_form_matches_closed_form():
    # f(x) = x^T A x has gradient (A + A^T) x
    g = np.random.default_rng(11)
    A = g.standard_normal((6, 6))
    x0 = g.standard_normal(6)
    with float64_mode():
        x = Tensor(x0, requires_grad=True)
        a = Tensor(A)

        def build():
            col = x.reshape(6, 1)
            return (col.transpose(1, 0) @ a @ col).sum()

        with Tape() as tape:
            tape.backward(build())
        np.testing.assert_allclose(x.grad, (A + A.T) @ x0, rtol=1e-10)

        x.grad = None
        report = finite_diff_check(build, {"x": x}, eps=1e-5, tol=1e-6)
        assert report.passed, report.summary()


def test_gaussian_divergence_gradient_closed_form():
    # 0.5 * sum(mu^2 + exp(lv) - 1 - lv): d/dmu = mu, d/dlv = 0.5 (exp(lv) - 1)
    g = np.random.default_rng(3)
    mu0 = g.standard_normal(5)
    lv0 = g.uniform(-1, 1, 5)
    with float64_mode():
        mu = Tensor(mu0, requires_grad=True)
        lv = Tensor(lv0, requires_grad=True)

        def build():
            term = mu * mu + T.texp(lv) - Tensor(np.ones(5)) - lv
            return term.sum() * 0.5

        with Tape() as tape:
            tape.backward(build())
        np.testing.assert_allclose(mu.grad, mu0, rtol=1e-12)
        np.testing.assert_allclose(lv.grad, 0.5 * (np.exp(lv0) - 1.0), rtol=1e-12)

        mu.grad = None
        lv.grad = None
        report = finite_diff_check(build, {"mu": mu, "lv": lv}, eps=1e-5, tol=1e-6)
        assert report.passed, report.summary()


def test_corrupted_adjoint_is_caught_and_attributed():
    # custom op with a wrong gradient: forward 2x, adjoint claims 3x
    def double_buggy(a: Tensor) -> Tensor:
        out = Tensor(a.data * 2.0, requires_grad=a.requires_grad)

        def adjoint(g):
            T.accumulate_grad(a, g * 3.0)

        record_operation("double_buggy", (a,), out, adjoint)
        return out

    with float64_mode():
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        report = finite_diff_check(lambda: double_buggy(x).sum(), {"x": x}, eps=1e-5, tol=1e-6)
    assert not report.passed
    (fail,) = report.failures
    assert fail.name == "x"
    assert "double_buggy" in fail.ops
    assert "double_buggy" in report.summary()
    assert "FAIL" in fail.describe()


def test_correct_custom_op_passes():
    def double(a: Tensor) -> Tensor:
        out = Tensor(a.data * 2.0, requires_grad=a.requires_grad)

        def adjoint(g):
            T.accumulate_grad(a, g * 2.0)

        record_operation("double", (a,), out, adjoint)
        return out

    with float64_mode():
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        report = finite_diff_check(lambda: double(x).sum(), {"x": x})
    assert report.passed
    assert report.params["x"].ops == ("double",)


def test_unused_parameter_passes_with_zero_grad():
    with float64_mode():
        x = Tensor(np.ones(3), requires_grad=True)
        dead = Tensor(np.ones(2), requires_grad=True)

        def build():
            _ = dead * 1.0  # touches the tape but not the loss
            return x.sum()

        report = finite_diff_check(build, {"x": x, "dead": dead})
    assert report.passed
    assert report.params["dead"].max_rel_err == 0.0
    assert "unused" not in report.params["dead"].describe() or report.params["dead"].ops == ()


def test_nonfinite_gradient_names_parameter():
    with float64_mode():
        x = Tensor(np.array([1.0]), requires_grad=True)
        big = Tensor(np.array([np.inf]))
        with pytest.raises(errors.NumericError, match="x"):
            finite_diff_check(lambda: (x * big).sum(), {"x": x})


@pytest.mark.parametrize("raising_call", [2, 3], ids=["plus-eps", "minus-eps"])
def test_a_raise_from_build_loss_leaves_every_parameter_as_it_was(raising_call):
    # call 1 is the taped pass; calls 2 and 3 see x[0] perturbed by +eps and -eps
    with float64_mode():
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = x.data.tobytes()
        calls = []

        def build():
            calls.append(x.data.copy())
            if len(calls) == raising_call:
                raise errors.NumericError("loss went non-finite")
            return (x * x).sum()

        with pytest.raises(errors.NumericError, match="^loss went non-finite$"):
            finite_diff_check(build, {"x": x})
    assert calls[-1][0] != 1.0  # the raise came while x[0] was perturbed
    assert x.data.tobytes() == before


def test_nonscalar_loss_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(errors.ValidationError):
        finite_diff_check(lambda: x * 2.0, {"x": x})


def test_untracked_parameter_rejected():
    x = Tensor(np.ones(3))
    with pytest.raises(errors.ValidationError, match="x"):
        finite_diff_check(lambda: x.sum(), {"x": x})


def test_multilayer_composite_passes():
    # small end-to-end net touching most primitives at once
    g = np.random.default_rng(5)
    with float64_mode():
        x = Tensor(g.standard_normal((3, 8)))
        w1 = Tensor(g.standard_normal((8, 8)) * 0.3, requires_grad=True)
        b1 = Tensor(np.zeros(8), requires_grad=True)
        w2 = Tensor(g.standard_normal((8, 4)) * 0.3, requires_grad=True)
        labels = np.array([0, 3, 1])

        def build():
            h = T.gelu(x @ w1 + b1)
            h = T.layer_norm(h, np.ones(8), np.zeros(8))
            return T.cross_entropy_with_logits(h @ w2, labels)

        report = finite_diff_check(build, {"w1": w1, "b1": b1, "w2": w2}, eps=1e-5, tol=1e-6)
    assert report.passed, report.summary()
    assert "matmul" in report.params["w1"].ops


def test_each_parameter_lists_the_ops_that_consume_it_once_in_tape_order():
    # tape records hold nodes; a parameter is matched by its node
    g = np.random.default_rng(3)
    with float64_mode():
        x = Tensor(g.standard_normal((2, 3)))
        w = Tensor(g.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(g.standard_normal(3), requires_grad=True)
        s = Tensor(g.standard_normal(3), requires_grad=True)

        def build():
            y = T.linear(x, w, b)
            return ((y * s) * s + s).sum()

        report = finite_diff_check(build, {"w": w, "b": b, "s": s})
    assert report.passed, report.summary()
    assert {n: p.ops for n, p in report.params.items()} == {
        "w": ("linear",), "b": ("linear",), "s": ("mul", "add")}
