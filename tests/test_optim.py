"""SGD and Adam update rules."""

import numpy as np
import pytest

from maskpolicy.autodiff import Tensor
from maskpolicy.errors import InvalidOptionError, ShapeMismatchError
from maskpolicy.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    make_optimizer,
    optimizer_step,
)


def param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestSgd:
    def test_basic_step(self):
        theta = param([1.0])
        theta.grad = np.array([2.0])
        optimizer_step(make_optimizer("sgd", 0.1), [("theta", theta)])
        assert theta.data == pytest.approx([0.8])

    def test_zero_gradient_leaves_parameter(self):
        theta = param([1.0, -2.0])
        theta.grad = np.zeros(2)
        optimizer_step(make_optimizer("sgd", 0.5), [("theta", theta)])
        assert theta.data == pytest.approx([1.0, -2.0])

    def test_missing_gradient_counts_as_zero(self):
        theta = param([3.0])
        optimizer_step(make_optimizer("sgd", 0.5), [("theta", theta)])
        assert theta.data == pytest.approx([3.0])


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes the first update m_hat/sqrt(v_hat) = sign(g)
        lr = 0.01
        theta = param([1.0, 2.0, -3.0])
        theta.grad = np.ones(3)
        opt = make_optimizer("adam", lr)
        before = theta.data.copy()
        optimizer_step(opt, [("theta", theta)])
        update = before - theta.data
        assert update == pytest.approx(np.full(3, lr), rel=1e-6)

    def test_first_step_closed_form(self):
        lr, g = 0.1, 2.5
        theta = param([0.0])
        theta.grad = np.array([g])
        opt = make_optimizer("adam", lr)
        optimizer_step(opt, [("theta", theta)])
        m_hat = (1 - ADAM_BETA1) * g / (1 - ADAM_BETA1)
        v_hat = (1 - ADAM_BETA2) * g * g / (1 - ADAM_BETA2)
        want = -lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert theta.data == pytest.approx([want])

    def test_zero_gradient_moves_only_step_and_moments(self):
        theta = param([1.0])
        opt = make_optimizer("adam", 0.1)
        optimizer_step(opt, [("theta", theta)])
        assert theta.data == pytest.approx([1.0])
        assert opt.step == 1
        assert "theta" in opt.m
        assert not opt.m["theta"].any()

    def test_two_steps_track_reference_loop(self):
        # independent straightforward reimplementation of the recurrences
        rng = np.random.default_rng(3)
        values = rng.uniform(-1, 1, size=4)
        grads = [rng.uniform(-1, 1, size=4) for _ in range(2)]

        theta = param(values.copy())
        opt = make_optimizer("adam", 0.05)
        for g in grads:
            theta.grad = g.copy()
            optimizer_step(opt, [("w", theta)])

        ref = values.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            ref -= 0.05 * (m / (1 - ADAM_BETA1 ** t)) / (
                np.sqrt(v / (1 - ADAM_BETA2 ** t)) + ADAM_EPS)
        assert theta.data == pytest.approx(ref, abs=1e-15)

    def test_matches_out_of_place_formula_bit_for_bit(self):
        # the textbook update, one new array per operation, in the same
        # operation order as the in-place step
        rng = np.random.default_rng(4)
        shapes = {"W": (3, 5), "b": ()}  # a 0-d bias, like the span heads
        start = {k: rng.uniform(-1, 1, size=s) for k, s in shapes.items()}
        grads = [{k: rng.uniform(-2, 2, size=s) for k, s in shapes.items()} for _ in range(3)]
        lr = 0.003

        params = {k: param(v.copy()) for k, v in start.items()}
        opt = make_optimizer("adam", lr)
        for step_grads in grads:
            for k, p in params.items():
                p.grad = step_grads[k].copy()
            optimizer_step(opt, list(params.items()))

        for k in shapes:
            p, m, v = start[k].copy(), np.zeros(shapes[k]), np.zeros(shapes[k])
            for step, step_grads in enumerate(grads, start=1):
                g = step_grads[k]
                m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
                v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
                m_hat = m / (1.0 - ADAM_BETA1 ** step)
                v_hat = v / (1.0 - ADAM_BETA2 ** step)
                p = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            np.testing.assert_array_equal(params[k].data, p)
            np.testing.assert_array_equal(opt.m[k], m)
            np.testing.assert_array_equal(opt.v[k], v)

    def test_each_parameter_steps_on_its_own_grad(self):
        a, b = param([1.0]), param([1.0])
        a.grad, b.grad = np.array([100.0]), np.array([-0.5])
        opt = make_optimizer("adam", 0.1)
        optimizer_step(opt, [("a", a), ("b", b)])
        # Adam's first step moves each parameter by lr against its own sign.
        assert a.data == pytest.approx([0.9])
        assert b.data == pytest.approx([1.1])
        assert opt.m["a"] == pytest.approx([10.0])
        assert opt.m["b"] == pytest.approx([-0.05])


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_optimizer("momentum", 0.1)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            make_optimizer("sgd", 0.0)

    def test_errors_are_package_errors(self):
        with pytest.raises(InvalidOptionError):
            make_optimizer("momentum", 0.1)
        with pytest.raises(InvalidOptionError):
            make_optimizer("adam", -1.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(InvalidOptionError, match="learning_rate must be finite"):
            make_optimizer("sgd", lr)

    def test_gradient_shape_mismatch(self):
        theta = param([1.0, 2.0])
        theta.grad = np.zeros(3)
        with pytest.raises(ShapeMismatchError):
            optimizer_step(make_optimizer("sgd", 0.1), [("theta", theta)])
