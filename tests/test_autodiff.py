"""Tensor core: op values, backward rules, and the gradient checker,
plus the span loss, the one loss op on the tape, and the join of a
BiLSTM layer's two directions."""

import math
import pickle
import warnings

import numpy as np
import pytest

from maskpolicy.autodiff import (
    Tensor,
    add,
    backward,
    clip_grad_norm,
    embed_rows,
    grad_check,
    matmul,
    mul,
    no_grad,
    scale,
    sum_all,
)
from maskpolicy.corpus import Span
from maskpolicy.errors import (
    NonFiniteError,
    NonScalarLossError,
    ShapeMismatchError,
    SpanOutOfBoundsError,
)
from maskpolicy.lstm import LstmCellParams, bilstm_sequence
from maskpolicy.training import span_loss


def param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


class TestOpValues:
    def test_matmul_2x2(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([5.0, 6.0]))
        assert out.data.tolist() == [17.0, 39.0]

    def test_span_loss_symmetric(self):
        out = span_loss(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]), Span(0, 1))
        assert out.data == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_span_loss_large_logits_stay_finite(self):
        big = Tensor([1000.0, 0.0])
        assert span_loss(big, big, Span(0, 0)).data == pytest.approx(0.0, abs=1e-12)
        assert span_loss(big, big, Span(1, 1)).data == pytest.approx(2000.0, abs=1e-9)

    def test_embed_rows_gathers(self):
        table = param([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        out = embed_rows(table, [2, 0, 2])
        assert out.data.tolist() == [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]]

    def test_scalar_broadcast_add(self):
        out = add(Tensor([1.0, 2.0]), Tensor(10.0))
        assert out.data.tolist() == [11.0, 12.0]


class TestShapeAndFiniteness:
    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            matmul(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("a, b", [
        ([[1.0, 2.0]], [[1.0], [2.0]]),
        ([1.0, 2.0], [[1.0], [2.0]]),
        ([1.0, 2.0], [1.0, 2.0]),
    ], ids=["2d_2d", "1d_2d", "1d_1d"])
    def test_matmul_takes_only_matrix_times_vector(self, a, b):
        with pytest.raises(ShapeMismatchError):
            matmul(Tensor(a), Tensor(b))

    @pytest.mark.parametrize("start, end", [
        ([[0.0, 1.0]], [[0.0, 1.0]]),
        ([], []),
        ([0.0, 1.0], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [0.0, 1.0]),
    ], ids=["2d", "empty", "end_longer", "start_longer"])
    def test_span_loss_shape_mismatch(self, start, end):
        with pytest.raises(ShapeMismatchError):
            span_loss(Tensor(start), Tensor(end), Span(0, 0))

    def test_span_loss_gold_past_either_head(self):
        logits = Tensor([1.0, 2.0])
        for gold in (Span(0, 2), Span(2, 2)):
            with pytest.raises(SpanOutOfBoundsError):
                span_loss(logits, logits, gold)

    def test_nan_rejected_at_creation(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])

    def test_inf_rejected_at_creation(self):
        with pytest.raises(NonFiniteError):
            Tensor([float("inf")])

    def test_finite_values_with_overflowing_sum_accepted(self):
        # Every value is finite, though their sum overflows.
        t = Tensor([1e308, 1e308, -1e308])
        assert np.all(np.isfinite(t.data))

    def test_overflowing_sums_raise_no_warning(self):
        # The values' sums overflow; the finiteness checks must stay
        # silent in Tensor creation and in backward's gradient check alike.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tensor([1e308, -1e308, 1e308, 1e308])
            x = param([1e-300, 1e-300, 1e-300])
            backward(sum_all(scale(x, 1e308)))
        assert np.all(np.isfinite(t.data))
        assert np.all(x.grad == 1e308)

    def test_non_finite_rejected_without_warning(self):
        nan, inf = float("nan"), float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in ([1e308, 1e308, nan], [inf, -inf], [1e308, 1e308, inf], [nan]):
                with pytest.raises(NonFiniteError):
                    Tensor(values)

    def test_embed_rows_bad_index(self):
        table = param([[1.0], [2.0]])
        with pytest.raises(ShapeMismatchError):
            embed_rows(table, [0, 5])


class TestBackward:
    def test_linear_case_gradient_is_input(self):
        w = param([[1.0, -2.0, 0.5]])
        x = Tensor([3.0, 4.0, 5.0])
        backward(matmul(w, x))
        assert w.grad.tolist() == [x.data.tolist()]

    def test_span_loss_is_one_node(self):
        s, e = param([0.5, -1.0, 2.0]), param([1.0, 0.0, -0.5])
        loss = span_loss(s, e, Span(1, 2))
        assert loss._parents == (s, e)

    def test_unused_parameter_gets_no_gradient(self):
        used = param([2.0])
        unused = param([7.0])
        backward(sum_all(mul(used, used)))
        assert used.grad is not None
        assert unused.grad is None

    def test_non_scalar_loss_rejected(self):
        w = param([1.0, 2.0])
        with pytest.raises(NonScalarLossError):
            backward(add(w, w))

    def test_backward_linearity(self):
        # d(l1 + l2)/dw == dl1/dw + dl2/dw computed separately
        values = [0.3, -1.2, 2.0]

        def losses(w):
            l1 = sum_all(mul(w, w))
            l2 = span_loss(w, mul(w, w), Span(1, 2))
            return l1, l2

        w = param(values)
        l1, l2 = losses(w)
        backward(add(l1, l2))
        combined = w.grad.copy()

        w1 = param(values)
        backward(losses(w1)[0])
        w2 = param(values)
        backward(losses(w2)[1])
        assert combined == pytest.approx(w1.grad + w2.grad, abs=1e-12)

    def test_grad_accumulates_over_reuse(self):
        w = param([1.5])
        backward(sum_all(add(w, w)))
        assert w.grad == pytest.approx([2.0])

    def test_no_grad_blocks_tape(self):
        w = param([1.0, 2.0])
        with no_grad():
            out = mul(w, w)
        assert out.requires_grad is False
        assert out._parents == ()

    def test_values_bounded_inputs_stay_finite(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = param(rng.uniform(-10, 10, size=6))
            y = param(rng.uniform(-10, 10, size=6))
            loss = sum_all(mul(x, y))
            loss = add(loss, span_loss(add(x, y), mul(x, y), Span(2, 4)))
            backward(loss)
            assert np.all(np.isfinite(x.grad))
            assert np.all(np.isfinite(y.grad))


class TestGradCheck:
    def test_square_function(self):
        theta = param([3.0])
        err = grad_check(lambda: sum_all(mul(theta, theta)), [theta])
        assert err < 1e-8
        assert theta.grad == pytest.approx([6.0], abs=1e-6)

    def test_constant_function(self):
        theta = param([3.0])
        constant = Tensor([5.0])
        err = grad_check(lambda: sum_all(mul(constant, constant)), [theta])
        assert err == 0.0

    def test_restores_parameter_values(self):
        theta = param([1.0, 2.0])
        before = theta.data.copy()
        grad_check(lambda: sum_all(mul(theta, theta)), [theta])
        assert theta.data == pytest.approx(before, abs=0)

    def test_non_contiguous_parameter(self):
        # Fortran order: reshape(-1) of this array is a copy, not a view.
        theta = param(np.asfortranarray(np.arange(1.0, 7.0).reshape(2, 3)))
        assert not theta.data.flags.c_contiguous
        assert grad_check(lambda: sum_all(mul(theta, theta)), [theta]) < 1e-8


OPS = ["add", "mul", "scale", "matmul_21", "bilstm_join", "embed_rows", "span_loss",
       "span_loss_shared_head", "broadcast"]


def square_sum(t):
    """A scalar with a gradient that depends on t's value."""
    return sum_all(mul(t, t))


def build_op_loss(name, rng):
    """A scalar loss exercising one op, plus its parameter leaves."""
    v = lambda *shape: rng.uniform(-2.0, 2.0, size=shape)
    if name == "add":
        a, b = param(v(4)), param(v(4))
        return lambda: sum_all(mul(add(a, b), add(a, b))), [a, b]
    if name == "mul":
        a, b = param(v(4)), param(v(4))
        return lambda: sum_all(mul(a, b)), [a, b]
    if name == "scale":
        a = param(v(4))
        return lambda: sum_all(scale(a, -1.7)), [a]
    if name == "matmul_21":
        a, b = param(v(2, 3)), param(v(3))
        return lambda: square_sum(matmul(a, b)), [a, b]
    if name == "bilstm_join":
        # Both directions' states joined per position, over 3 rows that a
        # ragged (3, 2) index reads with repeats.
        rows, index = param(v(3, 2)), rng.integers(0, 3, size=(3, 2))
        cells = [LstmCellParams(param(v(4, 3)), param(v(4))) for _ in range(2)]
        return (lambda: square_sum(bilstm_sequence(rows, index, [3, 2], *cells)),
                [rows] + [t for c in cells for t in (c.W, c.b)])
    if name == "embed_rows":
        a = param(v(4, 2))
        return lambda: square_sum(embed_rows(a, [0, 2, 2, 3])), [a]
    if name == "span_loss":
        a, b = param(v(5)), param(v(5))
        start = int(rng.integers(0, 5))
        gold = Span(start, int(rng.integers(start, 5)))
        return lambda: span_loss(a, b, gold), [a, b]
    if name == "span_loss_shared_head":
        # One tensor feeds both heads, so its gradient sums both picks.
        a = param(v(5))
        start = int(rng.integers(0, 5))
        gold = Span(start, int(rng.integers(start, 5)))
        return lambda: span_loss(a, a, gold), [a]
    if name == "broadcast":
        a, b = param(v(4)), param(v(1))
        return lambda: sum_all(mul(add(a, b), b)), [a, b]
    raise AssertionError(name)


@pytest.mark.parametrize("op_name", OPS)
def test_op_gradients_match_finite_differences(op_name):
    # 100 random draws per op keeps each op's backward rule honest.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        loss_fn, params = build_op_loss(op_name, rng)
        assert grad_check(loss_fn, params) < 1e-4


class TestClipGradNorm:
    def test_long_gradient_scaled_to_max(self):
        g = np.array([3.0, 4.0])
        norm = clip_grad_norm([g], 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(g) == pytest.approx(1.0)

    def test_short_gradient_untouched(self):
        g = np.array([0.3, 0.4])
        norm = clip_grad_norm([g], 1.0)
        assert norm == pytest.approx(0.5)
        assert g == pytest.approx([0.3, 0.4])

    def test_global_norm_over_several_arrays(self):
        gs = [np.array([3.0]), np.array([4.0])]
        clip_grad_norm(gs, 1.0)
        total = sum(float(np.sum(g * g)) for g in gs)
        assert total ** 0.5 == pytest.approx(1.0)


def test_pickle_keeps_data_drops_tape():
    a = param([1.0, 2.0])
    out = mul(a, a)
    restored = pickle.loads(pickle.dumps(out))
    assert restored.data == pytest.approx(out.data)
    assert restored._parents == ()
    assert restored._backward is None
