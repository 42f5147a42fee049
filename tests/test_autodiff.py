"""Tensor core: op values, backward rules, and the gradient checker,
plus the span loss, the one loss op on the tape, and the policy's
encoder node (the embedding and both BiLSTM layers)."""

import math
import pickle
import warnings

import numpy as np
import pytest

from maskpolicy.autodiff import (
    Tensor,
    _consumed,
    _wrap,
    add,
    backward,
    clip_grad_norm,
    grad_check,
    scale,
)
from maskpolicy.corpus import Span
from maskpolicy.errors import (
    ConsumedTapeError,
    MaskPolicyError,
    NonFiniteError,
    NonScalarLossError,
    ShapeMismatchError,
    SpanOutOfBoundsError,
)
from maskpolicy.policy import forward_batch, init_policy_params
from maskpolicy.training import span_loss


def param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def dot(a, b):
    """The scalar sum(a * b) of two same-shape tensors as one tape node,
    built on _wrap as the package builds its ops: a product and a sum for
    the tests below, which the package itself never needs."""

    def backward(g):
        return g * b.data, g * a.data

    return _wrap(np.sum(a.data * b.data), (a, b), backward)


class TestOpValues:
    def test_add_and_scale(self):
        out = scale(add(Tensor([1.0, 2.0]), Tensor([10.0, -4.0])), 0.5)
        assert out.data.tolist() == [5.5, -1.0]

    def test_span_loss_symmetric(self):
        out = span_loss(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]), Span(0, 1))
        assert out.data == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_span_loss_large_logits_stay_finite(self):
        big = Tensor([1000.0, 0.0])
        assert span_loss(big, big, Span(0, 0)).data == pytest.approx(0.0, abs=1e-12)
        assert span_loss(big, big, Span(1, 1)).data == pytest.approx(2000.0, abs=1e-9)

    def test_scalar_broadcast_add(self):
        # add takes two tensors of one shape; a single element does not
        # broadcast, on either side.
        for a, b in ((Tensor(10.0), Tensor([1.0, 2.0, 3.0])),
                     (Tensor([1.0, 2.0, 3.0]), Tensor(10.0))):
            with pytest.raises(ShapeMismatchError):
                add(a, b)


class TestShapeAndFiniteness:
    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

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
            backward(dot(scale(x, 1e308), Tensor(np.ones(3))))
        assert np.all(np.isfinite(t.data))
        assert np.all(x.grad == 1e308)

    def test_non_finite_rejected_without_warning(self):
        nan, inf = float("nan"), float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values in ([1e308, 1e308, nan], [inf, -inf], [1e308, 1e308, inf], [nan]):
                with pytest.raises(NonFiniteError):
                    Tensor(values)


class TestBackward:
    def test_linear_case_gradient_is_input(self):
        # d(x w)/dw is x, through a scaling and through a product
        w = param([1.5])
        backward(scale(w, -2.5))
        assert w.grad.tolist() == [-2.5]
        table = param([[1.0, -2.0, 0.5]])
        x = Tensor([[3.0, 4.0, 5.0]])
        backward(dot(table, x))
        assert table.grad.tolist() == x.data.tolist()

    def test_span_loss_is_one_node(self):
        s, e = param([0.5, -1.0, 2.0]), param([1.0, 0.0, -0.5])
        loss = span_loss(s, e, Span(1, 2))
        assert loss._parents == (s, e)

    def test_unused_parameter_gets_no_gradient(self):
        used = param([2.0])
        unused = param([7.0])
        backward(dot(used, used))
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
            l1 = dot(w, w)
            l2 = span_loss(w, scale(w, -1.5), Span(1, 2))
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
        backward(add(w, w))
        assert w.grad == pytest.approx([2.0])

    def test_an_op_whose_parents_need_no_gradient_records_nothing(self):
        w = Tensor(np.array([1.0, 2.0]))
        for out in (add(w, w), scale(w, 3.0)):
            assert out.requires_grad is False
            assert out._parents == () and out._backward is None
        # one parent that needs a gradient is enough to record
        out = add(w, param([1.0, 1.0]))
        assert out.requires_grad is True and len(out._parents) == 2

    def test_values_bounded_inputs_stay_finite(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = param(rng.uniform(-10, 10, size=6))
            y = param(rng.uniform(-10, 10, size=6))
            loss = dot(x, y)
            loss = add(loss, span_loss(add(x, y), add(x, scale(y, -1.0)), Span(2, 4)))
            backward(loss)
            assert np.all(np.isfinite(x.grad))
            assert np.all(np.isfinite(y.grad))


def tape_nodes(loss):
    """Every node of loss's tape that has a rule, loss included."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


class TestConsumedTape:
    def build(self):
        # a parameter read by several ops, one of them twice, and the
        # policy's encoder node and heads over a ragged batch
        w = param([0.3, -1.2, 2.0])
        mid = add(w, scale(w, -1.5))
        params = init_policy_params(4, 2, 1, seed=5)
        start, end, _ = forward_batch(params, [[0, 2, 2], [3, 2]])
        loss = add(add(dot(w, w), span_loss(mid, mid, Span(1, 2))), dot(start, end))
        return loss, [w] + [t for _, t in params.named_parameters()]

    def test_backward_drops_every_rule_parent_and_inner_gradient(self):
        loss, leaves = self.build()
        nodes = tape_nodes(loss)
        assert len(nodes) == 10
        backward(loss)
        for node in nodes:
            assert node._backward is _consumed
            assert node._parents == ()
            assert node.grad is None
        for leaf in leaves:
            assert leaf._backward is None and leaf.grad is not None

    def test_leaf_gradients_are_those_of_a_kept_tape(self):
        # d(w.w + 2 (w - 1.5 w).u)/dw, on values where every sum is exact,
        # in whatever order the tape adds them
        w = param([0.5, -1.25, 2.0])
        u = Tensor([1.0, -2.0, 0.5])
        mid = add(w, scale(w, -1.5))
        backward(add(dot(w, w), add(dot(mid, u), dot(mid, u))))
        assert w.grad.tolist() == [0.0, -0.5, 3.5]

    def test_second_backward_raises_and_leaves_gradients_alone(self):
        loss, leaves = self.build()
        backward(loss)
        before = [leaf.grad.copy() for leaf in leaves]
        with pytest.raises(ConsumedTapeError) as info:
            backward(loss)
        assert isinstance(info.value, MaskPolicyError)
        for leaf, want in zip(leaves, before):
            np.testing.assert_array_equal(leaf.grad, want)

    def test_new_loss_over_a_consumed_node_raises(self):
        w = param([1.0, 2.0])
        mid = scale(w, 3.0)
        backward(dot(mid, mid))
        with pytest.raises(ConsumedTapeError):
            backward(dot(mid, w))

    def test_forward_again_trains_again(self):
        w = param([1.5])
        for _ in range(2):
            w.zero_grad()
            backward(dot(scale(w, 2.0), w))
            assert w.grad.tolist() == [6.0]


class TestGradCheck:
    def test_square_function(self):
        theta = param([3.0])
        err = grad_check(lambda: dot(theta, theta), [theta])
        assert err < 1e-8
        assert theta.grad == pytest.approx([6.0], abs=1e-6)

    def test_constant_function(self):
        theta = param([3.0])
        constant = Tensor([5.0])
        err = grad_check(lambda: dot(constant, constant), [theta])
        assert err == 0.0

    def test_restores_parameter_values(self):
        theta = param([1.0, 2.0])
        before = theta.data.copy()
        grad_check(lambda: dot(theta, theta), [theta])
        assert theta.data == pytest.approx(before, abs=0)

    def test_non_contiguous_parameter(self):
        # Fortran order: reshape(-1) of this array is a copy, not a view.
        theta = param(np.asfortranarray(np.arange(1.0, 7.0).reshape(2, 3)))
        assert not theta.data.flags.c_contiguous
        assert grad_check(lambda: dot(theta, theta), [theta]) < 1e-8


OPS = ["add", "scale", "encoder", "span_loss", "span_loss_shared_head"]


def square_sum(t):
    """A scalar with a gradient that depends on t's value."""
    return dot(t, t)


def build_op_loss(name, rng):
    """A scalar loss exercising one op, plus its parameter leaves."""
    v = lambda *shape: rng.uniform(-2.0, 2.0, size=shape)
    if name == "add":
        a, b = param(v(4)), param(v(4))
        return lambda: square_sum(add(a, b)), [a, b]
    if name == "scale":
        a = param(v(4))
        return lambda: square_sum(scale(a, -1.7)), [a]
    if name == "encoder":
        # The embedding and both layers' directions under one node, read
        # through the heads (at d_h = 1 their two weights span the hidden
        # states), over a ragged batch that repeats ids in and across windows.
        params = init_policy_params(4, 2, 1)
        for _, t in params.named_parameters():
            t.data[...] = v(*t.shape)
        batch = [rng.integers(0, 4, size=3).tolist(), rng.integers(0, 4, size=2).tolist()]

        def loss():
            start, end, _ = forward_batch(params, batch)
            return add(square_sum(start), square_sum(end))

        return loss, [t for _, t in params.named_parameters()]
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
    raise AssertionError(name)


@pytest.mark.parametrize("op_name", OPS)
def test_op_gradients_match_finite_differences(op_name):
    # 100 random draws per op keeps each op's backward rule honest.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        loss_fn, params = build_op_loss(op_name, rng)
        assert grad_check(loss_fn, params) < 1e-4


class TestClipGradNorm:
    def test_clips_the_gradients_of_added_leaves_once(self):
        # add's backward must give each parent its own array, or clipping
        # scales a shared one twice
        a, b = param([3.0]), param([4.0])
        backward(add(a, b))
        assert a.grad is not b.grad
        clip_grad_norm([a.grad, b.grad], 0.5)
        assert np.hypot(a.grad[0], b.grad[0]) == pytest.approx(0.5)

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

    def test_every_array_scaled_once_when_the_clip_fires(self):
        gs = [np.array([3.0, 0.0]), np.array(4.0), np.array([[12.0]])]
        assert clip_grad_norm(gs, 6.5) == 13.0
        for g, want in zip(gs, ([1.5, 0.0], 2.0, [[6.0]])):
            np.testing.assert_array_equal(g, want)

    def test_non_array_gradient_raises(self):
        # A numpy scalar cannot be scaled in place; it used to count in the
        # norm and stay unscaled.
        with pytest.raises(TypeError):
            clip_grad_norm([np.array([3.0]), np.float64(4.0)], 1.0)


def test_pickle_keeps_data_drops_tape():
    a = param([1.0, 2.0])
    out = add(a, a)
    restored = pickle.loads(pickle.dumps(out))
    assert restored.data == pytest.approx(out.data)
    assert restored._parents == ()
    assert restored._backward is None
