"""LSTM sequence op against analytic cases, the scalar-loop oracle, and
finite differences, on whole and ragged batches."""

import numpy as np
import pytest

from scalar_oracle import lstm_direction

from maskpolicy.autodiff import Tensor, backward, concat, grad_check, mul, no_grad, sum_all
from maskpolicy.errors import NonFiniteError, ShapeMismatchError
from maskpolicy.lstm import (
    LstmCellParams,
    bilstm_sequence,
    init_lstm_params,
    lstm_sequence,
)


def zero_params(input_size, hidden):
    return LstmCellParams(
        W=Tensor(np.zeros((4 * hidden, input_size + hidden)), requires_grad=True),
        b=Tensor(np.zeros(4 * hidden), requires_grad=True),
    )


def random_params(rng, input_size, hidden):
    return LstmCellParams(
        W=Tensor(rng.uniform(-0.8, 0.8, size=(4 * hidden, input_size + hidden)),
                 requires_grad=True),
        b=Tensor(rng.uniform(-0.5, 0.5, size=4 * hidden), requires_grad=True),
    )


def seq(steps, requires_grad=False):
    """A (T, 1, D) batch holding one sequence of T input vectors."""
    return Tensor(np.asarray(steps, dtype=np.float64)[:, None, :], requires_grad=requires_grad)


def run(xs, params, reverse=False):
    """Hidden states (T, H) of one direction over one whole sequence."""
    x = seq(xs)
    return lstm_sequence(x, [x.shape[0]], params, reverse=reverse).data[:, 0, :]


class TestCellValues:
    def test_zero_params_give_zero_states(self):
        # gates sit at 0.5 and the candidate at 0, so nothing propagates
        params = zero_params(3, 2)
        out = run([[1.0, -2.0, 0.5], [0.3, 0.0, -1.0]], params)
        assert out == pytest.approx(np.zeros((2, 2)), abs=0)

    def test_zero_everything(self):
        params = zero_params(2, 2)
        assert not run([[0.0, 0.0]] * 3, params).any()
        assert not run([[0.0, 0.0]] * 3, params, reverse=True).any()

    def test_zero_params_halve_previous_cell(self):
        # Only the candidate reads x. Step 1 (x = 1): every gate is 0.5, so
        # c1 = tanh(w)/2. Step 2 (x = 0): z = 0, so c2 = c1/2 and
        # h2 = tanh(c2)/2.
        params = zero_params(1, 2)
        w = np.array([0.8, -0.4])
        params.W.data[4:6, 0] = w
        out = run([[1.0], [0.0]], params)
        c1 = 0.5 * np.tanh(w)
        assert out[0] == pytest.approx(0.5 * np.tanh(c1))
        assert out[1] == pytest.approx(0.5 * np.tanh(c1 / 2))

    def test_matches_scalar_oracle_dim4(self):
        rng = np.random.default_rng(42)
        params = random_params(rng, 4, 4)
        xs = [rng.uniform(-1, 1, size=4) for _ in range(3)]
        got = run(xs, params)
        want = lstm_direction([x.tolist() for x in xs],
                              params.W.data.tolist(), params.b.data.tolist(),
                              hidden=4, reverse=False)
        for g, w in zip(got, want):
            assert g == pytest.approx(np.asarray(w), abs=1e-12)

    def test_reverse_matches_scalar_oracle(self):
        rng = np.random.default_rng(43)
        params = random_params(rng, 2, 3)
        xs = [rng.uniform(-1, 1, size=2) for _ in range(4)]
        got = run(xs, params, reverse=True)
        want = lstm_direction([x.tolist() for x in xs],
                              params.W.data.tolist(), params.b.data.tolist(),
                              hidden=3, reverse=True)
        for g, w in zip(got, want):
            assert g == pytest.approx(np.asarray(w), abs=1e-12)

    def test_reverse_is_mirror_of_forward(self):
        rng = np.random.default_rng(44)
        params = random_params(rng, 2, 2)
        xs = [rng.uniform(-1, 1, size=2) for _ in range(5)]
        rev = run(xs, params, reverse=True)
        fwd_on_flipped = run(xs[::-1], params)
        for t in range(5):
            assert rev[t] == pytest.approx(fwd_on_flipped[4 - t])


class TestCellShapes:
    def test_wrong_hidden_size(self):
        # bias sized for 3 hidden units, weights for 2
        params = LstmCellParams(W=Tensor(np.zeros((8, 4))), b=Tensor(np.zeros(12)))
        with pytest.raises(ShapeMismatchError):
            lstm_sequence(seq([[1.0, 2.0]]), [1], params)

    def test_wrong_input_size(self):
        params = zero_params(2, 2)
        with pytest.raises(ShapeMismatchError):
            lstm_sequence(seq([[1.0, 2.0, 3.0]]), [1], params)

    def test_input_must_be_time_major_batch(self):
        params = zero_params(2, 2)
        with pytest.raises(ShapeMismatchError):
            lstm_sequence(Tensor(np.zeros((3, 2))), [3], params)

    @pytest.mark.parametrize("lengths", [[3], [1, 2, 3], [4, 1], [-1, 2]])
    def test_lengths_must_match_batch_and_fit(self, lengths):
        params = zero_params(2, 2)
        with pytest.raises(ShapeMismatchError):
            lstm_sequence(Tensor(np.zeros((3, 2, 2))), lengths, params)

    def test_non_finite_output_rejected(self):
        params = zero_params(1, 1)
        params.b.data[:] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            lstm_sequence(seq([[1.0]]), [1], params)


def ragged_case(rng, max_t=4, max_b=3):
    """Random small shapes, a ragged batch with zeroed padding, and weights
    mixing the outputs into a scalar."""
    hid = int(rng.integers(1, 4))
    n_in = int(rng.integers(1, 4))
    T = int(rng.integers(1, max_t + 1))
    B = int(rng.integers(1, max_b + 1))
    lengths = rng.integers(1, T + 1, size=B)
    lengths[0] = T
    data = rng.uniform(-1, 1, size=(T, B, n_in))
    data[np.arange(T)[:, None] >= lengths[None, :]] = 0.0
    params = random_params(rng, n_in, hid)
    x = Tensor(data, requires_grad=True)
    mix = Tensor(rng.uniform(-1, 1, size=(T, B, hid)))
    return params, x, lengths, mix


class TestCellGradients:
    def test_cell_gradient_matches_finite_differences(self):
        # the op has a hand-derived backward; check every input leaf in
        # both directions on ragged batches
        for seed in range(100):
            rng = np.random.default_rng(seed)
            params, x, lengths, mix = ragged_case(rng)
            reverse = bool(seed % 2)

            def loss_fn():
                return sum_all(mul(lstm_sequence(x, lengths, params, reverse), mix))

            err = grad_check(loss_fn, [x, params.W, params.b])
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_unrolled_sequence_gradient(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 2, 2)
        x = seq(rng.uniform(-1, 1, size=(4, 2)), requires_grad=True)

        def loss_fn():
            states = lstm_sequence(x, [4], params)
            return sum_all(mul(states, states))

        assert grad_check(loss_fn, [params.W, params.b, x]) < 1e-4

    def test_only_used_direction_gets_gradients(self):
        rng = np.random.default_rng(6)
        fwd = random_params(rng, 2, 2)
        bwd = random_params(rng, 2, 2)
        x = seq(rng.uniform(-1, 1, size=(3, 2)))
        out = lstm_sequence(x, [3], fwd)
        backward(sum_all(mul(out, out)))
        assert fwd.W.grad is not None
        assert bwd.W.grad is None


class TestRaggedBatch:
    def test_rows_match_their_own_unpadded_runs(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 3, 2)
        lengths = [5, 1, 3, 5]
        data = np.zeros((5, 4, 3))
        for b, n in enumerate(lengths):
            data[:n, b] = rng.uniform(-1, 1, size=(n, 3))
        for reverse in (False, True):
            out = lstm_sequence(Tensor(data), lengths, params, reverse).data
            for b, n in enumerate(lengths):
                alone = run(data[:n, b], params, reverse)
                np.testing.assert_allclose(out[:n, b], alone, rtol=0, atol=1e-15)
                assert not out[n:, b].any()

    def test_padding_values_do_not_leak(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 2, 3)
        data = rng.uniform(-1, 1, size=(4, 2, 2))
        noisy = data.copy()
        noisy[2:, 1] = 50.0
        for reverse in (False, True):
            clean = lstm_sequence(Tensor(data), [4, 2], params, reverse).data
            dirty = lstm_sequence(Tensor(noisy), [4, 2], params, reverse).data
            assert dirty[:2, 1] == pytest.approx(clean[:2, 1], abs=0)

    def test_ragged_bidirectional_gradient(self):
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            params, x, lengths, _ = ragged_case(rng, max_t=5, max_b=4)
            bwd = random_params(rng, x.shape[2], params.hidden_size)
            mix = Tensor(rng.uniform(-1, 1, size=x.shape[:2] + (2 * params.hidden_size,)))

            def loss_fn():
                return sum_all(mul(bilstm_sequence(x, lengths, params, bwd), mix))

            err = grad_check(loss_fn, [x, params.W, params.b, bwd.W, bwd.b])
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_no_grad_keeps_values(self):
        rng = np.random.default_rng(10)
        params, x, lengths, _ = ragged_case(rng)
        taped = lstm_sequence(x, lengths, params, reverse=True)
        with no_grad():
            plain = lstm_sequence(x, lengths, params, reverse=True)
        assert plain._backward is None and not plain.requires_grad
        assert plain.data == pytest.approx(taped.data, abs=0)


class TestBilstm:
    def test_output_concatenates_directions(self):
        rng = np.random.default_rng(7)
        fwd = random_params(rng, 2, 3)
        bwd = random_params(rng, 2, 3)
        x = seq(rng.uniform(-1, 1, size=(4, 2)))
        both = bilstm_sequence(x, [4], fwd, bwd)
        hf = lstm_sequence(x, [4], fwd)
        hb = lstm_sequence(x, [4], bwd, reverse=True)
        assert both.shape == (4, 1, 6)
        assert both.data == pytest.approx(concat([hf, hb]).data)
        assert both.data[:, :, :3] == pytest.approx(hf.data)
        assert both.data[:, :, 3:] == pytest.approx(hb.data)

    def test_init_shapes_and_zero_bias(self):
        params = init_lstm_params(np.random.default_rng(0), 5, 3)
        assert params.W.shape == (12, 8)
        assert params.b.shape == (12,)
        assert not params.b.data.any()
        assert params.hidden_size == 3
        assert params.input_size == 5
