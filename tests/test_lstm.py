"""LSTM sequence op against analytic cases, the scalar-loop oracle, the
masked all-rows op it replaced, and finite differences, on whole and
ragged batches."""

import numpy as np
import pytest

import masked_lstm_oracle
from scalar_oracle import lstm_direction

from maskpolicy.autodiff import Tensor, backward, concat, grad_check, mul, no_grad, sum_all
from maskpolicy.errors import MaskPolicyError, NonFiniteError, ShapeMismatchError
from maskpolicy.lstm import LstmCellParams, bilstm_sequence, lstm_sequence
from maskpolicy.policy import init_policy_params


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


def longest_first(data, lengths):
    """A (T, B, D) batch's data columns and lengths, reordered together
    longest first by a stable sort, the row order lstm_sequence takes."""
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    return data[:, order], lengths[order]


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

    @pytest.mark.parametrize("lengths", [[3], [1, 2, 3], [4, 1], [-1, 2], [2, 3]])
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
    """Random small shapes, a ragged batch with zeroed padding, longest
    first, and weights mixing the outputs into a scalar."""
    hid = int(rng.integers(1, 4))
    n_in = int(rng.integers(1, 4))
    T = int(rng.integers(1, max_t + 1))
    B = int(rng.integers(1, max_b + 1))
    lengths = rng.integers(1, T + 1, size=B)
    lengths[0] = T
    data = rng.uniform(-1, 1, size=(T, B, n_in))
    data[np.arange(T)[:, None] >= lengths[None, :]] = 0.0
    data, lengths = longest_first(data, lengths)
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
        for lengths in ([5, 1, 3, 5], [5, 0, 3, 5]):
            data = np.zeros((5, 4, 3))
            for b, n in enumerate(lengths):
                data[:n, b] = rng.uniform(-1, 1, size=(n, 3))
            data, lengths = longest_first(data, lengths)
            for reverse in (False, True):
                out = lstm_sequence(Tensor(data), lengths, params, reverse).data
                for b, n in enumerate(lengths):
                    if n:
                        alone = run(data[:n, b], params, reverse)
                        np.testing.assert_allclose(out[:n, b], alone, rtol=0, atol=1e-15)
                    assert not out[n:, b].any()

    def test_padding_values_do_not_leak(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 2, 3)
        for lengths in ([4, 2], [4, 0, 2]):
            data, lengths = longest_first(rng.uniform(-1, 1, size=(4, len(lengths), 2)), lengths)
            noisy = data.copy()
            for b, n in enumerate(lengths):
                noisy[n:, b] = 50.0
            for reverse in (False, True):
                clean = lstm_sequence(Tensor(data), lengths, params, reverse).data
                dirty = lstm_sequence(Tensor(noisy), lengths, params, reverse).data
                np.testing.assert_array_equal(dirty, clean)

    def test_permuting_rows_permutes_outputs(self):
        # rows of equal length may come in any order; swapping them swaps
        # their outputs bit for bit
        rng = np.random.default_rng(12)
        params = random_params(rng, 3, 4)
        lengths = np.array([6, 6, 6, 5, 3, 3, 2, 0, 0])
        data = rng.uniform(-1, 1, size=(6, 9, 3))
        for _ in range(3):
            perm = np.lexsort((rng.random(9), -lengths))  # shuffled within each length
            for reverse in (False, True):
                out = lstm_sequence(Tensor(data), lengths, params, reverse).data
                moved = lstm_sequence(Tensor(data[:, perm]), lengths[perm], params, reverse).data
                np.testing.assert_array_equal(moved, out[:, perm])

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
        model = init_policy_params(7, d_emb=5, d_h=3, seed=0)
        for prefix, input_size in (("lstm1.fwd", 5), ("lstm1.bwd", 5),
                                   ("lstm2.fwd", 6), ("lstm2.bwd", 6)):
            params = model.cell(prefix)
            assert params.W.shape == (12, input_size + 3)
            assert params.b.shape == (12,)
            assert not params.b.data.any()
            assert params.hidden_size == 3
            assert params.input_size == input_size


class TestDistinctRows:
    """Distinct input rows plus a (T, B) index against the gathered batch.

    At the deploy width (D = H = 128) a product of one or two rows rounds
    differently from a wider one, so batches with fewer than three
    distinct rows check that the op never projects them in a smaller
    product than the gathered rows would run in."""

    @staticmethod
    def case(n_rows, T, B):
        """Weights, n_rows distinct rows, a (T, B) index using every one of
        them, and ragged lengths, longest first."""
        rng = np.random.default_rng(1000 * n_rows + 10 * T + B)
        params = random_params(rng, 128, 128)
        rows = rng.uniform(-1, 1, size=(n_rows, 128))
        index = rng.permutation(np.arange(T * B) % n_rows).reshape(T, B)
        lengths = np.sort(rng.integers(1, T + 1, size=B))[::-1].copy()
        lengths[0] = T
        return params, rows, index, lengths

    @pytest.mark.parametrize("B", [1, 2, 3, 32])
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 40])
    def test_bit_identical_to_gathered_input(self, n_rows, B):
        for T in (1, 2, 3, 9):
            if n_rows > T * B:
                continue
            params, rows, index, lengths = self.case(n_rows, T, B)
            with no_grad():
                for reverse in (False, True):
                    want = lstm_sequence(Tensor(rows[index]), lengths, params, reverse).data
                    got = lstm_sequence(Tensor(rows), lengths, params, reverse, index=index).data
                    np.testing.assert_array_equal(got, want)
                both = bilstm_sequence(Tensor(rows), lengths, params, params, index=index).data
                np.testing.assert_array_equal(
                    both, bilstm_sequence(Tensor(rows[index]), lengths, params, params).data)

    @pytest.mark.parametrize("index", [[[0, 2]], [[-1, 0]], [0, 1], [[[0]]]])
    def test_index_must_name_rows_as_a_matrix(self, index):
        params = zero_params(2, 2)
        with no_grad(), pytest.raises(ShapeMismatchError):
            lstm_sequence(Tensor(np.zeros((2, 2))), [1, 1], params, index=index)

    def test_rows_must_be_a_matrix(self):
        params = zero_params(2, 2)
        with no_grad(), pytest.raises(ShapeMismatchError):
            lstm_sequence(Tensor(np.zeros((1, 2, 2))), [1, 1], params, index=[[0, 0]])

    def test_rejected_on_the_tape(self):
        # the index form has no backward; a taped call must gather the rows
        params = zero_params(2, 2)
        with pytest.raises(MaskPolicyError):
            lstm_sequence(Tensor(np.zeros((2, 2))), [1, 1], params, index=[[0, 1]])


def oracle_case(rng, max_h=8, max_d=8, max_t=12, max_b=9):
    """Random shapes and a ragged batch with unsorted lengths, some of them
    0; the padding holds live-looking values, which neither op may read."""
    hid = int(rng.integers(1, max_h + 1))
    n_in = int(rng.integers(1, max_d + 1))
    T = int(rng.integers(1, max_t + 1))
    B = int(rng.integers(1, max_b + 1))
    lengths = rng.integers(0, T + 1, size=B)
    return random_params(rng, n_in, hid), rng.uniform(-1, 1, size=(T, B, n_in)), lengths


def assert_grads_close(got, want, rel=1e-12):
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w), initial=0.0) <= rel * max(np.max(np.abs(w), initial=0.0), 1e-300)


class TestMaskedOracle:
    """The live-row op against the masked all-rows op it replaced."""

    CASES = [("random", seed) for seed in range(40)] + [
        # deploy-sized: many full rows and a ragged tail, given unsorted
        ("fixed", (32, 24, 30, [30, 30, 7, 30, 1, 30, 30, 19, 0, 30, 30, 12])),
        ("fixed", (16, 16, 20, [20, 19, 18, 11, 11, 3, 1])),  # already sorted
        ("fixed", (16, 8, 9, [0, 0, 0])),
        ("fixed", (12, 5, 14, [14])),
        ("fixed", (4, 3, 0, [0, 0])),  # no steps at all
    ]

    @staticmethod
    def build(kind, spec):
        """Weights and a batch, its rows reordered longest first; both ops
        run on those same rows."""
        if kind == "random":
            params, data, lengths = oracle_case(np.random.default_rng(700 + spec))
        else:
            hid, n_in, T, lengths = spec
            rng = np.random.default_rng(hid * 1000 + T)
            params = random_params(rng, n_in, hid)
            data = rng.uniform(-1, 1, size=(T, len(lengths), n_in))
        return (params, *longest_first(data, lengths))

    @pytest.mark.parametrize("kind,spec", CASES)
    def test_forward_is_bit_identical(self, kind, spec):
        params, data, lengths = self.build(kind, spec)
        for reverse in (False, True):
            want = masked_lstm_oracle.lstm_sequence(Tensor(data), lengths, params, reverse).data
            taped = lstm_sequence(Tensor(data, requires_grad=True), lengths, params, reverse)
            with no_grad():
                plain = lstm_sequence(Tensor(data), lengths, params, reverse)
            np.testing.assert_array_equal(taped.data, want)
            np.testing.assert_array_equal(plain.data, want)

    @pytest.mark.parametrize("kind,spec", CASES)
    def test_gradients_match(self, kind, spec):
        params, data, lengths = self.build(kind, spec)
        mix = Tensor(np.random.default_rng(1).uniform(-1, 1, size=data.shape[:2] + (params.hidden_size,)))
        for reverse in (False, True):
            grads = []
            for op in (lstm_sequence, masked_lstm_oracle.lstm_sequence):
                x = Tensor(data, requires_grad=True)
                params.W.zero_grad()
                params.b.zero_grad()
                backward(sum_all(mul(op(x, lengths, params, reverse), mix)))
                grads.append((x.grad, params.W.grad, params.b.grad))
            assert_grads_close(*grads)
            assert not grads[0][0][np.arange(data.shape[0])[:, None] >= lengths[None, :]].any()
