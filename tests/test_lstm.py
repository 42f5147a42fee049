"""The BiLSTM layer op against analytic cases, the scalar-loop oracle, the
masked all-rows op it replaced, and finite differences, on whole and
ragged batches, with rows read once or repeated through the index."""

from dataclasses import dataclass

import numpy as np
import pytest

import masked_lstm_oracle
from scalar_oracle import lstm_direction

from maskpolicy.autodiff import Tensor, _wrap, backward, grad_check
from maskpolicy.errors import ShapeMismatchError
from maskpolicy.lstm import _prepare, _row_product, bilstm_sequence
from maskpolicy.policy import init_policy_params


@dataclass
class Cell:
    """One direction's weights as leaf tensors."""
    W: Tensor  # (4*hidden, input_size + hidden)
    b: Tensor  # (4*hidden,)

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // 4


def taped(rows, index, lengths, fwd, bwd, order=None):
    """bilstm_sequence over tensors as one tape node, its parents the rows
    and both directions' W and b, so that grad_check and backward reach
    the op's hand-written backward. It records when a parent requires a
    gradient, as a tape op does."""
    parents = (rows, fwd.W, fwd.b, bwd.W, bwd.b)
    out, back = bilstm_sequence(rows.data, index, lengths, (fwd.W.data, fwd.b.data),
                                (bwd.W.data, bwd.b.data), order,
                                record=any(p.requires_grad for p in parents))
    return _wrap(out, parents, back)


def zero_params(input_size, hidden):
    return Cell(
        W=Tensor(np.zeros((4 * hidden, input_size + hidden)), requires_grad=True),
        b=Tensor(np.zeros(4 * hidden), requires_grad=True),
    )


def random_params(rng, input_size, hidden):
    return Cell(
        W=Tensor(rng.uniform(-0.8, 0.8, size=(4 * hidden, input_size + hidden)),
                 requires_grad=True),
        b=Tensor(rng.uniform(-0.5, 0.5, size=4 * hidden), requires_grad=True),
    )


def as_rows(data, requires_grad=False):
    """A dense (T, B, D) batch as the op's input: its T*B positions as
    rows in time-major order, and the (T, B) index naming them."""
    T, B, D = data.shape
    return (Tensor(np.ascontiguousarray(data).reshape(T * B, D), requires_grad=requires_grad),
            np.arange(T * B).reshape(T, B))


def halves(out, index):
    """The op's (T*B, 2H) output as its forward and reverse states, each
    (T, B, H)."""
    hid = out.shape[-1] // 2
    out = out.reshape(*np.shape(index), 2 * hid)
    return out[..., :hid], out[..., hid:]


def longest_first(data, lengths):
    """A (T, B, D) batch's data columns and lengths, reordered together
    longest first by a stable sort, the row order bilstm_sequence takes."""
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    return data[:, order], lengths[order]


def project(out, mix):
    """The scalar sum(out * mix) for a constant array mix, as one tape node:
    the loss the gradient tests read a layer's outputs through."""
    mix = np.asarray(mix, dtype=np.float64)

    def backward(g):
        return (g * mix,)

    return _wrap(np.sum(out.data * mix), (out,), backward)


def run(xs, params, reverse=False):
    """Hidden states (T, H) of one direction over one whole sequence."""
    rows, index = as_rows(np.asarray(xs, dtype=np.float64)[:, None, :])
    out = taped(rows, index, [len(xs)], params, params).data
    return halves(out, index)[reverse][:, 0, :]


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
        params = Cell(W=Tensor(np.zeros((8, 4))), b=Tensor(np.zeros(12)))
        rows, index = as_rows(np.ones((1, 1, 2)))
        with pytest.raises(ShapeMismatchError):
            taped(rows, index, [1], params, params)
        # each direction well formed, but of different widths
        with pytest.raises(ShapeMismatchError):
            taped(rows, index, [1], zero_params(2, 2), zero_params(2, 3))

    def test_wrong_input_size(self):
        params = zero_params(2, 2)
        rows, index = as_rows(np.ones((1, 1, 3)))
        with pytest.raises(ShapeMismatchError):
            taped(rows, index, [1], params, params)

    def test_input_must_be_time_major_batch(self):
        # a batch-major (B, T) index of 3 rows of 2 steps reads as T = 2,
        # B = 3, which three lengths would have to describe
        params = zero_params(2, 2)
        with pytest.raises(ShapeMismatchError):
            taped(Tensor(np.zeros((6, 2))), np.arange(6).reshape(2, 3), [2, 2], params, params)

    @pytest.mark.parametrize("lengths", [[3], [1, 2, 3], [4, 1], [-1, 2], [2, 3]])
    def test_lengths_must_match_batch_and_fit(self, lengths):
        params = zero_params(2, 2)
        rows, index = as_rows(np.zeros((3, 2, 2)))
        with pytest.raises(ShapeMismatchError):
            taped(rows, index, lengths, params, params)

    @pytest.mark.parametrize("order", [[0], [0, 0], [1, 2], [2, 0, 1, 3]])
    def test_order_must_permute_the_columns(self, order):
        params = zero_params(2, 2)
        rows, index = as_rows(np.zeros((3, 2, 2)))
        with pytest.raises(ShapeMismatchError):
            taped(rows, index, [3, 2], params, params, order)


def ragged_case(rng, max_t=4, max_b=3):
    """Random small shapes and a ragged batch, longest first, that reads
    fewer rows than it has positions, so most rows repeat; weights for
    both directions, and a mix of the outputs into a scalar."""
    hid = int(rng.integers(1, 3))
    n_in = int(rng.integers(1, 4))
    T = int(rng.integers(1, max_t + 1))
    B = int(rng.integers(1, max_b + 1))
    lengths = rng.integers(1, T + 1, size=B)
    lengths[0] = T
    lengths = np.sort(lengths)[::-1].copy()
    n_rows = int(rng.integers(1, T * B + 1))
    rows = Tensor(rng.uniform(-1, 1, size=(n_rows, n_in)), requires_grad=True)
    index = rng.integers(0, n_rows, size=(T, B))
    mix = rng.uniform(-1, 1, size=(T * B, 2 * hid))
    return random_params(rng, n_in, hid), random_params(rng, n_in, hid), rows, index, lengths, mix


class TestCellGradients:
    def test_cell_gradient_matches_finite_differences(self):
        # the op has a hand-derived backward; check every input leaf on
        # ragged batches whose index repeats rows, so that the rows'
        # gradient is a scatter-add over positions
        for seed in range(100):
            rng = np.random.default_rng(seed)
            fwd, bwd, rows, index, lengths, mix = ragged_case(rng)

            def loss_fn():
                return project(taped(rows, index, lengths, fwd, bwd), mix)

            err = grad_check(loss_fn, [rows, fwd.W, fwd.b, bwd.W, bwd.b])
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_unrolled_sequence_gradient(self):
        rng = np.random.default_rng(5)
        fwd = random_params(rng, 2, 2)
        bwd = random_params(rng, 2, 2)
        rows, index = as_rows(rng.uniform(-1, 1, size=(4, 1, 2)), requires_grad=True)
        mix = rng.uniform(-1, 1, size=(4, 4))

        def loss_fn():
            return project(taped(rows, index, [4], fwd, bwd), mix)

        assert grad_check(loss_fn, [fwd.W, fwd.b, bwd.W, bwd.b, rows]) < 1e-4

    def test_only_used_direction_gets_gradients(self):
        # a loss that reads only the forward states leaves the reverse
        # direction's weights a gradient of exactly zero
        rng = np.random.default_rng(6)
        fwd = random_params(rng, 2, 2)
        bwd = random_params(rng, 2, 2)
        rows, index = as_rows(rng.uniform(-1, 1, size=(3, 1, 2)))
        out = taped(rows, index, [3], fwd, bwd)
        backward(project(out, np.repeat([[1.0, 1.0, 0.0, 0.0]], 3, axis=0)))
        assert fwd.W.grad.any() and fwd.b.grad.any()
        assert not bwd.W.grad.any() and not bwd.b.grad.any()


class TestRaggedBatch:
    def test_rows_match_their_own_unpadded_runs(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 3, 2)
        for lengths in ([5, 1, 3, 5], [5, 0, 3, 5]):
            data = np.zeros((5, 4, 3))
            for b, n in enumerate(lengths):
                data[:n, b] = rng.uniform(-1, 1, size=(n, 3))
            data, lengths = longest_first(data, lengths)
            rows, index = as_rows(data)
            both = halves(taped(rows, index, lengths, params, params).data, index)
            for reverse in (False, True):
                out = both[reverse]
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
            clean = taped(*as_rows(data), lengths, params, params).data
            dirty = taped(*as_rows(noisy), lengths, params, params).data
            np.testing.assert_array_equal(dirty, clean)

    def test_permuting_rows_permutes_outputs(self):
        # rows of equal length may come in any order; swapping them swaps
        # their outputs bit for bit
        rng = np.random.default_rng(12)
        params = random_params(rng, 3, 4)
        lengths = np.array([6, 6, 6, 5, 3, 3, 2, 0, 0])
        data = rng.uniform(-1, 1, size=(6, 9, 3))
        out = taped(*as_rows(data), lengths, params, params).data.reshape(6, 9, -1)
        for _ in range(3):
            perm = np.lexsort((rng.random(9), -lengths))  # shuffled within each length
            moved = taped(*as_rows(data[:, perm]), lengths[perm], params, params).data
            np.testing.assert_array_equal(moved.reshape(6, 9, -1), out[:, perm])

    def test_ragged_bidirectional_gradient(self):
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            hid, n_in = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            T, B = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            lengths = np.sort(rng.integers(1, T + 1, size=B))[::-1].copy()
            rows, index = as_rows(rng.uniform(-1, 1, size=(T, B, n_in)), requires_grad=True)
            fwd, bwd = random_params(rng, n_in, hid), random_params(rng, n_in, hid)
            mix = rng.uniform(-1, 1, size=(T * B, 2 * hid))

            def loss_fn():
                return project(taped(rows, index, lengths, fwd, bwd), mix)

            err = grad_check(loss_fn, [rows, fwd.W, fwd.b, bwd.W, bwd.b])
            assert err < 1e-4, f"seed {seed}: rel err {err}"

    def test_no_grad_keeps_values(self):
        # off the tape the op records nothing and returns no backward
        rng = np.random.default_rng(10)
        fwd, bwd, rows, index, lengths, _ = ragged_case(rng)
        cells = [(c.W.data, c.b.data) for c in (fwd, bwd)]
        recorded, back = bilstm_sequence(rows.data, index, lengths, *cells, record=True)
        plain, none = bilstm_sequence(rows.data, index, lengths, *cells)
        assert callable(back) and none is None
        np.testing.assert_array_equal(plain, recorded)


class TestColumnsAlone:
    """On the tape, a batch's weight gradients are the sum, in the given
    order, of each column's gradients as a batch of one, and each
    position's input gradient is its column's alone, bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_batch_equals_its_columns_one_at_a_time(self, seed):
        rng = np.random.default_rng(900 + seed)
        hid, n_in = [(2, 3), (8, 8), (16, 32), (32, 16), (128, 128), (128, 256)][seed % 6]
        B = int(rng.integers(1, 6))
        lengths = np.sort(rng.integers(1, 14, size=B))[::-1].copy()
        T = int(lengths[0])
        fwd, bwd = random_params(rng, n_in, hid), random_params(rng, n_in, hid)
        data = rng.uniform(-1, 1, size=(T, B, n_in))
        mix = rng.uniform(-1, 1, size=(T, B, 2 * hid))
        order = rng.permutation(B)

        rows, index = as_rows(data, requires_grad=True)
        out = taped(rows, index, lengths, fwd, bwd, order)
        backward(project(out, mix.reshape(T * B, 2 * hid)))
        got = [p.grad for p in (fwd.W, fwd.b, bwd.W, bwd.b)]
        got_rows = rows.grad.reshape(T, B, n_in)

        want = None
        for b in order:
            n = int(lengths[b])
            for p in (fwd.W, fwd.b, bwd.W, bwd.b):
                p.zero_grad()
            alone, one = as_rows(data[:n, b:b + 1], requires_grad=True)
            states = taped(alone, one, [n], fwd, bwd)
            np.testing.assert_array_equal(states.data, out.data.reshape(T, B, -1)[:n, b])
            backward(project(states, mix[:n, b]))
            grads = [p.grad for p in (fwd.W, fwd.b, bwd.W, bwd.b)]
            want = grads if want is None else [w + g for w, g in zip(want, grads)]
            np.testing.assert_array_equal(got_rows[:n, b], alone.grad)
            assert not got_rows[n:, b].any()
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def blas_build():
    """The BLAS numpy was built against, as a failure message names it:
    with a DYNAMIC_ARCH build the kernel is picked by CPU at load time, so
    a row fact can hold on one host and fail on another."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration')})")


class TestBlasRowFacts:
    """The OpenBLAS behaviour that batched training's exactness rests on.
    Training adds each window's gradients as a batch of one would, and
    forward values must not depend on the batch, so every product whose
    rows are shared by a batch must give a row the same value whatever
    the number of rows. Every such product runs through `_row_product`,
    whose padded and blocked form holds this where a plain product does
    not (at every odd H >= 17 in the forward form, and at H = 128 in the
    backward form). Every row of the policy heads is one dot product
    (np.vecdot), where a matrix-vector product rounds a row by its
    position. A change of BLAS library or version that breaks this fails
    here by name, and the message names the build."""

    HEIGHTS = (*range(2, 41), 64, 100, 127, 128, 129, 300, 512)
    # every width the forward form is checked at; the backward form is
    # checked at a stratified set: small, odd >= 17, around 4H = 256
    # (where the reduction starts to be cut into blocks) and large
    FORWARD_WIDTHS = tuple(range(2, 131))
    BACKWARD_WIDTHS = (2, 3, 5, 8, 16, 17, 21, 24, 32, 33, 39, 47, 48, 63, 64, 65, 96, 127,
                       128, 129, 130, 160, 192, 256)
    # the heads' reduction, 2H: every width 2-130, and around the forward
    # form's block size of 256 and beyond it
    HEAD_WIDTHS = (*range(2, 131), 160, 192, 256, 258, 512)

    def _check(self, a, prepared, n_out, label):
        tall = _row_product(a, prepared, n_out)
        build = blas_build()
        for m in (1, *self.HEIGHTS):
            for at in (0, 3):
                np.testing.assert_array_equal(
                    _row_product(a[at:at + m], prepared, n_out), tall[at:at + m],
                    err_msg=f"{label} m={m}; {build}")

    @pytest.mark.parametrize("hid", FORWARD_WIDTHS)
    def test_forward_products_rows_equal_for_two_or_more_rows(self, hid):
        # rows @ W^T: the recurrent product (width H) and the input
        # projections of both layers (H and 2H)
        rng = np.random.default_rng(hid)
        for width in (hid, 2 * hid):
            w_t = _prepare(rng.uniform(-1, 1, size=(4 * hid, width)).T)
            a = rng.uniform(-1, 1, size=(max(self.HEIGHTS) + 3, width))
            self._check(a, w_t, 4 * hid, f"forward H={hid} width={width}")

    @pytest.mark.parametrize("hid", BACKWARD_WIDTHS)
    def test_backward_products_rows_equal_for_every_row_count(self, hid):
        # dz @ W_h (4H, H), the recurrent backward, and dz @ W_x (4H, H) and
        # (4H, 2H), the input gradient of both layers, each a column block
        # of W as stored
        rng = np.random.default_rng(1000 + hid)
        a = rng.uniform(-1, 1, size=(max(self.HEIGHTS) + 3, 4 * hid))
        for width in (hid, 2 * hid):
            w = rng.uniform(-1, 1, size=(4 * hid, hid + width))[:, hid:]
            self._check(a, _prepare(w), width, f"backward H={hid} width={width}")

    @pytest.mark.parametrize("d_in, hid", [(128, 128), (256, 128), (33, 33), (66, 33)])
    def test_fused_weight_gradient_equals_its_two_products(self, d_in, hid):
        # a window's dW as one product dz^T @ [x | h_in], h_in with a zero
        # row at the direction's first step, against dz^T @ x beside
        # dz_h^T @ h_in over the steps that read a state: at every window
        # length 1-128, both directions, layer 1 (D = H) and layer 2 (D = 2H),
        # compared as bits, so a zero's sign counts too
        rng = np.random.default_rng(3000 + d_in + hid)
        build = blas_build()
        for n in range(1, 129):
            dz = rng.uniform(-1, 1, size=(n, 4 * hid))
            x = rng.uniform(-1, 1, size=(n, d_in))
            states = rng.uniform(-1, 1, size=(n, hid))
            for reverse in (False, True):
                if reverse:
                    dz_h, h_in = dz[:-1], states[1:]
                    fused = np.concatenate([states[1:], np.zeros((1, hid))])
                else:
                    dz_h, h_in = dz[1:], states[:-1]
                    fused = np.concatenate([np.zeros((1, hid)), states[:-1]])
                got = dz.T @ np.concatenate([x, fused], axis=1)
                want = np.concatenate([dz.T @ x, dz_h.T @ h_in], axis=1)
                np.testing.assert_array_equal(
                    got.view(np.int64), want.view(np.int64),
                    err_msg=f"dW D={d_in} H={hid} n={n} reverse={reverse}; {build}")

    @pytest.mark.parametrize("k", HEAD_WIDTHS)
    def test_head_dot_products_rows_equal_for_every_row_count(self, k):
        # np.vecdot(hidden, w), the policy heads, one dot product per row;
        # a plain matrix-vector product rounds a row by its position
        rng = np.random.default_rng(2000 + k)
        w = rng.uniform(-1, 1, size=k)
        a = rng.uniform(-1, 1, size=(max(self.HEIGHTS) + 3, k))
        tall = np.vecdot(a, w)
        build = blas_build()
        for m in (1, *self.HEIGHTS):
            for at in (0, 3):
                np.testing.assert_array_equal(np.vecdot(a[at:at + m], w), tall[at:at + m],
                                              err_msg=f"head k={k} m={m}; {build}")


class TestBilstm:
    def test_output_concatenates_directions(self):
        # each half of the joined rows is that direction run on its own
        rng = np.random.default_rng(7)
        fwd = random_params(rng, 2, 3)
        bwd = random_params(rng, 2, 3)
        rows, index = as_rows(rng.uniform(-1, 1, size=(4, 1, 2)))
        both = taped(rows, index, [4], fwd, bwd).data
        hf = halves(taped(rows, index, [4], fwd, fwd).data, index)[0]
        hb = halves(taped(rows, index, [4], bwd, bwd).data, index)[1]
        assert both.shape == (4, 6)
        np.testing.assert_array_equal(both[:, :3], hf.reshape(4, 3))
        np.testing.assert_array_equal(both[:, 3:], hb.reshape(4, 3))

    def test_init_shapes_and_zero_bias(self):
        model = init_policy_params(7, d_emb=5, d_h=3, seed=0)
        for prefix, input_size in (("lstm1.fwd", 5), ("lstm1.bwd", 5),
                                   ("lstm2.fwd", 6), ("lstm2.bwd", 6)):
            W, b = model.tensors[f"{prefix}.W"], model.tensors[f"{prefix}.b"]
            assert W.shape == (4 * 3, input_size + 3)
            assert b.shape == (4 * 3,)
            assert not b.data.any()


class TestDistinctRows:
    """Distinct input rows plus a (T, B) index against the gathered batch.

    A product of one row rounds differently from a wider one, so batches
    with one or two distinct rows check that the op never projects them
    in a product whose rows round differently from the gathered rows'."""

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
            want = taped(*as_rows(rows[index]), lengths, params, params).data
            got = taped(Tensor(rows, requires_grad=True), index, lengths, params, params)
            np.testing.assert_array_equal(got.data, want)
            weights = params.W.data, params.b.data
            plain = bilstm_sequence(rows, index, lengths, weights, weights, record=False)[0]
            np.testing.assert_array_equal(plain, want)

    @pytest.mark.parametrize("index", [[[0, 2]], [[-1, 0]], [0, 1], [[[0]]]])
    def test_index_must_name_rows_as_a_matrix(self, index):
        params = zero_params(2, 2)
        with pytest.raises(ShapeMismatchError):
            taped(Tensor(np.zeros((2, 2))), index, [1, 1], params, params)

    def test_rows_must_be_a_matrix(self):
        params = zero_params(2, 2)
        with pytest.raises(ShapeMismatchError):
            taped(Tensor(np.zeros((1, 2, 2))), [[0, 0]], [1, 1], params, params)

    def test_row_gradient_sums_its_positions(self):
        # each row's gradient is the sum, in time-major position order, of
        # the gradients of the positions that read it in the gathered batch
        rng = np.random.default_rng(14)
        fwd, bwd = random_params(rng, 3, 2), random_params(rng, 3, 2)
        rows = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
        index = np.array([[0, 1, 1], [3, 0, 1], [0, 3, 0], [1, 1, 3]])
        lengths = [4, 3, 3]
        mix = rng.uniform(-1, 1, size=(12, 4))
        backward(project(taped(rows, index, lengths, fwd, bwd), mix))
        gathered, flat = as_rows(rows.data[index], requires_grad=True)
        backward(project(taped(gathered, flat, lengths, fwd, bwd), mix))
        want = np.zeros((4, 3))
        for position, row in enumerate(index.reshape(-1)):
            want[row] += gathered.grad[position]
        assert rows.grad[2].tolist() == [0.0, 0.0, 0.0]  # read by no position
        np.testing.assert_array_equal(rows.grad, want)


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
    """Each direction of the live-row layer op against the masked all-rows
    single-direction op it replaced."""

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
        rows, index = as_rows(data, requires_grad=True)
        on_tape = halves(taped(rows, index, lengths, params, params).data, index)
        weights = params.W.data, params.b.data
        plain = halves(bilstm_sequence(rows.data, index, lengths, weights, weights,
                                       record=False)[0], index)
        for reverse in (False, True):
            want = masked_lstm_oracle.lstm_sequence(Tensor(data), lengths, params, reverse).data
            np.testing.assert_array_equal(on_tape[reverse], want)
            np.testing.assert_array_equal(plain[reverse], want)

    @pytest.mark.parametrize("kind,spec", CASES)
    def test_gradients_match(self, kind, spec):
        # the loss reads one direction's states, so the layer's gradients
        # are that direction's alone, and the other direction's are zero
        params, data, lengths = self.build(kind, spec)
        T, B, n_in = data.shape
        hid = params.hidden_size
        other = random_params(np.random.default_rng(2), n_in, hid)
        mix = np.random.default_rng(1).uniform(-1, 1, size=(T, B, hid))
        for reverse in (False, True):
            x = Tensor(data, requires_grad=True)
            states = masked_lstm_oracle.lstm_sequence(x, lengths, params, reverse)
            backward(project(states, mix))
            want = (x.grad, params.W.grad, params.b.grad)
            for p in (params.W, params.b, other.W, other.b):
                p.zero_grad()
            rows, index = as_rows(data, requires_grad=True)
            both = np.zeros((T, B, 2 * hid))
            halves(both, index)[reverse][...] = mix
            cells = (other, params) if reverse else (params, other)
            out = taped(rows, index, lengths, *cells)
            backward(project(out, both.reshape(T * B, 2 * hid)))
            got = (rows.grad.reshape(T, B, n_in), params.W.grad, params.b.grad)
            assert_grads_close(got, want)
            assert not other.W.grad.any() and not other.b.grad.any()
            assert not got[0][np.arange(T)[:, None] >= lengths[None, :]].any()
            params.W.zero_grad()
            params.b.zero_grad()
