"""Bidirectional LSTM layers over plain arrays, each with its own backward.

A batch is time-major and ragged: position (t, b) is step t of row b,
and row b holds lengths[b] real steps followed by padding. The input is
U rows (U, D) plus a (T, B) integer index naming the row each position
reads, so a row that repeats in the batch is stored and projected once.
`bilstm_sequence` runs one layer over the whole batch and returns every
position's hidden states as (T*B, 2H) time-major rows: row t*B + b is
the forward state of (t, b) followed by its reverse state.

Gate layout inside the fused weight matrix W (4H, D + H) is fixed as
rows [input, forget, candidate, output], each block of H rows:

    z = W @ [x; h] + b
    i = sigmoid(z[0:H])     f = sigmoid(z[H:2H])
    g = tanh(z[2H:3H])      o = sigmoid(z[3H:4H])
    c' = f * c + i * g      h' = o * tanh(c')

W is split at call time into its x columns W_x (4H, D) and h columns
W_h (4H, H). As in cuDNN (Appleyard et al., arXiv 1604.01946), the
input projections x @ W_x^T + b are one GEMM over the U rows before the
loop; each step gathers its live rows' pre-activations from that (U, 4H)
table, and only h @ W_h^T and the gate math run per step.

A product's row can round differently with the number of rows in the
product. With OpenBLAS 0.3.31 (Haswell kernel, float64), a plain product
(m, k) @ (k, N) gives every row the same value for every m >= 2 only at
some widths: against transposed weights it fails at every odd H >= 17,
where 4H is not a multiple of 8, and against the weights as stored (the
backward's dz @ W_h at H = 128) rows round alike only within the groups
m = 1, 2-15 and 16 or more. So every product of a layer, forward and
backward, runs through `_row_product` against weights `_prepare`d once
per call: each block stored contiguous, the output width padded with
zero columns to a multiple of 8, and any reduction longer than 256 cut
into blocks of at most 256, whose products are added in order. A lone
row runs beside a zero row inside `_row_product`, so a caller passes
only its live rows, however few. In that form each row gets the same value
for every row count at every width tested (tests/test_lstm.py
TestBlasRowFacts: the forward form at H = 2-130, the backward form at
24 widths from 2 to 256, m = 1-40 and up to 512). So a row's states and
gradients do not depend on how many rows its batch has, or which. At
H = 128 the forward products are plain products (4H = 512, reductions of
128 and 256), so the padding changes no forward value there.

sigmoid(a) is computed as (1 + tanh(a/2))/2, which is bounded for every
input. The halving is folded into the weights: the i, f and o rows of
W_x, W_h and b are scaled by 1/2 once per call, which is exact for a
power of two, so each step runs one tanh over all four gates and then
one scale and one offset.

The forward direction runs t = 0..T-1 and the reverse direction
t = T-1..0. The caller sorts the rows by length, longest first, and the
op rejects lengths that increase anywhere, so the rows live at step t
are a prefix [:live[t]] of the batch in either direction. A step runs
its GEMM and gate math on that prefix only. Rows outside it keep zero
state and zero output, so the reverse direction of every row starts
from zero state at its own last real step.

Recording, a layer also returns its backward: BPTT through each
direction, then each position's two input gradients
added and scatter-added once onto the U rows. Every gate factor that
does not depend on the carried dh and dc is computed for all steps at
once before the reverse loop; the loop then updates dc, writes the
pre-activation gradients dz_t of the live rows and carries
dh = dz_t @ W_h as one row-invariant product per step. After the loop,
dx = dz @ W_x is one row-invariant product over every live position.
Each column's dW and db are computed from contiguous copies of its own
rows and added over the columns in a given order. A column's dW is one
product dz^T @ [x | h_in] over its steps, where h_in holds each step's
state input and a zero row at the direction's first step; with OpenBLAS
0.3.31 it equals dz^T @ x beside dz_h^T @ h_in over the other steps bit
for bit (tests/test_lstm.py TestBlasRowFacts). A batch's dW and db are
then bit for bit the sum, in that order, of its columns' own as batches
of one, and so are its rows' gradients when no two columns read the same
row. Unless recording, the op keeps no per-step state.

The backward runs once per forward and frees the state
it records as it spends it. A direction records its gates, cells and
tanh(cells), but no copy of its hidden states: dW_h reads each step's
state input from the layer's output rows. The cells and tanh(cells) are
dropped once the gate factors are computed, and the gates and the
factors once the direction's BPTT has run.

A layer's two directions share no state until their outputs are joined.
`bilstm_sequence` starts the reverse direction through its `reverse`
argument before it runs the forward direction, and finishes it after,
its backward likewise. By default that is this process, in the serial
order; training passes the runner of `reverse_helper.two_processes()`,
which runs it meanwhile in a helper process, with the same bytes.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ShapeMismatchError


def _sigmoid_fold(hid: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-gate-row (scale, offset) over [i, f, g, o]: 1/2 and 1/2 on the
    sigmoid rows, 1 and -0.0 on the candidate rows.

    With the sigmoid rows of W and b scaled by the same 1/2, tanh of a
    pre-activation times scale plus offset is sigmoid(a) = (1 + tanh(a/2))/2
    on i, f and o and tanh(a) on g. Each factor is exact: halving is exact,
    and x * 1 + (-0.0) returns x bit for bit, the sign of a zero included."""
    scale = np.full(4 * hid, 0.5)
    offset = np.full(4 * hid, 0.5)
    scale[2 * hid:3 * hid] = 1.0
    offset[2 * hid:3 * hid] = -0.0
    return scale, offset


# The row-invariant product form (see the module docstring): output widths
# padded with zero columns to a multiple of _COLUMNS, and reductions cut
# into blocks of at most _DEPTH, added in order.
_COLUMNS = 8
_DEPTH = 256


def _prepare(w: np.ndarray) -> list[np.ndarray]:
    """The right operand w (K, N) of `_row_product`: its rows cut into
    blocks of at most _DEPTH, each stored contiguous, with zero columns
    padding N to a multiple of _COLUMNS."""
    k, n = w.shape
    pad = -n % _COLUMNS
    blocks = []
    for lo in range(0, k, _DEPTH):
        block = w[lo:lo + _DEPTH]
        if pad:
            block = np.concatenate([block, np.zeros((len(block), pad))], axis=1)
        blocks.append(np.ascontiguousarray(block))
    return blocks


def _row_product(x: np.ndarray, prepared: list[np.ndarray], n_out: int) -> np.ndarray:
    """x (m, K) @ w (K, n_out), w as `_prepare`d: one product per block,
    added in order, a lone row beside a zero row. Each row's value is the
    same for every m."""
    if len(x) == 1:
        return _row_product(np.concatenate([x, np.zeros_like(x)]), prepared, n_out)[:1]
    out, lo = None, 0
    for block in prepared:
        part = x[:, lo:lo + len(block)] @ block
        lo += len(block)
        if out is None:
            out = part
        else:
            out += part
    return out[:, :n_out]


def _direction(rows: np.ndarray, index: np.ndarray, lengths: list[int], is_live: np.ndarray,
               W: np.ndarray, bias: np.ndarray, reverse: bool, record: bool):
    """One direction of a layer with weights W and bias, in plain arrays:
    the hidden states (T, B, H) and, when recording, backward(grad, order,
    states), which maps their gradient (T, B, H) to (dx, dW, db): dx (P, D)
    of the P positions where the (T, B) mask `is_live` holds, in time-major
    order, and dW and db each column's own, added over the columns in
    `order`. It reads each step's
    state input from `states`, a (T, B, H) view of the same hidden states,
    and runs once: it drops the recorded gates and cells as it spends them."""
    (T, B), D = index.shape, rows.shape[1]
    # Rows come longest first, so the rows live at step t are the prefix [:live[t]].
    live = np.count_nonzero(is_live, axis=1).tolist()
    hid = W.shape[0] // 4
    scale, offset = _sigmoid_fold(hid)
    # Both forward products run through the row-invariant form (see the
    # module docstring), against the transposed weight blocks with the
    # sigmoid halving folded in.
    w_x_t = _prepare(np.multiply(W[:, :D].T, scale, order="C"))
    w_h_t = _prepare(np.multiply(W[:, D:].T, scale, order="C"))

    table = _row_product(rows, w_x_t, 4 * hid)
    table += bias * scale
    # Recording, each step's live rows keep their gate activations here, and
    # padded positions stay zero; otherwise it is one step's buffer.
    gates = np.zeros((T, B, 4 * hid)) if record else np.empty((B, 4 * hid))
    out = np.zeros((T, B, hid))
    cells = np.zeros((T, B, hid)) if record else None
    tanh_cells = np.zeros((T, B, hid)) if record else None
    c_state = np.zeros((B, hid))
    prev = None
    for t in range(T - 1, -1, -1) if reverse else range(T):
        n = live[t]
        if not n:
            continue
        # The index was checked against the rows, so "clip" never clips; it
        # lets take write straight into `out` instead of through a buffer.
        z = table.take(index[t, :n], axis=0, out=gates[t, :n] if record else gates[:n],
                       mode="clip")
        if prev is not None:
            z += _row_product(out[prev, :n], w_h_t, 4 * hid)
        np.tanh(z, out=z)
        z *= scale
        z += offset
        i_g, f_g, g_c, o_g = z[:, :hid], z[:, hid:2 * hid], z[:, 2 * hid:3 * hid], z[:, 3 * hid:]
        if record:
            c = np.multiply(f_g, c_state[:n] if prev is None else cells[prev, :n], out=cells[t, :n])
        else:
            c = c_state[:n]
            c *= f_g
        c += i_g * g_c
        tc = np.tanh(c, out=tanh_cells[t, :n]) if record else np.tanh(c)
        np.multiply(o_g, tc, out=out[t, :n])
        prev = t
    if not record:
        return out, None

    def backward(grad, order, states):
        nonlocal gates, cells, tanh_cells
        # Every factor that does not depend on the carried dh and dc, for
        # all steps at once: [g i(1-i), c_prev f(1-f), i(1-g^2)] as one
        # block over the contiguous i, f, g rows, then tc o(1-o) and o(1-tc^2).
        g4 = gates.reshape(T, B, 4, hid)
        i_g, f_g, g_c, o_g = g4[:, :, 0], g4[:, :, 1], g4[:, :, 2], g4[:, :, 3]
        ifg = np.empty((T, B, 3, hid))
        np.subtract(1.0, g4[:, :, :2], out=ifg[:, :, :2])
        ifg[:, :, :2] *= g4[:, :, :2]
        ifg[:, :, 0] *= g_c
        if reverse:
            ifg[:-1, :, 1] *= cells[1:]
            ifg[-1:, :, 1] = 0.0
        else:
            ifg[1:, :, 1] *= cells[:-1]
            ifg[:1, :, 1] = 0.0
        np.square(g_c, out=ifg[:, :, 2])
        np.subtract(1.0, ifg[:, :, 2], out=ifg[:, :, 2])
        ifg[:, :, 2] *= i_g
        o_factor = np.subtract(1.0, o_g)
        o_factor *= o_g
        o_factor *= tanh_cells
        c_factor = np.square(tanh_cells)
        np.subtract(1.0, c_factor, out=c_factor)
        c_factor *= o_g
        # The loop reads the factors and the forget gates, not the cells.
        cells = tanh_cells = None

        d_gates = np.zeros((T, B, 4 * hid))
        dz4 = d_gates.reshape(T, B, 4, hid)
        w_h = _prepare(W[:, D:])
        dh_state = np.zeros((B, hid))
        dc_state = np.zeros((B, hid))
        for t in range(T) if reverse else range(T - 1, -1, -1):
            n = live[t]
            if not n:
                continue
            dh, dc = dh_state[:n], dc_state[:n]
            dh += grad[t, :n]
            dc += dh * c_factor[t, :n]
            np.multiply(ifg[t, :n], dc[:, None, :], out=dz4[t, :n, :3])
            np.multiply(o_factor[t, :n], dh, out=dz4[t, :n, 3])
            dh[:] = _row_product(d_gates[t, :n], w_h, hid)
            dc *= f_g[t, :n]
        # BPTT has run: drop the factors, and the gates with every view of them.
        del g4, i_g, f_g, g_c, o_g, ifg, o_factor, c_factor
        gates = None

        # dx of every live position, time-major, as one product; dW and db
        # of each column alone, from contiguous copies of its rows, so that
        # they are what the column would get as a batch of one, added over
        # the columns in `order`. A column's dW is one product dz^T @ [x | h]
        # over its steps' inputs, written into the leading rows of `inputs`.
        dx = _row_product(d_gates[is_live], _prepare(W[:, :D]), D)
        inputs = np.empty((T, D + hid))
        d_w = d_b = None
        for b in order:
            n = lengths[b]
            if not n:
                continue
            dz = d_gates[:n, b].copy()
            xh = inputs[:n]
            xh[:, :D] = rows[index[:n, b]]
            # Each step's state input is the neighbouring step's output; the
            # first step of a direction reads zero state, a zero row that adds
            # nothing to dW_h.
            if reverse:
                xh[:-1, D:] = states[1:n, b]
                xh[-1, D:] = 0.0
            else:
                xh[1:, D:] = states[:n - 1, b]
                xh[0, D:] = 0.0
            w = dz.T @ xh
            db = dz.sum(axis=0)
            if d_w is None:
                d_w, d_b = w, db
            else:
                d_w += w
                d_b += db
        if d_w is None:
            d_w, d_b = np.zeros_like(W), np.zeros_like(bias)
        return dx, d_w, d_b

    return out, backward


def _reverse_here(rows, index, lengths, is_live, W, bias, record):
    """The reverse direction in this process, deferred as the helper
    process defers it (see reverse_helper): the call returns a thunk of
    (states, backward), and backward returns a thunk of its result."""
    def finish():
        out, back = _direction(rows, index, lengths, is_live, W, bias, True, record)
        if back is None:
            return out, None
        return out, lambda grad, order, states: functools.partial(back, grad, order, states)

    return finish


def bilstm_sequence(rows: np.ndarray, index, lengths, fwd, bwd, order=None, record=False,
                    reverse=None):
    """One bidirectional layer, each direction's weights a pair (W, b): U
    input rows (U, D) read through a (T, B) index -> (T*B, 2H) time-major
    rows, each the forward state followed by the reverse state, and a
    backward that is None unless `record`.

    The batch's rows come longest first: lengths must not increase from
    one row to the next. Steps at or past lengths[b] are padding: they
    neither read nor write row b's state, and their outputs are zero.
    backward maps the rows' gradient to (d_rows, dW_f, db_f, dW_b, db_b),
    each weight's adding the columns' own in `order`, a permutation of
    the columns (by default left to right). `reverse` runs the reverse
    direction: `_reverse_here` by default, or reverse_helper's runner."""
    (W_f, b_f), (W_b, b_b) = fwd, bwd
    hid = W_f.shape[0] // 4
    for W, b in (fwd, bwd):
        if W.ndim != 2 or W.shape[0] % 4 or b.shape != (W.shape[0],) or W.shape != W_f.shape:
            raise ShapeMismatchError("bilstm_sequence(W vs b vs forward W)", W.shape, b.shape,
                                     W_f.shape)
    if rows.ndim != 2 or rows.shape[1] != W_f.shape[1] - hid:
        raise ShapeMismatchError("bilstm_sequence(rows vs W)", rows.shape, W_f.shape)
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 2 or index.size and (index.min() < 0 or index.max() >= rows.shape[0]):
        raise ShapeMismatchError(f"bilstm_sequence(index within [0, {rows.shape[0]}))",
                                 index.shape, rows.shape)
    T, B = index.shape
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (B,) or B == 0 or lengths.min() < 0 or lengths.max() > T:
        raise ShapeMismatchError(f"bilstm_sequence(lengths within [0, {T}])", lengths.shape, (T, B))
    if np.any(lengths[1:] > lengths[:-1]):
        raise ShapeMismatchError("bilstm_sequence(lengths longest first)", lengths.shape, (T, B))
    order = list(range(B)) if order is None else [int(b) for b in order]
    if sorted(order) != list(range(B)):
        raise ShapeMismatchError("bilstm_sequence(order a permutation of the columns)",
                                 (len(order),), (T, B))
    is_live = lengths > np.arange(T)[:, None]
    lengths = lengths.tolist()
    # The reverse direction is started first and finished after the forward
    # direction has run, so that a helper process can run it meanwhile.
    finish_b = (reverse or _reverse_here)(rows, index, lengths, is_live, W_b, b_b, record)
    out_f, back_f = _direction(rows, index, lengths, is_live, W_f, b_f, False, record)
    out_b, back_b = finish_b()
    out = np.concatenate([out_f, out_b], axis=-1).reshape(T * B, 2 * hid)
    if not record:
        return out, None

    def backward(grad):
        grad = grad.reshape(T, B, 2 * hid)
        states = out.reshape(T, B, 2 * hid)
        finish_b = back_b(grad[:, :, hid:], order, states[:, :, hid:])
        dx, dw_f, db_f = back_f(grad[:, :, :hid], order, states[:, :, :hid])
        dx_b, dw_b, db_b = finish_b()
        # The two directions are added per position before one scatter of
        # the live positions, so each row's gradient sums its positions in
        # time-major order, as a scatter of the gathered rows' gradients would.
        dx += dx_b
        # Scattered element by element onto the raveled rows: np.add.at on
        # the 2-D operand takes about 4x as long for the same sums.
        D = rows.shape[1]
        d_rows = np.zeros_like(rows)
        np.add.at(d_rows.reshape(-1), (index[is_live][:, None] * D + np.arange(D)).reshape(-1),
                  dx.reshape(-1))
        return d_rows, dw_f, db_f, dw_b, db_b

    return out, backward
