"""Bidirectional LSTM layers as one whole-sequence op on the autodiff tape.

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

A GEMM's row can round differently with the number of rows in the
product, so the table may depend on U. With OpenBLAS 0.3.31 (Haswell
kernel), the rows of an (m, d) @ (d, 4d) product differ from the same
rows of a taller product for these m:

    d   8-24   32    48    64    96    128
    m   1      1-9   1-6   1-4   1-3   1-2

The rows are padded with a repeat to min(3, T*B), which makes the table
independent of U at d <= 24 and d = 128, but not in between.

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

On the tape a layer is one node with a hand-derived backward: BPTT
through each direction, then each position's two input gradients
added and scatter-added once onto the U rows. Every gate factor that
does not depend on the carried dh and dc is computed for all steps at
once before the reverse loop; the loop then updates dc, writes the
pre-activation gradients dz_t of the live rows and carries
dh = dz_t @ W_h. dW, db and dx are each one or two GEMMs or one sum over
all T*B positions. Under no_grad, or when nothing needs a gradient, the
op keeps no per-step state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _wrap, grad_enabled
from .errors import ShapeMismatchError


@dataclass
class LstmCellParams:
    W: Tensor  # (4*hidden, input_size + hidden)
    b: Tensor  # (4*hidden,)

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.W.shape[1] - self.hidden_size


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


def _direction(rows: np.ndarray, index: np.ndarray, live: list[int], params: LstmCellParams,
               reverse: bool, record: bool):
    """One direction of a layer in plain arrays: the hidden states (T, B, H)
    and, when recording, backward(grad, x), which maps their gradient
    (T, B, H) and the gathered input x (T*B, D) to (dx, dW, db), dx per
    position (T*B, D)."""
    (T, B), D = index.shape, rows.shape[1]
    hid = params.hidden_size
    W = params.W.data
    scale, offset = _sigmoid_fold(hid)
    w_x = W[:, :D] * scale[:, None]
    w_h_t = np.ascontiguousarray(W[:, D:].T)
    w_h_t *= scale

    # Pre-activations of each row, padded with a repeat to at least the
    # min(3, T*B) rows a product over every position would have (see the
    # module docstring).
    short = min(3, T * B) - len(rows)
    if short > 0:
        rows = np.concatenate([rows, np.repeat(rows[:1], short, axis=0)])
    table = rows @ w_x.T
    table += params.b.data * scale
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
            # numpy runs a one-row product through gemv, which rounds
            # differently from gemm; a lone live row of a wider batch rides in
            # a two-row gemm, so no row's values depend on how many are live.
            m = 2 if n == 1 < B else n
            z += (out[prev, :m] @ w_h_t)[:n]
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

    def backward(grad, x):
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

        d_gates = np.zeros((T, B, 4 * hid))
        dz4 = d_gates.reshape(T, B, 4, hid)
        w_h = W[:, D:]
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
            np.matmul(d_gates[t, :n], w_h, out=dh)
            dc *= f_g[t, :n]
        # Each step's state input is the neighbouring step's output; the
        # first step of a direction reads zero state and adds nothing to dW_h.
        dz_h, h_in = (d_gates[:-1], out[1:]) if reverse else (d_gates[1:], out[:-1])
        dz_rows = d_gates.reshape(T * B, 4 * hid)
        d_w = np.concatenate([dz_rows.T @ x,
                              dz_h.reshape(-1, 4 * hid).T @ h_in.reshape(-1, hid)], axis=1)
        return dz_rows @ W[:, :D], d_w, dz_rows.sum(axis=0)

    return out, backward


def bilstm_sequence(rows: Tensor, index, lengths, fwd: LstmCellParams,
                    bwd: LstmCellParams) -> Tensor:
    """One bidirectional layer: U input rows (U, D) read through a (T, B)
    index -> (T*B, 2H) time-major rows, each the forward state followed by
    the reverse state.

    The batch's rows come longest first: lengths must not increase from
    one row to the next. Steps at or past lengths[b] are padding: they
    neither read nor write row b's state, and their outputs are zero."""
    hid = fwd.hidden_size
    for cell in (fwd, bwd):
        W, b = cell.W, cell.b
        if W.ndim != 2 or W.shape[0] % 4 or b.shape != (W.shape[0],) or W.shape != fwd.W.shape:
            raise ShapeMismatchError("bilstm_sequence(W vs b vs forward W)", W.shape, b.shape,
                                     fwd.W.shape)
    if rows.ndim != 2 or rows.shape[1] != fwd.input_size:
        raise ShapeMismatchError("bilstm_sequence(rows vs W)", rows.shape, fwd.W.shape)
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
    parents = (rows, fwd.W, fwd.b, bwd.W, bwd.b)
    record = grad_enabled() and any(p.requires_grad for p in parents)

    # Rows come longest first, so the rows live at step t are the prefix [:live[t]].
    live = np.count_nonzero(lengths > np.arange(T)[:, None], axis=1).tolist()
    out_f, back_f = _direction(rows.data, index, live, fwd, False, record)
    out_b, back_b = _direction(rows.data, index, live, bwd, True, record)
    out = np.concatenate([out_f, out_b], axis=-1).reshape(T * B, 2 * hid)
    if not record:
        return Tensor(out)

    def backward(grad):
        grad = grad.reshape(T, B, 2 * hid)
        flat = index.reshape(-1)
        x = rows.data[flat]
        dx, dw_f, db_f = back_f(grad[:, :, :hid], x)
        dx_b, dw_b, db_b = back_b(grad[:, :, hid:], x)
        # The two directions are added per position before one scatter, so
        # each row's gradient sums its positions in order, as a scatter of
        # the gathered rows' gradients would.
        dx += dx_b
        # Scattered element by element onto the raveled rows: np.add.at on
        # the 2-D operand takes about 4x as long for the same sums.
        D = rows.shape[1]
        d_rows = np.zeros_like(rows.data)
        np.add.at(d_rows.reshape(-1), (flat[:, None] * D + np.arange(D)).reshape(-1),
                  dx.reshape(-1))
        return d_rows, dw_f, db_f, dw_b, db_b

    return _wrap(out, parents, backward)
