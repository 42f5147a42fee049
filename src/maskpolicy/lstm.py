"""Bidirectional LSTM layers as whole-sequence ops on the autodiff tape.

A batch is time-major and zero-padded: x has shape (T, B, D), and row b
holds lengths[b] real steps followed by padding. One direction of one
layer over the whole batch is a single op, `lstm_sequence`, which
returns the hidden state of every step as a (T, B, H) tensor.

Gate layout inside the fused weight matrix W (4H, D + H) is fixed as
rows [input, forget, candidate, output], each block of H rows:

    z = W @ [x; h] + b
    i = sigmoid(z[0:H])     f = sigmoid(z[H:2H])
    g = tanh(z[2H:3H])      o = sigmoid(z[3H:4H])
    c' = f * c + i * g      h' = o * tanh(c')

W is split at call time into its x columns W_x (4H, D) and h columns
W_h (4H, H). As in cuDNN (Appleyard et al., arXiv 1604.01946), the
input projections x_t @ W_x^T + b are one GEMM before the loop, and
only h @ W_h^T and the gate math run per step. The GEMM runs over all
T*B rows of x, or, when the input is given as U distinct rows plus a
(T, B) index into them, over those U rows once: each step then gathers
its live rows' pre-activations from the (U, 4H) table, so a row that
repeats in the batch, the padding's row included, is projected once.
That form exists for embedded tokens, which repeat, and runs only
without a tape: a taped version would need a segmented-sum backward,
and training batches hold few repeats.

The op computes sigmoid(a) as (1 + tanh(a/2))/2, which is bounded for
every input. The halving is folded into the weights: the i, f and o
rows of W_x, W_h and b are scaled by 1/2 once per call, which is exact
for a power of two, so each step runs one tanh over all four gates and
then one scale and one offset, and its values are bit for bit those of
halving the pre-activations.

The forward direction runs t = 0..T-1 and the reverse direction
t = T-1..0. The caller sorts the rows by length, longest first, and the
op rejects lengths that increase anywhere, so the rows live at step t
are a prefix [:live[t]] of the batch in either direction. A step runs
its GEMM and gate math on that prefix only. Rows outside it keep zero
state and zero output, so the reverse direction of every row starts
from zero state at its own last real step, and outputs at padded steps
are zero.

On the tape the op is one node with a hand-derived backward (BPTT).
Every gate factor that does not depend on the carried dh and dc is
computed for all steps at once before the reverse loop; the loop then
updates dc, writes the pre-activation gradients dz_t of the live rows
and carries dh = dz_t @ W_h. dW, db and dx are each one or two GEMMs or
one sum over all T*B rows. Under no_grad, or when nothing needs a
gradient, the op keeps no per-step state. Every op output is checked
finite once, when its Tensor is created.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _wrap, concat, grad_enabled
from .errors import MaskPolicyError, ShapeMismatchError


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


def lstm_sequence(x: Tensor, lengths, params: LstmCellParams, reverse: bool = False,
                  index=None) -> Tensor:
    """Hidden state at every step of one direction: (T, B, D) -> (T, B, H).

    The rows come longest first: lengths must not increase from one row
    to the next. Steps at or past lengths[b] are padding: they neither
    read nor write row b's state, and their outputs are zero.

    With `index`, x holds U distinct input rows (U, D) and index is a
    (T, B) integer array naming the row each position reads; the output
    equals that of x[index], bit for bit. This form records no tape, so
    it is rejected when a gradient would be needed."""
    hid = params.hidden_size
    W, b = params.W, params.b
    if W.ndim != 2 or W.shape[0] % 4 or b.shape != (W.shape[0],):
        raise ShapeMismatchError("lstm_sequence(W vs b)", W.shape, b.shape)
    if x.ndim != (3 if index is None else 2) or x.shape[-1] != params.input_size:
        raise ShapeMismatchError("lstm_sequence(x vs W)", x.shape, W.shape)
    if index is None:
        T, B, D = x.shape
    else:
        index = np.asarray(index, dtype=np.intp)
        if index.ndim != 2 or index.size and (index.min() < 0 or index.max() >= x.shape[0]):
            raise ShapeMismatchError(f"lstm_sequence(index within [0, {x.shape[0]}))",
                                     index.shape, x.shape)
        (T, B), D = index.shape, x.shape[1]
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (B,) or B == 0 or lengths.min() < 0 or lengths.max() > T:
        raise ShapeMismatchError(f"lstm_sequence(lengths within [0, {T}])", lengths.shape, (T, B))
    if np.any(lengths[1:] > lengths[:-1]):
        raise ShapeMismatchError("lstm_sequence(lengths longest first)", lengths.shape, (T, B))
    record = grad_enabled() and (x.requires_grad or W.requires_grad or b.requires_grad)
    if record and index is not None:
        raise MaskPolicyError("lstm_sequence with an index of distinct rows records no tape; "
                              "gather the rows or run under no_grad")

    # Rows come longest first, so the rows live at step t are the prefix [:live[t]].
    live = np.count_nonzero(lengths > np.arange(T)[:, None], axis=1).tolist()

    scale, offset = _sigmoid_fold(hid)
    w_x = W.data[:, :D] * scale[:, None]
    w_h_t = np.ascontiguousarray(W.data[:, D:].T)
    w_h_t *= scale

    if index is None:
        # Pre-activations of every step; each step's live rows are turned into
        # their gate activations in place, so afterwards this array holds the gates.
        gates = (x.data.reshape(T * B, D) @ w_x.T).reshape(T, B, 4 * hid)
        gates += b.data * scale
    else:
        # Pre-activations of each distinct row. A product of one or two rows
        # rounds differently from a wider one (see the loop), so the rows are
        # padded with a repeat to as many as T*B gathered rows would give, up
        # to three; from three rows on, a row's values do not depend on how
        # many share its product.
        rows = x.data
        short = min(3, T * B) - len(rows)
        if short > 0:
            rows = np.concatenate([rows, np.repeat(rows[:1], short, axis=0)])
        table = rows @ w_x.T
        table += b.data * scale
    out = np.zeros((T, B, hid))
    cells = np.zeros((T, B, hid)) if record else None
    tanh_cells = np.zeros((T, B, hid)) if record else None
    c_state = np.zeros((B, hid))
    prev = None
    for t in range(T - 1, -1, -1) if reverse else range(T):
        n = live[t]
        if not n:
            continue
        if index is None:
            z = gates[t, :n]
        else:
            z = table[index[t, :n]]
        if prev is not None:
            # numpy runs a one-row product through gemv, which rounds
            # differently from gemm; a lone live row of a wider batch rides in
            # a two-row gemm, so no row's values depend on how many are live.
            rows = 2 if n == 1 < B else n
            z += (out[prev, :rows] @ w_h_t)[:n]
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
        return Tensor(out)
    if lengths[-1] < T:
        # Padded steps hold pre-activations of padding input; zero them so
        # every gate factor below is zero there.
        gates[np.arange(T)[:, None] >= lengths] = 0.0

    def backward(grad):
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
        w_h = W.data[:, D:]
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
        d_w = np.concatenate([dz_rows.T @ x.data.reshape(T * B, D),
                              dz_h.reshape(-1, 4 * hid).T @ h_in.reshape(-1, hid)], axis=1)
        dx = (dz_rows @ W.data[:, :D]).reshape(T, B, D)
        return dx, d_w, dz_rows.sum(axis=0)

    return _wrap(out, (x, W, b), backward)


def bilstm_sequence(x: Tensor, lengths, fwd: LstmCellParams, bwd: LstmCellParams,
                    index=None) -> Tensor:
    """Bidirectional layer, (T, B, D) -> (T, B, 2H): per step, the forward
    state followed by the reverse state. `index` is as in lstm_sequence."""
    return concat([lstm_sequence(x, lengths, fwd, index=index),
                   lstm_sequence(x, lengths, bwd, reverse=True, index=index)])
