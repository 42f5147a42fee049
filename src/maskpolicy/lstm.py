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
input projections x_t @ W_x^T + b of all T*B rows are one GEMM before
the loop, and only h @ W_h^T and the gate math run per step.

The forward direction runs t = 0..T-1 and the reverse direction
t = T-1..0. After each step, h and c are multiplied by a 0/1 mask, so
state stays zero past a row's end: the reverse direction of every row
starts from zero state at its own last real step, and outputs at padded
steps are zero.

On the tape the op is one node with a hand-derived backward (BPTT): a
reverse loop over steps computes the pre-activation gradients dz_t and
carries dh and dc; then dW, db and dx are each one GEMM or one sum over
all T*B rows. Under no_grad, or when nothing needs a gradient, the op
keeps no per-step state. Every op output is checked finite once, when
its Tensor is created.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _wrap, concat, grad_enabled
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


def _activate_gates_(z: np.ndarray, hid: int) -> None:
    """Pre-activations (B, 4H) -> [i, f, g, o] activations, in place.

    One tanh serves all four gates, with sigmoid(a) = (1 + tanh(a/2))/2
    on the i, f and o blocks; it is bounded for every input, and far
    cheaper than a sigmoid built from exp and log."""
    sig_if, sig_o = z[:, :2 * hid], z[:, 3 * hid:]
    sig_if *= 0.5
    sig_o *= 0.5
    np.tanh(z, out=z)
    for s in (sig_if, sig_o):
        s *= 0.5
        s += 0.5


def _step_mask(lengths: np.ndarray, T: int) -> np.ndarray:
    """(T, B, 1) float mask: 1 at real steps, 0 at padding."""
    return (np.arange(T)[:, None] < lengths[None, :]).astype(np.float64)[:, :, None]


def lstm_sequence(x: Tensor, lengths, params: LstmCellParams, reverse: bool = False) -> Tensor:
    """Hidden state at every step of one direction: (T, B, D) -> (T, B, H).

    Steps at or past lengths[b] are padding: they neither read nor write
    row b's state, and their outputs are zero."""
    hid = params.hidden_size
    W, b = params.W, params.b
    if W.ndim != 2 or W.shape[0] % 4 or b.shape != (W.shape[0],):
        raise ShapeMismatchError("lstm_sequence(W vs b)", W.shape, b.shape)
    if x.ndim != 3 or x.shape[2] != params.input_size:
        raise ShapeMismatchError("lstm_sequence(x vs W)", x.shape, W.shape)
    T, B, D = x.shape
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (B,) or B == 0 or lengths.min() < 0 or lengths.max() > T:
        raise ShapeMismatchError(f"lstm_sequence(lengths within [0, {T}])", lengths.shape, x.shape)

    w_x = W.data[:, :D]
    w_h = W.data[:, D:]
    w_h_t = np.ascontiguousarray(w_h.T)
    mask = _step_mask(lengths, T)
    record = grad_enabled() and (x.requires_grad or W.requires_grad or b.requires_grad)

    # Pre-activations of every step; each step's slice is turned into its
    # gate activations in place, so afterwards this array holds the gates.
    gates = (x.data.reshape(T * B, D) @ w_x.T).reshape(T, B, 4 * hid)
    gates += b.data
    out = np.empty((T, B, hid))
    cells = np.empty((T, B, hid)) if record else None
    tanh_cells = np.empty((T, B, hid)) if record else None
    h = np.zeros((B, hid))
    c = np.zeros((B, hid))
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        z = gates[t]
        z += h @ w_h_t
        _activate_gates_(z, hid)
        c = z[:, hid:2 * hid] * c + z[:, :hid] * z[:, 2 * hid:3 * hid]
        tc = np.tanh(c)
        h = z[:, 3 * hid:] * tc
        c *= mask[t]
        h *= mask[t]
        out[t] = h
        if record:
            cells[t] = c
            tanh_cells[t] = tc

    if not record:
        return Tensor(out)

    def backward(grad):
        d_gates = np.empty_like(gates)
        dh = np.zeros((B, hid))
        dc = np.zeros((B, hid))
        zeros = np.zeros((B, hid))
        back = range(T) if reverse else range(T - 1, -1, -1)
        for t in back:
            prev = t + 1 if reverse else t - 1
            c_prev = cells[prev] if 0 <= prev < T else zeros
            g_t = gates[t]
            i_g, f_g = g_t[:, :hid], g_t[:, hid:2 * hid]
            g_c, o_g = g_t[:, 2 * hid:3 * hid], g_t[:, 3 * hid:]
            tc = tanh_cells[t]
            dh = grad[t] + dh
            dh *= mask[t]
            dc *= mask[t]
            dc = dc + dh * o_g * (1.0 - tc * tc)
            dz = d_gates[t]
            dz[:, :hid] = dc * g_c * i_g * (1.0 - i_g)
            dz[:, hid:2 * hid] = dc * c_prev * f_g * (1.0 - f_g)
            dz[:, 2 * hid:3 * hid] = dc * i_g * (1.0 - g_c * g_c)
            dz[:, 3 * hid:] = dh * tc * o_g * (1.0 - o_g)
            dh = dz @ w_h
            dc = dc * f_g
        # State fed into each step: the previous step's output, zero at the start.
        h_prev = np.zeros_like(out)
        if reverse:
            h_prev[:-1] = out[1:]
        else:
            h_prev[1:] = out[:-1]
        dz_rows = d_gates.reshape(T * B, 4 * hid)
        xh = np.concatenate([x.data.reshape(T * B, D), h_prev.reshape(T * B, hid)], axis=1)
        dx = (dz_rows @ w_x).reshape(T, B, D)
        return dx, dz_rows.T @ xh, dz_rows.sum(axis=0)

    return _wrap(out, (x, W, b), backward)


def bilstm_sequence(x: Tensor, lengths, fwd: LstmCellParams, bwd: LstmCellParams) -> Tensor:
    """Bidirectional layer, (T, B, D) -> (T, B, 2H): per step, the forward
    state followed by the reverse state."""
    return concat([lstm_sequence(x, lengths, fwd),
                   lstm_sequence(x, lengths, bwd, reverse=True)])
