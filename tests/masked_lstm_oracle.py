"""Reference LSTM sequence op: every step runs over all B rows of the batch.

This is the masked single-direction formulation that the package's
live-row LSTM replaced. Each step computes all rows, live or padded, and
then multiplies h and c by a 0/1 step mask, so padded rows keep zero
state and zero output. Its backward is the plain BPTT loop with the gate
factors rebuilt per step. Tests compare each direction of the package's
`bilstm_sequence` against it: forward values bit for bit, gradients to
within rounding.
"""

import numpy as np

from maskpolicy.autodiff import Tensor, _wrap, grad_enabled


def _activate_gates_(z, hid):
    """Pre-activations (B, 4H) -> [i, f, g, o] activations, in place, with
    sigmoid(a) = (1 + tanh(a/2))/2 on the i, f and o blocks."""
    sig_if, sig_o = z[:, :2 * hid], z[:, 3 * hid:]
    sig_if *= 0.5
    sig_o *= 0.5
    np.tanh(z, out=z)
    for s in (sig_if, sig_o):
        s *= 0.5
        s += 0.5


def _step_mask(lengths, T):
    """(T, B, 1) float mask: 1 at real steps, 0 at padding."""
    return (np.arange(T)[:, None] < lengths[None, :]).astype(np.float64)[:, :, None]


def lstm_sequence(x, lengths, params, reverse=False):
    """Hidden state at every step of one direction: (T, B, D) -> (T, B, H)."""
    hid = params.hidden_size
    W, b = params.W, params.b
    T, B, D = x.shape
    lengths = np.asarray(lengths, dtype=np.intp)

    w_x = W.data[:, :D]
    w_h = W.data[:, D:]
    w_h_t = np.ascontiguousarray(w_h.T)
    mask = _step_mask(lengths, T)
    record = grad_enabled() and (x.requires_grad or W.requires_grad or b.requires_grad)

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
