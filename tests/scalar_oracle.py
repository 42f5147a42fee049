"""Independent scalar-loop reference for the policy forward pass.

Pure Python floats and math functions only: no numpy, no imports from
the tensor code paths. Deliberately written gate-by-gate and
position-by-position so it shares no structure with the vectorized
implementation it checks.
"""

from __future__ import annotations

import math


def sigmoid(v: float) -> float:
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def lstm_direction(xs: list[list[float]], W: list[list[float]], b: list[float],
                   hidden: int, reverse: bool) -> list[list[float]]:
    """Hidden state per position for one direction, zero initial state."""
    n = len(xs)
    h = [0.0] * hidden
    c = [0.0] * hidden
    out: list[list[float]] = [[] for _ in range(n)]
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        xh = list(xs[t]) + h
        z = [sum(W[r][k] * xh[k] for k in range(len(xh))) + b[r]
             for r in range(4 * hidden)]
        i_gate = [sigmoid(z[r]) for r in range(hidden)]
        f_gate = [sigmoid(z[hidden + r]) for r in range(hidden)]
        g_cand = [math.tanh(z[2 * hidden + r]) for r in range(hidden)]
        o_gate = [sigmoid(z[3 * hidden + r]) for r in range(hidden)]
        c = [f_gate[r] * c[r] + i_gate[r] * g_cand[r] for r in range(hidden)]
        h = [o_gate[r] * math.tanh(c[r]) for r in range(hidden)]
        out[t] = h
    return out


def bilstm_layer(xs: list[list[float]], fwd_W, fwd_b, bwd_W, bwd_b,
                 hidden: int) -> list[list[float]]:
    hf = lstm_direction(xs, fwd_W, fwd_b, hidden, reverse=False)
    hb = lstm_direction(xs, bwd_W, bwd_b, hidden, reverse=True)
    return [hf[t] + hb[t] for t in range(len(xs))]


def policy_forward(weights: dict, ids: list[int]) -> tuple[list[float], list[float]]:
    """Start and end logits per position.

    weights holds plain nested lists keyed like the package's named
    parameters: embedding, lstm1.fwd.W, lstm1.fwd.b, ..., head.start.w,
    head.end.w.
    """
    hidden = len(weights["lstm1.fwd.b"]) // 4
    xs = [list(weights["embedding"][i]) for i in ids]
    layer1 = bilstm_layer(xs, weights["lstm1.fwd.W"], weights["lstm1.fwd.b"],
                          weights["lstm1.bwd.W"], weights["lstm1.bwd.b"], hidden)
    layer2 = bilstm_layer(layer1, weights["lstm2.fwd.W"], weights["lstm2.fwd.b"],
                          weights["lstm2.bwd.W"], weights["lstm2.bwd.b"], hidden)
    start = [sum(w * h for w, h in zip(weights["head.start.w"], state)) for state in layer2]
    end = [sum(w * h for w, h in zip(weights["head.end.w"], state)) for state in layer2]
    return start, end


def weights_from_params(params) -> dict:
    """Extract plain Python lists from a PolicyParams."""
    out = {}
    for name, tensor in params.named_parameters():
        value = tensor.data.tolist()
        out[name] = value
    return out
