"""SGD and Adam parameter updates.

Parameters and Adam's moments are updated in place, keyed by name so
optimizer state can outlive any particular forward graph. Adam uses the
standard bias-corrected update with beta1=0.9, beta2=0.999, eps=1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import InvalidOptionError, ShapeMismatchError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OPTIMIZERS = ("sgd", "adam")


@dataclass
class OptimizerState:
    kind: str  # one of OPTIMIZERS
    learning_rate: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def make_optimizer(kind: str, learning_rate: float) -> OptimizerState:
    if kind not in OPTIMIZERS:
        raise InvalidOptionError(f"unknown optimizer kind: {kind!r}")
    if not 0 < learning_rate < math.inf:
        raise InvalidOptionError(f"learning_rate must be finite and positive, got {learning_rate}")
    return OptimizerState(kind=kind, learning_rate=learning_rate)


def optimizer_step(state: OptimizerState, params: list[tuple[str, Tensor]]) -> None:
    """Apply one update in place from each tensor's .grad; a missing
    gradient counts as zero."""
    state.step += 1
    lr = state.learning_rate
    for name, p in params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeMismatchError(f"optimizer_step[{name}]", g.shape, p.data.shape)
        if state.kind == "sgd":
            p.data -= lr * g
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        # Moments and step in place, in the operation order of the textbook
        # p -= lr * m_hat / (sqrt(v_hat) + eps), so they match it bit for bit.
        step, den = np.empty_like(m), np.empty_like(v)
        np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        np.multiply(g, g, out=den)
        m *= ADAM_BETA1
        m += step
        den *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += den
        np.divide(m, 1.0 - ADAM_BETA1 ** state.step, out=step)
        step *= lr
        np.divide(v, 1.0 - ADAM_BETA2 ** state.step, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        p.data -= step
