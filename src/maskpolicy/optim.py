"""SGD and Adam parameter updates.

Parameters are updated in place, keyed by name so optimizer state can
outlive any particular forward graph. Adam uses the standard
bias-corrected update with beta1=0.9, beta2=0.999, eps=1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import InvalidOptionError, ShapeMismatchError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    kind: str  # "sgd" | "adam"
    learning_rate: float
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def make_optimizer(kind: str, learning_rate: float) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise InvalidOptionError(f"unknown optimizer kind: {kind!r}")
    if learning_rate <= 0:
        raise InvalidOptionError(f"learning rate must be positive, got {learning_rate}")
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
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - ADAM_BETA1 ** state.step)
        v_hat = v / (1.0 - ADAM_BETA2 ** state.step)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
