"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array plus an optional gradient. Each operation
records its input nodes and a backward rule on its output node, so a
forward pass builds an implicit acyclic tape. backward() linearizes the
tape in topological order and accumulates gradients into every node that
requires them. backward() consumes the tape as it goes: once a node's
rule has run, the node drops its rule, its parents and, unless it is a
leaf, its gradient, so the memory each rule holds is freed as soon as
it is spent. One backward per forward, then: a second backward over a
consumed node raises a ConsumedTapeError instead of silently returning
no gradients, and a training step holds one step's tape at a time.

Everything is float64. Op outputs are checked finite on creation, so a
NaN or Inf surfaces at the op that produced it instead of poisoning the
rest of the pass. An op records only when a parent requires a gradient:
inference builds no tape by passing no such parent, so each call, not
the process, decides, and threads may train and score at once.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConsumedTapeError, NonFiniteError, NonScalarLossError, ShapeMismatchError

class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite value in tensor of shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Pickling drops tape links; only leaf tensors (parameters) travel
    # between processes.
    def __getstate__(self):
        return (self.data, self.requires_grad)

    def __setstate__(self, state):
        self.data, self.requires_grad = state
        self.grad = None
        self._parents = ()
        self._backward = None


def _wrap(out_data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(out_data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


# --- elementwise ----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError("add", a.shape, b.shape)

    # one array per parent, as each may become a .grad scaled in place
    def backward(g):
        return g, g.copy()

    return _wrap(a.data + b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        return (g * s,)

    return _wrap(a.data * s, (a,), backward)


# --- backward pass ----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad ancestor of a scalar loss."""
    if loss.data.size != 1:
        raise NonScalarLossError(f"loss has shape {loss.shape}, expected a scalar")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        for p, g in zip(node._parents, grads):
            if g is None or not p.requires_grad:
                continue
            if not np.isfinite(g).all():
                raise NonFiniteError("non-finite gradient in backward pass")
            p.grad = g if p.grad is None else p.grad + g
        # The rule has run: drop what it holds and the gradient it passed on.
        node._backward, node._parents, node.grad = _consumed, (), None


def _consumed(g):
    """The rule of a node whose rule an earlier backward already ran."""
    raise ConsumedTapeError("backward through a tape that an earlier backward consumed; "
                            "run the forward again")


# --- gradient checking --------------------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare backward() gradients of f against central finite differences.

    f must be a deterministic closure over params that returns a scalar
    Tensor. Returns the max relative error over all parameter components,
    with denominator max(1, |analytic|, |numeric|). Parameter values are
    restored before returning.
    """
    for p in params:
        p.zero_grad()
    out = f()
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        # Perturb p.data in place: a reshaped copy of a non-contiguous
        # array would leave f unchanged.
        data = p.data
        for idx in np.ndindex(data.shape):
            orig = data[idx]
            data[idx] = orig + eps
            f_plus = f().item()
            data[idx] = orig - eps
            f_minus = f().item()
            data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(a[idx] - numeric) / max(1.0, abs(a[idx]), abs(numeric))
            if rel > worst:
                worst = rel
    return worst


def clip_grad_norm(grads: Sequence[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.
    Every gradient must be an array: when the clip fires, a non-array
    gradient raises TypeError instead of counting in the norm unscaled.

    Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = total ** 0.5
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads:
            np.multiply(g, factor, out=g)
    return norm
