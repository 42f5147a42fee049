"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array plus an optional gradient. Each operation
records its input nodes and a backward rule on its output node, so a
forward pass builds an implicit acyclic tape. backward() linearizes the
tape in topological order and accumulates gradients into every node that
requires them. The tape is rebuilt on every forward pass, which keeps
recurrent unrolling correct without retained-graph bookkeeping.

Everything is float64. Op outputs are checked finite on creation, so a
NaN or Inf surfaces at the op that produced it instead of poisoning the
rest of the pass. Inference code should run under no_grad() to skip tape
construction entirely.

Broadcasting is deliberately limited to "same shape, or one side is a
single element": that is all the model needs, and it keeps every
backward rule exact and obvious.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, NonScalarLossError, ShapeMismatchError

_F64 = np.dtype(np.float64)

_grad_enabled = True


def grad_enabled() -> bool:
    """Whether ops record onto the tape (False inside no_grad)."""
    return _grad_enabled


class no_grad:
    """Context manager that disables tape recording for its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _all_finite(arr: np.ndarray) -> bool:
    # Finite sum implies all elements finite; a non-finite sum can be
    # float overflow of finite values, so only then check elementwise.
    # That overflow is expected here, so it must not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        total = arr.sum()
    return bool(np.isfinite(total)) or bool(np.isfinite(arr).all())


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is np.ndarray and data.dtype == _F64:
            arr = data
        else:
            arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
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

    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor) else Tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def parameter(data, rng: np.random.Generator | None = None, scale_: float | None = None) -> Tensor:
    """Leaf tensor that accumulates gradients. With rng, data is a shape
    filled uniformly from (-scale_, scale_)."""
    if rng is not None:
        data = rng.uniform(-scale_, scale_, size=data)
    return Tensor(data, requires_grad=True)


def _wrap(out_data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Collapse a broadcast gradient back onto a single-element operand.
    if grad.shape == shape:
        return grad
    return np.sum(grad).reshape(shape)


# --- elementwise ----------------------------------------------------------

def _binary_shapes_ok(a: Tensor, b: Tensor) -> bool:
    return a.shape == b.shape or a.size == 1 or b.size == 1


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _binary_shapes_ok(a, b):
        raise ShapeMismatchError("add", a.shape, b.shape)

    def backward(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _wrap(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _binary_shapes_ok(a, b):
        raise ShapeMismatchError("mul", a.shape, b.shape)

    def backward(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _wrap(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        return (g * s,)

    return _wrap(a.data * s, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out_data * out_data),)

    return _wrap(out_data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # exp(-log(1+exp(-x))) is stable for both signs of x.
    out_data = np.exp(-np.logaddexp(0.0, -a.data))

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return _wrap(out_data, (a,), backward)


# --- linear algebra -------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    inner_a = ad.shape[-1]
    inner_b = bd.shape[0]
    if inner_a != inner_b:
        raise ShapeMismatchError("matmul", a.shape, b.shape)

    out_data = ad @ bd

    if ad.ndim == 2 and bd.ndim == 2:
        def backward(g):
            return g @ bd.T, ad.T @ g
    elif ad.ndim == 2 and bd.ndim == 1:
        def backward(g):
            return np.outer(g, bd), ad.T @ g
    elif ad.ndim == 1 and bd.ndim == 2:
        def backward(g):
            return bd @ g, np.outer(ad, g)
    else:  # 1D @ 1D -> scalar
        def backward(g):
            return g * bd, g * ad

    return _wrap(out_data, (a, b), backward)


# --- shape ops ------------------------------------------------------------

def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join along the last axis; all leading dimensions must agree."""
    if not tensors:
        raise ShapeMismatchError("concat", ())
    lead = tensors[0].shape[:-1]
    if any(t.ndim == 0 or t.shape[:-1] != lead for t in tensors):
        raise ShapeMismatchError("concat", *[t.shape for t in tensors])
    sizes = [t.shape[-1] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=-1))

    return _wrap(np.concatenate([t.data for t in tensors], axis=-1), tuple(tensors), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.size:
        raise ShapeMismatchError(f"reshape to {tuple(shape)}", a.shape)

    def backward(g):
        return (g.reshape(a.shape),)

    return _wrap(a.data.reshape(shape), (a,), backward)


def stack_rows(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ShapeMismatchError("stack_rows", ())
    n = tensors[0].size
    if any(t.ndim != 1 or t.size != n for t in tensors):
        raise ShapeMismatchError("stack_rows", *[t.shape for t in tensors])

    def backward(g):
        return tuple(g[i] for i in range(len(tensors)))

    return _wrap(np.stack([t.data for t in tensors]), tuple(tensors), backward)


def narrow(a: Tensor, start: int, length: int) -> Tensor:
    if a.ndim != 1 or start < 0 or start + length > a.size:
        raise ShapeMismatchError(f"narrow[{start}:{start + length}]", a.shape)

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:start + length] = g
        return (full,)

    return _wrap(a.data[start:start + length].copy(), (a,), backward)


def row(a: Tensor, i: int) -> Tensor:
    if a.ndim != 2 or not (0 <= i < a.shape[0]):
        raise ShapeMismatchError(f"row[{i}]", a.shape)

    def backward(g):
        full = np.zeros_like(a.data)
        full[i] = g
        return (full,)

    return _wrap(a.data[i].copy(), (a,), backward)


def pick(a: Tensor, i: int) -> Tensor:
    if a.ndim != 1 or not (0 <= i < a.size):
        raise ShapeMismatchError(f"pick[{i}]", a.shape)

    def backward(g):
        full = np.zeros_like(a.data)
        full[i] = g
        return (full,)

    return _wrap(a.data[i].copy(), (a,), backward)


def embed_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of a (V, d) table; gradients scatter-add back."""
    if table.ndim != 2:
        raise ShapeMismatchError("embed_rows", table.shape)
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0 or idx.min() < 0 or idx.max() >= table.shape[0]:
        raise ShapeMismatchError(f"embed_rows(ids within [0, {table.shape[0]}))", table.shape)

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _wrap(table.data[idx], (table,), backward)


# --- reductions and losses --------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        return (np.full(a.shape, float(g)),)

    return _wrap(np.sum(a.data), (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    if a.ndim != 1 or a.size == 0:
        raise ShapeMismatchError("log_softmax", a.shape)
    z = a.data - np.max(a.data)
    out_data = z - np.log(np.sum(np.exp(z)))

    def backward(g):
        return (g - np.exp(out_data) * np.sum(g),)

    return _wrap(out_data, (a,), backward)


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
            if not _all_finite(g):
                raise NonFiniteError("non-finite gradient in backward pass")
            p.grad = g if p.grad is None else p.grad + g


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
    with no_grad():
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = a.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = f().item()
                flat[i] = orig - eps
                f_minus = f().item()
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
                if rel > worst:
                    worst = rel
    return worst


def clip_grad_norm(grads: Sequence[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = total ** 0.5
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm
