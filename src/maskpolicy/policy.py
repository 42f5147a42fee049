"""Span-extraction masking policy: embedding, 2-layer bidirectional LSTM,
and linear start/end heads, plus ranked span inference.

The model scores every position as a possible span start and end. A
candidate span (i, j) is ranked by start_logits[i] + end_logits[j]; the
two heads are independent, so a hard max_span_len keeps the ranker from
pairing a strong start with a far-away strong end.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .autodiff import Tensor, _wrap
from .corpus import Chunk, Span
from .errors import (
    EmptySequenceError,
    InvalidOptionError,
    MaskPolicyError,
    NoCandidatesError,
    SequenceTooLongError,
    ShapeMismatchError,
)
from .lstm import bilstm_sequence

DEFAULT_MAX_INPUT_LEN = 128
DEFAULT_MAX_SPAN_LEN = 10
EMBED_INIT_BOUND = 0.1

# Sequences scored as one padded BiLSTM pass, by the learned deploy,
# validation and evaluation alike. At d = 128, one worker's throughput
# is flat from 16 to 64 chunks and half as high at 1 (sweep in
# CHANGES.md).
SCORE_BATCH = 32

# A proposer maps (chunk, k, rng) to at most k spans, best first; it is
# how evaluation sees a policy.
Proposer = Callable[[Chunk, int, np.random.Generator], list[Span]]

MODE_TOP1 = "top1"
MODE_TOP5 = "top5"
MODES = (MODE_TOP1, MODE_TOP5)
TOP5_POOL = 5


def param_shapes(vocab_size: int, d_emb: int, d_h: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every learned tensor, in named_parameters and
    checkpoint order. Without the LSTM biases, this is also the order in
    which init_policy_params draws from its RNG. The heads carry no bias:
    a constant added to every logit of a head changes neither its
    log-softmax loss nor the ranking of spans by start[i] + end[j]."""
    shapes = {"embedding": (vocab_size, d_emb)}
    for layer, d_in in (("lstm1", d_emb), ("lstm2", 2 * d_h)):
        for direction in ("fwd", "bwd"):
            shapes[f"{layer}.{direction}.W"] = (4 * d_h, d_in + d_h)
            shapes[f"{layer}.{direction}.b"] = (4 * d_h,)
    for head in ("start", "end"):
        shapes[f"head.{head}.w"] = (2 * d_h,)
    return shapes


@dataclass
class PolicyParams:
    """All learned weights by name, in param_shapes order. Leaf tensors
    with requires_grad set."""

    tensors: dict[str, Tensor]

    @classmethod
    def from_arrays(cls, arrays: dict) -> "PolicyParams":
        """Wrap `arrays` as leaf tensors. The names must be exactly those of
        param_shapes, and every shape must match the sizes read off the
        embedding (vocab_size, d_emb) and the first LSTM bias (4 * d_h),
        none of which may be 0."""
        names = set(param_shapes(0, 0, 0))
        if set(arrays) != names:
            raise MaskPolicyError(f"policy parameters malformed (missing={names - set(arrays)}, "
                                  f"extra={set(arrays) - names})")
        if np.ndim(arrays["embedding"]) != 2:
            raise MaskPolicyError(f"parameter 'embedding' has shape "
                                  f"{np.shape(arrays['embedding'])}, expected (vocab_size, d_emb)")
        sizes = (*np.shape(arrays["embedding"]), np.size(arrays["lstm1.fwd.b"]) // 4)
        shapes = param_shapes(*sizes)
        for name, shape in shapes.items():
            if np.shape(arrays[name]) != shape:
                raise MaskPolicyError(f"parameter {name!r} has shape "
                                      f"{np.shape(arrays[name])}, expected {shape}")
        _check_sizes(*sizes)
        return cls({name: Tensor(arrays[name], requires_grad=True) for name in shapes})

    @property
    def embedding(self) -> Tensor:
        return self.tensors["embedding"]

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def d_emb(self) -> int:
        return self.embedding.shape[1]

    @property
    def d_h(self) -> int:
        return self.tensors["lstm1.fwd.b"].shape[0] // 4

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def zero_grads(self) -> None:
        for p in self.tensors.values():
            p.zero_grad()

    def clone(self) -> "PolicyParams":
        return PolicyParams.from_arrays({name: t.data.copy() for name, t in self.tensors.items()})


def _check_sizes(vocab_size: int, d_emb: int, d_h: int) -> None:
    """Refuses a policy with no embedding rows, or a layer of no width."""
    if min(vocab_size, d_emb, d_h) < 1:
        raise InvalidOptionError(f"policy sizes must be >= 1, got vocab_size={vocab_size}, "
                                 f"d_emb={d_emb}, d_h={d_h}")


def init_policy_params(vocab_size: int, d_emb: int, d_h: int, seed: int = 0) -> PolicyParams:
    """Random init in param_shapes order: embeddings uniform +-0.1, other
    weights uniform +-1/sqrt(size of their last axis), LSTM biases zero."""
    _check_sizes(vocab_size, d_emb, d_h)
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(vocab_size, d_emb, d_h).items():
        if name.endswith(".b"):
            arrays[name] = np.zeros(shape)
        else:
            bound = EMBED_INIT_BOUND if name == "embedding" else 1.0 / float(np.sqrt(shape[-1]))
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    return PolicyParams.from_arrays(arrays)


def _checked_ids(params: PolicyParams, ids, max_input_len: int) -> list[int]:
    ids = list(ids)
    if len(ids) == 0:
        raise EmptySequenceError("policy forward on empty sequence")
    if len(ids) > max_input_len:
        raise SequenceTooLongError(f"sequence length {len(ids)} exceeds limit {max_input_len}")
    if min(ids) < 0 or max(ids) >= params.vocab_size:
        raise ShapeMismatchError("forward(ids)", (len(ids),), params.embedding.shape)
    return ids


def _head(hidden: Tensor, w: Tensor, lengths: list[int], order: list[int], record) -> Tensor:
    """One head's logits hidden @ w, flat (T*B,) like the hidden rows,
    on the tape if `record`. np.vecdot runs one dot product per row, so a
    row's logit does not depend on the other rows, on the tape or off it
    (a padded row's zero state gives 0, which no loss reads). The gradient
    of w adds the columns' own in `order`, each as in a batch of one."""
    B = len(lengths)
    states = hidden.data.reshape(-1, B, hidden.shape[1])

    def backward(g):
        g = g.reshape(-1, B)
        d_w = functools.reduce(operator.add, (states[:lengths[c], c].copy().T
                                              @ g[:lengths[c], c].copy() for c in order))
        return np.outer(g, w.data).reshape(hidden.shape), d_w

    return _wrap(np.vecdot(hidden.data, w.data), (hidden, w) if record else (), backward)


def forward_batch(params: PolicyParams, batch, max_input_len: int = DEFAULT_MAX_INPUT_LEN,
                  record: bool = True, reverse=None) -> tuple[Tensor, Tensor, list[int]]:
    """Start and end logits of several id sequences as one padded batch,
    plus each sequence's column in it. The batch is sorted once, longest
    first (a stable sort), as the LSTM op requires; the logits are flat
    (T*B,) in time-major order over the sorted batch, and those at padded
    positions are meaningless. With `record` the logits are on the tape;
    without it they have no parents and nothing is kept for a backward.
    `reverse` runs both layers' reverse directions (see bilstm_sequence);
    by default they run in this process.

    Layer 1 reads the distinct values of a (T, B) key over the padded
    ids, one row each. Off the tape the key is the id, so a token repeated
    in the batch is embedded and projected once. On the tape the key is
    (sequence, id), so each sequence reads its own distinct ids, in input
    order; as the LSTM op and the heads keep each column's weight
    gradients apart (see bilstm_sequence and _head), every gradient is the
    sum of the sequences' own, each as in a batch of that sequence alone,
    added in input order. A padded column may add a row for its padding's
    id 0, which no step reads. The embedding gather and both layers are
    one tape node, the hidden states; its backward runs layer 2's, drops
    it, runs layer 1's and scatter-adds onto the embedding's gradient."""
    seqs = [_checked_ids(params, ids, max_input_len) for ids in batch]
    if not seqs:
        raise EmptySequenceError("policy forward on an empty batch")
    order = np.argsort([-len(s) for s in seqs], kind="stable")
    columns = np.argsort(order).tolist()  # sequence b is column columns[b]
    lengths = [len(seqs[b]) for b in order]
    T, B = lengths[0], len(seqs)
    key = np.zeros((T, B), dtype=np.intp)
    for c, b in enumerate(order):
        key[:lengths[c], c] = seqs[b]
    if record:
        key += params.vocab_size * order
    distinct, index = np.unique(key, return_inverse=True)
    ids = distinct % params.vocab_size
    # The embedding, then lstm1's and lstm2's (W, b) forward and reverse.
    parents = [t for name, t in params.tensors.items() if not name.startswith("head.")]
    w = [p.data for p in parents]
    layer1, back1 = bilstm_sequence(w[0][ids], index.reshape(T, B), lengths, w[1:3], w[3:5],
                                    columns, record, reverse)
    layer2, back2 = bilstm_sequence(layer1, np.arange(T * B).reshape(T, B), lengths, w[5:7],
                                    w[7:9], columns, record, reverse)

    def backward(grad):
        nonlocal back2
        d_layer1, *d_lstm2 = back2(grad)
        back2 = None  # layer 2's recorded state goes before layer 1's backward
        d_rows, *d_lstm1 = back1(d_layer1)
        d_embedding = np.zeros_like(w[0])
        np.add.at(d_embedding, ids, d_rows)
        return d_embedding, *d_lstm1, *d_lstm2

    hidden = _wrap(layer2, parents if record else (), backward)
    start_logits, end_logits = (_head(hidden, params.tensors[f"head.{h}.w"], lengths, columns,
                                      record) for h in ("start", "end"))
    return start_logits, end_logits, columns


def forward(params: PolicyParams, ids, max_input_len: int = DEFAULT_MAX_INPUT_LEN
            ) -> tuple[Tensor, Tensor]:
    """Per-position start and end logits for a token id sequence."""
    start_logits, end_logits, _ = forward_batch(params, [ids], max_input_len, record=True)
    return start_logits, end_logits


def score_batch(params: PolicyParams, batch, max_input_len: int = DEFAULT_MAX_INPUT_LEN,
                reverse=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inference-only forward over several id sequences at once, as one
    padded batch with no tape (see forward_batch). Every product of the
    BiLSTM gives a row the same value for any number of rows, and each
    head is one dot product per row, so with OpenBLAS 0.3.31 a sequence's
    logits do not depend on what else is in its batch, or where. Returns
    (start_logits, end_logits) per sequence, in input order, each as long
    as its sequence. `reverse` runs the reverse directions, as in
    forward_batch."""
    seqs = [list(ids) for ids in batch]
    if not seqs:
        return []
    start_logits, end_logits, columns = forward_batch(params, seqs, max_input_len, record=False,
                                                      reverse=reverse)
    start = start_logits.data.reshape(-1, len(seqs))
    end = end_logits.data.reshape(-1, len(seqs))
    return [(start[:len(s), c].copy(), end[:len(s), c].copy()) for s, c in zip(seqs, columns)]


def score_batches(items: Iterable) -> Iterator[list]:
    """Consecutive batches of SCORE_BATCH items, the last possibly
    shorter, cut from `items` in order: the makeup of every batch, and
    with it every score, depends only on the order of the items."""
    items = iter(items)
    while batch := list(itertools.islice(items, SCORE_BATCH)):
        yield batch


def score_positions(params: PolicyParams, ids, max_input_len: int = DEFAULT_MAX_INPUT_LEN
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Inference-only forward of one sequence: plain arrays, no tape."""
    return score_batch(params, [ids], max_input_len)[0]


@dataclass(frozen=True)
class ScoredSpan:
    span: Span
    score: float


# (m, max_span_len) pairs whose span band is remembered. Deploying calls
# span_band once per chunk, and nearly every chunk has the full chunk
# length, so a few entries serve almost every call; at m = 128 and
# max_span_len = 10 an entry holds about 20 KB.
_SPAN_BAND_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_SPAN_BAND_CACHE_SIZE)
def span_band(m: int, max_span_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of every span (i, j) with i <= j < m and length at
    most max_span_len, row-major: by i, then by j. Memoised: the arrays
    are shared between calls, so they are read-only."""
    # The (m, max_span_len) band: row i, column w is the span (i, i + w).
    band = np.arange(m)[:, None] + np.arange(min(max_span_len, m)) < m
    i, w = np.nonzero(band)
    j = i + w
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def top_k_spans(start_logits, end_logits, k: int,
                max_span_len: int = DEFAULT_MAX_SPAN_LEN) -> list[ScoredSpan]:
    """The k best spans (i, j) with i <= j and length <= max_span_len,
    ranked by start_logits[i] + end_logits[j] (two 1-d arrays); ties
    prefer smaller i, then smaller j. Fewer than k are returned only when
    fewer exist."""
    start = np.asarray(start_logits, dtype=np.float64)
    end = np.asarray(end_logits, dtype=np.float64)
    if start.ndim != 1 or start.shape != end.shape:
        raise ShapeMismatchError("top_k_spans", start.shape, end.shape)
    m = start.size
    if m == 0:
        raise EmptySequenceError("top_k_spans on empty logits")
    if k < 1 or max_span_len < 1:
        raise InvalidOptionError(f"k and max_span_len must be >= 1, got k={k}, max_span_len={max_span_len}")

    i, j = span_band(m, max_span_len)
    score = start[i] + end[j]
    # The band is row-major, so a stable sort of the scores alone breaks
    # ties by i, then j.
    order = np.argsort(-score, kind="stable")[:k]
    return [ScoredSpan(Span(int(i[t]), int(j[t])), float(score[t])) for t in order]


def select_span(candidates: list[ScoredSpan], mode: str, rng: np.random.Generator) -> Span:
    """Deployment selection: the top span, or one sampled uniformly from
    the top five."""
    if not candidates:
        raise NoCandidatesError("no candidate spans to select from")
    if mode == MODE_TOP1:
        return candidates[0].span
    if mode == MODE_TOP5:
        pool = min(TOP5_POOL, len(candidates))
        return candidates[int(rng.integers(0, pool))].span
    raise InvalidOptionError(f"unknown selection mode: {mode!r}")
