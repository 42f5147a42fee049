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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .autodiff import Tensor, add, embed_rows, matmul, no_grad
from .corpus import Chunk, Span
from .errors import (
    EmptySequenceError,
    InvalidOptionError,
    MaskPolicyError,
    NoCandidatesError,
    SequenceTooLongError,
    ShapeMismatchError,
)
from .lstm import LstmCellParams, bilstm_sequence

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
    checkpoint order. Without the biases, this is also the order in which
    init_policy_params draws from its RNG."""
    shapes = {"embedding": (vocab_size, d_emb)}
    for layer, d_in in (("lstm1", d_emb), ("lstm2", 2 * d_h)):
        for direction in ("fwd", "bwd"):
            shapes[f"{layer}.{direction}.W"] = (4 * d_h, d_in + d_h)
            shapes[f"{layer}.{direction}.b"] = (4 * d_h,)
    for head in ("start", "end"):
        shapes[f"head.{head}.w"] = (2 * d_h,)
        shapes[f"head.{head}.b"] = ()
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
        embedding (vocab_size, d_emb) and the first LSTM bias (4 * d_h)."""
        names = set(param_shapes(0, 0, 0))
        if set(arrays) != names:
            raise MaskPolicyError(f"policy parameters malformed (missing={names - set(arrays)}, "
                                  f"extra={set(arrays) - names})")
        if np.ndim(arrays["embedding"]) != 2:
            raise MaskPolicyError(f"parameter 'embedding' has shape "
                                  f"{np.shape(arrays['embedding'])}, expected (vocab_size, d_emb)")
        shapes = param_shapes(*np.shape(arrays["embedding"]), np.size(arrays["lstm1.fwd.b"]) // 4)
        for name, shape in shapes.items():
            if np.shape(arrays[name]) != shape:
                raise MaskPolicyError(f"parameter {name!r} has shape "
                                      f"{np.shape(arrays[name])}, expected {shape}")
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

    def cell(self, prefix: str) -> LstmCellParams:
        """The weights of one LSTM layer-direction, e.g. "lstm1.fwd"."""
        return LstmCellParams(W=self.tensors[f"{prefix}.W"], b=self.tensors[f"{prefix}.b"])

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def zero_grads(self) -> None:
        for p in self.tensors.values():
            p.zero_grad()

    def clone(self) -> "PolicyParams":
        return PolicyParams.from_arrays({name: t.data.copy() for name, t in self.tensors.items()})


def init_policy_params(vocab_size: int, d_emb: int, d_h: int, seed: int = 0) -> PolicyParams:
    """Random init in param_shapes order: embeddings uniform +-0.1, other
    weights uniform +-1/sqrt(size of their last axis), biases zero."""
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


def _batch_logits(params: PolicyParams, seqs: list[list[int]]) -> tuple[Tensor, Tensor]:
    """Start and end logits of a padded batch, each flat (T*B,) in
    time-major order. The sequences come longest first. Logits at padded
    positions are meaningless.

    The first layer reads each distinct id of the padded batch once: it
    gets those embedding rows plus the (T, B) index into them, so a token
    repeated in the batch is embedded and projected once, and its
    gradient is scattered back once. The second layer reads the first
    layer's T*B output rows in order. The same path runs on the tape and
    off it."""
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    T, B = int(lengths.max()), len(seqs)
    ids = np.zeros((T, B), dtype=np.intp)
    for b, seq in enumerate(seqs):
        ids[:len(seq), b] = seq
    distinct, inverse = np.unique(ids, return_inverse=True)
    layer1 = bilstm_sequence(embed_rows(params.embedding, distinct), inverse.reshape(T, B),
                             lengths, params.cell("lstm1.fwd"), params.cell("lstm1.bwd"))
    hidden = bilstm_sequence(layer1, np.arange(T * B).reshape(T, B), lengths,
                             params.cell("lstm2.fwd"), params.cell("lstm2.bwd"))
    weights = params.tensors
    start_logits = add(matmul(hidden, weights["head.start.w"]), weights["head.start.b"])
    end_logits = add(matmul(hidden, weights["head.end.w"]), weights["head.end.b"])
    return start_logits, end_logits


def forward(params: PolicyParams, ids, max_input_len: int = DEFAULT_MAX_INPUT_LEN
            ) -> tuple[Tensor, Tensor]:
    """Per-position start and end logits for a token id sequence."""
    return _batch_logits(params, [_checked_ids(params, ids, max_input_len)])


def score_batch(params: PolicyParams, batch, max_input_len: int = DEFAULT_MAX_INPUT_LEN
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inference-only forward over several id sequences at once, as one
    padded batch with no tape. The sequences may come in any order: the
    batch is sorted once, longest first (a stable sort), as the LSTM op
    requires. The first layer embeds and projects each distinct id of the
    batch once (see _batch_logits), as the taped forward does. Its
    projection's rows may round differently with the number of distinct
    ids, so a sequence's logits can depend on what else is in its batch:
    with OpenBLAS 0.3.31 they do not at d_emb <= 24 or d_emb = 128, but
    they can at 32-96 (the table in lstm.py). Returns (start_logits,
    end_logits) per sequence, in input order, each as long as its
    sequence."""
    seqs = [_checked_ids(params, ids, max_input_len) for ids in batch]
    if not seqs:
        return []
    order = np.argsort([-len(s) for s in seqs], kind="stable")
    with no_grad():
        start_logits, end_logits = _batch_logits(params, [seqs[b] for b in order])
    B = len(seqs)
    start = start_logits.data.reshape(-1, B)
    end = end_logits.data.reshape(-1, B)
    column = np.argsort(order)  # input row b is column column[b] of the logits
    return [(start[:len(s), c].copy(), end[:len(s), c].copy())
            for s, c in zip(seqs, column.tolist())]


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
    ranked by start_logits[i] + end_logits[j]; ties prefer smaller i,
    then smaller j. Fewer than k are returned only when fewer exist."""
    start = np.asarray(getattr(start_logits, "data", start_logits), dtype=np.float64)
    end = np.asarray(getattr(end_logits, "data", end_logits), dtype=np.float64)
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
