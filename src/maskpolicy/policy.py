"""Span-extraction masking policy: embedding, 2-layer bidirectional LSTM,
and linear start/end heads, plus ranked span inference.

The model scores every position as a possible span start and end. A
candidate span (i, j) is ranked by start_logits[i] + end_logits[j]; the
two heads are independent, so a hard max_span_len keeps the ranker from
pairing a strong start with a far-away strong end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, embed_rows, matmul, no_grad, reshape
from .corpus import Span
from .errors import (
    EmptySequenceError,
    NoCandidatesError,
    SequenceTooLongError,
    ShapeMismatchError,
)
from .lstm import LstmCellParams, bilstm_sequence, init_lstm_params

DEFAULT_MAX_INPUT_LEN = 128
DEFAULT_MAX_SPAN_LEN = 10
EMBED_INIT_BOUND = 0.1

MODE_TOP1 = "top1"
MODE_TOP5 = "top5"
TOP5_POOL = 5


@dataclass
class PolicyParams:
    """All learned weights. Leaf tensors with requires_grad set."""

    embedding: Tensor  # (vocab_size, d_emb)
    lstm1_fwd: LstmCellParams
    lstm1_bwd: LstmCellParams
    lstm2_fwd: LstmCellParams
    lstm2_bwd: LstmCellParams
    w_start: Tensor  # (2*d_h,)
    b_start: Tensor  # scalar
    w_end: Tensor  # (2*d_h,)
    b_end: Tensor  # scalar

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def d_emb(self) -> int:
        return self.embedding.shape[1]

    @property
    def d_h(self) -> int:
        return self.lstm1_fwd.hidden_size

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding)]
        out += self.lstm1_fwd.named("lstm1.fwd")
        out += self.lstm1_bwd.named("lstm1.bwd")
        out += self.lstm2_fwd.named("lstm2.fwd")
        out += self.lstm2_bwd.named("lstm2.bwd")
        out += [("head.start.w", self.w_start), ("head.start.b", self.b_start),
                ("head.end.w", self.w_end), ("head.end.b", self.b_end)]
        return out

    def zero_grads(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def clone(self) -> "PolicyParams":
        def cp(t: Tensor) -> Tensor:
            return Tensor(t.data.copy(), requires_grad=True)

        def cc(c: LstmCellParams) -> LstmCellParams:
            return LstmCellParams(W=cp(c.W), b=cp(c.b))

        return PolicyParams(
            embedding=cp(self.embedding),
            lstm1_fwd=cc(self.lstm1_fwd), lstm1_bwd=cc(self.lstm1_bwd),
            lstm2_fwd=cc(self.lstm2_fwd), lstm2_bwd=cc(self.lstm2_bwd),
            w_start=cp(self.w_start), b_start=cp(self.b_start),
            w_end=cp(self.w_end), b_end=cp(self.b_end),
        )


def init_policy_params(vocab_size: int, d_emb: int, d_h: int, seed: int = 0) -> PolicyParams:
    """Random init; embeddings uniform +-0.1, with a checkpoint field
    reserved for swapping in externally trained embeddings later."""
    rng = np.random.default_rng(seed)
    embedding = Tensor(rng.uniform(-EMBED_INIT_BOUND, EMBED_INIT_BOUND, size=(vocab_size, d_emb)),
                       requires_grad=True)
    lstm1_fwd = init_lstm_params(rng, d_emb, d_h)
    lstm1_bwd = init_lstm_params(rng, d_emb, d_h)
    lstm2_fwd = init_lstm_params(rng, 2 * d_h, d_h)
    lstm2_bwd = init_lstm_params(rng, 2 * d_h, d_h)
    head_bound = 1.0 / float(np.sqrt(2 * d_h))
    w_start = Tensor(rng.uniform(-head_bound, head_bound, size=2 * d_h), requires_grad=True)
    w_end = Tensor(rng.uniform(-head_bound, head_bound, size=2 * d_h), requires_grad=True)
    b_start = Tensor(0.0, requires_grad=True)
    b_end = Tensor(0.0, requires_grad=True)
    return PolicyParams(embedding, lstm1_fwd, lstm1_bwd, lstm2_fwd, lstm2_bwd,
                        w_start, b_start, w_end, b_end)


def _checked_ids(params: PolicyParams, ids, max_input_len: int) -> list[int]:
    ids = list(ids)
    if len(ids) == 0:
        raise EmptySequenceError("policy forward on empty sequence")
    if len(ids) > max_input_len:
        raise SequenceTooLongError(f"sequence length {len(ids)} exceeds limit {max_input_len}")
    if any(i < 0 or i >= params.vocab_size for i in ids):
        raise ShapeMismatchError("forward(ids)", (len(ids),), params.embedding.shape)
    return ids


def _batch_logits(params: PolicyParams, seqs: list[list[int]]) -> tuple[Tensor, Tensor]:
    """Start and end logits of a padded batch, each flat (T*B,) in
    time-major order. Logits at padded positions are meaningless."""
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    T, B = int(lengths.max()), len(seqs)
    ids = np.zeros((T, B), dtype=np.intp)
    for b, seq in enumerate(seqs):
        ids[:len(seq), b] = seq
    embedded = reshape(embed_rows(params.embedding, ids.reshape(-1)), (T, B, params.d_emb))
    layer1 = bilstm_sequence(embedded, lengths, params.lstm1_fwd, params.lstm1_bwd)
    layer2 = bilstm_sequence(layer1, lengths, params.lstm2_fwd, params.lstm2_bwd)
    hidden = reshape(layer2, (T * B, 2 * params.d_h))
    start_logits = add(matmul(hidden, params.w_start), params.b_start)
    end_logits = add(matmul(hidden, params.w_end), params.b_end)
    return start_logits, end_logits


def forward(params: PolicyParams, ids, max_input_len: int = DEFAULT_MAX_INPUT_LEN
            ) -> tuple[Tensor, Tensor]:
    """Per-position start and end logits for a token id sequence."""
    return _batch_logits(params, [_checked_ids(params, ids, max_input_len)])


def score_batch(params: PolicyParams, batch, max_input_len: int = DEFAULT_MAX_INPUT_LEN
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Inference-only forward over several id sequences at once, as one
    padded batch with no tape. Returns (start_logits, end_logits) per
    sequence, each as long as its sequence."""
    seqs = [_checked_ids(params, ids, max_input_len) for ids in batch]
    if not seqs:
        return []
    with no_grad():
        start_logits, end_logits = _batch_logits(params, seqs)
    B = len(seqs)
    start = start_logits.data.reshape(-1, B)
    end = end_logits.data.reshape(-1, B)
    return [(start[:len(s), b].copy(), end[:len(s), b].copy()) for b, s in enumerate(seqs)]


def score_positions(params: PolicyParams, ids, max_input_len: int = DEFAULT_MAX_INPUT_LEN
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Inference-only forward of one sequence: plain arrays, no tape."""
    return score_batch(params, [ids], max_input_len)[0]


@dataclass(frozen=True)
class ScoredSpan:
    span: Span
    score: float


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
        raise ValueError(f"k and max_span_len must be >= 1, got k={k}, max_span_len={max_span_len}")

    # The (m, max_span_len) band: row i, column w is the span (i, i + w).
    band = np.arange(m)[:, None] + np.arange(min(max_span_len, m)) < m
    i, w = np.nonzero(band)
    j = i + w
    score = start[i] + end[j]
    # lexsort sorts by its last key first: score descending, then i, then j.
    order = np.lexsort((j, i, -score))[:k]
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
    raise ValueError(f"unknown selection mode: {mode!r}")
