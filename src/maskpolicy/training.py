"""Supervised training of the masking policy on (context, answer) pairs.

Loss per example is the sum of two cross entropies, one tape node:
negative log-softmax of the start logits at the gold start plus the
same for the end. Checkpoint selection is by minimum mean validation
loss across epochs. Long contexts are truncated to a deterministic
window centered on the answer span.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _wrap, add, backward, clip_grad_norm, grad_check, scale
from .corpus import AnchorExample, Span
from .errors import (
    EmptyDatasetError,
    InvalidOptionError,
    NonFiniteLossError,
    SequenceTooLongError,
    ShapeMismatchError,
    SpanOutOfBoundsError,
)
from .optim import OPTIMIZERS, make_optimizer, optimizer_step
from .policy import (
    DEFAULT_MAX_INPUT_LEN,
    DEFAULT_MAX_SPAN_LEN,
    PolicyParams,
    forward,
    init_policy_params,
    score_batch,
    score_batches,
)


@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-3  # desk-scale default; large-batch runs want ~1e-5
    batch_size: int = 32
    optimizer: str = "adam"
    max_input_len: int = DEFAULT_MAX_INPUT_LEN
    max_span_len: int = DEFAULT_MAX_SPAN_LEN
    seed: int = 0
    d_emb: int = 128
    d_h: int = 128
    clip_norm: float = 1.0

    def validate(self) -> None:
        numeric = dict(epochs=self.epochs, learning_rate=self.learning_rate,
                       batch_size=self.batch_size, max_input_len=self.max_input_len,
                       max_span_len=self.max_span_len, d_emb=self.d_emb, d_h=self.d_h,
                       clip_norm=self.clip_norm)
        for name, value in numeric.items():
            # NaN and inf fail this too: 0 < nan and inf < inf are False.
            if not 0 < value < math.inf:
                raise InvalidOptionError(f"{name} must be finite and positive, got {value}",
                                         name)
        if self.seed < 0:
            raise InvalidOptionError(f"seed must be non-negative, got {self.seed}", "seed")
        if self.max_span_len > self.max_input_len:
            raise InvalidOptionError("max_span_len cannot exceed max_input_len",
                                     "max_span_len", "max_input_len")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidOptionError(f"unknown optimizer: {self.optimizer!r}", "optimizer")

    def hyperparameters(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    train_loss: float
    valid_loss: float


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)
    chosen_epoch: int = 0

    def jsonl_records(self) -> list[dict]:
        return [
            {"epoch": r.epoch, "train_loss": r.train_loss, "valid_loss": r.valid_loss,
             "chosen": r.epoch == self.chosen_epoch}
            for r in self.records
        ]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits)
    return z - np.log(np.sum(np.exp(z)))


def _span_nll(start_logits: np.ndarray, end_logits: np.ndarray, gold: Span
              ) -> tuple[np.float64, np.ndarray, np.ndarray]:
    """The span loss -lp_start[gold.start] - lp_end[gold.end] of one
    sequence's logits, where lp = log_softmax(logits) for each head,
    returned with lp_start and lp_end."""
    if (start_logits.ndim != 1 or start_logits.size == 0
            or end_logits.shape != start_logits.shape):
        raise ShapeMismatchError("span_loss", start_logits.shape, end_logits.shape)
    n = start_logits.size
    if gold.start >= n or gold.end >= n:
        raise SpanOutOfBoundsError(f"gold span ({gold.start}, {gold.end}) outside length {n}")
    lp_start = _log_softmax(start_logits)
    lp_end = _log_softmax(end_logits)
    return -lp_start[gold.start] - lp_end[gold.end], lp_start, lp_end


def span_loss(start_logits: Tensor, end_logits: Tensor, gold: Span) -> Tensor:
    """Cross entropy of the gold start plus cross entropy of the gold end
    (see _span_nll), as one tape node whose parents are the two logits
    tensors. Given the upstream gradient g, each head's gradient is
    exp(lp) * g, minus g at its gold index."""
    loss, lp_start, lp_end = _span_nll(start_logits.data, end_logits.data, gold)

    def backward(g):
        g_start = np.exp(lp_start) * g
        g_start[gold.start] -= g
        g_end = np.exp(lp_end) * g
        g_end[gold.end] -= g
        return g_start, g_end

    return _wrap(loss, (start_logits, end_logits), backward)


def truncate_around_answer(n_tokens: int, gold: Span, max_len: int) -> tuple[int, int]:
    """Window [lo, hi) of at most max_len tokens centered on the gold span."""
    if len(gold) > max_len:
        raise SequenceTooLongError(
            f"answer span of {len(gold)} tokens cannot fit window of {max_len}")
    if n_tokens <= max_len:
        return 0, n_tokens
    center = (gold.start + gold.end) // 2
    lo = center - max_len // 2
    lo = max(0, min(lo, n_tokens - max_len))
    # Clamp again so the whole answer stays inside the window.
    lo = min(lo, gold.start)
    lo = max(lo, gold.end - max_len + 1)
    return lo, lo + max_len


def prepare_example(ex: AnchorExample, max_len: int) -> tuple[tuple[int, ...], Span]:
    """Token ids and window-relative gold span for one anchor example."""
    lo, hi = truncate_around_answer(len(ex.context_tokens), ex.answer_span, max_len)
    ids = ex.context_tokens.ids[lo:hi]
    return ids, Span(ex.answer_span.start - lo, ex.answer_span.end - lo)


def validation_loss(params: PolicyParams, prepared: list[tuple[tuple[int, ...], Span]],
                    max_input_len: int) -> float:
    """Mean span loss over prepared (ids, gold) windows. They are scored
    in batches cut from dataset order, and the per-window losses are
    summed in that order."""
    total = 0.0
    for batch in score_batches(prepared):
        logits = score_batch(params, [ids for ids, _ in batch], max_input_len)
        for (start, end), (_, gold) in zip(logits, batch):
            total += float(_span_nll(start, end, gold)[0])
    return total / len(prepared)


def train_policy(train: list[AnchorExample], valid: list[AnchorExample],
                 cfg: TrainConfig,
                 vocab_size: int | None = None) -> tuple[PolicyParams, TrainingLog]:
    """Seeded mini-batch training; returns the parameters of the epoch with
    the lowest validation loss along with the per-epoch log.

    When vocab_size is omitted it is inferred from the largest token id
    seen; pass the true vocabulary size when the deployment corpus may
    contain ids absent from the anchor data."""
    cfg.validate()
    if not train:
        raise EmptyDatasetError("training set is empty")
    if not valid:
        raise EmptyDatasetError("validation set is empty")

    train_prep = [prepare_example(ex, cfg.max_input_len) for ex in train]
    valid_prep = [prepare_example(ex, cfg.max_input_len) for ex in valid]
    if vocab_size is None:
        vocab_size = 1 + max(max(ids) for ids, _ in train_prep + valid_prep)

    params = init_policy_params(vocab_size, cfg.d_emb, cfg.d_h, seed=cfg.seed)
    named = params.named_parameters()
    opt = make_optimizer(cfg.optimizer, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed + 1)  # shuffle stream, separate from init

    log = TrainingLog()
    best_valid = float("inf")
    best_params = params.clone()

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_prep))
        epoch_loss = 0.0
        for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [train_prep[i] for i in order[lo:lo + cfg.batch_size]]
            params.zero_grads()
            total: Tensor | None = None
            for ids, gold in batch:
                s, e = forward(params, ids, cfg.max_input_len)
                loss = span_loss(s, e, gold)
                total = loss if total is None else add(total, loss)
            batch_loss = scale(total, 1.0 / len(batch))
            value = batch_loss.item()
            if not np.isfinite(value):
                raise NonFiniteLossError(epoch, batch_no, value)
            backward(batch_loss)
            grads = [p.grad for _, p in named if p.grad is not None]
            clip_grad_norm(grads, cfg.clip_norm)
            optimizer_step(opt, named)
            epoch_loss += value * len(batch)
        train_loss = epoch_loss / len(train_prep)
        valid_loss = validation_loss(params, valid_prep, cfg.max_input_len)
        log.records.append(EpochRecord(epoch, train_loss, valid_loss))
        if valid_loss < best_valid:
            best_valid = valid_loss
            best_params = params.clone()
            log.chosen_epoch = epoch

    return best_params, log


GRAD_CHECK_THRESHOLD = 1e-4


def grad_check_suite(n_seeds: int = 100, max_len: int = 12,
                     threshold: float = GRAD_CHECK_THRESHOLD,
                     vocab_size: int = 12, d_emb: int = 3,
                     d_h: int = 2) -> dict:
    """Finite-difference check of the full policy loss gradient on many
    randomly drawn small models and inputs. Returns the worst relative
    error seen and whether it stayed under the threshold."""
    if n_seeds < 1:
        raise InvalidOptionError(f"grad check needs seeds >= 1, got {n_seeds}", "seeds")
    if max_len < 2:
        raise InvalidOptionError(f"grad check needs max_len >= 2, got {max_len}", "max_len")
    worst = 0.0
    for s in range(n_seeds):
        rng = np.random.default_rng(1000 + s)
        length = int(rng.integers(2, max_len + 1))
        ids = tuple(int(t) for t in rng.integers(0, vocab_size, size=length))
        gold_start = int(rng.integers(0, length))
        gold_end = int(rng.integers(gold_start, length))
        params = init_policy_params(vocab_size, d_emb, d_h, seed=2000 + s)

        def loss_fn():
            s_logits, e_logits = forward(params, ids, max_input_len=max_len)
            return span_loss(s_logits, e_logits, Span(gold_start, gold_end))

        err = grad_check(loss_fn, [p for _, p in params.named_parameters()])
        worst = max(worst, err)
    return {
        "seeds": n_seeds,
        "max_rel_err": worst,
        "threshold": threshold,
        "pass": bool(worst < threshold),
    }
