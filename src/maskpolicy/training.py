"""Supervised training of the masking policy on (context, answer) pairs.

Loss per example is the sum of two cross entropies: negative
log-softmax of the start logits at the gold start plus the same for the
end. Each mini-batch runs as one padded forward (policy.forward_batch)
and one backward through its mean loss, one tape node
(mean_span_loss). The trained parameters are bit for bit those of one
taped forward and span_loss per example, the losses added in batch
order and scaled by 1/len(batch), which is how the per-example tape
trains; forward_batch and the LSTM op keep each example's arithmetic
apart where a product would round it by its batch. Checkpoint selection
is by minimum mean validation loss across epochs. Long contexts are
truncated to a deterministic window centered on the answer span. Where
the process qualifies, each BiLSTM layer's reverse direction runs in a
helper process meanwhile, with the same bytes: train_policy passes the
runner that reverse_helper.two_processes() yields to every step and
validation, as their `reverse` argument.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import operator
import platform
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, _wrap, backward, clip_grad_norm, grad_check
from .corpus import AnchorExample, Span
from .errors import (
    EmptyDatasetError,
    InvalidOptionError,
    NonFiniteError,
    NonFiniteLossError,
    SequenceTooLongError,
    ShapeMismatchError,
    SpanOutOfBoundsError,
)
from .optim import OPTIMIZERS, make_optimizer, optimizer_step
from .policy import (
    DEFAULT_MAX_INPUT_LEN,
    PolicyParams,
    forward,
    forward_batch,
    init_policy_params,
    score_batch,
    score_batches,
)
from .reverse_helper import two_processes


@dataclass
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-3  # desk-scale default; large-batch runs want ~1e-5
    batch_size: int = 32
    optimizer: str = "adam"
    max_input_len: int = DEFAULT_MAX_INPUT_LEN
    seed: int = 0
    d_emb: int = 128
    d_h: int = 128
    clip_norm: float = 1.0

    def validate(self) -> None:
        counts = ("epochs", "batch_size", "max_input_len", "d_emb", "d_h", "seed")
        for names, kinds, kind in ((counts, int, "an integer"),
                                   (("learning_rate", "clip_norm"), (int, float), "a number")):
            for name in names:
                value = getattr(self, name)
                if type(value) is bool or not isinstance(value, kinds):
                    raise InvalidOptionError(f"{name} must be {kind}, got {value!r}", name)
        numeric = dict(epochs=self.epochs, learning_rate=self.learning_rate,
                       batch_size=self.batch_size, max_input_len=self.max_input_len,
                       d_emb=self.d_emb, d_h=self.d_h, clip_norm=self.clip_norm)
        for name, value in numeric.items():
            # NaN and inf fail this too: 0 < nan and inf < inf are False.
            if not 0 < value < math.inf:
                raise InvalidOptionError(f"{name} must be finite and positive, got {value}",
                                         name)
        if self.seed < 0:
            raise InvalidOptionError(f"seed must be non-negative, got {self.seed}", "seed")
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
    n = start_logits.size
    if gold.start >= n or gold.end >= n:
        raise SpanOutOfBoundsError(f"gold span ({gold.start}, {gold.end}) outside length {n}")
    lp_start = _log_softmax(start_logits)
    lp_end = _log_softmax(end_logits)
    return -lp_start[gold.start] - lp_end[gold.end], lp_start, lp_end


def _nll_grad(lp: np.ndarray, gold: int, g) -> np.ndarray:
    """Gradient of -lp[gold] with respect to the logits, times g."""
    grad = np.exp(lp) * g
    grad[gold] -= g
    return grad


def mean_span_loss(start_logits: Tensor, end_logits: Tensor, columns: list[int],
                   batch: list[tuple[tuple[int, ...], Span]]) -> Tensor:
    """The mean span loss of a batch of prepared (ids, gold) windows whose
    flat logits forward_batch returned, with sequence b in column
    columns[b]: one tape node. The windows' losses are added in batch
    order and the sum is scaled by 1/len(batch), so the value and the
    gradients are those of span_loss per window, added with `add` and
    scaled with `scale`. Given the upstream gradient g, each head's
    gradient in a window is exp(lp) * g/len(batch), minus g/len(batch) at
    its gold index."""
    B = len(batch)
    start = start_logits.data.reshape(-1, B)
    end = end_logits.data.reshape(-1, B)
    nll = [_span_nll(start[:len(ids), c].copy(), end[:len(ids), c].copy(), gold)
           for c, (ids, gold) in zip(columns, batch)]
    total = functools.reduce(operator.add, (loss for loss, _, _ in nll))
    share = 1.0 / B

    def backward(g):
        g = g * share
        g_start, g_end = np.zeros_like(start), np.zeros_like(end)
        for c, (ids, gold), (_, lp_start, lp_end) in zip(columns, batch, nll):
            g_start[:len(ids), c] = _nll_grad(lp_start, gold.start, g)
            g_end[:len(ids), c] = _nll_grad(lp_end, gold.end, g)
        return g_start.reshape(-1), g_end.reshape(-1)

    return _wrap(total * share, (start_logits, end_logits), backward)


def span_loss(start_logits: Tensor, end_logits: Tensor, gold: Span) -> Tensor:
    """Cross entropy of the gold start plus cross entropy of the gold end
    (see _span_nll) of one sequence's logits: the mean span loss of a batch
    of that one window. Its scale, 1/1, is exact."""
    if (start_logits.ndim != 1 or start_logits.size == 0
            or end_logits.shape != start_logits.shape):
        raise ShapeMismatchError("span_loss", start_logits.shape, end_logits.shape)
    return mean_span_loss(start_logits, end_logits, [0], [(range(start_logits.size), gold)])


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
                    max_input_len: int, reverse=None) -> float:
    """Mean span loss over prepared (ids, gold) windows. They are scored
    in batches cut from dataset order, and the per-window losses are
    summed in that order. `reverse` runs the reverse directions (see
    policy.forward_batch)."""
    total = 0.0
    for batch in score_batches(prepared):
        logits = score_batch(params, [ids for ids, _ in batch], max_input_len, reverse)
        for (start, end), (_, gold) in zip(logits, batch):
            total += float(_span_nll(start, end, gold)[0])
    return total / len(prepared)


def _train_step(params: PolicyParams, opt, batch: list[tuple[tuple[int, ...], Span]],
                cfg: TrainConfig, epoch: int, batch_no: int, reverse=None) -> float:
    """One optimizer step on a batch of prepared windows; returns its mean
    loss. Its backward consumes its tape, and its gradients are dropped
    after the update, so nothing of the step outlives the call."""
    # A diverging run overflows in the forward or in the loss, and the
    # tensor that would hold the value refuses it.
    try:
        start, end, columns = forward_batch(params, [ids for ids, _ in batch], cfg.max_input_len,
                                            record=True, reverse=reverse)
        batch_loss = mean_span_loss(start, end, columns, batch)
    except NonFiniteError as e:
        raise NonFiniteLossError(epoch, batch_no, math.nan) from e
    backward(batch_loss)
    named = params.named_parameters()
    clip_grad_norm([p.grad for _, p in named], cfg.clip_norm)
    optimizer_step(opt, named)
    params.zero_grads()
    return batch_loss.item()


# glibc's mallopt parameters (malloc.h) and the values training sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 2**20
_TRIM_THRESHOLD = 2**30


def _libc() -> ctypes.CDLL:
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return libc


@functools.cache
def _keep_step_memory_mapped() -> None:
    """On glibc, keep a training step's freed arrays in the heap for the
    next step, once per process; elsewhere, nothing.

    A step frees its tape as backward consumes it. By default glibc serves
    arrays above its dynamic mmap threshold with their own mappings and
    trims the heap's free top, so the next step faults the same pages in
    again (about 5k minor faults a step at d = 128 on four 128-token
    windows). Both thresholds are raised: setting either one alone freezes
    glibc's dynamic mmap threshold at its 128 KiB start, and each alone
    faulted more than the default. The setting is never restored, because
    glibc cannot turn its dynamic threshold back on and a restore with
    malloc_trim kept most of the faults. It is made here and not at import,
    so deploy and evaluation keep the default and its lower peak RSS.
    Arrays above 32 MiB still get their own mappings."""
    if platform.libc_ver()[0] != "glibc":
        return
    libc = _libc()
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


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

    _keep_step_memory_mapped()
    params = init_policy_params(vocab_size, cfg.d_emb, cfg.d_h, seed=cfg.seed)
    opt = make_optimizer(cfg.optimizer, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed + 1)  # shuffle stream, separate from init

    log = TrainingLog()
    best_valid = float("inf")
    best_params = params.clone()

    with two_processes() as reverse:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(train_prep))
            epoch_loss = 0.0
            for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size)):
                batch = [train_prep[i] for i in order[lo:lo + cfg.batch_size]]
                epoch_loss += (_train_step(params, opt, batch, cfg, epoch, batch_no, reverse)
                               * len(batch))
            train_loss = epoch_loss / len(train_prep)
            try:
                valid_loss = validation_loss(params, valid_prep, cfg.max_input_len, reverse)
            except NonFiniteError as e:
                raise NonFiniteLossError(epoch, None, math.nan) from e
            log.records.append(EpochRecord(epoch, train_loss, valid_loss))
            if valid_loss < best_valid:
                best_valid = valid_loss
                best_params = params.clone()
                log.chosen_epoch = epoch

    return best_params, log


GRAD_CHECK_THRESHOLD = 1e-4


def grad_check_suite(n_seeds: int = 100, max_len: int = 12) -> dict:
    """Finite-difference check of the full policy loss gradient on many
    randomly drawn small models and inputs. Returns the worst relative
    error seen and whether it stayed under GRAD_CHECK_THRESHOLD."""
    if n_seeds < 1:
        raise InvalidOptionError(f"grad check needs seeds >= 1, got {n_seeds}", "seeds")
    if max_len < 2:
        raise InvalidOptionError(f"grad check needs max_len >= 2, got {max_len}", "max_len")
    vocab_size, d_emb, d_h = 12, 3, 2
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
        "threshold": GRAD_CHECK_THRESHOLD,
        "pass": bool(worst < GRAD_CHECK_THRESHOLD),
    }
