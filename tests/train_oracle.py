"""The per-example training loop that `train_policy` ran before it trained
each mini-batch as one padded batch, kept as the reference it must match
bit for bit: one taped forward per window, its span loss, the batch's
losses added with `add`, scaled with `scale` and differentiated with
`backward`. The benchmark's traced training runs this same loop."""

import numpy as np

from maskpolicy.autodiff import add, backward, clip_grad_norm, scale
from maskpolicy.corpus import AnchorExample, Span, TokenSequence
from maskpolicy.errors import NonFiniteLossError
from maskpolicy.optim import make_optimizer, optimizer_step
from maskpolicy.policy import forward, init_policy_params
from maskpolicy.training import (
    EpochRecord,
    TrainingLog,
    prepare_example,
    span_loss,
    validation_loss,
)


def train_per_example(train, valid, cfg, vocab_size):
    """`train_policy` with one B = 1 tape per window."""
    cfg.validate()
    train_prep = [prepare_example(ex, cfg.max_input_len) for ex in train]
    valid_prep = [prepare_example(ex, cfg.max_input_len) for ex in valid]
    params = init_policy_params(vocab_size, cfg.d_emb, cfg.d_h, seed=cfg.seed)
    named = params.named_parameters()
    opt = make_optimizer(cfg.optimizer, cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed + 1)

    log = TrainingLog()
    best_valid = float("inf")
    best_params = params.clone()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_prep))
        epoch_loss = 0.0
        for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [train_prep[i] for i in order[lo:lo + cfg.batch_size]]
            params.zero_grads()
            total = None
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


def ragged_examples(rng, n, min_len, max_len, vocab_size):
    """n anchor examples of random ids, min_len to max_len tokens each,
    with a random gold span of at most three tokens."""
    out = []
    for _ in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        ids = tuple(int(t) for t in rng.integers(0, vocab_size, size=length))
        start = int(rng.integers(0, length))
        end = int(rng.integers(start, min(start + 3, length)))
        tokens = TokenSequence(ids, tuple(f"t{t}" for t in ids))
        answer = " ".join(tokens.texts[start:end + 1])
        out.append(AnchorExample(" ".join(tokens.texts), "q", answer, tokens, Span(start, end)))
    return out
