"""In-memory span recording and traced copies of the deploy and training
loops, built only from public calls of the `maskpolicy` modules.

The traced loops repeat what `mask_corpus` and `train_policy` do, step
by step, with a span around each call into a module. The benchmark
asserts that their output is byte-identical to the untraced program's
output, so the per-layer times describe the same program. A span is
(name, start_ns, end_ns, unit, pid): `unit` is the pass over the inputs
that caused it, and every span of a pass shares it.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from maskpolicy.autodiff import add, backward, clip_grad_norm, scale
from maskpolicy.baselines import (
    random_span_mask,
    random_token_mask,
    salient_span_mask_with_fallback,
)
from maskpolicy.checkpoint import save_checkpoint
from maskpolicy.corpus import UNK_ID, chunk_document, iter_documents, tokenize
from maskpolicy.corruption import (
    POLICY_LEARNED,
    POLICY_RANDOM15,
    POLICY_RANDOM_SPAN,
    POLICY_SALIENT,
    MaskSummary,
    corrupt,
    write_masked_jsonl,
    write_summary,
)
from maskpolicy.errors import AllMaskedError, NonFiniteLossError, VocabMismatchError
from maskpolicy.optim import make_optimizer, optimizer_step
from maskpolicy.policy import (
    MODE_TOP1,
    TOP5_POOL,
    forward,
    init_policy_params,
    score_positions,
    select_span,
    top_k_spans,
)
from maskpolicy.seeding import derive_rng, derive_seed
from maskpolicy.training import (
    EpochRecord,
    TrainingLog,
    prepare_example,
    span_loss,
    validation_loss,
)

_clock = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes


class Tracer:
    """Spans and counters kept in memory until the run ends."""

    def __init__(self, unit: int = 0):
        self.unit = unit
        self.pid = os.getpid()
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, int] = {}

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def merge(self, other: "Tracer") -> None:
        self.spans += other.spans
        for name, n in other.counts.items():
            self.count(name, n)


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans.append((self.name, self.start, _clock(), t.unit, t.pid))
        return False


# --- deploy ----------------------------------------------------------------

def lstm_flops_per_token(d_emb: int, d_h: int) -> int:
    """Multiply-adds of the recurrent matvec W @ [x; h], counted as two
    flops each, for both directions of both layers. Gate nonlinearities
    and the heads are left out."""
    per_dir_layer1 = 2 * 4 * d_h * (d_emb + d_h)
    per_dir_layer2 = 2 * 4 * d_h * (2 * d_h + d_h)
    return 2 * (per_dir_layer1 + per_dir_layer2)


def span_candidates(m: int, max_span_len: int) -> int:
    """Spans (i, j) with i <= j < m and length <= max_span_len."""
    return sum(min(max_span_len, m - i) for i in range(m))


def _run_lengths(positions) -> list[int]:
    runs: list[int] = []
    prev = None
    for p in positions:
        if prev is not None and p == prev + 1:
            runs[-1] += 1
        else:
            runs.append(1)
        prev = p
    return runs


def _traced_shard(docs, vocab, spec, chunk_len, global_seed, unit):
    tr = Tracer(unit)
    examples = []
    fallbacks = skipped = 0
    for doc_id, text in docs:
        with tr.span("corpus.tokenize"):
            tokens = tokenize(text, vocab)
        tr.count("corpus.docs")
        tr.count("corpus.tokens", len(tokens.ids))
        tr.count("corpus.unk_tokens", tokens.ids.count(UNK_ID))
        if len(tokens.ids) == 0:
            continue
        with tr.span("corpus.chunk"):
            chunks = chunk_document(tokens, chunk_len, doc_id=doc_id)
        tr.count("corpus.chunks", len(chunks))
        tr.count("corpus.tail_tokens_dropped", len(tokens) - sum(len(c) for c in chunks))
        for chunk in chunks:
            with tr.span("seeding.derive"):
                seed = derive_seed(global_seed, chunk.doc_id, chunk.chunk_index)
                rng = derive_rng(global_seed, chunk.doc_id, chunk.chunk_index)
            tr.count("seeding.calls")
            fallback = False
            if spec.kind == POLICY_RANDOM15:
                with tr.span("baselines.random15"):
                    decisions = random_token_mask(chunk, spec.rate, rng)
            elif spec.kind == POLICY_RANDOM_SPAN:
                with tr.span("baselines.randomspan"):
                    decisions = random_span_mask(chunk, rng, spec.max_span_len)
            elif spec.kind == POLICY_SALIENT:
                with tr.span("baselines.salient"):
                    decisions, fallback = salient_span_mask_with_fallback(
                        chunk, rng, spec.max_span_len)
            else:
                with tr.span("policy.forward"):
                    start_logits, end_logits = score_positions(
                        spec.params, chunk.tokens.ids, max_input_len=spec.max_input_len)
                tr.count("lstm.tokens", len(chunk))
                pool = 1 if spec.mode == MODE_TOP1 else TOP5_POOL
                with tr.span("policy.rank"):
                    candidates = top_k_spans(start_logits, end_logits, pool, spec.max_span_len)
                tr.count("policy.rank_candidates", span_candidates(len(chunk), spec.max_span_len))
                tr.count("policy.rank_kept", len(candidates))
                with tr.span("policy.select"):
                    decisions = select_span(candidates, spec.mode, rng)
            fallbacks += int(fallback)
            try:
                with tr.span("corruption.corrupt"):
                    example = corrupt(chunk, decisions, policy_tag=spec.tag, seed_used=seed)
            except AllMaskedError:
                skipped += 1
                continue
            tr.count("corruption.masked_positions", len(example.masked_positions))
            examples.append(example)
    return examples, fallbacks, skipped, tr


def _traced_worker(args):
    return _traced_shard(*args)


def traced_mask_corpus(tr: Tracer, corpus_paths, vocab, spec, chunk_len: int,
                       global_seed: int, workers: int, masked_path, summary_path) -> None:
    """`mask_corpus` followed by the two writers, with spans. Worker
    spans come back with each shard, so layer times are summed over
    workers and can exceed the wall time of a parallel pass."""
    spec.validate()
    if spec.kind == POLICY_LEARNED and spec.vocab_hash is not None:
        if spec.vocab_hash != vocab.content_hash():
            raise VocabMismatchError("checkpoint was trained against a different vocabulary")
    with tr.span("corpus.read"):
        docs = iter_documents(corpus_paths)
    if workers == 1 or len(docs) < 2:
        parts = [_traced_shard(docs, vocab, spec, chunk_len, global_seed, tr.unit)]
    else:
        n_batches = min(workers, len(docs))
        jobs = [(docs[i::n_batches], vocab, spec, chunk_len, global_seed, tr.unit)
                for i in range(n_batches)]
        # mask_corpus uses the platform's default pool, which forks on
        # Linux; the copy does the same so both pay the same start-up.
        with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
            parts = pool.map(_traced_worker, jobs)
    for _, _, _, shard_tracer in parts:
        tr.merge(shard_tracer)
    with tr.span("corruption.summary"):
        examples = [ex for part, _, _, _ in parts for ex in part]
        examples.sort(key=lambda ex: (ex.doc_id, ex.chunk_index))
        total_tokens = sum(len(ex.input_ids) for ex in examples)
        total_masked = sum(len(ex.masked_positions) for ex in examples)
        hist: dict[int, int] = {}
        for ex in examples:
            for run in _run_lengths(ex.masked_positions):
                hist[run] = hist.get(run, 0) + 1
        summary = MaskSummary(
            chunks=len(examples),
            masked_token_rate=(total_masked / total_tokens) if total_tokens else 0.0,
            span_length_hist=hist,
            fallback_spans=sum(f for _, f, _, _ in parts),
            skipped_chunks=sum(s for _, _, s, _ in parts),
        )
    tr.count("baselines.salient_fallbacks", summary.fallback_spans)
    with tr.span("corruption.write"):
        write_masked_jsonl(masked_path, examples)
        write_summary(summary_path, summary)
    tr.count("corruption.bytes_written",
             os.path.getsize(masked_path) + os.path.getsize(summary_path))


# --- training --------------------------------------------------------------

def traced_train_policy(tr: Tracer, train, valid, cfg, vocab_size: int):
    """`train_policy` with spans around forward+loss, backward, clipping,
    the optimizer step and validation."""
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
            with tr.span("training.forward"):
                total = None
                for ids, gold in batch:
                    s, e = forward(params, ids, cfg.max_input_len)
                    loss = span_loss(s, e, gold)
                    total = loss if total is None else add(total, loss)
                batch_loss = scale(total, 1.0 / len(batch))
                value = batch_loss.item()
            tr.count("training.examples", len(batch))
            tr.count("lstm.tokens", sum(len(ids) for ids, _ in batch))
            if not np.isfinite(value):
                raise NonFiniteLossError(epoch, batch_no, value)
            with tr.span("autodiff.backward"):
                backward(batch_loss)
            with tr.span("autodiff.clip"):
                grads = [p.grad for _, p in named if p.grad is not None]
                norm = clip_grad_norm(grads, cfg.clip_norm)
            tr.count("autodiff.clipped", int(norm > cfg.clip_norm and norm > 0.0))
            with tr.span("optim.step"):
                optimizer_step(opt, named)
            tr.count("optim.steps")
            epoch_loss += value * len(batch)
        train_loss = epoch_loss / len(train_prep)
        with tr.span("training.valid"):
            valid_loss = validation_loss(params, valid_prep, cfg.max_input_len)
        tr.count("lstm.tokens", sum(len(ids) for ids, _ in valid_prep))
        log.records.append(EpochRecord(epoch, train_loss, valid_loss))
        if valid_loss < best_valid:
            best_valid = valid_loss
            best_params = params.clone()
            log.chosen_epoch = epoch
    return best_params, log


def traced_save_checkpoint(tr: Tracer, path, params, vocab, hyperparameters) -> None:
    with tr.span("checkpoint.save"):
        save_checkpoint(path, params, vocab, hyperparameters=hyperparameters)
    tr.count("checkpoint.bytes", os.path.getsize(path))
