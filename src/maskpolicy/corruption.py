"""Corrupt token chunks into denoising examples and deploy a masking
policy over a whole corpus deterministically.

Every chunk is seeded independently from (global_seed, doc_id,
chunk_index), so output is byte-identical regardless of how chunks are
distributed over worker processes.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .baselines import (
    MaskDecisions,
    random_span_mask,
    random_span_proposer,
    random_token_mask,
    salient_proposer,
    salient_span_mask_with_fallback,
    vocab_token_bits,
)
from .corpus import (
    MASK_ID,
    Chunk,
    Span,
    Vocab,
    chunk_document,
    iter_documents,
    tokenize,
)
from .errors import (
    AllMaskedError,
    InvalidOptionError,
    InvalidRateError,
    MaskPolicyError,
    SpanOutOfBoundsError,
    VocabMismatchError,
)
from .policy import (
    DEFAULT_MAX_INPUT_LEN,
    DEFAULT_MAX_SPAN_LEN,
    MODE_TOP1,
    MODES,
    TOP5_POOL,
    PolicyParams,
    Proposer,
    score_batch,
    score_batches,
    select_span,
    top_k_spans,
)
from .seeding import derive_seed

POLICY_RANDOM15 = "random15"
POLICY_RANDOM_SPAN = "randomspan"
POLICY_SALIENT = "salient"
POLICY_LEARNED = "learned"

# Baseline documents a pool worker takes per task; a learned batch is a
# task of its own. At one document a task the messages cost more than
# random15's work (1.4x slower than pool.map at 2 workers on a
# 1,000-document corpus); at 32 it matches pool.map.
DOCS_PER_TASK = 32


@dataclass(frozen=True)
class MaskedExample:
    input_ids: tuple[int, ...]
    masked_positions: tuple[int, ...]
    target_ids: tuple[int, ...]
    doc_id: str
    chunk_index: int
    policy_tag: str
    seed_used: int

    def to_json_obj(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "chunk_index": self.chunk_index,
            "input_ids": list(self.input_ids),
            "masked_positions": list(self.masked_positions),
            "target_ids": list(self.target_ids),
            "policy": self.policy_tag,
            "seed": self.seed_used,
        }

    def masked_runs(self) -> list[tuple[int, int]]:
        """(start, length) of each maximal run of consecutive masked positions."""
        runs: list[list[int]] = []
        for p in self.masked_positions:
            if runs and p == runs[-1][0] + runs[-1][1]:
                runs[-1][1] += 1
            else:
                runs.append([p, 1])
        return [(start, length) for start, length in runs]

    def original_ids(self) -> tuple[int, ...]:
        """Reconstruct the uncorrupted chunk."""
        ids = list(self.input_ids)
        for pos, tid in zip(self.masked_positions, self.target_ids):
            ids[pos] = tid
        return tuple(ids)


def masked_example_from_json_obj(obj: dict) -> MaskedExample:
    return MaskedExample(
        input_ids=tuple(obj["input_ids"]),
        masked_positions=tuple(obj["masked_positions"]),
        target_ids=tuple(obj["target_ids"]),
        doc_id=obj["doc_id"],
        chunk_index=obj["chunk_index"],
        policy_tag=obj["policy"],
        seed_used=obj["seed"],
    )


def corrupt(chunk: Chunk, decisions: MaskDecisions | Span,
            policy_tag: str = "", seed_used: int = 0) -> MaskedExample:
    """Replace the selected positions with <mask>, keeping targets."""
    n = len(chunk)
    ids = chunk.tokens.ids
    if isinstance(decisions, Span):
        # One contiguous run: the example is three slices of the ids.
        start, stop = decisions.start, decisions.end + 1
        if stop > n:
            raise SpanOutOfBoundsError(
                f"span {decisions} out of bounds for chunk of length {n}")
        positions = tuple(range(start, stop))
        input_ids = ids[:start] + (MASK_ID,) * (stop - start) + ids[stop:]
        targets = ids[start:stop]
    else:
        if len(decisions.d) != n:
            raise SpanOutOfBoundsError(
                f"decision vector of length {len(decisions.d)} does not "
                f"match chunk of length {n}")
        positions = tuple(np.flatnonzero(decisions.d).tolist())
        masked = list(ids)
        for p in positions:
            masked[p] = MASK_ID
        input_ids = tuple(masked)
        targets = tuple(ids[p] for p in positions)
    if n > 0 and len(positions) == n:
        raise AllMaskedError(
            f"all {n} positions selected for masking in chunk "
            f"{chunk.doc_id}:{chunk.chunk_index}")
    return MaskedExample(
        input_ids=input_ids,
        masked_positions=positions,
        target_ids=targets,
        doc_id=chunk.doc_id,
        chunk_index=chunk.chunk_index,
        policy_tag=policy_tag,
        seed_used=seed_used,
    )


@dataclass
class PolicySpec:
    """Which masking policy to deploy, plus its knobs."""

    kind: str
    mode: str = MODE_TOP1
    rate: float = 0.15
    max_span_len: int = DEFAULT_MAX_SPAN_LEN
    max_input_len: int = DEFAULT_MAX_INPUT_LEN
    params: PolicyParams | None = None
    vocab_hash: str | None = None

    def validate(self) -> None:
        if self.kind not in POLICIES:
            raise MaskPolicyError(f"unknown policy kind {self.kind!r}")
        if self.mode not in MODES:
            raise InvalidOptionError(f"unknown selection mode {self.mode!r}", "mode")
        if not (0.0 <= self.rate <= 1.0):
            raise InvalidRateError(f"rate must be in [0, 1], got {self.rate}", "rate")
        if self.max_span_len < 1:
            raise InvalidOptionError(f"max_span_len must be >= 1, got {self.max_span_len}",
                                     "max_span_len")
        if self.kind == POLICY_LEARNED and self.params is None:
            raise MaskPolicyError("learned policy requires trained parameters")

    @property
    def tag(self) -> str:
        if self.kind == POLICY_LEARNED:
            return f"learned-{self.mode}"
        return self.kind


@dataclass
class MaskSummary:
    chunks: int = 0
    masked_token_rate: float = 0.0
    span_length_hist: dict[int, int] = field(default_factory=dict)
    fallback_spans: int = 0
    skipped_chunks: int = 0

    def to_json_obj(self) -> dict:
        return {
            "chunks": self.chunks,
            "masked_token_rate": self.masked_token_rate,
            "span_length_hist": {str(k): v for k, v in sorted(self.span_length_hist.items())},
            "fallback_spans": self.fallback_spans,
            "skipped_chunks": self.skipped_chunks,
        }


def _mask_chunk(chunk: Chunk, spec: PolicySpec, global_seed: int,
                logits: tuple[np.ndarray, np.ndarray] | None, vocab: Vocab
                ) -> tuple[MaskedExample | None, bool]:
    """Corrupt one chunk, tokenized with `vocab`; `logits` are the learned
    policy's scores for it. Returns (example or None when skipped, fallback?)."""
    seed = derive_seed(global_seed, chunk.doc_id, chunk.chunk_index)
    rng = np.random.default_rng(seed)  # what derive_rng builds, without rehashing
    decisions, fallback = POLICIES[spec.kind].select(chunk, spec, rng, logits, vocab)
    try:
        return corrupt(chunk, decisions, policy_tag=spec.tag, seed_used=seed), fallback
    except AllMaskedError:
        # A span policy on a chunk of length 1 always selects everything;
        # such chunks are skipped and counted rather than emitted.
        return None, fallback


def _select_learned(chunk: Chunk, spec: PolicySpec, rng: np.random.Generator,
                    logits: tuple[np.ndarray, np.ndarray], vocab: Vocab) -> tuple[Span, bool]:
    start_logits, end_logits = logits
    pool = 1 if spec.mode == MODE_TOP1 else TOP5_POOL
    candidates = top_k_spans(start_logits, end_logits, pool, spec.max_span_len)
    return select_span(candidates, spec.mode, rng), False


@dataclass(frozen=True)
class PolicyKind:
    """What a policy kind does when deployed and when evaluated.

    `select(chunk, spec, rng, logits, vocab)` returns the chunk's mask
    decisions and whether a fallback produced them; `logits` are the
    learned policy's scores for the chunk, None for the others, and
    `vocab` is the vocabulary the chunk was tokenized with. `proposer(spec)`
    gives what evaluation scores: a ranked-span proposer, or for the
    learned kind its parameters, which evaluation scores in batches. It
    is None for a kind that proposes no spans."""

    select: Callable[[Chunk, PolicySpec, np.random.Generator, tuple | None, Vocab],
                     tuple[MaskDecisions | Span, bool]]
    proposer: Callable[[PolicySpec], Proposer | PolicyParams] | None = None


# Every policy kind. Salient differs between the two roles on purpose:
# deployed, a chunk without salient spans still gets a random span (and
# counts as a fallback); evaluated, it gets no proposals.
POLICIES: dict[str, PolicyKind] = {
    POLICY_RANDOM15: PolicyKind(
        select=lambda chunk, spec, rng, logits, vocab: (
            random_token_mask(chunk, spec.rate, rng), False)),
    POLICY_RANDOM_SPAN: PolicyKind(
        select=lambda chunk, spec, rng, logits, vocab: (
            random_span_mask(chunk, rng, spec.max_span_len), False),
        proposer=lambda spec: random_span_proposer(spec.max_span_len)),
    POLICY_SALIENT: PolicyKind(
        select=lambda chunk, spec, rng, logits, vocab: salient_span_mask_with_fallback(
            chunk, rng, spec.max_span_len, vocab_token_bits(vocab)),
        proposer=lambda spec: salient_proposer(spec.max_span_len)),
    POLICY_LEARNED: PolicyKind(
        select=_select_learned,
        proposer=lambda spec: spec.params),
}


def _mask_job(job, vocab: Vocab, spec: PolicySpec, chunk_len: int, global_seed: int
              ) -> tuple[list[MaskedExample], int, int]:
    """Corrupt one unit of work: for the learned policy a batch of chunks,
    scored together; for a baseline one (doc_id, text) document, which
    is tokenized here so that workers share the tokenizing."""
    if spec.kind == POLICY_LEARNED:
        chunks = job
        logits = score_batch(spec.params, [chunk.tokens.ids for chunk in chunks],
                             max_input_len=spec.max_input_len)
    else:
        doc_id, text = job
        chunks = chunk_document(tokenize(text, vocab), chunk_len, doc_id=doc_id)
        logits = [None] * len(chunks)
    examples: list[MaskedExample] = []
    fallbacks = 0
    skipped = 0
    for chunk, chunk_logits in zip(chunks, logits):
        example, fallback = _mask_chunk(chunk, spec, global_seed, chunk_logits, vocab)
        fallbacks += int(fallback)
        if example is None:
            skipped += 1
        else:
            examples.append(example)
    return examples, fallbacks, skipped


# The pool initializer hands each worker the vocabulary and the spec
# (with the learned policy's weights) once, instead of pickling them
# into every job.
_worker_args: tuple | None = None


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _mask_job_in_worker(job) -> tuple[list[MaskedExample], int, int]:
    return _mask_job(job, *_worker_args)


def _collect(parts) -> tuple[list[MaskedExample], int, int]:
    examples: list[MaskedExample] = []
    fallbacks = 0
    skipped = 0
    for part_examples, part_fallbacks, part_skipped in parts:
        examples += part_examples
        fallbacks += part_fallbacks
        skipped += part_skipped
    return examples, fallbacks, skipped


def _check_distinct_file_names(corpus_paths) -> None:
    """Doc ids carry a corpus file's name without its directory, so two
    files with the same name would give their documents the same ids,
    and with them the same per-chunk seeds."""
    seen: dict[str, Path] = {}
    for path in map(Path, corpus_paths):
        if path.name in seen:
            raise MaskPolicyError(
                f"corpus files {seen[path.name]} and {path} share the name "
                f"{path.name!r}, so their documents would get the same doc ids; "
                f"rename one")
        seen[path.name] = path


def mask_corpus(corpus_paths, vocab: Vocab, spec: PolicySpec,
                chunk_len: int = DEFAULT_MAX_INPUT_LEN, global_seed: int = 0,
                workers: int = 1) -> tuple[list[MaskedExample], MaskSummary]:
    """Deploy a policy over a corpus; deterministic in `workers`.

    The learned policy scores chunks in batches of policy.SCORE_BATCH,
    cut from the corpus's chunk stream in order, so the makeup of every
    batch, and with it every score, is the same for any worker count. The
    baselines work one document at a time: holding a batch of chunks
    would only keep their token objects alive longer."""
    spec.validate()
    if workers < 1:
        raise InvalidOptionError(f"workers must be >= 1, got {workers}", "workers")
    if spec.kind == POLICY_LEARNED and spec.vocab_hash is not None:
        if spec.vocab_hash != vocab.content_hash():
            raise VocabMismatchError(
                "checkpoint was trained against a different vocabulary")
    _check_distinct_file_names(corpus_paths)
    docs = iter_documents(corpus_paths)
    if spec.kind == POLICY_LEARNED:
        jobs = score_batches(
            chunk for doc_id, text in docs
            for chunk in chunk_document(tokenize(text, vocab), chunk_len, doc_id=doc_id))
    else:
        jobs = docs
    args = (vocab, spec, chunk_len, global_seed)
    if workers == 1:
        examples, fallbacks, skipped = _collect(_mask_job(job, *args) for job in jobs)
    else:
        with multiprocessing.Pool(processes=workers, initializer=_init_worker,
                                  initargs=args) as pool:
            # imap, unlike map, does not list the jobs first, so workers
            # start scoring while this process still tokenizes and chunks.
            per_task = 1 if spec.kind == POLICY_LEARNED else DOCS_PER_TASK
            examples, fallbacks, skipped = _collect(
                pool.imap(_mask_job_in_worker, jobs, per_task))
    examples.sort(key=lambda ex: (ex.doc_id, ex.chunk_index))

    total_tokens = sum(len(ex.input_ids) for ex in examples)
    total_masked = sum(len(ex.masked_positions) for ex in examples)
    hist: dict[int, int] = {}
    for ex in examples:
        for _, run in ex.masked_runs():
            hist[run] = hist.get(run, 0) + 1
    summary = MaskSummary(
        chunks=len(examples),
        masked_token_rate=(total_masked / total_tokens) if total_tokens else 0.0,
        span_length_hist=hist,
        fallback_spans=fallbacks,
        skipped_chunks=skipped,
    )
    return examples, summary


# Ints below this are written from a table of their decimal strings,
# which grows to the largest one seen; larger ints go through json.dumps.
# A 10k vocabulary fills about 10k entries (0.6 MB); the limit, 4.1 MB.
DECIMAL_TABLE_LIMIT = 1 << 16


class _JsonlFormatter:
    """`json.dumps(ex.to_json_obj(), sort_keys=True)` for a MaskedExample,
    joined from strings: the keys in sorted order, each id list from the
    `decimal` table, and the two strings through json.dumps, so their
    escaping is json's own. Formatting the ints was most of a line's cost."""

    def __init__(self):
        self.decimal: list[str] = []

    def _ints(self, xs) -> str:
        """json.dumps of an int list, without its brackets."""
        if not xs:
            return ""
        table = self.decimal
        try:
            # The test comes first: a list reads a negative index from its end.
            if min(xs) >= 0:
                return ", ".join(map(table.__getitem__, xs))
        except IndexError:
            top = max(xs)
            if top < DECIMAL_TABLE_LIMIT:
                table += map(str, range(len(table), top + 1))
                return ", ".join(map(table.__getitem__, xs))
        return json.dumps(list(xs))[1:-1]

    def __call__(self, ex: MaskedExample) -> str:
        ints = self._ints
        return (f'{{"chunk_index": {ex.chunk_index}, "doc_id": {json.dumps(ex.doc_id)}, '
                f'"input_ids": [{ints(ex.input_ids)}], '
                f'"masked_positions": [{ints(ex.masked_positions)}], '
                f'"policy": {json.dumps(ex.policy_tag)}, "seed": {ex.seed_used}, '
                f'"target_ids": [{ints(ex.target_ids)}]}}')


def write_masked_jsonl(path, examples: list[MaskedExample]) -> None:
    """One line per example, `json.dumps(ex.to_json_obj(), sort_keys=True)`
    byte for byte, written as it is formatted. The ids and positions are
    ints, as `corrupt` makes them; the table of their decimal strings
    lives for one call."""
    line = _JsonlFormatter()
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(line(ex) + "\n")


def read_masked_jsonl(path) -> list[MaskedExample]:
    examples = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            examples.append(masked_example_from_json_obj(json.loads(line)))
    return examples


def write_summary(path, summary: MaskSummary) -> None:
    Path(path).write_text(
        json.dumps(summary.to_json_obj(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
