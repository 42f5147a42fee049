"""Evaluate masking policies as span extractors on held-out anchor data
and measure how often masked corpus spans line up with known answers.

A policy is evaluated through a proposer: a callable that, given a
chunk, returns up to k candidate spans in rank order. The learned
policy is evaluated from its parameters instead: its windows are scored
in padded batches and ranked by top_k_spans. Exact match at 1 and at 5,
and token-level F1 of the top candidate, are averaged over the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import (
    AnchorExample,
    Chunk,
    Span,
    Vocab,
    read_json,
    tokenize,
    write_json,
)
from .corruption import MaskedExample
from .errors import (
    EmptyDatasetError,
    InvalidOptionError,
    MaskPolicyError,
    TooFewReportsError,
    VocabMismatchError,
)
from .policy import (
    DEFAULT_MAX_INPUT_LEN,
    DEFAULT_MAX_SPAN_LEN,
    PolicyParams,
    Proposer,
    score_batch,
    score_batches,
    top_k_spans,
)
from .seeding import derive_rng
from .training import prepare_example

REPORT_K = 5


@dataclass
class PolicyReport:
    policy_tag: str
    em_at_1: float
    em_at_5: float
    token_f1_at_1: float
    answer_coverage: float | None
    n_examples: int

    def to_json_obj(self) -> dict:
        return {
            "policy": self.policy_tag,
            "em_at_1": self.em_at_1,
            "em_at_5": self.em_at_5,
            "token_f1_at_1": self.token_f1_at_1,
            "answer_coverage": self.answer_coverage,
            "n": self.n_examples,
        }


# Per report field, in PolicyReport's order, the JSON types its value may
# take, the closed range a number must lie in (NaN lies in none) and their
# name; a bool is not a number here, though Python counts it as an int.
_REPORT_FIELDS = {
    "policy": ((str,), None, "a string"),
    "em_at_1": ((int, float), (0, 1), "a number in [0, 1]"),
    "em_at_5": ((int, float), (0, 1), "a number in [0, 1]"),
    "token_f1_at_1": ((int, float), (0, 1), "a number in [0, 1]"),
    "answer_coverage": ((int, float, type(None)), (0, 1), "a number in [0, 1] or null"),
    "n": ((int,), (1, math.inf), "an integer >= 1"),
}


def report_from_json_obj(obj: dict) -> PolicyReport:
    """The report `obj` holds; a field that is missing, mistyped or out
    of range raises an error naming it. answer_coverage may be left out."""
    for key, (kinds, bounds, name) in _REPORT_FIELDS.items():
        value = obj.get(key)
        if (type(value) is bool or not isinstance(value, kinds)
                or value is not None and bounds and not bounds[0] <= value <= bounds[1]):
            raise MaskPolicyError(f"field {key!r} is missing or not {name}, got {value!r}")
    return PolicyReport(*(obj.get(key) for key in _REPORT_FIELDS))


def token_f1(pred: Span, gold: Span) -> float:
    """Overlap F1 between the two spans' position sets."""
    pred_set = set(pred.indices())
    gold_set = set(gold.indices())
    overlap = len(pred_set & gold_set)
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_set)
    recall = overlap / len(gold_set)
    return 2 * precision * recall / (precision + recall)


def span_hit_metrics(policy: PolicyParams | Proposer,
                     dataset: list[AnchorExample],
                     policy_tag: str,
                     max_span_len: int = DEFAULT_MAX_SPAN_LEN,
                     max_input_len: int = DEFAULT_MAX_INPUT_LEN,
                     seed: int = 0) -> PolicyReport:
    """EM@1, EM@5, and top-1 token F1 of a proposer, or of the learned
    policy's parameters, against gold spans."""
    if not dataset:
        raise EmptyDatasetError("cannot evaluate on an empty dataset")
    if max_span_len < 1:
        raise InvalidOptionError(f"max_span_len must be >= 1, got {max_span_len}",
                                 "max_span_len")
    windows = [prepare_example(ex, max_input_len) for ex in dataset]
    if isinstance(policy, PolicyParams):
        ranked = _learned_candidates(policy, windows, max_span_len, max_input_len)
    else:
        ranked = _proposed_candidates(policy, dataset, windows, seed)
    em1 = 0
    em5 = 0
    f1_total = 0.0
    for (_, gold), candidates in zip(windows, ranked):
        if candidates:
            if candidates[0] == gold:
                em1 += 1
            if any(c == gold for c in candidates):
                em5 += 1
            f1_total += token_f1(candidates[0], gold)
    n = len(dataset)
    return PolicyReport(
        policy_tag=policy_tag,
        em_at_1=em1 / n,
        em_at_5=em5 / n,
        token_f1_at_1=f1_total / n,
        answer_coverage=None,
        n_examples=n,
    )


def _learned_candidates(params: PolicyParams, windows, max_span_len: int,
                        max_input_len: int):
    """Each window's top REPORT_K spans, in dataset order; the windows
    are scored in batches cut from that order."""
    for batch in score_batches(windows):
        for start, end in score_batch(params, [ids for ids, _ in batch], max_input_len):
            yield [c.span for c in top_k_spans(start, end, REPORT_K, max_span_len)]


def _proposed_candidates(proposer: Proposer, dataset: list[AnchorExample], windows,
                         seed: int):
    """The proposer's first REPORT_K spans for each window, in dataset
    order, each drawn with the window's own seeded stream."""
    for idx, (ex, (ids, gold)) in enumerate(zip(dataset, windows)):
        lo = ex.answer_span.start - gold.start
        chunk = Chunk(ex.context_tokens.slice(lo, lo + len(ids)), doc_id="eval",
                      chunk_index=idx)
        yield proposer(chunk, REPORT_K, derive_rng(seed, "eval", idx))[:REPORT_K]


def _norm_token_list(texts) -> list[str]:
    """Casefolded tokens with purely non-alphanumeric ends removed."""
    toks = [t.casefold() for t in texts]
    while toks and not any(ch.isalnum() for ch in toks[0]):
        toks.pop(0)
    while toks and not any(ch.isalnum() for ch in toks[-1]):
        toks.pop()
    return toks


def _contains_sublist(haystack: list[str], needle: list[str]) -> bool:
    if not needle:
        return False
    n = len(needle)
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def answer_coverage(examples: list[MaskedExample], answers: list[str],
                    vocab: Vocab) -> tuple[float, list[dict]]:
    """Fraction of corpus-present answers fully covered by a masked run.

    An answer is present when its token sequence occurs in some
    reconstructed chunk, and covered when some maximal masked run in
    that chunk equals it (up to case and edge punctuation).
    """
    chunk_tokens: list[list[str]] = []
    chunk_runs: list[list[list[str]]] = []
    for ex in examples:
        ids = ex.original_ids()
        for tid in ids:
            if not 0 <= tid < len(vocab.id_to_token):
                raise VocabMismatchError(
                    f"token id {tid} outside vocabulary of size "
                    f"{len(vocab.id_to_token)}")
        toks = [vocab.id_to_token[t].casefold() for t in ids]
        chunk_tokens.append(toks)
        runs = []
        for start, length in ex.masked_runs():
            runs.append(_norm_token_list(
                [vocab.id_to_token[t] for t in ids[start:start + length]]))
        chunk_runs.append(runs)

    details = []
    present_count = 0
    covered_count = 0
    for answer in answers:
        ans_toks = _norm_token_list(tokenize(answer).texts)
        present = any(_contains_sublist(toks, ans_toks) for toks in chunk_tokens)
        covered = present and any(
            run == ans_toks
            for toks, runs in zip(chunk_tokens, chunk_runs)
            if _contains_sublist(toks, ans_toks)
            for run in runs)
        present_count += int(present)
        covered_count += int(covered)
        details.append({"answer": answer, "present": present, "covered": covered})
    fraction = (covered_count / present_count) if present_count else 0.0
    return fraction, details


def compare_policies(reports: list[PolicyReport]) -> tuple[str, dict]:
    """Side-by-side table plus a JSON payload, best em_at_5 first."""
    if len(reports) < 2:
        raise TooFewReportsError(
            f"need at least 2 reports to compare, got {len(reports)}")
    ordered = sorted(reports, key=lambda r: (-r.em_at_5, r.policy_tag))
    header = f"{'policy':<16} {'em@1':>8} {'em@5':>8} {'f1@1':>8} {'coverage':>9} {'n':>6}"
    lines = [header, "-" * len(header)]
    for r in ordered:
        cov = f"{r.answer_coverage:.3f}" if r.answer_coverage is not None else "-"
        lines.append(
            f"{r.policy_tag:<16} {r.em_at_1:>8.3f} {r.em_at_5:>8.3f} "
            f"{r.token_f1_at_1:>8.3f} {cov:>9} {r.n_examples:>6d}")
    payload = {"policies": [r.to_json_obj() for r in ordered]}
    return "\n".join(lines), payload


def write_report(path, report: PolicyReport) -> None:
    write_json(path, report.to_json_obj())


def read_report(path) -> PolicyReport:
    """The report in the JSON file `path`; every error names the file."""
    obj = read_json(path, "report")
    try:
        return report_from_json_obj(obj)
    except MaskPolicyError as e:
        raise MaskPolicyError(f"report {path}: {e}") from None
