"""Heuristic masking policies: random token masking, random single-span
masking, and a rule-based salient-span tagger (dates, numbers,
capitalized name runs) standing in for NER-driven salient span masking.

Tagger rules, applied with precedence Date > Number > CapSequence and
leftmost-longest within a kind:

* Date: month-name patterns over tokens ("January 7, 1946", "7 January
  1946", "May 1946", "January 7"), and bare 4-digit years 1000-2999.
* Number: an all-digit token of 2+ digits not already inside a Date.
* CapSequence: a maximal run of capitalized tokens. A run of length 1
  that sits at a sentence-initial position only counts when the same
  token also appears capitalized mid-sentence elsewhere in the chunk;
  longer runs always count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .corpus import Chunk, Span
from .errors import InvalidRateError
from .policy import DEFAULT_MAX_SPAN_LEN, Proposer, span_band

RANDOM_MASK_RATE = 0.15

_SENTENCE_ENDERS = {".", "!", "?"}
_MONTHS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept",
    "oct", "nov", "dec",
}


class SalientKind(str, Enum):
    DATE = "Date"
    NUMBER = "Number"
    CAP_SEQUENCE = "CapSequence"


@dataclass(frozen=True)
class SalientTag:
    span: Span
    kind: SalientKind


@dataclass
class MaskDecisions:
    d: np.ndarray  # bool per chunk position
    produced_by: str

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=bool)


def random_token_mask(chunk: Chunk, rate: float = RANDOM_MASK_RATE,
                      rng: np.random.Generator | None = None) -> MaskDecisions:
    """Each position masked independently with probability `rate`."""
    if not (0.0 <= rate <= 1.0):
        raise InvalidRateError(f"rate must be in [0, 1], got {rate}")
    if rng is None:
        rng = np.random.default_rng(0)
    return MaskDecisions(rng.random(len(chunk)) < rate, "random15")


def _is_month(tok: str) -> bool:
    return tok.casefold() in _MONTHS


def _is_day(tok: str) -> bool:
    if tok.isdigit():
        return len(tok) <= 2 and 1 <= int(tok) <= 31
    # ordinals like 7th, 21st
    for suffix in ("st", "nd", "rd", "th"):
        if tok.casefold().endswith(suffix) and tok[:-2].isdigit():
            return 1 <= int(tok[:-2]) <= 31
    return False


def _is_year(tok: str) -> bool:
    return len(tok) == 4 and tok.isdigit() and 1000 <= int(tok) <= 2999


def _match_date(texts: tuple[str, ...], i: int) -> int:
    """Length of the longest date pattern starting at token i, or 0."""
    n = len(texts)

    def t(j):
        return texts[i + j] if i + j < n else ""

    if _is_month(t(0)):
        if _is_day(t(1)):
            if t(2) == "," and _is_year(t(3)):
                return 4
            if _is_year(t(2)):
                return 3
            return 2
        if _is_year(t(1)):
            return 2
        return 0
    if _is_day(t(0)) and _is_month(t(1)):
        if _is_year(t(2)):
            return 3
        return 2
    if _is_year(t(0)):
        return 1
    return 0


def _sentence_initial_flags(texts: tuple[str, ...]) -> list[bool]:
    """True at word positions that open a sentence (chunk start counts)."""
    flags = []
    after_ender = True
    for tok in texts:
        if any(ch.isalnum() for ch in tok):
            flags.append(after_ender)
            after_ender = False
        else:
            flags.append(False)
            if tok in _SENTENCE_ENDERS:
                after_ender = True
    return flags


def _is_capitalized(tok: str) -> bool:
    return bool(tok) and tok[0].isalpha() and tok[0].isupper()


def salient_spans(chunk: Chunk) -> list[SalientTag]:
    """Non-overlapping salient tags sorted by start position."""
    texts = chunk.tokens.texts
    n = len(texts)
    consumed = [False] * n
    tags: list[SalientTag] = []

    i = 0
    while i < n:
        length = _match_date(texts, i)
        if length:
            tags.append(SalientTag(Span(i, i + length - 1), SalientKind.DATE))
            for j in range(i, i + length):
                consumed[j] = True
            i += length
        else:
            i += 1

    for i, tok in enumerate(texts):
        if not consumed[i] and tok.isdigit() and len(tok) >= 2:
            tags.append(SalientTag(Span(i, i), SalientKind.NUMBER))
            consumed[i] = True

    initial = _sentence_initial_flags(texts)
    mid_sentence_caps = {texts[i] for i in range(n)
                         if _is_capitalized(texts[i]) and not initial[i]}
    i = 0
    while i < n:
        if consumed[i] or not _is_capitalized(texts[i]):
            i += 1
            continue
        j = i
        while j + 1 < n and not consumed[j + 1] and _is_capitalized(texts[j + 1]):
            j += 1
        keep = (j > i) or (not initial[i]) or (texts[i] in mid_sentence_caps)
        if keep:
            tags.append(SalientTag(Span(i, j), SalientKind.CAP_SEQUENCE))
        i = j + 1

    tags.sort(key=lambda t: t.span.start)
    return tags


def random_span_mask(chunk: Chunk, rng: np.random.Generator,
                     max_span_len: int = DEFAULT_MAX_SPAN_LEN) -> Span:
    """Uniform over all spans of length <= max_span_len."""
    starts, ends = span_band(len(chunk), max_span_len)
    t = int(rng.integers(0, len(starts)))
    return Span(int(starts[t]), int(ends[t]))


def _eligible_salient(chunk: Chunk, max_span_len: int) -> list[SalientTag]:
    # Tags longer than the span cap are not maskable as a single span.
    return [t for t in salient_spans(chunk) if len(t.span) <= max_span_len]


def salient_span_mask(chunk: Chunk, rng: np.random.Generator,
                      max_span_len: int = DEFAULT_MAX_SPAN_LEN) -> Span:
    """One uniformly chosen salient span; random span when none exist."""
    span, _ = salient_span_mask_with_fallback(chunk, rng, max_span_len)
    return span


def salient_span_mask_with_fallback(chunk: Chunk, rng: np.random.Generator,
                                    max_span_len: int = DEFAULT_MAX_SPAN_LEN
                                    ) -> tuple[Span, bool]:
    tags = _eligible_salient(chunk, max_span_len)
    if tags:
        return tags[int(rng.integers(0, len(tags)))].span, False
    return random_span_mask(chunk, rng, max_span_len), True


def random_span_proposer(max_span_len: int = DEFAULT_MAX_SPAN_LEN) -> Proposer:
    """Up to k distinct spans of length <= max_span_len in uniformly random order."""
    def propose(chunk: Chunk, k: int, rng: np.random.Generator) -> list[Span]:
        starts, ends = span_band(len(chunk), max_span_len)
        return [Span(int(starts[t]), int(ends[t])) for t in rng.permutation(len(starts))[:k]]

    return propose


def salient_proposer(max_span_len: int = DEFAULT_MAX_SPAN_LEN) -> Proposer:
    """Up to k salient spans, a uniform sample in chunk order when there
    are more. Unlike salient_span_mask, it has no random-span fallback:
    a chunk without salient spans gets no proposals."""
    def propose(chunk: Chunk, k: int, rng: np.random.Generator) -> list[Span]:
        tags = [t.span for t in _eligible_salient(chunk, max_span_len)]
        if len(tags) > k:
            picks = rng.choice(len(tags), size=k, replace=False)
            return [tags[int(t)] for t in sorted(picks)]
        return tags

    return propose


def load_tagger_fixtures(path) -> list[tuple[str, list[tuple[str, int, int]]]]:
    """Fixture rows of (text, [(kind, start_char, end_char)])."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        rows.append((obj["text"],
                     [(t["kind"], t["start_char"], t["end_char"]) for t in obj["tags"]]))
    return rows


def tag_char_ranges(chunk: Chunk, tags: list[SalientTag]) -> list[tuple[str, int, int]]:
    """Tags as (kind, start_char, end_char) against the chunk's source text."""
    out = []
    for tag in tags:
        start_char = chunk.tokens.offsets[tag.span.start][0]
        end_char = chunk.tokens.offsets[tag.span.end][1]
        out.append((tag.kind.value, start_char, end_char))
    return out
