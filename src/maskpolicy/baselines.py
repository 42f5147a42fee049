"""Heuristic masking policies: random token masking, random single-span
masking, and a rule-based salient-span tagger (dates, numbers,
capitalized name runs) standing in for NER-driven salient span masking.

Tagger rules, applied with precedence Date > Number > CapSequence and
leftmost-longest within a kind:

* Date: month-name patterns over tokens ("January 7, 1946", "7 January
  1946", "May 1946", "January 7"), and bare 4-digit years 1000-2999.
  Days and years are written in decimal digits of any script
  (`str.isdecimal`, what `int()` reads): "١٩٤٦" is a year, "5²" is not
  a day.
* Number: an all-digit token of 2+ digits not already inside a Date.
* CapSequence: a maximal run of capitalized tokens. A run of length 1
  that sits at a sentence-initial position only counts when the same
  token also appears capitalized mid-sentence elsewhere in the chunk;
  longer runs always count.

The tagger is table-driven. `_token_bits` evaluates every predicate the
rules read (month, day, year, 2+-digit number, capitalized,
contains-alphanumeric, sentence-ender) once per token and packs them
into a small int of bits. `vocab_token_bits(vocab)` holds those bits
for every vocabulary token, indexed by id; it is built on first use and
kept once per `Vocab` object, so a deployment or an evaluation (or each
pool worker) classifies its vocabulary once. Given that table,
`salient_spans` reads a known token's bits by id and computes an unknown
token's bits from its text; called without it, it computes every
token's bits. It then reads only the bits: dates are matched only at
positions that can start one, numbers come straight from their bit, and
the sentence-initial flags and mid-sentence capitals are built in one
pass. tests/salient_oracle.py keeps the rule-by-rule form as the
reference the tests compare against.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import UNK_ID, Chunk, Span, Vocab
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

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=bool)


def random_token_mask(chunk: Chunk, rate: float = RANDOM_MASK_RATE,
                      rng: np.random.Generator | None = None) -> MaskDecisions:
    """Each position masked independently with probability `rate`."""
    if not (0.0 <= rate <= 1.0):
        raise InvalidRateError(f"rate must be in [0, 1], got {rate}", "rate")
    if rng is None:
        rng = np.random.default_rng(0)
    return MaskDecisions(rng.random(len(chunk)) < rate)


def _is_day(tok: str) -> bool:
    # isdecimal(), not isdigit(): int() reads any string of decimal
    # characters, but rejects digits such as "²" ("5²" passes isdigit()).
    if tok.isdecimal():
        return len(tok) <= 2 and 1 <= int(tok) <= 31
    # ordinals like 7th, 21st
    for suffix in ("st", "nd", "rd", "th"):
        if tok.casefold().endswith(suffix) and tok[:-2].isdecimal():
            return 1 <= int(tok[:-2]) <= 31
    return False


def _is_year(tok: str) -> bool:
    return len(tok) == 4 and tok.isdecimal() and 1000 <= int(tok) <= 2999


# One bit per tagger predicate of a single token.
_MONTH = 1
_DAY = 2
_YEAR = 4
_NUMBER = 8  # all digits, 2+ of them
_CAP = 16  # first character an uppercase letter
_ALNUM = 32  # some character alphanumeric: a word, not punctuation
_ENDER = 64  # sentence-ending punctuation
_DATE_START = _MONTH | _DAY | _YEAR

def _token_bits(tok: str) -> int:
    """Every tagger predicate of one token, as an int of the bits above."""
    bits = _ALNUM if tok.isalnum() or any(ch.isalnum() for ch in tok) else 0
    if tok.casefold() in _MONTHS:
        bits |= _MONTH
    if tok[:1].isalpha():
        # A word: every digit rule needs a digit first, so only the
        # month and capital rules can match.
        return bits | _CAP if tok[0].isupper() else bits
    if _is_day(tok):
        bits |= _DAY
    if _is_year(tok):
        bits |= _YEAR
    if tok.isdigit() and len(tok) >= 2:
        bits |= _NUMBER
    if tok in _SENTENCE_ENDERS:
        bits |= _ENDER
    return bits


# One table per live Vocab object; it goes when the vocabulary does.
_vocab_bits: "weakref.WeakKeyDictionary[Vocab, bytes]" = weakref.WeakKeyDictionary()


def vocab_token_bits(vocab: Vocab) -> bytes:
    """The `_token_bits` of every token of `vocab`, indexed by id (one byte
    each), built on the first call for a Vocab object and kept with it."""
    table = _vocab_bits.get(vocab)
    if table is None:
        table = _vocab_bits[vocab] = bytes(map(_token_bits, vocab.id_to_token))
    return table


def salient_spans(chunk: Chunk, token_bits: bytes | None = None) -> list[SalientTag]:
    """Non-overlapping salient tags sorted by start position.

    `token_bits` is `vocab_token_bits` of the vocabulary the chunk was
    tokenized with; the tags are the same with it or without it."""
    texts = chunk.tokens.texts
    n = len(texts)
    # Three zero entries past the end stand for the "" the date rules
    # see beyond the chunk, so lookahead needs no bounds checks.
    if token_bits is None:
        bits = [*map(_token_bits, texts), 0, 0, 0]
    else:
        ids = chunk.tokens.ids
        bits = [*map(token_bits.__getitem__, ids), 0, 0, 0]
        i = -1
        try:
            while True:  # an unknown token's bits come from its text
                i = ids.index(UNK_ID, i + 1)
                bits[i] = _token_bits(texts[i])
        except ValueError:
            pass
    consumed = [False] * n
    tags: list[SalientTag] = []

    # Dates, leftmost-longest: a match can only start at a month, a day
    # or a year, and scanning resumes after the tokens it took.
    free = 0
    for i in range(n):
        b = bits[i]
        if i < free or not b & _DATE_START:
            continue
        if b & _MONTH:
            if bits[i + 1] & _DAY:
                if bits[i + 3] & _YEAR and texts[i + 2] == ",":
                    length = 4
                elif bits[i + 2] & _YEAR:
                    length = 3
                else:
                    length = 2
            elif bits[i + 1] & _YEAR:
                length = 2
            else:
                continue
        elif b & _DAY:
            if not bits[i + 1] & _MONTH:
                continue
            length = 3 if bits[i + 2] & _YEAR else 2
        else:
            length = 1
        tags.append(SalientTag(Span(i, i + length - 1), SalientKind.DATE))
        free = i + length
        for j in range(i, free):
            consumed[j] = True

    for i in range(n):
        if bits[i] & _NUMBER and not consumed[i]:
            tags.append(SalientTag(Span(i, i), SalientKind.NUMBER))
            consumed[i] = True

    # A word opens a sentence at the chunk start or after an ender;
    # capitalized words elsewhere are the mid-sentence capitals.
    initial = [False] * n
    mid_sentence_caps = set()
    after_ender = True
    for i in range(n):
        b = bits[i]
        if b & _ALNUM:
            if after_ender:
                initial[i] = True
                after_ender = False
            elif b & _CAP:
                mid_sentence_caps.add(texts[i])
        elif b & _ENDER:
            after_ender = True

    i = 0
    while i < n:
        if consumed[i] or not bits[i] & _CAP:
            i += 1
            continue
        j = i
        while j + 1 < n and not consumed[j + 1] and bits[j + 1] & _CAP:
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


def _eligible_salient(chunk: Chunk, max_span_len: int,
                      token_bits: bytes | None = None) -> list[SalientTag]:
    # Tags longer than the span cap are not maskable as a single span.
    return [t for t in salient_spans(chunk, token_bits) if len(t.span) <= max_span_len]


def salient_span_mask_with_fallback(chunk: Chunk, rng: np.random.Generator,
                                    max_span_len: int = DEFAULT_MAX_SPAN_LEN,
                                    token_bits: bytes | None = None) -> tuple[Span, bool]:
    """One uniformly chosen salient span, or a random span when none
    exist; the flag says whether it fell back. `token_bits` is as for
    `salient_spans`."""
    tags = _eligible_salient(chunk, max_span_len, token_bits)
    if tags:
        return tags[int(rng.integers(0, len(tags)))].span, False
    return random_span_mask(chunk, rng, max_span_len), True


def random_span_proposer(max_span_len: int = DEFAULT_MAX_SPAN_LEN) -> Proposer:
    """Up to k distinct spans of length <= max_span_len in uniformly random order."""
    def propose(chunk: Chunk, k: int, rng: np.random.Generator) -> list[Span]:
        starts, ends = span_band(len(chunk), max_span_len)
        return [Span(int(starts[t]), int(ends[t])) for t in rng.permutation(len(starts))[:k]]

    return propose


def salient_proposer(max_span_len: int = DEFAULT_MAX_SPAN_LEN,
                     token_bits: bytes | None = None) -> Proposer:
    """Up to k salient spans, a uniform sample in chunk order when there
    are more. Unlike salient_span_mask_with_fallback, it has no
    random-span fallback: a chunk without salient spans gets no
    proposals. `token_bits` is as for `salient_spans`."""
    def propose(chunk: Chunk, k: int, rng: np.random.Generator) -> list[Span]:
        tags = [t.span for t in _eligible_salient(chunk, max_span_len, token_bits)]
        if len(tags) > k:
            picks = rng.choice(len(tags), size=k, replace=False)
            return [tags[int(t)] for t in sorted(picks)]
        return tags

    return propose
