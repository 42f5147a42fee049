"""Rule-by-rule reference for the salient-span tagger.

A verbatim copy of the tagger as it stood before it became table-driven
(each predicate called wherever a rule needs it, dates matched through a
per-position closure), with one fix applied: digit tests use
`str.isdecimal()`, the characters `int()` accepts. It returns
(kind, start, end) triples so it shares no types with the code it
checks.
"""

from __future__ import annotations

_SENTENCE_ENDERS = {".", "!", "?"}
_MONTHS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
    "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept",
    "oct", "nov", "dec",
}


def _is_month(tok: str) -> bool:
    return tok.casefold() in _MONTHS


def _is_day(tok: str) -> bool:
    if tok.isdecimal():
        return len(tok) <= 2 and 1 <= int(tok) <= 31
    # ordinals like 7th, 21st
    for suffix in ("st", "nd", "rd", "th"):
        if tok.casefold().endswith(suffix) and tok[:-2].isdecimal():
            return 1 <= int(tok[:-2]) <= 31
    return False


def _is_year(tok: str) -> bool:
    return len(tok) == 4 and tok.isdecimal() and 1000 <= int(tok) <= 2999


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


def salient_spans(texts: tuple[str, ...]) -> list[tuple[str, int, int]]:
    """Non-overlapping (kind, start, end) tags sorted by start position."""
    n = len(texts)
    consumed = [False] * n
    tags: list[tuple[str, int, int]] = []

    i = 0
    while i < n:
        length = _match_date(texts, i)
        if length:
            tags.append(("Date", i, i + length - 1))
            for j in range(i, i + length):
                consumed[j] = True
            i += length
        else:
            i += 1

    for i, tok in enumerate(texts):
        if not consumed[i] and tok.isdigit() and len(tok) >= 2:
            tags.append(("Number", i, i))
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
            tags.append(("CapSequence", i, j))
        i = j + 1

    tags.sort(key=lambda t: t[1])
    return tags
