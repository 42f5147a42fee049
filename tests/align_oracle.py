"""Reference for anchor-answer alignment.

A verbatim copy of `align_answer` as it stood before it refused answers
missing from the casefolded context and skipped start tokens that
cannot begin the answer: every candidate span is normalized and
compared. It returns a (start, end) pair, or None where the package
raises AnswerNotFoundError, so it shares no types with the code it
checks.
"""

from __future__ import annotations


def _strip_outer(s: str) -> str:
    start, end = 0, len(s)
    while start < end and not s[start].isalnum():
        start += 1
    while end > start and not s[end - 1].isalnum():
        end -= 1
    return s[start:end]


def normalize_answer(s: str) -> str:
    return _strip_outer(s).casefold()


def align_answer(offsets, context: str, answer: str):
    """Earliest token span whose source text matches the answer under
    case-folding and outer punctuation stripping. `offsets` are the
    context's `token_offsets`."""
    target = normalize_answer(answer)
    if not target:
        return None
    n = len(offsets)
    # Outer stripping can only shorten, so spans much longer than the
    # answer cannot match; the slack covers stripped quotes and brackets.
    max_chars = len(answer) + 32
    for start in range(n):
        char_start = offsets[start][0]
        for end in range(start, n):
            char_end = offsets[end][1]
            if char_end - char_start > max_chars:
                break
            if normalize_answer(context[char_start:char_end]) == target:
                return (start, end)
    return None
