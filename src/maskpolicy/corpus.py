"""Text ingestion: vocabulary, tokenization with offsets, chunking, and
alignment of answer strings to token spans.

Tokenization is word-level: a token is a maximal run of word characters
or a single non-space punctuation character. Offsets always point back
into the source string, so any token span can be detokenized exactly.
`tokenize` finds ids and texts only; a sequence finds its offsets the
first time something reads them (`span_text`, `align_answer`,
`tag_char_ranges`), so deploying a policy never pays for them.

Corpus text files hold one document per non-empty line; doc ids are
"<file name>:<zero-padded line number>" so lexicographic order equals
file order.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    AnswerNotFoundError,
    EmptyCorpusError,
    InvalidChunkLengthError,
    InvalidVocabError,
    MalformedRecordError,
    UndecodableTextError,
)

PAD_ID = 0
UNK_ID = 1
MASK_ID = 2
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
MASK_TOKEN = "<mask>"

_SPECIALS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN)
_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

DEFAULT_CHUNK_LEN = 128


@dataclass(frozen=True)
class Span:
    """Inclusive token-index interval [start, end]."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def indices(self) -> range:
        return range(self.start, self.end + 1)


class Vocab:
    """Frequency-ordered token vocabulary with reserved pad/unk/mask ids."""

    def __init__(self, tokens: list[str]):
        if list(tokens[:3]) != list(_SPECIALS):
            raise InvalidVocabError("vocabulary must start with <pad>, <unk>, <mask>")
        self.id_to_token: tuple[str, ...] = tuple(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise InvalidVocabError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def to_lines(self) -> str:
        return "\n".join(self.id_to_token) + "\n"

    def content_hash(self) -> str:
        import hashlib

        return hashlib.sha256(self.to_lines().encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        Path(path).write_text(self.to_lines(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        return cls(read_text(path).splitlines())


class _Source:
    """The string a sequence was tokenized from, shared by the sequence and
    every slice of it: the offsets of all its tokens once they are found,
    and the (tokens passed, characters passed) marks seen so far, for
    finding where a slice's characters start without finding offsets."""

    __slots__ = ("text", "base", "offsets", "marks")

    def __init__(self, text: str, base: int = 0):
        self.text = text
        self.base = base
        self.offsets: tuple[tuple[int, int], ...] | None = None
        self.marks = [(0, 0)]

    def token_offsets(self) -> tuple[tuple[int, int], ...]:
        if self.offsets is None:
            self.offsets = _find_offsets(self.text, self.base)
        return self.offsets

    def char_pos(self, k: int) -> int:
        """Index just past token k - 1 of the text (0 for k = 0), scanned
        from the nearest mark before it, leaving a mark at least every
        _MARK_STRIDE tokens on the way."""
        i = bisect.bisect_right(self.marks, (k, len(self.text)))
        done, pos = self.marks[i - 1]
        while done < k:
            step = min(k - done, _MARK_STRIDE)
            pos = _skip_tokens(step).match(self.text, pos).end()
            done += step
            self.marks.insert(i, (done, pos))
            i += 1
        return pos


def _find_offsets(text: str, base: int) -> tuple[tuple[int, int], ...]:
    """(start, end) of every token of `text`, shifted by `base`: one regex
    pass, and the only place a sequence from `tokenize` finds offsets."""
    spans = map(re.Match.span, _TOKEN_RE.finditer(text))
    if base:
        return tuple((start + base, end + base) for start, end in spans)
    return tuple(spans)


_MARK_STRIDE = 1024


@functools.lru_cache(maxsize=8)
def _skip_tokens(n: int) -> re.Pattern:
    """Matches exactly the next n tokens and the whitespace before them.
    Greedy matching takes the same tokens as _TOKEN_RE whenever n tokens
    remain, so no backtracking happens."""
    return re.compile(rf"(?:\s*(?:{_TOKEN_RE.pattern})){{{n}}}")


class TokenSequence:
    """Token ids plus per-token (char_start, char_end) offsets into the
    source string and the surface strings themselves.

    `TokenSequence(ids, offsets, texts)` checks its offsets once. A
    sequence from `tokenize` is valid by construction: it keeps its
    source string and finds its offsets on first read, with one regex
    pass, shared with every slice of it. Slices are never re-checked.
    Deploying reads only ids and texts, so it never finds offsets."""

    __slots__ = ("ids", "texts", "_offsets", "_source", "_first")

    def __init__(self, ids: tuple[int, ...], offsets: tuple[tuple[int, int], ...],
                 texts: tuple[str, ...]):
        if not (len(ids) == len(offsets) == len(texts)):
            raise ValueError("ids, offsets, texts must have equal length")
        prev_end = -1
        for start, end in offsets:
            if start < prev_end or end <= start:
                raise ValueError(f"offsets not strictly increasing at ({start}, {end})")
            prev_end = end
        self.ids = ids
        self.texts = texts
        self._offsets = offsets
        self._source = None
        self._first = 0

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        if self._offsets is None:
            first = self._first
            self._offsets = self._source.token_offsets()[first:first + len(self.ids)]
        return self._offsets

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenSequence):
            return NotImplemented
        return (self.ids == other.ids and self.texts == other.texts
                and self.offsets == other.offsets)

    def __hash__(self) -> int:
        return hash((self.ids, self.texts))

    def __repr__(self) -> str:
        return f"TokenSequence(ids={self.ids!r}, offsets={self.offsets!r}, texts={self.texts!r})"

    def __reduce__(self):
        source = self._source
        if self._offsets is None and source.offsets is None:
            # Ship the characters the tokens cover rather than finding
            # offsets: the receiver re-derives the texts from them, and
            # the offsets too if it reads any.
            start = source.char_pos(self._first)
            end = source.char_pos(self._first + len(self.ids))
            return _from_window, (self.ids, source.text[start:end], source.base + start)
        return _new_sequence, (self.ids, self.offsets, self.texts)

    def slice(self, start: int, stop: int) -> "TokenSequence":
        ids = self.ids[start:stop]
        texts = self.texts[start:stop]
        if self._offsets is not None:
            return _new_sequence(ids, self._offsets[start:stop], texts)
        first = self._first + range(len(self.ids))[start:stop].start
        return _new_sequence(ids, None, texts, self._source, first)

    def span_text(self, span: Span, source: str) -> str:
        """Exact source substring covered by a token span."""
        return source[self.offsets[span.start][0]:self.offsets[span.end][1]]


def _new_sequence(ids, offsets, texts, source: _Source | None = None,
                  first: int = 0) -> TokenSequence:
    """A sequence known to be valid, built unchecked. When `offsets` is
    None, its tokens are tokens first, first + 1, ... of `source`, and
    its offsets are found there when first read."""
    seq = object.__new__(TokenSequence)
    seq.ids = ids
    seq.texts = texts
    seq._offsets = offsets
    seq._source = source
    seq._first = first
    return seq


def _from_window(ids, window: str, base: int) -> TokenSequence:
    return _new_sequence(ids, None, tuple(_TOKEN_RE.findall(window)), _Source(window, base))


def _token_ids(texts: tuple[str, ...], vocab: Vocab | None) -> tuple[int, ...]:
    if vocab is None:
        return (UNK_ID,) * len(texts)
    return tuple(map(vocab.token_to_id.get, texts, itertools.repeat(UNK_ID)))


@dataclass(frozen=True)
class Chunk:
    tokens: TokenSequence
    doc_id: str
    chunk_index: int

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class AnchorExample:
    context: str
    question: str
    answer: str
    context_tokens: TokenSequence
    answer_span: Span


@dataclass
class LoadReport:
    loaded: int = 0
    skipped: int = 0


def tokenize(text: str, vocab: Vocab | None = None) -> TokenSequence:
    """Word-and-punctuation tokenization, case preserved. Unknown tokens
    map to the unk id but keep their surface text. Offsets are found when
    first read (see TokenSequence)."""
    texts = tuple(_TOKEN_RE.findall(text))
    return _new_sequence(_token_ids(texts, vocab), None, texts, _Source(text))


def _tokenize_with_offsets(text: str, vocab: Vocab) -> TokenSequence:
    """`tokenize`, with the offsets found in the same regex pass, for a
    caller that reads them at once."""
    matches = list(_TOKEN_RE.finditer(text))
    texts = tuple(map(re.Match.group, matches))
    return _new_sequence(_token_ids(texts, vocab), tuple(map(re.Match.span, matches)), texts)


def iter_documents(corpus_paths) -> "list[tuple[str, str]]":
    """(doc_id, text) pairs: one document per non-empty line, in file order."""
    docs: list[tuple[str, str]] = []
    for path in corpus_paths:
        p = Path(path)
        name = p.name
        for line_no, line in enumerate(_read_lines(p)):
            text = line.rstrip("\n")
            if not text.strip():
                continue
            docs.append((f"{name}:{line_no:08d}", text))
    return docs


def _read_lines(path):
    """A UTF-8 file's lines; a bad byte raises an error naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise UndecodableTextError.locate(path) from None


def read_text(path) -> str:
    """A UTF-8 file's text; a bad byte raises an error naming its line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise UndecodableTextError.locate(path) from None


def build_vocab(corpus_paths, max_size: int = 50000, min_freq: int = 1) -> Vocab:
    """Most frequent corpus tokens, ties broken lexicographically, capped
    at max_size including the three reserved specials."""
    counts: Counter[str] = Counter()
    for _, text in iter_documents(corpus_paths):
        counts.update(_TOKEN_RE.findall(text))
    if not counts:
        raise EmptyCorpusError(f"no tokens found in {list(map(str, corpus_paths))}")
    eligible = [(tok, n) for tok, n in counts.items() if n >= min_freq]
    eligible.sort(key=lambda kv: (-kv[1], kv[0]))
    keep = max(0, max_size - len(_SPECIALS))
    return Vocab(list(_SPECIALS) + [tok for tok, _ in eligible[:keep]])


def chunk_document(tokens: TokenSequence, L: int = DEFAULT_CHUNK_LEN, doc_id: str = "doc") -> list[Chunk]:
    """Consecutive windows of exactly L tokens; a final partial window is
    kept when its length is at least L/4, otherwise dropped."""
    if L < 2:
        raise InvalidChunkLengthError(f"chunk length must be >= 2, got {L}")
    chunks: list[Chunk] = []
    n = len(tokens)
    pos = 0
    index = 0
    while pos + L <= n:
        chunks.append(Chunk(tokens.slice(pos, pos + L), doc_id, index))
        pos += L
        index += 1
    tail = n - pos
    if tail > 0 and 4 * tail >= L:
        chunks.append(Chunk(tokens.slice(pos, n), doc_id, index))
    return chunks


def _strip_outer(s: str) -> str:
    start, end = 0, len(s)
    while start < end and not s[start].isalnum():
        start += 1
    while end > start and not s[end - 1].isalnum():
        end -= 1
    return s[start:end]


def normalize_answer(s: str) -> str:
    return _strip_outer(s).casefold()


def align_answer(context_tokens: TokenSequence, context: str, answer: str) -> Span:
    """Earliest token span whose detokenized text matches the answer under
    case-folding and outer punctuation stripping."""
    target = normalize_answer(answer)
    if not target:
        raise AnswerNotFoundError(f"answer {answer!r} has no alignable content")
    offsets = context_tokens.offsets
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
                return Span(start, end)
    raise AnswerNotFoundError(f"answer {answer!r} not found in context")


def load_anchor_dataset(path, vocab: Vocab) -> tuple[list[AnchorExample], LoadReport]:
    """Read (context, question, answer) JSONL. Records whose answer cannot
    be aligned are skipped and counted; structurally bad records abort."""
    examples: list[AnchorExample] = []
    report = LoadReport()
    for line_no, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise MalformedRecordError(path, line_no, f"invalid JSON: {e.msg}") from e
        if not isinstance(record, dict):
            raise MalformedRecordError(path, line_no, "record is not an object")
        for field in ("context", "question", "answer"):
            if field not in record:
                raise MalformedRecordError(path, line_no, f"missing field {field!r}")
            if not isinstance(record[field], str):
                raise MalformedRecordError(path, line_no, f"field {field!r} is not a string")
        context = record["context"]
        tokens = _tokenize_with_offsets(context, vocab)
        try:
            span = align_answer(tokens, context, record["answer"])
        except AnswerNotFoundError:
            report.skipped += 1
            continue
        examples.append(AnchorExample(
            context=context,
            question=record["question"],
            answer=record["answer"],
            context_tokens=tokens,
            answer_span=span,
        ))
        report.loaded += 1
    return examples, report


def detokenize_ids(vocab: Vocab, ids) -> str:
    """Vocabulary-based surface form: token strings joined by spaces."""
    return " ".join(vocab.id_to_token[i] for i in ids)
