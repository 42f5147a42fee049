"""Text ingestion: vocabulary, tokenization, chunking, and alignment of
answer strings to token spans.

Tokenization is word-level: a token is a maximal run of word characters
or a single non-space punctuation character (`_TOKEN_RE`). `tokenize`
gives a token sequence of ids and surface strings, which is all
deploying a policy reads. `token_offsets(text)` gives every token's
(start, end) character offsets into the source string; only aligning an
anchor answer to a token span needs them.

`tokenize` and `build_vocab` find the token texts without running the
regex over the whole text. No token spans whitespace, so `str.split()`
cuts the text into words without changing the tokens, and a word that
`str.isalnum()` accepts is one run of word characters: a single token.
Only the other words, those holding punctuation, an underscore or a
combining mark, go through `_TOKEN_RE.findall`. This holds because
`str.split()` and `str.isspace()` agree with the regex's whitespace
class, and `str.isalnum()` (or "_") with its word class, on every code
point (tests/test_tokenize.py checks all of them). On plain words this
takes under half the time of one `findall` over the text, and on the
benchmark's corpus (8% of words not alphanumeric) about half; on text
where every word carries punctuation it takes 1.2 to 2.7 times as long.

Corpus text files hold one document per non-empty line; doc ids are
"<file name>:<zero-padded line number>" so lexicographic order equals
file order.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    AnswerNotFoundError,
    EmptyCorpusError,
    InvalidChunkLengthError,
    InvalidVocabError,
    MalformedRecordError,
    MaskPolicyError,
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


@dataclass(frozen=True)
class TokenSequence:
    """Token ids plus the surface string of each token."""

    ids: tuple[int, ...]
    texts: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) != len(self.texts):
            raise ValueError("ids and texts must have equal length")

    def __len__(self) -> int:
        return len(self.ids)

    def slice(self, start: int, stop: int) -> "TokenSequence":
        return TokenSequence(self.ids[start:stop], self.texts[start:stop])


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


def _token_texts(text: str) -> list[str]:
    """The surface string of every token of `text`, as `_TOKEN_RE.findall`
    gives them: whitespace-split words, with only the words that are not
    all alphanumeric split further by the regex."""
    texts: list[str] = []
    for word in text.split():
        if word.isalnum():
            texts.append(word)
        else:
            texts += _TOKEN_RE.findall(word)
    return texts


def tokenize(text: str, vocab: Vocab | None = None) -> TokenSequence:
    """Word-and-punctuation tokenization, case preserved. Unknown tokens
    map to the unk id but keep their surface text."""
    texts = tuple(_token_texts(text))
    return TokenSequence(_token_ids(texts, vocab), texts)


def token_offsets(text: str) -> list[tuple[int, int]]:
    """(start, end) character offsets of every token of `text`, in the
    order `tokenize` gives the tokens, from one regex pass."""
    return list(map(re.Match.span, _TOKEN_RE.finditer(text)))


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


def read_json(path, what: str) -> dict:
    """The JSON object a UTF-8 file holds; JSON that does not parse, is
    nested too deeply, or is not an object raises an error naming `what`
    (say "checkpoint") and the file."""
    try:
        obj = json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as e:
        # json raises RecursionError on arrays or objects nested too deeply.
        raise MaskPolicyError(f"{what} {path} is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise MaskPolicyError(f"{what} {path} must hold a JSON object")
    return obj


def write_json(path, obj) -> None:
    """`obj` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def build_vocab(corpus_paths, max_size: int = 50000, min_freq: int = 1) -> Vocab:
    """Most frequent corpus tokens, ties broken lexicographically, capped
    at max_size including the three reserved specials."""
    counts: Counter[str] = Counter()
    for _, text in iter_documents(corpus_paths):
        counts.update(_token_texts(text))
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
        raise InvalidChunkLengthError(f"chunk length must be >= 2, got {L}", "chunk_len")
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


def align_answer(offsets: Sequence[tuple[int, int]], context: str, answer: str) -> Span:
    """Earliest token span whose source text matches the answer under
    case-folding and outer punctuation stripping. `offsets` are the
    context's `token_offsets`."""
    target = normalize_answer(answer)
    if not target:
        raise AnswerNotFoundError(f"answer {answer!r} has no alignable content")
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
        except RecursionError:
            raise MalformedRecordError(path, line_no, "invalid JSON: nested too deeply") from None
        if not isinstance(record, dict):
            raise MalformedRecordError(path, line_no, "record is not an object")
        for field in ("context", "question", "answer"):
            if field not in record:
                raise MalformedRecordError(path, line_no, f"missing field {field!r}")
            if not isinstance(record[field], str):
                raise MalformedRecordError(path, line_no, f"field {field!r} is not a string")
        context = record["context"]
        offsets = token_offsets(context)
        try:
            span = align_answer(offsets, context, record["answer"])
        except AnswerNotFoundError:
            report.skipped += 1
            continue
        # The texts come from the offsets: one regex pass per context.
        texts = tuple(context[start:end] for start, end in offsets)
        tokens = TokenSequence(_token_ids(texts, vocab), texts)
        examples.append(AnchorExample(
            context=context,
            question=record["question"],
            answer=record["answer"],
            context_tokens=tokens,
            answer_span=span,
        ))
        report.loaded += 1
    return examples, report
