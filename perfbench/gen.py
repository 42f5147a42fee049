"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of (workload, seed, profile): the same
arguments always write byte-identical files. The program under test only
ever sees the files written here.

Corpus text is Zipf-distributed pseudo-words with sentence punctuation.
"Salient" documents also carry capitalised name runs, dates and
multi-digit numbers at roughly news-text density; "plain" documents are
all lowercase and carry no salient tags, so the salient policy's
fallback path runs on their chunks. The vocabulary is built by
`build_vocab` over a separate slice of the same language and is capped,
so rare words, names and numbers in the corpus map to <unk>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from maskpolicy import build_vocab, init_policy_params, save_checkpoint

CHUNK_LEN = 128  # the mask-corpus default
D_MODEL = 128  # the CLI default for d_emb and d_h

_LEXICON_WORDS = 50_000
_NAME_WORDS = 4_000
_ZIPF_S = 1.07
_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "ch", "st", "tr", "sh", "pl", "gr")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ea", "y")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "nd", "st")
_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
_ATTACHED = {",", ".", "?"}
_PLAIN_SHARE = 0.2  # documents without salient tags
_UNALIGNABLE = 1  # extra anchor records per file whose answer cannot be aligned

OPEN, CLOSE = "<", ">"
QUESTION = "which span is bracketed"

# Independent random streams per input, so growing one input never
# shifts another.
_LEXICON, _CORPUS, _SLICE, _INIT, _TRAIN, _VALID = range(6)


@dataclass(frozen=True)
class DeployProfile:
    """Corpus shape for a deploy workload."""

    docs: int
    # "lognormal": ragged document lengths around `median_tokens`, so
    # short documents vanish, tails are kept and dropped.
    # "chunks+tail": `full_chunks` whole chunks plus a uniform tail, so
    # every document costs about the same and worker shards stay
    # balanced for every seed, while tails are still ragged.
    lengths: str
    median_tokens: int = 0
    full_chunks: int = 0
    slice_tokens: int = 200_000
    vocab_size: int = 10_000


@dataclass(frozen=True)
class TrainProfile:
    """Anchor data shape and training configuration for the train workload."""

    train: int
    valid: int
    epochs: int
    d_model: int
    vocab_size: int = 10_000


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class Language:
    """A seeded pseudo-word lexicon with Zipf word frequencies."""

    def __init__(self, seed: int):
        rng = _rng(seed, _LEXICON)
        self.words = self._coin(rng, _LEXICON_WORDS, set())
        self.names = [w.capitalize() for w in self._coin(rng, _NAME_WORDS, set(self.words))]
        weights = 1.0 / np.arange(1, _LEXICON_WORDS + 1) ** _ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())

    @staticmethod
    def _coin(rng: np.random.Generator, n: int, taken: set[str]) -> list[str]:
        out: list[str] = []
        seen = set(taken)
        while len(out) < n:
            m = 2 * (n - len(out))
            syllables = rng.integers(1, 5, size=m).tolist()
            parts = zip(rng.integers(len(_ONSETS), size=(m, 4)).tolist(),
                        rng.integers(len(_NUCLEI), size=(m, 4)).tolist(),
                        rng.integers(len(_CODAS), size=(m, 4)).tolist())
            for k, (on, nu, co) in zip(syllables, parts):
                word = "".join(_ONSETS[on[j]] + _NUCLEI[nu[j]] + _CODAS[co[j]] for j in range(k))
                if word not in seen:
                    seen.add(word)
                    out.append(word)
                    if len(out) == n:
                        break
        return out

    def zipf_words(self, rng: np.random.Generator, n: int) -> list[str]:
        idx = np.searchsorted(self.cdf, rng.random(n), side="right")
        return [self.words[min(i, _LEXICON_WORDS - 1)] for i in idx]

    def name_run(self, rng: np.random.Generator) -> list[str]:
        return [self.names[rng.integers(_NAME_WORDS)] for _ in range(int(rng.integers(1, 4)))]

    @staticmethod
    def date(rng: np.random.Generator) -> list[str]:
        month = _MONTHS[rng.integers(12)]
        day = str(int(rng.integers(1, 29)))
        year = str(int(rng.integers(1800, 2030)))
        form = int(rng.integers(4))
        if form == 0:
            return [month, day, ",", year]
        if form == 1:
            return [day, month, year]
        if form == 2:
            return [month, year]
        return [year]

    @staticmethod
    def number(rng: np.random.Generator) -> list[str]:
        return [str(int(rng.integers(10, 1_000_000)))]

    def sentence(self, rng: np.random.Generator, salient: bool) -> list[str]:
        words = self.zipf_words(rng, int(rng.integers(6, 25)))
        if rng.random() < 0.3:
            words.insert(int(rng.integers(1, len(words))), ",")
        if salient:
            words[0] = words[0].capitalize()
            for p, make in ((0.6, self.name_run), (0.15, self.date), (0.25, self.number)):
                if rng.random() < p:
                    at = int(rng.integers(1, len(words) + 1))
                    words[at:at] = make(rng)
        words.append("?" if rng.random() < 0.1 else ".")
        return words

    def tokens(self, rng: np.random.Generator, n: int, salient: bool) -> list[str]:
        """Exactly n tokens of running text."""
        out: list[str] = []
        while len(out) < n:
            out += self.sentence(rng, salient)
        return out[:n]


def detokenize(tokens: list[str]) -> str:
    """Join tokens so that the package tokenizer gives them back exactly."""
    parts: list[str] = []
    for tok in tokens:
        if parts and tok in _ATTACHED:
            parts[-1] += tok
        else:
            parts.append(tok)
    return " ".join(parts)


def _doc_lengths(rng: np.random.Generator, profile: DeployProfile) -> list[int]:
    if profile.lengths == "lognormal":
        raw = rng.lognormal(np.log(profile.median_tokens), 0.9, size=profile.docs)
        return [int(x) for x in np.clip(raw, 4, 12 * CHUNK_LEN)]
    base = profile.full_chunks * CHUNK_LEN
    return [base + int(t) for t in rng.integers(0, CHUNK_LEN, size=profile.docs)]


def write_corpus(path: Path, lang: Language, rng: np.random.Generator,
                 profile: DeployProfile) -> None:
    lines = []
    for n in _doc_lengths(rng, profile):
        salient = rng.random() >= _PLAIN_SHARE
        lines.append(detokenize(lang.tokens(rng, n, salient)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_vocab_from(text_path: Path, vocab_path: Path, max_size: int):
    vocab = build_vocab([text_path], max_size=max_size)
    vocab.save(vocab_path)
    return vocab


def make_deploy_inputs(out: Path, seed: int, profile: DeployProfile,
                       learned: bool) -> dict:
    """corpus.txt, vocab.txt and, for the learned policy, checkpoint.json."""
    out.mkdir(parents=True, exist_ok=True)
    lang = Language(seed)
    corpus = out / "corpus.txt"
    write_corpus(corpus, lang, _rng(seed, _CORPUS), profile)
    slice_path = out / "vocab_slice.txt"
    slice_rng = _rng(seed, _SLICE)
    slice_docs = []
    remaining = profile.slice_tokens
    while remaining > 0:
        n = min(remaining, 400)
        salient = slice_rng.random() >= _PLAIN_SHARE
        slice_docs.append(detokenize(lang.tokens(slice_rng, n, salient)))
        remaining -= n
    slice_path.write_text("\n".join(slice_docs) + "\n", encoding="utf-8")
    vocab = write_vocab_from(slice_path, out / "vocab.txt", profile.vocab_size)
    slice_path.unlink()
    files = {"corpus": str(corpus), "vocab": str(out / "vocab.txt")}
    if learned:
        params = init_policy_params(len(vocab), D_MODEL, D_MODEL,
                                    seed=int(_rng(seed, _INIT).integers(2**31)))
        ckpt = out / "checkpoint.json"
        save_checkpoint(ckpt, params, vocab,
                        hyperparameters={"max_input_len": CHUNK_LEN, "d_emb": D_MODEL,
                                         "d_h": D_MODEL})
        files["checkpoint"] = str(ckpt)
    return files


def _anchor_records(lang: Language, rng: np.random.Generator, n: int,
                    unalignable: int) -> list[dict]:
    """n contexts of 128 to 160 tokens, so every one fills the training
    window and some are truncated around the answer. Answers are
    bracketed name runs, dates or numbers. `unalignable` further records
    carry an answer that occurs nowhere in their context, so the loader
    skips them."""
    records = []
    for _ in range(n + unalignable):
        length = int(rng.integers(CHUNK_LEN, CHUNK_LEN + 33))
        answer = (lang.name_run, lang.date, lang.number)[int(rng.integers(3))](rng)
        inner = [OPEN] + answer + [CLOSE]
        body = lang.tokens(rng, length - len(inner), salient=True)
        at = int(rng.integers(0, len(body) + 1))
        records.append({"context": detokenize(body[:at] + inner + body[at:]),
                        "question": QUESTION, "answer": detokenize(answer)})
    for i in rng.choice(len(records), size=unalignable, replace=False):
        word = lang.words[int(rng.integers(len(lang.words)))]
        records[i]["answer"] = f"Qx{word} 0000000"
    return records


def make_train_inputs(out: Path, seed: int, profile: TrainProfile) -> dict:
    """train.jsonl, valid.jsonl and a vocab.txt built over their contexts."""
    out.mkdir(parents=True, exist_ok=True)
    lang = Language(seed)
    paths = {}
    contexts = []
    for name, stream, n in (("train", _TRAIN, profile.train), ("valid", _VALID, profile.valid)):
        records = _anchor_records(lang, _rng(seed, stream), n, _UNALIGNABLE)
        path = out / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        contexts += [r["context"] for r in records]
        paths[name] = str(path)
    text = out / "contexts.txt"
    text.write_text("\n".join(contexts) + "\n", encoding="utf-8")
    write_vocab_from(text, out / "vocab.txt", profile.vocab_size)
    text.unlink()
    paths["vocab"] = str(out / "vocab.txt")
    return paths
