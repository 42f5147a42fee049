"""Synthetic anchor-task generator used across the test suite.

Contexts are filler tokens with one answer (1-3 dedicated answer
tokens) wrapped in bracket sentinels, e.g.

    w03 w17 < a02 a07 > w09 w01

Answer tokens never appear outside the brackets, so alignment is exact
and a span extractor can learn the task from the sentinels alone.
"""

from __future__ import annotations

import json

import numpy as np

from maskpolicy import AnchorExample, Vocab, align_answer, token_offsets, tokenize

OPEN, CLOSE = "<", ">"
# 3 specials + 2 sentinels + filler + answer tokens = exactly 50
N_FILLER = 33
N_ANSWER = 12

QUESTION = "which span is bracketed"


def synth_vocab() -> Vocab:
    tokens = ["<pad>", "<unk>", "<mask>", OPEN, CLOSE]
    tokens += [f"w{i:02d}" for i in range(N_FILLER)]
    tokens += [f"a{i:02d}" for i in range(N_ANSWER)]
    return Vocab(tokens)


def synth_context(rng: np.random.Generator) -> tuple[str, str]:
    """(context, answer) with the answer bracketed inside filler text."""
    n_left = int(rng.integers(2, 8))
    n_right = int(rng.integers(2, 8))
    n_ans = int(rng.integers(1, 4))
    filler = lambda k: [f"w{int(i):02d}" for i in rng.integers(0, N_FILLER, size=k)]
    answer_tokens = [f"a{int(i):02d}" for i in rng.integers(0, N_ANSWER, size=n_ans)]
    words = filler(n_left) + [OPEN] + answer_tokens + [CLOSE] + filler(n_right)
    return " ".join(words), " ".join(answer_tokens)


def synth_examples(n: int, seed: int, vocab: Vocab | None = None) -> list[AnchorExample]:
    if vocab is None:
        vocab = synth_vocab()
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        context, answer = synth_context(rng)
        toks = tokenize(context, vocab)
        span = align_answer(token_offsets(context), context, answer)
        out.append(AnchorExample(context, QUESTION, answer, toks, span))
    return out


def write_anchor_jsonl(path, n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n):
            context, answer = synth_context(rng)
            fh.write(json.dumps({"context": context, "question": QUESTION,
                                 "answer": answer}) + "\n")
