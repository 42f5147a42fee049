"""The tokenizer, `build_vocab`, `token_offsets`, the chunker and anchor
alignment against the eager reference in tests/tokenize_oracle.py, the
character classes the tokenizer's whitespace-split path rests on,
pickling of chunks, and a guard that deploying a policy never finds
offsets."""

import json
import pickle
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokenize_oracle
from maskpolicy import corpus
from maskpolicy.corpus import (
    Chunk,
    TokenSequence,
    Vocab,
    align_answer,
    build_vocab,
    chunk_document,
    load_anchor_dataset,
    normalize_answer,
    token_offsets,
    tokenize,
)
from maskpolicy.corruption import PolicySpec, mask_corpus
from maskpolicy.errors import AnswerNotFoundError, EmptyCorpusError
from maskpolicy.policy import init_policy_params
from synth import synth_context

CHUNK_LENS = (2, 3, 8, 128)

# Words in several scripts, combining marks, digits of several kinds,
# punctuation, NUL, and every kind of break a corpus line can hold.
_ALPHABET = (
    "abcXYZ_\u00e9\u00df\u03a9\u0436\u4e2d"  # word characters
    "\u0301\u0308"                         # combining marks: tokens of their own
    "09\u0661\u0669\u00b2"                 # decimal, Arabic-Indic and superscript digits
    ".,!?'\"-<>"                           # punctuation
    "\x00"                                 # NUL: a punctuation token
    " \t\r\n\u2028\u0085\u00a0\u3000"       # whitespace, CR, LF and separators
    "\x0b\x0c\x1c\x1f\u1680\u2009"           # VT, FF, separators: whitespace too
    "\u200b\ufeff"                         # zero-width space, BOM: punctuation tokens
)
texts = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=60),
    st.lists(st.sampled_from(["word", "W\u00f6rter", "12", ".", "\r\n", " ", "\u2028", "",
                              "a\u0301", "\x00", "  \t"]), max_size=40).map("".join),
)


def vocab_for(text):
    """A vocabulary holding every other distinct token of `text`."""
    known = sorted(set(tokenize_oracle.tokenize(text)[2]))[::2]
    return Vocab(["<pad>", "<unk>", "<mask>", *known])


def fields(seq):
    return seq.ids, seq.texts


def oracle_sequence(text, vocab=None):
    ids, _, toks = tokenize_oracle.tokenize(text, vocab)
    return TokenSequence(ids, toks)


def oracle_chunks(text, vocab, L):
    """(ids, offsets, texts) of each chunk: windows of L tokens, and a
    final shorter window when it holds at least L/4 tokens."""
    ids, offsets, toks = tokenize_oracle.tokenize(text, vocab)
    return [(ids[s:s + L], offsets[s:s + L], toks[s:s + L])
            for s in range(0, len(ids), L) if 4 * min(L, len(ids) - s) >= L]


class TestAgainstOracle:
    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_tokenize_matches(self, text):
        vocab = vocab_for(text)
        assert fields(tokenize(text)) == fields(oracle_sequence(text))
        assert fields(tokenize(text, vocab)) == fields(oracle_sequence(text, vocab))
        assert tuple(token_offsets(text)) == tokenize_oracle.tokenize(text)[1]

    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_every_chunk_matches(self, text):
        vocab = vocab_for(text)
        for L in CHUNK_LENS:
            got = chunk_document(tokenize(text, vocab), L, doc_id="d")
            assert [c.chunk_index for c in got] == list(range(len(got)))
            assert [fields(c.tokens) for c in got] == [
                (ids, toks) for ids, _, toks in oracle_chunks(text, vocab, L)]

    @given(texts)
    @settings(max_examples=200, deadline=None)
    def test_offsets_read_before_slicing(self, text):
        # A chunk's offsets are the whole text's, sliced as the chunk was.
        offsets = token_offsets(text)
        for L in CHUNK_LENS:
            got = chunk_document(tokenize(text), L, doc_id="d")
            assert [tuple(offsets[c.chunk_index * L:][:len(c)]) for c in got] == [
                offs for _, offs, _ in oracle_chunks(text, None, L)]
            for c in got:
                chunk_offsets = offsets[c.chunk_index * L:][:len(c)]
                assert tuple(text[a:b] for a, b in chunk_offsets) == c.tokens.texts

    @given(texts, st.integers(-12, 60), st.integers(-12, 60))
    @settings(max_examples=300, deadline=None)
    def test_slice_matches(self, text, start, stop):
        ids, _, toks = tokenize_oracle.tokenize(text)
        got = tokenize(text).slice(start, stop)
        assert fields(got) == (ids[start:stop], toks[start:stop])
        assert fields(got.slice(1, -1)) == (ids[start:stop][1:-1], toks[start:stop][1:-1])


class TestCharacterClasses:
    """`tokenize` splits on `str.split()` and keeps `str.isalnum()` words
    whole, which gives the regex's tokens only while Python's whitespace
    and alphanumeric tests agree with the regex classes. Checked over
    every code point, surrogates included."""

    EVERY = "".join(map(chr, range(0x110000)))

    def test_whitespace_is_the_regex_whitespace_class(self):
        spaces = "".join(filter(str.isspace, self.EVERY))
        assert "".join(re.findall(r"\s", self.EVERY)) == spaces
        # str.split() drops exactly the isspace() characters.
        assert "".join(self.EVERY.split()) == re.sub(r"\s", "", self.EVERY)
        assert len(self.EVERY.split()) == len(re.findall(r"\S+", self.EVERY))

    def test_alphanumeric_or_underscore_is_the_regex_word_class(self):
        word = "".join(ch for ch in self.EVERY if ch.isalnum() or ch == "_")
        assert "".join(re.findall(r"\w", self.EVERY)) == word


class TestBuildVocab:
    @given(st.lists(texts, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_counts_the_oracle_tokens(self, docs):
        # Line breaks are whitespace, so the file's tokens are the joined
        # text's tokens however its lines are cut.
        counts = Counter(tokenize_oracle.tokenize("\n".join(docs))[2])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.txt"
            path.write_bytes("\n".join(docs).encode("utf-8"))
            if not counts:
                with pytest.raises(EmptyCorpusError):
                    build_vocab([path])
                return
            ranked = sorted(counts, key=lambda tok: (-counts[tok], tok))
            assert build_vocab([path]).id_to_token[3:] == tuple(ranked)
            assert build_vocab([path], max_size=5).id_to_token[3:] == tuple(ranked[:2])
            # A token is kept at every min_freq up to its count and not
            # beyond, which pins each count exactly.
            for min_freq in sorted(set(counts.values()) | {max(counts.values()) + 1}):
                kept = build_vocab([path], min_freq=min_freq).id_to_token[3:]
                assert kept == tuple(tok for tok in ranked if counts[tok] >= min_freq)


class TestAnchorAlignment:
    """Anchor loading finds offsets with token_offsets alone; every record
    it keeps must align as the oracle's offsets align it."""

    @given(st.lists(st.tuples(texts, st.integers(0, 60), st.integers(0, 60), texts),
                    min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_kept_records_align_as_over_oracle_offsets(self, draws):
        # The answer is a slice of its context, or unrelated text.
        records = [(ctx, ctx[a:b] if a <= b else other) for ctx, a, b, other in draws]
        vocab = vocab_for(" ".join(ctx for ctx, _ in records))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "anchors.jsonl"
            path.write_text("".join(
                json.dumps({"context": ctx, "question": "q", "answer": ans}) + "\n"
                for ctx, ans in records), encoding="utf-8")
            examples, report = load_anchor_dataset(path, vocab)
        want = []
        for ctx, ans in records:
            try:
                want.append((ctx, ans, align_answer(tokenize_oracle.tokenize(ctx)[1], ctx, ans)))
            except AnswerNotFoundError:
                pass
        assert (report.loaded, report.skipped) == (len(want), len(records) - len(want))
        assert [(ex.context, ex.answer, ex.answer_span) for ex in examples] == want
        for ex in examples:
            offsets = token_offsets(ex.context)
            span = ex.answer_span
            covered = ex.context[offsets[span.start][0]:offsets[span.end][1]]
            assert normalize_answer(covered) == normalize_answer(ex.answer)
            assert fields(ex.context_tokens) == fields(oracle_sequence(ex.context, vocab))


class TestDirectlyBuilt:
    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            TokenSequence((1, 1), ("ab",))
        with pytest.raises(ValueError):
            TokenSequence((1,), ("a", "b"))

    def test_slices_and_equality(self):
        seq = TokenSequence((3, 4, 5), ("a", "bc", "."))
        assert seq.slice(1, 3) == TokenSequence((4, 5), ("bc", "."))
        assert seq == tokenize("a bc.", Vocab(["<pad>", "<unk>", "<mask>", "a", "bc", "."]))
        assert seq != TokenSequence((3, 4, 5), ("a", "bc", ","))
        assert hash(seq.slice(0, 3)) == hash(seq)


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def refuse(*args):
    raise AssertionError("offsets found")


class TestPickle:
    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_chunks_round_trip_without_finding_offsets(self, text):
        vocab = vocab_for(text)
        with mock.patch.object(corpus, "token_offsets", refuse):
            for L in CHUNK_LENS:
                want = [TokenSequence(ids, toks) for ids, _, toks in oracle_chunks(text, vocab, L)]
                # As one batch (as a worker pool ships them), one at a
                # time in reverse order, and shipped on again.
                batch = chunk_document(tokenize(text, vocab), L, doc_id="d")
                assert [c.tokens for c in round_trip(batch)] == want
                assert [round_trip(c).tokens for c in reversed(batch)][::-1] == want
                assert [round_trip(c) for c in round_trip(batch)] == batch

    @pytest.mark.parametrize("order", [1, -1])
    def test_long_document_in_any_order(self, order):
        text = " ".join(f"w{i % 13}{'.' * (i % 3)} " for i in range(3000))
        want = [TokenSequence(ids, toks) for ids, _, toks in oracle_chunks(text, None, 128)]
        got = chunk_document(tokenize(text), 128, doc_id="d")
        shipped = [round_trip(c) for c in got[::order]][::order]
        assert [c.tokens for c in shipped] == want
        assert shipped == got

    @pytest.mark.parametrize("L", [8, 128])
    def test_pickle_no_larger_than_eager(self, L):
        # Chunks ship to workers without offsets, so each must pickle no
        # larger than the same chunk holding the eager (ids, offsets, texts).
        rng = np.random.default_rng(0)
        text = " ".join(synth_context(rng)[0] + " ." for _ in range(60))
        chunks = chunk_document(tokenize(text), L, doc_id="d")
        eager = [Chunk(tokens, "d", i) for i, tokens in enumerate(oracle_chunks(text, None, L))]
        assert len(chunks) == len(eager) > 1
        for a, b in zip(chunks, eager):
            assert len(pickle.dumps(a)) <= len(pickle.dumps(b))
        assert len(pickle.dumps(chunks)) <= len(pickle.dumps(eager))


class TestDeployNeverFindsOffsets:
    """Deploying reads ids (and texts, for salient) only; finding offsets
    would bring back a per-token cost deploying does not need."""

    @pytest.fixture(scope="class")
    def corpus_file(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        path = tmp_path_factory.mktemp("guard") / "guard.txt"
        lines = [" ".join(synth_context(rng)[0] for _ in range(int(rng.integers(1, 4))))
                 + " In May 1991 Alice met Bob ." for _ in range(30)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["random15", "randomspan", "salient", "learned"])
    def test_mask_corpus(self, corpus_file, kind, workers, monkeypatch):
        from synth import synth_vocab

        vocab = synth_vocab()
        spec = PolicySpec(kind=kind, max_input_len=8)
        if kind == "learned":
            spec.params = init_policy_params(len(vocab), 4, 4, seed=0)
        expected = mask_corpus([corpus_file], vocab, spec, chunk_len=8, workers=1)

        monkeypatch.setattr(corpus, "token_offsets", refuse)
        got = mask_corpus([corpus_file], vocab, spec, chunk_len=8, workers=workers)
        assert got == expected
        assert got[1].chunks > 30
