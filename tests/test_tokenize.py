"""The tokenizer and chunker against the eager reference in
tests/tokenize_oracle.py, pickling of chunks whose offsets were never
found, and a guard that deploying a policy never finds offsets."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokenize_oracle
from maskpolicy import corpus
from maskpolicy.corpus import Span, TokenSequence, Vocab, chunk_document, tokenize
from maskpolicy.corruption import PolicySpec, mask_corpus
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
)
texts = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=60),
    st.lists(st.sampled_from(["word", "W\u00f6rter", "12", ".", "\r\n", " ", "\u2028", "",
                              "a\u0301", "\x00", "  \t"]), max_size=40).map("".join),
)


def vocab_for(text):
    """A vocabulary holding every other distinct token of `text`."""
    known = sorted(set(tokenize_oracle.tokenize(text).texts))[::2]
    return Vocab(["<pad>", "<unk>", "<mask>", *known])


def fields(seq):
    return seq.ids, seq.texts, seq.offsets


class TestAgainstOracle:
    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_tokenize_matches(self, text):
        vocab = vocab_for(text)
        assert fields(tokenize(text)) == fields(tokenize_oracle.tokenize(text))
        assert fields(tokenize(text, vocab)) == fields(tokenize_oracle.tokenize(text, vocab))

    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_every_chunk_matches(self, text):
        vocab = vocab_for(text)
        for L in CHUNK_LENS:
            got = chunk_document(tokenize(text, vocab), L, doc_id="d")
            want = chunk_document(tokenize_oracle.tokenize(text, vocab), L, doc_id="d")
            assert [fields(c.tokens) for c in got] == [fields(c.tokens) for c in want]
            assert got == want

    @given(texts, st.integers(-12, 60), st.integers(-12, 60))
    @settings(max_examples=300, deadline=None)
    def test_slice_matches(self, text, start, stop):
        got = tokenize(text).slice(start, stop)
        want = tokenize_oracle.tokenize(text).slice(start, stop)
        assert fields(got) == fields(want)
        # A slice of a slice shares the same source.
        assert fields(got.slice(1, -1)) == fields(want.slice(1, -1))

    @given(texts)
    @settings(max_examples=200, deadline=None)
    def test_offsets_read_before_slicing(self, text):
        seq = tokenize(text)
        seq.offsets
        for L in CHUNK_LENS:
            got = chunk_document(seq, L)
            assert got == chunk_document(tokenize_oracle.tokenize(text), L)


class TestDirectlyBuilt:
    def test_bad_offsets_still_raise(self):
        with pytest.raises(ValueError):
            TokenSequence((1, 1), ((0, 2), (1, 3)), ("ab", "bc"))
        with pytest.raises(ValueError):
            TokenSequence((1,), ((2, 2),), ("",))
        with pytest.raises(ValueError):
            TokenSequence((1,), ((0, 1), (2, 3)), ("a", "b"))

    def test_slices_and_equality(self):
        seq = TokenSequence((3, 4, 5), ((0, 1), (2, 4), (4, 5)), ("a", "bc", "."))
        assert seq.slice(1, 3) == TokenSequence((4, 5), ((2, 4), (4, 5)), ("bc", "."))
        assert seq == tokenize("a bc.", Vocab(["<pad>", "<unk>", "<mask>", "a", "bc", "."]))
        assert seq.span_text(Span(1, 2), "a bc.") == "bc."


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestPickle:
    @given(texts)
    @settings(max_examples=300, deadline=None)
    def test_chunks_round_trip_without_finding_offsets(self, text):
        vocab = vocab_for(text)
        for L in CHUNK_LENS:
            want = chunk_document(tokenize_oracle.tokenize(text, vocab), L, doc_id="d")
            # In order, as one batch (as a worker pool ships them), and
            # in reverse order one at a time, which scans from earlier marks.
            batch = chunk_document(tokenize(text, vocab), L, doc_id="d")
            shipped = round_trip(batch)
            assert all(c.tokens._source.offsets is None for c in batch)
            single = chunk_document(tokenize(text, vocab), L, doc_id="d")
            shipped_alone = [round_trip(c) for c in reversed(single)][::-1]
            assert shipped == want
            assert shipped_alone == want
            # A received chunk ships on again.
            assert [round_trip(c) for c in round_trip(batch)] == want

    @pytest.mark.parametrize("order", [1, -1])
    def test_long_document_in_any_order(self, order):
        # Longer than several mark strides, so chunks are found from marks
        # left on the way to other chunks.
        text = " ".join(f"w{i % 13}{'.' * (i % 3)} " for i in range(3000))
        want = chunk_document(tokenize_oracle.tokenize(text), 128, doc_id="d")
        got = chunk_document(tokenize(text), 128, doc_id="d")
        shipped = [round_trip(c) for c in got[::order]][::order]
        assert shipped == want

    def test_chunk_with_offsets_found_round_trips(self):
        chunk = chunk_document(tokenize("alpha beta, gamma delta"), 2, doc_id="d")[1]
        chunk.tokens.offsets
        assert round_trip(chunk) == chunk
        assert round_trip(chunk).tokens.offsets == ((10, 11), (12, 17))

    @pytest.mark.parametrize("L", [8, 128])
    def test_pickle_no_larger_than_eager(self, L):
        rng = np.random.default_rng(0)
        text = " ".join(synth_context(rng)[0] + " ." for _ in range(60))
        lazy = chunk_document(tokenize(text), L, doc_id="d")
        eager = chunk_document(tokenize_oracle.tokenize(text), L, doc_id="d")
        assert len(lazy) == len(eager) > 1
        for a, b in zip(lazy, eager):
            assert len(pickle.dumps(a)) <= len(pickle.dumps(b))
        assert len(pickle.dumps(lazy)) <= len(pickle.dumps(eager))


class TestDeployNeverFindsOffsets:
    """Deploying reads ids (and texts, for salient) only; finding offsets
    again would bring back the per-token cost tokenize no longer pays."""

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

        def refuse(*args):
            raise AssertionError("offsets found while deploying")

        monkeypatch.setattr(corpus, "_find_offsets", refuse)
        monkeypatch.setattr(corpus, "_tokenize_with_offsets", refuse)
        got = mask_corpus([corpus_file], vocab, spec, chunk_len=8, workers=workers)
        assert got == expected
        assert got[1].chunks > 30
