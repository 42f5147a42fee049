"""Tokenizer, vocabulary, chunking, alignment, and anchor loading."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpolicy.corpus import (
    MASK_ID,
    PAD_ID,
    UNK_ID,
    Span,
    TokenSequence,
    Vocab,
    align_answer,
    build_vocab,
    chunk_document,
    iter_documents,
    load_anchor_dataset,
    normalize_answer,
    token_offsets,
    tokenize,
)
from maskpolicy.errors import (
    AnswerNotFoundError,
    EmptyCorpusError,
    InvalidChunkLengthError,
    InvalidVocabError,
    MalformedRecordError,
    MaskPolicyError,
    UndecodableTextError,
)


def make_vocab(*tokens):
    return Vocab(["<pad>", "<unk>", "<mask>", *tokens])


class TestSpan:
    def test_length_and_indices(self):
        s = Span(2, 4)
        assert len(s) == 3
        assert list(s.indices()) == [2, 3, 4]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Span(3, 2)
        with pytest.raises(ValueError):
            Span(-1, 0)


class TestTokenize:
    def test_word_and_punctuation_offsets(self):
        toks = tokenize("Rolling Stone.")
        assert toks.texts == ("Rolling", "Stone", ".")
        assert token_offsets("Rolling Stone.") == [(0, 7), (8, 13), (13, 14)]

    def test_ids_against_vocab_with_unk(self):
        vocab = make_vocab("stone")
        toks = tokenize("stone boulder", vocab)
        assert toks.ids == (3, UNK_ID)
        assert toks.texts == ("stone", "boulder")

    def test_empty_text(self):
        assert len(tokenize("")) == 0

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_offsets_ordered_and_texts_match_source(self, text):
        toks = tokenize(text)
        prev_end = -1
        offsets = token_offsets(text)
        assert len(offsets) == len(toks)
        for (start, end), tok in zip(offsets, toks.texts):
            assert start >= prev_end
            assert text[start:end] == tok
            prev_end = end

    @given(st.text(alphabet="ab .,!7", max_size=60))
    @settings(max_examples=200)
    def test_every_nonspace_char_is_covered(self, text):
        covered = set()
        for start, end in token_offsets(text):
            covered.update(range(start, end))
        expected = {i for i, ch in enumerate(text) if not ch.isspace()}
        assert covered == expected


class TestVocab:
    def test_frequency_order_with_cap(self):
        vocab = build_vocab([self._write("a a b")], max_size=10)
        assert vocab.id_to_token == ("<pad>", "<unk>", "<mask>", "a", "b")
        assert vocab.id_of("a") == 3
        assert vocab.id_of("zzz") == UNK_ID

    def test_reserved_ids(self):
        vocab = make_vocab("x")
        assert vocab.id_of("<pad>") == PAD_ID == 0
        assert vocab.id_of("<unk>") == UNK_ID == 1
        assert vocab.id_of("<mask>") == MASK_ID == 2

    def test_lexicographic_tie_break(self):
        vocab = build_vocab([self._write("b a b a")], max_size=10)
        # equal counts: "a" before "b"
        assert vocab.id_to_token[3:] == ("a", "b")

    def test_max_size_includes_specials(self):
        vocab = build_vocab([self._write("a b c d")], max_size=5)
        assert len(vocab) == 5
        assert vocab.id_to_token[3:] == ("a", "b")

    def test_min_freq_filters(self):
        vocab = build_vocab([self._write("a a a b")], min_freq=2)
        assert "a" in vocab
        assert "b" not in vocab

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([self._write("   \n  ")])

    def test_save_load_hash_roundtrip(self, tmp_path):
        vocab = make_vocab("alpha", "beta")
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.content_hash() == vocab.content_hash()

    def test_missing_specials_rejected(self):
        with pytest.raises(ValueError):
            Vocab(["a", "b", "c"])

    def test_errors_are_package_errors(self):
        with pytest.raises(InvalidVocabError):
            Vocab(["a", "b", "c"])
        with pytest.raises(InvalidVocabError):
            Vocab(["<pad>", "<unk>", "<mask>", "a", "a"])

    def _write(self, text):
        import tempfile

        f = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
        f.write(text + "\n")
        f.close()
        return f.name


class TestChunking:
    def _seq(self, n):
        toks = " ".join("w" for _ in range(n))
        return tokenize(toks)

    def test_300_tokens_at_128(self):
        chunks = chunk_document(self._seq(300), L=128)
        assert [len(c) for c in chunks] == [128, 128, 44]
        assert [c.chunk_index for c in chunks] == [0, 1, 2]

    def test_short_tail_dropped(self):
        chunks = chunk_document(self._seq(260), L=128)
        assert [len(c) for c in chunks] == [128, 128]

    def test_short_document_single_chunk(self):
        chunks = chunk_document(self._seq(100), L=128)
        assert [len(c) for c in chunks] == [100]

    def test_tail_exactly_quarter_kept(self):
        chunks = chunk_document(self._seq(128 + 32), L=128)
        assert [len(c) for c in chunks] == [128, 32]

    def test_chunk_len_below_two_rejected(self):
        with pytest.raises(InvalidChunkLengthError):
            chunk_document(self._seq(10), L=1)

    def test_empty_document_gives_no_chunks(self):
        assert chunk_document(tokenize(""), L=8) == []

    @given(st.integers(0, 400), st.integers(2, 64))
    @settings(max_examples=200)
    def test_chunks_are_prefix_windows(self, n, L):
        seq = self._seq(n)
        chunks = chunk_document(seq, L=L)
        # each full window has exactly L tokens; only the last may be short
        for c in chunks[:-1]:
            assert len(c) == L
        assert [c.chunk_index for c in chunks] == list(range(len(chunks)))
        total = sum(len(c) for c in chunks)
        assert total <= n
        if chunks and len(chunks[-1]) < L:
            assert 4 * len(chunks[-1]) >= L
        # dropped tail is strictly shorter than L/4
        dropped = n - total
        assert dropped == 0 or 4 * dropped < L


class TestAlignment:
    def test_simple_case(self):
        ctx = "the Rolling Stone magazine"
        span = align_answer(token_offsets(ctx), ctx, "Rolling Stone")
        assert (span.start, span.end) == (1, 2)

    def test_case_insensitive(self):
        ctx = "the Rolling Stone magazine"
        span = align_answer(token_offsets(ctx), ctx, "rolling stone")
        assert (span.start, span.end) == (1, 2)

    def test_outer_punctuation_stripped(self):
        ctx = 'he said "hello there" loudly'
        offsets = token_offsets(ctx)
        span = align_answer(offsets, ctx, "hello there")
        covered = ctx[offsets[span.start][0]:offsets[span.end][1]]
        assert normalize_answer(covered) == "hello there"

    def test_earliest_match_wins(self):
        ctx = "stone and stone"
        span = align_answer(token_offsets(ctx), ctx, "stone")
        assert (span.start, span.end) == (0, 0)

    def test_unalignable_answer(self):
        ctx = "nothing relevant here"
        with pytest.raises(AnswerNotFoundError):
            align_answer(token_offsets(ctx), ctx, "absent")

    def test_answer_with_only_punctuation(self):
        ctx = "a b c"
        with pytest.raises(AnswerNotFoundError):
            align_answer(token_offsets(ctx), ctx, "...")


class TestUndecodableInput:
    """A bad byte names its file and its line, counted as a text-mode
    reader counts lines: after LF, CRLF or a lone CR."""

    def _bad_file(self, path, lines):
        path.write_bytes(b"\r\n".join(lines[:2]) + b"\r" + b"\n".join(lines[2:])
                         + b"\n\xe9t\xe9 \xc3\n")
        return path, len(lines) + 1

    def _expect(self, call, where):
        with pytest.raises(UndecodableTextError) as info:
            call(where[0])
        assert (info.value.path, info.value.line_no) == where
        assert str(info.value).startswith(f"{where[0]}:{where[1]}: not valid UTF-8")
        assert isinstance(info.value, (MaskPolicyError, ValueError))

    def test_corpus(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("fine\n", encoding="utf-8")
        where = self._bad_file(tmp_path / "c.txt", [b"one", b"two", b"three", b""])
        self._expect(lambda p: iter_documents([good, p]), where)

    def test_anchors(self, tmp_path):
        record = json.dumps({"context": "a b", "question": "q", "answer": "a"}).encode()
        where = self._bad_file(tmp_path / "a.jsonl", [record] * 3)
        self._expect(lambda p: load_anchor_dataset(p, make_vocab("a")), where)

    def test_vocab(self, tmp_path):
        where = self._bad_file(tmp_path / "v.txt", [b"<pad>", b"<unk>", b"<mask>"])
        self._expect(Vocab.load, where)


class TestDocumentsAndAnchors:
    def test_one_document_per_line(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("first doc\n\nsecond doc\n", encoding="utf-8")
        docs = iter_documents([p])
        assert [d[1] for d in docs] == ["first doc", "second doc"]
        assert docs[0][0].startswith("corpus.txt:")
        assert docs[0][0] < docs[1][0]

    def test_anchor_load_and_skip(self, tmp_path):
        vocab = make_vocab("the", "sky", "is", "blue")
        p = tmp_path / "anchors.jsonl"
        rows = [
            {"context": "the sky is blue", "question": "q", "answer": "blue"},
            {"context": "the sky is blue", "question": "q", "answer": "green"},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        examples, report = load_anchor_dataset(p, vocab)
        assert report.loaded == 1
        assert report.skipped == 1
        assert examples[0].answer_span == Span(3, 3)

    def test_malformed_json_aborts(self, tmp_path):
        p = tmp_path / "anchors.jsonl"
        p.write_text('{"context": "a"', encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            load_anchor_dataset(p, make_vocab("a"))

    def test_missing_field_aborts(self, tmp_path):
        p = tmp_path / "anchors.jsonl"
        p.write_text(json.dumps({"context": "a", "answer": "a"}), encoding="utf-8")
        with pytest.raises(MalformedRecordError) as exc:
            load_anchor_dataset(p, make_vocab("a"))
        assert "question" in str(exc.value)

    def test_non_object_record_aborts(self, tmp_path):
        p = tmp_path / "anchors.jsonl"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(MalformedRecordError):
            load_anchor_dataset(p, make_vocab("a"))


class TestTokenSequence:
    def test_slice_preserves_alignment(self):
        text = "alpha beta gamma delta"
        window = tokenize(text).slice(1, 3)
        offsets = token_offsets(text)[1:3]
        assert window.texts == ("beta", "gamma")
        assert text[offsets[0][0]:offsets[-1][1]] == "beta gamma"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TokenSequence((1,), ("a", "b"))
