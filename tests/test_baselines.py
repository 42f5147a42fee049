"""Baseline masking policies and the salient-span tagger."""

import json
from pathlib import Path

import numpy as np
import pytest
import salient_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpolicy import baselines
from maskpolicy.baselines import (
    RANDOM_MASK_RATE,
    SalientKind,
    SalientTag,
    random_span_mask,
    random_token_mask,
    salient_proposer,
    salient_span_mask_with_fallback,
    salient_spans,
    vocab_token_bits,
)
from maskpolicy.corpus import (
    UNK_ID,
    AnchorExample,
    Chunk,
    Span,
    Vocab,
    token_offsets,
    tokenize,
)
from maskpolicy.corruption import PolicySpec, mask_corpus
from maskpolicy.errors import InvalidRateError
from maskpolicy.evaluation import span_hit_metrics

FIXTURES = Path(__file__).parent / "data" / "tagger_fixtures.jsonl"


def chunk_of(text):
    return Chunk(tokenize(text), "test:00000000", 0)


def load_tagger_fixtures(path):
    """Fixture rows of (text, [(kind, start_char, end_char)])."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        rows.append((obj["text"],
                     [(t["kind"], t["start_char"], t["end_char"]) for t in obj["tags"]]))
    return rows


def tag_char_ranges(offsets, tags):
    """Tags as (kind, start_char, end_char) against the source text.
    `offsets` are the source's `token_offsets`, sliced as the tagged
    chunk was."""
    return [(tag.kind.value, offsets[tag.span.start][0], offsets[tag.span.end][1])
            for tag in tags]


class TestRandomTokenMask:
    def test_rate_zero_masks_nothing(self):
        d = random_token_mask(chunk_of("a b c d"), rate=0.0, rng=np.random.default_rng(0))
        assert not d.d.any()

    def test_rate_one_masks_everything(self):
        d = random_token_mask(chunk_of("a b c d"), rate=1.0, rng=np.random.default_rng(0))
        assert d.d.all()

    def test_default_rate(self):
        assert RANDOM_MASK_RATE == 0.15

    def test_rate_out_of_range(self):
        for rate in (-0.1, 1.1):
            with pytest.raises(InvalidRateError):
                random_token_mask(chunk_of("a"), rate=rate, rng=np.random.default_rng(0))

    def test_empirical_rate_within_band(self):
        # 10_000 Bernoulli(0.15) draws; 5 sigma band, sigma = sqrt(p(1-p)/n)
        text = " ".join("w" for _ in range(10_000))
        d = random_token_mask(chunk_of(text), rng=np.random.default_rng(7))
        rate = d.d.mean()
        sigma = (0.15 * 0.85 / 10_000) ** 0.5
        assert abs(rate - 0.15) < 5 * sigma

    def test_seeded_rng_reproduces(self):
        c = chunk_of("a b c d e f g h")
        d1 = random_token_mask(c, rng=np.random.default_rng(3))
        d2 = random_token_mask(c, rng=np.random.default_rng(3))
        assert np.array_equal(d1.d, d2.d)


class TestRandomSpanMask:
    def test_single_token_chunk(self):
        span = random_span_mask(chunk_of("w"), np.random.default_rng(0))
        assert span == Span(0, 0)

    def test_span_respects_length_cap(self):
        c = chunk_of(" ".join("w" for _ in range(30)))
        for s in range(50):
            span = random_span_mask(c, np.random.default_rng(s), max_span_len=4)
            assert 1 <= len(span) <= 4
            assert span.end < 30

    def test_uniform_over_candidates(self):
        # 3 tokens, cap 2: spans (0,0) (0,1) (1,1) (1,2) (2,2)
        c = chunk_of("a b c")
        counts = {}
        for s in range(5000):
            span = random_span_mask(c, np.random.default_rng(s), max_span_len=2)
            counts[(span.start, span.end)] = counts.get((span.start, span.end), 0) + 1
        assert set(counts) == {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)}
        expected = 5000 / 5
        assert all(abs(n - expected) < 5 * expected**0.5 for n in counts.values())


class TestDateTagging:
    def _kinds(self, text):
        return [(t.kind.value, t.span.start, t.span.end) for t in salient_spans(chunk_of(text))]

    def test_month_day_comma_year(self):
        # "January 7 , 1946" spans four tokens
        assert self._kinds("born January 7, 1946 here") == [("Date", 1, 4)]

    def test_day_month_year(self):
        assert self._kinds("on 7 January 1946 it rained") == [("Date", 1, 3)]

    def test_month_year(self):
        assert self._kinds("in May 1947 it rained") == [("Date", 1, 2)]

    def test_bare_year(self):
        assert self._kinds("a 1991 film") == [("Date", 1, 1)]

    def test_year_out_of_range_is_number(self):
        assert self._kinds("a 3001 sample") == [("Number", 1, 1)]

    def test_month_alone_untagged(self):
        # a bare month name reads as a capitalized word, not a date
        tags = salient_spans(chunk_of("the May issue"))
        assert [(t.kind.value,) for t in tags] == [("CapSequence",)]

    def test_ordinal_day(self):
        assert self._kinds("the 7th May parade") == [("Date", 1, 2)]

    def test_abbreviated_month(self):
        assert self._kinds("on Jan 7, 1946 exactly") == [("Date", 1, 4)]

    def test_arabic_indic_year(self):
        # decimal digits of any script are read as numbers
        assert self._kinds("built May ١٩٤٦ here") == [("Date", 1, 2)]
        assert self._kinds("a ١٩٤٦ film") == [("Date", 1, 1)]

    def test_superscript_is_not_a_day(self):
        # "5²" and "²" are digits to str.isdigit() but not to int()
        assert self._kinds("on 5² May") == [("Number", 1, 1), ("CapSequence", 2, 2)]
        assert self._kinds("on ² May") == [("CapSequence", 2, 2)]

    def test_superscript_ordinal_is_not_a_day(self):
        assert self._kinds("the ²nd May parade") == [("CapSequence", 2, 2)]


class TestNumberTagging:
    def test_multi_digit_number(self):
        tags = salient_spans(chunk_of("there were 42 cats"))
        assert [(t.kind.value, t.span.start) for t in tags] == [("Number", 2)]

    def test_single_digit_untagged(self):
        assert salient_spans(chunk_of("there were 4 cats")) == []

    def test_date_takes_precedence_over_number(self):
        tags = salient_spans(chunk_of("early 1946 snow"))
        assert [t.kind.value for t in tags] == ["Date"]


class TestCapSequenceTagging:
    def test_multiword_run(self):
        tags = salient_spans(chunk_of("visited New York City today"))
        assert tags == [SalientTag(Span(1, 3), SalientKind.CAP_SEQUENCE)]

    def test_sentence_initial_singleton_dropped(self):
        assert salient_spans(chunk_of("Born in town.")) == []

    def test_sentence_initial_kept_when_recurring(self):
        tags = salient_spans(chunk_of("Stone tools. He wrote for Stone."))
        kinds = [(t.kind.value, t.span.start, t.span.end) for t in tags]
        assert ("CapSequence", 0, 0) in kinds

    def test_sentence_initial_multiword_kept(self):
        tags = salient_spans(chunk_of("New York is large."))
        assert tags[0].span == Span(0, 1)

    def test_midsentence_singleton_kept(self):
        tags = salient_spans(chunk_of("he met Alice today"))
        assert tags == [SalientTag(Span(2, 2), SalientKind.CAP_SEQUENCE)]

    def test_lowercase_text_untagged(self):
        assert salient_spans(chunk_of("plain words only here")) == []

    def test_tags_sorted_and_disjoint(self):
        text = "Robert De Niro starred in Cape Fear, a 1991 film."
        tags = salient_spans(chunk_of(text))
        starts = [t.span.start for t in tags]
        assert starts == sorted(starts)
        taken = set()
        for t in tags:
            for i in t.span.indices():
                assert i not in taken
                taken.add(i)


class TestTaggerFixtures:
    def test_fixture_file_reproduced_exactly(self):
        rows = load_tagger_fixtures(FIXTURES)
        assert len(rows) >= 5
        for text, expected in rows:
            chunk = chunk_of(text)
            got = tag_char_ranges(token_offsets(text), salient_spans(chunk))
            assert got == expected, f"tagger mismatch on {text!r}"

    def test_char_ranges_slice_source_text(self):
        text = "born January 7, 1946 in New York"
        chunk = chunk_of(text)
        ranges = tag_char_ranges(token_offsets(text), salient_spans(chunk))
        assert [(k, text[a:b]) for k, a, b in ranges] == [
            ("Date", "January 7, 1946"),
            ("CapSequence", "New York"),
        ]


class TestSalientSpanMask:
    def test_picks_a_salient_span(self):
        c = chunk_of("he met Alice in 1991 today")
        spans = {salient_span_mask_with_fallback(c, np.random.default_rng(s))[0]
                 for s in range(50)}
        tagged = {t.span for t in salient_spans(c)}
        assert spans == tagged

    def test_fallback_when_nothing_salient(self):
        c = chunk_of("plain words only here")
        span, fell_back = salient_span_mask_with_fallback(c, np.random.default_rng(0))
        assert fell_back
        assert 0 <= span.start <= span.end < 4

    def test_no_fallback_when_salient_present(self):
        c = chunk_of("he met Alice today")
        span, fell_back = salient_span_mask_with_fallback(c, np.random.default_rng(0))
        assert not fell_back
        assert span == Span(2, 2)

    def test_long_tags_excluded_by_cap(self):
        # the only tag spans 3 tokens; cap 2 forces fallback
        c = chunk_of("met New York City")
        span, fell_back = salient_span_mask_with_fallback(
            c, np.random.default_rng(0), max_span_len=2)
        assert fell_back
        assert len(span) <= 2


# Tokens for the differential test: every predicate the tagger reads,
# with the spellings where str methods disagree (casefold changes the
# length of "ſ" and "ﬆ"; "ǅ" is titlecase, not upper; "_" is \w but not
# alphanumeric; "²" is a digit but not decimal; "١٩٤٦" is decimal).
_ORACLE_POOL = (
    ["January", "january", "JANUARY", "May", "mAy", "MAY", "Sept", "sep",
     "SEP", "Dec", "dEC", "ſep", "Mayo", "Marches"]
    + [str(d) for d in range(33)] + ["00", "07", "031", "007"]
    + ["1st", "7th", "21ST", "2nd", "3Rd", "31st", "32nd", "0th", "7ſt", "21ﬆ", "th"]
    + ["0999", "1000", "1946", "2999", "3000", "999", "10000"]
    + [",", ".", "!", "?", ";", "-", "—"]
    + ["New", "York", "Alice", "Stone", "the", "of", "he", "ǅemal", "ǅ", "Ǆ",
       "École", "Ōsaka", "éclair", "ΑΘΗΝΑ"]
    + ["_", "__", "_A", "A_"]
    + ["١٩٤٦", "١٢", "٣", "5²", "²", "²nd", "²³", "42", "123"]
)


class TestAgainstOracle:
    """The tagger agrees with the rule-by-rule reference in
    tests/salient_oracle.py on kinds and spans."""

    @given(st.lists(st.sampled_from(_ORACLE_POOL), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_tags_match_reference(self, tokens):
        chunk = chunk_of(" ".join(tokens))
        got = [(t.kind.value, t.span.start, t.span.end) for t in salient_spans(chunk)]
        assert got == salient_oracle.salient_spans(chunk.tokens.texts)


def _vocab_of(tokens):
    return Vocab(["<pad>", "<unk>", "<mask>", *tokens])


class TestTokenBitsTable:
    """salient_spans reads a known token's bits from vocab_token_bits by
    id, and gives the same tags as without the table."""

    @given(st.lists(st.sampled_from(_ORACLE_POOL), max_size=40),
           st.lists(st.sampled_from(_ORACLE_POOL), unique=True))
    @settings(max_examples=300, deadline=None)
    def test_tags_equal_without_the_table(self, tokens, known):
        vocab = _vocab_of(known)
        chunk = Chunk(tokenize(" ".join(tokens), vocab), "test:00000000", 0)
        tags = salient_spans(chunk, vocab_token_bits(vocab))
        assert tags == salient_spans(chunk)
        if len(chunk):
            assert (salient_span_mask_with_fallback(chunk, np.random.default_rng(0), 3,
                                                    vocab_token_bits(vocab))
                    == salient_span_mask_with_fallback(chunk, np.random.default_rng(0), 3))

    @given(st.lists(st.lists(st.sampled_from(_ORACLE_POOL), min_size=1, max_size=40),
                    min_size=1, max_size=8),
           st.lists(st.sampled_from(_ORACLE_POOL), unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_span_hit_metrics_equal_without_the_table(self, contexts, known, data):
        vocab = _vocab_of(known)
        dataset = []
        for words in contexts:
            context = " ".join(words)
            tokens = tokenize(context, vocab)
            start = data.draw(st.integers(0, len(tokens) - 1))
            gold = Span(start, data.draw(st.integers(start, min(start + 2, len(tokens) - 1))))
            dataset.append(AnchorExample(context, "q", "a", tokens, gold))
        kw = {"max_span_len": 3, "max_input_len": 16, "seed": 7}
        assert (span_hit_metrics(salient_proposer(3, vocab_token_bits(vocab)), dataset,
                                 "salient", **kw)
                == span_hit_metrics(salient_proposer(3), dataset, "salient", **kw))

    def test_unknown_tokens_read_their_text(self):
        vocab = _vocab_of(["met", "in"])
        chunk = Chunk(tokenize("met Alice in 1991", vocab), "test:00000000", 0)
        assert chunk.tokens.ids.count(UNK_ID) == 2
        tags = salient_spans(chunk, vocab_token_bits(vocab))
        assert [(t.kind, t.span) for t in tags] == [
            (SalientKind.CAP_SEQUENCE, Span(1, 1)), (SalientKind.DATE, Span(3, 3))]

    def test_one_table_per_vocab_object(self):
        vocab = _vocab_of(["May", "the", "1946"])
        table = vocab_token_bits(vocab)
        assert vocab_token_bits(vocab) is table
        assert len(table) == len(vocab)
        assert vocab_token_bits(_vocab_of(["May", "the", "1946"])) is not table

    def test_built_by_the_salient_deploy_not_by_load(self, tmp_path):
        _vocab_of(["he", "met", "Alice"]).save(tmp_path / "vocab.txt")
        (tmp_path / "corpus.txt").write_text("he met Alice in May\n", encoding="utf-8")
        vocab = Vocab.load(tmp_path / "vocab.txt")
        assert vocab not in baselines._vocab_bits
        mask_corpus([tmp_path / "corpus.txt"], vocab, PolicySpec(kind="random15"), chunk_len=4)
        assert vocab not in baselines._vocab_bits
        mask_corpus([tmp_path / "corpus.txt"], vocab, PolicySpec(kind="salient"), chunk_len=4)
        assert vocab in baselines._vocab_bits
