"""Corruption of chunks into masked examples and corpus-scale deployment."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpolicy.baselines import MaskDecisions
from maskpolicy.checkpoint import save_checkpoint
from maskpolicy.corpus import MASK_ID, Chunk, Span, TokenSequence, Vocab, tokenize
from maskpolicy.corruption import (
    POLICIES,
    MaskedExample,
    PolicySpec,
    corrupt,
    mask_corpus,
    masked_example_from_json_obj,
    read_masked_jsonl,
    write_masked_jsonl,
    write_summary,
)
from maskpolicy.errors import (
    AllMaskedError,
    InvalidRateError,
    MaskPolicyError,
    SpanOutOfBoundsError,
    VocabMismatchError,
)
from maskpolicy.policy import init_policy_params
from maskpolicy.seeding import derive_seed


def chunk_of(text, vocab=None, doc_id="test:00000000", index=0):
    return Chunk(tokenize(text, vocab), doc_id, index)


@pytest.fixture
def vocab():
    return Vocab(["<pad>", "<unk>", "<mask>", "a", "b", "c", "d"])


class TestCorrupt:
    def test_span_replaces_interior(self, vocab):
        c = chunk_of("a b c d", vocab)
        ex = corrupt(c, Span(1, 2), policy_tag="randomspan", seed_used=9)
        assert ex.input_ids == (3, MASK_ID, MASK_ID, 6)
        assert ex.masked_positions == (1, 2)
        assert ex.target_ids == (4, 5)
        assert ex.policy_tag == "randomspan"
        assert ex.seed_used == 9

    def test_decision_vector(self, vocab):
        c = chunk_of("a b c d", vocab)
        d = MaskDecisions(np.array([True, False, False, True]))
        ex = corrupt(c, d)
        assert ex.input_ids == (MASK_ID, 4, 5, MASK_ID)
        assert ex.masked_positions == (0, 3)
        assert ex.target_ids == (3, 6)

    def test_empty_decision_keeps_chunk(self, vocab):
        c = chunk_of("a b", vocab)
        ex = corrupt(c, MaskDecisions(np.zeros(2, dtype=bool)))
        assert ex.input_ids == (3, 4)
        assert ex.masked_positions == ()

    def test_reconstruction(self, vocab):
        c = chunk_of("a b c d", vocab)
        ex = corrupt(c, Span(0, 2))
        assert ex.original_ids() == c.tokens.ids

    def test_all_masked_rejected(self, vocab):
        c = chunk_of("a b", vocab)
        with pytest.raises(AllMaskedError):
            corrupt(c, Span(0, 1))

    def test_span_out_of_bounds(self, vocab):
        c = chunk_of("a b", vocab)
        with pytest.raises(SpanOutOfBoundsError):
            corrupt(c, Span(1, 2))

    def test_wrong_length_decisions(self, vocab):
        c = chunk_of("a b c", vocab)
        with pytest.raises(SpanOutOfBoundsError):
            corrupt(c, MaskDecisions(np.zeros(2, dtype=bool)))

    @given(st.integers(2, 30), st.data())
    @settings(max_examples=200)
    def test_reconstruction_property(self, n, data):
        ids = data.draw(st.lists(st.integers(3, 50), min_size=n, max_size=n))
        text = " ".join("w" for _ in range(n))
        toks = tokenize(text)
        toks = type(toks)(tuple(ids), toks.texts)
        c = Chunk(toks, "prop:00000000", 0)
        start = data.draw(st.integers(0, n - 1))
        end = data.draw(st.integers(start, min(n - 2 if start == 0 else n - 1, start + 9)))
        ex = corrupt(c, Span(start, end))
        assert ex.original_ids() == tuple(ids)
        for pos in ex.masked_positions:
            assert ex.input_ids[pos] == MASK_ID

    @pytest.mark.parametrize("n", range(1, 13))
    def test_span_equals_its_mask(self, n):
        # A span and the decision vector that marks the same positions
        # must give the same example, down to the type of every id.
        c = Chunk(TokenSequence(tuple(range(10, 10 + n)), ("w",) * n), "span:00000000", 3)
        for start in range(n):
            for end in range(start, n + 2):
                # Past the end, the vector grows to hold the span.
                mask = np.zeros(max(n, end + 1), dtype=bool)
                mask[start:end + 1] = True
                decisions = (Span(start, end), MaskDecisions(mask))
                if end >= n:
                    for d in decisions:
                        with pytest.raises(SpanOutOfBoundsError):
                            corrupt(c, d)
                elif (start, end) == (0, n - 1):
                    for d in decisions:
                        with pytest.raises(AllMaskedError):
                            corrupt(c, d)
                else:
                    by_span, by_mask = (corrupt(c, d, policy_tag="t", seed_used=7)
                                        for d in decisions)
                    assert dataclasses.astuple(by_span) == dataclasses.astuple(by_mask)
                    for name in ("input_ids", "masked_positions", "target_ids"):
                        got = getattr(by_span, name)
                        assert type(got) is tuple
                        assert all(type(v) is int for v in got)
                        assert got == getattr(by_mask, name)
                    assert by_span.masked_positions == tuple(range(start, end + 1))

    def test_json_round_trip(self, vocab):
        c = chunk_of("a b c", vocab, doc_id="corpus.txt:00000007", index=3)
        ex = corrupt(c, Span(1, 1), policy_tag="salient", seed_used=42)
        assert masked_example_from_json_obj(ex.to_json_obj()) == ex


class TestMaskedRuns:
    @pytest.mark.parametrize("positions, runs", [
        ((), []),
        ((4,), [(4, 1)]),
        ((0, 1, 2, 5, 7, 8), [(0, 3), (5, 1), (7, 2)]),
        ((3, 4, 9, 10, 11), [(3, 2), (9, 3)]),
    ])
    def test_runs(self, positions, runs):
        ex = MaskedExample(input_ids=(0,) * 12, masked_positions=positions,
                           target_ids=(0,) * len(positions), doc_id="d",
                           chunk_index=0, policy_tag="", seed_used=0)
        assert ex.masked_runs() == runs


class TestPolicySpec:
    def test_every_kind_is_in_the_table(self):
        assert list(POLICIES) == ["random15", "randomspan", "salient", "learned"]
        # random15 masks tokens, not spans, so evaluation has nothing to rank
        assert [k for k, p in POLICIES.items() if p.proposer] == \
            ["randomspan", "salient", "learned"]

    def test_tags(self):
        assert PolicySpec(kind="random15").tag == "random15"
        assert PolicySpec(kind="learned", mode="top1").tag == "learned-top1"
        assert PolicySpec(kind="learned", mode="top5").tag == "learned-top5"

    def test_validate_rejects_unknown_kind(self):
        with pytest.raises(MaskPolicyError):
            PolicySpec(kind="oracle").validate()

    def test_validate_rejects_unknown_mode(self):
        with pytest.raises(MaskPolicyError):
            PolicySpec(kind="learned", mode="top9").validate()

    def test_validate_rejects_bad_rate(self):
        with pytest.raises(InvalidRateError):
            PolicySpec(kind="random15", rate=1.5).validate()

    def test_learned_requires_params(self):
        with pytest.raises(MaskPolicyError):
            PolicySpec(kind="learned").validate()


def write_corpus(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def small_corpus(tmp_path, vocab):
    p = tmp_path / "corpus.txt"
    lines = ["a b c d a b", "c c d a", "b a d c b a d"]
    write_corpus(p, lines)
    return p


class TestMaskCorpus:
    def test_every_chunk_masked_once(self, small_corpus, vocab):
        spec = PolicySpec(kind="randomspan")
        examples, summary = mask_corpus([small_corpus], vocab, spec, chunk_len=4)
        assert summary.chunks == len(examples) > 0
        for ex in examples:
            assert ex.masked_positions
            assert ex.policy_tag == "randomspan"

    def test_examples_sorted_by_doc_then_chunk(self, small_corpus, vocab):
        spec = PolicySpec(kind="random15")
        examples, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=4)
        keys = [(ex.doc_id, ex.chunk_index) for ex in examples]
        assert keys == sorted(keys)

    def test_seed_used_matches_derivation(self, small_corpus, vocab):
        spec = PolicySpec(kind="randomspan")
        examples, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=4, global_seed=5)
        for ex in examples:
            assert ex.seed_used == derive_seed(5, ex.doc_id, ex.chunk_index)

    def test_rerun_is_identical(self, small_corpus, vocab):
        spec = PolicySpec(kind="randomspan")
        a, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=4, global_seed=1)
        b, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=4, global_seed=1)
        assert a == b

    def test_global_seed_changes_output(self, small_corpus, vocab):
        spec = PolicySpec(kind="randomspan")
        a, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=4, global_seed=1)
        b, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=4, global_seed=2)
        assert a != b

    def test_worker_counts_agree(self, tmp_path, vocab):
        p = tmp_path / "corpus.txt"
        write_corpus(p, [f"a b c d {'a ' * (i % 5)}b" for i in range(12)])
        spec = PolicySpec(kind="random15")
        runs = [
            mask_corpus([p], vocab, spec, chunk_len=4, global_seed=3, workers=w)[0]
            for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_bad_worker_count(self, small_corpus, vocab):
        with pytest.raises(MaskPolicyError):
            mask_corpus([small_corpus], vocab, PolicySpec(kind="random15"), workers=0)

    def test_fully_masked_chunks_skipped_not_fatal(self, tmp_path, vocab):
        # a one-token chunk under a span policy would mask everything
        p = tmp_path / "corpus.txt"
        write_corpus(p, ["a", "a b c d"])
        spec = PolicySpec(kind="randomspan", max_span_len=1)
        examples, summary = mask_corpus([p], vocab, spec, chunk_len=2)
        assert summary.skipped_chunks == 1
        assert len(examples) == 2

    def test_masked_token_rate(self, small_corpus, vocab):
        spec = PolicySpec(kind="randomspan", max_span_len=1)
        examples, summary = mask_corpus([small_corpus], vocab, spec, chunk_len=4)
        total = sum(len(ex.input_ids) for ex in examples)
        masked = sum(len(ex.masked_positions) for ex in examples)
        assert summary.masked_token_rate == pytest.approx(masked / total)

    def test_span_length_histogram(self, small_corpus, vocab):
        spec = PolicySpec(kind="randomspan", max_span_len=3)
        examples, summary = mask_corpus([small_corpus], vocab, spec, chunk_len=6)
        lengths = [len(ex.masked_positions) for ex in examples]
        assert summary.span_length_hist == {
            n: lengths.count(n) for n in set(lengths)
        }

    def test_learned_policy_deploys(self, small_corpus, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=0)
        spec = PolicySpec(kind="learned", mode="top1", params=params,
                          vocab_hash=vocab.content_hash(), max_span_len=3,
                          max_input_len=8)
        examples, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=6)
        assert examples
        for ex in examples:
            assert ex.policy_tag == "learned-top1"
            # single contiguous span
            runs = np.diff(ex.masked_positions)
            assert (runs == 1).all() if len(ex.masked_positions) > 1 else True

    def test_learned_vocab_mismatch_rejected(self, small_corpus, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=0)
        spec = PolicySpec(kind="learned", mode="top1", params=params,
                          vocab_hash="0" * 64, max_input_len=8)
        with pytest.raises(VocabMismatchError):
            mask_corpus([small_corpus], vocab, spec, chunk_len=6)

    def test_salient_counts_fallbacks(self, tmp_path, vocab):
        p = tmp_path / "corpus.txt"
        write_corpus(p, ["a b c d"])  # nothing salient
        spec = PolicySpec(kind="salient")
        examples, summary = mask_corpus([p], vocab, spec, chunk_len=8)
        assert summary.fallback_spans == 1
        assert len(examples) == 1


class TestSerialization:
    def test_jsonl_round_trip(self, small_corpus, vocab, tmp_path):
        spec = PolicySpec(kind="random15")
        examples, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=4)
        out = tmp_path / "masked.jsonl"
        write_masked_jsonl(out, examples)
        assert read_masked_jsonl(out) == examples

    def test_jsonl_bytes_stable(self, small_corpus, vocab, tmp_path):
        spec = PolicySpec(kind="random15")
        examples, _ = mask_corpus([small_corpus], vocab, spec, chunk_len=4)
        p1, p2 = tmp_path / "m1.jsonl", tmp_path / "m2.jsonl"
        write_masked_jsonl(p1, examples)
        write_masked_jsonl(p2, examples)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_json(self, small_corpus, vocab, tmp_path):
        import json

        spec = PolicySpec(kind="randomspan")
        _, summary = mask_corpus([small_corpus], vocab, spec, chunk_len=4)
        out = tmp_path / "summary.json"
        write_summary(out, summary)
        obj = json.loads(out.read_text())
        assert obj["chunks"] == summary.chunks
        assert all(isinstance(k, str) for k in obj["span_length_hist"])
