"""Span-prediction metrics, answer coverage, and policy comparison."""

import dataclasses

import numpy as np
import pytest

from maskpolicy.baselines import random_span_proposer, salient_proposer
from maskpolicy.corpus import Chunk, Span, Vocab, tokenize
from maskpolicy.corruption import corrupt
from maskpolicy.errors import (
    EmptyDatasetError,
    TooFewReportsError,
    VocabMismatchError,
)
from maskpolicy import policy
from maskpolicy.evaluation import (
    REPORT_K,
    PolicyReport,
    answer_coverage,
    compare_policies,
    read_report,
    report_from_json_obj,
    span_hit_metrics,
    token_f1,
    write_report,
)
from maskpolicy.policy import init_policy_params, score_positions, top_k_spans
from maskpolicy.training import prepare_example

from synth import synth_examples, synth_vocab


class TestTokenF1:
    def test_partial_overlap(self):
        # gold {1, 2}, pred {1, 2, 3}: precision 2/3, recall 1 -> 0.8
        assert token_f1(Span(1, 3), Span(1, 2)) == pytest.approx(0.8)

    def test_exact_match(self):
        assert token_f1(Span(4, 6), Span(4, 6)) == 1.0

    def test_disjoint(self):
        assert token_f1(Span(0, 1), Span(3, 4)) == 0.0

    def test_symmetric(self):
        assert token_f1(Span(1, 3), Span(2, 5)) == token_f1(Span(2, 5), Span(1, 3))


class TestSpanHitMetrics:
    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            span_hit_metrics(random_span_proposer(), [], "randomspan")

    def test_perfect_proposer_scores_one(self):
        data = synth_examples(10, seed=0)
        golds = {}
        for idx, ex in enumerate(data):
            golds[idx] = prepare_example(ex, 24)[1]

        def oracle(chunk, k, rng):
            return [golds[chunk.chunk_index]]

        report = span_hit_metrics(oracle, data, "oracle", max_input_len=24)
        assert report.em_at_1 == 1.0
        assert report.em_at_5 == 1.0
        assert report.token_f1_at_1 == 1.0
        assert report.n_examples == 10

    def test_hopeless_proposer_scores_zero(self):
        data = synth_examples(10, seed=1)

        def never(chunk, k, rng):
            return []

        report = span_hit_metrics(never, data, "never", max_input_len=24)
        assert report.em_at_1 == 0.0
        assert report.em_at_5 == 0.0

    def test_em1_never_exceeds_em5(self):
        data = synth_examples(30, seed=2)
        report = span_hit_metrics(
            random_span_proposer(max_span_len=3), data, "randomspan",
            max_span_len=3, max_input_len=24, seed=5)
        assert report.em_at_1 <= report.em_at_5

    def test_learned_params_accepted_directly(self):
        vocab = synth_vocab()
        data = synth_examples(6, seed=3)
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=0)
        report = span_hit_metrics(params, data, "learned-top1",
                                  max_span_len=5, max_input_len=24)
        assert report.n_examples == 6
        assert 0.0 <= report.em_at_5 <= 1.0

    def test_learned_batches_match_one_window_at_a_time(self):
        # windows of 7 to 16 tokens, some cut around the answer, in more
        # than one scoring batch
        data = synth_examples(45, seed=6)
        assert len(data) > policy.SCORE_BATCH
        params = init_policy_params(len(synth_vocab()), d_emb=4, d_h=3, seed=5)
        got = span_hit_metrics(params, data, "learned-top1", max_span_len=4, max_input_len=16)
        em1 = em5 = 0
        f1 = 0.0
        for ex in data:
            ids, gold = prepare_example(ex, 16)
            start, end = score_positions(params, ids, max_input_len=16)
            spans = [c.span for c in top_k_spans(start, end, REPORT_K, 4)]
            em1 += spans[0] == gold
            em5 += gold in spans
            f1 += token_f1(spans[0], gold)
        assert em1 > 0 and em5 > em1  # this seed scores some hits at both depths
        n = len(data)
        assert (got.em_at_1, got.em_at_5, got.token_f1_at_1) == (em1 / n, em5 / n, f1 / n)

    def test_deterministic_given_seed(self):
        data = synth_examples(12, seed=4)
        kw = dict(max_span_len=4, max_input_len=24, seed=7)
        a = span_hit_metrics(random_span_proposer(4), data, "randomspan", **kw)
        b = span_hit_metrics(random_span_proposer(4), data, "randomspan", **kw)
        assert a == b

    def test_salient_proposer_on_plain_text_proposes_nothing(self):
        vocab = Vocab(["<pad>", "<unk>", "<mask>", "alice", "met", "bob"])
        chunk = Chunk(tokenize("alice met bob", vocab), "t", 0)
        got = salient_proposer()(chunk, 5, np.random.default_rng(0))
        assert got == []


class TestAnswerCoverage:
    @pytest.fixture
    def vocab(self):
        return Vocab(["<pad>", "<unk>", "<mask>", "the", "sky", "is", "blue",
                      "red", "Paris"])

    def _masked(self, text, span, vocab):
        chunk = Chunk(tokenize(text, vocab), "t:00000000", 0)
        return corrupt(chunk, span)

    def test_covered_answer(self, vocab):
        ex = self._masked("the sky is blue", Span(3, 3), vocab)
        frac, details = answer_coverage([ex], ["blue"], vocab)
        assert frac == 1.0
        assert details == [{"answer": "blue", "present": True, "covered": True}]

    def test_present_but_not_covered(self, vocab):
        ex = self._masked("the sky is blue", Span(1, 1), vocab)
        frac, details = answer_coverage([ex], ["blue"], vocab)
        assert frac == 0.0
        assert details[0]["present"] and not details[0]["covered"]

    def test_absent_answer_excluded_from_denominator(self, vocab):
        ex = self._masked("the sky is blue", Span(3, 3), vocab)
        frac, details = answer_coverage([ex], ["blue", "Paris"], vocab)
        assert frac == 1.0
        assert details[1] == {"answer": "Paris", "present": False, "covered": False}

    def test_partial_run_does_not_cover(self, vocab):
        # masking "is blue" is not an exact hit for the answer "blue"
        ex = self._masked("the sky is blue", Span(2, 3), vocab)
        frac, _ = answer_coverage([ex], ["blue"], vocab)
        assert frac == 0.0

    def test_case_insensitive_match(self, vocab):
        ex = self._masked("the sky is Paris", Span(3, 3), vocab)
        frac, _ = answer_coverage([ex], ["paris"], vocab)
        assert frac == 1.0

    def test_no_present_answers_gives_zero(self, vocab):
        ex = self._masked("the sky is blue", Span(0, 0), vocab)
        frac, _ = answer_coverage([ex], ["Paris"], vocab)
        assert frac == 0.0

    def test_id_outside_vocab_rejected(self, vocab):
        ex = self._masked("the sky is blue", Span(0, 0), vocab)
        small = Vocab(["<pad>", "<unk>", "<mask>", "the"])
        with pytest.raises(VocabMismatchError):
            answer_coverage([ex], ["the"], small)

    def test_negative_id_rejected(self, vocab):
        # a negative id would read from the end of the vocabulary: here it
        # turns "blue" into "Paris", present and covered
        ex = dataclasses.replace(self._masked("the sky is blue", Span(3, 3), vocab),
                                 target_ids=(-1,))
        with pytest.raises(VocabMismatchError, match="token id -1"):
            answer_coverage([ex], ["Paris"], vocab)


def report(tag, em5, em1=0.0):
    return PolicyReport(policy_tag=tag, em_at_1=em1, em_at_5=em5,
                        token_f1_at_1=0.0, answer_coverage=None, n_examples=10)


class TestComparePolicies:
    def test_sorted_by_em5_descending(self):
        table, payload = compare_policies(
            [report("a", 0.2), report("b", 0.9), report("c", 0.5)])
        order = [row["policy"] for row in payload["policies"]]
        assert order == ["b", "c", "a"]
        lines = table.splitlines()
        # header, separator, then rows in rank order
        assert lines[2].split()[0] == "b"

    def test_tie_broken_by_tag(self):
        _, payload = compare_policies([report("zeta", 0.5), report("alpha", 0.5)])
        assert [r["policy"] for r in payload["policies"]] == ["alpha", "zeta"]

    def test_single_report_rejected(self):
        with pytest.raises(TooFewReportsError):
            compare_policies([report("a", 0.1)])

    def test_table_has_header_and_rows(self):
        table, _ = compare_policies([report("a", 0.2), report("b", 0.3)])
        lines = table.splitlines()
        assert "em@5" in lines[0]
        assert len(lines) == 4  # header, separator, two rows


class TestReportSerialization:
    def test_round_trip(self, tmp_path):
        r = PolicyReport("learned-top1", 0.8, 0.95, 0.87, 0.4, 100)
        path = tmp_path / "report.json"
        write_report(path, r)
        assert read_report(path) == r

    def test_null_coverage_survives(self, tmp_path):
        r = report("randomspan", 0.3)
        path = tmp_path / "report.json"
        write_report(path, r)
        assert read_report(path).answer_coverage is None

    def test_json_keys(self):
        obj = report("salient", 0.5).to_json_obj()
        assert set(obj) == {"policy", "em_at_1", "em_at_5", "token_f1_at_1",
                            "answer_coverage", "n"}

    def test_from_json_obj_inverse(self):
        r = PolicyReport("x", 0.1, 0.2, 0.3, None, 7)
        assert report_from_json_obj(r.to_json_obj()) == r
