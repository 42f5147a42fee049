"""Span scorer: forward pass, loss, span ranking, and selection."""

import math

import numpy as np
import pytest

from maskpolicy.autodiff import Tensor
from maskpolicy.errors import (
    EmptySequenceError,
    NoCandidatesError,
    SequenceTooLongError,
    ShapeMismatchError,
)
from maskpolicy.corpus import Span
from maskpolicy.policy import (
    ScoredSpan,
    forward,
    init_policy_params,
    score_batch,
    score_positions,
    select_span,
    top_k_spans,
)
from maskpolicy.training import span_loss

from scalar_oracle import policy_forward, weights_from_params


def small_params(seed=0, vocab=8, d_emb=3, d_h=2):
    return init_policy_params(vocab, d_emb, d_h, seed=seed)


class TestForward:
    def test_output_shapes(self):
        params = small_params()
        start, end = forward(params, [3, 4, 5])
        assert start.data.shape == (3,)
        assert end.data.shape == (3,)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptySequenceError):
            forward(small_params(), [])

    def test_too_long_input_rejected(self):
        with pytest.raises(SequenceTooLongError):
            forward(small_params(), [3] * 9, max_input_len=8)

    def test_out_of_vocab_id_rejected(self):
        with pytest.raises(ShapeMismatchError):
            forward(small_params(vocab=8), [8])

    def test_matches_scalar_reference(self):
        params = small_params(seed=7)
        ids = [2, 5, 3, 7, 1]
        start, end = forward(params, ids)
        ref_start, ref_end = policy_forward(weights_from_params(params), ids)
        np.testing.assert_allclose(start.data, ref_start, atol=1e-12)
        np.testing.assert_allclose(end.data, ref_end, atol=1e-12)

    def test_deterministic(self):
        params = small_params(seed=3)
        a = forward(params, [1, 2, 3])[0].data
        b = forward(params, [1, 2, 3])[0].data
        assert np.array_equal(a, b)


class TestSpanLoss:
    def test_uniform_logits_give_two_log_n(self):
        n = 5
        start = Tensor(np.zeros(n))
        end = Tensor(np.zeros(n))
        loss = span_loss(start, end, Span(1, 3))
        assert loss.data == pytest.approx(2 * math.log(n), abs=1e-12)

    def test_peaked_logits(self):
        start = Tensor(np.array([2.0, 0.0]))
        end = Tensor(np.array([0.0, 2.0]))
        loss = span_loss(start, end, Span(0, 1))
        expected = 2 * -math.log(math.exp(2) / (math.exp(2) + 1))
        assert loss.data == pytest.approx(expected, abs=1e-12)

    def test_loss_is_scalar_and_positive(self):
        rng = np.random.default_rng(0)
        start = Tensor(rng.normal(size=4))
        end = Tensor(rng.normal(size=4))
        loss = span_loss(start, end, Span(2, 3))
        assert loss.data.shape == ()
        assert loss.data > 0


class TestScorePositions:
    def test_matches_forward_values(self):
        params = small_params(seed=5)
        ids = [4, 2, 6]
        start_t, end_t = forward(params, ids)
        start, end = score_positions(params, ids)
        np.testing.assert_array_equal(start, start_t.data)
        np.testing.assert_array_equal(end, end_t.data)

    def test_returns_plain_arrays(self):
        start, end = score_positions(small_params(), [3, 4])
        assert isinstance(start, np.ndarray)
        assert start.dtype == np.float64


class TestScoreBatch:
    LENGTHS = (1, 2, 17, 127, 128)

    def _batch(self, params):
        rng = np.random.default_rng(21)
        return [[int(t) for t in rng.integers(0, params.vocab_size, size=n)]
                for n in self.LENGTHS]

    def test_ragged_batch_matches_scalar_reference(self):
        params = init_policy_params(30, 5, 4, seed=13)
        batch = self._batch(params)
        weights = weights_from_params(params)
        got = score_batch(params, batch)
        assert [len(s) for s, _ in got] == list(self.LENGTHS)
        for ids, (start, end) in zip(batch, got):
            ref_start, ref_end = policy_forward(weights, ids)
            np.testing.assert_allclose(start, ref_start, rtol=0, atol=1e-10)
            np.testing.assert_allclose(end, ref_end, rtol=0, atol=1e-10)

    def test_ragged_batch_matches_one_at_a_time(self):
        params = init_policy_params(30, 5, 4, seed=14)
        batch = self._batch(params)
        for ids, (start, end) in zip(batch, score_batch(params, batch)):
            alone_start, alone_end = score_batch(params, [ids])[0]
            np.testing.assert_allclose(start, alone_start, rtol=0, atol=1e-12)
            np.testing.assert_allclose(end, alone_end, rtol=0, atol=1e-12)

    def test_empty_batch(self):
        assert score_batch(small_params(), []) == []

    def test_bad_sequence_rejected(self):
        params = small_params()
        with pytest.raises(EmptySequenceError):
            score_batch(params, [[1, 2], []])
        with pytest.raises(SequenceTooLongError):
            score_batch(params, [[1], [2] * 9], max_input_len=8)


class TestTopKSpans:
    def test_frozen_ranking(self):
        start = np.array([2.0, 0.0, 1.0])
        end = np.array([0.0, 1.0, 3.0])
        spans = top_k_spans(start, end, k=2, max_span_len=3)
        assert spans[0] == ScoredSpan(Span(0, 2), 5.0)
        assert spans[1] == ScoredSpan(Span(2, 2), 4.0)

    def test_candidate_count_short(self):
        start = np.zeros(3)
        spans = top_k_spans(start, start, k=100, max_span_len=10)
        # i <= j over 3 positions
        assert len(spans) == 6

    def test_candidate_count_with_length_cap(self):
        start = np.zeros(20)
        spans = top_k_spans(start, start, k=10_000, max_span_len=10)
        # sum over i of min(10, 20 - i)
        assert len(spans) == sum(min(10, 20 - i) for i in range(20))
        assert len(spans) == 155
        assert all(len(s.span) <= 10 for s in spans)

    def test_tie_break_start_then_end(self):
        start = np.zeros(3)
        spans = top_k_spans(start, start, k=6, max_span_len=3)
        got = [(s.span.start, s.span.end) for s in spans]
        assert got == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

    def test_all_equal_logits_rank_by_start_then_end(self):
        # every candidate ties, so the order is the tie rule alone
        start = np.full(7, 0.3)
        end = np.full(7, -1.1)
        spans = top_k_spans(start, end, k=100, max_span_len=3)
        got = [(s.span.start, s.span.end) for s in spans]
        assert got == [(i, j) for i in range(7) for j in range(i, min(i + 3, 7))]
        assert {s.score for s in spans} == {0.3 + -1.1}

    def test_ranking_invariant_to_shared_shift(self):
        rng = np.random.default_rng(11)
        start = rng.integers(-5, 5, size=8).astype(float)
        end = rng.integers(-5, 5, size=8).astype(float)
        base = [s.span for s in top_k_spans(start, end, k=20, max_span_len=4)]
        shifted = [
            s.span
            for s in top_k_spans(start + 3.0, end - 7.0, k=20, max_span_len=4)
        ]
        assert base == shifted

    def test_accepts_tensors(self):
        start = Tensor(np.array([1.0, 0.0]))
        end = Tensor(np.array([0.0, 1.0]))
        spans = top_k_spans(start, end, k=1, max_span_len=2)
        assert spans[0].span == Span(0, 1)

    def test_empty_scores_rejected(self):
        with pytest.raises(EmptySequenceError):
            top_k_spans(np.array([]), np.array([]), k=1, max_span_len=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            top_k_spans(np.zeros(2), np.zeros(2), k=0, max_span_len=2)

    def test_scores_descend(self):
        rng = np.random.default_rng(4)
        start = rng.normal(size=12)
        end = rng.normal(size=12)
        spans = top_k_spans(start, end, k=30, max_span_len=5)
        scores = [s.score for s in spans]
        assert scores == sorted(scores, reverse=True)


class TestSelectSpan:
    def _spans(self, n):
        return [ScoredSpan(Span(i, i), float(-i)) for i in range(n)]

    def test_top1_takes_best(self):
        rng = np.random.default_rng(0)
        assert select_span(self._spans(3), "top1", rng) == Span(0, 0)

    def test_top5_draws_from_pool(self):
        rng = np.random.default_rng(0)
        seen = {
            select_span(self._spans(8), "top5", np.random.default_rng(s)).start
            for s in range(200)
        }
        assert seen == {0, 1, 2, 3, 4}

    def test_top5_with_fewer_candidates(self):
        seen = {
            select_span(self._spans(2), "top5", np.random.default_rng(s)).start
            for s in range(100)
        }
        assert seen == {0, 1}

    def test_empty_candidates_rejected(self):
        with pytest.raises(NoCandidatesError):
            select_span([], "top1", np.random.default_rng(0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            select_span(self._spans(2), "best", np.random.default_rng(0))
