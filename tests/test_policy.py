"""Span scorer: forward pass, loss, span ranking, and selection."""

import math

import numpy as np
import pytest

from maskpolicy import corruption, evaluation, policy, training
from maskpolicy.autodiff import Tensor
from maskpolicy.errors import (
    EmptySequenceError,
    InvalidOptionError,
    MaskPolicyError,
    NoCandidatesError,
    NonFiniteError,
    SequenceTooLongError,
    ShapeMismatchError,
)
from maskpolicy.corpus import Span, chunk_document, iter_documents, tokenize
from maskpolicy.corruption import PolicySpec, mask_corpus
from maskpolicy.policy import (
    PolicyParams,
    ScoredSpan,
    forward,
    forward_batch,
    init_policy_params,
    param_shapes,
    score_batch,
    score_batches,
    score_positions,
    select_span,
    span_band,
    top_k_spans,
)
from maskpolicy.evaluation import span_hit_metrics
from maskpolicy.lstm import bilstm_sequence
from maskpolicy.training import prepare_example, span_loss, validation_loss

from scalar_oracle import policy_forward, weights_from_params
from synth import synth_context, synth_examples, synth_vocab


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

    def test_non_finite_output_rejected(self):
        # a NaN LSTM bias: the hidden states (3 positions, 2H = 4) are the
        # first tensor that is not finite, on the tape and off it
        params = small_params()
        params.tensors["lstm1.fwd.b"].data[:] = np.nan
        for run in (lambda: forward_batch(params, [[1, 2, 3]]),
                    lambda: score_batch(params, [[1, 2, 3]])):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NonFiniteError, match=r"shape \(3, 4\)"):
                run()

    def test_record_decides_the_tape(self):
        # the same logits either way; only a recording call gives them parents
        params = small_params()
        batch = [[1, 2, 3], [4, 1]]
        recorded = forward_batch(params, batch, record=True)
        plain = forward_batch(params, batch, record=False)
        for on, off in zip(recorded[:2], plain[:2]):
            np.testing.assert_array_equal(on.data, off.data)
            assert on.requires_grad is True and on._parents
            assert off.requires_grad is False and off._parents == () and off._backward is None
        assert recorded[2] == plain[2]


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

    @pytest.mark.parametrize("d", [8, 32, 128])
    def test_taped_forward_equals_scoring_on_synth_windows(self, d):
        # training's taped forward and every scoring call run one path, so
        # their logits agree bit for bit, also at widths where a product's
        # rows round by its height (d = 32)
        params = init_policy_params(len(synth_vocab()), d, d, seed=d)
        for ex in synth_examples(60, 3):
            ids, _ = prepare_example(ex, 24)
            start_t, end_t = forward(params, ids, 24)
            start, end = score_positions(params, ids, 24)
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

    def test_rows_come_back_in_input_order(self):
        # the batch is sorted longest first inside, equal lengths included;
        # every row's logits come back at its input position
        params = init_policy_params(30, 5, 4, seed=15)
        rng = np.random.default_rng(22)
        lengths = rng.permutation([128] * 5 + [40, 77, 40, 12]).tolist()
        batch = [[int(t) for t in rng.integers(0, params.vocab_size, size=n)] for n in lengths]
        got = score_batch(params, batch)
        assert [(len(s), len(e)) for s, e in got] == [(n, n) for n in lengths]
        for ids, (start, end) in zip(batch, got):
            alone_start, alone_end = score_batch(params, [ids])[0]
            np.testing.assert_allclose(start, alone_start, rtol=0, atol=1e-12)
            np.testing.assert_allclose(end, alone_end, rtol=0, atol=1e-12)
        perm = rng.permutation(len(batch))
        for (start, end), b in zip(score_batch(params, [batch[b] for b in perm]), perm):
            np.testing.assert_allclose(start, got[b][0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(end, got[b][1], rtol=0, atol=1e-12)

    def test_empty_batch(self):
        assert score_batch(small_params(), []) == []

    def test_bad_sequence_rejected(self):
        params = small_params()
        with pytest.raises(EmptySequenceError):
            score_batch(params, [[1, 2], []])
        with pytest.raises(SequenceTooLongError):
            score_batch(params, [[1], [2] * 9], max_input_len=8)
        for bad in (-1, params.vocab_size):
            ids = [1] * 90 + [bad] + [2] * 37
            with pytest.raises(ShapeMismatchError):
                score_batch(params, [[1, 2], ids])


class TestScoreBatches:
    def test_cuts_in_order(self, monkeypatch):
        monkeypatch.setattr(policy, "SCORE_BATCH", 3)
        assert list(score_batches(iter(range(7)))) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(score_batches([])) == []

    def test_every_caller_hands_the_scorer_batches_cut_in_order(self, monkeypatch, tmp_path):
        monkeypatch.setattr(policy, "SCORE_BATCH", 7)
        batches = []

        def recording_score_batch(params, batch, max_input_len, reverse=None):
            batches.append([tuple(ids) for ids in batch])
            return score_batch(params, batch, max_input_len, reverse)

        for module in (corruption, training, evaluation):
            monkeypatch.setattr(module, "score_batch", recording_score_batch)

        def handed(run, expected):
            batches.clear()
            run()
            assert [len(b) for b in batches[:-1]] == [7] * (len(batches) - 1)
            assert 1 <= len(batches[-1]) <= 7
            assert [ids for b in batches for ids in b] == [tuple(ids) for ids in expected]

        vocab = synth_vocab()
        params = init_policy_params(len(vocab), 4, 3, seed=0)
        rng = np.random.default_rng(8)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(synth_context(rng)[0] + "\n" for _ in range(12)),
                          encoding="utf-8")
        spec = PolicySpec(kind="learned", params=params, max_span_len=3, max_input_len=6)
        chunks = [c.tokens.ids for doc_id, text in iter_documents([corpus])
                  for c in chunk_document(tokenize(text, vocab), 6, doc_id=doc_id)]
        assert len(chunks) > 2 * 7
        handed(lambda: mask_corpus([corpus], vocab, spec, chunk_len=6), chunks)

        windows = [prepare_example(ex, 12) for ex in synth_examples(17, seed=9)]
        handed(lambda: validation_loss(params, windows, 12), [ids for ids, _ in windows])
        handed(lambda: span_hit_metrics(params, synth_examples(17, seed=9), "learned",
                                        max_span_len=3, max_input_len=12),
               [ids for ids, _ in windows])


def gathered_logits(params, batch):
    """score_batch's logits with the first layer reading every padded
    position's own embedding row instead of each distinct id's once."""
    order = np.argsort([-len(s) for s in batch], kind="stable")
    lengths = np.array([len(batch[b]) for b in order])
    T, B = int(lengths.max()), len(batch)
    ids = np.zeros((T, B), dtype=np.intp)
    for c, b in enumerate(order):
        ids[:len(batch[b]), c] = batch[b]
    positions = np.arange(T * B).reshape(T, B)
    w = {name: t.data for name, t in params.named_parameters()}
    hidden = w["embedding"][ids.reshape(-1)]
    for layer in ("lstm1", "lstm2"):
        hidden, _ = bilstm_sequence(hidden, positions, lengths,
                                    *((w[f"{layer}.{d}.W"], w[f"{layer}.{d}.b"])
                                      for d in ("fwd", "bwd")))
    start, end = (np.vecdot(hidden, w[f"head.{h}.w"]).reshape(T, B) for h in ("start", "end"))
    got = {b: (start[:len(batch[b]), c], end[:len(batch[b]), c]) for c, b in enumerate(order)}
    return [got[b] for b in range(B)]


class TestDistinctIds:
    """score_batch projects each distinct id of a batch once. A product of
    one row rounds differently from a wider one, so the batches with one
    or two distinct ids (the padding's id 0 counts) pin that the first
    layer never runs a product whose rows round differently from the
    gathered batch's."""

    @pytest.mark.parametrize("batch", [[[7]], [[7, 7]], [[7, 7, 7]], [[5, 6], [5]], "deploy"])
    def test_logits_equal_the_gathered_batch(self, batch):
        params = init_policy_params(300, 128, 128, seed=31)
        if batch == "deploy":
            rng = np.random.default_rng(32)
            lengths = rng.permutation([128] * 28 + [77, 40, 101, 12])
            batch = [[int(t) for t in rng.zipf(1.3, size=n) % 300] for n in lengths]
        for (start, end), (want_start, want_end) in zip(score_batch(params, batch),
                                                         gathered_logits(params, batch)):
            np.testing.assert_array_equal(start, want_start)
            np.testing.assert_array_equal(end, want_end)


def layer1_rows(monkeypatch, params, batch, record):
    """The ids of the embedding rows forward_batch hands to the first
    layer, on the tape or off it, and per sequence, in input order, the
    rows its positions read."""
    seen = []

    def recording_bilstm_sequence(rows, index, *args):
        seen.append((rows, np.asarray(index)))
        return bilstm_sequence(rows, index, *args)

    with monkeypatch.context() as patch:
        patch.setattr(policy, "bilstm_sequence", recording_bilstm_sequence)
        _, _, columns = forward_batch(params, batch, record=record)
    rows, index = seen[0]
    # every row of the embedding is distinct, so a row names its id
    matches = (rows[:, None, :] == params.embedding.data[None]).all(axis=2)
    assert (matches.sum(axis=1) == 1).all()
    return matches.argmax(axis=1), [index[:len(ids), c] for ids, c in zip(batch, columns)]


class TestLayerOneRows:
    """The rows of the embedding the first layer reads, for a batch whose
    windows share and repeat ids and are not longest first."""

    BATCH = [[4, 2, 4], [2, 5, 2, 6, 5], [6, 6], [3, 2, 4, 2, 3]]

    def test_off_the_tape_each_distinct_id_of_the_batch_once(self, monkeypatch):
        ids, reads = layer1_rows(monkeypatch, small_params(), self.BATCH, record=False)
        batch_ids = {t for seq in self.BATCH for t in seq}
        assert len(set(ids.tolist())) == len(ids)
        assert batch_ids <= set(ids.tolist()) <= batch_ids | {0}  # 0 pads
        for seq, rows in zip(self.BATCH, reads):
            assert ids[rows].tolist() == seq

    def test_on_the_tape_each_window_its_own_rows_in_input_order(self, monkeypatch):
        ids, reads = layer1_rows(monkeypatch, small_params(), self.BATCH, record=True)
        for seq, rows in zip(self.BATCH, reads):
            assert ids[rows].tolist() == seq
            assert len(set(rows.tolist())) == len(set(seq))
        for before, after in zip(reads, reads[1:]):
            assert before.max() < after.min()


def batch_hidden_states(monkeypatch, params, batch):
    """The second layer's hidden states (len(ids), 2H) of each sequence as
    score_batch computes them for `batch`, read as the heads get them."""
    seen = []
    head = policy._head

    def recording_head(hidden, *args):
        seen.append(hidden.data)
        return head(hidden, *args)

    with monkeypatch.context() as patch:
        patch.setattr(policy, "_head", recording_head)
        score_batch(params, batch)
    hidden = seen[0].reshape(-1, len(batch), seen[0].shape[1])
    columns = np.argsort(np.argsort([-len(ids) for ids in batch], kind="stable"))
    return [hidden[:len(ids), c] for ids, c in zip(batch, columns)]


class TestOddWidthHiddenStates:
    """At an odd width >= 17, 4H is not a multiple of 8; a plain product's
    rows there round by the number of rows. Through the padded products a
    sequence's hidden states are the same alone, in any batch and at any
    column, bit for bit."""

    @pytest.mark.parametrize("d", [17, 33, 65])
    def test_bit_identical_alone_and_in_batches(self, monkeypatch, d):
        params = init_policy_params(60, d, d, seed=d)
        rng = np.random.default_rng(d)
        lengths = [1, 40, 7, 40, 2, 23, 13]
        seqs = [[int(t) for t in rng.integers(0, 60, size=n)] for n in lengths]
        alone = [batch_hidden_states(monkeypatch, params, [ids])[0] for ids in seqs]
        for size in (2, 3, 7):
            for lo in range(0, len(seqs), size):
                batch = seqs[lo:lo + size]
                for got, want in zip(batch_hidden_states(monkeypatch, params, batch),
                                     alone[lo:lo + size]):
                    np.testing.assert_array_equal(got, want, err_msg=f"batch of {size}")
        perm = rng.permutation(len(seqs))
        for got, b in zip(batch_hidden_states(monkeypatch, params, [seqs[b] for b in perm]),
                          perm):
            np.testing.assert_array_equal(got, alone[b], err_msg="permuted")


class TestBatchInvariantLogits:
    """A sequence's start and end logits are the same bit for bit scored
    alone, in batches of any size and at any column: every BiLSTM product
    gives a row the same value for any number of rows, and each head is
    one dot product per row."""

    @pytest.mark.parametrize("d", [128, 33])
    def test_logits_do_not_depend_on_the_batch(self, d):
        params = init_policy_params(300, d, d, seed=d)
        rng = np.random.default_rng(100 + d)
        lengths = rng.permutation([1, 2, 3, 127, 128, *rng.integers(1, 129, size=43)])
        seqs = [[int(t) for t in rng.integers(0, 300, size=n)] for n in lengths]
        alone = [score_batch(params, [ids])[0] for ids in seqs]
        perm = rng.permutation(32)
        ways = [(f"batch of {size}", list(range(lo, min(lo + size, len(seqs)))))
                for size in (2, 3, 7, 32) for lo in range(0, len(seqs), size)]
        ways.append(("permuted", perm.tolist()))
        for label, members in ways:
            for b, (start, end) in zip(members, score_batch(params, [seqs[b] for b in members])):
                np.testing.assert_array_equal(start, alone[b][0], err_msg=f"{label}, start")
                np.testing.assert_array_equal(end, alone[b][1], err_msg=f"{label}, end")


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

    def test_empty_scores_rejected(self):
        with pytest.raises(EmptySequenceError):
            top_k_spans(np.array([]), np.array([]), k=1, max_span_len=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            top_k_spans(np.zeros(2), np.zeros(2), k=0, max_span_len=2)
        with pytest.raises(InvalidOptionError):
            top_k_spans(np.zeros(2), np.zeros(2), k=1, max_span_len=0)

    @pytest.mark.parametrize("logits", ["rounded", "equal"])
    def test_order_matches_a_lexsort_on_score_start_end(self, logits):
        # the tie rule spelled out: score descending, then i, then j
        rng = np.random.default_rng(12)
        for m in range(1, 60):
            for max_span_len in range(1, 14):
                if logits == "rounded":
                    start = np.round(rng.normal(size=m), 1)
                    end = np.round(rng.normal(size=m), 1)
                else:
                    start = end = np.full(m, 0.25)
                i, j = span_band(m, max_span_len)
                score = start[i] + end[j]
                want = np.lexsort((j, i, -score))
                got = top_k_spans(start, end, len(i), max_span_len)
                assert [(s.span.start, s.span.end) for s in got] == list(zip(i[want], j[want]))

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
        with pytest.raises(InvalidOptionError):
            select_span(self._spans(2), "best", np.random.default_rng(0))


class TestSpanBand:
    def test_matches_row_major_enumeration(self):
        for m in range(60):
            for max_span_len in range(14):
                starts, ends = span_band(m, max_span_len)
                want = [(i, j) for i in range(m)
                        for j in range(i, min(i + max_span_len, m))]
                assert list(zip(starts.tolist(), ends.tolist())) == want

    def test_returned_arrays_are_read_only(self):
        for array in span_band(12, 4):
            with pytest.raises(ValueError):
                array[0] = 5
            with pytest.raises(ValueError):
                array += 1
        assert span_band(12, 4)[0][0] == 0

    def test_cached_calls_equal_a_fresh_computation(self):
        # Twice over every shape: the second sweep finds some entries
        # cached and others long evicted.
        limit = policy._SPAN_BAND_CACHE_SIZE
        for _ in range(2):
            for m in range(60):
                for max_span_len in range(14):
                    for _ in range(2):
                        starts, ends = span_band(m, max_span_len)
                        fresh = span_band.__wrapped__(m, max_span_len)
                        assert np.array_equal(starts, fresh[0])
                        assert np.array_equal(ends, fresh[1])
                        assert starts is not fresh[0]
                    assert span_band.cache_info().currsize <= limit
        assert span_band.cache_info().maxsize == limit


class TestParameterTable:
    def test_params_follow_the_table(self):
        params = init_policy_params(11, d_emb=4, d_h=3, seed=1)
        assert [(n, t.shape) for n, t in params.named_parameters()] == \
            list(param_shapes(11, 4, 3).items())
        assert (params.vocab_size, params.d_emb, params.d_h) == (11, 4, 3)

    def test_clone_copies_every_tensor(self):
        params = init_policy_params(11, d_emb=4, d_h=3, seed=1)
        copy = params.clone()
        for (name, a), (name_b, b) in zip(params.named_parameters(), copy.named_parameters()):
            assert name == name_b and a is not b and b.requires_grad
            assert np.array_equal(a.data, b.data)
            assert not np.shares_memory(a.data, b.data)

    def test_from_arrays_rejects_a_wrong_shape(self):
        arrays = {n: t.data for n, t in init_policy_params(11, 4, 3).named_parameters()}
        arrays["lstm2.fwd.W"] = arrays["lstm2.fwd.W"][:, :-1]
        with pytest.raises(MaskPolicyError, match="lstm2.fwd.W"):
            PolicyParams.from_arrays(arrays)

    def test_from_arrays_rejects_a_flat_embedding(self):
        arrays = {n: t.data for n, t in init_policy_params(11, 4, 3).named_parameters()}
        arrays["embedding"] = arrays["embedding"].reshape(-1)
        with pytest.raises(MaskPolicyError, match="embedding"):
            PolicyParams.from_arrays(arrays)

    @pytest.mark.parametrize("sizes", [(50, 4, 0), (50, 0, 4), (0, 4, 4)])
    def test_a_size_of_0_is_refused_by_init_and_by_from_arrays(self, sizes):
        message = ("policy sizes must be >= 1, got vocab_size={}, d_emb={}, d_h={}"
                   .format(*sizes))
        with pytest.raises(InvalidOptionError) as init:
            init_policy_params(*sizes)
        with pytest.raises(InvalidOptionError) as load:
            PolicyParams.from_arrays({name: np.zeros(shape)
                                      for name, shape in param_shapes(*sizes).items()})
        assert str(init.value) == str(load.value) == message
