"""Training loop: windowing, validation-based selection, determinism."""

import numpy as np
import pytest

from maskpolicy import policy
from maskpolicy.corpus import Span
from maskpolicy.errors import EmptyDatasetError, InvalidOptionError, SequenceTooLongError
from maskpolicy.policy import forward, init_policy_params
from maskpolicy.training import (
    EpochRecord,
    TrainConfig,
    TrainingLog,
    grad_check_suite,
    prepare_example,
    span_loss,
    train_policy,
    truncate_around_answer,
    validation_loss,
)

from synth import synth_examples, synth_vocab


def tiny_config(**kw):
    base = dict(epochs=2, learning_rate=1e-2, batch_size=4, optimizer="adam",
                max_input_len=24, max_span_len=5, seed=0, d_emb=6, d_h=6)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_rejects_nonpositive_values(self):
        for field in ("epochs", "learning_rate", "batch_size", "d_emb", "d_h"):
            with pytest.raises(ValueError):
                tiny_config(**{field: 0}).validate()

    @pytest.mark.parametrize("field", ["learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(InvalidOptionError, match=f"{field} must be finite and positive"):
            tiny_config(**{field: value}).validate()

    def test_rejects_span_longer_than_input(self):
        with pytest.raises(ValueError):
            tiny_config(max_input_len=4, max_span_len=5).validate()

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError):
            tiny_config(optimizer="lbfgs").validate()

    def test_errors_are_package_errors(self):
        for bad in (dict(epochs=0), dict(max_input_len=4, max_span_len=5),
                    dict(optimizer="lbfgs"), dict(seed=-1)):
            with pytest.raises(InvalidOptionError):
                tiny_config(**bad).validate()

    @pytest.mark.parametrize("n_seeds, max_len", [(0, 12), (2, 1)])
    def test_grad_check_suite_rejects_empty_runs(self, n_seeds, max_len):
        with pytest.raises(InvalidOptionError):
            grad_check_suite(n_seeds=n_seeds, max_len=max_len)

    def test_hyperparameters_round_trip(self):
        cfg = tiny_config()
        hyper = cfg.hyperparameters()
        assert TrainConfig(**hyper) == cfg


class TestTruncation:
    def test_short_input_untouched(self):
        assert truncate_around_answer(10, Span(2, 4), max_len=16) == (0, 10)

    def test_window_centered_on_answer(self):
        lo, hi = truncate_around_answer(100, Span(50, 52), max_len=10)
        assert hi - lo == 10
        assert lo <= 50 and 52 < hi

    def test_window_clamped_at_start(self):
        lo, hi = truncate_around_answer(100, Span(0, 1), max_len=10)
        assert (lo, hi) == (0, 10)

    def test_window_clamped_at_end(self):
        lo, hi = truncate_around_answer(100, Span(98, 99), max_len=10)
        assert (lo, hi) == (90, 100)

    def test_answer_always_inside_window(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            max_len = int(rng.integers(2, 20))
            start = int(rng.integers(0, n))
            end = int(rng.integers(start, min(n, start + max_len)))
            lo, hi = truncate_around_answer(n, Span(start, end), max_len)
            assert 0 <= lo <= start
            assert end < hi <= n
            assert hi - lo <= max_len

    def test_oversized_answer_rejected(self):
        with pytest.raises(SequenceTooLongError):
            truncate_around_answer(30, Span(0, 10), max_len=8)

    def test_prepare_example_rebases_span(self):
        examples = synth_examples(1, seed=5)
        ex = examples[0]
        ids, gold = prepare_example(ex, max_len=8)
        assert len(ids) <= 8
        # rebased span indexes the same ids as the original
        orig = ex.context_tokens.ids[ex.answer_span.start:ex.answer_span.end + 1]
        assert ids[gold.start:gold.end + 1] == orig


def ragged_windows(n, seed, vocab_size):
    """n prepared (ids, gold) windows of 5 to 128 tokens, lengths in
    shuffled order, each with a gold span of at most 10 tokens."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.r_[5, 128, rng.integers(5, 129, size=n)][:n])
    windows = []
    for length in lengths.tolist():
        ids = tuple(int(t) for t in rng.integers(0, vocab_size, size=length))
        start = int(rng.integers(0, length))
        end = int(rng.integers(start, min(length, start + 10)))
        windows.append((ids, Span(start, end)))
    return windows


class TestValidationLoss:
    def test_matches_span_loss_on_singleton(self):
        examples = synth_examples(1, seed=0)
        prep = [prepare_example(examples[0], 24)]
        params = init_policy_params(len(synth_vocab()), 4, 4, seed=1)
        got = validation_loss(params, prep, max_input_len=24)
        s, e = forward(params, prep[0][0], 24)
        want = span_loss(s, e, prep[0][1]).item()
        assert got == pytest.approx(want, abs=1e-12)

    # more than two batches, an exact multiple of the batch, one window
    @pytest.mark.parametrize("n", [70, 2 * policy.SCORE_BATCH, 1])
    def test_ragged_set_matches_mean_span_loss(self, n):
        params = init_policy_params(50, 4, 4, seed=2)
        windows = ragged_windows(n, seed=n, vocab_size=50)
        if n > 1:
            assert {len(ids) for ids, _ in windows} >= {5, 128}
        losses = [span_loss(*forward(params, ids, 128), gold).item() for ids, gold in windows]
        got = validation_loss(params, windows, max_input_len=128)
        assert got == pytest.approx(sum(losses) / n, abs=1e-12)


class TestEpochSelection:
    def test_chosen_is_first_strict_minimum(self):
        log = TrainingLog()
        for i, v in enumerate([3.1, 2.0, 2.4], start=1):
            log.records.append(EpochRecord(i, 0.0, v))
        # mirror of the update rule in train_policy
        best, chosen = float("inf"), 0
        for r in log.records:
            if r.valid_loss < best:
                best, chosen = r.valid_loss, r.epoch
        assert chosen == 2

    def test_tie_keeps_earliest(self):
        best, chosen = float("inf"), 0
        for epoch, v in enumerate([2.0, 2.0, 1.9, 1.9], start=1):
            if v < best:
                best, chosen = v, epoch
        assert chosen == 3

    def test_train_records_chosen_epoch(self):
        data = synth_examples(24, seed=0)
        params, log = train_policy(data[:16], data[16:], tiny_config())
        assert len(log.records) == 2
        losses = [r.valid_loss for r in log.records]
        assert log.chosen_epoch == 1 + int(np.argmin(losses))
        flags = [r["chosen"] for r in log.jsonl_records()]
        assert sum(flags) == 1

    def test_returned_params_are_snapshot_not_final(self):
        # force epoch 1 to win by making later epochs diverge
        data = synth_examples(24, seed=1)
        cfg = tiny_config(epochs=4, learning_rate=0.9, optimizer="sgd")
        params, log = train_policy(data[:16], data[16:], cfg)
        if log.chosen_epoch < len(log.records):
            chosen = log.records[log.chosen_epoch - 1].valid_loss
            prep = [prepare_example(ex, cfg.max_input_len) for ex in data[16:]]
            got = validation_loss(params, prep, cfg.max_input_len)
            assert got == pytest.approx(chosen, abs=1e-9)


class TestTraining:
    def test_empty_sets_rejected(self):
        data = synth_examples(4, seed=0)
        with pytest.raises(EmptyDatasetError):
            train_policy([], data, tiny_config())
        with pytest.raises(EmptyDatasetError):
            train_policy(data, [], tiny_config())

    def test_loss_decreases_on_learnable_data(self):
        data = synth_examples(48, seed=2)
        cfg = tiny_config(epochs=4, learning_rate=5e-3)
        _, log = train_policy(data[:40], data[40:], cfg)
        assert log.records[-1].train_loss < log.records[0].train_loss

    def test_bit_identical_across_runs(self):
        data = synth_examples(20, seed=3)
        cfg = tiny_config()
        p1, log1 = train_policy(data[:14], data[14:], cfg)
        p2, log2 = train_policy(data[:14], data[14:], cfg)
        for (_, a), (_, b) in zip(p1.named_parameters(), p2.named_parameters()):
            assert np.array_equal(a.data, b.data)
        assert [r.valid_loss for r in log1.records] == [r.valid_loss for r in log2.records]

    def test_seed_changes_trajectory(self):
        data = synth_examples(20, seed=3)
        p1, _ = train_policy(data[:14], data[14:], tiny_config(seed=0))
        p2, _ = train_policy(data[:14], data[14:], tiny_config(seed=1))
        assert not np.array_equal(p1.embedding.data, p2.embedding.data)

    def test_explicit_vocab_size_widens_embedding(self):
        data = synth_examples(8, seed=0)
        params, _ = train_policy(data[:6], data[6:], tiny_config(), vocab_size=200)
        assert params.embedding.data.shape[0] == 200


class TestGradCheckSuite:
    def test_small_suite_passes(self):
        result = grad_check_suite(n_seeds=3)
        assert result["pass"] is True
        assert result["max_rel_err"] < result["threshold"]
        assert result["seeds"] == 3
