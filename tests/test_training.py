"""Training loop: windowing, validation-based selection, determinism."""

import collections
import functools
import hashlib
import inspect
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from maskpolicy import lstm, policy, reverse_helper, training
from maskpolicy.autodiff import add, backward, grad_check, scale
from maskpolicy.checkpoint import save_checkpoint
from maskpolicy.corpus import Span, Vocab
from maskpolicy.corruption import PolicySpec, mask_corpus
from maskpolicy.errors import (
    EmptyDatasetError,
    InvalidOptionError,
    NonFiniteError,
    NonFiniteLossError,
    SequenceTooLongError,
)
from maskpolicy.evaluation import span_hit_metrics
from maskpolicy.lstm import bilstm_sequence
from maskpolicy.policy import (
    forward,
    forward_batch,
    init_policy_params,
    param_shapes,
    score_batch,
)
from maskpolicy.training import (
    EpochRecord,
    TrainConfig,
    TrainingLog,
    grad_check_suite,
    mean_span_loss,
    prepare_example,
    span_loss,
    train_policy,
    truncate_around_answer,
    validation_loss,
)

from synth import synth_examples, synth_vocab
from train_oracle import ragged_examples, train_per_example


LINUX = sys.platform.startswith("linux")


def pin_blas(monkeypatch, pinned):
    """BLAS pinned to one thread by the environment, as the reverse helper
    reads it, or not pinned at all."""
    for var in reverse_helper.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if pinned:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs to run on, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def tiny_config(**kw):
    base = dict(epochs=2, learning_rate=1e-2, batch_size=4, optimizer="adam",
                max_input_len=24, seed=0, d_emb=6, d_h=6)
    base.update(kw)
    return TrainConfig(**base)


def split(examples):
    return examples[:14], examples[14:]


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

    def test_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError):
            tiny_config(optimizer="lbfgs").validate()

    def test_errors_are_package_errors(self):
        for bad in (dict(epochs=0), dict(max_input_len=0), dict(optimizer="lbfgs"),
                    dict(seed=-1)):
            with pytest.raises(InvalidOptionError):
                tiny_config(**bad).validate()

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "max_input_len", "d_emb", "d_h",
                                       "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_rejects_non_integer_counts(self, field, value):
        # a float batch size used to pass and then fail in range() with a
        # bare TypeError; a bool is an int to Python but not a count
        with pytest.raises(InvalidOptionError, match=f"{field} must be an integer") as info:
            tiny_config(**{field: value}).validate()
        assert info.value.options == (field,)

    @pytest.mark.parametrize("field", ["learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [True, False, "0.1", None, [0.1]])
    def test_rejects_non_number_rates(self, field, value):
        # True used to pass as 1.0, and a string failed the range check
        # with a bare TypeError
        with pytest.raises(InvalidOptionError, match=f"{field} must be a number") as info:
            tiny_config(**{field: value}).validate()
        assert info.value.options == (field,)

    @pytest.mark.parametrize("field", ["learning_rate", "clip_norm"])
    def test_accepts_an_integer_rate(self, field):
        tiny_config(**{field: 1}).validate()

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

    @pytest.mark.parametrize("learning_rate, batch_size", [
        pytest.param(1e307, 8, id="1e+307"),
        pytest.param(1e308, 8, id="1e+308"),
        pytest.param(1e308, 32, id="1e+308-validation"),
    ])
    def test_diverging_run_names_epoch_and_batch(self, learning_rate, batch_size):
        # Adam's first steps overflow the weights: at 1e307 the loss is the
        # first value that is not finite, at 1e308 a layer's output. In one
        # batch of all 30 windows, the first output that is not finite is the
        # epoch's validation's.
        data = synth_examples(40, seed=3)
        cfg = TrainConfig(epochs=4, learning_rate=learning_rate, batch_size=batch_size,
                          d_emb=8, d_h=8)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteLossError) as caught:
            train_policy(data[:30], data[30:], cfg)
        err = caught.value
        assert 1 <= err.epoch <= cfg.epochs
        if batch_size == 32:
            assert err.batch is None
            assert str(err).endswith(f"at epoch {err.epoch}, validation")
        else:
            assert 0 <= err.batch < 4
            assert f"at epoch {err.epoch}, batch {err.batch}" in str(err)
        assert isinstance(err.__cause__, NonFiniteError)

    def test_every_parameter_gets_a_gradient(self):
        # A parameter whose gradient is rounding noise has no effect on the
        # loss. The heads' scalar biases were such: a constant added to every
        # logit of a head changes neither its log-softmax nor a span's rank.
        vocab_size = len(synth_vocab())
        params = init_policy_params(vocab_size, 8, 8, seed=0)
        batch = [prepare_example(ex, 24) for ex in synth_examples(8, seed=5)]
        start, end, columns = forward_batch(params, [ids for ids, _ in batch], 24)
        backward(mean_span_loss(start, end, columns, batch))
        shapes = param_shapes(vocab_size, 8, 8)
        assert [name for name, _ in params.named_parameters()] == list(shapes)
        for name, p in params.named_parameters():
            assert np.max(np.abs(p.grad)) > 1e-8, name
        assert len(shapes) == 11 and all(len(shape) > 0 for shape in shapes.values())


class TestGradCheckSuite:
    def test_small_suite_passes(self):
        result = grad_check_suite(n_seeds=3)
        assert result["pass"] is True
        assert result["max_rel_err"] < result["threshold"]
        assert result["seeds"] == 3


def params_sha256(params):
    h = hashlib.sha256()
    for name, t in params.named_parameters():
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def toy_vocab(size):
    return Vocab(["<pad>", "<unk>", "<mask>"] + [f"t{i}" for i in range(3, size)])


class TestBatchedTraining:
    """train_policy runs one padded forward and backward per mini-batch.
    It must train exactly what one taped forward per window, added on the
    tape, trains (train_oracle.train_per_example): the same parameter
    bytes, the same log and the same checkpoint bytes, with the reverse
    directions in the helper process and with the serial path forced."""

    CASES = {
        # the benchmark's train shapes: 4 and 3 windows of 128 tokens, one batch
        "d128-4x128-adam": dict(n=6, lengths=(129, 170), d=128, batch_size=32, optimizer="adam"),
        "d16-3x128-adam": dict(n=5, lengths=(129, 170), d=16, batch_size=32, optimizer="adam"),
        "d32-ragged-sgd": dict(n=11, lengths=(1, 40), d=32, batch_size=4, optimizer="sgd"),
        # 7 windows in batches of 3, 3 and 1
        "d128-ragged-partial": dict(n=9, lengths=(1, 20), d=128, batch_size=3,
                                    optimizer="adam"),
        "d48-short-partial": dict(n=10, lengths=(1, 4), d=48, batch_size=5, optimizer="sgd"),
        "d3-ragged-partial": dict(n=12, lengths=(1, 12), d=3, batch_size=4, optimizer="adam"),
        # an odd width >= 17, where 4H is not a multiple of 8: 10 windows in
        # batches of 4, 4 and 2
        "d33-ragged-partial": dict(n=12, lengths=(1, 40), d=33, batch_size=4, optimizer="adam"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_the_per_example_tape(self, case, tmp_path, monkeypatch, two_cpus):
        c = self.CASES[case]
        vocab = toy_vocab(10_000 if c["d"] == 128 else 60)
        examples = ragged_examples(np.random.default_rng(len(case)), c["n"], *c["lengths"],
                                   len(vocab))
        cfg = TrainConfig(epochs=2, batch_size=c["batch_size"], optimizer=c["optimizer"],
                          max_input_len=128, seed=c["d"], d_emb=c["d"], d_h=c["d"])
        runs = []
        for name, run in (("two-processes", lambda: train_policy(examples[:-2], examples[-2:],
                                                                 cfg, len(vocab))),
                          ("serial", lambda: train_policy(examples[:-2], examples[-2:], cfg,
                                                          len(vocab))),
                          ("per-example", lambda: train_per_example(examples[:-2], examples[-2:],
                                                                    cfg, len(vocab)))):
            pin_blas(monkeypatch, name == "two-processes")
            requests = reverse_helper.requests
            params, log = run()
            assert (reverse_helper.requests > requests) == (name == "two-processes" and LINUX), name
            save_checkpoint(tmp_path / name, params, vocab, cfg.hyperparameters())
            runs.append((params_sha256(params), log.jsonl_records(),
                         (tmp_path / name).read_bytes()))
        for other in runs[1:]:
            assert runs[0][0] == other[0]
            assert runs[0][1] == other[1]
            assert runs[0][2] == other[2]

    @pytest.mark.parametrize("seed", range(30))
    def test_batch_gradients_equal_the_summed_tape(self, seed):
        # one batch, its sequences in any length order: the loss and every
        # parameter gradient bit for bit
        rng = np.random.default_rng(3000 + seed)
        d = int(rng.choice([2, 5, 8, 16, 32, 64, 128]))
        params = init_policy_params(40, d, d, seed=seed)
        batch = [(ex.context_tokens.ids, ex.answer_span)
                 for ex in ragged_examples(rng, int(rng.integers(1, 7)), 1, 24, 40)]
        named = params.named_parameters()

        losses = [span_loss(*forward(params, ids, 24), gold) for ids, gold in batch]
        total = losses[0]
        for loss in losses[1:]:
            total = add(total, loss)
        total = scale(total, 1.0 / len(batch))
        backward(total)
        want = [p.grad for _, p in named]
        params.zero_grads()

        got = mean_span_loss(*forward_batch(params, [ids for ids, _ in batch], 24), batch)
        backward(got)
        assert got.item() == total.item()
        for (name, p), w in zip(named, want):
            np.testing.assert_array_equal(p.grad, w, err_msg=name)

    @pytest.mark.parametrize("seed", range(8))
    def test_ragged_batch_loss_gradient(self, seed):
        # finite differences of the batch loss on 1-4 sequences of 1-12 tokens
        rng = np.random.default_rng(4000 + seed)
        params = init_policy_params(12, 3, 2, seed=seed)
        batch = [(ex.context_tokens.ids, ex.answer_span)
                 for ex in ragged_examples(rng, int(rng.integers(1, 5)), 1, 12, 12)]
        ids = [ids for ids, _ in batch]

        def loss_fn():
            return mean_span_loss(*forward_batch(params, ids, 12), batch)

        assert grad_check(loss_fn, [p for _, p in params.named_parameters()]) < 1e-4


class TestStepMemory:
    """A training step's backward consumes its tape, and the step drops its
    gradients, so a training process holds one step's activations at a time."""

    def test_no_step_outlives_itself(self, monkeypatch):
        # weak references to every encoder and head backward closure and
        # every gradient array that reaches the optimizer; none may be alive
        # when the next step's forward or the epoch's validation starts
        held, seen = [], []
        real_wrap, real_step = policy._wrap, training.optimizer_step

        def wrap(out, parents, backward_fn):
            held.append(weakref.ref(backward_fn))
            return real_wrap(out, parents, backward_fn)

        def step(state, named):
            assert all(isinstance(p.grad, np.ndarray) for _, p in named)
            held.extend(weakref.ref(p.grad) for _, p in named)
            real_step(state, named)

        def entered(fn):
            def run(*args, **kwargs):
                seen.append((fn.__name__, sum(ref() is not None for ref in held)))
                return fn(*args, **kwargs)
            return run

        monkeypatch.setattr(policy, "_wrap", wrap)
        monkeypatch.setattr(training, "optimizer_step", step)
        monkeypatch.setattr(training, "forward_batch", entered(training.forward_batch))
        monkeypatch.setattr(training, "validation_loss", entered(training.validation_loss))
        examples = ragged_examples(np.random.default_rng(3), 8, 2, 12, 30)
        train_policy(examples[:6], examples[6:], tiny_config(batch_size=2), 30)
        epoch = [("forward_batch", 0)] * 3 + [("validation_loss", 0)]
        assert seen == epoch * 2
        # per step, the encoder's and both heads' closures and all 11
        # gradients, each an array; per validation, the three closures
        # its forward makes off the tape
        assert len(held) == 6 * (3 + 11) + 2 * 3

    def test_peak_on_the_benchmark_shape(self, traced_peak):
        # the train benchmark's shape: d = 128, 4 full 128-token windows in
        # one batch, 2 validation windows, 2 epochs. tracemalloc's peak was
        # 66.2 MiB while each step's tape and gradients outlived it, and is
        # 46.5 MiB with the tape consumed and the recorded state dropped
        # (numpy 2, float64, Linux x86-64).
        examples = ragged_examples(np.random.default_rng(7), 6, 129, 170, 640)
        cfg = TrainConfig(epochs=2, seed=1, d_emb=128, d_h=128)
        _, peak = traced_peak(lambda: train_policy(examples[:4], examples[4:], cfg, 640))
        assert peak < 56 * 2**20, peak / 2**20


class FakeLibc:
    """Records mallopt calls instead of making them."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def fresh_process_setting():
    """train_policy's allocator setting as if no training had run yet in
    this process, before and after the test."""
    training._keep_step_memory_mapped.cache_clear()
    yield
    training._keep_step_memory_mapped.cache_clear()


# One train_policy of 8 single-batch epochs at the train benchmark's shape
# (d = 128, 4 full 128-token windows, 2 validation windows, V = 5,329),
# printing the minor page faults of each optimizer step.
FAULTS_PER_STEP = textwrap.dedent("""
    import resource

    import numpy as np

    from maskpolicy import training
    from train_oracle import ragged_examples

    faults = []
    real_step = training._train_step

    def step(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        loss = real_step(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return loss

    training._train_step = step
    examples = ragged_examples(np.random.default_rng(7), 6, 129, 170, 5329)
    cfg = training.TrainConfig(epochs=8, seed=1, d_emb=128, d_h=128)
    training.train_policy(examples[:4], examples[4:], cfg, 5329)
    print(faults)
""")


class TestStepMemoryMapped:
    """On glibc, train_policy raises the allocator's mmap and trim
    thresholds once per process, so a step reuses the memory the previous
    step freed instead of faulting it in again. Deploy and evaluation
    never make the setting."""

    def test_once_per_process_and_only_on_glibc(self, monkeypatch, fresh_process_setting):
        examples = ragged_examples(np.random.default_rng(3), 8, 2, 12, 30)
        trained = []
        for libc_name, calls in (
                # mallopt(M_MMAP_THRESHOLD = -3, 32 MiB), mallopt(M_TRIM_THRESHOLD = -1, 1 GiB)
                ("glibc", [(-3, 32 * 2**20), (-1, 2**30)]),
                ("", []),
                ("musl", [])):
            training._keep_step_memory_mapped.cache_clear()
            libc = FakeLibc()
            monkeypatch.setattr(platform, "libc_ver", lambda name=libc_name: (name, "1.0"))
            monkeypatch.setattr(training, "_libc", lambda libc=libc: libc)
            for _ in range(2):
                params, _ = train_policy(examples[:6], examples[6:], tiny_config(batch_size=2),
                                         30)
                assert libc.calls == calls, libc_name
                trained.append(params_sha256(params))
        # the setting moves no byte of the trained parameters
        assert len(set(trained)) == 1

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a glibc allocator setting")
    def test_steps_fault_no_pages_in_after_the_first(self):
        # In a fresh interpreter, so the setting is made by this run. Without
        # it every step here faulted about 7k pages in (Linux x86-64, glibc 2.36).
        tests = Path(__file__).parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        run = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        faults = json.loads(run.stdout)
        assert len(faults) == 8
        assert max(faults[2:]) < 100, faults

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deploy_and_evaluation_never_make_it(self, monkeypatch, tmp_path, workers, two_cpus):
        # nor do they start or use the reverse helper, though the process
        # qualifies for one
        def refuse():
            raise AssertionError("deploy or evaluation reached the training allocator setting "
                                 "or the reverse helper")

        monkeypatch.setattr(training, "_keep_step_memory_mapped", refuse)
        monkeypatch.setattr(reverse_helper, "_Helper", refuse)
        pin_blas(monkeypatch, True)
        requests = reverse_helper.requests
        vocab = synth_vocab()
        examples = synth_examples(12, 5, vocab)
        params = init_policy_params(len(vocab), 8, 8, seed=0)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(ex.context for ex in examples) + "\n", encoding="utf-8")
        spec = PolicySpec(kind="learned", mode="top1", params=params,
                          vocab_hash=vocab.content_hash(), max_input_len=16)
        masked, _ = mask_corpus([corpus], vocab, spec, chunk_len=16, workers=workers)
        assert masked
        assert len(score_batch(params, [ex.context_tokens.ids for ex in examples], 24)) == 12
        assert span_hit_metrics(params, examples, "learned-top1").n_examples == 12
        assert grad_check_suite(n_seeds=2)["pass"]
        assert reverse_helper.requests == requests


# Trains tiny_config() twice in a fresh process, the reverse helper's
# conditions permitting, and prints the parameters' SHA-256, the helper
# requests made, the helper's pid and the time training ended on the
# system-wide monotonic clock.
TRAIN_TWICE = textwrap.dedent("""
    import hashlib
    import time

    from maskpolicy import reverse_helper
    from maskpolicy.training import TrainConfig, train_policy
    from synth import synth_examples

    data = synth_examples(20, seed=3)
    cfg = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=4, optimizer="adam",
                      max_input_len=24, seed=0, d_emb=6, d_h=6)
    for _ in range(2):
        params, _ = train_policy(data[:14], data[14:], cfg)
    h = hashlib.sha256()
    for name, t in params.named_parameters():
        h.update(name.encode())
        h.update(t.data.tobytes())
    helper = reverse_helper._helper
    print(h.hexdigest(), reverse_helper.requests, helper and helper.process.pid,
          time.monotonic(), flush=True)
""")


def run_fresh(script, **popen):
    """The output and the ended process of a fresh interpreter that ran
    `script` with BLAS pinned to one thread and exited with 0."""
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "OPENBLAS_NUM_THREADS": "1"}
    with subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                          text=True, **popen) as proc:
        try:
            out, _ = proc.communicate(timeout=300)
        finally:
            proc.kill()
    assert proc.returncode == 0
    return out, proc


@pytest.mark.skipif(not LINUX, reason="the reverse helper is forked on Linux only")
class TestReverseHelper:
    """With two CPUs, BLAS pinned and a process that is not daemonic,
    train_policy runs each layer's reverse direction in a helper process
    (reverse_helper), through the runner it passes down to every training
    step and validation; the bytes of every result are the serial path's."""

    @pytest.mark.parametrize("condition", ["one-cpu", "unpinned", "daemonic"])
    def test_a_condition_missing_keeps_the_serial_path(self, monkeypatch, two_cpus, condition):
        def refuse():
            raise AssertionError("the reverse helper was started")

        monkeypatch.setattr(reverse_helper, "_Helper", refuse)
        pin_blas(monkeypatch, condition != "unpinned")
        if condition == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        if condition == "daemonic":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        requests = reverse_helper.requests
        train_policy(*split(synth_examples(20, seed=3)), tiny_config())
        assert reverse_helper.requests == requests

    def test_a_reverse_direction_warning_surfaces_in_the_caller(self, monkeypatch, two_cpus):
        # The reverse direction's input product overflows; the forward
        # direction's does not. The warning, its place in lstm, a raise under
        # np.errstate and the states are the serial path's.
        pin_blas(monkeypatch, True)
        rows = np.ones((3, 2))
        index = np.array([[0, 1], [2, 0]])
        fwd = np.full((8, 4), 0.5), np.zeros(8)
        W = np.zeros((8, 4))
        W[:, :2] = 1e308
        bwd = W, np.zeros(8)
        layer = functools.partial(bilstm_sequence, rows, index, [2, 1], fwd, bwd)

        def warned(reverse=None):
            with pytest.warns(RuntimeWarning, match="overflow encountered in matmul") as caught:
                out = layer(reverse=reverse)[0]
            return out, [(w.filename, w.lineno) for w in caught]

        want = warned()
        with reverse_helper.two_processes() as reverse:
            requests = reverse_helper.requests
            got = warned(reverse)
            assert reverse_helper.requests > requests
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1] and got[1][0][0] == lstm.__file__
        # np.errstate, and pytest's error::RuntimeWarning, as on the serial
        # path. A helper takes the errstate it was forked in, so the first
        # two blocks reuse the one forked outside any errstate; an exception
        # that escapes a block discards it.
        helper = reverse_helper._helper
        with np.errstate(over="ignore"), reverse_helper.two_processes() as reverse:
            np.testing.assert_array_equal(layer(reverse=reverse)[0], want[0])
        assert reverse_helper._helper is helper
        for raised, errstate in ((FloatingPointError, {"over": "raise"}), (RuntimeWarning, {})):
            with (pytest.raises(raised), np.errstate(**errstate),
                  reverse_helper.two_processes() as reverse):
                layer(reverse=reverse)

    def test_another_threads_layers_stay_serial(self, monkeypatch, two_cpus):
        # One thread at a time holds the helper's runner: a thread that
        # enters two_processes() while another holds it gets None, makes no
        # request and scores the serial bytes.
        pin_blas(monkeypatch, True)
        vocab = synth_vocab()
        batch = [ex.context_tokens.ids for ex in synth_examples(12, 5, vocab)]
        params = init_policy_params(len(vocab), 8, 8, seed=0)
        want = score_batch(params, batch, 24)
        got, runners = [], []

        def other():
            with reverse_helper.two_processes() as reverse:
                runners.append(reverse)
                got.append(score_batch(params, batch, 24, reverse))

        with reverse_helper.two_processes() as reverse:
            assert reverse is not None
            requests = reverse_helper.requests
            thread = threading.Thread(target=other)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive() and runners == [None]
            assert reverse_helper.requests == requests
            got.append(score_batch(params, batch, 24, reverse))
            assert reverse_helper.requests > requests
        assert len(got) == 2
        for logits in got:
            for pair, want_pair in zip(logits, want, strict=True):
                for g, w in zip(pair, want_pair, strict=True):
                    np.testing.assert_array_equal(g, w)

    def test_training_after_a_diverged_run_gives_a_fresh_process_bytes(self, monkeypatch,
                                                                       two_cpus):
        # The diverged run's helper is killed, and the next run forks another.
        pin_blas(monkeypatch, True)
        train_policy(*split(synth_examples(20, seed=3)), tiny_config())
        diverged = reverse_helper._helper
        data = synth_examples(40, seed=3)
        cfg = TrainConfig(epochs=4, learning_rate=1e308, batch_size=32, d_emb=8, d_h=8)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLossError):
            train_policy(data[:30], data[30:], cfg)
        assert reverse_helper._helper is None and diverged.process.exitcode is not None
        requests = reverse_helper.requests
        params, _ = train_policy(*split(synth_examples(20, seed=3)), tiny_config())
        assert reverse_helper.requests > requests
        out, _ = run_fresh(TRAIN_TWICE)
        assert out.split()[0] == params_sha256(params)

    def test_training_and_validation_take_the_runner(self, monkeypatch, two_cpus):
        # 14 windows in batches of 4 for 2 epochs: 8 steps, each a recorded
        # forward and a backward of both layers; 6 validation windows, one
        # score batch an epoch, each an unrecorded forward of both layers.
        pin_blas(monkeypatch, True)
        kinds = collections.Counter()
        send = reverse_helper._Helper._send

        def counted(self, header, *arrays):
            kinds[header[0], *header[2:]] += 1
            return send(self, header, *arrays)

        monkeypatch.setattr(reverse_helper._Helper, "_send", counted)
        train_policy(*split(synth_examples(20, seed=3)), tiny_config())
        assert kinds == {("forward", True): 16, ("backward",): 16, ("forward", False): 4}

    def test_a_dead_helper_raises_one_error(self, monkeypatch, two_cpus):
        # A helper killed inside the block: the next layer through its
        # runner raises one RuntimeError naming its pid and exit code, the
        # block discards it, and the next train_policy forks another and
        # trains the serial path's bytes.
        pin_blas(monkeypatch, False)
        want = params_sha256(train_policy(*split(synth_examples(20, seed=3)), tiny_config())[0])
        pin_blas(monkeypatch, True)
        rows = np.ones((3, 2))
        weights = np.full((8, 4), 0.5), np.zeros(8)
        with pytest.raises(RuntimeError) as raised, reverse_helper.two_processes() as reverse:
            dead = reverse_helper._helper
            dead.process.kill()
            dead.process.join()
            bilstm_sequence(rows, [[0, 1], [2, 0]], [2, 1], weights, weights, reverse=reverse)
        assert str(raised.value) == (f"the reverse helper process (pid {dead.process.pid}) "
                                     f"died, exit code {-signal.SIGKILL}")
        assert reverse_helper._helper is None
        requests = reverse_helper.requests
        params, _ = train_policy(*split(synth_examples(20, seed=3)), tiny_config())
        assert reverse_helper.requests > requests
        assert reverse_helper._helper is not None and reverse_helper._helper is not dead
        assert params_sha256(params) == want

    def test_a_training_process_leaves_no_process_behind(self):
        # The benchmark's "left a process running" verdict: the helper ends
        # with the process that started it.
        out, proc = run_fresh(TRAIN_TWICE, start_new_session=True)
        exited = time.monotonic()
        _, requests, pid, trained = out.split()
        assert exited - float(trained) < 5
        if len(os.sched_getaffinity(0)) >= 2:
            assert int(requests) > 0 and pid != "None"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)



THREAD_TIMEOUT = 120


def wait(event):
    assert event.wait(THREAD_TIMEOUT), "the other thread never got there"


def hold(entered, until):
    """A hook that signals `entered`, waits for `until`, then makes the call."""
    def hook(call):
        entered.set()
        wait(until)
        return call()
    return hook


def after(event, then):
    """A hook that waits for `event`, makes the call, then signals `then`."""
    def hook(call):
        wait(event)
        try:
            return call()
        finally:
            then.set()
    return hook


def on_first_call(monkeypatch, module, name, hooks, off_the_tape=False):
    """Patch module.name so that the first call by a thread named in
    `hooks` (with off_the_tape, its first bilstm_sequence call that does
    not record) runs as hooks[thread](call), `call` making the real one."""
    real = getattr(module, name)
    signature = inspect.signature(real)

    def patched(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        record = bound.arguments["record"]
        hook = None if off_the_tape and record else hooks.pop(threading.current_thread().name,
                                                              None)
        call = functools.partial(real, *args, **kwargs)
        return hook(call) if hook else call()

    monkeypatch.setattr(module, name, patched)


class Threads:
    """Named threads; join() raises the first exception any of them raised
    and otherwise returns their results by name."""

    def __init__(self):
        self.results, self.threads = {}, []

    def start(self, name, fn):
        def run():
            try:
                self.results[name] = fn()
            except BaseException as e:
                self.results[name] = e

        self.threads.append(threading.Thread(target=run, name=name, daemon=True))
        self.threads[-1].start()

    def join(self):
        for thread in self.threads:
            thread.join(THREAD_TIMEOUT)
            assert not thread.is_alive(), thread.name
        for result in self.results.values():
            if isinstance(result, BaseException):
                raise result
        return self.results


@pytest.mark.parametrize("helper", [False, True], ids=["serial", "helper"])
class TestThreads:
    """Each forward_batch call decides whether it records, so threads of one
    process may train and score at once: every thread gets the bytes of a
    single-thread run, on the serial path and with the reverse helper
    available (one thread uses it, the others stay serial). Events force
    each overlap: a training step's forward starts while another thread is
    inside an off-the-tape forward, or two off-the-tape forwards overlap."""

    DATA = split(synth_examples(20, seed=3))

    @staticmethod
    def trained(seed):
        params, log = train_policy(*TestThreads.DATA, tiny_config(epochs=3, seed=seed))
        return params_sha256(params), hashlib.sha256(json.dumps(log.jsonl_records())
                                                     .encode()).hexdigest()

    @staticmethod
    def scored():
        params = init_policy_params(len(synth_vocab()), 6, 6, seed=5)
        return score_batch(params, [ex.context_tokens.ids for ex in TestThreads.DATA[0]], 24)

    @staticmethod
    def assert_same_scores(got, want):
        for pair, want_pair in zip(got, want, strict=True):
            for g, w in zip(pair, want_pair, strict=True):
                np.testing.assert_array_equal(g, w)

    @pytest.fixture(autouse=True)
    def setting(self, monkeypatch, two_cpus, helper):
        pin_blas(monkeypatch, helper)
        requests = reverse_helper.requests
        yield
        assert (reverse_helper.requests > requests) == (helper and LINUX)

    def test_two_threads_train_with_different_seeds(self, monkeypatch):
        # seed 1's first step starts while seed 0 is inside its first
        # validation forward
        want = {f"seed-{seed}": self.trained(seed) for seed in (0, 1)}
        scoring, stepped = threading.Event(), threading.Event()
        on_first_call(monkeypatch, policy, "bilstm_sequence", {"seed-0": hold(scoring, stepped)},
                      off_the_tape=True)
        on_first_call(monkeypatch, training, "forward_batch", {"seed-1": after(scoring, stepped)})
        threads = Threads()
        for seed in (0, 1):
            threads.start(f"seed-{seed}", functools.partial(self.trained, seed))
        assert threads.join() == want

    def test_training_while_another_thread_scores(self, monkeypatch):
        # the first step starts while the other thread is inside its first
        # forward; after that the two run freely until training ends
        want, want_scores = self.trained(0), self.scored()
        scoring, stepped, done = threading.Event(), threading.Event(), threading.Event()

        def score_until_done():
            runs = 0
            while not done.is_set():
                self.assert_same_scores(self.scored(), want_scores)
                runs += 1
            return runs

        def train():
            try:
                return self.trained(0)
            finally:
                done.set()

        on_first_call(monkeypatch, policy, "bilstm_sequence", {"score": hold(scoring, stepped)},
                      off_the_tape=True)
        on_first_call(monkeypatch, training, "forward_batch", {"train": after(scoring, stepped)})
        threads = Threads()
        threads.start("score", score_until_done)
        threads.start("train", train)
        got = threads.join()
        assert got["train"] == want and got["score"] >= 1

    def test_training_after_two_threads_scored_at_once(self, monkeypatch):
        # one enters its forward, the other enters its own, the first
        # leaves, then the second
        want, want_scores = self.trained(0), self.scored()
        entered, second_in, first_out = (threading.Event() for _ in range(3))

        def first():
            try:
                return self.scored()
            finally:
                first_out.set()

        on_first_call(monkeypatch, policy, "bilstm_sequence",
                      {"first": hold(entered, second_in), "second": hold(second_in, first_out)},
                      off_the_tape=True)
        threads = Threads()
        threads.start("first", first)
        wait(entered)
        threads.start("second", self.scored)
        for scores in threads.join().values():
            self.assert_same_scores(scores, want_scores)
        assert self.trained(0) == want
