"""One run of one benchmark workload, in a process of its own.

`run.py` generates the inputs, then starts this module as a child
process with a plan file, so that the child's peak resident memory is
the workload's and not the input generator's. The child sets up the
program, runs passes over the inputs until the time budget is spent,
checks the outputs, and writes a result file.

Workloads (see BENCHMARK.json for why each exists):

  deploy-random15, deploy-randomspan, deploy-salient
      serial mask_corpus with one baseline policy over a ragged corpus
  deploy-learned
      mask_corpus with the learned policy, top1, d_emb = d_h = 128,
      chunk_len 128, over min(2, nproc) worker processes
  train
      train_policy at the defaults (Adam, clip_norm 1.0, d = 128) on
      anchor JSONL whose contexts fill the 128-token window

A pass is the timed unit of work: mask_corpus plus write_masked_jsonl
and write_summary for a deploy workload, train_policy plus
save_checkpoint for train. End-to-end figures are medians over passes.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from maskpolicy import (
    PolicySpec,
    TrainConfig,
    Vocab,
    load_anchor_dataset,
    load_checkpoint,
    mask_corpus,
    save_checkpoint,
    train_policy,
    write_masked_jsonl,
    write_summary,
)
from maskpolicy.training import prepare_example

from perfbench import checks, gen, tracing

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

END_TO_END = {
    "tok_s": "tok/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "corpus.vocab_load_s": "s",
    "corpus.read_s": "s",
    "corpus.tokenize_s": "s",
    "corpus.chunk_s": "s",
    "corpus.docs": "count",
    "corpus.tokens": "count",
    "corpus.unk_tokens": "count",
    "corpus.chunks": "count",
    "corpus.tail_tokens_dropped": "count",
    "corpus.load_anchor_s": "s",
    "corpus.anchor_skipped": "count",
    "seeding.derive_s": "s",
    "seeding.calls": "count",
    "baselines.random15_s": "s",
    "baselines.randomspan_s": "s",
    "baselines.salient_s": "s",
    "baselines.salient_fallback_ratio": "ratio",
    "policy.forward_s": "s",
    "policy.forward_ms_p50": "ms",
    "policy.forward_ms_p99": "ms",
    "policy.forward_samples": "count",
    "policy.rank_s": "s",
    "policy.select_s": "s",
    "policy.rank_candidates": "count",
    "policy.rank_kept_ratio": "ratio",
    "lstm.cell_steps": "count",
    "lstm.flops": "flop",
    "lstm.gflop_s": "GFLOP/s",
    "corruption.corrupt_s": "s",
    "corruption.masked_positions": "count",
    "corruption.summary_s": "s",
    "corruption.write_s": "s",
    "corruption.bytes_written": "bytes",
    "checkpoint.load_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "training.examples": "count",
    "training.forward_s": "s",
    "training.valid_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.clip_s": "s",
    "autodiff.clip_rate": "ratio",
    "optim.step_s": "s",
    "optim.steps": "count",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

DEPLOY_PROFILES = {
    "full": gen.DeployProfile(docs=1000, lengths="lognormal", median_tokens=300),
    "tiny": gen.DeployProfile(docs=12, lengths="lognormal", median_tokens=150,
                              slice_tokens=4_000, vocab_size=600),
}
LEARNED_PROFILES = {
    "full": gen.DeployProfile(docs=40, lengths="chunks+tail", full_chunks=2),
    "tiny": gen.DeployProfile(docs=3, lengths="chunks+tail", full_chunks=1,
                              slice_tokens=4_000, vocab_size=600),
}
TRAIN_PROFILES = {
    "full": gen.TrainProfile(train=4, valid=2, epochs=2, d_model=gen.D_MODEL),
    "tiny": gen.TrainProfile(train=3, valid=2, epochs=2, d_model=16),
}


class DeployWorkload:
    """mask_corpus with one policy, plus the two writers."""

    def __init__(self, policy: str, workers: int, profiles: dict):
        self.policy = policy
        self.workers = workers
        self.profiles = profiles
        self.setup_repeats = 3 if policy == "learned" else 25

    def make_inputs(self, out: Path, seed: int, profile: str) -> dict:
        files = gen.make_deploy_inputs(out, seed, self.profiles[profile],
                                       learned=self.policy == "learned")
        # Counted here, in the generating process, so that the chunk
        # table does not sit in the measured process's memory.
        files["chunks"] = len(checks.expected_chunks(
            [files["corpus"]], Vocab.load(files["vocab"]), gen.CHUNK_LEN))
        return files

    def setup(self, inputs: dict, tr: tracing.Tracer | None = None) -> dict:
        tr = tr or tracing.Tracer()
        with tr.span("corpus.vocab_load"):
            vocab = Vocab.load(inputs["vocab"])
        spec = PolicySpec(kind=self.policy, max_input_len=gen.CHUNK_LEN)
        if self.policy == "learned":
            # As mask-corpus does: the checkpoint's input limit bounds the chunk.
            with tr.span("checkpoint.load"):
                params, hyper, vocab_hash = load_checkpoint(inputs["checkpoint"], vocab)
            tr.count("checkpoint.bytes", os.path.getsize(inputs["checkpoint"]))
            spec.params, spec.vocab_hash = params, vocab_hash
            spec.max_input_len = int(hyper["max_input_len"])
        return {"vocab": vocab, "spec": spec, "inputs": inputs}

    def run_pass(self, state: dict, seed: int, out: Path) -> dict:
        examples, summary = mask_corpus([state["inputs"]["corpus"]], state["vocab"],
                                        state["spec"], chunk_len=gen.CHUNK_LEN,
                                        global_seed=seed, workers=self.workers)
        write_masked_jsonl(out / "masked.jsonl", examples)
        write_summary(out / "summary.json", summary)
        return {"tokens": sum(len(ex.input_ids) for ex in examples)}

    def traced_pass(self, tr: tracing.Tracer, state: dict, seed: int, out: Path) -> None:
        tracing.traced_mask_corpus(tr, [state["inputs"]["corpus"]], state["vocab"],
                                   state["spec"], gen.CHUNK_LEN, seed, self.workers,
                                   out / "masked.jsonl", out / "summary.json")

    def digests(self, out: Path, _result: dict) -> dict:
        return {name: checks.file_digest(out / name) for name in ("masked.jsonl", "summary.json")}

    def operations(self, state: dict) -> int:
        """Chunks per pass: emitted plus skipped, as chunk_document makes them."""
        return state["inputs"]["chunks"]

    def check(self, state: dict, seed: int, out: Path, _result: dict) -> list[str]:
        expected = checks.expected_chunks([state["inputs"]["corpus"]], state["vocab"],
                                          gen.CHUNK_LEN)
        return checks.check_deploy_output(out / "masked.jsonl", out / "summary.json",
                                          expected, seed, state["spec"].tag)

    def check_reference(self, digests: dict, _result: dict, reference: dict) -> list[str]:
        return checks.check_digests(digests, reference["digests"], "outputs")

    def reference_entry(self, digests: dict, _result: dict) -> dict:
        return {"digests": digests}

    def model_dims(self, state: dict) -> tuple[int, int]:
        params = state["spec"].params
        return (params.d_emb, params.d_h) if params is not None else (0, 0)


class TrainWorkload:
    """train_policy at the defaults, plus save_checkpoint."""

    setup_repeats = 15

    def __init__(self, profiles: dict):
        self.profiles = profiles

    def make_inputs(self, out: Path, seed: int, profile: str) -> dict:
        files = gen.make_train_inputs(out, seed, self.profiles[profile])
        p = self.profiles[profile]
        return {**files, "epochs": p.epochs, "d_model": p.d_model}

    def setup(self, inputs: dict, tr: tracing.Tracer | None = None) -> dict:
        tr = tr or tracing.Tracer()
        with tr.span("corpus.vocab_load"):
            vocab = Vocab.load(inputs["vocab"])
        data = {}
        for name in ("train", "valid"):
            with tr.span("corpus.load_anchor"):
                data[name], report = load_anchor_dataset(inputs[name], vocab)
            tr.count("corpus.anchor_skipped", report.skipped)
        return {"vocab": vocab, **data, "inputs": inputs}

    @staticmethod
    def config(state: dict, seed: int) -> TrainConfig:
        d = state["inputs"]["d_model"]
        return TrainConfig(epochs=state["inputs"]["epochs"], seed=seed % 2**31, d_emb=d, d_h=d)

    def run_pass(self, state: dict, seed: int, out: Path) -> dict:
        cfg = self.config(state, seed)
        params, log = train_policy(state["train"], state["valid"], cfg,
                                   vocab_size=len(state["vocab"]))
        save_checkpoint(out / "checkpoint.json", params, state["vocab"],
                        hyperparameters=cfg.hyperparameters())
        return {"params": params, "log": log.jsonl_records(),
                "tokens": cfg.epochs * sum(len(prepare_example(ex, cfg.max_input_len)[0])
                                           for ex in state["train"])}

    def traced_pass(self, tr: tracing.Tracer, state: dict, seed: int, out: Path) -> dict:
        cfg = self.config(state, seed)
        params, log = tracing.traced_train_policy(tr, state["train"], state["valid"], cfg,
                                                  vocab_size=len(state["vocab"]))
        tracing.traced_save_checkpoint(tr, out / "checkpoint.json", params, state["vocab"],
                                       cfg.hyperparameters())
        return {"params": params, "log": log.jsonl_records()}

    def digests(self, out: Path, result: dict) -> dict:
        return {"checkpoint.json": checks.file_digest(out / "checkpoint.json"),
                "params": checks.params_digest(result["params"]),
                "log": checks.json_digest(result["log"])}

    def operations(self, state: dict) -> int:
        """Training examples per pass."""
        return state["inputs"]["epochs"] * len(state["train"])

    def check(self, state: dict, seed: int, out: Path, result: dict) -> list[str]:
        return checks.check_training_log(result["log"])

    def check_reference(self, digests: dict, result: dict, reference: dict) -> list[str]:
        return checks.check_log_reference(result["log"], reference["log"])

    def reference_entry(self, digests: dict, result: dict) -> dict:
        return {"log": result["log"]}

    def model_dims(self, state: dict) -> tuple[int, int]:
        d = state["inputs"]["d_model"]
        return d, d


def workers_for_learned() -> int:
    return min(2, len(os.sched_getaffinity(0)))


WORKLOADS = {
    "deploy-random15": lambda: DeployWorkload("random15", 1, DEPLOY_PROFILES),
    "deploy-randomspan": lambda: DeployWorkload("randomspan", 1, DEPLOY_PROFILES),
    "deploy-salient": lambda: DeployWorkload("salient", 1, DEPLOY_PROFILES),
    "deploy-learned": lambda: DeployWorkload("learned", workers_for_learned(), LEARNED_PROFILES),
    "train": lambda: TrainWorkload(TRAIN_PROFILES),
}

# The per-workload name of each workload's tok_s (examples/s on train),
# printed beside the result.
WORKLOAD_METRIC_NAMES = {
    "deploy-random15": "random15_tok_s",
    "deploy-randomspan": "randomspan_tok_s",
    "deploy-salient": "salient_tok_s",
    "deploy-learned": "learned_tok_s",
    "train": "train_ex_s",
}


@dataclass
class Plan:
    workload: str
    seed: int
    seconds: float
    trace: bool
    profile: str
    inputs: dict
    canary_inputs: dict | None
    work: str


class Run:
    """Counts operations and problems; a problem fails the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops = 0
        self.problems: list[str] = []

    def problem(self, msg: str) -> None:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
        self.problems.append(msg)

    def problems_from(self, found: list[str]) -> None:
        for msg in found:
            self.problem(msg)

    def outcome(self) -> tuple[bool, int, int]:
        """(correct, attempted, failed)."""
        attempted = max(self.attempted, 1)
        if self.problems:
            return False, attempted, attempted
        return True, attempted, self.failed_ops


class HostSpeed:
    """The host's speed during a pass, sampled in the measuring process.

    On a shared virtual machine the same code runs up to twice as slowly
    when neighbours load the host, in regimes that last seconds to
    minutes, so wall time alone varies more from run to run than the
    changes it should detect. While a pass runs, an interval timer times
    a fixed pure-Python loop every few milliseconds. `factor` is the
    median loop time over the reference loop time, so pass time divided
    by it is pass time on a host of reference speed. The loop is stdlib
    code that no change to the program can speed up.
    """

    INTERVAL_S = 0.004
    LOOP = 1500
    REFERENCE_S = 100e-6  # the loop's time on a quiet 2-vCPU Xeon host

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        # Thread CPU time, so that a sample taken while the pass's worker
        # processes hold every vCPU does not count its wait for one.
        t0 = time.thread_time()
        s = 0
        for i in range(self.LOOP):
            s += i * i
        self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """1.0 when the pass was too short to sample."""
        return statistics.median(self.samples) / self.REFERENCE_S if self.samples else 1.0


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _timed_setup(wl, inputs: dict) -> tuple[float, float, dict]:
    """Median set-up time over the workload's repeats, scaled to
    reference host speed; the same unscaled; and the last state."""
    times = []
    state = None
    with HostSpeed() as speed:
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            state = wl.setup(inputs)
            times.append(time.perf_counter() - t0)
    wall = statistics.median(times)
    return wall / speed.factor(), wall, state


def _passes(run: Run, wl, state: dict, seed: int, out: Path, budget: float,
            max_passes: int | None = None, speed: HostSpeed | None = None):
    """Untraced passes until their summed time reaches the budget, at
    least one. Every pass's output must equal the first's byte for byte.
    With `speed`, each result also records the host-speed factor of its
    pass."""
    times, results = [], []
    first = None
    ops = wl.operations(state)
    while (not times or sum(times) < budget) and (max_passes is None or len(times) < max_passes):
        run.attempted += ops
        try:
            if speed is None:
                t0 = time.perf_counter()
                result = wl.run_pass(state, seed, out)
                elapsed = time.perf_counter() - t0
            else:
                with speed:
                    t0 = time.perf_counter()
                    result = wl.run_pass(state, seed, out)
                    elapsed = time.perf_counter() - t0
                result["host_factor"] = speed.factor()
        except Exception:  # a failed operation is a result, not a crash
            traceback.print_exc()
            run.failed_ops += ops
            run.problem(f"pass {len(times)} raised")
            break
        times.append(elapsed)
        digests = wl.digests(out, result)
        result.pop("params", None)  # digested; not kept in the measured process
        if first is None:
            first = digests
        elif digests != first:
            run.problem(f"pass {len(times) - 1} output differs from pass 0")
        results.append(result)
    return times, results, first


def _check_outputs(run: Run, wl, state: dict, seed: int, out: Path, result: dict,
                   digests: dict, reference: dict | None, what: str) -> None:
    run.problems_from(f"{what}: {p}" for p in wl.check(state, seed, out, result))
    if reference is not None:
        run.problems_from(f"{what}: {p}" for p in wl.check_reference(digests, result, reference))


def _canary(run: Run, wl, plan: Plan, reference: dict) -> None:
    """A tiny default-seed pass compared with its recorded reference, so
    every run checks the program's output against known-good bytes
    whatever seed it was given."""
    if plan.canary_inputs is None:
        return
    out = Path(plan.work) / "canary_out"
    out.mkdir(parents=True, exist_ok=True)
    state = wl.setup(plan.canary_inputs)
    _, results, digests = _passes(run, wl, state, DEFAULT_SEED, out, 0.0, max_passes=1)
    if not results:
        return
    ref = reference.get(plan.workload, {}).get("tiny")
    if ref is None:
        run.problem("no reference recorded for the tiny default-seed canary")
    _check_outputs(run, wl, state, DEFAULT_SEED, out, results[0], digests, ref, "canary")


def _main_reference(run: Run, plan: Plan, reference: dict) -> dict | None:
    if plan.seed != DEFAULT_SEED:
        return None
    ref = reference.get(plan.workload, {}).get(plan.profile)
    if ref is None:
        run.problem(f"no reference recorded for {plan.workload} {plan.profile} "
                    f"at seed {DEFAULT_SEED}")
    return ref


def run_untraced(plan: Plan, wl, reference: dict) -> dict:
    run = Run()
    out = Path(plan.work) / "out"
    out.mkdir(parents=True, exist_ok=True)
    setup_s, wall_setup_s, state = _timed_setup(wl, plan.inputs)
    times, results, digests = _passes(run, wl, state, plan.seed, out, plan.seconds,
                                      speed=HostSpeed())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if results:
        _check_outputs(run, wl, state, plan.seed, out, results[-1], digests,
                       _main_reference(run, plan, reference), "output")
    _canary(run, wl, plan, reference)
    correct, attempted, failed = run.outcome()

    def median_rate(work, scaled: bool) -> float:
        if not times:
            return 0.0
        return statistics.median(work(r) / t * (r["host_factor"] if scaled else 1.0)
                                 for r, t in zip(results, times))

    metrics = {
        "tok_s": median_rate(lambda r: r["tokens"], scaled=True),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }
    ops = wl.operations(state)
    named_value = (median_rate(lambda r: ops, scaled=True) if plan.workload == "train"
                   else metrics["tok_s"])
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "named_metrics": {WORKLOAD_METRIC_NAMES[plan.workload]: named_value,
                          "fail_frac": failed / attempted},
        "wall_tok_s": median_rate(lambda r: r["tokens"], scaled=False),
        "wall_setup_s": wall_setup_s,
        "host_factors": [r["host_factor"] for r in results],
        "passes": times, "problems": run.problems, "digests": digests,
    }


def _percentile_ms(durations_ns: list[int], q: float) -> float:
    return float(np.percentile(np.array(durations_ns) / 1e6, q)) if durations_ns else 0.0


def layer_metrics(tr: tracing.Tracer, setup_tr: tracing.Tracer, passes: int,
                  dims: tuple[int, int], untraced: list[float], traced: list[float]) -> dict:
    """Per-layer figures of the traced passes: times and counts are per
    pass over the inputs, set-up figures are per set-up."""
    busy: dict[str, float] = {}
    forward_ns = []
    for name, start, end, _unit, _pid in tr.spans:
        busy[name] = busy.get(name, 0.0) + (end - start) / 1e9
        if name == "policy.forward":
            forward_ns.append(end - start)
    setup_busy: dict[str, float] = {}
    for name, start, end, _unit, _pid in setup_tr.spans:
        setup_busy[name] = setup_busy.get(name, 0.0) + (end - start) / 1e9

    def per_pass(name: str) -> float:
        return busy.get(name, 0.0) / passes

    def count(name: str) -> float:
        return tr.counts.get(name, 0) / passes

    def ratio(num: str, den: str) -> float:
        d = tr.counts.get(den, 0)
        return tr.counts.get(num, 0) / d if d else 0.0

    lstm_tokens = count("lstm.tokens")
    flops = lstm_tokens * tracing.lstm_flops_per_token(*dims) if dims[0] else 0.0
    forward_time = per_pass("policy.forward") + per_pass("training.forward") + per_pass("training.valid")
    u, t = statistics.median(untraced), statistics.median(traced)
    values = {
        "corpus.vocab_load_s": setup_busy.get("corpus.vocab_load", 0.0),
        "corpus.read_s": per_pass("corpus.read"),
        "corpus.tokenize_s": per_pass("corpus.tokenize"),
        "corpus.chunk_s": per_pass("corpus.chunk"),
        "corpus.docs": count("corpus.docs"),
        "corpus.tokens": count("corpus.tokens"),
        "corpus.unk_tokens": count("corpus.unk_tokens"),
        "corpus.chunks": count("corpus.chunks"),
        "corpus.tail_tokens_dropped": count("corpus.tail_tokens_dropped"),
        "corpus.load_anchor_s": setup_busy.get("corpus.load_anchor", 0.0),
        "corpus.anchor_skipped": setup_tr.counts.get("corpus.anchor_skipped", 0),
        "seeding.derive_s": per_pass("seeding.derive"),
        "seeding.calls": count("seeding.calls"),
        "baselines.random15_s": per_pass("baselines.random15"),
        "baselines.randomspan_s": per_pass("baselines.randomspan"),
        "baselines.salient_s": per_pass("baselines.salient"),
        "baselines.salient_fallback_ratio": (ratio("baselines.salient_fallbacks", "seeding.calls")
                                             if busy.get("baselines.salient") else 0.0),
        "policy.forward_s": per_pass("policy.forward"),
        "policy.forward_ms_p50": _percentile_ms(forward_ns, 50),
        "policy.forward_ms_p99": _percentile_ms(forward_ns, 99),
        "policy.forward_samples": len(forward_ns),
        "policy.rank_s": per_pass("policy.rank"),
        "policy.select_s": per_pass("policy.select"),
        "policy.rank_candidates": count("policy.rank_candidates"),
        "policy.rank_kept_ratio": ratio("policy.rank_kept", "policy.rank_candidates"),
        "lstm.cell_steps": 4 * lstm_tokens,
        "lstm.flops": flops,
        "lstm.gflop_s": flops / forward_time / 1e9 if forward_time else 0.0,
        "corruption.corrupt_s": per_pass("corruption.corrupt"),
        "corruption.masked_positions": count("corruption.masked_positions"),
        "corruption.summary_s": per_pass("corruption.summary"),
        "corruption.write_s": per_pass("corruption.write"),
        "corruption.bytes_written": count("corruption.bytes_written"),
        "checkpoint.load_s": setup_busy.get("checkpoint.load", 0.0),
        "checkpoint.save_s": per_pass("checkpoint.save"),
        "checkpoint.bytes": (setup_tr.counts.get("checkpoint.bytes", 0)
                             or count("checkpoint.bytes")),
        "training.examples": count("training.examples"),
        "training.forward_s": per_pass("training.forward"),
        "training.valid_s": per_pass("training.valid"),
        "autodiff.backward_s": per_pass("autodiff.backward"),
        "autodiff.clip_s": per_pass("autodiff.clip"),
        "autodiff.clip_rate": ratio("autodiff.clipped", "optim.steps"),
        "optim.step_s": per_pass("optim.step"),
        "optim.steps": count("optim.steps"),
        "trace.untraced_pass_s": u,
        "trace.traced_pass_s": t,
        "trace.overhead_s": t - u,
        "trace.overhead_ratio": (t - u) / u,
    }
    assert values.keys() == PER_LAYER.keys()
    return {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in values.items()}


def run_traced(plan: Plan, wl, reference: dict) -> dict:
    """Untraced passes for half the budget, then as many traced passes
    over the same inputs. Traced output must equal untraced output byte
    for byte (and, for training, parameter for parameter)."""
    run = Run()
    out = Path(plan.work) / "out"
    out.mkdir(parents=True, exist_ok=True)
    setup_tr = tracing.Tracer(unit=-1)
    state = wl.setup(plan.inputs, setup_tr)
    untraced, results, digests = _passes(run, wl, state, plan.seed, out, plan.seconds / 2)
    tr = tracing.Tracer()
    traced = []
    ops = wl.operations(state)
    for i in range(len(untraced)):
        tr.unit = i
        run.attempted += ops
        t0 = time.perf_counter()
        try:
            result = wl.traced_pass(tr, state, plan.seed, out)
        except Exception:  # a failed operation is a result, not a crash
            traceback.print_exc()
            run.failed_ops += ops
            run.problem(f"traced pass {i} raised")
            break
        traced.append(time.perf_counter() - t0)
        if wl.digests(out, result) != digests:
            run.problem(f"traced pass {i} output differs from the untraced output")
    if results:
        _check_outputs(run, wl, state, plan.seed, out, results[-1], digests,
                       _main_reference(run, plan, reference), "output")
    _canary(run, wl, plan, reference)
    correct, attempted, failed = run.outcome()
    spans_path = Path(plan.work).parent / "traces" / f"{plan.workload}-seed{plan.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, unit, pid in setup_tr.spans + tr.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "pass": unit, "parent": f"pass:{unit}", "pid": pid}) + "\n")
    metrics = (layer_metrics(tr, setup_tr, len(traced), wl.model_dims(state), untraced, traced)
               if traced else {k: {"value": 0.0, "unit": u} for k, u in PER_LAYER.items()})
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "named_metrics": {"fail_frac": failed / attempted},
        "passes": untraced, "traced_passes": traced, "problems": run.problems,
        "digests": digests, "spans_file": str(spans_path),
    }


def main(argv: list[str]) -> int:
    plan = Plan(**json.loads(Path(argv[0]).read_text(encoding="utf-8")))
    wl = WORKLOADS[plan.workload]()
    reference = load_reference()
    result = (run_traced if plan.trace else run_untraced)(plan, wl, reference)
    (Path(plan.work) / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
