"""Command line entry points.

Subcommands: build-vocab, train-policy, eval-policy, mask-corpus,
compare, grad-check. Each key of a command's defaults table is also its
flag (`max_input_len` is `--max-input-len`) and parses to the type of
its default. A handler turns the parsed arguments and options into the
command's input files and one writer per artifact; a single runner then
publishes every command's output into --out: it removes any earlier
manifest.json, renames each artifact into place once it is complete,
and writes the new manifest last. Exit codes: 0 success, 1 usage error,
2 bad input (a MaskPolicyError, which malformed input files raise, or
an unreadable file); any other exception is a bug and propagates with
its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .baselines import RANDOM_MASK_RATE
from .checkpoint import atomic_output, load_checkpoint, write_checkpoint
from .corpus import Vocab, build_vocab, load_anchor_dataset, read_json, write_json
from .corruption import (
    POLICIES,
    POLICY_LEARNED,
    PolicySpec,
    check_deploy_options,
    mask_corpus,
    write_masked_jsonl,
    write_summary,
)
from .errors import EmptyDatasetError, InvalidOptionError, MaskPolicyError
from .evaluation import compare_policies, read_report, span_hit_metrics, write_report
from .optim import OPTIMIZERS
from .policy import DEFAULT_MAX_INPUT_LEN, DEFAULT_MAX_SPAN_LEN, MODE_TOP1, MODES
from .training import TrainConfig, grad_check_suite, train_policy

# Default of every option a --config file may set, per command; the keys
# are the only valid config keys, and each is also a flag. Path arguments
# stay on the command line; explicit flags always win over config values.
_DEFAULTS = {
    "build-vocab": {"max_size": 50000, "min_freq": 1},
    "train-policy": TrainConfig().hyperparameters(),
    "eval-policy": {"max_span_len": DEFAULT_MAX_SPAN_LEN,
                    "max_input_len": DEFAULT_MAX_INPUT_LEN, "seed": 0},
    "mask-corpus": {"mode": MODE_TOP1, "seed": 0, "workers": 1,
                    "chunk_len": DEFAULT_MAX_INPUT_LEN,
                    "max_span_len": DEFAULT_MAX_SPAN_LEN, "rate": RANDOM_MASK_RATE},
    "compare": {},
    "grad-check": {"seeds": 100, "max_len": 12},
}

# The allowed values of the options that are not free-form.
_CHOICES = {"optimizer": OPTIMIZERS, "mode": MODES}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


class _Run(NamedTuple):
    """What a handler leaves for the runner to publish."""

    inputs: list  # files whose digests go into the manifest
    artifacts: dict[str, Callable[[Path], None]]  # name -> writes it to a given path
    code: int = 0  # exit code once everything is written


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _load_config(path, command: str) -> dict:
    if path is None:
        return {}
    obj = read_json(path, "config file")
    defaults = _DEFAULTS[command]
    unknown = set(obj) - set(defaults)
    if unknown:
        raise MaskPolicyError(
            f"config file {path} has keys not valid for {command}: "
            f"{', '.join(sorted(unknown))}")
    for key, value in obj.items():
        kind = type(defaults[key])
        if not (type(value) is kind or (kind is float and type(value) is int)):
            raise MaskPolicyError(
                f"config file {path}: {key} must be of type {kind.__name__}, got {value!r}")
        # NaN fails this too, and an int too large for a float does not pass.
        if kind is float and not abs(value) <= sys.float_info.max:
            raise MaskPolicyError(f"config file {path}: {key} must be finite, got {value!r}")
    return obj


def _options(args: argparse.Namespace) -> tuple[dict, set[str]]:
    """The command's options, defaults < config file < explicit flags, and
    the keys whose values come from the config file."""
    defaults = _DEFAULTS[args.command]
    resolved = dict(defaults)
    config = _load_config(args.config, args.command)
    resolved.update(config)
    for key in defaults:
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = flag_value
            config.pop(key, None)
    return resolved, set(config)


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _cmd_build_vocab(args, opts) -> _Run:
    vocab = build_vocab(args.corpus, max_size=opts["max_size"],
                        min_freq=opts["min_freq"])
    print(f"vocab: {len(vocab)} tokens", file=sys.stderr)
    return _Run(args.corpus, {"vocab.txt": vocab.save})


def _cmd_train_policy(args, opts) -> _Run:
    vocab = Vocab.load(args.vocab)
    cfg = TrainConfig(**opts)
    cfg.validate()  # before the anchor files, whose loading reads max_input_len

    train_ex, train_report = _load_anchor(args.train, vocab, cfg.max_input_len, "train")
    valid_ex, valid_report = _load_anchor(args.valid, vocab, cfg.max_input_len, "valid")
    print(f"train: {len(train_ex)} examples ({train_report.skipped} unaligned), "
          f"valid: {len(valid_ex)} ({valid_report.skipped} unaligned)",
          file=sys.stderr)

    params, log = train_policy(train_ex, valid_ex, cfg, vocab_size=len(vocab))
    chosen = log.records[log.chosen_epoch - 1]
    print(f"chosen epoch {chosen.epoch}: valid loss {chosen.valid_loss:.4f}",
          file=sys.stderr)
    return _Run([args.train, args.valid, args.vocab], {
        "checkpoint.safetensors": lambda path: write_checkpoint(
            path, params, vocab, hyperparameters=cfg.hyperparameters()),
        "training_log.jsonl": lambda path: _write_jsonl(path, log.jsonl_records()),
    })


def _load_anchor(path, vocab: Vocab, max_input_len: int, name: str):
    """The anchor examples of `path` whose answers fit in max_input_len
    tokens, and its load report; a file that leaves none is refused."""
    examples, report = load_anchor_dataset(path, vocab)
    kept = [ex for ex in examples if len(ex.answer_span) <= max_input_len]
    dropped = len(examples) - len(kept)
    if dropped:
        print(f"{name}: dropped {dropped} examples whose answers exceed "
              f"{max_input_len} tokens", file=sys.stderr)
    if not kept:
        raise EmptyDatasetError(
            f"{path} holds no usable {name} example ({report.skipped} unaligned, "
            f"{dropped} with answers over {max_input_len} tokens)")
    return kept, report


def _policy_spec(args, vocab: Vocab, inputs: list, **knobs) -> PolicySpec:
    """The --policy spec. The learned policy's weights come from
    --checkpoint, which joins `inputs`; no other policy takes one. The
    spec's max_input_len, the longest window the command scores, may not
    exceed the input length the checkpoint was trained with, which
    becomes the spec's limit."""
    spec = PolicySpec(kind=args.policy, **knobs)
    if spec.kind != POLICY_LEARNED:
        if args.checkpoint is not None:
            raise _UsageError(
                f"{args.command}: --checkpoint is only read by --policy learned")
        return spec
    if args.checkpoint is None:
        raise _UsageError(f"{args.command}: --checkpoint is required for --policy learned")
    spec.params, hyper, spec.vocab_hash = load_checkpoint(args.checkpoint, vocab)
    trained_len = hyper.get("max_input_len", spec.max_input_len)
    if type(trained_len) is not int:
        raise MaskPolicyError(
            f"checkpoint {args.checkpoint}: max_input_len is not an integer: {trained_len!r}")
    if spec.max_input_len > trained_len:
        raise MaskPolicyError(
            f"input length {spec.max_input_len} exceeds the policy's input limit of "
            f"{trained_len} (checkpoint {args.checkpoint})")
    spec.max_input_len = trained_len
    inputs.append(args.checkpoint)
    return spec


def _cmd_eval_policy(args, opts) -> _Run:
    # Options out of range are refused before any input is opened.
    for key in ("max_span_len", "max_input_len"):
        if opts[key] < 1:
            raise InvalidOptionError(f"{key} must be >= 1, got {opts[key]}", key)
    vocab = Vocab.load(args.vocab)
    inputs = [args.dev, args.vocab]
    # The checkpoint is loaded and checked before the dev pass, so a bad one
    # is refused without reading the dev set.
    spec = _policy_spec(args, vocab, inputs, max_span_len=opts["max_span_len"],
                        max_input_len=opts["max_input_len"])
    dev, report_load = _load_anchor(args.dev, vocab, opts["max_input_len"], "dev")
    print(f"dev: {len(dev)} examples ({report_load.skipped} unaligned)",
          file=sys.stderr)
    report = span_hit_metrics(POLICIES[spec.kind].proposer(spec, vocab), dev,
                              policy_tag=args.policy, max_span_len=opts["max_span_len"],
                              max_input_len=opts["max_input_len"],
                              seed=opts["seed"])
    print(f"{report.policy_tag}: em@1={report.em_at_1:.3f} "
          f"em@5={report.em_at_5:.3f} f1@1={report.token_f1_at_1:.3f}",
          file=sys.stderr)
    return _Run(inputs, {"report.json": lambda path: write_report(path, report)})


def _cmd_mask_corpus(args, opts) -> _Run:
    knobs = dict(mode=opts["mode"], rate=opts["rate"], max_span_len=opts["max_span_len"],
                 max_input_len=opts["chunk_len"])
    # Options out of range are refused before any input is opened.
    check_deploy_options(PolicySpec(kind=args.policy, **knobs), opts["chunk_len"],
                         opts["workers"])
    vocab = Vocab.load(args.vocab)
    inputs = list(args.corpus) + [args.vocab]

    spec = _policy_spec(args, vocab, inputs, **knobs)

    examples, summary = mask_corpus(args.corpus, vocab, spec,
                                    chunk_len=opts["chunk_len"],
                                    global_seed=opts["seed"],
                                    workers=opts["workers"])
    print(f"{spec.tag}: {summary.chunks} chunks, "
          f"masked rate {summary.masked_token_rate:.4f}", file=sys.stderr)
    return _Run(inputs, {"masked.jsonl": lambda path: write_masked_jsonl(path, examples),
                         "summary.json": lambda path: write_summary(path, summary)})


def _cmd_compare(args, opts) -> _Run:
    table, payload = compare_policies([read_report(p) for p in args.reports])
    print(table)
    return _Run(args.reports, {"comparison.json": lambda path: write_json(path, payload)})


def _cmd_grad_check(args, opts) -> _Run:
    result = grad_check_suite(n_seeds=opts["seeds"], max_len=opts["max_len"])
    print(f"grad check over {result['seeds']} seeds: "
          f"max rel err {result['max_rel_err']:.3e} "
          f"({'pass' if result['pass'] else 'FAIL'})", file=sys.stderr)
    return _Run([], {"gradcheck.json": lambda path: write_json(path, result)},
                code=0 if result["pass"] else 2)


_ONE = {"required": True}
_MANY = {"nargs": "+", "required": True}

# Per command: its handler, its help line and its path arguments, each
# --name with its argparse settings. Options come from _DEFAULTS.
_COMMANDS = {
    "build-vocab": (_cmd_build_vocab, "build a vocabulary file", {"corpus": _MANY}),
    "train-policy": (_cmd_train_policy, "train the span extraction policy",
                     {"train": _ONE, "valid": _ONE, "vocab": _ONE}),
    "eval-policy": (_cmd_eval_policy, "score a policy on anchor data", {
        "dev": _ONE, "vocab": _ONE,
        "policy": {**_ONE, "choices": [k for k, p in POLICIES.items() if p.proposer]},
        "checkpoint": {}}),
    "mask-corpus": (_cmd_mask_corpus, "corrupt a corpus with a policy", {
        "corpus": _MANY, "vocab": _ONE,
        "policy": {**_ONE, "choices": list(POLICIES)}, "checkpoint": {}}),
    "compare": (_cmd_compare, "rank policy reports side by side", {"reports": _MANY}),
    "grad-check": (_cmd_grad_check, "finite-difference gradient audit", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maskpolicy",
                     description="Train, evaluate, and deploy masking policies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, paths) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name, settings in paths.items():
            p.add_argument(f"--{name}", **settings)
        for key, default in _DEFAULTS[command].items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=type(default), choices=_CHOICES.get(key))
        p.add_argument("--config", help="JSON file of option overrides")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def _run(args: argparse.Namespace) -> int:
    """Runs the command and publishes its artifacts, then its manifest."""
    opts, from_config = _options(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Until the new manifest is written, the directory must not look
    # like a finished run.
    (out / "manifest.json").unlink(missing_ok=True)
    try:
        run = _COMMANDS[args.command][0](args, opts)
    except InvalidOptionError as e:
        # A value out of range names the config file that set it.
        if from_config.intersection(e.options):
            raise MaskPolicyError(f"config file {args.config}: {e}") from None
        raise
    for name, write in run.artifacts.items():
        with atomic_output(out / name) as tmp:
            write(tmp)
    manifest = {
        "command": args.command,
        "config": {**opts, "policy": args.policy} if "policy" in args else opts,
        "inputs": {str(p): _sha256_file(p) for p in run.inputs},
        "artifacts": {name: _sha256_file(out / name) for name in run.artifacts},
    }
    with atomic_output(out / "manifest.json") as tmp:
        write_json(tmp, manifest)
    return run.code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        return _run(parser.parse_args(argv))
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (MaskPolicyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
