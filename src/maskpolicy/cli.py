"""Command line entry points.

Subcommands: build-vocab, train-policy, eval-policy, mask-corpus,
compare, grad-check. Every run writes its artifacts plus a manifest.json
into the --out directory. Exit codes: 0 success, 1 usage error, 2 data
or runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import Vocab, build_vocab, load_anchor_dataset
from .corruption import (
    POLICIES,
    POLICY_LEARNED,
    PolicySpec,
    mask_corpus,
    write_masked_jsonl,
    write_summary,
)
from .errors import MaskPolicyError
from .evaluation import compare_policies, read_report, span_hit_metrics, write_report
from .policy import DEFAULT_MAX_INPUT_LEN, DEFAULT_MAX_SPAN_LEN, MODE_TOP1, MODE_TOP5
from .training import TrainConfig, grad_check_suite, train_policy

# Default of every option a --config file may set, per command; the keys
# are the only valid config keys. Path arguments stay on the command line;
# explicit flags always win over config values.
_DEFAULTS = {
    "build-vocab": {"max_size": 50000, "min_freq": 1},
    "train-policy": TrainConfig().hyperparameters(),
    "eval-policy": {"max_span_len": DEFAULT_MAX_SPAN_LEN,
                    "max_input_len": DEFAULT_MAX_INPUT_LEN, "seed": 0},
    "mask-corpus": {"mode": MODE_TOP1, "seed": 0, "workers": 1,
                    "chunk_len": DEFAULT_MAX_INPUT_LEN,
                    "max_span_len": DEFAULT_MAX_SPAN_LEN, "rate": 0.15},
    "compare": {},
    "grad-check": {"seeds": 100, "max_len": 12},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: list, artifacts: list[str]) -> None:
    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "artifacts": {name: _sha256_file(out_dir / name) for name in artifacts},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_config(path, command: str) -> dict:
    if path is None:
        return {}
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise MaskPolicyError(f"config file {path} must hold a JSON object")
    unknown = set(obj) - set(_DEFAULTS[command])
    if unknown:
        raise MaskPolicyError(
            f"config file {path} has keys not valid for {command}: "
            f"{', '.join(sorted(unknown))}")
    return obj


def _options(args: argparse.Namespace) -> dict:
    """The command's options: defaults < config file < explicit flags."""
    defaults = _DEFAULTS[args.command]
    resolved = dict(defaults)
    resolved.update(_load_config(args.config, args.command))
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_build_vocab(args) -> int:
    opts = _options(args)
    out = _out_dir(args)
    vocab = build_vocab(args.corpus, max_size=opts["max_size"],
                        min_freq=opts["min_freq"])
    vocab.save(out / "vocab.txt")
    print(f"vocab: {len(vocab)} tokens", file=sys.stderr)
    _write_manifest(out, "build-vocab", opts, args.corpus, ["vocab.txt"])
    return 0


def _cmd_train_policy(args) -> int:
    opts = _options(args)
    out = _out_dir(args)
    vocab = Vocab.load(args.vocab)
    cfg = TrainConfig(**opts)

    train_ex, train_report = load_anchor_dataset(args.train, vocab)
    valid_ex, valid_report = load_anchor_dataset(args.valid, vocab)
    train_ex = _drop_unfittable(train_ex, cfg.max_input_len, "train")
    valid_ex = _drop_unfittable(valid_ex, cfg.max_input_len, "valid")
    print(f"train: {len(train_ex)} examples ({train_report.skipped} unaligned), "
          f"valid: {len(valid_ex)} ({valid_report.skipped} unaligned)",
          file=sys.stderr)

    params, log = train_policy(train_ex, valid_ex, cfg, vocab_size=len(vocab))
    save_checkpoint(out / "checkpoint.json", params, vocab,
                    hyperparameters=cfg.hyperparameters())
    with open(out / "training_log.jsonl", "w", encoding="utf-8") as fh:
        for record in log.jsonl_records():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    chosen = log.records[log.chosen_epoch - 1]
    print(f"chosen epoch {chosen.epoch}: valid loss {chosen.valid_loss:.4f}",
          file=sys.stderr)
    _write_manifest(out, "train-policy", opts,
                    [args.train, args.valid, args.vocab],
                    ["checkpoint.json", "training_log.jsonl"])
    return 0


def _drop_unfittable(examples, max_input_len, name):
    kept = [ex for ex in examples if len(ex.answer_span) <= max_input_len]
    dropped = len(examples) - len(kept)
    if dropped:
        print(f"{name}: dropped {dropped} examples whose answers exceed "
              f"{max_input_len} tokens", file=sys.stderr)
    return kept


def _policy_spec(args, vocab: Vocab, inputs: list, **knobs) -> tuple[PolicySpec, dict]:
    """The --policy spec and its checkpoint's hyperparameters. The learned
    policy's weights come from --checkpoint, which joins `inputs`."""
    spec = PolicySpec(kind=args.policy, **knobs)
    if spec.kind != POLICY_LEARNED:
        return spec, {}
    if args.checkpoint is None:
        raise _UsageError(f"{args.command}: --checkpoint is required for --policy learned")
    spec.params, hyper, spec.vocab_hash = load_checkpoint(args.checkpoint, vocab)
    inputs.append(args.checkpoint)
    return spec, hyper


def _cmd_eval_policy(args) -> int:
    opts = _options(args)
    out = _out_dir(args)
    vocab = Vocab.load(args.vocab)
    dev, report_load = load_anchor_dataset(args.dev, vocab)
    dev = _drop_unfittable(dev, opts["max_input_len"], "dev")
    print(f"dev: {len(dev)} examples ({report_load.skipped} unaligned)",
          file=sys.stderr)

    inputs = [args.dev, args.vocab]
    spec, _ = _policy_spec(args, vocab, inputs, max_span_len=opts["max_span_len"],
                           max_input_len=opts["max_input_len"])
    report = span_hit_metrics(POLICIES[spec.kind].proposer(spec), dev, policy_tag=args.policy,
                              max_span_len=opts["max_span_len"],
                              max_input_len=opts["max_input_len"],
                              seed=opts["seed"])
    write_report(out / "report.json", report)
    print(f"{report.policy_tag}: em@1={report.em_at_1:.3f} "
          f"em@5={report.em_at_5:.3f} f1@1={report.token_f1_at_1:.3f}",
          file=sys.stderr)
    _write_manifest(out, "eval-policy", {**opts, "policy": args.policy},
                    inputs, ["report.json"])
    return 0


def _cmd_mask_corpus(args) -> int:
    opts = _options(args)
    out = _out_dir(args)
    vocab = Vocab.load(args.vocab)
    inputs = list(args.corpus) + [args.vocab]

    spec, hyper = _policy_spec(args, vocab, inputs, mode=opts["mode"], rate=opts["rate"],
                               max_span_len=opts["max_span_len"],
                               max_input_len=opts["chunk_len"])
    if spec.params is not None:
        trained_len = int(hyper.get("max_input_len", opts["chunk_len"]))
        if opts["chunk_len"] > trained_len:
            raise MaskPolicyError(
                f"chunk length {opts['chunk_len']} exceeds the policy's "
                f"input limit of {trained_len}")
        spec.max_input_len = trained_len

    examples, summary = mask_corpus(args.corpus, vocab, spec,
                                    chunk_len=opts["chunk_len"],
                                    global_seed=opts["seed"],
                                    workers=opts["workers"])
    write_masked_jsonl(out / "masked.jsonl", examples)
    write_summary(out / "summary.json", summary)
    print(f"{spec.tag}: {summary.chunks} chunks, "
          f"masked rate {summary.masked_token_rate:.4f}", file=sys.stderr)
    _write_manifest(out, "mask-corpus", {**opts, "policy": args.policy},
                    inputs, ["masked.jsonl", "summary.json"])
    return 0


def _cmd_compare(args) -> int:
    _options(args)
    out = _out_dir(args)
    reports = [read_report(p) for p in args.reports]
    table, payload = compare_policies(reports)
    (out / "comparison.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(table)
    _write_manifest(out, "compare", {}, args.reports, ["comparison.json"])
    return 0


def _cmd_grad_check(args) -> int:
    opts = _options(args)
    out = _out_dir(args)
    result = grad_check_suite(n_seeds=opts["seeds"], max_len=opts["max_len"])
    (out / "gradcheck.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"grad check over {result['seeds']} seeds: "
          f"max rel err {result['max_rel_err']:.3e} "
          f"({'pass' if result['pass'] else 'FAIL'})", file=sys.stderr)
    _write_manifest(out, "grad-check", opts, [], ["gradcheck.json"])
    return 0 if result["pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maskpolicy",
                     description="Train, evaluate, and deploy masking policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of option overrides")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("build-vocab", parents=[], help="build a vocabulary file")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--max-size", type=int, dest="max_size")
    p.add_argument("--min-freq", type=int, dest="min_freq")
    common(p)

    p = sub.add_parser("train-policy", help="train the span extraction policy")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--optimizer", choices=["sgd", "adam"])
    p.add_argument("--max-input-len", type=int, dest="max_input_len")
    p.add_argument("--max-span-len", type=int, dest="max_span_len")
    p.add_argument("--seed", type=int)
    p.add_argument("--d-emb", type=int, dest="d_emb")
    p.add_argument("--d-h", type=int, dest="d_h")
    p.add_argument("--clip-norm", type=float, dest="clip_norm")
    common(p)

    p = sub.add_parser("eval-policy", help="score a policy on anchor data")
    p.add_argument("--dev", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--policy", required=True,
                   choices=[kind for kind, policy in POLICIES.items() if policy.proposer])
    p.add_argument("--checkpoint")
    p.add_argument("--max-span-len", type=int, dest="max_span_len")
    p.add_argument("--max-input-len", type=int, dest="max_input_len")
    p.add_argument("--seed", type=int)
    common(p)

    p = sub.add_parser("mask-corpus", help="corrupt a corpus with a policy")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--policy", required=True, choices=list(POLICIES))
    p.add_argument("--checkpoint")
    p.add_argument("--mode", choices=[MODE_TOP1, MODE_TOP5])
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--chunk-len", type=int, dest="chunk_len")
    p.add_argument("--max-span-len", type=int, dest="max_span_len")
    p.add_argument("--rate", type=float)
    common(p)

    p = sub.add_parser("compare", help="rank policy reports side by side")
    p.add_argument("--reports", nargs="+", required=True)
    common(p)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--seeds", type=int)
    p.add_argument("--max-len", type=int, dest="max_len")
    common(p)

    return parser


_HANDLERS = {
    "build-vocab": _cmd_build_vocab,
    "train-policy": _cmd_train_policy,
    "eval-policy": _cmd_eval_policy,
    "mask-corpus": _cmd_mask_corpus,
    "compare": _cmd_compare,
    "grad-check": _cmd_grad_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (MaskPolicyError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
