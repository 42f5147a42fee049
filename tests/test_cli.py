"""End-to-end command line runs against a synthetic workspace."""

import json
from pathlib import Path

import numpy as np
import pytest

from maskpolicy import cli
from maskpolicy.cli import main
from maskpolicy.corpus import Vocab

from synth import synth_context, write_anchor_jsonl


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + anchor files and a vocabulary built by the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    corpus = root / "corpus.txt"
    lines = [synth_context(rng)[0] for _ in range(40)]
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_anchor_jsonl(root / "train.jsonl", 48, seed=1)
    write_anchor_jsonl(root / "valid.jsonl", 12, seed=2)
    write_anchor_jsonl(root / "dev.jsonl", 12, seed=3)

    assert main(["build-vocab", "--corpus", str(corpus),
                 "--out", str(root / "vocab")]) == 0
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    """A small trained checkpoint shared by the downstream command tests."""
    out = workspace / "run"
    code = main([
        "train-policy",
        "--train", str(workspace / "train.jsonl"),
        "--valid", str(workspace / "valid.jsonl"),
        "--vocab", str(workspace / "vocab" / "vocab.txt"),
        "--epochs", "2", "--batch-size", "8", "--learning-rate", "3e-3",
        "--max-input-len", "24", "--max-span-len", "5",
        "--d-emb", "8", "--d-h", "8",
        "--out", str(out),
    ])
    assert code == 0
    return out


def manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestBuildVocab:
    def test_artifacts_and_manifest(self, workspace):
        out = workspace / "vocab"
        assert (out / "vocab.txt").exists()
        m = manifest(out)
        assert m["command"] == "build-vocab"
        assert "vocab.txt" in m["artifacts"]
        assert len(m["inputs"]) == 1

    def test_manifest_hash_matches_artifact(self, workspace):
        import hashlib

        out = workspace / "vocab"
        recorded = manifest(out)["artifacts"]["vocab.txt"]
        actual = hashlib.sha256((out / "vocab.txt").read_bytes()).hexdigest()
        assert recorded == actual


class TestTrainPolicy:
    def test_artifacts(self, trained):
        assert (trained / "checkpoint.json").exists()
        lines = (trained / "training_log.jsonl").read_text().splitlines()
        records = [json.loads(l) for l in lines]
        assert len(records) == 2
        assert sum(r["chosen"] for r in records) == 1
        assert all({"epoch", "train_loss", "valid_loss", "chosen"} == set(r)
                   for r in records)

    def test_manifest_records_options(self, trained):
        m = manifest(trained)
        assert m["config"]["epochs"] == 2
        assert m["config"]["optimizer"] == "adam"
        assert len(m["inputs"]) == 3


class TestNonFiniteTrainingOptions:
    """NaN and inf pass a `value <= 0` test; each must exit 2 before
    training, naming the option."""

    def _train(self, workspace, out, *extra):
        return main(["train-policy", "--train", str(workspace / "train.jsonl"),
                     "--valid", str(workspace / "valid.jsonl"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--epochs", "1", "--d-emb", "4", "--d-h", "4",
                     "--max-input-len", "24", "--max-span-len", "5", *extra,
                     "--out", str(out)])

    @pytest.mark.parametrize("flag", ["--clip-norm", "--learning-rate"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_flag_exits_2_naming_the_option(self, workspace, tmp_path, capsys, flag, value):
        assert self._train(workspace, tmp_path / "out", flag, value) == 2
        name = flag[2:].replace("-", "_")
        assert f"error: {name} must be finite and positive, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_config_nan_exits_2_naming_the_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"clip_norm": NaN}')
        assert self._train(workspace, tmp_path / "out", "--config", str(cfg)) == 2
        assert f"config file {cfg}: clip_norm must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()


class TestEvalAndCompare:
    def test_eval_learned_and_baseline_then_compare(self, workspace, trained):
        vocab = str(workspace / "vocab" / "vocab.txt")
        dev = str(workspace / "dev.jsonl")
        learned_out = workspace / "eval_learned"
        base_out = workspace / "eval_random"

        assert main(["eval-policy", "--dev", dev, "--vocab", vocab,
                     "--policy", "learned",
                     "--checkpoint", str(trained / "checkpoint.json"),
                     "--max-input-len", "24", "--max-span-len", "5",
                     "--out", str(learned_out)]) == 0
        assert main(["eval-policy", "--dev", dev, "--vocab", vocab,
                     "--policy", "randomspan", "--max-span-len", "5",
                     "--max-input-len", "24",
                     "--out", str(base_out)]) == 0

        learned = json.loads((learned_out / "report.json").read_text())
        assert learned["policy"] == "learned"
        assert learned["n"] == 12

        cmp_out = workspace / "cmp"
        assert main(["compare",
                     "--reports", str(learned_out / "report.json"),
                     str(base_out / "report.json"),
                     "--out", str(cmp_out)]) == 0
        payload = json.loads((cmp_out / "comparison.json").read_text())
        assert len(payload["policies"]) == 2

    def test_window_beyond_trained_limit_fails(self, workspace, trained, capsys):
        # the checkpoint was trained on 24-token windows; the default is 128
        out = workspace / "eval_too_long"
        code = main(["eval-policy", "--dev", str(workspace / "dev.jsonl"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "learned",
                     "--checkpoint", str(trained / "checkpoint.json"),
                     "--out", str(out)])
        assert code == 2
        assert ("input length 128 exceeds the policy's input limit of 24"
                in capsys.readouterr().err)
        assert not (out / "manifest.json").exists()

    def test_learned_without_checkpoint_is_usage_error(self, workspace):
        code = main(["eval-policy", "--dev", str(workspace / "dev.jsonl"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "learned",
                     "--out", str(workspace / "bad")])
        assert code == 1

    def test_checkpoint_without_learned_is_usage_error(self, workspace, trained, capsys):
        code = main(["eval-policy", "--dev", str(workspace / "dev.jsonl"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "randomspan",
                     "--checkpoint", str(trained / "checkpoint.json"),
                     "--out", str(workspace / "bad_ckpt")])
        assert code == 1
        assert "--checkpoint is only read by --policy learned" in capsys.readouterr().err

    def test_random15_cannot_be_evaluated(self, workspace):
        # random15 masks tokens, not spans: it has no span proposer
        code = main(["eval-policy", "--dev", str(workspace / "dev.jsonl"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "random15", "--out", str(workspace / "bad_r15")])
        assert code == 1

    def test_salient_on_non_decimal_digits(self, workspace, tmp_path):
        # "5²" passes str.isdigit() but int() rejects it; the tagger
        # must read it as a plain token, not crash on it.
        dev = tmp_path / "dev.jsonl"
        dev.write_text(json.dumps({
            "context": "The room is 5² metres wide and was built in May 1946 .",
            "question": "when was it built", "answer": "May 1946"}) + "\n",
            encoding="utf-8")
        out = tmp_path / "eval_salient"
        assert main(["eval-policy", "--dev", str(dev),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "salient", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # proposals in chunk order: the Number "5²", then the Date
        assert report["n"] == 1
        assert (report["em_at_1"], report["em_at_5"]) == (0.0, 1.0)

    def test_compare_single_report_fails(self, workspace):
        # reuse any existing report
        report = workspace / "eval_random" / "report.json"
        code = main(["compare", "--reports", str(report),
                     "--out", str(workspace / "cmp_bad")])
        assert code == 2


class TestMaskCorpus:
    def _mask(self, workspace, out, policy, extra=()):
        return main(["mask-corpus",
                     "--corpus", str(workspace / "corpus.txt"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", policy, "--chunk-len", "16",
                     *extra, "--out", str(out)])

    def test_random15_writes_artifacts(self, workspace):
        out = workspace / "mask_r15"
        assert self._mask(workspace, out, "random15") == 0
        assert (out / "masked.jsonl").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["chunks"] > 0

    def test_learned_policy_masks(self, workspace, trained):
        out = workspace / "mask_learned"
        code = self._mask(workspace, out, "learned",
                          ("--checkpoint", str(trained / "checkpoint.json"),
                           "--max-span-len", "5"))
        assert code == 0
        lines = (out / "masked.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["policy"] == "learned-top1"

    def test_rerun_is_byte_identical(self, workspace):
        a, b = workspace / "det_a", workspace / "det_b"
        assert self._mask(workspace, a, "randomspan") == 0
        assert self._mask(workspace, b, "randomspan") == 0
        assert (a / "masked.jsonl").read_bytes() == (b / "masked.jsonl").read_bytes()

    def test_worker_count_does_not_change_output(self, workspace):
        a, b = workspace / "w1", workspace / "w4"
        assert self._mask(workspace, a, "salient", ("--workers", "1")) == 0
        assert self._mask(workspace, b, "salient", ("--workers", "4")) == 0
        assert (a / "masked.jsonl").read_bytes() == (b / "masked.jsonl").read_bytes()

    def test_salient_on_non_decimal_digits(self, workspace, tmp_path):
        # "5²" passes str.isdigit() but int() rejects it
        corpus = tmp_path / "digits.txt"
        corpus.write_text("The room is 5² metres wide and was built in May 1946 .\n",
                          encoding="utf-8")
        out = tmp_path / "mask_digits"
        assert main(["mask-corpus", "--corpus", str(corpus),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "salient", "--chunk-len", "8",
                     "--out", str(out)]) == 0
        lines = (out / "masked.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2

    def test_chunk_len_beyond_trained_limit_fails(self, workspace, trained):
        out = workspace / "mask_too_long"
        code = self._mask(workspace, out, "learned",
                          ("--checkpoint", str(trained / "checkpoint.json"),
                           "--chunk-len", "64"))
        assert code == 2

    def test_learned_without_checkpoint_is_usage_error(self, workspace):
        assert self._mask(workspace, workspace / "nockpt", "learned") == 1

    @pytest.mark.parametrize("policy", ["random15", "randomspan", "salient"])
    def test_checkpoint_without_learned_is_usage_error(self, workspace, trained, capsys,
                                                       policy):
        out = workspace / f"ckpt_{policy}"
        code = self._mask(workspace, out, policy,
                          ("--checkpoint", str(trained / "checkpoint.json")))
        assert code == 1
        assert "--checkpoint is only read by --policy learned" in capsys.readouterr().err
        assert not (out / "masked.jsonl").exists()

    def test_corpus_files_sharing_a_name_rejected(self, workspace, capsys):
        # doc ids carry only the file name, so these two files would get
        # the same doc ids and the same per-chunk seeds
        paths = []
        for part in ("a", "b"):
            (workspace / part).mkdir(exist_ok=True)
            paths.append(workspace / part / "part.txt")
            paths[-1].write_text("the same words\n", encoding="utf-8")
        out = workspace / "mask_dup"
        code = main(["mask-corpus", "--corpus", *map(str, paths),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "random15", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(paths[0]) in err and str(paths[1]) in err
        assert not (out / "masked.jsonl").exists()

    def test_build_vocab_accepts_files_sharing_a_name(self, tmp_path):
        # vocabulary building never uses doc ids, so nothing can collide
        paths = []
        for part, words in (("a", "alpha beta\n"), ("b", "gamma delta\n")):
            (tmp_path / part).mkdir()
            paths.append(tmp_path / part / "part.txt")
            paths[-1].write_text(words, encoding="utf-8")
        out = tmp_path / "vocab"
        assert main(["build-vocab", "--corpus", *map(str, paths), "--out", str(out)]) == 0
        tokens = (out / "vocab.txt").read_text(encoding="utf-8").split()
        assert {"alpha", "beta", "gamma", "delta"} <= set(tokens)


class TestGradCheckCommand:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "gc"
        code = main(["grad-check", "--seeds", "2", "--out", str(out)])
        assert code == 0
        result = json.loads((out / "gradcheck.json").read_text())
        assert result["pass"] is True

    def test_failed_check_exits_2_after_publishing(self, tmp_path, monkeypatch):
        failed = {"seeds": 1, "max_rel_err": 1.0, "pass": False}
        monkeypatch.setattr(cli, "grad_check_suite", lambda **_: failed)
        out = tmp_path / "gc"
        assert main(["grad-check", "--seeds", "1", "--out", str(out)]) == 2
        assert json.loads((out / "gradcheck.json").read_text()) == failed
        assert "gradcheck.json" in manifest(out)["artifacts"]


class TestConfigHandling:
    def test_config_sets_options(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "chunk_len": 16}))
        out = tmp_path / "out"
        code = main(["mask-corpus",
                     "--corpus", str(workspace / "corpus.txt"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "random15", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        assert manifest(out)["config"]["seed"] == 9
        assert manifest(out)["config"]["chunk_len"] == 16

    def test_flag_beats_config(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        out = tmp_path / "out"
        code = main(["mask-corpus",
                     "--corpus", str(workspace / "corpus.txt"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "random15", "--config", str(cfg),
                     "--seed", "4", "--chunk-len", "16",
                     "--out", str(out)])
        assert code == 0
        assert manifest(out)["config"]["seed"] == 4

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"funny_business": 1}))
        code = main(["mask-corpus",
                     "--corpus", str(workspace / "corpus.txt"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "random15", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("command, keys", [
        ("build-vocab", {"max_size", "min_freq"}),
        ("train-policy", {"epochs", "learning_rate", "batch_size", "optimizer",
                          "max_input_len", "max_span_len", "seed", "d_emb", "d_h",
                          "clip_norm"}),
        ("eval-policy", {"max_span_len", "max_input_len", "seed"}),
        ("mask-corpus", {"mode", "seed", "workers", "chunk_len", "max_span_len", "rate"}),
        ("compare", set()),
        ("grad-check", {"seeds", "max_len"}),
    ])
    def test_config_keys_are_the_commands_flag_options(self, command, keys):
        assert set(cli._DEFAULTS[command]) == keys
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in subparsers.choices[command]._actions}
        assert keys <= dests

    def test_unknown_config_key_named_for_compare(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        code = main(["compare", "--reports", str(tmp_path / "absent.json"),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not valid for compare: seed" in capsys.readouterr().err

    def test_config_nested_past_the_recursion_limit_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["grad-check", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: config file {cfg} is not valid JSON" in capsys.readouterr().err

    def test_non_object_config_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = main(["build-vocab", "--corpus", str(workspace / "corpus.txt"),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_config_value_of_wrong_type_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chunk_len": 2.5}))
        code = main(["mask-corpus",
                     "--corpus", str(workspace / "corpus.txt"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "random15", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "chunk_len must be of type int, got 2.5" in capsys.readouterr().err

    def _range_case(self, workspace, command):
        vocab = str(workspace / "vocab" / "vocab.txt")
        return {
            "train-policy": (["--train", str(workspace / "train.jsonl"),
                              "--valid", str(workspace / "valid.jsonl"), "--vocab", vocab,
                              "--epochs", "1", "--d-emb", "4", "--d-h", "4",
                              "--max-input-len", "24", "--max-span-len", "5"],
                             "seed", -1, "seed must be non-negative, got -1"),
            "mask-corpus": (["--corpus", str(workspace / "corpus.txt"), "--vocab", vocab,
                             "--policy", "random15"],
                            "workers", 0, "workers must be >= 1, got 0"),
            "grad-check": ([], "seeds", 0, "grad check needs seeds >= 1, got 0"),
        }[command]

    @pytest.mark.parametrize("command", ["train-policy", "mask-corpus", "grad-check"])
    def test_config_value_out_of_range_names_the_file(self, workspace, tmp_path, capsys,
                                                      command):
        argv, key, value, message = self._range_case(workspace, command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main([command, *argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: config file {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["train-policy", "mask-corpus", "grad-check"])
    def test_flag_out_of_range_does_not_name_the_config(self, workspace, tmp_path, capsys,
                                                        command):
        argv, key, value, message = self._range_case(workspace, command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        flag = "--" + key.replace("_", "-")
        code = main([command, *argv, flag, str(value), "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err


_POLICIES = ["random15", "randomspan", "salient", "learned"]

# Every option of every command: option string -> (dest, choices,
# required, nargs). Every default is None, so a flag left off never
# hides a config value.
PARSER_OPTIONS = {
    "build-vocab": {
        "--corpus": ("corpus", None, True, "+"),
        "--max-size": ("max_size", None, False, None),
        "--min-freq": ("min_freq", None, False, None),
    },
    "train-policy": {
        "--train": ("train", None, True, None),
        "--valid": ("valid", None, True, None),
        "--vocab": ("vocab", None, True, None),
        "--epochs": ("epochs", None, False, None),
        "--learning-rate": ("learning_rate", None, False, None),
        "--batch-size": ("batch_size", None, False, None),
        "--optimizer": ("optimizer", ["sgd", "adam"], False, None),
        "--max-input-len": ("max_input_len", None, False, None),
        "--max-span-len": ("max_span_len", None, False, None),
        "--seed": ("seed", None, False, None),
        "--d-emb": ("d_emb", None, False, None),
        "--d-h": ("d_h", None, False, None),
        "--clip-norm": ("clip_norm", None, False, None),
    },
    "eval-policy": {
        "--dev": ("dev", None, True, None),
        "--vocab": ("vocab", None, True, None),
        "--policy": ("policy", _POLICIES[1:], True, None),
        "--checkpoint": ("checkpoint", None, False, None),
        "--max-span-len": ("max_span_len", None, False, None),
        "--max-input-len": ("max_input_len", None, False, None),
        "--seed": ("seed", None, False, None),
    },
    "mask-corpus": {
        "--corpus": ("corpus", None, True, "+"),
        "--vocab": ("vocab", None, True, None),
        "--policy": ("policy", _POLICIES, True, None),
        "--checkpoint": ("checkpoint", None, False, None),
        "--mode": ("mode", ["top1", "top5"], False, None),
        "--seed": ("seed", None, False, None),
        "--workers": ("workers", None, False, None),
        "--chunk-len": ("chunk_len", None, False, None),
        "--max-span-len": ("max_span_len", None, False, None),
        "--rate": ("rate", None, False, None),
    },
    "compare": {
        "--reports": ("reports", None, True, "+"),
    },
    "grad-check": {
        "--seeds": ("seeds", None, False, None),
        "--max-len": ("max_len", None, False, None),
    },
}


class TestParser:
    """The parser each command presents, option by option."""

    @staticmethod
    def _parse(argv):
        return cli.build_parser().parse_args(argv + ["--out", "out"])

    @pytest.mark.parametrize("command", list(PARSER_OPTIONS))
    def test_options(self, command):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
        got = {}
        for action in subparsers.choices[command]._actions:
            if action.dest == "help":
                continue
            assert len(action.option_strings) == 1 and action.default is None
            choices = None if action.choices is None else list(action.choices)
            got[action.option_strings[0]] = (action.dest, choices, action.required,
                                             action.nargs)
        assert got == {**PARSER_OPTIONS[command],
                       "--config": ("config", None, False, None),
                       "--out": ("out", None, True, None)}

    def test_numeric_flags_parse_to_their_types(self):
        args = self._parse(["mask-corpus", "--corpus", "c.txt", "--vocab", "v.txt",
                            "--policy", "random15", "--rate", "0.5"])
        assert type(args.rate) is float and args.rate == 0.5
        args = self._parse(["train-policy", "--train", "t", "--valid", "v",
                            "--vocab", "v.txt", "--learning-rate", "3e-3"])
        assert type(args.learning_rate) is float and args.learning_rate == 3e-3
        args = self._parse(["grad-check", "--seeds", "2"])
        assert type(args.seeds) is int and args.seeds == 2

    @pytest.mark.parametrize("argv", [
        ["train-policy", "--train", "t", "--valid", "v", "--vocab", "v.txt",
         "--optimizer", "adagrad"],
        ["mask-corpus", "--corpus", "c.txt", "--vocab", "v.txt", "--policy", "random15",
         "--mode", "top9"],
    ])
    def test_value_outside_choices_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(["grad-check", "--wat", "--out", str(tmp_path)]) == 1

    def test_missing_input_file(self, tmp_path):
        code = main(["build-vocab", "--corpus", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "out")])
        assert code == 2


def _with_bad_byte(path, good_lines):
    """`good_lines` of text (the first two ending in CRLF and a lone CR),
    then a line holding byte 0xFF."""
    breaks = [b"\r\n", b"\r"] + [b"\n"] * len(good_lines)
    body = b"".join(line.encode("utf-8") + brk for line, brk in zip(good_lines, breaks))
    path.write_bytes(body + b"caf\xff au lait\n")
    return path, len(good_lines) + 1


class TestUndecodableInput:
    """A byte sequence that is not UTF-8 exits 2 naming file and line."""

    def _run_and_expect(self, argv, where, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{where[0]}:{where[1]}: not valid UTF-8" in err

    def test_mask_corpus_corpus_line(self, workspace, tmp_path, capsys):
        where = _with_bad_byte(tmp_path / "bad.txt", ["one doc", "two doc", "three"])
        self._run_and_expect(["mask-corpus", "--corpus", str(where[0]),
                              "--vocab", str(workspace / "vocab" / "vocab.txt"),
                              "--policy", "random15", "--out", str(tmp_path / "out")],
                             where, capsys)

    def test_build_vocab_corpus_line(self, tmp_path, capsys):
        where = _with_bad_byte(tmp_path / "bad.txt", ["one doc", "two doc"])
        self._run_and_expect(["build-vocab", "--corpus", str(where[0]),
                              "--out", str(tmp_path / "out")], where, capsys)

    def test_anchor_line(self, workspace, tmp_path, capsys):
        good = (workspace / "train.jsonl").read_text(encoding="utf-8").splitlines()[:3]
        where = _with_bad_byte(tmp_path / "train.jsonl", good)
        self._run_and_expect(["eval-policy", "--dev", str(where[0]),
                              "--vocab", str(workspace / "vocab" / "vocab.txt"),
                              "--policy", "salient", "--out", str(tmp_path / "out")],
                             where, capsys)

    def test_vocab_line(self, workspace, tmp_path, capsys):
        where = _with_bad_byte(tmp_path / "vocab.txt", ["<pad>", "<unk>", "<mask>", "w01"])
        self._run_and_expect(["mask-corpus", "--corpus", str(workspace / "corpus.txt"),
                              "--vocab", str(where[0]),
                              "--policy", "random15", "--out", str(tmp_path / "out")],
                             where, capsys)


class TestBugsAreNotDataErrors:
    def test_internal_value_error_propagates(self, workspace, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "mask_corpus", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["mask-corpus", "--corpus", str(workspace / "corpus.txt"),
                  "--vocab", str(workspace / "vocab" / "vocab.txt"),
                  "--policy", "random15", "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("argv", [
        ["grad-check", "--seeds", "2", "--max-len", "1"],
        ["grad-check", "--seeds", "0"],
        ["train-policy", "--seed", "-1", "--epochs", "1", "--d-emb", "4", "--d-h", "4"],
        ["train-policy", "--optimizer", "sgd", "--learning-rate", "-1"],
        ["mask-corpus", "--policy", "randomspan", "--max-span-len", "0"],
        ["mask-corpus", "--policy", "salient", "--max-span-len", "0"],
        ["eval-policy", "--policy", "randomspan", "--max-span-len", "0"],
        ["compare", "--reports", "{valid}", "{valid}"],
    ])
    def test_bad_options_exit_2(self, workspace, tmp_path, argv):
        inputs = {
            "train-policy": ["--train", "train.jsonl", "--valid", "valid.jsonl",
                             "--vocab", "vocab/vocab.txt"],
            "mask-corpus": ["--corpus", "corpus.txt", "--vocab", "vocab/vocab.txt",
                            "--chunk-len", "8"],
            "eval-policy": ["--dev", "dev.jsonl", "--vocab", "vocab/vocab.txt"],
        }.get(argv[0], [])
        argv = [a.format(valid=workspace / "valid.jsonl") for a in argv]
        argv += [str(workspace / a) if a.endswith((".txt", ".jsonl")) else a for a in inputs]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2


class TestCrashSafeMaskCorpus:
    def _mask(self, workspace, out):
        return main(["mask-corpus", "--corpus", str(workspace / "corpus.txt"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "random15", "--chunk-len", "16", "--out", str(out)])

    @pytest.mark.parametrize("writer", ["write_masked_jsonl", "write_summary"])
    def test_failed_write_leaves_no_manifest(self, workspace, tmp_path, monkeypatch, writer):
        out = tmp_path / "out"
        assert self._mask(workspace, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "manifest.json" in before

        def fails_halfway(path, _payload):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"doc_id": "half')
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, writer, fails_halfway)
        assert self._mask(workspace, out) == 2
        left = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(left) == set(before) - {"manifest.json"}
        # Nothing half-written replaced an artifact of the earlier run.
        assert all(left[name] == before[name] for name in left)


class TestCrashSafeArtifacts:
    """Every other command: an artifact writer failing partway through
    exits 2, leaves no manifest, and leaves the earlier run's artifact
    byte-identical."""

    @pytest.fixture(scope="class")
    def reports(self, workspace):
        paths = []
        for policy in ("randomspan", "salient"):
            out = workspace / f"crash_{policy}"
            assert main(["eval-policy", "--dev", str(workspace / "dev.jsonl"),
                         "--vocab", str(workspace / "vocab" / "vocab.txt"),
                         "--policy", policy, "--max-input-len", "24",
                         "--max-span-len", "5", "--out", str(out)]) == 0
            paths.append(str(out / "report.json"))
        return paths

    @pytest.mark.parametrize("command", ["build-vocab", "train-policy", "eval-policy",
                                         "compare", "grad-check"])
    def test_failed_write_keeps_earlier_artifact(self, workspace, reports, tmp_path,
                                                  monkeypatch, command):
        vocab = str(workspace / "vocab" / "vocab.txt")
        argv, artifact, writer = {
            "build-vocab": (["--corpus", str(workspace / "corpus.txt")],
                            "vocab.txt", (Vocab, "save")),
            "train-policy": (["--train", str(workspace / "train.jsonl"),
                              "--valid", str(workspace / "valid.jsonl"), "--vocab", vocab,
                              "--epochs", "1", "--batch-size", "8", "--max-input-len", "24",
                              "--max-span-len", "5", "--d-emb", "4", "--d-h", "4"],
                             "training_log.jsonl", (cli, "_write_jsonl")),
            "eval-policy": (["--dev", str(workspace / "dev.jsonl"), "--vocab", vocab,
                             "--policy", "randomspan", "--max-input-len", "24",
                             "--max-span-len", "5"],
                            "report.json", (cli, "write_report")),
            "compare": (["--reports", *reports], "comparison.json", (cli, "_write_json")),
            "grad-check": (["--seeds", "1", "--max-len", "3"],
                           "gradcheck.json", (cli, "_write_json")),
        }[command]
        out = tmp_path / "out"
        run = lambda: main([command, *argv, "--out", str(out)])
        assert run() == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"manifest.json", artifact} <= set(before)

        def fails_halfway(*args):
            path = next(a for a in args if isinstance(a, Path))
            path.write_bytes(before[artifact][:len(before[artifact]) // 2])
            raise OSError("No space left on device")

        monkeypatch.setattr(*writer, fails_halfway)
        assert run() == 2
        left = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(left) == set(before) - {"manifest.json"}
        assert left[artifact] == before[artifact]


class TestCheckpointPublishedOnce:
    """The runner renames each artifact into place; the checkpoint writer
    under it must not add a rename of its own."""

    def _train(self, workspace, out):
        return main(["train-policy", "--train", str(workspace / "train.jsonl"),
                     "--valid", str(workspace / "valid.jsonl"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--epochs", "1", "--batch-size", "8", "--max-input-len", "24",
                     "--max-span-len", "5", "--d-emb", "4", "--d-h", "4",
                     "--out", str(out)])

    def test_one_replace_per_artifact(self, workspace, tmp_path, monkeypatch):
        import os

        renames = []
        replace = os.replace

        def logged(src, dst):
            renames.append((Path(src).name, Path(dst).name))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", logged)
        out = tmp_path / "out"
        assert self._train(workspace, out) == 0
        assert sorted(dst for _, dst in renames) == [
            "checkpoint.json", "manifest.json", "training_log.jsonl"]
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == []
        vocab = Vocab.load(workspace / "vocab" / "vocab.txt")
        params, hyper, _ = cli.load_checkpoint(out / "checkpoint.json", vocab)
        assert (params.d_emb, hyper["d_h"]) == (4, 4)

    def test_failed_checkpoint_keeps_earlier_one(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert self._train(workspace, out) == 0
        before = (out / "checkpoint.json").read_bytes()
        write = cli.write_checkpoint

        def fails_halfway(path, *args, **kwargs):
            write(path, *args, **kwargs)
            Path(path).write_bytes(Path(path).read_bytes()[:len(before) // 2])
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "write_checkpoint", fails_halfway)
        assert self._train(workspace, out) == 2
        assert (out / "checkpoint.json").read_bytes() == before
        assert not (out / "manifest.json").exists()
