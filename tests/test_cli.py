"""End-to-end command line runs against a synthetic workspace."""

import json

import numpy as np
import pytest

from maskpolicy import cli
from maskpolicy.cli import main

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

    def test_learned_without_checkpoint_is_usage_error(self, workspace):
        code = main(["eval-policy", "--dev", str(workspace / "dev.jsonl"),
                     "--vocab", str(workspace / "vocab" / "vocab.txt"),
                     "--policy", "learned",
                     "--out", str(workspace / "bad")])
        assert code == 1

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

    def test_non_object_config_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code = main(["build-vocab", "--corpus", str(workspace / "corpus.txt"),
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2


class TestExitCodes:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(["grad-check", "--wat", "--out", str(tmp_path)]) == 1

    def test_missing_input_file(self, tmp_path):
        code = main(["build-vocab", "--corpus", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
