"""Checkpoint serialization and vocabulary binding."""

import json

import numpy as np
import pytest

from maskpolicy.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from maskpolicy.cli import main
from maskpolicy.corpus import Vocab
from maskpolicy.errors import MaskPolicyError, VocabMismatchError
from maskpolicy.policy import init_policy_params, score_positions


@pytest.fixture
def vocab():
    return Vocab(["<pad>", "<unk>", "<mask>", "a", "b", "c"])


class TestRoundTrip:
    def test_parameters_survive_exactly(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=9)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab, {"d_emb": 4, "d_h": 3})
        loaded, hyper, vocab_hash = load_checkpoint(path, vocab)
        for (name_a, a), (name_b, b) in zip(
            params.named_parameters(), loaded.named_parameters()
        ):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)
        assert hyper == {"d_emb": 4, "d_h": 3}
        assert vocab_hash == vocab.content_hash()

    def test_loaded_params_score_identically(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab)
        loaded, _, _ = load_checkpoint(path)
        ids = [3, 4, 5, 3]
        a_start, a_end = score_positions(params, ids)
        b_start, b_end = score_positions(loaded, ids)
        assert np.array_equal(a_start, b_start)
        assert np.array_equal(a_end, b_end)

    def test_loaded_params_accept_gradients(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab)
        loaded, _, _ = load_checkpoint(path)
        assert all(p.requires_grad for _, p in loaded.named_parameters())


class TestValidation:
    def test_wrong_vocab_rejected(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab)
        other = Vocab(["<pad>", "<unk>", "<mask>", "x"])
        with pytest.raises(VocabMismatchError):
            load_checkpoint(path, other)

    def test_no_vocab_skips_hash_check(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab)
        load_checkpoint(path)  # must not raise

    def test_unknown_format_version(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab)
        payload = json.loads(path.read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(MaskPolicyError):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab)
        payload = json.loads(path.read_text())
        del payload["parameters"]["head.end.w"]
        path.write_text(json.dumps(payload))
        with pytest.raises(MaskPolicyError) as exc:
            load_checkpoint(path)
        assert "head.end.w" in str(exc.value)

    def test_extra_parameter_rejected(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab)
        payload = json.loads(path.read_text())
        payload["parameters"]["rogue"] = {"shape": [1], "data": [0.0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(MaskPolicyError):
            load_checkpoint(path)

    def test_legacy_embedding_source_field_still_loads(self, tmp_path, vocab):
        # Checkpoints written before the field was dropped carry it; it is ignored.
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab, {"d_h": 3})
        payload = json.loads(path.read_text())
        assert "embedding_source" not in payload
        payload["embedding_source"] = "random"
        path.write_text(json.dumps(payload))
        loaded, hyper, vocab_hash = load_checkpoint(path, vocab)
        assert [(n, t.data.tolist()) for n, t in loaded.named_parameters()] == \
            [(n, t.data.tolist()) for n, t in params.named_parameters()]
        assert hyper == {"d_h": 3}
        assert vocab_hash == vocab.content_hash()


def _without_vocab_hash(payload):
    del payload["vocab_hash"]
    return payload


def _without_data(payload):
    del payload["parameters"]["lstm2.bwd.W"]["data"]
    return payload


def _as_list(payload):
    return [payload]


def _resized(name, size):
    def edit(payload):
        payload["parameters"][name] = {"shape": [size] if size else [],
                                       "data": [0.5] * max(size, 1)}
        return payload
    return edit


class TestMalformedCheckpointExitCode:
    """Each malformed checkpoint exits 2 with an error naming what is wrong,
    never a traceback."""

    @pytest.mark.parametrize("edit, named", [
        (_without_vocab_hash, "vocab_hash"),
        (_without_data, "lstm2.bwd.W"),
        (_as_list, "JSON object"),
        (_resized("head.start.w", 5), "head.start.w"),
        (_resized("head.start.b", 2), "head.start.b"),
    ], ids=["no-vocab-hash", "no-data", "top-level-list", "head-w-size", "head-b-size"])
    def test_mask_corpus_exits_2(self, tmp_path, vocab, capsys, edit, named):
        vocab.save(tmp_path / "vocab.txt")
        (tmp_path / "corpus.txt").write_text("a b c a b\nc c b a\n", encoding="utf-8")
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_policy_params(len(vocab), d_emb=4, d_h=3), vocab)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        code = main(["mask-corpus", "--corpus", str(tmp_path / "corpus.txt"),
                     "--vocab", str(tmp_path / "vocab.txt"), "--policy", "learned",
                     "--checkpoint", str(path), "--chunk-len", "4",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out" / "masked.jsonl").exists()
