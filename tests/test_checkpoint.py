"""Checkpoint serialization and vocabulary binding."""

import base64
import json

import numpy as np
import pytest

from maskpolicy.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from maskpolicy.cli import main
from maskpolicy.corpus import Vocab
from maskpolicy.errors import MaskPolicyError, VocabMismatchError
from maskpolicy.policy import PolicyParams, init_policy_params, param_shapes, score_positions


@pytest.fixture
def vocab():
    return Vocab(["<pad>", "<unk>", "<mask>", "a", "b", "c"])


def _entry(values) -> dict:
    """A format-2 parameter entry: base64 of little-endian float64 bytes."""
    array = np.asarray(values, dtype="<f8")
    return {"shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii")}


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


class TestFormat:
    def test_tensors_stored_as_base64_little_endian_float64(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab, {"d_h": 3})
        payload = json.loads(path.read_text())
        assert list(payload) == ["format_version", "vocab_hash", "hyperparameters", "parameters"]
        assert payload["format_version"] == FORMAT_VERSION == 2
        assert list(payload["parameters"]) == [name for name, _ in params.named_parameters()]
        for name, t in params.named_parameters():
            assert payload["parameters"][name] == _entry(t.data)

    def test_edge_values_round_trip_bit_exactly(self, tmp_path, vocab):
        edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                         1e308, -1e308, np.finfo(np.float64).max, 1.0 / 3.0])
        arrays = {name: np.resize(np.roll(edge, k), shape)
                  for k, (name, shape) in enumerate(param_shapes(len(vocab), 4, 3).items())}
        arrays["head.start.b"] = np.array(-0.0)
        arrays["head.end.b"] = np.array(5e-324)
        params = PolicyParams.from_arrays(arrays)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, vocab)
        loaded, _, _ = load_checkpoint(path, vocab)
        for name, t in loaded.named_parameters():
            assert t.data.shape == arrays[name].shape
            assert t.data.dtype == np.float64 and t.data.flags.writeable
            assert t.data.tobytes() == arrays[name].tobytes(), name

    def test_two_saves_are_byte_identical(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=8)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, params, vocab, {"d_emb": 4, "d_h": 3})
        save_checkpoint(b, params.clone(), vocab, {"d_emb": 4, "d_h": 3})
        assert a.read_bytes() == b.read_bytes()

    def test_failed_save_keeps_earlier_checkpoint_and_leaves_no_temp_file(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=1)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, params, vocab)
        before = path.read_bytes()

        class FailsMidStream:
            """Yields two tensors, then fails as a full disk would."""
            def named_parameters(self):
                yield from list(init_policy_params(len(vocab), 4, 3, seed=2).named_parameters())[:2]
                raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(path, FailsMidStream(), vocab)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]

    def test_failed_first_save_leaves_nothing(self, tmp_path, vocab):
        class Fails:
            def named_parameters(self):
                raise KeyboardInterrupt
                yield

        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(tmp_path / "checkpoint.json", Fails(), vocab)
        assert list(tmp_path.iterdir()) == []


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
        payload["parameters"]["rogue"] = _entry([0.0])
        path.write_text(json.dumps(payload))
        with pytest.raises(MaskPolicyError) as exc:
            load_checkpoint(path)
        assert "rogue" in str(exc.value)

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
        payload["parameters"][name] = _entry(np.full(size, 0.5) if size else 0.5)
        return payload
    return edit


def _edit_entry(name, **fields):
    def edit(payload):
        payload["parameters"][name].update(fields)
        return payload
    return edit


def _as_version_1(payload):
    """The float-list encoding that format version 1 used."""
    payload["format_version"] = 1
    for entry in payload["parameters"].values():
        raw = base64.b64decode(entry["data"])
        entry["data"] = np.frombuffer(raw, dtype="<f8").tolist()
    return payload


def _with_stray_character(name):
    """Right byte count once the stray character is dropped, as a lenient
    decoder would."""
    def edit(payload):
        data = payload["parameters"][name]["data"]
        payload["parameters"][name]["data"] = data[:8] + "*" + data[8:]
        return payload
    return edit


def _with_nan(name):
    def edit(payload):
        entry = payload["parameters"][name]
        values = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        values[3] = np.nan
        entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")
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
        (_as_version_1, "format_version"),
        (_with_stray_character("lstm1.fwd.b"), "lstm1.fwd.b"),
        (_edit_entry("lstm1.bwd.W", data=base64.b64encode(bytes(8)).decode()), "lstm1.bwd.W"),
        (_edit_entry("head.end.w", shape=[6, 1]), "head.end.w"),
        (_edit_entry("embedding", shape=[-6, -4]), "embedding"),
        (_edit_entry("embedding", shape=[6.0, 4.0]), "embedding"),
        (_edit_entry("head.end.b", data=[0.5]), "head.end.b"),
        (_with_nan("lstm2.fwd.W"), "lstm2.fwd.W"),
    ], ids=["no-vocab-hash", "no-data", "top-level-list", "head-w-size", "head-b-size",
            "version-1", "bad-base64", "byte-count", "shape-mismatch", "negative-shape", "float-shape",
            "data-list", "non-finite"])
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
