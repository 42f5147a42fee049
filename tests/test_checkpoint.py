"""Checkpoint serialization and vocabulary binding."""

import base64
import hashlib
import json

import numpy as np
import pytest

from maskpolicy import checkpoint
from maskpolicy.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from maskpolicy.cli import main
from maskpolicy.corpus import Vocab
from maskpolicy.errors import MaskPolicyError, VocabMismatchError
from maskpolicy.policy import PolicyParams, init_policy_params, param_shapes, score_positions


@pytest.fixture
def vocab():
    return Vocab(["<pad>", "<unk>", "<mask>", "a", "b", "c"])


def _split(data: bytes) -> tuple[dict, bytes]:
    """A format-3 file's header object and the tensor bytes after it."""
    n = int.from_bytes(data[:8], "little")
    return json.loads(data[8:8 + n]), data[8 + n:]


def _join(header, body: bytes) -> bytes:
    """The file holding `header`, padded with spaces to a multiple of 8,
    and then `body`."""
    raw = json.dumps(header).encode("utf-8")
    raw += b" " * (-len(raw) % 8)
    return len(raw).to_bytes(8, "little") + raw + body


def _arrays(header: dict, body: bytes) -> dict:
    """Every tensor of the file, in header order, read off its offsets."""
    return {name: np.frombuffer(body[slice(*entry["data_offsets"])], dtype="<f8")
            .reshape(entry["shape"])
            for name, entry in header.items() if name != "__metadata__"}


def _packed(metadata: dict, arrays: dict) -> bytes:
    """A well-formed file holding `arrays` in order, with contiguous offsets."""
    header, body = {"__metadata__": metadata}, b""
    for name, array in arrays.items():
        raw = np.asarray(array, dtype="<f8").tobytes()
        header[name] = {"dtype": "F64", "shape": list(np.shape(array)),
                        "data_offsets": [len(body), len(body) + len(raw)]}
        body += raw
    return _join(header, body)


class TestRoundTrip:
    def test_parameters_survive_exactly(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=9)
        path = tmp_path / "ckpt.safetensors"
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
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        loaded, _, _ = load_checkpoint(path)
        ids = [3, 4, 5, 3]
        a_start, a_end = score_positions(params, ids)
        b_start, b_end = score_positions(loaded, ids)
        assert np.array_equal(a_start, b_start)
        assert np.array_equal(a_end, b_end)

    def test_loaded_params_accept_gradients(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=0)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        loaded, _, _ = load_checkpoint(path)
        assert all(p.requires_grad for _, p in loaded.named_parameters())


class TestFormat:
    def test_tensors_stored_as_raw_little_endian_float64(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=4)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab, {"d_h": 3, "optimizer": "adam"})
        data = path.read_bytes()
        n = int.from_bytes(data[:8], "little")
        raw = data[8:8 + n]
        assert n % 8 == 0 and len(raw) - len(raw.rstrip(b" ")) < 8
        header = json.loads(raw)
        names = list(param_shapes(len(vocab), 4, 3))
        assert list(header) == ["__metadata__", *names]
        assert header["__metadata__"] == {
            "format_version": str(FORMAT_VERSION), "vocab_hash": vocab.content_hash(),
            "hyperparameters": json.dumps({"d_h": 3, "optimizer": "adam"})}
        assert FORMAT_VERSION == 4
        body, end = data[8 + n:], 0
        for name, t in params.named_parameters():
            raw_tensor = t.data.astype("<f8").tobytes()
            assert header[name] == {"dtype": "F64", "shape": list(t.data.shape),
                                    "data_offsets": [end, end + len(raw_tensor)]}
            assert body[end:end + len(raw_tensor)] == raw_tensor, name
            end += len(raw_tensor)
        assert end == len(body)

    def test_edge_values_round_trip_bit_exactly(self, tmp_path, vocab):
        edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                         1e308, -1e308, np.finfo(np.float64).max, 1.0 / 3.0])
        arrays = {name: np.resize(np.roll(edge, k), shape)
                  for k, (name, shape) in enumerate(param_shapes(len(vocab), 4, 3).items())}
        arrays["head.start.w"] = np.full(6, -0.0)
        arrays["head.end.w"] = np.full(6, 5e-324)
        params = PolicyParams.from_arrays(arrays)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        loaded, _, _ = load_checkpoint(path, vocab)
        for name, t in loaded.named_parameters():
            assert t.data.shape == arrays[name].shape
            assert t.data.dtype == np.float64 and t.data.flags.writeable
            assert t.data.flags.c_contiguous and t.data.flags.owndata
            assert t.data.tobytes() == arrays[name].tobytes(), name

    def test_two_saves_are_byte_identical(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=8)
        a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
        save_checkpoint(a, params, vocab, {"d_emb": 4, "d_h": 3})
        save_checkpoint(b, params.clone(), vocab, {"d_emb": 4, "d_h": 3})
        assert a.read_bytes() == b.read_bytes()

    def test_failed_save_keeps_earlier_checkpoint_and_leaves_no_temp_file(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3, seed=1)
        path = tmp_path / "checkpoint.safetensors"
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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.safetensors"]

    def test_failed_first_save_leaves_nothing(self, tmp_path, vocab):
        class Fails:
            def named_parameters(self):
                raise KeyboardInterrupt
                yield

        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(tmp_path / "checkpoint.safetensors", Fails(), vocab)
        assert list(tmp_path.iterdir()) == []


class TestBenchmarkSizedPolicy:
    """A d = 128 policy over a 10k vocabulary, as the benchmark builds it."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        vocab = Vocab(["<pad>", "<unk>", "<mask>"] + [f"w{i}" for i in range(9997)])
        params = init_policy_params(len(vocab), 128, 128, seed=1001)
        path = tmp_path_factory.mktemp("big") / "checkpoint.safetensors"
        save_checkpoint(path, params, vocab, {"max_input_len": 128, "d_emb": 128, "d_h": 128})
        return vocab, params, path

    @staticmethod
    def _digests(params) -> dict:
        return {name: hashlib.sha256(t.data.tobytes()).hexdigest()
                for name, t in params.named_parameters()}

    def test_tensor_digests_survive_save_and_load(self, saved):
        vocab, params, path = saved
        loaded, hyper, _ = load_checkpoint(path, vocab)
        assert self._digests(loaded) == self._digests(params)
        assert hyper == {"max_input_len": 128, "d_emb": 128, "d_h": 128}

    def test_load_peaks_near_the_tensor_bytes(self, saved, traced_peak):
        vocab, params, path = saved
        vocab.content_hash()
        tensor_bytes = sum(t.data.nbytes for _, t in params.named_parameters())
        loaded, peak = traced_peak(lambda: load_checkpoint(path, vocab))
        assert loaded is not None
        assert peak <= 1.2 * tensor_bytes, (peak, tensor_bytes)

    def test_save_holds_no_copy_of_the_file(self, saved, tmp_path, traced_peak):
        vocab, params, path = saved
        vocab.content_hash()
        _, peak = traced_peak(lambda: save_checkpoint(
            tmp_path / "again.safetensors", params, vocab,
            {"max_input_len": 128, "d_emb": 128, "d_h": 128}))
        assert (tmp_path / "again.safetensors").read_bytes() == path.read_bytes()
        assert peak < 0.05 * path.stat().st_size, peak


class TestValidation:
    def test_wrong_vocab_rejected(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        other = Vocab(["<pad>", "<unk>", "<mask>", "x"])
        with pytest.raises(VocabMismatchError):
            load_checkpoint(path, other)

    def test_vocab_checked_before_tensor_bytes(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        header, _ = _split(path.read_bytes())
        path.write_bytes(_join(header, b""))
        other = Vocab(["<pad>", "<unk>", "<mask>", "x"])
        with pytest.raises(VocabMismatchError, match=str(path)):
            load_checkpoint(path, other)
        with pytest.raises(MaskPolicyError, match="past the end"):
            load_checkpoint(path, vocab)

    def test_embedding_shorter_than_the_vocab_refused_before_tensor_bytes(
            self, tmp_path, vocab, monkeypatch):
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, init_policy_params(3, d_emb=4, d_h=3), vocab)
        assert load_checkpoint(path)[0].vocab_size == 3  # no vocabulary to compare with
        monkeypatch.setattr(checkpoint, "_read_array", None)  # a tensor read would fail
        with pytest.raises(MaskPolicyError) as exc:
            load_checkpoint(path, vocab)
        assert str(exc.value) == (f"checkpoint {path}: parameter 'embedding' has 3 rows "
                                  f"for 6 vocabulary tokens")

    def test_no_vocab_skips_hash_check(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        load_checkpoint(path)  # must not raise

    def test_unknown_format_version(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        header, body = _split(path.read_bytes())
        header["__metadata__"]["format_version"] = str(FORMAT_VERSION + 1)
        path.write_bytes(_join(header, body))
        with pytest.raises(MaskPolicyError, match="format_version"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        header, body = _split(path.read_bytes())
        arrays = _arrays(header, body)
        del arrays["head.end.w"]
        path.write_bytes(_packed(header["__metadata__"], arrays))
        with pytest.raises(MaskPolicyError) as exc:
            load_checkpoint(path)
        assert "head.end.w" in str(exc.value)

    def test_extra_parameter_rejected(self, tmp_path, vocab):
        params = init_policy_params(len(vocab), d_emb=4, d_h=3)
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, params, vocab)
        header, body = _split(path.read_bytes())
        path.write_bytes(_packed(header["__metadata__"],
                                 {**_arrays(header, body), "rogue": np.zeros(1)}))
        with pytest.raises(MaskPolicyError) as exc:
            load_checkpoint(path)
        assert "rogue" in str(exc.value)


def _edit_header(change):
    """An edit that applies `change` to the parsed header in place and
    keeps the tensor bytes as they are."""
    def edit(data):
        header, body = _split(data)
        change(header)
        return _join(header, body)
    return edit


def _edit_arrays(change):
    """An edit that applies `change` to the tensors in place and lays the
    file out again, with offsets to match."""
    def edit(data):
        header, body = _split(data)
        arrays = dict(_arrays(header, body))
        change(arrays)
        return _packed(header["__metadata__"], arrays)
    return edit


def _edit_entry(name, **fields):
    return _edit_header(lambda header: header[name].update(fields))


def _resized(name, size):
    def change(arrays):
        arrays[name] = np.full(size, 0.5) if size else np.array(0.5)
    return _edit_arrays(change)


def _one_value_for(name):
    """`name` keeps its shape but holds the bytes of one value."""
    def edit(data):
        header, body = _split(data)
        shape = header[name]["shape"]
        header, body = _split(_packed(header["__metadata__"],
                                      {**_arrays(header, body), name: np.zeros(1)}))
        header[name]["shape"] = shape
        return _join(header, body)
    return edit


def _with_nan(name):
    def change(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name].flat[3] = np.nan
    return _edit_arrays(change)


def _shifted(name, by):
    """`name`'s data moved `by` bytes, a gap when positive and an overlap
    when negative, and every later tensor with it."""
    def edit(data):
        header, body = _split(data)
        names = [n for n in header if n != "__metadata__"]
        at = header[name]["data_offsets"][0]
        for later in names[names.index(name):]:
            header[later]["data_offsets"] = [o + by for o in header[later]["data_offsets"]]
        return _join(header, body[:at] + bytes(by) + body[at:] if by > 0 else body)
    return edit


def _swapped_offsets(a, b):
    def change(header):
        header[a]["data_offsets"], header[b]["data_offsets"] = (
            header[b]["data_offsets"], header[a]["data_offsets"])
    return _edit_header(change)


def _as_json(version):
    """The same checkpoint as a JSON file of format version 1 (float
    lists) or 2 (base64 of the tensor bytes), as they were written."""
    def edit(data):
        header, body = _split(data)
        metadata = header["__metadata__"]
        encode = ((lambda a: a.ravel().tolist()) if version == 1 else
                  (lambda a: base64.b64encode(a.tobytes()).decode("ascii")))
        return json.dumps({
            "format_version": version, "vocab_hash": metadata["vocab_hash"],
            "hyperparameters": json.loads(metadata["hyperparameters"]),
            "parameters": {name: {"shape": list(a.shape), "data": encode(a)}
                           for name, a in _arrays(header, body).items()},
        }).encode("utf-8")
    return edit


def _sized(vocab_size, d_emb, d_h):
    """The file laid out again with zero-valued tensors of these sizes."""
    def change(arrays):
        arrays.clear()
        arrays.update((name, np.zeros(shape))
                      for name, shape in param_shapes(vocab_size, d_emb, d_h).items())
    return _edit_arrays(change)


# An integer of more digits than Python converts from a string.
_LONG_INT = b"1" * 4301


def _raw_header(change):
    """An edit of the header's bytes, with the size prefix set to match."""
    def edit(data):
        n = int.from_bytes(data[:8], "little")
        raw = change(data[8:8 + n])
        return len(raw).to_bytes(8, "little") + raw + data[8 + n:]
    return edit


class TestMalformedCheckpointExitCode:
    """Each malformed checkpoint exits 2 with an error naming the file and
    what is wrong, never a traceback, under both commands that load one."""

    _CASES = pytest.mark.parametrize("edit, named", [
        (_edit_header(lambda h: h["__metadata__"].pop("vocab_hash")), "vocab_hash"),
        (_edit_header(lambda h: h["lstm2.bwd.W"].pop("data_offsets")), "lstm2.bwd.W"),
        (_edit_header(lambda h: h.update({"__metadata__": [h["__metadata__"]]})), "__metadata__"),
        (_raw_header(lambda raw: b"[" + raw.rstrip() + b"]"), "JSON object"),
        (_resized("head.start.w", 5), "head.start.w"),
        # A head bias, which format-3 files carried, is no parameter now.
        (_resized("head.start.b", 2), "head.start.b"),
        (_resized("head.end.w", 0), "head.end.w"),
        (_as_json(1), "no longer load"),
        (_as_json(2), "no longer load"),
        (_edit_header(lambda h: h["__metadata__"].update(format_version="2")), "format_version"),
        (_edit_header(lambda h: h["__metadata__"].update(format_version="3")),
         "unsupported checkpoint format_version: '3'"),
        (_edit_header(lambda h: h["__metadata__"].update(format_version=4)), "format_version"),
        (_edit_entry("lstm1.fwd.b", dtype="f64"), "lstm1.fwd.b"),
        (_edit_entry("lstm1.fwd.W", dtype="F32"), "F32"),
        (_one_value_for("lstm1.bwd.W"), "lstm1.bwd.W"),
        (_edit_entry("head.end.w", shape=[6, 1]), "head.end.w"),
        (_edit_entry("embedding", shape=[-6, -4]), "embedding"),
        (_edit_entry("embedding", shape=[6.0, 4.0]), "embedding"),
        (_edit_entry("head.end.w", data_offsets=[0.5]), "head.end.w"),
        (_with_nan("lstm2.fwd.W"), "lstm2.fwd.W"),
        (lambda data: len(data).to_bytes(8, "little") + data[8:], "header size"),
        (lambda data: data[:5], "too short"),
        (_raw_header(lambda raw: raw.replace(b"embedding", b"embedd\xffng")), "UTF-8"),
        (_raw_header(lambda raw: raw[1:]), "not valid JSON"),
        (_raw_header(lambda raw: raw.replace(b'"data_offsets": [0,',
                                             b'"data_offsets": [' + _LONG_INT + b",", 1)),
         "header is not valid JSON: Exceeds the limit"),
        (_edit_header(lambda h: h["__metadata__"].update(
            hyperparameters='{"seed": %s}' % _LONG_INT.decode())),
         "metadata field 'hyperparameters' is not valid JSON: Exceeds the limit"),
        (_sized(6, 4, 0), "policy sizes must be >= 1, got vocab_size=6, d_emb=4, d_h=0"),
        (_sized(6, 0, 3), "policy sizes must be >= 1, got vocab_size=6, d_emb=0, d_h=3"),
        (_sized(3, 4, 3), "parameter 'embedding' has 3 rows for 6 vocabulary tokens"),
        (_swapped_offsets("lstm1.fwd.W", "lstm1.fwd.b"), "lstm1.fwd.W"),
        (_shifted("lstm2.fwd.W", -8), "lstm2.fwd.W"),
        (_shifted("lstm2.fwd.W", 8), "lstm2.fwd.W"),
        (lambda data: data[:-8], "head.end.w"),
        (lambda data: data + bytes(8), "trailing"),
    ], ids=["no-vocab-hash", "no-data", "metadata-list", "top-level-list", "head-w-size",
            "head-b-size", "head-w-scalar", "version-1", "format-2", "format-version",
            "format-3", "metadata-not-string", "lenient-dtype", "dtype-f32", "byte-count",
            "shape-mismatch", "negative-shape", "float-shape", "data-list", "non-finite",
            "size-past-end", "no-size", "header-not-utf8", "header-not-json",
            "header-long-int", "hyperparameters-long-int", "zero-d-h", "zero-d-emb",
            "embedding-short",
            "offsets-out-of-order", "offsets-overlap", "offsets-gap", "offsets-past-end",
            "trailing-bytes"])

    @staticmethod
    def _refused(tmp_path, vocab, capsys, edit, named, command, *args):
        vocab.save(tmp_path / "vocab.txt")
        path = tmp_path / "ckpt.safetensors"
        save_checkpoint(path, init_policy_params(len(vocab), d_emb=4, d_h=3), vocab)
        path.write_bytes(edit(path.read_bytes()))
        code = main([command, *args, "--vocab", str(tmp_path / "vocab.txt"),
                     "--policy", "learned", "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        # The refusal is all there is: no command reads its other inputs (for
        # eval-policy, the dev set and its "dev:" count) before the checkpoint.
        [refusal] = err.splitlines()
        assert refusal.startswith(f"error: checkpoint {path}: ") and named in refusal, err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @_CASES
    def test_mask_corpus_exits_2(self, tmp_path, vocab, capsys, edit, named):
        (tmp_path / "corpus.txt").write_text("a b c a b\nc c b a\n", encoding="utf-8")
        self._refused(tmp_path, vocab, capsys, edit, named, "mask-corpus",
                      "--corpus", str(tmp_path / "corpus.txt"), "--chunk-len", "4")
        assert not (tmp_path / "out" / "masked.jsonl").exists()

    @_CASES
    def test_eval_policy_exits_2(self, tmp_path, vocab, capsys, edit, named):
        (tmp_path / "dev.jsonl").write_text(
            json.dumps({"context": "a b c a", "question": "b?", "answer": "b c"}) + "\n",
            encoding="utf-8")
        self._refused(tmp_path, vocab, capsys, edit, named, "eval-policy",
                      "--dev", str(tmp_path / "dev.jsonl"))
        assert not (tmp_path / "out" / "report.json").exists()
