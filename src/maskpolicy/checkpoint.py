"""Raw-bytes checkpoints for trained policies.

A checkpoint (format version 4) follows the safetensors layout
(https://github.com/huggingface/safetensors): an 8-byte little-endian
header size N, then N bytes of JSON header padded with spaces to a
multiple of 8, then every tensor's little-endian float64 bytes in C
order, back to back. The header maps each tensor name, in param_shapes
order, to `{"dtype": "F64", "shape": [...], "data_offsets": [begin,
end]}`, offsets counted from the first byte after the header. Its
`"__metadata__"` entry holds only strings: `format_version` ("4"), the
`vocab_hash` of the vocabulary the policy was trained against, and the
`hyperparameters` as a JSON string. The bytes are written and read as
they are, so a round trip is bit-exact. `train-policy` names the file
`checkpoint.safetensors`; reading it with the `safetensors` package
itself is unverified, as that package is not a dependency. JSON
checkpoints (format versions 1 and 2) no longer load, nor do format-3
files, which also held a scalar bias per head (see README.md to carry
one over).

write_checkpoint writes the header and then each tensor straight from
its array, so a save holds no copy of the file. save_checkpoint writes
through it into a temporary file beside the target and renames that
into place only once it is complete, so a failed save leaves any
earlier checkpoint as it was. A caller that already publishes its
outputs atomically (the command line runner) uses write_checkpoint, so
the checkpoint is renamed once.

load_checkpoint parses the header with `corpus.parse_json_object` and,
given a vocabulary, verifies its hash and that the embedding has a row
for each of its tokens before it reads any tensor bytes, so a policy
is never deployed over ids it was not trained on. It checks that the
header fits in the file, that every tensor is F64 with a well-formed
shape and a byte count to match, and that the offsets run contiguously
from 0 to the end of the file. It then reads each tensor into a fresh
array of its own, checks that every value is finite, and checks the
names and shapes, none of size 0, against the model's parameter table.
A malformed checkpoint fails at load time with a MaskPolicyError
naming the file and the bad field or parameter.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .corpus import Vocab, parse_json_object
from .errors import MaskPolicyError, VocabMismatchError
from .policy import PolicyParams

FORMAT_VERSION = 4

_DTYPE = np.dtype("<f8")
_DTYPE_NAME = "F64"
_SIZE_BYTES = 8
_METADATA = "__metadata__"


def save_checkpoint(path, params: PolicyParams, vocab: Vocab,
                    hyperparameters: dict | None = None) -> None:
    """Write the checkpoint to `path` atomically."""
    with atomic_output(path) as tmp:
        write_checkpoint(tmp, params, vocab, hyperparameters)


def write_checkpoint(path, params: PolicyParams, vocab: Vocab,
                     hyperparameters: dict | None = None) -> None:
    """Stream the checkpoint straight into `path`; a failure partway
    leaves a partial file there."""
    tensors = list(params.named_parameters())
    header: dict = {_METADATA: {"format_version": str(FORMAT_VERSION),
                                "vocab_hash": vocab.content_hash(),
                                "hyperparameters": json.dumps(dict(hyperparameters or {}))}}
    end = 0
    for name, t in tensors:
        begin, end = end, end + t.data.size * _DTYPE.itemsize
        header[name] = {"dtype": _DTYPE_NAME, "shape": list(t.data.shape),
                        "data_offsets": [begin, end]}
    raw = json.dumps(header).encode("utf-8")
    raw += b" " * (-len(raw) % 8)
    with open(path, "wb") as fh:
        fh.write(len(raw).to_bytes(_SIZE_BYTES, "little") + raw)
        for _, t in tensors:
            # A no-op for the usual C-contiguous float64 array on a
            # little-endian host; otherwise one tensor's copy at a time.
            fh.write(memoryview(np.ascontiguousarray(t.data, dtype=_DTYPE)).cast("B"))


@contextlib.contextmanager
def atomic_output(path):
    """Yields a temporary path beside `path` to write to; renames it onto
    `path` once the block completes, and removes it if the block raises,
    so `path` is only ever absent, as it was, or complete."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(fh, size: int) -> dict:
    """The header object of a file of `size` bytes; leaves `fh` at the
    first tensor byte."""
    prefix = fh.read(_SIZE_BYTES)
    n = int.from_bytes(prefix, "little")
    if len(prefix) < _SIZE_BYTES or n > size - _SIZE_BYTES:
        if prefix.startswith(b"{"):
            raise MaskPolicyError("holds JSON: JSON checkpoints (format versions 1 and 2) "
                                  "no longer load")
        if len(prefix) < _SIZE_BYTES:
            raise MaskPolicyError(f"{size} bytes is too short for the 8-byte header size")
        raise MaskPolicyError(f"header size {n} runs past the end of the file "
                              f"({size} bytes)")
    try:
        text = fh.read(n).decode("utf-8")
    except UnicodeDecodeError as e:
        raise MaskPolicyError(f"header is not UTF-8: {e}") from None
    return parse_json_object(text, "header")


def _metadata(header: dict) -> tuple[str, dict]:
    """(vocab_hash, hyperparameters) from the header's metadata, which
    it removes from `header`."""
    metadata = header.pop(_METADATA, None)
    if not isinstance(metadata, dict):
        raise MaskPolicyError(f"header field {_METADATA!r} is missing or not an object")
    for key, value in metadata.items():
        if not isinstance(value, str):
            raise MaskPolicyError(f"metadata field {key!r} is not a string: {value!r}")
    version = metadata.get("format_version")
    if version != str(FORMAT_VERSION):
        raise MaskPolicyError(f"unsupported checkpoint format_version: {version!r}")
    if "vocab_hash" not in metadata:
        raise MaskPolicyError("metadata field 'vocab_hash' is missing")
    return metadata["vocab_hash"], parse_json_object(
        metadata.get("hyperparameters", "{}"), "metadata field 'hyperparameters'")


def _layout(header: dict, data_size: int) -> list[tuple[str, list[int]]]:
    """(name, shape) of every tensor in header order, once each entry is
    F64 with a well-formed shape, and the offsets cover the `data_size`
    bytes after the header contiguously, each with the byte count its
    shape needs."""
    layout, end = [], 0
    for name, entry in header.items():
        if not isinstance(entry, dict) or not {"dtype", "shape", "data_offsets"} <= entry.keys():
            raise MaskPolicyError(
                f"checkpoint parameter {name!r} needs 'dtype', 'shape' and 'data_offsets'")
        dtype, shape, offsets = entry["dtype"], entry["shape"], entry["data_offsets"]
        if dtype != _DTYPE_NAME:
            raise MaskPolicyError(
                f"checkpoint parameter {name!r} has dtype {dtype!r}, expected {_DTYPE_NAME!r}")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise MaskPolicyError(f"checkpoint parameter {name!r} has a malformed shape: {shape!r}")
        if not (isinstance(offsets, list) and len(offsets) == 2
                and all(type(n) is int for n in offsets)):
            raise MaskPolicyError(
                f"checkpoint parameter {name!r} has malformed data_offsets: {offsets!r}")
        begin, stop = offsets
        if begin != end:
            raise MaskPolicyError(
                f"checkpoint parameter {name!r} data begins at byte {begin}, expected {end}: "
                f"the offsets must run contiguously from 0 in header order")
        if stop > data_size:
            raise MaskPolicyError(f"checkpoint parameter {name!r} data ends at byte {stop}, "
                                  f"past the end of the file's {data_size} data bytes")
        expected = math.prod(shape) * _DTYPE.itemsize
        if stop - begin != expected:
            raise MaskPolicyError(f"checkpoint parameter {name!r} holds {stop - begin} bytes, "
                                  f"expected {expected} for shape {tuple(shape)}")
        layout.append((name, shape))
        end = stop
    if end != data_size:
        raise MaskPolicyError(f"{data_size - end} trailing bytes after the last tensor")
    return layout


def _read_array(fh, name: str, shape: list[int]) -> np.ndarray:
    """The next tensor's bytes read into a fresh float64 array."""
    try:
        array = np.empty(shape, dtype=_DTYPE)
    except ValueError as e:  # a zero-size shape whose other sizes overflow
        raise MaskPolicyError(f"checkpoint parameter {name!r} has shape {tuple(shape)}: {e}") from None
    if fh.readinto(array) != array.nbytes:
        raise MaskPolicyError(f"checkpoint parameter {name!r} data is cut short")
    if not np.isfinite(array).all():
        raise MaskPolicyError(f"checkpoint parameter {name!r} holds a non-finite value")
    return array.astype(np.float64, copy=False)


def load_checkpoint(path, vocab: Vocab | None = None) -> tuple[PolicyParams, dict, str]:
    """Returns (params, hyperparameters, vocab_hash); verifies the hash
    when a vocabulary is supplied. Every error names `path`."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = _read_header(fh, size)
            vocab_hash, hyperparameters = _metadata(header)
            if vocab is not None and vocab.content_hash() != vocab_hash:
                raise VocabMismatchError(
                    f"built for vocab {vocab_hash[:12]}..., got {vocab.content_hash()[:12]}...")
            layout = _layout(header, size - fh.tell())
            embedding = dict(layout).get("embedding")
            if vocab is not None and embedding and embedding[0] < len(vocab):
                raise MaskPolicyError(f"parameter 'embedding' has {embedding[0]} rows for "
                                      f"{len(vocab)} vocabulary tokens")
            params = PolicyParams.from_arrays(
                {name: _read_array(fh, name, shape) for name, shape in layout})
    except MaskPolicyError as e:
        kind = VocabMismatchError if isinstance(e, VocabMismatchError) else MaskPolicyError
        raise kind(f"checkpoint {path}: {e}") from None
    return params, hyperparameters, vocab_hash
