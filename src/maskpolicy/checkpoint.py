"""Versioned JSON checkpoints for trained policies.

A checkpoint is one JSON object: `format_version`, the `vocab_hash` of
the vocabulary the policy was trained against, its `hyperparameters`,
and `parameters`, which maps each tensor name, in param_shapes order,
to `{"shape": [...], "data": "..."}`. `data` is the base64 of the
tensor's little-endian float64 bytes in C order, so a round trip is
bit-exact. Float-list checkpoints of format version 1 no longer load.

write_checkpoint streams the header and then one tensor at a time to a
file, so memory stays bounded by the largest tensor. save_checkpoint
writes through it into a temporary file beside the target and renames
that into place only once it is complete, so a failed save leaves any
earlier checkpoint as it was. A caller that already publishes its
outputs atomically (the command line runner) uses write_checkpoint, so
the checkpoint is renamed once.

Loading with a vocabulary verifies the hash so a policy is never
deployed over ids it was not trained on. Loading checks every tensor's
encoding, byte count, finiteness and shape against the model's
parameter table, so a malformed checkpoint fails at load time with a
MaskPolicyError naming the file and the bad key or parameter.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .corpus import Vocab, read_json
from .errors import MaskPolicyError, VocabMismatchError
from .policy import PolicyParams

FORMAT_VERSION = 2

_DTYPE = np.dtype("<f8")


def save_checkpoint(path, params: PolicyParams, vocab: Vocab,
                    hyperparameters: dict | None = None) -> None:
    """Write the checkpoint to `path` atomically."""
    with atomic_output(path) as tmp:
        write_checkpoint(tmp, params, vocab, hyperparameters)


def write_checkpoint(path, params: PolicyParams, vocab: Vocab,
                     hyperparameters: dict | None = None) -> None:
    """Stream the checkpoint straight into `path`; a failure partway
    leaves a partial file there."""
    header = json.dumps({"format_version": FORMAT_VERSION,
                         "vocab_hash": vocab.content_hash(),
                         "hyperparameters": dict(hyperparameters or {})})
    with open(path, "wb") as fh:
        fh.write(f'{header[:-1]}, "parameters": {{'.encode("ascii"))
        for i, (name, t) in enumerate(params.named_parameters()):
            fh.write(f'{", " if i else ""}{json.dumps(name)}: '
                     f'{{"shape": {json.dumps(list(t.data.shape))}, "data": "'
                     .encode("ascii"))
            fh.write(base64.b64encode(np.ascontiguousarray(t.data, dtype=_DTYPE).tobytes()))
            fh.write(b'"}')
        fh.write(b"}}")


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


def _array(name: str, entry) -> np.ndarray:
    if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
        raise MaskPolicyError(f"checkpoint parameter {name!r} needs 'shape' and 'data'")
    shape, data = entry["shape"], entry["data"]
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise MaskPolicyError(f"checkpoint parameter {name!r} has a malformed shape: {shape!r}")
    if not isinstance(data, str):
        raise MaskPolicyError(f"checkpoint parameter {name!r} data is not a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as e:
        raise MaskPolicyError(f"checkpoint parameter {name!r} data is not valid base64: {e}") from None
    expected = math.prod(shape) * _DTYPE.itemsize
    if len(raw) != expected:
        raise MaskPolicyError(f"checkpoint parameter {name!r} holds {len(raw)} bytes, "
                              f"expected {expected} for shape {tuple(shape)}")
    array = np.frombuffer(raw, dtype=_DTYPE).astype(np.float64).reshape(shape)
    if not np.isfinite(array).all():
        raise MaskPolicyError(f"checkpoint parameter {name!r} holds a non-finite value")
    return array


def _field(payload: dict, key: str, kind: type, default=None):
    value = payload.get(key, default)
    if not isinstance(value, kind):
        raise MaskPolicyError(f"checkpoint field {key!r} is missing or not a {kind.__name__}")
    return value


def load_checkpoint(path, vocab: Vocab | None = None) -> tuple[PolicyParams, dict, str]:
    """Returns (params, hyperparameters, vocab_hash); verifies the hash
    when a vocabulary is supplied. Every error names `path`."""
    payload = read_json(path, "checkpoint")
    try:
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise MaskPolicyError(f"unsupported checkpoint format_version: {version!r}")
        vocab_hash = _field(payload, "vocab_hash", str)
        if vocab is not None and vocab.content_hash() != vocab_hash:
            raise VocabMismatchError(
                f"built for vocab {vocab_hash[:12]}..., got {vocab.content_hash()[:12]}...")
        hyperparameters = _field(payload, "hyperparameters", dict, default={})
        raw = _field(payload, "parameters", dict)
        params = PolicyParams.from_arrays({name: _array(name, entry) for name, entry in raw.items()})
    except MaskPolicyError as e:
        kind = VocabMismatchError if isinstance(e, VocabMismatchError) else MaskPolicyError
        raise kind(f"checkpoint {path}: {e}") from None
    return params, hyperparameters, vocab_hash
