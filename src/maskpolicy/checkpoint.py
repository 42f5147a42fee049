"""Versioned JSON checkpoints for trained policies.

A checkpoint is one JSON object: `format_version`, the `vocab_hash` of
the vocabulary the policy was trained against, its `hyperparameters`,
and `parameters`, which maps each tensor name, in param_shapes order,
to `{"shape": [...], "data": "..."}`. `data` is the base64 of the
tensor's little-endian float64 bytes in C order, so a round trip is
bit-exact. Float-list checkpoints of format version 1 no longer load.

save_checkpoint writes the header and then one tensor at a time into a
temporary file beside the target, and renames it into place only once
it is complete: memory stays bounded by the largest tensor, and a
failed save leaves any earlier checkpoint as it was.

Loading with a vocabulary verifies the hash so a policy is never
deployed over ids it was not trained on. Loading checks every tensor's
encoding, byte count, finiteness and shape against the model's
parameter table, so a malformed checkpoint fails at load time with a
MaskPolicyError naming the bad key or parameter.
"""

from __future__ import annotations

import base64
import json
import math
import os
from pathlib import Path

import numpy as np

from .corpus import Vocab
from .errors import MaskPolicyError, VocabMismatchError
from .policy import PolicyParams

FORMAT_VERSION = 2

_DTYPE = np.dtype("<f8")


def save_checkpoint(path, params: PolicyParams, vocab: Vocab,
                    hyperparameters: dict | None = None) -> None:
    path = Path(path)
    header = json.dumps({"format_version": FORMAT_VERSION,
                         "vocab_hash": vocab.content_hash(),
                         "hyperparameters": dict(hyperparameters or {})})
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(f'{header[:-1]}, "parameters": {{'.encode("ascii"))
            for i, (name, t) in enumerate(params.named_parameters()):
                fh.write(f'{", " if i else ""}{json.dumps(name)}: '
                         f'{{"shape": {json.dumps(list(t.data.shape))}, "data": "'
                         .encode("ascii"))
                fh.write(base64.b64encode(np.ascontiguousarray(t.data, dtype=_DTYPE).tobytes()))
                fh.write(b'"}')
            fh.write(b"}}")
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
    when a vocabulary is supplied."""
    payload = json.loads(Path(path).read_bytes())
    if not isinstance(payload, dict):
        raise MaskPolicyError(f"checkpoint {path} does not hold a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise MaskPolicyError(f"unsupported checkpoint format_version: {version!r}")
    vocab_hash = _field(payload, "vocab_hash", str)
    if vocab is not None and vocab.content_hash() != vocab_hash:
        raise VocabMismatchError(
            f"checkpoint was built for vocab {vocab_hash[:12]}..., "
            f"got {vocab.content_hash()[:12]}...")
    hyperparameters = _field(payload, "hyperparameters", dict, default={})
    raw = _field(payload, "parameters", dict)
    params = PolicyParams.from_arrays({name: _array(name, entry) for name, entry in raw.items()})
    return params, hyperparameters, vocab_hash
