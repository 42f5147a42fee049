"""Versioned JSON checkpoints for trained policies.

The container records the vocabulary hash it was trained against;
loading with a vocabulary verifies the hash so a policy is never
deployed over ids it was not trained on. Loading checks every tensor's
shape against the model's parameter table, so a malformed checkpoint
fails at load time with a MaskPolicyError naming the bad key or
parameter.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .corpus import Vocab
from .errors import MaskPolicyError, VocabMismatchError
from .policy import PolicyParams

FORMAT_VERSION = 1


def save_checkpoint(path, params: PolicyParams, vocab: Vocab,
                    hyperparameters: dict | None = None) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "vocab_hash": vocab.content_hash(),
        "hyperparameters": dict(hyperparameters or {}),
        "parameters": {
            name: {"shape": list(t.data.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in params.named_parameters()
        },
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _array(name: str, entry) -> np.ndarray:
    if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
        raise MaskPolicyError(f"checkpoint parameter {name!r} needs 'shape' and 'data'")
    try:
        return np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
    except (TypeError, ValueError) as e:
        raise MaskPolicyError(f"checkpoint parameter {name!r} is malformed: {e}") from None


def _field(payload: dict, key: str, kind: type, default=None):
    value = payload.get(key, default)
    if not isinstance(value, kind):
        raise MaskPolicyError(f"checkpoint field {key!r} is missing or not a {kind.__name__}")
    return value


def load_checkpoint(path, vocab: Vocab | None = None) -> tuple[PolicyParams, dict, str]:
    """Returns (params, hyperparameters, vocab_hash); verifies the hash
    when a vocabulary is supplied."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
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
