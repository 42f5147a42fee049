"""Output checks applied to every timed run.

Each check returns a list of problems; an empty list is a pass. A
problem in any check fails the whole run, and every operation of a
failed run counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from maskpolicy.corpus import MASK_ID, chunk_document, iter_documents, tokenize
from maskpolicy.corruption import read_masked_jsonl
from maskpolicy.seeding import derive_seed

# Relative tolerance when a training log is compared with the reference
# recorded on another build: a change of summation order in a faster
# forward may move the last bits, a change in what is computed moves
# far more.
LOG_RTOL = 1e-6

_MAX_REPORTED = 5


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name, t in params.named_parameters():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def expected_chunks(corpus_paths, vocab, chunk_len: int) -> dict:
    """(doc_id, chunk_index) -> token ids, straight from chunk_document."""
    out = {}
    for doc_id, text in iter_documents(corpus_paths):
        for chunk in chunk_document(tokenize(text, vocab), chunk_len, doc_id=doc_id):
            out[(doc_id, chunk.chunk_index)] = chunk.tokens.ids
    return out


def check_deploy_output(masked_path, summary_path, expected: dict, global_seed: int,
                        policy_tag: str) -> list[str]:
    """Every example reconstructs its source chunk, carries its derived
    seed and masks only what its targets record; emitted plus skipped
    chunks account for every chunk; the summary agrees with the file."""
    problems: list[str] = []
    try:
        examples = read_masked_jsonl(masked_path)
        summary = json.loads(Path(summary_path).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {e!r}"]

    def bad(msg: str) -> None:
        if len(problems) < _MAX_REPORTED:
            problems.append(msg)

    keys = [(ex.doc_id, ex.chunk_index) for ex in examples]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        bad("examples are not in strictly increasing (doc_id, chunk_index) order")
    masked = total = 0
    for ex in examples:
        where = f"{ex.doc_id}:{ex.chunk_index}"
        source = expected.get((ex.doc_id, ex.chunk_index))
        if source is None:
            bad(f"{where}: no such chunk in the corpus")
            continue
        if ex.original_ids() != source:
            bad(f"{where}: does not reconstruct its source chunk")
        if len(ex.masked_positions) != len(ex.target_ids):
            bad(f"{where}: {len(ex.masked_positions)} positions but {len(ex.target_ids)} targets")
        elif any(ex.input_ids[p] != MASK_ID for p in ex.masked_positions):
            bad(f"{where}: a masked position does not hold the mask id")
        if ex.policy_tag != policy_tag:
            bad(f"{where}: policy {ex.policy_tag!r}, expected {policy_tag!r}")
        if ex.seed_used != derive_seed(global_seed, ex.doc_id, ex.chunk_index):
            bad(f"{where}: seed is not the derived per-chunk seed")
        masked += len(ex.masked_positions)
        total += len(ex.input_ids)
    if summary.get("chunks") != len(examples):
        bad(f"summary counts {summary.get('chunks')} chunks, file holds {len(examples)}")
    skipped = summary.get("skipped_chunks")
    if not isinstance(skipped, int) or len(examples) + skipped != len(expected):
        bad(f"{len(examples)} emitted + {skipped} skipped chunks != "
            f"{len(expected)} from chunk_document")
    rate = (masked / total) if total else 0.0
    if summary.get("masked_token_rate") != rate:
        bad(f"summary masked_token_rate {summary.get('masked_token_rate')} != {rate}")
    return problems


def check_digests(actual: dict, reference: dict, what: str) -> list[str]:
    """Every digest named in the reference must match exactly."""
    return [f"{what}: {name} digest {actual.get(name, '')[:12]} != reference {want[:12]}"
            for name, want in sorted(reference.items()) if actual.get(name) != want]


def check_training_log(records: list[dict]) -> list[str]:
    problems = []
    for r in records:
        for key in ("train_loss", "valid_loss"):
            if not math.isfinite(r[key]):
                problems.append(f"epoch {r['epoch']}: {key} is {r[key]}")
    if sum(r["chosen"] for r in records) != 1:
        problems.append("training log does not mark exactly one chosen epoch")
    return problems


def check_log_reference(records: list[dict], reference: list[dict]) -> list[str]:
    if len(records) != len(reference):
        return [f"training log has {len(records)} epochs, reference {len(reference)}"]
    problems = []
    for got, want in zip(records, reference):
        if got["chosen"] != want["chosen"]:
            problems.append(f"epoch {got['epoch']}: chosen flag differs from reference")
        for key in ("train_loss", "valid_loss"):
            if not math.isclose(got[key], want[key], rel_tol=LOG_RTOL, abs_tol=0.0):
                problems.append(f"epoch {got['epoch']}: {key} {got[key]!r} "
                                f"!= reference {want[key]!r}")
    return problems
