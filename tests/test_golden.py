"""Golden outputs: fixed SHA-256 digests of the deterministic artifacts
that the CLI writes for an inline corpus, plus the initial parameters
and a short training log.

A change that is meant to keep behaviour keeps every value here. A value
is re-recorded only by a change whose purpose is to alter that output,
and that change says so.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from maskpolicy.checkpoint import save_checkpoint
from maskpolicy.cli import main
from maskpolicy.corpus import Vocab
from maskpolicy.corruption import read_masked_jsonl
from maskpolicy.evaluation import answer_coverage
from maskpolicy.policy import init_policy_params
from maskpolicy.training import TrainConfig, train_policy

from synth import synth_examples

# Names, dates and 2+-digit numbers for the salient tagger; all-lowercase
# lines, where salient falls back to a random span; a one-token line and
# a five-token line, which at chunk length 4 leave length-1 chunks that
# the span policies skip.
CORPUS = [
    "Alice Smith met Bob Jones in Paris on January 7, 1946 , and they "
    "talked for 45 minutes about the New York Times .",
    "the quick brown fox jumps over the lazy dog while the cat sleeps on "
    "a warm mat near the open door of the old barn .",
    "On 7 March 1952 the paper reported 120 cases across 12 states , and "
    "Dr. Maria Lopez of Boston General confirmed 38 of them by May 1953 .",
    "word",
    "one two three four five",
    "rain fell all night and the river rose past the old stone bridge by "
    "morning .",
    "In 1969 Neil Armstrong walked on the Moon ; Buzz Aldrin followed him "
    "19 minutes later , and Michael Collins stayed in orbit .",
    "prices rose by 15 percent in 2008 and fell by 22 percent in 2009 , "
    "said the report from Geneva .",
    "Kyoto hosted the summit from 3 December to 11 December 1997 .",
]

ANCHORS = [
    ("Alice Smith met Bob Jones in Paris on January 7, 1946 .", "January 7, 1946"),
    ("The treaty was signed in Geneva by Maria Lopez .", "Maria Lopez"),
    ("the river rose by 45 centimetres overnight .", "45"),
    ("In 1969 Neil Armstrong walked on the Moon .", "Neil Armstrong"),
    ("Kyoto hosted the summit in December 1997 , and 38 nations signed .", "December 1997"),
    ("the quick brown fox jumps over the lazy dog .", "lazy dog"),
    ("Buzz Aldrin followed 19 minutes later , said the New York Times .", "New York Times"),
    ("Prices rose by 15 percent in 2008 and fell in 2009 .", "2008"),
]

MASK_RUNS = {
    "random15": ["--policy", "random15"],
    "randomspan": ["--policy", "randomspan"],
    "salient": ["--policy", "salient"],
    "learned-top1": ["--policy", "learned", "--mode", "top1"],
    "learned-top5": ["--policy", "learned", "--mode", "top5"],
}
CHUNK_LENS = (4, 16)

# (masked.jsonl, summary.json) per run, keyed "<run>@<chunk length>".
MASK_DIGESTS = {
    "random15@4": (
        "126ca41459da3f05766c697ea72824f37c7a22fcfcdfb3737ac4dca63de6448c",
        "ff06c066a43ac043e2d12c13970bb7734b892b05da7ff4ce103faf34806d0a69"),
    "random15@16": (
        "1166d1897c44a2d818543be3ac0bb2d3ea9ef1fcbd3b4a52e5c9fa4325697a1e",
        "2d906bfed1589a8987f1edb99f300fadec6321da303683dfd75a67940af992e3"),
    "randomspan@4": (
        "9907d095a21155df799fc3e565bdf83d09e4fe04059bc615d3cc60f4572dd4e2",
        "851692611a1a0a45d93a979e751bc02f40a43f22a1a666f2900041f8d2d29d6b"),
    "randomspan@16": (
        "2510d9ba71ca6ccff68225c7d1e36360a32121620a33e174baf516c31450273a",
        "69535f4bd199a7f360d24f3b6459422a3b589cfb4d0cce4a7809f67b192c0f3f"),
    "salient@4": (
        "e31287c7b4a1ffb7b6b72ff02c8459b4160294e6eb8a20718f6a45b136a281c4",
        "a8600de0fa697185c36882819cd55a7e9dd117532658add53df5208f5c8e9841"),
    "salient@16": (
        "50608f3ac913466fc384b9bec1afb6554374e3eb75f81abbf305ed58b7088edd",
        "2894167e4d9784410a30d190f888e7696457a13bbdfb2c8787f7a50ff2004ac6"),
    "learned-top1@4": (
        "e7abef2b755a1e47fd6bac7159fe25f4ed96743b30b82e91117b2e80fb361fbf",
        "1a27b55a6bb996a1c56f4959e068e91997a66778f5588dc5be0d3d2bc8aa4513"),
    "learned-top1@16": (
        "6e849b0b64957af52e647cddeeafba005857f1375a32c8e4cd09d2606a31f51f",
        "2fb2bb9d49db1b51c3390d22043a0e9222dd96287427210fc4e42decafddb9fa"),
    "learned-top5@4": (
        "fd8ca4a02335e55a8366a2d71916c375cbc366c9a97b5c9fa6e5f430bf68357a",
        "7c7115c6ce6b75d0202a6529d14607f8e8367ae620cac3ca3708a1d90c10a3fd"),
    "learned-top5@16": (
        "ae8e6c3f22324715c64a4d007f9986b809a6157c1d2906259d3b06fd47095615",
        "4f32d9b5e92817c2a0e935927020f9d9a40d1a26dc2b579dfec12d15216b0909"),
}

# report.json per eval-policy run.
REPORT_DIGESTS = {
    "randomspan": "5fe44c6f23c305abe235a27214bfa81ebc9f0b83d4ab26c4d8a0acbaec237883",
    "salient": "b141982990ba61b4b3112c1c9d882bea9f0d42b16b5971591d8d5bef7996e3d5",
    "learned": "cc8b563509c46ec4725295ebb0c627bc0d79ea0f31f1698d422c32b8dd8d748a",
}

# answer_coverage's (fraction, details) over a mask-corpus run's output.
COVERAGE_DIGESTS = {
    "random15@4": "ab3049717f521a196fc005a590d8d327d8591fa193669faf70f6f1a37a37a539",
    "salient@4": "6e4b8573b8759ebda1c18689a7daff22367491bdedcdd3a714947b9f5c7295e1",
    "salient@16": "a1565ed3c8a35be4654ed4d1fb63a3a4843370f16114e5205b1d7d2c86955d2c",
    "learned-top5@16": "3fdcd733f60819afbff24cc20f79118519669601715f14fa1514304ed0599d1b",
}

INIT_DIGEST = "106616fae9bae590d9233c346543e0ffcaec93f91b06d060a0e21b4342f276ba"

# (train_loss, valid_loss) per epoch, then the chosen epoch.
TRAIN_LOSSES = [
    (5.0668585923174945, 5.268742283333008),
    (5.0612896551024, 5.262407041108578),
]
TRAIN_CHOSEN = 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "corpus.txt").write_text("\n".join(CORPUS) + "\n", encoding="utf-8")
    (root / "anchors.txt").write_text(
        "\n".join(context for context, _ in ANCHORS) + "\n", encoding="utf-8")
    with open(root / "dev.jsonl", "w", encoding="utf-8") as fh:
        for context, answer in ANCHORS:
            fh.write(json.dumps({"context": context, "question": "which span",
                                 "answer": answer}) + "\n")
    assert main(["build-vocab", "--corpus", str(root / "corpus.txt"),
                 str(root / "anchors.txt"), "--out", str(root / "vocab")]) == 0
    vocab = Vocab.load(root / "vocab" / "vocab.txt")
    params = init_policy_params(len(vocab), d_emb=8, d_h=8, seed=11)
    save_checkpoint(root / "checkpoint.json", params, vocab,
                    hyperparameters={"max_input_len": 16, "d_emb": 8, "d_h": 8})
    return root


def _mask_args(root, run: str, chunk_len: int, out) -> list[str]:
    args = ["mask-corpus", "--corpus", str(root / "corpus.txt"),
            "--vocab", str(root / "vocab" / "vocab.txt"), *MASK_RUNS[run],
            "--chunk-len", str(chunk_len), "--max-span-len", "5", "--seed", "3",
            "--out", str(out)]
    if run.startswith("learned"):
        args += ["--checkpoint", str(root / "checkpoint.json")]
    return args


@pytest.fixture(scope="module")
def mask_outputs(workspace):
    outputs = {}
    for run in MASK_RUNS:
        for chunk_len in CHUNK_LENS:
            out = workspace / f"mask-{run}-{chunk_len}"
            assert main(_mask_args(workspace, run, chunk_len, out)) == 0
            outputs[f"{run}@{chunk_len}"] = out
    return outputs


@pytest.fixture(scope="module")
def report_outputs(workspace):
    outputs = {}
    for policy in ("randomspan", "salient", "learned"):
        out = workspace / f"eval-{policy}"
        args = ["eval-policy", "--dev", str(workspace / "dev.jsonl"),
                "--vocab", str(workspace / "vocab" / "vocab.txt"),
                "--policy", policy, "--max-span-len", "4", "--max-input-len", "8",
                "--seed", "5", "--out", str(out)]
        if policy == "learned":
            args += ["--checkpoint", str(workspace / "checkpoint.json")]
        assert main(args) == 0
        outputs[policy] = out
    return outputs


def test_fixture_exercises_skips_and_fallbacks(mask_outputs):
    for run in ("randomspan", "salient", "learned-top1"):
        summary = json.loads((mask_outputs[f"{run}@4"] / "summary.json").read_text())
        assert summary["skipped_chunks"] > 0
    summary = json.loads((mask_outputs["salient@16"] / "summary.json").read_text())
    assert summary["fallback_spans"] > 0


@pytest.mark.parametrize("key", [f"{run}@{n}" for run in MASK_RUNS for n in CHUNK_LENS])
def test_mask_corpus_digests(mask_outputs, key):
    out = mask_outputs[key]
    got = (sha256((out / "masked.jsonl").read_bytes()),
           sha256((out / "summary.json").read_bytes()))
    assert got == MASK_DIGESTS[key]


@pytest.mark.parametrize("policy", ["randomspan", "salient", "learned"])
def test_eval_policy_digests(report_outputs, policy):
    got = sha256((report_outputs[policy] / "report.json").read_bytes())
    assert got == REPORT_DIGESTS[policy]


@pytest.mark.parametrize("key", ["random15@4", "salient@4", "salient@16", "learned-top5@16"])
def test_answer_coverage_digests(workspace, mask_outputs, key):
    vocab = Vocab.load(workspace / "vocab" / "vocab.txt")
    examples = read_masked_jsonl(mask_outputs[key] / "masked.jsonl")
    fraction, details = answer_coverage(examples, [a for _, a in ANCHORS], vocab)
    got = sha256(json.dumps([fraction, details], sort_keys=True).encode("utf-8"))
    assert got == COVERAGE_DIGESTS[key]


def test_init_params_digest():
    h = hashlib.sha256()
    for name, t in init_policy_params(37, d_emb=6, d_h=5, seed=4).named_parameters():
        h.update(name.encode("utf-8"))
        h.update(str(t.data.shape).encode("utf-8"))
        h.update(np.ascontiguousarray(t.data).tobytes())
    assert h.hexdigest() == INIT_DIGEST


def test_training_log():
    cfg = TrainConfig(epochs=2, learning_rate=3e-3, batch_size=4, max_input_len=24,
                      max_span_len=5, seed=2, d_emb=8, d_h=8)
    _, log = train_policy(synth_examples(16, seed=1), synth_examples(6, seed=2), cfg)
    got = [(r.train_loss, r.valid_loss) for r in log.records]
    assert len(got) == len(TRAIN_LOSSES)
    for (train, valid), (want_train, want_valid) in zip(got, TRAIN_LOSSES):
        assert math.isclose(train, want_train, rel_tol=1e-9)
        assert math.isclose(valid, want_valid, rel_tol=1e-9)
    assert log.chosen_epoch == TRAIN_CHOSEN
