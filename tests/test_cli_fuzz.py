"""The command line over bad `--config` files, damaged checkpoints and
messy anchor files.

Config files hold values of the wrong type, NaN or +-Infinity, values
out of their option's range, keys the command does not know, a top level
that is not an object, or are cut short. Checkpoints are cut short or
have one bit flipped, and are read by `eval-policy` and `mask-corpus`.
Anchor files mix good records with CRLF line ends, U+2028 and NUL in and
between records, invalid UTF-8 and records of the wrong type, and are
read by `train-policy` and `eval-policy`. A run exits 0 or 2 and never
with a traceback; a refusal names the file."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskpolicy import cli
from maskpolicy.cli import main

from synth import synth_context, write_anchor_jsonl

NAN, INF = float("nan"), float("inf")

# Per option type, config values that type must refuse: another JSON
# type, or a number that is not finite.
_JUNK = {
    int: [None, True, "x", [1], {"a": 1}, 2.5, NAN, INF, -INF],
    float: [None, True, "x", [1], {"a": 1}, NAN, INF, -INF, 10 ** 400],
    str: [None, True, 3, 2.5, [1], {"a": 1}, NAN],
}

# Per command and option, values of the right type that the command
# refuses once they reach it (every option without an entry takes any
# value of its type).
_OUT_OF_RANGE = {
    "train-policy": {"epochs": [0, -1], "learning_rate": [0.0, -0.5], "batch_size": [0],
                     "max_input_len": [0], "max_span_len": [0, -3], "d_emb": [0],
                     "d_h": [-1], "clip_norm": [0, -1.0], "seed": [-1],
                     "optimizer": ["adagrad", ""]},
    "eval-policy": {"max_span_len": [0, -1]},
    "mask-corpus": {"workers": [0, -2], "chunk_len": [1, 0], "max_span_len": [0],
                    "rate": [1.5, -0.1], "mode": ["top3"]},
    "grad-check": {"seeds": [0, -1], "max_len": [1]},
    "build-vocab": {},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus, anchor files, a vocabulary and a small trained checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    (root / "corpus.txt").write_text(
        "\n".join(synth_context(rng)[0] for _ in range(20)) + "\n", encoding="utf-8")
    for name, n, seed in (("train", 24, 1), ("valid", 8, 2), ("dev", 8, 3)):
        write_anchor_jsonl(root / f"{name}.jsonl", n, seed=seed)
    assert main(["build-vocab", "--corpus", str(root / "corpus.txt"),
                 "--out", str(root / "vocab")]) == 0
    assert main(["train-policy", *_args(root)["train-policy"], "--out", str(root / "run")]) == 0
    return root


def _args(root):
    """Per command, its input paths and a flag for every option, so that a
    config the command accepts still runs small: flags beat the config.
    A test drops the flag of an option it wants the config to set."""
    vocab = ["--vocab", str(root / "vocab" / "vocab.txt")]
    return {
        "build-vocab": ["--corpus", str(root / "corpus.txt"), "--max-size", "100",
                        "--min-freq", "1"],
        "train-policy": ["--train", str(root / "train.jsonl"), "--valid", str(root / "valid.jsonl"),
                         *vocab, "--epochs", "1", "--learning-rate", "0.003", "--batch-size", "8",
                         "--optimizer", "adam", "--max-input-len", "24", "--max-span-len", "5",
                         "--seed", "0", "--d-emb", "4", "--d-h", "4", "--clip-norm", "1.0"],
        "eval-policy": ["--dev", str(root / "dev.jsonl"), *vocab, "--policy", "randomspan",
                        "--max-span-len", "5", "--max-input-len", "24", "--seed", "0"],
        "mask-corpus": ["--corpus", str(root / "corpus.txt"), *vocab, "--policy", "random15",
                        "--mode", "top1", "--seed", "0", "--workers", "1", "--chunk-len", "16",
                        "--max-span-len", "5", "--rate", "0.15"],
        "grad-check": ["--seeds", "1", "--max-len", "3"],
    }


def _run(argv):
    """Exit code and stderr of one command line run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _refusal(err):
    """A refused run's message: stderr from its "error: " line on."""
    at = err.find("error: ")
    return err[at:] if at == 0 or err[at - 1:at] == "\n" else ""


def _without_flags(argv, keys):
    """`argv` without the flag and value of each option in `keys`."""
    flags = {"--" + key.replace("_", "-") for key in keys}
    out = []
    for arg in argv:
        if out and out[-1] in flags:
            out.pop()
        else:
            out.append(arg)
    return out


@st.composite
def configs(draw, command):
    """A config file's text for `command`, whether it must be refused, and
    the options whose flags must go so that the config's value counts:
    the command's own keys set to their defaults, to junk or out of range,
    maybe an unknown key, maybe cut short; or a JSON value that is not an
    object."""
    defaults = cli._DEFAULTS[command]
    if draw(st.booleans()) and draw(st.booleans()):
        top = draw(st.sampled_from([[], [1, 2], "x", 3, None, NAN, -INF, "deep"]))
        # Nested past the decoder's recursion limit.
        return ("[" * 100_000 + "]" * 100_000 if top == "deep" else json.dumps(top)), True, ()
    obj, bad, unflag = {}, False, []
    for key in draw(st.lists(st.sampled_from(sorted(defaults)), unique=True, max_size=4)):
        refused = _OUT_OF_RANGE[command].get(key, [])
        kind = draw(st.sampled_from(["default", "junk"] + ["range"] * bool(refused)))
        if kind == "junk":
            obj[key] = draw(st.sampled_from(_JUNK[type(defaults[key])]))
        elif kind == "range":
            obj[key] = draw(st.sampled_from(refused))
            unflag.append(key)
        else:
            obj[key] = defaults[key]
        bad |= kind != "default"
    if draw(st.booleans()):
        obj[draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in defaults))] = 1
        bad = True
    text = json.dumps(obj)
    if draw(st.booleans()) and draw(st.booleans()):
        # No proper prefix of a JSON object is valid JSON.
        return text[:draw(st.integers(0, len(text) - 1))], True, unflag
    return text, bad, unflag


@given(st.sampled_from(["build-vocab", "train-policy", "eval-policy", "mask-corpus",
                        "grad-check"]).flatmap(lambda c: st.tuples(st.just(c), configs(c))))
@settings(max_examples=40, deadline=None)
def test_config_file(workspace, case):
    command, (text, bad, unflag) = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        argv = _without_flags(_args(workspace)[command], unflag)
        code, err = _run([command, *argv, "--config", str(cfg),
                          "--out", str(Path(tmp) / "out")])
        assert code == (2 if bad else 0), err
        if bad:
            assert str(cfg) in _refusal(err), err
            assert not (Path(tmp) / "out" / "manifest.json").exists()


@st.composite
def damaged(draw, data: bytes):
    """`data` cut short, or with one bit flipped."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]


@pytest.fixture(scope="module")
def checkpoint_bytes(workspace):
    return (workspace / "run" / "checkpoint.json").read_bytes()


@given(st.data(), st.sampled_from(["eval-policy", "mask-corpus"]))
@settings(max_examples=40, deadline=None)
def test_damaged_checkpoint(workspace, checkpoint_bytes, data, command):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "checkpoint.json"
        ckpt.write_bytes(data.draw(damaged(checkpoint_bytes)))
        argv = [a if a not in ("randomspan", "random15") else "learned"
                for a in _args(workspace)[command]]
        code, err = _run([command, *argv, "--checkpoint", str(ckpt),
                          "--out", str(Path(tmp) / "out")])
        assert code in (0, 2), err
        if code == 2:
            assert str(ckpt) in _refusal(err), err
            assert not (Path(tmp) / "out" / "manifest.json").exists()


# Lines that are not an anchor record: JSON of another type, a record
# with a field missing or of the wrong type, nesting past the decoder's
# recursion limit, blank lines.
_NOT_RECORDS = [
    "[1, 2]", '"x"', "3", "null", "true", "NaN", "{}", "[" * 100_000,
    '{"context": 3, "question": "q", "answer": "a"}',
    '{"context": "w01 a01", "question": "q"}',
    '{"context": "w01 a01", "question": "q", "answer": ["a01"]}',
    '{"context": "w01 a01", "question": null, "answer": "a01"}',
    "", "   ",
]


@st.composite
def anchor_files(draw, good_lines):
    """An anchor JSONL file's bytes: good records, some changed, and lines
    that are not records."""
    out = b""
    for _ in range(draw(st.integers(0, 10))):
        line = draw(st.sampled_from(good_lines))
        # Weighted towards lines a run accepts, so that some files load.
        how = draw(st.sampled_from(["good"] * 3 + ["crlf", "u2028", "nul"] * 2
                                   + ["raw", "badutf8", "notrecord", "noend"]))
        end = "\r\n" if how == "crlf" else "\n"
        if how in ("u2028", "nul"):
            # Into the context, raw or escaped: both decode to the character.
            char = draw(st.sampled_from(["\u2028", "\\u2028"] if how == "u2028"
                                        else ["\\u0000"]))
            line = line.replace(" ", char, draw(st.integers(1, 3)))
        elif how == "raw":
            # A raw U+2028, NUL, CR or form feed anywhere in the line.
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(["\u2028", "\x00", "\r", "\x0c"])) + line[at:]
        elif how == "notrecord":
            line = draw(st.sampled_from(_NOT_RECORDS))
        elif how == "noend":
            end = ""
        data = (line + end).encode("utf-8")
        if how == "badutf8":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe2\x80", b"\xed\xa0\x80"])) + data[at:]
        out += data
    return out


@pytest.fixture(scope="module")
def good_lines(workspace):
    return (workspace / "train.jsonl").read_text(encoding="utf-8").splitlines()


@given(st.data(), st.sampled_from([("train-policy", "train"), ("train-policy", "valid"),
                                   ("eval-policy", "dev")]))
@settings(max_examples=40, deadline=None)
def test_messy_anchor_file(workspace, good_lines, data, case):
    command, role = case
    with tempfile.TemporaryDirectory() as tmp:
        anchor = Path(tmp) / f"{role}.jsonl"
        anchor.write_bytes(data.draw(anchor_files(good_lines)))
        argv = _args(workspace)[command]
        argv[argv.index(f"--{role}") + 1] = str(anchor)
        code, err = _run([command, *argv, "--out", str(Path(tmp) / "out")])
        assert code in (0, 2), err
        if code == 2:
            assert str(anchor) in _refusal(err), err
            assert not (Path(tmp) / "out" / "manifest.json").exists()
