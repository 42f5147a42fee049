"""The command line over bad `--config` files, damaged checkpoints, bad
reports and messy anchor files.

Config files hold values of the wrong type, NaN or +-Infinity, values
out of their option's range, keys the command does not know, a top level
that is not an object, an integer of more digits than Python converts,
or are cut short. Checkpoints are cut short, have one bit flipped or
have a header nested past the JSON decoder's recursion limit, and are
read by `eval-policy` and `mask-corpus`. Reports read by `compare` have
fields of the wrong type or missing, a top level that is not an object,
invalid JSON or UTF-8, deep nesting or such an integer. Anchor files mix
good records with CRLF line ends, U+2028 and NUL in and between records,
invalid UTF-8 and records of the wrong type, and are read by
`train-policy` and `eval-policy`. Vocabulary files are cut short, have
one bit flipped, repeat a line or move a reserved token from the head,
and are read by `mask-corpus`, `train-policy` and `eval-policy`. A run
exits 0 or 2 and never with a traceback; a refusal names the file."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskpolicy import cli
from maskpolicy.cli import main

from synth import synth_context, write_anchor_jsonl

NAN, INF = float("nan"), float("inf")

# JSON nested past the decoder's recursion limit.
_DEEP = "[" * 100_000 + "]" * 100_000

# An integer of more digits than Python converts from a string.
_LONG_INT = "1" * 4301

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
                     "max_input_len": [0], "d_emb": [0], "d_h": [-1],
                     "clip_norm": [0, -1.0], "seed": [-1],
                     "optimizer": ["adagrad", ""]},
    "eval-policy": {"max_span_len": [0, -1], "max_input_len": [0, -1]},
    "mask-corpus": {"workers": [0, -2], "chunk_len": [1, 0], "max_span_len": [0],
                    "rate": [1.5, -0.1], "mode": ["top3"]},
    "grad-check": {"seeds": [0, -1], "max_len": [1]},
    "build-vocab": {"max_size": [2, 0, -1], "min_freq": [0, -1]},
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
                         "--optimizer", "adam", "--max-input-len", "24", "--seed", "0",
                         "--d-emb", "4", "--d-h", "4", "--clip-norm", "1.0"],
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
    object, or holds an integer past Python's digit limit."""
    defaults = cli._DEFAULTS[command]
    if draw(st.booleans()) and draw(st.booleans()):
        top = draw(st.sampled_from([[], [1, 2], "x", 3, None, NAN, -INF, "deep", "long"]))
        if top == "long":
            return '{"seed": %s}' % _LONG_INT, True, ()
        return (_DEEP if top == "deep" else json.dumps(top)), True, ()
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
@example(("grad-check", ('{"seeds": %s}' % _LONG_INT, True, ())))
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


@pytest.mark.parametrize("command, key, value", [
    (command, key, value) for command, table in _OUT_OF_RANGE.items()
    for key, values in table.items() for value in values])
def test_out_of_range_config_value(workspace, tmp_path, command, key, value):
    """Every value of _OUT_OF_RANGE, set by a config file, is refused
    naming the file, before any artifact is written."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    argv = _without_flags(_args(workspace)[command], [key])
    code, err = _run([command, *argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert str(cfg) in _refusal(err) and key in _refusal(err), err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_chunk_len_refused_on_a_corpus_without_documents(workspace, tmp_path):
    """mask-corpus refuses a chunk length below 2 up front, not only when
    a document reaches the chunker."""
    (tmp_path / "blank.txt").write_text("\n  \n\n", encoding="utf-8")
    code, err = _run(["mask-corpus", "--corpus", str(tmp_path / "blank.txt"),
                      "--vocab", str(workspace / "vocab" / "vocab.txt"), "--policy", "random15",
                      "--chunk-len", "1", "--out", str(tmp_path / "out")])
    assert code == 2, err
    assert "chunk_len" in _refusal(err), err
    assert not (tmp_path / "out" / "manifest.json").exists()


@st.composite
def damaged(draw, data: bytes):
    """`data` cut short, or with one bit flipped."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]


@pytest.fixture(scope="module")
def checkpoint_bytes(workspace):
    return (workspace / "run" / "checkpoint.safetensors").read_bytes()


def _run_learned(root, command, ckpt, out):
    """Exit code and stderr of `command` with the learned policy read from
    the checkpoint `ckpt`."""
    argv = [a if a not in ("randomspan", "random15") else "learned"
            for a in _args(root)[command]]
    return _run([command, *argv, "--checkpoint", str(ckpt), "--out", str(out)])


@given(st.data(), st.sampled_from(["eval-policy", "mask-corpus"]))
@settings(max_examples=40, deadline=None)
def test_damaged_checkpoint(workspace, checkpoint_bytes, data, command):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "checkpoint.safetensors"
        ckpt.write_bytes(data.draw(damaged(checkpoint_bytes)))
        code, err = _run_learned(workspace, command, ckpt, Path(tmp) / "out")
        assert code in (0, 2), err
        if code == 2:
            assert str(ckpt) in _refusal(err), err
            assert not (Path(tmp) / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["eval-policy", "mask-corpus"])
def test_checkpoint_nested_past_the_recursion_limit(workspace, tmp_path, command):
    ckpt = tmp_path / "checkpoint.safetensors"
    header = _DEEP.encode("ascii")
    ckpt.write_bytes(len(header).to_bytes(8, "little") + header)
    code, err = _run_learned(workspace, command, ckpt, tmp_path / "out")
    assert code == 2, err
    assert f"checkpoint {ckpt}: header is not valid JSON" in _refusal(err), err
    assert not (tmp_path / "out" / "manifest.json").exists()


_GOOD_REPORT = {"policy": "salient", "em_at_1": 0.25, "em_at_5": 0.5,
                "token_f1_at_1": 0.375, "answer_coverage": None, "n": 8}

# Per report field, values it does not take: of another JSON type, or
# numbers no report holds. The shares lie in [0, 1] and n is at least 1;
# NaN and Infinity (which json.dumps writes, though they are not JSON)
# lie in no range. answer_coverage may also be null or left out.
_REPORT_JUNK = {
    "policy": [None, True, 3, 2.5, [1], {"a": 1}],
    "em_at_1": [None, True, "x", [1], {"a": 1}, NAN, INF, -INF, -0.25, 1.5],
    "em_at_5": [None, False, "x", "0.5", [1], NAN, INF, 7.5, -1],
    "token_f1_at_1": [None, True, "x", [0.5], {}, NAN, INF, 1.0000001, -1e-9],
    "answer_coverage": [True, "x", [1], {"a": 1}, NAN, -INF, 2, -0.5],
    "n": [None, True, "4", 2.5, NAN, INF, [1], 0, -3],
}


_LEFT_OUT = object()  # as a field's value: the field is not written


def _report_bytes(**fields):
    """The good report with `fields` changed."""
    obj = {**_GOOD_REPORT, **fields}
    return json.dumps({k: v for k, v in obj.items() if v is not _LEFT_OUT}).encode("utf-8")


# The good report with n an integer past Python's digit limit.
_LONG_REPORT = _report_bytes().replace(b'"n": 8', b'"n": ' + _LONG_INT.encode("ascii"))


@st.composite
def report_files(draw):
    """A report file's bytes, whether `compare` must refuse it, and the
    fields one of which its refusal must name: fields of the wrong type or
    missing, a top level that is not an object, JSON cut short or nested
    past the decoder's recursion limit, an integer past Python's digit
    limit, or a byte that is not UTF-8."""
    how = draw(st.sampled_from(["fields"] * 4 + ["top", "cut", "deep", "long", "badutf8"]))
    data = _report_bytes()
    if how == "fields":
        fields, named = {}, []
        for key in draw(st.lists(st.sampled_from(sorted(_REPORT_JUNK)), unique=True,
                                 max_size=3)):
            fields[key] = draw(st.sampled_from([_LEFT_OUT, *_REPORT_JUNK[key]]))
            if not (key == "answer_coverage" and fields[key] is _LEFT_OUT):
                named.append(key)
        return _report_bytes(**fields), bool(named), named
    if how == "top":
        data = json.dumps(draw(st.sampled_from([[], [1, 2], "x", 3, None]))).encode("utf-8")
    elif how == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif how == "deep":
        data = _DEEP.encode("utf-8")
    elif how == "long":
        data = _LONG_REPORT
    else:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + data[at:]
    return data, True, []


@given(report_files())
@example((_report_bytes(em_at_5="x"), True, ["em_at_5"]))
@example((_report_bytes(n="4"), True, ["n"]))
@example((_report_bytes(policy=[1]), True, ["policy"]))
@example((_report_bytes(em_at_1=NAN, em_at_5=NAN, token_f1_at_1=INF, n=-3), True,
          ["em_at_1", "em_at_5", "token_f1_at_1", "n"]))
@example((_report_bytes(em_at_5=7.5), True, ["em_at_5"]))
@example((_report_bytes(em_at_1=0, em_at_5=1, token_f1_at_1=1.0, answer_coverage=0.0, n=1),
          False, []))
@example((_DEEP.encode("utf-8"), True, []))
@example((_LONG_REPORT, True, []))
@example((b"{not json", True, []))
@settings(max_examples=40, deadline=None)
def test_report_file(case):
    data, bad, named = case
    with tempfile.TemporaryDirectory() as tmp:
        good, report = Path(tmp) / "good.json", Path(tmp) / "report.json"
        good.write_bytes(_report_bytes())
        report.write_bytes(data)
        code, err = _run(["compare", "--reports", str(good), str(report),
                          "--out", str(Path(tmp) / "out")])
        assert code == (2 if bad else 0), err
        if bad:
            refusal = _refusal(err)
            assert str(report) in refusal, err
            assert not named or any(repr(key) in refusal for key in named), err
            assert not (Path(tmp) / "out" / "manifest.json").exists()


# A record holding an integer past Python's digit limit.
_LONG_RECORD = '{"context": "w01 a01", "question": %s, "answer": "a01"}' % _LONG_INT

# Lines that are not an anchor record: JSON of another type, a record
# with a field missing or of the wrong type, nesting past the decoder's
# recursion limit, an integer past Python's digit limit, blank lines.
_NOT_RECORDS = [
    "[1, 2]", '"x"', "3", "null", "true", "NaN", "{}", "[" * 100_000, _LONG_INT, _LONG_RECORD,
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


@pytest.mark.parametrize("kind", ["train", "valid", "dev", "config", "report"])
def test_long_integer_in_each_json_input(workspace, good_lines, tmp_path, kind):
    """An integer past Python's digit limit exits 2 with one error line
    naming the file, and the line of an anchor record."""
    bad = tmp_path / f"{kind}.json"
    if kind in ("train", "valid", "dev"):
        command = "eval-policy" if kind == "dev" else "train-policy"
        bad.write_text(f"{good_lines[0]}\n{_LONG_RECORD}\n", encoding="utf-8")
        argv = _args(workspace)[command]
        argv[argv.index(f"--{kind}") + 1] = str(bad)
        argv, named = [command, *argv], f"{bad}:2: record"
    elif kind == "config":
        bad.write_text('{"seeds": %s}' % _LONG_INT, encoding="utf-8")
        argv, named = ["grad-check", "--config", str(bad)], f"config file {bad}"
    else:
        (tmp_path / "good.json").write_bytes(_report_bytes())
        bad.write_bytes(_LONG_REPORT)
        argv = ["compare", "--reports", str(tmp_path / "good.json"), str(bad)]
        named = f"report {bad}"
    code, err = _run([*argv, "--out", str(tmp_path / "out")])
    assert code == 2, err
    [refusal] = _refusal(err).splitlines()
    assert refusal.startswith(f"error: {named} is not valid JSON: Exceeds the limit"), err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.fixture(scope="module")
def vocab_bytes(workspace):
    return (workspace / "vocab" / "vocab.txt").read_bytes()


@st.composite
def vocab_files(draw, data: bytes):
    """A vocabulary file's bytes and whether every run must refuse it:
    `data` cut short or with one bit flipped, with one of its lines
    repeated elsewhere, or with a reserved token moved from the head."""
    how = draw(st.sampled_from(["damaged", "repeat", "header"]))
    if how == "damaged":
        return draw(damaged(data)), False
    lines = data.decode("utf-8").splitlines(keepends=True)
    if how == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    else:
        lines.insert(draw(st.integers(3, len(lines) - 1)), lines.pop(draw(st.integers(0, 2))))
    return "".join(lines).encode("utf-8"), True


@given(st.data(), st.sampled_from(["mask-corpus", "train-policy", "eval-policy"]))
@settings(max_examples=24, deadline=None)
def test_damaged_vocab_file(workspace, vocab_bytes, data, command):
    with tempfile.TemporaryDirectory() as tmp:
        vocab = Path(tmp) / "vocab.txt"
        text, bad = data.draw(vocab_files(vocab_bytes))
        vocab.write_bytes(text)
        argv = _args(workspace)[command]
        argv[argv.index("--vocab") + 1] = str(vocab)
        code, err = _run([command, *argv, "--out", str(Path(tmp) / "out")])
        assert code in ((2,) if bad else (0, 2)), err
        if code == 2:
            assert str(vocab) in _refusal(err), err
            assert not (Path(tmp) / "out" / "manifest.json").exists()
