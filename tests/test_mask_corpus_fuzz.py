"""`mask-corpus` end to end over messy corpus files: CRLF and lone CR
line ends, U+2028 and U+0085 inside lines, NUL, blank and one-token
lines, and invalid UTF-8. A run exits 0 or 2 and never with a
traceback; a refusal names the file; a success emits every chunk the
reference tokenizer cuts from each line, each reconstructing exactly."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import tokenize_oracle
from maskpolicy.cli import main
from maskpolicy.corpus import Vocab
from maskpolicy.corruption import masked_example_from_json_obj

_VOCAB = ["<pad>", "<unk>", "<mask>", "a", "word", "Word", "May", "1991", ".", ",",
          "\x00", "\u00e9t\u00e9", "_"]

lines = st.one_of(
    st.text(alphabet="a\u00e9t Word_1991.,<>\x00\t\u2028\u0085\u00a0\u3000\u200b\ufeff\u0301",
            max_size=40),
    # Blank, whitespace-only, one-token and long lines.
    st.sampled_from(["", " ", "\t\u2028\u0085 ", "word", "\x00", ".", "May",
                     " ".join(["word"] * 300)]),
)
endings = st.sampled_from([b"\n", b"\r\n", b"\r"])
# Byte sequences that are not UTF-8: a stray continuation byte, a lead
# byte cut short, an encoded surrogate, an overlong form, and 0xFF.
bad_bytes = st.sampled_from([b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xff"])


@st.composite
def corpus_bytes(draw):
    data = b"".join(draw(lines).encode("utf-8") + draw(endings)
                    for _ in range(draw(st.integers(0, 6))))
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(bad_bytes) + data[at:]
    return data


def expected_chunks(data: bytes, vocab: Vocab, L: int) -> dict:
    """(doc id, chunk index) -> reference token ids of every chunk: lines
    cut at \\n, \\r\\n or a lone \\r, blank lines skipped but counted."""
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    chunks = {}
    for line_no, line in enumerate(text.split("\n")):
        if not line.strip():
            continue
        ids = tokenize_oracle.tokenize(line, vocab)[0]
        for index, start in enumerate(range(0, len(ids), L)):
            if 4 * min(L, len(ids) - start) >= L:
                chunks[(f"corpus.txt:{line_no:08d}", index)] = ids[start:start + L]
    return chunks


@given(corpus_bytes(), st.sampled_from(["random15", "randomspan", "salient"]),
       st.sampled_from([2, 5, 128]), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_mask_corpus_on_messy_lines(data, policy, chunk_len, seed):
    vocab = Vocab(_VOCAB)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = root / "corpus.txt"
        corpus.write_bytes(data)
        vocab_path = root / "vocab.txt"
        vocab.save(vocab_path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["mask-corpus", "--corpus", str(corpus), "--vocab", str(vocab_path),
                         "--policy", policy, "--chunk-len", str(chunk_len),
                         "--seed", str(seed), "--out", str(root / "out")])
        assert "Traceback" not in err.getvalue()
        try:
            want = expected_chunks(data, vocab, chunk_len)
        except UnicodeDecodeError:
            assert code == 2
            assert err.getvalue().startswith(f"error: {corpus}:")
            assert not (root / "out" / "manifest.json").exists()
            return
        assert code == 0
        records = [masked_example_from_json_obj(json.loads(line)) for line in
                   (root / "out" / "masked.jsonl").read_text(encoding="utf-8").splitlines()]
        summary = json.loads((root / "out" / "summary.json").read_text(encoding="utf-8"))
    for ex in records:
        assert ex.original_ids() == want[(ex.doc_id, ex.chunk_index)]
    # A chunk is emitted once, or skipped when its policy would mask all of it.
    assert len({(ex.doc_id, ex.chunk_index) for ex in records}) == len(records)
    assert len(records) + summary["skipped_chunks"] == len(want)
