"""Reference tokenizer: one regex match per token, offsets built eagerly.

Every token's id, `(start, end)` and surface text come straight from its
own match object. Tests compare the package's `tokenize`, `token_offsets`,
chunker and anchor alignment against it.
"""

from maskpolicy.corpus import _TOKEN_RE, UNK_ID


def tokenize(text, vocab=None):
    """(ids, offsets, texts) of every token of `text`, as tuples."""
    ids = []
    offsets = []
    texts = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        ids.append(vocab.id_of(tok) if vocab is not None else UNK_ID)
        offsets.append((m.start(), m.end()))
        texts.append(tok)
    return tuple(ids), tuple(offsets), tuple(texts)
