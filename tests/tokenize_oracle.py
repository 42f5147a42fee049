"""Reference tokenizer: one regex match per token, offsets built eagerly.

This is the package's tokenizer as it was before `tokenize` started
finding offsets lazily. Every token's `(start, end)` comes straight from
its match object, and the result goes through the checked public
`TokenSequence` constructor. Tests compare the package's tokenizer and
chunker against it.
"""

from maskpolicy.corpus import _TOKEN_RE, UNK_ID, TokenSequence


def tokenize(text, vocab=None):
    ids = []
    offsets = []
    texts = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(0)
        ids.append(vocab.id_of(tok) if vocab is not None else UNK_ID)
        offsets.append((m.start(), m.end()))
        texts.append(tok)
    return TokenSequence(tuple(ids), tuple(offsets), tuple(texts))
