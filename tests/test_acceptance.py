"""Deliverable acceptance checks.

Each test verifies one shipped property end to end and prints a single
verdict line (visible even under capture) so a full run reads as an
audit report. Budgets and tolerances are pinned in the assertions.
"""

import time
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from maskpolicy.baselines import (
    random_span_proposer,
    random_token_mask,
    salient_span_mask_with_fallback,
    salient_spans,
)
from maskpolicy.checkpoint import save_checkpoint
from maskpolicy import policy
from maskpolicy.cli import main
from maskpolicy.corpus import (
    Chunk,
    Span,
    chunk_document,
    iter_documents,
    token_offsets,
    tokenize,
)
from maskpolicy.corruption import PolicySpec, mask_corpus
from maskpolicy.evaluation import span_hit_metrics
from maskpolicy.policy import ScoredSpan, forward, init_policy_params, select_span, top_k_spans
from maskpolicy.seeding import derive_rng
from maskpolicy.training import TrainConfig, grad_check_suite, train_policy

from scalar_oracle import policy_forward, weights_from_params
from synth import synth_context, synth_examples, synth_vocab


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"  [{name:<16}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


# --- shared sentinel-task artifacts ------------------------------------

SENTINEL_CFG = TrainConfig(epochs=6, learning_rate=3e-3, batch_size=16,
                           optimizer="adam", max_input_len=24, seed=0, d_emb=24, d_h=24)
# The span length the sentinel task's policies are evaluated at.
SENTINEL_MAX_SPAN_LEN = 5


@pytest.fixture(scope="module")
def sentinel_data():
    vocab = synth_vocab()
    assert len(vocab) == 50
    data = synth_examples(700, seed=11)
    return vocab, data[:500], data[500:600], data[600:700]


@pytest.fixture(scope="module")
def sentinel_model(sentinel_data):
    vocab, train, valid, _ = sentinel_data
    t0 = time.perf_counter()
    params, _ = train_policy(train, valid, SENTINEL_CFG, vocab_size=len(vocab))
    return params, time.perf_counter() - t0


@pytest.fixture(scope="module")
def learned_report(sentinel_data, sentinel_model):
    _, _, _, test = sentinel_data
    params, _ = sentinel_model
    return span_hit_metrics(params, test, "learned-top1",
                            max_span_len=SENTINEL_MAX_SPAN_LEN,
                            max_input_len=SENTINEL_CFG.max_input_len)


def synth_corpus_file(path, min_tokens, seed):
    """Sentinel-style corpus with at least min_tokens whitespace tokens."""
    rng = np.random.default_rng(seed)
    lines, total = [], 0
    while total < min_tokens:
        line, _ = synth_context(rng)
        lines.append(line)
        total += len(line.split())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return total


# --- gradient correctness ----------------------------------------------


def test_gradient_suite(capsys):
    t0 = time.perf_counter()
    result = grad_check_suite(n_seeds=100, max_len=12)
    dt = time.perf_counter() - t0
    ok = result["pass"] and result["seeds"] >= 100 and dt < 120.0
    verdict(capsys, "grad-suite", ok,
            f"max rel err {result['max_rel_err']:.2e} (tol 1e-4) over "
            f"{result['seeds']} seeds in {dt:.1f}s (budget 120s)")


# --- span ranking vs brute force ---------------------------------------


def brute_force_spans(start, end, k, max_span_len):
    """Repeated full-scan extraction of the best remaining span."""
    n = len(start)
    cands = [(float(start[i]) + float(end[j]), i, j)
             for i in range(n) for j in range(i, min(i + max_span_len, n))]
    picked = []
    while cands and len(picked) < k:
        best = 0
        for t in range(1, len(cands)):
            s, i, j = cands[t]
            bs, bi, bj = cands[best]
            if s > bs or (s == bs and (i, j) < (bi, bj)):
                best = t
        picked.append(cands.pop(best))
    return picked


def test_span_ranking_matches_brute_force(capsys):
    rng = np.random.default_rng(123)
    t0 = time.perf_counter()
    checked = 0
    mismatch = None
    for inst in range(1000):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(1, 41))
        msl = int(rng.integers(1, 13))
        if inst % 2 == 0:
            # integer logits force score ties, exercising the tie-break rule
            start = rng.integers(-3, 4, size=n).astype(np.float64)
            end = rng.integers(-3, 4, size=n).astype(np.float64)
        else:
            start = rng.normal(size=n)
            end = rng.normal(size=n)
        got = [(s.span.start, s.span.end, s.score)
               for s in top_k_spans(start, end, k=k, max_span_len=msl)]
        want = [(i, j, s) for s, i, j in brute_force_spans(start, end, k, msl)]
        if got != want:
            mismatch = (inst, got[:3], want[:3])
            break
        checked += 1
    dt = time.perf_counter() - t0
    ok = mismatch is None and checked == 1000 and dt < 10.0
    verdict(capsys, "span-ranking", ok,
            f"{checked}/1000 instances exact (ties included) in {dt:.2f}s "
            f"(budget 10s)" + (f"; first mismatch {mismatch}" if mismatch else ""))


# --- forward pass vs scalar reference ----------------------------------


def test_forward_matches_scalar_reference(capsys):
    worst = 0.0
    for t in range(20):
        rng = np.random.default_rng(300 + t)
        vocab_size = int(rng.integers(5, 30))
        d_emb = int(rng.integers(2, 6))
        d_h = int(rng.integers(2, 5))
        length = int(rng.integers(1, 13))
        ids = [int(x) for x in rng.integers(0, vocab_size, size=length)]
        params = init_policy_params(vocab_size, d_emb, d_h, seed=400 + t)
        start, end = forward(params, ids)
        ref_start, ref_end = policy_forward(weights_from_params(params), ids)
        worst = max(worst,
                    float(np.max(np.abs(start.data - np.asarray(ref_start)))),
                    float(np.max(np.abs(end.data - np.asarray(ref_end)))))
    ok = worst < 1e-10
    verdict(capsys, "scalar-forward", ok,
            f"max abs diff {worst:.2e} (tol 1e-10) over 20 random pairs")


# --- learnability and separation on the sentinel task ------------------


def test_sentinel_task_learnability(capsys, sentinel_model, learned_report):
    _, train_secs = sentinel_model
    ok = learned_report.em_at_1 >= 0.95 and train_secs < 300.0
    verdict(capsys, "learnability", ok,
            f"test EM@1 {learned_report.em_at_1:.3f} (floor 0.95) on 500/100/100 "
            f"split, vocab 50; trained in {train_secs:.1f}s (budget 300s)")


def test_policy_separation(capsys, sentinel_data, learned_report):
    _, _, _, test = sentinel_data
    baseline = span_hit_metrics(
        random_span_proposer(SENTINEL_MAX_SPAN_LEN), test, "randomspan",
        max_span_len=SENTINEL_MAX_SPAN_LEN,
        max_input_len=SENTINEL_CFG.max_input_len, seed=0)
    gap = learned_report.em_at_5 - baseline.em_at_5
    ok = gap >= 0.5
    verdict(capsys, "separation", ok,
            f"learned em@5 {learned_report.em_at_5:.3f} vs randomspan "
            f"{baseline.em_at_5:.3f}: gap {gap:.3f} (floor 0.5)")


# --- corruption reconstruction over a large corpus ----------------------


def test_corruption_reconstructs_source(capsys, tmp_path_factory,
                                        sentinel_data, sentinel_model):
    vocab, _, _, _ = sentinel_data
    params, _ = sentinel_model
    path = tmp_path_factory.mktemp("deploy") / "corpus.txt"
    n_tokens = synth_corpus_file(path, min_tokens=100_000, seed=77)

    chunk_len = SENTINEL_CFG.max_input_len
    reference = {}
    for doc_id, text in iter_documents([path]):
        toks = tokenize(text, vocab)
        for chunk in chunk_document(toks, L=chunk_len, doc_id=doc_id):
            reference[(doc_id, chunk.chunk_index)] = chunk.tokens.ids

    specs = [
        PolicySpec(kind="random15"),
        PolicySpec(kind="randomspan", max_span_len=5),
        PolicySpec(kind="salient", max_span_len=5),
        PolicySpec(kind="learned", mode="top1", params=params,
                   vocab_hash=vocab.content_hash(), max_span_len=5,
                   max_input_len=chunk_len),
    ]
    t0 = time.perf_counter()
    checked = 0
    bad = 0
    for spec in specs:
        examples, _ = mask_corpus([path], vocab, spec,
                                  chunk_len=chunk_len, global_seed=5)
        assert examples
        for ex in examples:
            checked += 1
            if ex.original_ids() != reference[(ex.doc_id, ex.chunk_index)]:
                bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and n_tokens >= 100_000 and checked > 0
    verdict(capsys, "reconstruction", ok,
            f"{checked - bad}/{checked} examples reconstruct their chunk over "
            f"{n_tokens} tokens under 4 policies in {dt:.1f}s")


# --- statistical behavior of the stochastic policies --------------------


def test_mask_statistics(capsys):
    # masked-token rate over >= 1e6 tokens, 3 sigma binomial band
    tokens = tokenize(" ".join("w" for _ in range(128)))
    masked = 0
    total = 0
    n_chunks = 7813  # 7813 * 128 = 1,000,064 tokens
    for i in range(n_chunks):
        chunk = Chunk(tokens, "rate", i)
        d = random_token_mask(chunk, rng=derive_rng(0, "rate", i))
        masked += int(d.d.sum())
        total += len(tokens)
    rate = masked / total
    sigma = (0.15 * 0.85 / total) ** 0.5
    ok_rate = abs(rate - 0.15) <= 3 * sigma

    # top-5 sampling uniform over a fixed candidate list
    cands = [ScoredSpan(Span(i, i), float(10 - i)) for i in range(8)]
    picks = Counter(
        select_span(cands, "top5", np.random.default_rng(9000 + t)).start
        for t in range(5000))
    assert set(picks) == {0, 1, 2, 3, 4}
    _, p_top5 = stats.chisquare([picks[i] for i in range(5)])

    # salient choice uniform over a fixed tag set
    chunk = Chunk(tokenize("he met Alice and Bob in 1991 near Paris"), "s", 0)
    tags = [t.span for t in salient_spans(chunk)]
    assert len(tags) == 4
    chosen = Counter(
        (s.start, s.end) for s in
        (salient_span_mask_with_fallback(chunk, np.random.default_rng(7000 + t))[0]
         for t in range(4000)))
    assert set(chosen) == {(t.start, t.end) for t in tags}
    _, p_salient = stats.chisquare([chosen[(t.start, t.end)] for t in tags])

    ok = ok_rate and p_top5 > 0.01 and p_salient > 0.01
    verdict(capsys, "mask-stats", ok,
            f"rate {rate:.5f} in 0.15 +- {3 * sigma:.5f} over {total} tokens; "
            f"chi^2 p: top5 {p_top5:.3f}, salient {p_salient:.3f} (floor 0.01)")


# --- byte-identical deployment -----------------------------------------


def test_deterministic_deployment(capsys, tmp_path_factory,
                                  sentinel_data, sentinel_model):
    vocab, _, _, _ = sentinel_data
    params, _ = sentinel_model
    root = tmp_path_factory.mktemp("determinism")
    corpus = root / "corpus.txt"
    synth_corpus_file(corpus, min_tokens=10_000, seed=99)
    vocab_path = root / "vocab.txt"
    vocab.save(vocab_path)
    ckpt = root / "checkpoint.json"
    save_checkpoint(ckpt, params, vocab,
                    hyperparameters=SENTINEL_CFG.hyperparameters())

    def run(label, workers, batch=policy.SCORE_BATCH):
        out = root / label
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policy, "SCORE_BATCH", batch)
            code = main(["mask-corpus", "--corpus", str(corpus),
                         "--vocab", str(vocab_path), "--policy", "learned",
                         "--checkpoint", str(ckpt), "--mode", "top5",
                         "--seed", "3", "--chunk-len", "24", "--max-span-len", "5",
                         "--workers", str(workers), "--out", str(out)])
        assert code == 0
        return ((out / "masked.jsonl").read_bytes(),
                (out / "summary.json").read_bytes())

    t0 = time.perf_counter()
    runs = [run("repeat_a", 1), run("repeat_b", 1), run("w2", 2), run("w8", 8),
            run("b1", 1, batch=1), run("b7", 1, batch=7), run("b7_w2", 2, batch=7)]
    dt = time.perf_counter() - t0
    ok = all(r == runs[0] for r in runs[1:])
    verdict(capsys, "determinism", ok,
            f"byte-identical masked.jsonl+summary.json across repeat runs, "
            f"worker counts 1, 2, 8 and scoring batch sizes 1, 7, "
            f"{policy.SCORE_BATCH} in {dt:.1f}s")


# --- salient tagger on reference contexts ------------------------------

_REFERENCE_CONTEXTS = [
    ('Jann Simon Wenner (born January 7, 1946) is the co-founder and '
     'publisher of the popular culture biweekly magazine "Rolling Stone", '
     'and former owner of "Men\'s Journal" magazine. Born in New York City, '
     'Wenner graduated from Chadwick School and later attended the '
     'University of California, Berkeley.',
     ["January 7, 1946", "Rolling Stone", "New York"]),
    ('Cape Fear is a 1991 American psychological thriller film directed by '
     'Martin Scorsese and a remake of the 1962 film of the same name. It '
     'stars Robert De Niro, Nick Nolte, Jessica Lange, Joe Don Baker, '
     'Juliette Lewis, Robert Mitchum, and Gregory Peck in his final film '
     'role.',
     ["Cape Fear", "1991", "Robert De Niro", "Nick Nolte"]),
]


def test_tagger_reference_fixtures(capsys):
    missed = []
    hits = 0
    for text, highlights in _REFERENCE_CONTEXTS:
        chunk = Chunk(tokenize(text), "ref", 0)
        offsets = token_offsets(text)
        ranges = [(offsets[tag.span.start][0], offsets[tag.span.end][1])
                  for tag in salient_spans(chunk)]
        for fixture in highlights:
            pos = text.index(fixture)
            covered = any(a <= pos and pos + len(fixture) <= b
                          for a, b in ranges)
            hits += int(covered)
            if not covered:
                missed.append(fixture)
    ok = not missed
    verdict(capsys, "tagger-fixtures", ok,
            f"{hits}/7 reference highlights tagged"
            + (f"; missed {missed}" if missed else ""))
