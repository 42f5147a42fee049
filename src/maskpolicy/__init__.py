"""Learned and heuristic masking policies for span denoising corpora.

Train a small bidirectional recurrent span extractor on (context,
answer) pairs, then deploy it (or a random / salient-span baseline) to
corrupt a tokenized corpus into mask-and-reconstruct examples.
"""

from .autodiff import Tensor, backward, grad_check, no_grad
from .baselines import (
    MaskDecisions,
    SalientKind,
    SalientTag,
    random_span_mask,
    random_token_mask,
    salient_spans,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    AnchorExample,
    Chunk,
    Span,
    TokenSequence,
    Vocab,
    align_answer,
    build_vocab,
    chunk_document,
    load_anchor_dataset,
    token_offsets,
    tokenize,
)
from .corruption import (
    MaskedExample,
    MaskSummary,
    PolicySpec,
    corrupt,
    mask_corpus,
    read_masked_jsonl,
    write_masked_jsonl,
    write_summary,
)
from .errors import MaskPolicyError
from .evaluation import (
    PolicyReport,
    answer_coverage,
    compare_policies,
    read_report,
    span_hit_metrics,
    token_f1,
    write_report,
)
from .policy import (
    PolicyParams,
    ScoredSpan,
    forward,
    init_policy_params,
    score_batch,
    score_positions,
    select_span,
    top_k_spans,
)
from .training import TrainConfig, TrainingLog, grad_check_suite, span_loss, train_policy

__version__ = "0.1.0"

__all__ = [
    "AnchorExample",
    "Chunk",
    "MaskDecisions",
    "MaskPolicyError",
    "MaskSummary",
    "MaskedExample",
    "PolicyParams",
    "PolicyReport",
    "PolicySpec",
    "SalientKind",
    "SalientTag",
    "ScoredSpan",
    "Span",
    "Tensor",
    "TokenSequence",
    "TrainConfig",
    "TrainingLog",
    "Vocab",
    "align_answer",
    "answer_coverage",
    "backward",
    "build_vocab",
    "chunk_document",
    "compare_policies",
    "corrupt",
    "forward",
    "grad_check",
    "grad_check_suite",
    "init_policy_params",
    "load_anchor_dataset",
    "load_checkpoint",
    "mask_corpus",
    "no_grad",
    "random_span_mask",
    "random_token_mask",
    "read_masked_jsonl",
    "read_report",
    "salient_spans",
    "save_checkpoint",
    "score_batch",
    "score_positions",
    "select_span",
    "span_hit_metrics",
    "span_loss",
    "token_f1",
    "token_offsets",
    "tokenize",
    "top_k_spans",
    "train_policy",
    "write_masked_jsonl",
    "write_report",
    "write_summary",
]
