"""Evaluation metrics: span micro-F1, top-1 accuracy, R-precision, match types.

Zero-denominator conventions: precision is 0 when nothing was predicted
unless nothing was expected either (then 1.0); recall mirrors this.  F1 is
computed from the counts as ``2*tp / (2*tp + fp + fn)``, which equals the
harmonic mean of precision and recall and is 0 when their sum is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Iterable, Sequence

from .beam import RankedResult
from .markup import SpanAnnotation
from .vocab import InputError


class MetricsError(InputError):
    """Raised for counts, rankings or span lists that no metric can be computed from."""


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalReport":
        if min(tp, fp, fn) < 0:
            raise MetricsError("negative counts")
        if tp + fp == 0:
            precision = 1.0 if fn == 0 else 0.0
        else:
            precision = tp / (tp + fp)
        if tp + fn == 0:
            recall = 1.0 if fp == 0 else 0.0
        else:
            recall = tp / (tp + fn)
        denominator = 2 * tp + fp + fn
        f1 = 1.0 if denominator == 0 else 2 * tp / denominator
        return cls(tp, fp, fn, precision, recall, f1)


@dataclass(frozen=True)
class RetrievalReport:
    per_query: tuple[float, ...]
    mean: float

    @classmethod
    def from_scores(cls, per_query: Iterable[float]) -> "RetrievalReport":
        scores = tuple(per_query)
        if not scores:
            raise MetricsError("no queries")
        return cls(scores, sum(scores) / len(scores))


class MatchType(Enum):
    EXACT_MATCH = "exact"
    PARTIAL_MATCH = "partial"
    NO_MATCH = "none"


def micro_f1_spans(
    gold: Sequence[Iterable[SpanAnnotation]], pred: Sequence[Iterable[SpanAnnotation]]
) -> EvalReport:
    """Micro-aggregated span F1 over parallel per-document span lists.

    A predicted span is a true positive iff a gold span of the same document
    matches it on start, length, and entity, all three exactly.
    """
    if len(gold) != len(pred):
        raise MetricsError(f"document count mismatch: {len(gold)} gold vs {len(pred)} predicted")
    tp = fp = fn = 0
    for gold_doc, pred_doc in zip(gold, pred):
        gold_set = {(s.start, s.length, s.entity) for s in gold_doc}
        pred_set = {(s.start, s.length, s.entity) for s in pred_doc}
        tp += len(gold_set & pred_set)
        fp += len(pred_set - gold_set)
        fn += len(gold_set - pred_set)
    return EvalReport.from_counts(tp, fp, fn)


def ed_accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    """Fraction of mentions whose top-1 prediction equals the gold entity."""
    report = ed_report(gold, pred)
    if not gold:
        raise MetricsError("no mentions")
    return report.recall


def ed_report(gold: Sequence[str], pred: Sequence[str]) -> EvalReport:
    """Top-1 counts, where ``""`` in ``pred`` stands for an empty ranking.

    A right name is a true positive and a wrong one a false positive; an
    empty ranking is only a miss, i.e. a false negative.
    """
    if len(gold) != len(pred):
        raise MetricsError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    tp = sum(g == p for g, p in zip(gold, pred))
    fp = sum(p != "" and p != g for g, p in zip(gold, pred))
    return EvalReport.from_counts(tp, fp, len(gold) - tp)


def r_precision(gold_relevant: AbstractSet[str], ranked: RankedResult | Sequence[str]) -> float:
    """Precision at rank R, where R is the number of gold-relevant names."""
    names = ranked.names() if isinstance(ranked, RankedResult) else tuple(ranked)
    r = len(gold_relevant)
    if r == 0:
        raise MetricsError("empty gold-relevant set")
    return len(set(names[:r]) & set(gold_relevant)) / r


def _normalize(text: str) -> list[str]:
    return text.lower().split()


def match_type(mention: str, entity: str) -> MatchType:
    """Classify a mention/entity string pair.

    Exact: case-insensitive equality after whitespace normalization.
    Partial: some shared token (case-insensitive) but not exact.
    """
    mention_tokens = _normalize(mention)
    entity_tokens = _normalize(entity)
    if mention_tokens == entity_tokens:
        return MatchType.EXACT_MATCH
    if set(mention_tokens) & set(entity_tokens):
        return MatchType.PARTIAL_MATCH
    return MatchType.NO_MATCH
