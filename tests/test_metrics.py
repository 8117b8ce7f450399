"""Metrics: span micro-F1, accuracy, R-precision, match typing."""

from fractions import Fraction

import numpy as np
import pytest

from trie_decode.markup import SpanAnnotation
from trie_decode.metrics import (
    EvalReport,
    MatchType,
    MetricsError,
    RetrievalReport,
    ed_accuracy,
    ed_report,
    match_type,
    micro_f1_spans,
    r_precision,
)

from helpers import SOCCER_GOLD_TRIPLES, SOCCER_PREDICTED_TRIPLES


def spans(triples):
    return [SpanAnnotation(s, l, e) for s, l, e in triples]


class TestRefusals:
    @pytest.mark.parametrize("counts", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_counts(self, counts):
        with pytest.raises(MetricsError, match="negative counts"):
            EvalReport.from_counts(*counts)

    def test_retrieval_report_of_no_queries(self):
        with pytest.raises(MetricsError, match="no queries"):
            RetrievalReport.from_scores(iter(()))

    def test_ed_report_of_lists_of_different_lengths(self):
        with pytest.raises(MetricsError, match="length mismatch: 2 gold vs 1 predicted"):
            ed_report(["A", "B"], ["A"])


class TestMicroF1:
    def test_soccer_document_point_eight_precision(self):
        report = micro_f1_spans([spans(SOCCER_GOLD_TRIPLES)], [spans(SOCCER_PREDICTED_TRIPLES)])
        assert (report.tp, report.fp, report.fn) == (4, 1, 0)
        assert report.precision == 4 / 5
        assert report.recall == 1.0
        assert report.f1 == 8 / 9
        # exact rationals from the counts
        assert Fraction(report.tp, report.tp + report.fp) == Fraction(4, 5)
        assert Fraction(2 * report.tp, 2 * report.tp + report.fp + report.fn) == Fraction(8, 9)
        assert f"{report.f1:.2f}" == "0.89"

    def test_perfect_prediction(self):
        gold = [spans(SOCCER_GOLD_TRIPLES)]
        report = micro_f1_spans(gold, gold)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_empty_prediction_against_gold(self):
        report = micro_f1_spans([spans(SOCCER_GOLD_TRIPLES[:3])], [[]])
        assert (report.tp, report.fp, report.fn) == (0, 0, 3)
        assert report.precision == 0.0  # something was expected and nothing offered
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_both_empty_is_perfect(self):
        report = micro_f1_spans([[]], [[]])
        assert report.precision == report.recall == report.f1 == 1.0

    def test_entity_must_match_not_just_extent(self):
        gold = [[SpanAnnotation(0, 3, "Spain")]]
        pred = [[SpanAnnotation(0, 3, "Madrid")]]
        report = micro_f1_spans(gold, pred)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)

    def test_document_order_permutation_invariance(self):
        docs_gold = [spans(SOCCER_GOLD_TRIPLES), [], spans(SOCCER_GOLD_TRIPLES[:2])]
        docs_pred = [spans(SOCCER_PREDICTED_TRIPLES), [], spans(SOCCER_GOLD_TRIPLES[:1])]
        forward = micro_f1_spans(docs_gold, docs_pred)
        backward = micro_f1_spans(docs_gold[::-1], docs_pred[::-1])
        assert forward == backward

    def test_f1_bounded_by_twice_min_side(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            tp, fp, fn = (int(x) for x in rng.integers(0, 10, size=3))
            report = EvalReport.from_counts(tp, fp, fn)
            assert report.f1 <= 2 * min(report.precision, report.recall) + 1e-12

    def test_mismatched_document_counts_rejected(self):
        with pytest.raises(MetricsError):
            micro_f1_spans([[]], [[], []])


class TestEdAccuracy:
    def test_all_correct(self):
        assert ed_accuracy(["A", "B"], ["A", "B"]) == 1.0

    def test_half_correct(self):
        assert ed_accuracy(["A", "B"], ["A", "C"]) == 0.5

    def test_matches_micro_f1_with_one_prediction_each(self):
        rng = np.random.default_rng(59)
        names = ["A", "B", "C", "D"]
        for _ in range(50):
            gold = [str(rng.choice(names)) for _ in range(8)]
            pred = [str(rng.choice(names)) for _ in range(8)]
            accuracy = ed_accuracy(gold, pred)
            tp = sum(g == p for g, p in zip(gold, pred))
            report = EvalReport.from_counts(tp, len(gold) - tp, len(gold) - tp)
            assert report.precision == accuracy
            assert report.recall == accuracy
            assert report.f1 == pytest.approx(accuracy)

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            ed_accuracy([], [])


class TestRPrecision:
    def test_single_relevant_at_rank_one(self):
        assert r_precision({"A"}, ["A", "B", "C"]) == 1.0

    def test_two_relevant_one_in_top_two(self):
        assert r_precision({"A", "B"}, ["A", "C", "B"]) == 0.5

    def test_invariant_below_rank_r(self):
        assert r_precision({"A", "B"}, ["A", "B", "C", "D"]) == r_precision(
            {"A", "B"}, ["A", "B", "D", "C"]
        )

    def test_one_iff_all_gold_prefixed(self):
        rng = np.random.default_rng(61)
        universe = [f"n{i}" for i in range(10)]
        for _ in range(100):
            size = int(rng.integers(1, 6))
            gold = set(rng.choice(universe, size=size, replace=False))
            ranked = list(rng.permutation(universe))
            value = r_precision(gold, ranked)
            assert 0.0 <= value <= 1.0
            assert (value == 1.0) == (set(ranked[: len(gold)]) == gold)

    def test_empty_gold_rejected(self):
        with pytest.raises(MetricsError):
            r_precision(set(), ["A"])

    def test_mean_report(self):
        report = RetrievalReport.from_scores([1.0, 0.5])
        assert report.mean == 0.75


class TestMatchType:
    def test_exact(self):
        assert match_type("Superman", "Superman") is MatchType.EXACT_MATCH
        assert match_type("superman", "SUPERMAN") is MatchType.EXACT_MATCH
        assert match_type("  New   York ", "new york") is MatchType.EXACT_MATCH

    def test_partial_shares_a_token(self):
        assert match_type("Metropolis", "Metropolis (comics)") is MatchType.PARTIAL_MATCH

    def test_no_overlap(self):
        assert match_type("1503", "Leonardo da Vinci") is MatchType.NO_MATCH

    def test_partition_fuzz(self):
        rng = np.random.default_rng(67)
        words = ["alpha", "beta", "Gamma", "DELTA", "epsilon"]
        for _ in range(300):
            mention = " ".join(rng.choice(words, size=rng.integers(1, 4)))
            entity = " ".join(rng.choice(words, size=rng.integers(1, 4)))
            label = match_type(mention, entity)
            assert label in (MatchType.EXACT_MATCH, MatchType.PARTIAL_MATCH, MatchType.NO_MATCH)
            normalized_equal = mention.lower().split() == entity.lower().split()
            overlap = bool(set(mention.lower().split()) & set(entity.lower().split()))
            expected = (
                MatchType.EXACT_MATCH
                if normalized_equal
                else MatchType.PARTIAL_MATCH if overlap else MatchType.NO_MATCH
            )
            assert label is expected
