"""Scorers: normalization, hand-checked formulas, objectives."""

import math

import numpy as np
import pytest

from trie_decode.scoring import (
    OracleScorer,
    Scorer,
    ScorerError,
    TableScorer,
    UniformScorer,
    load_table_scorer,
    save_table_scorer,
    sequence_score,
    smoothed_nll,
    train_table_scorer,
)
from trie_decode.vocab import EOS, SOS

from helpers import pool_vocabulary, random_sequences, random_table_scorer


class FixedScorer(Scorer):
    """Explicit per-step distribution, for direct-formula comparisons."""

    def __init__(self, probs):
        self.vocab_size = len(probs)
        self._vector = np.log(np.asarray(probs, dtype=np.float64))

    def next_token_logprobs(self, input_tokens, prefix):
        return self._vector


def logsumexp(vector):
    peak = np.max(vector)
    return peak + np.log(np.sum(np.exp(vector - peak)))


class TestUniform:
    def test_every_entry_is_minus_log_v(self):
        scorer = UniformScorer(4)
        assert np.allclose(scorer.next_token_logprobs((), ()), -math.log(4))

    def test_sequence_score_three_steps(self):
        scorer = UniformScorer(4)
        assert sequence_score(scorer, (), (2, 3, EOS)) == pytest.approx(3 * -math.log(4))


class TestOracle:
    def test_argmax_follows_target(self):
        target = (8, 9, EOS)
        scorer = OracleScorer(target, vocab_size=12)
        for i in range(len(target)):
            logprobs = scorer.next_token_logprobs((), target[:i])
            assert int(np.argmax(logprobs)) == target[i]

    def test_past_target_end_favors_eos(self):
        scorer = OracleScorer((8, EOS), vocab_size=12)
        assert int(np.argmax(scorer.next_token_logprobs((), (8, EOS, 9)))) == EOS

    def test_own_target_is_maximal_among_same_length(self):
        vocab_size = 5
        target = (3, 4, EOS)
        scorer = OracleScorer(target, vocab_size)
        best = sequence_score(scorer, (), target)
        for a in range(vocab_size):
            for b in range(vocab_size):
                if EOS in (a, b):
                    continue
                assert sequence_score(scorer, (), (a, b, EOS)) <= best


class TestTableScorer:
    def test_hand_smoothing_formula(self):
        # one training pair, target "France France" with no EOS step:
        # count(SOS, France) = 1, count(France, France) = 1
        france = 7
        vocab_size = 9
        scorer = train_table_scorer([((), (france, france))], alpha=1.0, vocab_size=vocab_size)
        logprobs = scorer.next_token_logprobs((), (france,))
        assert math.exp(logprobs[france]) == pytest.approx((1 + 1) / (1 + vocab_size))
        assert math.exp(logprobs[EOS]) == pytest.approx(1 / (1 + vocab_size))

    def test_training_counts_by_hand(self):
        france = 7
        scorer = train_table_scorer([((), (france, EOS))], alpha=0.5, vocab_size=9)
        assert scorer.counts == {SOS: {france: 1.0}, france: {EOS: 1.0}}

    def test_empty_training_set_rejected(self):
        with pytest.raises(ScorerError, match="empty training set"):
            train_table_scorer([], alpha=1.0, vocab_size=9)

    def test_empty_target_rejected(self):
        with pytest.raises(ScorerError, match="empty target"):
            train_table_scorer([((), ())], alpha=1.0, vocab_size=9)

    def test_training_twice_doubles_counts_and_keeps_ratios(self):
        pairs = [((), (7, 8, EOS)), ((), (7, EOS))]
        once = train_table_scorer(pairs, alpha=1.0, vocab_size=9)
        twice = train_table_scorer(pairs * 2, alpha=1.0, vocab_size=9)
        for ctx, row in once.counts.items():
            for token, count in row.items():
                assert twice.counts[ctx][token] == 2 * count
        # the per-context maximum-likelihood ratios are scale invariant
        for ctx, row in once.counts.items():
            total_once = sum(row.values())
            total_twice = sum(twice.counts[ctx].values())
            for token in row:
                assert row[token] / total_once == pytest.approx(
                    twice.counts[ctx][token] / total_twice
                )

    def test_two_token_sequence_score_is_sum_of_steps(self):
        france, paris = 7, 8
        vocab_size = 9
        scorer = train_table_scorer(
            [((), (france, paris, EOS))], alpha=1.0, vocab_size=vocab_size
        )
        # hand-evaluated steps of the smoothing formula
        step_sos = math.log((1 + 1) / (1 + vocab_size))
        step_fr = math.log((1 + 1) / (1 + vocab_size))
        step_eos = math.log((1 + 1) / (1 + vocab_size))
        expected = step_sos + step_fr + step_eos
        assert sequence_score(scorer, (), (france, paris, EOS)) == pytest.approx(expected)

    def test_input_conditioning_changes_context(self):
        pairs = [((3,), (7, EOS)), ((4,), (8, EOS))]
        scorer = train_table_scorer(pairs, alpha=0.1, vocab_size=9, input_conditioned=True)
        first = scorer.next_token_logprobs((3,), ())
        second = scorer.next_token_logprobs((4,), ())
        assert int(np.argmax(first)) == 7
        assert int(np.argmax(second)) == 8

    def test_input_memo_never_serves_a_stale_row(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(17)
        seqs = random_sequences(rng, vocab, size=20)
        pairs = [(seqs[i], seqs[i + 1] + (EOS,)) for i in range(0, 20, 2)]
        scorer = train_table_scorer(pairs, 0.5, vocab.size, input_conditioned=True)

        def fresh(inputs, prefix):
            return train_table_scorer(pairs, 0.5, vocab.size, True).next_token_logprobs(inputs, prefix)

        inputs = [p[0] for p in pairs] + [tuple(p[0]) for p in pairs[:3]]
        for _ in range(3):  # interleaved, and equal tuples that are distinct objects
            for source, (_, target) in zip(inputs, pairs * 2):
                for i in range(len(target)):
                    got = scorer.next_token_logprobs(source, target[:i])
                    np.testing.assert_array_equal(got, fresh(source, target[:i]))
        mutable = list(pairs[0][0])
        before = scorer.next_token_logprobs(mutable, ())
        np.testing.assert_array_equal(before, fresh(pairs[0][0], ()))
        mutable[0] = pairs[1][0][0] if pairs[1][0][0] != mutable[0] else mutable[0] + 1
        np.testing.assert_array_equal(
            scorer.next_token_logprobs(mutable, ()), fresh(tuple(mutable), ())
        )

    def test_alpha_must_be_positive(self):
        with pytest.raises(ScorerError):
            TableScorer({}, alpha=0.0, vocab_size=9)


class TestNormalization:
    def test_logsumexp_zero_for_all_scorers(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(17)
        scorers = [
            UniformScorer(vocab.size),
            OracleScorer((8, 9, EOS), vocab.size),
            OracleScorer((10, EOS), vocab.size, on_prob=0.5),
            random_table_scorer(rng, vocab),
            random_table_scorer(rng, vocab, input_conditioned=True),
        ]
        for scorer in scorers:
            for _ in range(40):
                prefix = tuple(int(t) for t in rng.integers(0, vocab.size, size=rng.integers(0, 5)))
                inp = tuple(int(t) for t in rng.integers(0, vocab.size, size=3))
                vector = scorer.next_token_logprobs(inp, prefix)
                assert vector.shape == (vocab.size,)
                assert abs(logsumexp(vector)) < 1e-9


class TestSequenceScore:
    def test_requires_eos_terminated(self):
        scorer = UniformScorer(9)
        with pytest.raises(ScorerError):
            sequence_score(scorer, (), (7, 8))
        with pytest.raises(ScorerError):
            sequence_score(scorer, (), (EOS, 7, EOS))
        with pytest.raises(ScorerError):
            sequence_score(scorer, (), ())

    def test_never_positive(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(19)
        scorer = random_table_scorer(rng, vocab)
        for seq in random_sequences(rng, vocab, size=50):
            assert sequence_score(scorer, (), seq + (EOS,)) <= 0.0

    def test_prefix_consistent_decomposition(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(37)
        scorer = random_table_scorer(rng, vocab)
        for seq in random_sequences(rng, vocab, size=20):
            full = seq + (EOS,)
            stepwise = 0.0
            for i, token in enumerate(full):
                stepwise += float(scorer.next_token_logprobs((), full[:i])[token])
            assert sequence_score(scorer, (), full) == stepwise


class TestSmoothedNll:
    def test_epsilon_zero_equals_negative_sequence_score(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(41)
        scorer = random_table_scorer(rng, vocab)
        for seq in random_sequences(rng, vocab, size=20):
            target = seq + (EOS,)
            assert smoothed_nll(scorer, (), target, 0.0) == pytest.approx(
                -sequence_score(scorer, (), target), abs=1e-12
            )

    def test_uniform_scorer_collapses_both_terms(self):
        scorer = UniformScorer(9)
        target = (7, 8, EOS)
        for eps in (0.0, 0.1, 0.5, 0.9):
            assert smoothed_nll(scorer, (), target, eps) == pytest.approx(
                len(target) * math.log(9), abs=1e-12
            )

    def test_three_class_toy_against_direct_formula(self):
        probs = (0.2, 0.3, 0.5)
        scorer = FixedScorer(probs)
        target = (0, EOS)  # token 0, then end of sequence (id 1)
        eps = 0.1
        smoothing = -(eps / 3) * sum(math.log(p) for p in probs)
        expected = (
            -(1 - eps) * math.log(probs[0])
            + smoothing
            - (1 - eps) * math.log(probs[EOS])
            + smoothing
        )
        assert smoothed_nll(scorer, (), target, eps) == pytest.approx(expected, abs=1e-12)

    def test_loss_drops_when_gold_probability_rises(self):
        # two-point comparison on a single step (gold = EOS): the non-gold
        # mass is rescaled by a common factor, so only p(gold) moves
        eps = 0.1
        low = FixedScorer((0.3, 0.4, 0.3))
        high = FixedScorer((0.15, 0.7, 0.15))
        assert smoothed_nll(high, (), (EOS,), eps) < smoothed_nll(low, (), (EOS,), eps)

    def test_epsilon_out_of_range_rejected(self):
        scorer = UniformScorer(9)
        for eps in (-0.1, 1.0, 1.5):
            with pytest.raises(ScorerError):
                smoothed_nll(scorer, (), (7, EOS), eps)

    def test_target_must_end_with_eos(self):
        scorer = UniformScorer(9)
        with pytest.raises(ScorerError):
            smoothed_nll(scorer, (), (7, 8), 0.1)


class TestTableSerialization:
    def test_round_trip(self, tmp_path):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(43)
        scorer = random_table_scorer(rng, vocab)
        path = str(tmp_path / "scorer.tsv")
        save_table_scorer(scorer, path)
        loaded = load_table_scorer(path)
        assert loaded.alpha == scorer.alpha
        assert loaded.vocab_size == scorer.vocab_size
        assert loaded.counts == scorer.counts
        prefix = (8, 9)
        np.testing.assert_array_equal(
            loaded.next_token_logprobs((), prefix), scorer.next_token_logprobs((), prefix)
        )

    def test_header_round_trips_conditioning(self, tmp_path):
        scorer = train_table_scorer([((3,), (7, EOS))], 0.5, 9, input_conditioned=True)
        path = str(tmp_path / "scorer.tsv")
        save_table_scorer(scorer, path)
        assert load_table_scorer(path).input_conditioned

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("not-a-number\t9\n")
        with pytest.raises(ScorerError):
            load_table_scorer(str(path))

    @pytest.mark.parametrize("flag", ["input_conditioned", "", "input-conditioned\textra"])
    def test_unknown_third_header_column_rejected(self, tmp_path, flag):
        path = tmp_path / "bad.tsv"
        path.write_text(f"0.5\t9\t{flag}\n")
        with pytest.raises(ScorerError, match="bad header"):
            load_table_scorer(str(path))
