"""Scorers: normalization, hand-checked formulas, objectives."""

import math
import re
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from trie_decode import scoring
from trie_decode.beam import BeamConfig, beam_search, rank_entities
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
from trie_decode.scoring import _context, _input_key
from trie_decode.trie import build_trie
from trie_decode.vocab import EOS, SOS

from helpers import pool_vocabulary, random_sequences, random_table_scorer


class FixedScorer(Scorer):
    """Explicit per-step distribution, for direct-formula comparisons."""

    def __init__(self, probs):
        self.vocab_size = len(probs)
        self._vector = np.log(np.asarray(probs, dtype=np.float64))

    def next_token_logprobs(self, input_tokens, prefix):
        return self._vector


class VectorScorer(FixedScorer):
    """One log-probability vector at every step, taken as given."""

    def __init__(self, vector):
        self.vocab_size = len(vector)
        self._vector = vector


def logsumexp(vector):
    peak = np.max(vector)
    return peak + np.log(np.sum(np.exp(vector - peak)))


class TestUniform:
    def test_every_entry_is_minus_log_v(self):
        scorer = UniformScorer(4)
        assert np.allclose(scorer.next_token_logprobs((), ()), -math.log(4))

    def test_an_empty_vocabulary_is_refused(self):
        with pytest.raises(ScorerError, match="vocab_size must be positive"):
            UniformScorer(0)

    def test_sequence_score_three_steps(self):
        scorer = UniformScorer(4)
        assert sequence_score(scorer, (), (2, 3, EOS)) == pytest.approx(3 * -math.log(4))


class TestZeroCountTable:
    """The uniform scorer is the smoothed table with no counts: every row is ``1 / V``."""

    def test_holds_no_row_code_of_its_own(self):
        assert issubclass(UniformScorer, TableScorer)
        assert [name for name, value in vars(UniformScorer).items() if callable(value)] == ["__init__"]

    @pytest.mark.parametrize("vocab_size", [1, 2, 2009])
    def test_every_row_is_one_read_only_object_bit_for_bit(self, vocab_size):
        scorer = UniformScorer(vocab_size)
        row = scorer.next_token_logprobs((), ())
        assert_same_bits(row, np.full(vocab_size, -np.log(vocab_size)))
        assert not row.flags.writeable
        for source in ((), (3,), [7, 8]):
            for prefix in ((), (0,), (vocab_size - 1,), (0, vocab_size - 1)):
                assert scorer.next_token_logprobs(source, prefix) is row

    def test_beam_search_and_rank_entities_match_an_empty_table(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(47)
        seqs = random_sequences(rng, vocab, size=40)
        trie = build_trie(seqs, vocab.size)
        for config in (BeamConfig(k=5), BeamConfig(k=40, length_normalize=False)):
            for source in ((), (9, 10)):
                uniform, empty = UniformScorer(vocab.size), TableScorer({}, 0.5, vocab.size)
                assert beam_search(uniform, source, trie, config) == beam_search(empty, source, trie, config)
                assert rank_entities(uniform, source, trie, config, vocab) == rank_entities(
                    empty, source, trie, config, vocab
                )

    def test_saves_and_loads_as_a_table(self, tmp_path):
        scorer = UniformScorer(2009)
        path = str(tmp_path / "uniform.tsv")
        save_table_scorer(scorer, path)
        loaded = load_table_scorer(path)
        assert (loaded.counts, loaded.vocab_size, loaded.input_conditioned) == ({}, 2009, False)
        for prefix in ((), (7,), (7, 2008)):
            assert_same_bits(loaded.next_token_logprobs((), prefix), scorer.next_token_logprobs((), prefix))

    def test_a_huge_vocabulary_allocates_no_row_until_first_use(self):
        tracemalloc.start()
        try:
            scorer = UniformScorer(2**40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scorer.vocab_size == 2**40
        assert peak < 1 << 20


class TestOracle:
    def test_argmax_follows_target(self):
        target = (8, 9, EOS)
        scorer = OracleScorer(target, vocab_size=12)
        for i in range(len(target)):
            logprobs = scorer.next_token_logprobs((), target[:i])
            assert int(np.argmax(logprobs)) == target[i]

    def test_fewer_than_two_ids_are_refused(self):
        with pytest.raises(ScorerError, match="vocab_size must be at least 2"):
            OracleScorer((EOS,), 1)

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_a_target_id_out_of_range_is_refused(self, bad):
        with pytest.raises(ScorerError, match="target token out of range"):
            OracleScorer((8, bad, EOS), 12)

    def test_past_target_end_favors_eos(self):
        scorer = OracleScorer((8, EOS), vocab_size=12)
        assert int(np.argmax(scorer.next_token_logprobs((), (8, EOS, 9)))) == EOS

    @pytest.mark.parametrize("vocab_size", [2, 12, 2000])
    def test_scores_are_pinned_bit_for_bit(self, vocab_size):
        # 1.0 - 0.9 is not 0.1 in binary: the off-target score keeps the subtraction
        vector = OracleScorer((EOS,), vocab_size).next_token_logprobs((), ())
        assert vector[EOS] == np.log(0.9)
        assert vector[0] == np.log((1.0 - 0.9) / (vocab_size - 1))

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

    @pytest.mark.parametrize("bad", [9, -1], ids=["vocab-size", "negative"])
    def test_target_token_out_of_range_rejected(self, bad):
        with pytest.raises(ScorerError) as refused:
            train_table_scorer([((), (7, EOS)), ((), (7, bad, EOS))], alpha=1.0, vocab_size=9)
        assert str(refused.value) == f"token id {bad} out of range"

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

    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_input_id_outside_u32_is_a_scorer_error(self, bad):
        scorer = train_table_scorer([((3,), (7, EOS))], 0.5, 9, input_conditioned=True)
        with pytest.raises(ScorerError, match=f"input token id {bad} does not fit"):
            scorer.next_token_logprobs((3, bad), ())
        with pytest.raises(ScorerError, match=f"input token id {bad} does not fit"):
            train_table_scorer([((bad,), (7, EOS))], 0.5, 9, input_conditioned=True)
        # the unconditioned model never packs the input
        plain = train_table_scorer([((bad,), (7, EOS))], 0.5, 9)
        assert int(np.argmax(plain.next_token_logprobs((bad,), ()))) == 7

    @pytest.mark.parametrize("bad", [3.7, np.float64(3.0), "5", None])
    def test_non_integer_input_id_is_a_scorer_error(self, bad):
        # never truncated: 3.7 must not share the rows of 3
        scorer = train_table_scorer([((3,), (7, EOS))], 0.5, 9, input_conditioned=True)
        message = re.escape(f"input token id {bad!r} is not an integer")
        with pytest.raises(ScorerError, match=message):
            scorer.next_token_logprobs((3, bad), ())
        with pytest.raises(ScorerError, match=message):
            train_table_scorer([((bad,), (7, EOS))], 0.5, 9, input_conditioned=True)

    def test_an_input_that_is_not_iterable_is_a_scorer_error(self):
        scorer = train_table_scorer([((7, 8), (9, EOS))], 0.5, 12, input_conditioned=True)
        with pytest.raises(ScorerError, match="input tokens must be an iterable of ids, not int"):
            scorer.next_token_logprobs(5, ())
        with pytest.raises(ScorerError, match="input tokens must be an iterable of ids, not NoneType"):
            train_table_scorer([(None, (9, EOS))], 0.5, 12, input_conditioned=True)

    def test_a_used_up_iterator_with_a_bad_id_is_a_scorer_error(self):
        scorer = train_table_scorer([((7, 8), (9, EOS))], 0.5, 12, input_conditioned=True)
        with pytest.raises(ScorerError, match="input token id 'x' is not an integer"):
            scorer.next_token_logprobs((t for t in [7, "x"]), ())

    def test_input_key_is_the_crc_of_little_endian_u32_ids(self):
        rng = np.random.default_rng(31)
        sources = [(), (0,), (2**32 - 1, 5), tuple(int(t) for t in rng.integers(0, 2**32, size=72))]
        for source in sources:
            want = reference_context(True, source, ())
            for form in (source, list(source), np.array(source, dtype=np.uint32), np.array(source, dtype=np.int64)):
                assert _context(_input_key(form), SOS) == want

    def test_alpha_must_be_positive(self):
        with pytest.raises(ScorerError):
            TableScorer({}, alpha=0.0, vocab_size=9)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_alpha_must_be_finite(self, alpha):
        with pytest.raises(ScorerError, match="alpha must be positive and finite"):
            TableScorer({}, alpha=alpha, vocab_size=9)

    @pytest.mark.parametrize("count", [float("nan"), float("inf"), -1.0])
    def test_counts_must_be_finite_and_non_negative(self, count):
        with pytest.raises(ScorerError, match="count must be non-negative and finite"):
            TableScorer({0: {7: count}}, alpha=0.5, vocab_size=9)

    @pytest.mark.parametrize(
        "alpha, row", [(0.5, {7: 1e308, 8: 1e308}), (1e308, {7: 1.0}), (5e-324, {7: 1e9})],
        ids=["counts-overflow", "alpha-overflow", "alpha-underflow"],
    )
    def test_rows_whose_probabilities_leave_the_floats_rejected(self, alpha, row):
        with pytest.raises(ScorerError, match="context 0: probabilities overflow or underflow"):
            TableScorer({0: row}, alpha=alpha, vocab_size=9)

    @pytest.mark.parametrize(
        "conditioned, ctx",
        [(False, -5), (False, 9), (False, 99999999999), (True, -5), (True, 2**31), (True, 4294967296)],
        ids=["plain-negative", "plain-vocab-size", "plain-huge", "input-negative", "input-2^31", "input-2^32"],
    )
    def test_context_no_step_can_reach_rejected(self, tmp_path, conditioned, ctx):
        top = 2**31 - 1 if conditioned else 8
        message = f"^context {ctx} is outside 0..{top}, so no step can reach it$"
        with pytest.raises(ScorerError, match=message):
            TableScorer({0: {7: 1.0}, ctx: {7: 0.0}}, 0.5, 9, input_conditioned=conditioned)
        header = "0.5\t9\tinput-conditioned" if conditioned else "0.5\t9"
        path = tmp_path / "table.tsv"
        path.write_text(f"{header}\n0\t7\t1\n{ctx}\t7\t1\n")
        with pytest.raises(ScorerError, match=message.replace("^", "^line 3: ")):
            load_table_scorer(str(path))
        edges = TableScorer({0: {7: 1.0}, top: {7: 1.0}}, 0.5, 9, input_conditioned=conditioned)
        assert sorted(edges.counts) == [0, top]


def reference_context(input_conditioned, input_tokens, prefix):
    """The documented context id of one scoring step."""
    prev = prefix[-1] if prefix else SOS
    if not input_conditioned:
        return prev
    packed = b"".join(int(t).to_bytes(4, "little") for t in input_tokens)
    return (zlib.crc32(packed) * 0x10001 + prev) & 0x7FFFFFFF


def reference_row(scorer, ctx):
    """The smoothing formula over a whole row, then one ``np.log``."""
    table = scorer.counts.get(ctx)
    if table is None:
        return np.full(scorer.vocab_size, -np.log(scorer.vocab_size))
    probs = np.full(scorer.vocab_size, scorer.alpha)
    for token, count in table.items():
        probs[token] += count
    probs /= sum(table.values()) + scorer.alpha * scorer.vocab_size
    return np.log(probs)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def random_float_table(rng, vocab_size, inputs=None):
    """Integer and fractional counts on about 70% of the contexts, keyed by
    each of ``inputs`` when given (an input-conditioned scorer)."""
    counts = {}
    for source in inputs or [None]:
        for prev in range(vocab_size):
            if rng.random() < 0.3:
                continue
            ctx = reference_context(inputs is not None, source, (prev,))
            tokens = rng.choice(vocab_size, size=int(rng.integers(1, 6)), replace=False)
            counts[ctx] = {
                int(t): float(rng.integers(1, 20)) if rng.random() < 0.5 else float(rng.random() * 50)
                for t in tokens
            }
    alpha = float(rng.choice((0.01, 0.1, 0.5, 1.0, 3.7)))
    return TableScorer(counts, alpha, vocab_size, input_conditioned=inputs is not None)


class TestTableScorerRows:
    """A row is kept only while it can be asked for again, and every row it
    builds is the whole-row formula bit for bit."""

    @pytest.mark.parametrize("conditioned", [False, True], ids=["plain", "input-conditioned"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_the_whole_row_formula_bit_for_bit(self, seed, conditioned):
        rng = np.random.default_rng(seed)
        vocab_size = int(rng.integers(9, 40))
        inputs = [()] + [
            tuple(int(t) for t in rng.integers(0, 2**32, size=int(rng.integers(1, 4))))
            for _ in range(4)
        ]
        scorer = random_float_table(rng, vocab_size, inputs if conditioned else None)
        steps = [
            (source, prefix)
            for source in inputs + [(99,)]  # trained on nothing
            for prefix in [()] + [(3, prev) for prev in range(vocab_size)]
        ]
        interleaved = [steps[i] for i in rng.permutation(len(steps))]
        for source, prefix in steps + interleaved + steps:
            want = reference_row(scorer, reference_context(conditioned, source, prefix))
            assert_same_bits(scorer.next_token_logprobs(source, prefix), want)
            assert_same_bits(scorer.next_token_logprobs(list(source), list(prefix)), want)

    def test_inputs_sharing_a_crc_share_their_rows(self):
        first, second = (3, 7), (3681617474, 6)
        assert reference_context(True, first, ()) == reference_context(True, second, ())
        target = (9, 10, EOS)
        scorer = train_table_scorer([(first, target)], 0.5, 12, input_conditioned=True)
        for source in (first, second, list(second), first, second):
            for i in range(len(target)):
                want = reference_row(scorer, reference_context(True, first, target[:i]))
                assert_same_bits(scorer.next_token_logprobs(source, target[:i]), want)
        assert int(np.argmax(scorer.next_token_logprobs(second, ()))) == 9
        assert scorer.next_token_logprobs(second, ()) is scorer.next_token_logprobs(first, ())

    def test_one_store_keeps_plain_rows_and_replaces_conditioned_ones(self):
        pairs = [((3,), (7, EOS)), ((4,), (8, EOS))]
        plain = train_table_scorer(pairs, 0.5, 9)
        for prefix in [(), (7,)]:
            row = plain.next_token_logprobs((3,), prefix)
            assert plain.next_token_logprobs((4,), prefix) is row
            assert plain.next_token_logprobs([5, 6], prefix) is row
        conditioned = train_table_scorer(pairs, 0.5, 9, input_conditioned=True)
        source = (3,)
        first = conditioned.next_token_logprobs(source, ())
        equal = tuple([3])
        assert equal is not source
        assert conditioned.next_token_logprobs(equal, ()) is first  # same crc, same scope
        assert int(np.argmax(conditioned.next_token_logprobs((4,), ()))) == 8
        again = conditioned.next_token_logprobs(source, ())
        assert again is not first  # the crc changed twice, so the row was built afresh
        assert_same_bits(again, first)

    def test_memory_stays_flat_as_inputs_go_by(self):
        vocab_size = 2000
        rng = np.random.default_rng(5)
        names = [tuple(int(t) for t in rng.integers(7, vocab_size, size=4)) for _ in range(30)]
        trie = build_trie(names, vocab_size)
        pairs = [((i, 7), names[i % len(names)] + (EOS,)) for i in range(220)]
        scorer = train_table_scorer(pairs, 0.5, vocab_size, input_conditioned=True)
        config = BeamConfig(k=4, max_steps=6)
        tracemalloc.start()
        try:
            for source, _ in pairs[:20]:
                beam_search(scorer, source, trie, config)
            warm = tracemalloc.get_traced_memory()[0]
            for source, _ in pairs[20:]:
                beam_search(scorer, source, trie, config)
            grown = tracemalloc.get_traced_memory()[0] - warm
        finally:
            tracemalloc.stop()
        # a row per context would be at least 200 rows
        assert grown < 3 * vocab_size * 8

    def test_threads_sharing_a_scorer_read_only_right_rows(self):
        rng = np.random.default_rng(23)
        vocab_size = 30
        inputs = [(i, 2 * i) for i in range(6)]
        scorer = random_float_table(rng, vocab_size, inputs)
        want = {
            (source, prev): reference_row(scorer, reference_context(True, source, (prev,)))
            for source in inputs for prev in range(vocab_size)
        }
        wrong = []

        def work(offset):
            for r in range(600):
                source, prev = inputs[(offset + r // 7) % len(inputs)], (offset * 11 + r) % vocab_size
                got = scorer.next_token_logprobs(source, (prev,))
                if not np.array_equal(got.view(np.int64), want[source, prev].view(np.int64)):
                    wrong.append((source, prev))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestTableScorerRowCache:
    """A scope's rows are keyed by the previous token, and a cold row is filled from a cached count shape."""

    def test_a_search_builds_a_row_and_a_context_once_per_previous_token(self, monkeypatch):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(43)
        inputs = [tuple(int(t) for t in rng.integers(0, 2**32, size=3)) for _ in range(4)]
        scorer = random_float_table(rng, vocab.size, inputs)
        trie = build_trie(random_sequences(rng, vocab, size=40, max_len=4), vocab.size)
        next_row, build_row, context = TableScorer.next_token_logprobs, TableScorer._build_row, scoring._context
        prevs, built, contexts = [], [], []

        def recorded_next_row(self, input_tokens, prefix):
            prevs.append(prefix[-1] if prefix else SOS)
            return next_row(self, input_tokens, prefix)

        def recorded_build_row(self, ctx):
            built.append(ctx)
            return build_row(self, ctx)

        def recorded_context(key, prev):
            contexts.append(prev)
            return context(key, prev)

        monkeypatch.setattr(TableScorer, "next_token_logprobs", recorded_next_row)
        monkeypatch.setattr(TableScorer, "_build_row", recorded_build_row)
        monkeypatch.setattr(scoring, "_context", recorded_context)
        for source in inputs:  # each input opens a new scope
            for calls in (prevs, built, contexts):
                calls.clear()
            beam_search(scorer, source, trie, BeamConfig(k=4, max_steps=5))
            assert len(prevs) > len(set(prevs))  # rows were met again
            assert sorted(contexts) == sorted(set(prevs))
            assert built == [reference_context(True, source, (prev,)) for prev in contexts]

    def test_shapes_hold_the_untrained_value_and_the_trained_logs(self):
        rng = np.random.default_rng(47)
        vocab_size = 30
        inputs = [(i, 3 * i) for i in range(5)]
        scorer = random_float_table(rng, vocab_size, inputs)
        trie = build_trie([(t,) for t in range(2, vocab_size)], vocab_size)
        for source in inputs:
            beam_search(scorer, source, trie, BeamConfig(k=3, max_steps=2))
        assert scorer._shapes
        assert set(scorer._shapes) <= {tuple(table.values()) for table in scorer.counts.values()}
        for shape, (untrained, trained) in scorer._shapes.items():
            assert type(untrained) is float
            assert type(trained) is np.ndarray and trained.shape == (len(shape),)

    def test_contexts_sharing_a_count_shape_share_one_entry_bit_for_bit(self):
        counts = {1: {5: 2.0, 7: 1.5}, 2: {3: 2.0, 9: 1.5}, 3: {9: 2.0, 3: 1.5}, 4: {6: 2.0}}
        scorer = TableScorer(counts, 0.3, 12)
        for ctx in counts:
            assert_same_bits(scorer.next_token_logprobs((), (ctx,)), reference_row(scorer, ctx))
        assert sorted(scorer._shapes) == [(2.0,), (2.0, 1.5)]

    @pytest.mark.parametrize("array_first", [False, True])
    @pytest.mark.parametrize("conditioned", [False, True], ids=["plain", "input-conditioned"])
    def test_an_array_prefix_of_any_length_gets_the_tuple_row(self, conditioned, array_first):
        scorer = train_table_scorer([((3,), (7, 8, EOS))], 0.5, 12, input_conditioned=conditioned)
        source = (3,)
        for prefix in [(), (7,), (7, 8)]:
            array = np.array(prefix, dtype=np.intp)
            if array_first:
                row = scorer.next_token_logprobs(source, array)
                assert scorer.next_token_logprobs(source, prefix) is row
            else:
                row = scorer.next_token_logprobs(source, prefix)
                assert scorer.next_token_logprobs(source, array) is row
            assert_same_bits(row, reference_row(scorer, reference_context(conditioned, source, prefix)))


class TestNormalization:
    def test_logsumexp_zero_for_all_scorers(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(17)
        scorers = [
            UniformScorer(vocab.size),
            OracleScorer((8, 9, EOS), vocab.size),
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

    @pytest.mark.parametrize(
        "bad, step",
        [(-1, 0), (9, 0), (99, 1), (3.0, 1), (np.float64(3.0), 1), (False, 1), ("7", 1)],
        ids=["negative", "vocab-size", "past-the-end", "float", "numpy-float", "bool", "str"],
    )
    def test_a_token_that_is_not_a_vocabulary_id_is_refused(self, bad, step):
        # -1 would read id 8 through numpy's negative index, and its context -1's untrained row;
        # False, equal to SOS, would index the row as a mask
        for scorer in (UniformScorer(9), TableScorer({SOS: {7: 2.0}, 7: {EOS: 1.0}}, 0.5, 9)):
            seq = (bad, EOS) if step == 0 else (7, bad, EOS)
            message = re.escape(f"step {step}: token {bad!r} is not a vocabulary id in 0..8")
            with pytest.raises(ScorerError, match=message):
                sequence_score(scorer, (), seq)
            with pytest.raises(ScorerError, match=message):
                smoothed_nll(scorer, (), seq, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 3.0])
    @pytest.mark.parametrize("step", [0, 1])
    def test_a_value_that_is_no_log_probability_is_refused(self, bad, step):
        # step 1 reads EOS; -inf is a log-probability and sums as one
        token = 7 if step == 0 else EOS
        vector = np.full(9, -math.log(9))
        vector[token] = bad
        message = rf"^step {step}: scorer gave token {token} the value {re.escape(repr(bad))}; "
        with pytest.raises(ScorerError, match=message):
            sequence_score(VectorScorer(vector), (), (7, EOS))
        with pytest.raises(ScorerError, match=message):
            smoothed_nll(VectorScorer(vector), (), (7, EOS), 0.0)
        # smoothing sums the whole row, and every step's row holds the bad value
        with pytest.raises(ScorerError, match=message.replace(f"step {step}", "step 0")):
            smoothed_nll(VectorScorer(vector), (), (7, EOS), 0.1)
        vector[token] = -math.inf
        assert sequence_score(VectorScorer(vector), (), (7, EOS)) == -math.inf

    def test_numpy_ids_and_sos_are_vocabulary_ids(self):
        scorer = TableScorer({SOS: {7: 2.0}, 7: {SOS: 1.0}}, 0.5, 9)
        want = sequence_score(scorer, (), (7, SOS, EOS))
        assert sequence_score(scorer, (), (np.int64(7), np.uint32(SOS), np.int8(EOS))) == want
        assert sequence_score(scorer, (), np.array([7, SOS, EOS])) == want

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


    def test_an_iterator_input_is_read_once(self):
        # were the input read at each step, steps after the first would see an empty one
        scorer = train_table_scorer([((7, 8), (9, 8, EOS))], 0.5, 12, input_conditioned=True)
        target = (9, 8, EOS)
        want = sequence_score(scorer, (7, 8), target)
        assert want != sequence_score(scorer, (), target)
        assert sequence_score(scorer, [7, 8], target) == want
        assert sequence_score(scorer, iter([7, 8]), target) == want
        for eps in (0.0, 0.1):
            assert smoothed_nll(scorer, iter([7, 8]), target, eps) == smoothed_nll(scorer, (7, 8), target, eps)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0])
    def test_a_bad_value_anywhere_in_a_summed_row_is_refused(self, bad):
        vector = np.full(9, -math.log(9))
        vector[3] = bad  # not a gold id
        scorer = VectorScorer(vector)
        message = f"step 0: scorer gave token 3 the value {bad!r}; a log-probability is at most 0.0"
        with pytest.raises(ScorerError, match=re.escape(message)):
            smoothed_nll(scorer, (), (7, EOS), 0.1)
        # without smoothing only the gold values are read
        assert smoothed_nll(scorer, (), (7, EOS), 0.0) == pytest.approx(2 * math.log(9), abs=1e-12)


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

    @pytest.mark.parametrize(
        "entries, message",
        [
            # the constructor meets context 5's bad count first; line 3's bad token comes first in the file
            ("5\t7\t1\n0\t99\t1\n\n5\t8\t-1\n", "line 3: token id 99 out of range"),
            ("5\t7\t1\n5\t8\tnan\n", "line 3: count must be non-negative and finite, got nan"),
            ("0\t7\t1\n-1\t7\t1\n", "line 3: context -1 is outside 0..8, so no step can reach it"),
            # each line is checked before it is summed, so a later line cannot make up for a bad one
            ("0\t7\t-1\n0\t7\t2\n", "line 2: count must be non-negative and finite, got -1.0"),
            ("0\t7\t1e308\n0\t7\t-1e308\n0\t8\t1\n",
             "line 3: count must be non-negative and finite, got -1e+308"),
        ],
        ids=["first-in-file-order", "nan-count", "unreachable-context", "made-up-later", "cancelled-to-zero"],
    )
    def test_refused_entry_names_its_first_line(self, tmp_path, entries, message):
        path = tmp_path / "bad.tsv"
        path.write_text(f"0.5\t9\n{entries}")
        with pytest.raises(ScorerError) as refused:
            load_table_scorer(str(path))
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "table, message",
        [
            # each line is a valid entry: only their sum breaks the rule
            ("0.5\t9\n0\t7\t1e308\n0\t7\t1e308\n", "context 0: probabilities overflow or underflow a float"),
            ("0.5\t9\n0\t7\t1e308\n0\t8\t1e308\n", "context 0: probabilities overflow or underflow a float"),
            # the header comes before every entry
            ("nan\t9\n0\t99\t1\n", "alpha must be positive and finite, got nan"),
        ],
        ids=["summed-count", "row-overflow", "bad-header"],
    )
    def test_refusal_no_line_explains_names_none(self, tmp_path, table, message):
        path = tmp_path / "bad.tsv"
        path.write_text(table)
        with pytest.raises(ScorerError) as refused:
            load_table_scorer(str(path))
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "ctx, token, count, message",
        [
            (9, 7, 1.0, "context 9 is outside 0..8, so no step can reach it"),
            (0, 9, 1.0, "token id 9 out of range"),
            (0, -1, 1.0, "token id -1 out of range"),
            (0, 7, -1.0, "count must be non-negative and finite, got -1.0"),
            (0, 7, math.nan, "count must be non-negative and finite, got nan"),
            (0, 7, math.inf, "count must be non-negative and finite, got inf"),
        ],
        ids=["context", "token", "negative-token", "negative-count", "nan-count", "inf-count"],
    )
    def test_one_rule_for_the_constructor_and_the_file(self, tmp_path, ctx, token, count, message):
        with pytest.raises(ScorerError) as refused:
            TableScorer({ctx: {token: count}}, 0.5, 9)
        assert str(refused.value) == message
        path = tmp_path / "bad.tsv"
        path.write_text(f"0.5\t9\n{ctx}\t{token}\t{count!r}\n")
        with pytest.raises(ScorerError) as refused:
            load_table_scorer(str(path))
        assert str(refused.value) == f"line 2: {message}"

    def test_every_line_twice_loads_twice_the_counts(self, tmp_path):
        rng = np.random.default_rng(7)
        scorer = random_table_scorer(rng, pool_vocabulary())
        once = tmp_path / "once.tsv"
        save_table_scorer(scorer, str(once))
        head, *entries = once.read_text().splitlines()
        twice = tmp_path / "twice.tsv"
        twice.write_text("\n".join([head, *entries, *entries]) + "\n")
        loaded = load_table_scorer(str(twice))
        assert loaded.counts == {ctx: {t: 2 * c for t, c in row.items()} for ctx, row in scorer.counts.items()}
