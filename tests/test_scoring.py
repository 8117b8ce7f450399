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
from trie_decode.vocab import EOS, SOS, InputError, read_lines

from helpers import (
    pool_vocabulary,
    random_sequences,
    random_table_scorer,
    reference_load_table_scorer,
    reference_table_row,
    reference_table_scorer,
    reference_train_table_scorer,
)


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
        with pytest.raises(ScorerError) as refused:
            UniformScorer(0)
        assert str(refused.value) == "vocab_size must be an integer in 1..2**63 - 1, got 0"

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

    @pytest.mark.parametrize("alpha", [10**400, "0.5", None], ids=["past-the-floats", "string", "none"])
    def test_an_alpha_that_is_no_finite_real_is_a_scorer_error(self, alpha):
        with pytest.raises(ScorerError) as refused:
            TableScorer({0: {7: 1.0}}, alpha, 9)
        assert str(refused.value) == f"alpha must be positive and finite, got {alpha!r}"

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

    @pytest.mark.parametrize(
        "ctx, token, message",
        [
            (0, 2**63, "token id 9223372036854775808 out of range"),
            (2**63, 0, "context 9223372036854775808 is outside 0..8, so no step can reach it"),
            (-(2**63) - 1, 0, "context -9223372036854775809 is outside 0..8, so no step can reach it"),
            (0, 10**20, "token id 100000000000000000000 out of range"),
        ],
        ids=["token", "context", "negative-context", "token-10^20"],
    )
    def test_an_id_past_int64_is_a_scorer_error(self, tmp_path, ctx, token, message):
        # every id a vocabulary below 2**63 holds fits int64, so one past it is named as out of range
        with pytest.raises(ScorerError) as refused:
            TableScorer({ctx: {token: 1.0}}, 0.5, 9)
        assert str(refused.value) == message
        path = tmp_path / "huge.tsv"
        path.write_text(f"0.5\t9\n{ctx}\t{token}\t1\n")
        with pytest.raises(ScorerError) as refused:
            load_table_scorer(str(path))
        assert str(refused.value) == f"line 2: {message}"

    @pytest.mark.parametrize("vocab_size", [2**63, 2**64, 10**400], ids=["2^63", "2^64", "past-the-floats"])
    def test_a_vocabulary_of_2_to_the_63_ids_or_more_is_refused(self, tmp_path, vocab_size):
        message = f"vocab_size must be an integer in 1..2**63 - 1, got {vocab_size}"
        with pytest.raises(ScorerError) as refused:
            TableScorer({0: {7: 1.0}}, 0.5, vocab_size)
        assert str(refused.value) == message
        path = tmp_path / "huge.tsv"
        path.write_text(f"0.5\t{vocab_size}\n0\t7\t1\n")
        with pytest.raises(ScorerError) as refused:
            load_table_scorer(str(path))
        assert str(refused.value) == message

    @pytest.mark.parametrize("vocab_size", [9.5, 9.0, True, "9", np.float64(9)])
    def test_a_vocabulary_size_that_is_no_integer_is_refused(self, vocab_size):
        with pytest.raises(ScorerError) as refused:
            TableScorer({0: {7: 1.0}}, 0.5, vocab_size)
        assert str(refused.value) == f"vocab_size must be an integer in 1..2**63 - 1, got {vocab_size!r}"

    def test_a_numpy_vocabulary_size_is_kept_as_an_int(self):
        scorer = TableScorer({0: {7: 1.0}}, 0.5, np.int64(9))
        assert type(scorer.vocab_size) is int and scorer.vocab_size == 9

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({0: {7: 10**400}}, f"count must be non-negative and finite, got {10**400}"),
            ({0: {7: "1"}}, "count must be non-negative and finite, got '1'"),
            ({0: {"7": 1.0}}, "token id '7' is not an integer"),
            ({0: {7.0: 1.0}}, "token id 7.0 is not an integer"),
            ({"0": {7: 1.0}}, "context '0' is not an integer"),
            ({None: {7: 1.0}}, "context None is not an integer"),
        ],
        ids=["count-past-the-floats", "count-string", "token-string", "token-float", "context-string", "context-none"],
    )
    def test_a_value_of_the_wrong_kind_is_a_scorer_error(self, counts, message):
        with pytest.raises(ScorerError) as refused:
            TableScorer(counts, 0.5, 9)
        assert str(refused.value) == message

    def test_numpy_ids_and_counts_are_counted_as_python_ones(self):
        scorer = TableScorer({np.int64(0): {np.uint32(7): np.float32(0.5), True: 2}}, 0.5, 9)
        assert repr(scorer.counts) == "{0: {7: 0.5, 1: 2.0}}"

    @pytest.mark.parametrize("target", [("a",), (7, 7.0), (7, None)], ids=["string", "float", "none"])
    def test_a_training_token_that_is_no_integer_is_a_scorer_error(self, target):
        with pytest.raises(ScorerError) as refused:
            train_table_scorer([((), (7, EOS)), ((), target)], 0.5, 9)
        assert str(refused.value) == f"token id {target[-1]!r} is not an integer"

    def test_training_names_a_bad_transition_before_a_later_empty_target(self):
        with pytest.raises(ScorerError, match="^token id 99 out of range$"):
            train_table_scorer([((), (7, 99)), ((), ())], 0.5, 9)
        with pytest.raises(ScorerError, match="^empty target sequence$"):
            train_table_scorer([((), (7, 8)), ((), ()), ((), (99,))], 0.5, 9)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: train_table_scorer([((), 5)], 0.5, 9), "training item 0: target 5 is not a sequence of token ids"),
            (lambda: train_table_scorer([5], 0.5, 9), "training item 0: 5 is not an (input, target) pair"),
            (lambda: train_table_scorer([((), (7,)), (1, 2, 3)], 0.5, 9),
             "training item 1: (1, 2, 3) is not an (input, target) pair"),
            (lambda: train_table_scorer(5, 0.5, 9), "training pairs must be iterable, not int"),
            (lambda: TableScorer({0: 5}, 0.5, 9), "context 0: row 5 is not a {token: count} mapping"),
            (lambda: TableScorer([1], 0.5, 9), "counts must map contexts to {token: count} rows, not list"),
        ],
        ids=["target-not-iterable", "item-not-a-pair", "item-of-three", "pairs-not-iterable", "row-not-a-mapping",
             "counts-not-a-mapping"],
    )
    def test_a_malformed_container_is_a_scorer_error_that_names_it(self, build, message):
        with pytest.raises(ScorerError) as refused:
            build()
        assert str(refused.value) == message

    def test_a_bad_record_before_a_malformed_row_is_named_first(self):
        with pytest.raises(ScorerError, match="^token id 99 out of range$"):
            TableScorer({0: {99: 1.0}, 1: 5}, 0.5, 9)
        with pytest.raises(ScorerError, match="^context 1: row 5 is not a"):
            TableScorer({0: {7: 1.0}, 1: 5, 2: {99: 1.0}}, 0.5, 9)


def reference_context(input_conditioned, input_tokens, prefix):
    """The documented context id of one scoring step."""
    prev = prefix[-1] if prefix else SOS
    if not input_conditioned:
        return prev
    packed = b"".join(int(t).to_bytes(4, "little") for t in input_tokens)
    return (zlib.crc32(packed) * 0x10001 + prev) & 0x7FFFFFFF


def reference_row_number(scorer, ctx):
    """The documented row number of context ``ctx``: its place among the trained contexts, or None untrained."""
    ctxs = sorted(scorer.counts)
    return ctxs.index(ctx) if ctx in scorer.counts else None


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
            want = reference_table_row(scorer, reference_context(conditioned, source, prefix))
            assert_same_bits(scorer.next_token_logprobs(source, prefix), want)
            assert_same_bits(scorer.next_token_logprobs(list(source), list(prefix)), want)

    def test_inputs_sharing_a_crc_share_their_rows(self):
        first, second = (3, 7), (3681617474, 6)
        assert reference_context(True, first, ()) == reference_context(True, second, ())
        target = (9, 10, EOS)
        scorer = train_table_scorer([(first, target)], 0.5, 12, input_conditioned=True)
        for source in (first, second, list(second), first, second):
            for i in range(len(target)):
                want = reference_table_row(scorer, reference_context(True, first, target[:i]))
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
            (source, prev): reference_table_row(scorer, reference_context(True, source, (prev,)))
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

    def test_a_search_finds_and_builds_a_row_once_per_previous_token(self, monkeypatch):
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

        def recorded_build_row(self, r):
            built.append(r)
            return build_row(self, r)

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
            _, key, _, rows = scorer._scope
            assert key == _input_key(source)
            assert sorted(rows) == sorted(set(prevs)) and len(built) == len(rows)  # in the order they were built
            assert contexts == []  # the window holds the row of every vocabulary id
            assert built == [reference_row_number(scorer, reference_context(True, source, (prev,))) for prev in rows]

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
            assert_same_bits(scorer.next_token_logprobs((), (ctx,)), reference_table_row(scorer, ctx))
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
            assert_same_bits(row, reference_table_row(scorer, reference_context(conditioned, source, prefix)))


def key_with_base(base):
    """An input key whose window starts at context ``base``: 0x10001 is odd, so it has an inverse mod 2**31."""
    return base * pow(0x10001, -1, 2**31) % 2**31


def brute_force_rows(scorer, key, prevs):
    """``{prev: row number or None}`` over ``prevs``, each found by its context."""
    numbers = {ctx: r for r, ctx in enumerate(sorted(scorer.counts))}
    return {prev: numbers.get(_context(key, prev)) for prev in prevs}


def trained(rows):
    return {prev: r for prev, r in rows.items() if r is not None}


def found_rows(scorer, key, prevs, monkeypatch):
    """``{prev: row number or None}`` that ``next_token_logprobs`` finds after each of ``prevs`` under input key
    ``key``, in a new scope, with the row builder stubbed to hand back the row number: the lookup alone."""
    scope = scorer._scope
    with monkeypatch.context() as patched:
        patched.setattr(scoring, "_input_key", lambda input_tokens: key)
        patched.setattr(TableScorer, "_build_row", lambda self, r: r)
        scorer._scope = (None, None, scope[2] if key is None else {}, {})
        found = {prev: scorer.next_token_logprobs([], (prev,)) for prev in prevs}
    scorer._scope = scope
    return found


class TestTableScorerWindow:
    """The rows one input reaches are one window of the sorted contexts: the same rows every previous token's
    context finds."""

    @pytest.mark.parametrize("base", [0, 12345, 2**31 - 40, 2**31 - 39, 2**31 - 1])
    def test_the_window_holds_the_row_of_every_previous_token(self, base, monkeypatch):
        rng = np.random.default_rng(base % 997)
        vocab_size = 40
        key = key_with_base(base)
        assert _context(key, 0) == base
        # trained contexts inside the window, and about as many outside it on both sides
        ctxs = {(base + int(d)) % 2**31 for d in rng.integers(-vocab_size, 2 * vocab_size, size=60)}
        counts = {ctx: {int(rng.integers(vocab_size)): float(rng.integers(1, 9))} for ctx in ctxs}
        scorer = TableScorer(counts, 0.5, vocab_size, input_conditioned=True)
        window = scorer._window(key)
        assert window == trained(brute_force_rows(scorer, key, range(vocab_size)))
        prevs = range(-vocab_size, 2 * vocab_size)  # an id outside the vocabulary reaches a row outside the window
        assert found_rows(scorer, key, prevs, monkeypatch) == brute_force_rows(scorer, key, prevs)
        monkeypatch.setattr(scoring, "_input_key", lambda input_tokens: key)
        for prev in range(vocab_size):
            assert_same_bits(scorer.next_token_logprobs((5,), (prev,)), reference_table_row(scorer, _context(key, prev)))

    def test_an_unconditioned_table_opens_one_scope_over_the_whole_table(self, monkeypatch):
        rng = np.random.default_rng(59)
        vocab_size = 50
        scorer = random_float_table(rng, vocab_size)
        scope = scorer._scope
        _, key, window, _ = scope
        assert key is None
        assert window == trained(brute_force_rows(scorer, None, range(vocab_size)))
        assert len(window) == len(scorer.counts)
        prevs = range(-3, vocab_size + 3)
        assert found_rows(scorer, None, prevs, monkeypatch) == brute_force_rows(scorer, None, prevs)
        for source in [(), (4,), [9, 9], (4,)]:
            row = scorer.next_token_logprobs(source, (3,))
            assert_same_bits(row, reference_table_row(scorer, 3))
            assert scorer._scope is scope

    def test_inputs_sharing_a_crc_share_one_window(self):
        first, second = (3, 7), (3681617474, 6)
        scorer = train_table_scorer([(first, (9, 10, EOS)), ((4,), (8, EOS))], 0.5, 12, input_conditioned=True)
        scorer.next_token_logprobs(first, ())
        _, key, window, _ = scorer._scope
        assert key == _input_key(first) == _input_key(second)
        assert window == trained(brute_force_rows(scorer, key, range(12)))
        assert len(window) == 3  # SOS, 9 and 10; not the other input's rows
        scorer.next_token_logprobs(second, (9,))
        assert scorer._scope[2] is window
        scorer.next_token_logprobs((4,), ())
        assert scorer._scope[2] == trained(brute_force_rows(scorer, _input_key((4,)), range(12)))

    def test_the_uniform_scorer_has_an_empty_window(self, monkeypatch):
        scorer = UniformScorer(9)
        assert scorer._scope[2] == {} == scorer._window(None)
        assert list(found_rows(scorer, None, range(-2, 12), monkeypatch).values()) == [None] * 14
        assert_same_bits(scorer.next_token_logprobs((), (3,)), np.full(9, -np.log(9)))

    @pytest.mark.parametrize("conditioned", [False, True], ids=["plain", "input-conditioned"])
    def test_a_vocabulary_of_2_to_the_31_ids_or_more_finds_the_rows_its_ids_reach(self, conditioned, monkeypatch):
        # no row of 2**31 + 5 values is built: the lookup alone is checked
        vocab_size = 2**31 + 5
        key = key_with_base(2**31 - 3) if conditioned else None
        prevs = [0, 1, 2, 3, 4, 2**31 - 4, 2**31 - 3, 2**31 - 1, 2**31, 2**31 + 1, 2**31 + 2, vocab_size - 1]
        prevs += [-1, vocab_size, 2**32 + 2]
        top = 2**31 - 1 if conditioned else vocab_size - 1
        ctxs = {_context(key, prev) for prev in prevs[::2]} | {7, 2**31 - 1}
        counts = {ctx: {7: 1.0} for ctx in ctxs if 0 <= ctx <= top}
        scorer = TableScorer(counts, 0.5, vocab_size, input_conditioned=conditioned)
        assert sorted(scorer._window(key).values()) == list(range(len(counts)))  # within V of any base: every row
        found = found_rows(scorer, key, prevs, monkeypatch)
        assert found == brute_force_rows(scorer, key, prevs)
        assert found[2**31 + 2] is not None and found[1] is None

    def test_a_loaded_input_conditioned_table_holds_at_most_48_bytes_per_record(self, tmp_path):
        # a {ctx: row} dict entry per trained context held about 156 bytes per record
        rng = np.random.default_rng(61)
        vocab_size = 5000
        pairs = [
            (
                tuple(int(t) for t in rng.integers(0, vocab_size, size=8)),
                tuple(int(t) for t in rng.integers(7, vocab_size, size=int(rng.integers(1, 5)))) + (EOS,),
            )
            for _ in range(4000)
        ]
        path = tmp_path / "table.tsv"
        save_table_scorer(train_table_scorer(pairs, 0.5, vocab_size, input_conditioned=True), str(path))
        records = len(path.read_text(encoding="utf-8").splitlines()) - 1
        assert records > 10_000
        tracemalloc.start()
        try:
            scorer = load_table_scorer(str(path))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scorer.counts) > 10_000
        assert held / records <= 48


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
            # a blank line keeps its number
            ("5\t7\t1\n\n0\t99\t1\n", "line 4: token id 99 out of range"),
            ("5\t7\t1\n5\t8\tnan\n", "line 3: count must be non-negative and finite, got nan"),
            ("0\t7\t1\n-1\t7\t1\n", "line 3: context -1 is outside 0..8, so no step can reach it"),
            # each line is checked before it is summed, so a later line cannot make up for a bad one
            ("0\t7\t-1\n0\t7\t2\n", "line 2: count must be non-negative and finite, got -1.0"),
            ("0\t7\t1e308\n0\t7\t-1e308\n0\t8\t1\n",
             "line 3: count must be non-negative and finite, got -1e+308"),
        ],
        ids=[
            "first-in-file-order", "after-a-blank-line", "nan-count", "unreachable-context", "made-up-later",
            "cancelled-to-zero",
        ],
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


# count-line fields: (text, 0 for a plain form, 1 for one numpy could read otherwise)
ID_FORMS = [
    ("{}", 0), ("00{}", 0), ("+{}", 1), (" {}", 1), ("{} ", 1), ("\x1c{}", 1), ("{}\u3000", 1),
    ("{}.0", 1), ("{}e0", 1), ("{}_0", 1), ("{}\u0663", 1), ('"{}"', 1), ("#{}", 1),
]
COUNTS = [
    "0", "0.0", "-0.0", "1", "3.0", "2.5", "0.1", ".5", "7.", "1e2", "1E+2", "2.5e-3", "+4", " 4 ", "\x1c4",
    "0.1000000000000000055511151231257827021181583404541015625", "123456789012345678901234567890e-20",
    "1e308", "8.98846567431158e307", "1.7976931348623157e308", "1e-320", "1e309",
    "-1", "-1e-300", "inf", "-inf", "nan", "1_0", "0x10", "4#", "", "1.2.3", "\u0664",
]
ROW_ENDS = ["\n", "\r\n", "\r"]


def random_scorer_text(rng, plain):
    """A random scorer file; ``plain`` keeps it to lines numpy reads as int() and float() do, mostly in range."""
    vocab_size = int(rng.integers(9, 30))
    conditioned = bool(rng.random() < 0.3)
    top = 2**31 - 1 if conditioned else vocab_size - 1
    alpha = rng.choice(["0.5", "0.01", "3.7", "1e-300"])
    lines = [f"{alpha}\t{vocab_size}" + ("\tinput-conditioned" if conditioned else "")]
    keys = {}  # distinct keys, in the order drawn
    while len(keys) < 40:
        keys[int(rng.integers(0, top + 1)), int(rng.integers(0, vocab_size))] = None
    keys = list(keys)
    repeats = rng.random() < 0.4
    for i in range(int(rng.integers(0, 40))):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", " ", "\t", "\x1c", "\u3000 ", "\x85"])))
            continue
        ctx, token = keys[int(rng.integers(6))] if repeats and rng.random() < 0.5 else keys[i]
        count = repr(float(rng.integers(1, 20)) if rng.random() < 0.5 else float(rng.random() * 50))
        fields = [str(ctx), str(token), count]
        if not plain and rng.random() < 0.3:
            field = int(rng.integers(0, 3))
            if field == 2:
                fields[2] = str(rng.choice(COUNTS))
            elif rng.random() < 0.7:
                form, _ = ID_FORMS[int(rng.integers(len(ID_FORMS)))]
                fields[field] = form.format(fields[field])
            else:  # out of range, or past int64
                fields[field] = str(rng.choice([-1, top + 1, vocab_size, 2**63, 10**20]))
        elif plain and rng.random() < 0.2:
            fields[2] = str(rng.choice(COUNTS[:10]))
        line = "\t".join(fields)
        if not plain and rng.random() < 0.03:
            line = str(rng.choice([line + "\t", line.replace("\t", "", 1), line.replace("\t", "\t\t", 1)]))
        lines.append(line)
    ends = [str(rng.choice(ROW_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))[: None if rng.random() < 0.8 else -1]


def table_outcome(make):
    """What ``make()`` gives, a scorer or a reference table: the counts' repr and every row's bits, or the refusal."""
    try:
        table = make()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    counts = table.counts
    ctxs = [*counts, max(counts, default=0) + 1]
    if isinstance(table, TableScorer):
        rows = [table._build_row(table._search(ctx)).tobytes() for ctx in ctxs]
    else:
        rows = [reference_table_row(table, ctx).tobytes() for ctx in ctxs]
    return repr(counts), rows, (table.alpha, table.vocab_size, table.input_conditioned)


CONSTRUCTOR_COUNTS = [
    1, 2.5, 0.1, 3.0, 0, 0.0, -0.0, 1e308, 8.98846567431158e307, 1e-320, np.float64(4.5), np.float32(0.25),
    -1, -1e-300, math.inf, math.nan, 10**400, "1", None,
]


class TestCountsAgreeWithTheReference:
    """The constructor and training keep and refuse exactly as the reference pass does."""

    @pytest.mark.parametrize("conditioned", [False, True], ids=["plain", "input-conditioned"])
    def test_random_pairs_train_as_the_reference_does(self, conditioned):
        rng = np.random.default_rng(21 + conditioned)
        seen = {"trained": 0, "refused": 0}
        for case in range(300):
            vocab_size = int(rng.integers(9, 20))
            bad = case % 3 == 0  # some ids out of range, some of the wrong kind, empty targets, bad inputs
            pairs = []
            for _ in range(int(rng.integers(0 if bad else 1, 12))):
                length = int(rng.integers(0 if bad and rng.random() < 0.05 else 1, 6))
                target = [int(t) for t in rng.integers(0, vocab_size + (3 if bad else 0), size=length)]
                if bad and target and rng.random() < 0.05:
                    target[int(rng.integers(len(target)))] = str(rng.choice(["a", "7"]))
                source = [int(t) for t in rng.integers(0, 4, size=int(rng.integers(0, 3)))]
                if bad and rng.random() < 0.03:
                    source.append(-1)
                pairs.append((tuple(source), target))
            alpha = float(rng.choice([0.5, 0.01, 3.7]))
            want = table_outcome(lambda: reference_train_table_scorer(pairs, alpha, vocab_size, conditioned))
            got = table_outcome(lambda: train_table_scorer(iter(pairs), alpha, vocab_size, conditioned))
            assert got == want, pairs
            seen["refused" if len(want) == 2 else "trained"] += 1
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize("conditioned", [False, True], ids=["plain", "input-conditioned"])
    def test_random_tables_construct_as_the_reference_does(self, conditioned):
        rng = np.random.default_rng(31 + conditioned)
        seen = {"kept": 0, "refused": 0}
        for case in range(300):
            vocab_size = int(rng.integers(9, 20))
            top = 2**31 - 1 if conditioned else vocab_size - 1
            odd = case % 2 == 0
            counts = {}
            for _ in range(int(rng.integers(0, 8))):
                ctx = int(rng.integers(0, top + 1)) if not odd or rng.random() < 0.9 else int(top + 1)
                row = counts.setdefault(ctx, {})
                for _ in range(int(rng.integers(1, 5))):
                    token = int(rng.integers(0, vocab_size + (1 if odd else 0)))
                    pick = int(rng.integers(len(CONSTRUCTOR_COUNTS) if odd else 4))
                    row[token] = CONSTRUCTOR_COUNTS[pick] if odd else float(rng.random() * 50)
            alpha = float(rng.choice([0.5, 0.01, 5e-324]))
            want = table_outcome(lambda: reference_table_scorer(counts, alpha, vocab_size, conditioned))
            got = table_outcome(lambda: TableScorer(counts, alpha, vocab_size, conditioned))
            assert got == want, counts
            seen["refused" if len(want) == 2 else "kept"] += 1
        assert min(seen.values()) >= 30, seen


NO_PLAIN_LINES = re.compile(r"(?!)")  # matches nothing, so every block is parsed line by line


class TestBulkLoad:
    """The one-read loader keeps and refuses exactly as the reference pass does, parsed in bulk or line by line."""

    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_random_files_load_as_the_reference_does(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(scoring, "_LOAD_LINES", block)
        rng = np.random.default_rng(block)
        path = tmp_path / "scorer.tsv"
        seen = {"loaded": 0, "summed": 0, "refused": 0}
        for case in range(600):
            text = random_scorer_text(rng, plain=case % 3 == 0)
            data = text.encode("utf-8")
            if rng.random() < 0.05:  # a bad byte anywhere
                cut = int(rng.integers(len(data) + 1))
                data = data[:cut] + b"\xff" + data[cut:]
            path.write_bytes(data)
            want = table_outcome(lambda: reference_load_table_scorer(str(path)))
            got = table_outcome(lambda: load_table_scorer(str(path)))
            with monkeypatch.context() as forced:
                forced.setattr(scoring, "_PLAIN_LINES", NO_PLAIN_LINES)
                per_line = table_outcome(lambda: load_table_scorer(str(path)))
            assert got == want, data
            assert per_line == want, data
            keys = [tuple(line.split("\t")[:2]) for line in re.split("\r\n|\r|\n", text)[1:] if line.strip()]
            seen["refused" if len(want) == 2 else "summed" if len(set(keys)) < len(keys) else "loaded"] += 1
        assert min(seen.values()) >= 60, seen

    @pytest.mark.parametrize(
        "line",
        [
            *(f"{form.format(5)}\t7\t1.0" for form, _ in ID_FORMS),
            *(f"5\t{form.format(7)}\t1.0" for form, _ in ID_FORMS),
            *(f"5\t7\t{count}" for count in COUNTS),
            "9223372036854775807\t7\t1", "5\t7\t1\t", "5\t7", "5\t\t7\t1", "5\t7\t1e308\n5\t7\t1e308",
        ],
    )
    def test_an_odd_form_loads_as_the_reference_does(self, tmp_path, monkeypatch, line):
        path = tmp_path / "scorer.tsv"
        path.write_text(f"0.5\t9\n0\t1\t1.0\n{line}\n5\t8\t2\n", encoding="utf-8")
        want = table_outcome(lambda: reference_load_table_scorer(str(path)))
        assert table_outcome(lambda: load_table_scorer(str(path))) == want
        monkeypatch.setattr(scoring, "_PLAIN_LINES", NO_PLAIN_LINES)
        assert table_outcome(lambda: load_table_scorer(str(path))) == want

    def test_plain_forms_load_their_values(self, tmp_path):
        lines = ["5\t7\t1.0", "", "005\t0\t2.5e-3", " ", "2147483647\t8\t1E+2", "0\t8\t.5", "1\t2\t7.", "1\t3\t-0.0"]
        path = tmp_path / "scorer.tsv"
        path.write_text("\n".join(["0.5\t9\tinput-conditioned", *lines]) + "\n")
        want = {0: {8: 0.5}, 1: {2: 7.0}, 5: {7: 1.0, 0: 2.5e-3}, 2147483647: {8: 100.0}}  # a zero count is dropped
        assert load_table_scorer(str(path)).counts == want

    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_the_first_context_seen_is_named_when_rows_overflow(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(scoring, "_LOAD_LINES", block)
        path = tmp_path / "scorer.tsv"
        path.write_text("0.5\t9\n5\t7\t1e308\n5\t8\t1e308\n0\t7\t1e308\n0\t8\t1e308\n")
        with pytest.raises(ScorerError) as refused:
            load_table_scorer(str(path))
        assert str(refused.value) == "context 5: probabilities overflow or underflow a float"
        assert str(refused.value) == table_outcome(lambda: reference_load_table_scorer(str(path)))[1]

    @pytest.mark.parametrize("twice", [False, True], ids=["refused", "every-line-twice"])
    def test_a_load_reads_the_file_once(self, tmp_path, monkeypatch, twice):
        scorer = random_table_scorer(np.random.default_rng(11), pool_vocabulary())
        path = tmp_path / "scorer.tsv"
        save_table_scorer(scorer, str(path))
        head, *entries = path.read_text().splitlines()
        # every count line written twice, or all but the last again and then a refused line
        tail = entries if twice else [*entries[:-1], "0\t99\t1"]
        path.write_text("\n".join([head, *entries, *tail]) + "\n")
        calls = []

        def counted(source):
            calls.append(source)
            return read_lines(source)

        monkeypatch.setattr(scoring, "read_lines", counted)
        if twice:
            loaded = load_table_scorer(str(path))
            assert loaded.counts == {ctx: {t: 2 * c for t, c in row.items()} for ctx, row in scorer.counts.items()}
        else:
            with pytest.raises(ScorerError, match=f"^line {2 * len(entries) + 1}: token id 99 out of range$"):
                load_table_scorer(str(path))
        assert calls == [str(path)]

    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize(
        "entries, message",
        [
            (b"5\t7\t1\n0\t99\t1\n\xff\n", "line 3: token id 99 out of range"),
            (b"5\t7\t1\n0\t99\t1\n5\t8\t2\n5\t9\t\xff1\n", "line 3: token id 99 out of range"),
            (b"5\t7\t1\n\xff0\t99\t1\n", "{path}:3: not UTF-8 (can't decode byte 0xff: invalid start byte)"),
            (b"5\t7\t1\n0\t8\t1\n\xff\n", "{path}:4: not UTF-8 (can't decode byte 0xff: invalid start byte)"),
            (b"5\t7\t1\nx\t7\t1\n\xff\n", "line 3: invalid literal for int() with base 10: 'x'"),
        ],
        ids=["bad-byte-on-the-next-line", "bad-byte-lines-later", "bad-byte-first", "bad-byte-alone", "unparsed-line-first"],
    )
    def test_a_bad_byte_is_named_only_if_no_line_before_it_is_refused(
        self, tmp_path, monkeypatch, block, entries, message
    ):
        monkeypatch.setattr(scoring, "_LOAD_LINES", block)
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"0.5\t9\n" + entries)
        with pytest.raises(ScorerError if message.startswith("line") else InputError) as refused:
            load_table_scorer(str(path))
        assert str(refused.value) == message.format(path=path)

    @pytest.mark.parametrize("head", [b"0.5\t9\xff\n0\t7\t1\n", b"\xff"], ids=["then-a-line", "alone"])
    def test_a_bad_byte_in_the_header_is_named(self, tmp_path, head):
        path = tmp_path / "bad.tsv"
        path.write_bytes(head)
        with pytest.raises(InputError) as refused:
            load_table_scorer(str(path))
        assert str(refused.value) == f"{path}:1: not UTF-8 (can't decode byte 0xff: invalid start byte)"
