"""Constrained beam search against the exhaustive scoring oracle and the reference search."""

import functools
import math
import re
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from trie_decode import beam
from trie_decode.beam import (
    BeamConfig,
    BeamError,
    DecodeStats,
    Hypothesis,
    beam_search,
    exhaustive_rank,
    mask_logprobs,
    rank_entities,
)
from trie_decode.markup import LinkerState, MarkupConstraint, advance_state, dynamic_constraint
from trie_decode.scoring import (
    OracleScorer,
    ScorerError,
    TableScorer,
    UniformScorer,
    sequence_score,
    train_table_scorer,
)
from trie_decode.tasks import _Candidates
from trie_decode.trie import build_trie
from trie_decode.vocab import EOS, SOS, Vocabulary, decode, encode

from helpers import (
    SHARED_PREFIX_NAMES,
    assert_ranked_as_the_pool,
    catalog_from_sequences,
    legal_ids,
    shared_prefix_vocabulary,
    pool_vocabulary,
    random_sequences,
    random_table_scorer,
    reference_beam_search,
    reference_order,
)


@pytest.fixture
def vocab():
    return shared_prefix_vocabulary()


@pytest.fixture
def names_trie(vocab):
    return build_trie([tuple(encode(n, vocab)) for n in SHARED_PREFIX_NAMES], vocab.size)


def read_only(row: np.ndarray) -> np.ndarray:
    row.flags.writeable = False
    return row


class Rows:
    """A scorer that hands out ``row_of(prefix)`` and counts its calls in ``calls``."""

    def __init__(self, vocab_size: int, row_of) -> None:
        self.vocab_size, self.row_of, self.calls = vocab_size, row_of, 0

    def next_token_logprobs(self, input_tokens, prefix):
        self.calls += 1
        return self.row_of(prefix)


def per_context(rows) -> Rows:
    """``rows[previous token]``, SOS's at the start: the same object each time for a list of rows,
    a new view each time for a 2-D array."""
    return Rows(len(rows[0]), lambda prefix: rows[prefix[-1] if prefix else 0])


def by_prefix(rows: dict, default: np.ndarray) -> Rows:
    """``rows[prefix]`` where given, else ``default``."""
    return Rows(len(default), lambda prefix: rows.get(tuple(prefix), default))


def dyadic_rows(rng: np.random.Generator, vocab_size: int) -> np.ndarray:
    """Bigram log-probs rounded to quarters, so that sums are exact and tie often."""
    return -np.round(rng.exponential(1.0, (vocab_size, vocab_size)) * 4) / 4


class Chain:
    """A constraint that walks ``steps``, one allowed set per step, whatever the token; final at the end."""

    def __init__(self, steps) -> None:
        self.steps = steps

    def start(self):
        return 0

    def final(self, state):
        return state == len(self.steps)

    def allowed(self, state):
        return self.steps[state] if state < len(self.steps) else ()

    def advance(self, state, token):
        return state + 1


class AllowedAs:
    """``inner`` with its ids handed out as ``kind``, and each ``advance`` counted and checked to take one of
    them: as they are (None), one list that every call refills, or per call a new tuple, writeable array or
    "read-only" owned array."""

    def __init__(self, inner, kind) -> None:
        self.inner, self.kind, self.buffer, self.advances = inner, kind, [], 0
        self.start, self.final = inner.start, inner.final

    def allowed(self, state):
        if self.kind is None:
            return self.inner.allowed(state)
        ids = [int(t) for t in self.inner.allowed(state)]
        if self.kind is list:
            self.buffer[:] = ids
            return self.buffer
        if self.kind is tuple:
            return tuple(ids)
        array = np.array(ids, dtype=np.intp)
        array.flags.writeable = self.kind is np.ndarray
        return array

    def advance(self, state, token):
        assert token in [int(t) for t in self.inner.allowed(state)]
        self.advances += 1
        return self.inner.advance(state, token)


class TestMaskLogprobs:
    def test_full_vocabulary_is_identity(self):
        # every id but SOS, which is never legal
        logprobs = UniformScorer(8).next_token_logprobs((), ())
        masked = mask_logprobs(logprobs, set(range(1, 8)))
        np.testing.assert_array_equal(masked[1:], logprobs[1:])
        assert np.isneginf(masked[SOS])

    def test_allowed_entries_unchanged_others_minus_inf(self):
        logprobs = UniformScorer(4).next_token_logprobs((), ())
        masked = mask_logprobs(logprobs, {2})
        assert masked[2] == -math.log(4)
        assert all(np.isneginf(masked[i]) for i in (0, 1, 3))

    def test_empty_allowed_set_rejected(self):
        with pytest.raises(BeamError):
            mask_logprobs(np.zeros(4), set())
        with pytest.raises(BeamError):
            mask_logprobs(np.zeros(4), np.array([], dtype=np.intp))

    def test_sos_rejected_as_beam_search_rejects_it(self):
        with pytest.raises(BeamError, match="out of range"):
            mask_logprobs(np.zeros(4), {SOS})
        with pytest.raises(BeamError, match="out of range"):
            mask_logprobs(np.zeros(4), [SOS, EOS, 3])

    def test_set_list_and_trie_view_mask_alike(self, vocab, names_trie):
        logprobs = np.log(np.arange(1, vocab.size + 1) / np.arange(1, vocab.size + 1).sum())
        view = names_trie.allowed(names_trie.start())
        expected = mask_logprobs(logprobs, set(view.tolist()))
        np.testing.assert_array_equal(mask_logprobs(logprobs, view.tolist()), expected)
        np.testing.assert_array_equal(mask_logprobs(logprobs, view), expected)
        assert np.isfinite(expected).sum() == len(view) == 2
        with pytest.raises(BeamError):
            mask_logprobs(logprobs[:-1], np.array([len(logprobs) - 1]))


class TestBeamSearch:
    def test_greedy_follows_oracle(self, vocab, names_trie):
        target = tuple(encode("English literature", vocab)) + (EOS,)
        scorer = OracleScorer(target, vocab.size)
        hyps = beam_search(scorer, (), names_trie, BeamConfig(k=1))
        assert [h.tokens for h in hyps] == [target]

    def test_uniform_scorer_finds_all_catalog_names(self, vocab, names_trie):
        scorer = UniformScorer(vocab.size)
        config = BeamConfig(k=3, length_normalize=False)
        ranking = rank_entities(scorer, (), names_trie, config, vocab)
        assert set(ranking.names()) == set(SHARED_PREFIX_NAMES)
        # raw scores: 2 steps beat 3 steps under a uniform model
        assert ranking[0].name == "France"
        assert ranking[0].raw_logprob == pytest.approx(2 * -math.log(vocab.size))
        assert ranking[1].raw_logprob == pytest.approx(3 * -math.log(vocab.size))
        # cross-check the whole ranking against the brute-force route
        catalog = catalog_from_sequences([tuple(encode(n, vocab)) for n in SHARED_PREFIX_NAMES], vocab)
        assert ranking == exhaustive_rank(scorer, (), catalog, False, vocab)

    def test_normalized_uniform_ties_break_in_token_order(self, vocab, names_trie):
        scorer = UniformScorer(vocab.size)
        ranking = rank_entities(scorer, (), names_trie, BeamConfig(k=3), vocab)
        for entry in ranking:
            assert entry.normalized_score == pytest.approx(-math.log(vocab.size))
        assert ranking.names() == ("English language", "English literature", "France")

    def test_a_name_too_long_to_finish_is_refused_before_the_search(self, vocab):
        long_name = "English language English literature"
        trie = build_trie([tuple(encode("France", vocab)), tuple(encode(long_name, vocab))], vocab.size)

        class NoCalls(UniformScorer):
            def next_token_logprobs(self, input_tokens, prefix):
                raise AssertionError("the search ran")

        with pytest.raises(BeamError, match=r"^max_steps 3 cannot finish the longest name \(4 tokens\)$"):
            rank_entities(NoCalls(vocab.size), (), trie, BeamConfig(k=10, max_steps=3), vocab)
        # one step more than the longest name finishes it
        ranking = rank_entities(UniformScorer(vocab.size), (), trie, BeamConfig(k=10, max_steps=5), vocab)
        assert set(ranking.names()) == {"France", long_name}

    def test_max_steps_discards_unfinished(self, vocab, names_trie):
        scorer = UniformScorer(vocab.size)
        config = BeamConfig(k=3, max_steps=2, length_normalize=False)
        stats = DecodeStats()
        hyps = beam_search(scorer, (), names_trie, config, stats)
        # only "France" (one token + EOS) can finish within two steps
        assert [decode(h.tokens[:-1], vocab) for h in hyps] == ["France"]
        assert (stats.steps, stats.finished, stats.dropped) == (2, 1, 2)

    def test_dead_end_constraint_yields_empty_result(self):
        # token 7 at the start, then nothing
        stats = DecodeStats()
        assert beam_search(UniformScorer(9), (), Chain([(7,), ()]), BeamConfig(k=2), stats) == []
        assert (stats.steps, stats.scorer_calls, stats.dead_ends, stats.finished) == (2, 1, 1, 0)

    def test_stats_add_up_over_searches(self, vocab, names_trie):
        once, thrice = DecodeStats(), DecodeStats()
        for stats in (once, thrice, thrice, thrice):
            beam_search(UniformScorer(vocab.size), (), names_trie, BeamConfig(k=2, max_steps=3), stats)
        assert once.searches == 1 and once.steps == 3 and once.finished > 0
        assert thrice == DecodeStats(**{name: 3 * count for name, count in vars(once).items()})

    @pytest.mark.parametrize("bad", [-1, SOS, EOS, 11], ids=["negative", "sos", "eos", "past-vocab"])
    def test_out_of_range_allowed_id_raises(self, bad):
        # EOS among the ids is out of range too: finishing is ``final``, never an allowed id;
        # 2 allowed ids: wider than k = 1, so cut to one id, or all within k = 3
        for k in (1, 3):
            with pytest.raises(BeamError, match="out of range"):
                beam_search(UniformScorer(11), (), Chain([(bad, 7) if bad <= EOS else (7, bad)]), BeamConfig(k=k))

    def test_constraint_without_final_raises(self, vocab, names_trie):
        class NoFinal:
            """The trie with EOS among its ids where a name ends, and no ``final``."""

            def start(self):
                return names_trie.start()

            def allowed(self, node):
                ids = names_trie.allowed(node).tolist()
                return [EOS] + ids if names_trie.final(node) else ids

            def advance(self, node, token):
                return names_trie.advance(node, token)

        with pytest.raises(BeamError, match="final"):
            beam_search(UniformScorer(vocab.size), (), NoFinal(), BeamConfig(k=2))

    def test_trie_wider_than_the_scorer_raises(self, vocab, names_trie):
        with pytest.raises(BeamError, match="out of range"):
            beam_search(UniformScorer(vocab.size - 1), (), names_trie, BeamConfig(k=2))

    @pytest.mark.parametrize(
        "returned, kind",
        [
            (lambda: frozenset({7, 8}), "frozenset"),
            (lambda: None, "NoneType"),
            (lambda: (t for t in (7, 8)), "generator"),
            (lambda: np.array(7), "0-d ndarray"),
            (lambda: {7: None, 8: None}, "dict"),
            (lambda: np.array([[7, 8]]), "2-d ndarray"),
            (lambda: np.array([[7, 8], [9, 10]]), "2-d ndarray"),
        ],
        ids=["frozenset", "none", "generator", "0-d-array", "dict", "2-d-array", "2-by-2-array"],
    )
    def test_constraint_returning_a_set_raises(self, returned, kind):
        # two allowed ids: wider than k = 1 (the numpy step), at most k = 2 (the plain step)
        for k in (1, 2):
            with pytest.raises(BeamError, match=f"^allowed ids must be an ascending sequence, not {kind}$"):
                beam_search(UniformScorer(12), (), Chain([returned()]), BeamConfig(k=k))

    def test_deterministic_byte_identical(self, vocab, names_trie):
        scorer = random_table_scorer(np.random.default_rng(3), vocab)
        first, second = (rank_entities(scorer, (7,), names_trie, BeamConfig(k=3), vocab) for _ in range(2))
        assert repr(first) == repr(second) and first == second


class TestOracleEquivalence:
    def test_fifty_name_catalog_with_k_fifty(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(13)
        seqs = random_sequences(rng, vocab, size=50)
        trie, catalog = build_trie(seqs, vocab.size), catalog_from_sequences(seqs, vocab)
        scorer = random_table_scorer(rng, vocab)
        ranking = rank_entities(scorer, (), trie, BeamConfig(k=50, length_normalize=False), vocab)
        assert ranking == exhaustive_rank(scorer, (), catalog, False, vocab)

    def test_singleton_catalog(self, vocab):
        seq = tuple(encode("France", vocab))
        trie = build_trie([seq], vocab.size)
        scorer = UniformScorer(vocab.size)
        (entry,) = rank_entities(scorer, (), trie, BeamConfig(k=1), vocab)
        raw = sequence_score(scorer, (), seq + (EOS,))
        assert (entry.name, entry.raw_logprob, entry.normalized_score) == ("France", raw, raw / (len(seq) + 1))


class TestRankingsReadThePool:
    """Rankings are built from the search's sorted pool with no second sort, and keep its order and scores."""

    def test_rank_entities_and_exhaustive_rank(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(83)
        for round_ in range(12):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(2, 30)), max_len=4)
            trie, catalog = build_trie(seqs, vocab.size), catalog_from_sequences(seqs, vocab)
            inputs = tuple(int(t) for t in rng.integers(vocab.ordinary_base, vocab.size, size=3))
            scorer = (
                UniformScorer(vocab.size),
                per_context(dyadic_rows(rng, vocab.size)),
                random_table_scorer(rng, vocab),
                OracleScorer(seqs[0] + (EOS,), vocab.size),  # log-probs of 0.0
            )[round_ % 4]
            for normalize in (False, True):
                brute = exhaustive_rank(scorer, inputs, catalog, normalize, vocab)
                assert len(brute) == len(seqs)
                assert_ranked_as_the_pool(brute, normalize)
                for k in (1, 3, len(seqs)):
                    config = BeamConfig(k, 15, normalize)
                    ranking = rank_entities(scorer, inputs, trie, config, vocab)
                    assert_ranked_as_the_pool(ranking, normalize)
                    pool = [(h.cum_logprob, h.tokens) for h in beam_search(scorer, inputs, trie, config)]
                    assert [(e.raw_logprob, e.tokens) for e in ranking] == pool
                    assert ranking.names() == tuple(decode(e.tokens[:-1], vocab) for e in ranking)
                assert ranking == brute  # at full width, bit for bit


# --- the exactness grid ---------------------------------------------------

CONSTRAINTS = ("trie", "candidates", "markup", "chain")
SCORERS = ("random", "dyadic", "uniform", "flat", "read-only", "refilled")
READ_ONLY_ROWS = {"random", "uniform", "flat", "read-only"}
KINDS = (None, list, tuple, np.ndarray, "read-only")
# the branches of a search, each met at least 5 times over the grid
BRANCHES = ("keep_all_steps", "unrecorded_cuts", "recorded_pairs", "memo_reuses", "exact_fallbacks", "bar_skips")
BRANCHES += ("dead_ends", "retired_with_ids", "dropped")


def grid_constraint(name: str, rng: np.random.Generator, vocab: Vocabulary):
    """``(inputs, constraint, max_steps)`` of one random search under constraint ``name``: shared prefixes make
    wide parents, a ``max_steps`` below the longest name drops live hypotheses, a chain's empty step is a dead end."""
    ordinary = np.arange(vocab.ordinary_base, vocab.size)
    if name == "chain":
        widths = rng.integers(0, 7, size=int(rng.integers(1, 6)))
        steps = [tuple(np.sort(rng.choice(ordinary, size=int(n), replace=False)).tolist()) for n in widths]
        return (), Chain(steps), int(rng.integers(1, len(steps) + 2))
    seqs = random_sequences(rng, vocab, size=int(rng.integers(2, 120)), max_len=int(rng.integers(2, 5)))
    if name == "markup":
        source = tuple(rng.choice(ordinary, size=int(rng.integers(1, 5))).tolist())
        return source, MarkupConstraint(source, build_trie(seqs, vocab.size)), int(rng.integers(2, 30))
    constraint = build_trie(seqs, vocab.size) if name == "trie" else _Candidates(seqs)
    return (), constraint, int(rng.integers(2, 7))


def grid_scorer(name: str, rng: np.random.Generator, vocab: Vocabulary) -> Rows:
    """Scorer ``name`` of the grid, counting its calls: ``random`` is a table scorer's read-only rows, ``dyadic``
    ties across parents in new writeable views, ``uniform`` ties everywhere, ``flat`` is one value per row with up
    to three peaks, some one ulp high, which rounding merges at most ``cum``; ``read-only`` is one continuous
    read-only row per context, and ``refilled`` one writeable buffer refilled per prefix."""
    size = vocab.size
    if name == "random":
        table = random_table_scorer(rng, vocab)
        return Rows(size, lambda prefix: table.next_token_logprobs((), prefix))
    if name == "uniform":
        row = UniformScorer(size).next_token_logprobs((), ())
        return Rows(size, lambda prefix: row)
    if name == "refilled":
        buffer = np.empty(size)

        def refill(prefix):
            buffer[:] = -np.random.default_rng(zlib.crc32(repr(prefix).encode())).exponential(1.0, size)
            return buffer

        return Rows(size, refill)
    if name == "dyadic":
        return per_context(dyadic_rows(rng, size))
    if name == "flat":
        rows = np.repeat(-rng.integers(2, 6, size=(size, 1)) / 4.0, size, axis=1)
        for row in rows:
            spots = rng.choice(size, size=int(rng.integers(0, 4)), replace=False)
            row[spots] += rng.choice((0.25, 0.5, 2.0**-52, 2.0**-52), size=len(spots))
    else:
        rows = -rng.exponential(1.0, (size, size))
    return per_context([read_only(row.copy()) for row in rows])


@functools.cache
def grid_cell(constraint_name: str, scorer_name: str) -> DecodeStats:
    """Asserts each search of one grid cell, and returns their summed counts: every search, at ``k`` 1, 2, 3
    and 10 with normalization on and off, under each kind of allowed ids, equals the reference, emits plain
    ints, counts the scorer's calls and the children it advances, and records no pair where the row or the
    ids may change."""
    vocab = pool_vocabulary()
    rng = np.random.default_rng(zlib.crc32(f"{constraint_name} {scorer_name}".encode()))
    total = DecodeStats()
    for _ in range(4):
        inputs, constraint, max_steps = grid_constraint(constraint_name, rng, vocab)
        scorer = grid_scorer(scorer_name, rng, vocab)
        for k in (1, 2, 3, 10):
            for normalize in (False, True):
                config = BeamConfig(k, max_steps, normalize)
                want = reference_beam_search(scorer, inputs, constraint, config)
                # no renormalization: each score is the unconstrained sequence score
                assert [h.cum_logprob for h in want] == [sequence_score(scorer, inputs, h.tokens) for h in want]
                for kind in KINDS:
                    shown = AllowedAs(constraint, kind)
                    stats, calls = DecodeStats(), scorer.calls
                    got = beam_search(scorer, inputs, shown, config, stats)
                    case = constraint_name, scorer_name, kind, config
                    assert got == want, case  # equal tokens and bit-equal cum_logprob
                    assert all(type(t) is int for h in got for t in h.tokens), case
                    assert stats.scorer_calls == scorer.calls - calls, case
                    # each candidate kept is advanced once, and the best k of the pool are returned
                    assert stats.candidates - stats.pruned == shown.advances, case
                    assert len(got) == min(k, stats.finished), case
                    promised = kind in (tuple, "read-only") or kind is None and constraint_name in ("markup", "chain")
                    assert stats.recorded_pairs == 0 or promised and scorer_name in READ_ONLY_ROWS, case
                    total += stats
    return total


class TestExactnessGrid:
    """Every search of the grid equals the reference, and the grid meets every branch of the search."""

    @pytest.mark.parametrize("scorer_name", SCORERS)
    @pytest.mark.parametrize("constraint_name", CONSTRAINTS)
    def test_each_search_equals_the_reference(self, constraint_name, scorer_name):
        assert grid_cell(constraint_name, scorer_name).searches == 4 * 4 * 2 * len(KINDS)

    def test_the_grid_meets_every_branch(self):
        total = DecodeStats()
        for constraint_name in CONSTRAINTS:
            for scorer_name in SCORERS:
                total += grid_cell(constraint_name, scorer_name)
        met = {name: getattr(total, name) for name in BRANCHES}
        assert min(met.values()) >= 5, met


# --- hand-built cases, bit for bit ----------------------------------------


class TestCutMemo:
    """A wide parent's cut, reused within one search, equals the reference."""

    # the pair of ids 7 and 8 is met at cum 0, then at cum -1000 where its two sums round to one
    # value, and in the second case also reused in between, at cum -1.5 where they stay apart
    @pytest.mark.parametrize("gaps, winners, reuses", [((-999.0,), (8, 7), 1), ((-0.5, -999.0), (8, 8, 7), 2)])
    def test_sums_that_round_together_take_the_exact_sort(self, gaps, winners, reuses):
        row = np.full(10, -5.0)
        row[[7, 8]] = -1.0 - 2**-50, -1.0  # apart at cum 0, one value at cum -1000
        steps, rows = [(7, 8)], [read_only(row)]
        for gap in gaps:
            bridge = np.full(10, -5.0)
            bridge[9] = gap
            steps += [(9,), (7, 8)]
            rows += [read_only(bridge), row]
        constraint, scorer = Chain(steps), Rows(10, lambda prefix: (rows + [row])[len(prefix)])
        config = BeamConfig(k=1, max_steps=len(steps) + 1, length_normalize=False)
        stats = DecodeStats()
        (got,) = beam_search(scorer, (), constraint, config, stats)
        assert got.tokens[::2] == winners
        assert [got] == reference_beam_search(scorer, (), constraint, config)
        # one pair, sorted on first sight; the exact sort ran where the sums merge
        counts = stats.wide_parents, stats.recorded_pairs, stats.memo_reuses, stats.exact_fallbacks
        assert counts == (len(winners), 1, reuses, 1)

    def test_no_row_outlives_its_search(self):
        # rows of an input-conditioned table scorer are freed when it moves to
        # another input: only a memo that outlived the search could hold one
        vocab = pool_vocabulary()
        rng = np.random.default_rng(617)
        seqs = random_sequences(rng, vocab, size=40, max_len=3)
        trie = build_trie(seqs, vocab.size)
        first, second = (7, 8), (9, 10)
        pairs = [(inputs, seq + (EOS,)) for inputs in (first, second) for seq in seqs]
        scorer = train_table_scorer(pairs, 0.5, vocab.size, input_conditioned=True)
        assert beam_search(scorer, first, trie, BeamConfig(k=2, max_steps=4))
        row = scorer.next_token_logprobs(first, ())  # the row the search cut the root with
        assert len(trie.allowed(trie.start())) > 2 and np.ptp(row) > 0  # a wide cut; a trained row
        row_ref = weakref.ref(row)
        del row
        scorer.next_token_logprobs(second, ())
        assert row_ref() is None


def two_parents(later_top: float) -> tuple[Chain, Rows]:
    """Parents 7 (cum -0.1) and 8 (cum -0.2) over ids 3, 4, 5 at k=2: parent 7 keeps 3 and 4 at -0.1 + -0.2,
    the bar, and parent 8's best id, 3, scores -0.2 + ``later_top``."""
    default = np.full(10, -9.0)
    default[EOS] = 0.0  # final scores keep the step's sums apart
    root, first, later = default.copy(), default.copy(), default.copy()
    root[[7, 8]] = -0.1, -0.2
    first[[3, 4, 5]] = -0.2, -0.2, -3.0
    later[[3, 4, 5]] = later_top, -5.0, -5.0
    return Chain([(7, 8), (3, 4, 5)]), by_prefix({(): root, (7,): first, (8,): later}, default)


class TestStepBar:
    """A wide parent whose best id cannot pass the step's bar is not sorted, and nothing changes."""

    @staticmethod
    def search(constraint, scorer, config):
        """The search's result, checked, and its (wide parents, bar skips, unrecorded cuts, recorded pairs)."""
        stats = DecodeStats()
        got = beam_search(scorer, (), constraint, config, stats)
        assert got == reference_beam_search(scorer, (), constraint, config)
        return got, (stats.wide_parents, stats.bar_skips, stats.unrecorded_cuts, stats.recorded_pairs)

    def test_a_parent_of_minus_inf_values_before_any_cut_is_sorted(self):
        # the first wide parent meets no bar, whatever its values
        trie = build_trie([(3, 5), (3, 6), (3, 7), (4, 5)], 10)
        default = np.full(10, -1.0)
        below_three = default.copy()
        below_three[[5, 6, 7]] = -np.inf
        scorer = by_prefix({(3,): below_three}, default)
        got, wide = self.search(trie, scorer, BeamConfig(k=2, max_steps=4, length_normalize=False))
        assert [h.tokens for h in got] == [(4, 5, EOS), (3, 5, EOS)]
        assert got[1].cum_logprob == -np.inf
        assert wide == (1, 0, 1, 0)

    @pytest.mark.parametrize(
        "past, kept, counts", [(0, [(7, 3), (7, 4)], (2, 1, 1, 0)), (1, [(8, 3), (7, 3)], (2, 0, 2, 0))]
    )
    def test_a_later_best_id_tying_the_bar_loses_on_rank_and_one_ulp_past_it_is_kept(self, past, kept, counts):
        bar, top = -0.1 + -0.2, -0.1
        while past and -0.2 + top == bar:
            top = math.nextafter(top, 0.0)
        assert -0.2 + top == (math.nextafter(bar, 0.0) if past else bar)  # bit for bit, from other values
        got, wide = self.search(*two_parents(top), BeamConfig(k=2, max_steps=3, length_normalize=False))
        assert [h.tokens[:2] for h in got] == kept and wide == counts

    def test_a_row_with_nan_among_the_allowed_values_raises(self):
        # the later parent's row is read although the bar skips it: at -5.0 it is skipped
        config = BeamConfig(k=2, max_steps=3, length_normalize=False)
        assert self.search(*two_parents(-5.0), config)[1] == (2, 1, 1, 0)
        constraint, scorer = two_parents(math.nan)
        with pytest.raises(BeamError, match=r"^scorer gave token 3 the value nan;"):
            beam_search(scorer, (), constraint, config)

    @pytest.mark.parametrize("value", [-5.0, math.nan])
    def test_a_recorded_pair_with_nan_among_its_values_raises(self, value):
        # parents 8 and 9 meet one (row, ids) pair, which is recorded; its
        # best value is finite, but the NaN elsewhere in its ids is read
        default = np.full(10, -9.0)
        default[EOS] = 0.0
        root, first, shared = default.copy(), default.copy(), default.copy()
        root[[7, 8, 9]] = -0.1, -0.2, -0.3
        first[[3, 4, 5, 6]] = -0.1, -0.1, -0.1, -3.0
        shared[[3, 4, 5, 6]] = -5.0, value, -5.0, -5.0
        scorer = by_prefix({(): root, (7,): read_only(first), (8,): read_only(shared), (9,): shared}, default)
        constraint, config = Chain([(7, 8, 9), (3, 4, 5, 6)]), BeamConfig(k=3, max_steps=3, length_normalize=False)
        if math.isnan(value):
            with pytest.raises(BeamError, match=r"^scorer gave token 4 the value nan;"):
                beam_search(scorer, (), constraint, config)
            return
        # with a finite value, parent 8 records the pair and 9 reuses it, both at the bar
        assert self.search(constraint, scorer, config)[1] == (3, 2, 0, 2)


class TestOrder:
    """``_order``, the cut at ``cum`` 0.0 and its ``k``-th value's neighbours, equals the reference bit for bit."""

    @staticmethod
    def rows(rng, vocab_size):
        base = float(rng.choice((-2.5, -7.0, -0.0, 0.0)))
        yield np.full(vocab_size, base)  # all tied
        peaks = np.full(vocab_size, base - 1.0)
        peaks[rng.choice(vocab_size, size=4, replace=False)] = rng.choice((-0.5, -1.0), size=4)
        yield peaks  # a few peaks, some of them tied
        spread = -rng.random(vocab_size) * 4
        spread[rng.choice(vocab_size, size=vocab_size // 3, replace=False)] = -np.inf
        yield spread
        yield -np.round(rng.random(vocab_size) * 3, 1)  # many small groups
        yield peaks.astype(np.float32)
        yield spread.astype(np.float32)
        zeros = np.full(vocab_size, -np.inf)
        zeros[rng.choice(vocab_size, size=3, replace=False)] = (0.0, -0.0, -1.0)
        yield zeros

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_reference_at_every_k(self, seed):
        rng = np.random.default_rng(seed)
        vocab_size = int(rng.integers(12, 40))
        for row in self.rows(rng, vocab_size):
            row.flags.writeable = False
            for n in (2, 3, int(rng.integers(4, vocab_size - 2)), vocab_size - 2):
                ids = np.sort(rng.choice(np.arange(2, vocab_size), size=n, replace=False))
                ids.flags.writeable = False
                for allowed in (tuple(ids.tolist()), ids):
                    tokens = np.asarray(allowed, dtype=np.intp)
                    for k in range(1, n):
                        got = beam._order(tokens, row[tokens], k)
                        assert repr(got) == repr(reference_order(row, allowed, k)[:4]), (row, allowed, k)


class TestScorerValues:
    """A scorer value above 0.0, or NaN, is no log-probability: the search that reads it raises."""

    SEQS = [(7,), (8,), (9,), (10, 11)]
    BAD = [math.nan, math.inf, 3.0]

    @staticmethod
    def message(token: int, value: float) -> str:
        return rf"^scorer gave token {token} the value {re.escape(repr(value))}; a log-probability is at most 0\.0$"

    @staticmethod
    def scorer(rows: dict) -> Rows:
        return by_prefix(rows, np.full(12, -2.0))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_a_bad_value_at_an_allowed_root_id_raises_at_every_width(self, bad, k):
        # at k 1 and 2 the root is a wide parent, at 4, the catalog size, a narrow one
        root = np.full(12, -2.0)
        root[8] = bad
        with pytest.raises(BeamError, match=self.message(8, bad)):
            beam_search(self.scorer({(): root}), (), build_trie(self.SEQS, 12), BeamConfig(k, 4))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_a_bad_eos_value_raises(self, bad, k):
        root, after_8 = np.full(12, -2.0), np.full(12, -2.0)
        root[8] = -0.5  # name 8 makes every cut
        after_8[EOS] = bad
        with pytest.raises(BeamError, match=self.message(EOS, bad)):
            beam_search(self.scorer({(): root, (8,): after_8}), (), build_trie(self.SEQS, 12), BeamConfig(k, 4))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_bad_value_in_a_recorded_pair_raises(self, bad, k):
        # a read-only row and a tuple of ids: the memo would record the pair,
        # but the value is refused on first sight
        row = np.full(12, -2.0)
        row[8] = bad
        with pytest.raises(BeamError, match=self.message(8, bad)):
            beam_search(self.scorer({(): read_only(row)}), (), Chain([(7, 8, 9, 10)]), BeamConfig(k, 2))

    def test_minus_inf_is_a_log_probability(self):
        root = np.full(12, -2.0)
        root[[8, EOS]] = -np.inf
        scorer = Rows(12, lambda prefix: root)
        got = beam_search(scorer, (), build_trie(self.SEQS, 12), BeamConfig(1, 4, length_normalize=False))
        assert [(h.tokens, h.cum_logprob) for h in got] == [((7, EOS), -np.inf)]

    @pytest.mark.parametrize("bad", BAD)
    def test_exhaustive_rank_raises_too(self, bad):
        vocab = Vocabulary(["a", "b", "c", "d", "e"])
        assert vocab.size == 12 and encode("b", vocab) == [8]
        root = np.full(12, -2.0)
        root[8] = bad
        catalog = catalog_from_sequences(self.SEQS, vocab)
        with pytest.raises(ScorerError, match=rf"^step 0: scorer gave token 8 the value {re.escape(repr(bad))};"):
            exhaustive_rank(self.scorer({(): root}), (), catalog, True, vocab)


class TestConstraintProtocol:
    """``allowed`` never holds EOS; with EOS where ``final`` it is the reference set."""

    def test_trie_candidates_and_markup_at_random_reachable_states(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(47)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        finals = dict.fromkeys(("trie", "candidates", "markup"), 0)
        for _ in range(30):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(1, 20)), max_len=4)
            trie = build_trie(seqs, vocab.size)
            source = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(0, 4))))

            def linker_reference(prefix):
                state = LinkerState()
                for token in prefix:
                    state = advance_state(state, token, source)
                return dynamic_constraint(state, source, trie)

            walks = {
                "trie": (trie, trie.allowed_continuations),
                "candidates": (_Candidates(sorted(seqs)), trie.allowed_continuations),
                "markup": (MarkupConstraint(source, trie), linker_reference),
            }
            for kind, (constraint, reference) in walks.items():
                frontier = [((), constraint.start())]
                while frontier:
                    following = []
                    for prefix, state in frontier:
                        allowed = [int(t) for t in constraint.allowed(state)]
                        assert EOS not in allowed
                        assert legal_ids(constraint, state) == reference(prefix)
                        finals[kind] += constraint.final(state)
                        following += [(prefix + (t,), constraint.advance(state, t)) for t in allowed]
                    frontier = [following[i] for i in rng.permutation(len(following))[:40]]
        assert all(finals.values())


class TestNormalizationFlip:
    def test_short_raw_winner_loses_after_normalization(self):
        # counts make the one-token name the raw winner while the three-token
        # name, with near-certain continuations, wins per-token
        short, b, c, d = 7, 8, 9, 10
        counts = {
            0: {short: 60, b: 40},  # SOS context
            short: {EOS: 100},
            b: {c: 100},
            c: {d: 100},
            d: {EOS: 100},
        }
        scorer = TableScorer(counts, alpha=0.01, vocab_size=11)
        seqs = [(short,), (b, c, d)]
        trie = build_trie(seqs, 11)
        vocab = shared_prefix_vocabulary()
        raw = rank_entities(scorer, (), trie, BeamConfig(k=2, length_normalize=False), vocab)
        normalized = rank_entities(scorer, (), trie, BeamConfig(k=2, length_normalize=True), vocab)
        assert raw[0].tokens[:-1] == (short,)
        assert normalized[0].tokens[:-1] == (b, c, d)
        # and each agrees with the brute-force route under its own setting
        catalog = catalog_from_sequences(seqs, vocab)
        assert raw == exhaustive_rank(scorer, (), catalog, False, vocab)
        assert normalized == exhaustive_rank(scorer, (), catalog, True, vocab)


class TestBeamWidthBehavior:
    """Wider beams are exact at full width and never beat the true optimum.

    Strict monotonicity of the best score in k does not hold for beam search
    with pruning: a wider frontier can displace a mid-decode prefix whose
    completion the narrower run kept.  The seeded corpus below bounds how
    often that happens while asserting the guarantees that do hold.
    """

    def test_soundness_full_width_exactness_and_rare_regressions(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(211)
        transitions = 0
        regressions = 0
        for _ in range(40):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(2, 12)), max_len=5)
            trie = build_trie(seqs, vocab.size)
            catalog = catalog_from_sequences(seqs, vocab)
            scorer = random_table_scorer(rng, vocab)
            for normalize in (False, True):
                brute = exhaustive_rank(scorer, (), catalog, normalize, vocab)
                true_best = brute[0].normalized_score
                previous = -math.inf
                for k in range(1, len(seqs) + 1):
                    config = BeamConfig(k, 15, normalize)
                    ranking = rank_entities(scorer, (), trie, config, vocab)
                    best = ranking[0].normalized_score
                    assert best <= true_best + 1e-12  # never beats the optimum
                    if k == len(seqs):
                        assert best == true_best  # exact at full width
                    if k > 1:
                        transitions += 1
                        if best < previous - 1e-12:
                            regressions += 1
                    previous = best
        assert regressions <= 0.05 * transitions


class TestConfigValidation:
    def test_bad_widths_rejected(self):
        with pytest.raises(BeamError):
            BeamConfig(k=0)
        with pytest.raises(BeamError):
            BeamConfig(k=1, max_steps=0)

    def test_hypothesis_is_immutable(self):
        hyp = Hypothesis((7, EOS), -1.0, True)
        with pytest.raises(AttributeError):
            hyp.cum_logprob = 0.0


def test_no_test_patches_the_beam_module():
    # a search's work is read off DecodeStats: no test replaces an attribute of trie_decode.beam
    patch = re.compile(r"setattr\(\s*[\"']?(trie_decode\.)?beam\b")
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in patch.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            raise AssertionError(f"{path.name}:{line} patches trie_decode.beam: read DecodeStats instead")
