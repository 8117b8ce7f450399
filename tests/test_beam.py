"""Constrained beam search against the exhaustive scoring oracle."""

import math
import re
import weakref
import zlib

import numpy as np
import pytest

from trie_decode import beam
from trie_decode.beam import (
    BeamConfig,
    BeamError,
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
        catalog = catalog_from_sequences(
            [tuple(encode(n, vocab)) for n in SHARED_PREFIX_NAMES], vocab
        )
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

    def test_at_most_k_finished(self, vocab, names_trie):
        scorer = UniformScorer(vocab.size)
        hyps = beam_search(scorer, (), names_trie, BeamConfig(k=2))
        assert len(hyps) == 2

    def test_max_steps_discards_unfinished(self, vocab, names_trie):
        scorer = UniformScorer(vocab.size)
        config = BeamConfig(k=3, max_steps=2, length_normalize=False)
        hyps = beam_search(scorer, (), names_trie, config)
        # only "France" (one token + EOS) can finish within two steps
        assert [decode(h.tokens[:-1], vocab) for h in hyps] == ["France"]

    def test_dead_end_constraint_yields_empty_result(self):
        scorer = UniformScorer(9)

        class DeadEnd:
            """Allows token 7 at the start, then nothing."""

            def start(self):
                return 0

            def final(self, depth):
                return False

            def allowed(self, depth):
                return (7,) if depth == 0 else ()

            def advance(self, depth, token):
                return depth + 1

        assert beam_search(scorer, (), DeadEnd(), BeamConfig(k=2)) == []

    @pytest.mark.parametrize("bad", [-1, SOS, EOS, 11], ids=["negative", "sos", "eos", "past-vocab"])
    def test_out_of_range_allowed_id_raises(self, bad):
        # EOS among the ids is out of range too: finishing is ``final``, never an allowed id
        class Fixed:
            def start(self):
                return 0

            def final(self, depth):
                return True

            def allowed(self, depth):
                return (bad, 7) if bad <= EOS else (7, bad)

            def advance(self, depth, token):
                return depth + 1

        # 2 allowed ids: wider than k = 1, so cut to one id, or all within k = 3
        for k in (1, 3):
            with pytest.raises(BeamError, match="out of range"):
                beam_search(UniformScorer(11), (), Fixed(), BeamConfig(k=k))

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

    def test_constraint_returning_a_set_raises(self):
        class SetConstraint:
            def start(self):
                return 0

            def final(self, depth):
                return False

            def allowed(self, depth):
                return frozenset({7, 8})

            def advance(self, depth, token):
                return depth + 1

        # two allowed ids: wider than k = 1 (the numpy step), at most k = 2 (the plain step)
        for k in (1, 2):
            with pytest.raises(BeamError, match="frozenset"):
                beam_search(UniformScorer(11), (), SetConstraint(), BeamConfig(k=k))

    def test_wide_fanout_with_ties_at_the_cut_matches_reference(self):
        # a 600-way root takes the sorted wide cut; rounded scores tie at the cut
        vocab_size = 700
        names = [(t,) for t in range(50, 650)]
        trie = build_trie(names, vocab_size)
        rng = np.random.default_rng(5)
        probs = np.round(rng.random(vocab_size), 1) + 0.01
        scorer = TableScorer({0: dict(enumerate(probs))}, 1.0, vocab_size)
        for k in (1, 3, 10, 40):
            config = BeamConfig(k=k, max_steps=3, length_normalize=False)
            expected = reference_beam_search(scorer, (), trie, config)
            assert beam_search(scorer, (), trie, config) == expected

    def test_finished_hypotheses_flagged(self, vocab, names_trie):
        scorer = UniformScorer(vocab.size)
        for hyp in beam_search(scorer, (), names_trie, BeamConfig(k=3)):
            assert hyp.finished and hyp.tokens[-1] == EOS
            assert hyp.cum_logprob <= 0.0

    def test_deterministic_byte_identical(self, vocab, names_trie):
        rng = np.random.default_rng(3)
        scorer = random_table_scorer(rng, shared_prefix_vocabulary())
        config = BeamConfig(k=3)
        first = rank_entities(scorer, (7,), names_trie, config, vocab)
        second = rank_entities(scorer, (7,), names_trie, config, vocab)
        assert repr(first) == repr(second)
        assert first == second


class TestOracleEquivalence:
    def test_rank_equals_exhaustive_at_full_width(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(5)
        for _ in range(3):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(3, 30)))
            trie = build_trie(seqs, vocab.size)
            catalog = catalog_from_sequences(seqs, vocab)
            scorer = random_table_scorer(rng, vocab)
            inp = tuple(int(t) for t in rng.integers(7, vocab.size, size=4))
            for normalize in (False, True):
                config = BeamConfig(k=len(seqs), max_steps=15, length_normalize=normalize)
                beam = rank_entities(scorer, inp, trie, config, vocab)
                brute = exhaustive_rank(scorer, inp, catalog, normalize, vocab)
                assert beam.names() == brute.names()
                for b, e in zip(beam, brute):
                    assert b.raw_logprob == e.raw_logprob  # same float path, bit-exact
                    assert b.normalized_score == e.normalized_score

    def test_fifty_name_catalog_with_k_fifty(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(13)
        seqs = random_sequences(rng, vocab, size=50)
        trie = build_trie(seqs, vocab.size)
        catalog = catalog_from_sequences(seqs, vocab)
        scorer = random_table_scorer(rng, vocab)
        config = BeamConfig(k=50, length_normalize=False)
        assert rank_entities(scorer, (), trie, config, vocab) == exhaustive_rank(
            scorer, (), catalog, False, vocab
        )

    def test_singleton_catalog(self, vocab):
        seq = tuple(encode("France", vocab))
        trie = build_trie([seq], vocab.size)
        scorer = UniformScorer(vocab.size)
        ranking = rank_entities(scorer, (), trie, BeamConfig(k=1), vocab)
        assert len(ranking) == 1
        raw = sequence_score(scorer, (), seq + (EOS,))
        assert ranking[0].name == "France"
        assert ranking[0].raw_logprob == raw
        assert ranking[0].normalized_score == raw / (len(seq) + 1)


class TestNarrowWidthExactness:
    """Per-parent top-k with carried states equals the per-token definition."""

    @pytest.mark.parametrize("tied", [False, True])
    def test_trie_and_markup_constraints(self, tied):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(307 + tied)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        for _ in range(25):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(2, 25)), max_len=4)
            trie = build_trie(seqs, vocab.size)
            source = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(1, 6))))
            scorer = UniformScorer(vocab.size) if tied else random_table_scorer(rng, vocab)
            searches = [
                ((), trie, 15),
                ((), _Candidates(sorted(seqs)), 15),
                (source, MarkupConstraint(source, trie), 40),
            ]
            for inputs, constraint, max_steps in searches:
                for k in (1, 2, 3, 4):
                    config = BeamConfig(k, max_steps, bool(rng.integers(0, 2)))
                    got = beam_search(scorer, inputs, constraint, config)
                    want = reference_beam_search(scorer, inputs, constraint, config)
                    assert got == want  # equal tokens and bit-equal cum_logprob


class DyadicBigramScorer:
    """Bigram log-probs rounded to quarters, so that sums are exact and tie often."""

    def __init__(self, rng: np.random.Generator, vocab_size: int) -> None:
        self.vocab_size = vocab_size
        self._rows = -np.round(rng.exponential(1.0, (vocab_size, vocab_size)) * 4) / 4

    def next_token_logprobs(self, input_tokens, prefix):
        return self._rows[prefix[-1] if prefix else 0]


class AllowedAs:
    """``inner`` with its allowed ids handed out as a list, a tuple or an array.

    ``met`` collects the ``(width, final)`` of every allowed set handed out.
    """

    def __init__(self, inner, kind) -> None:
        self.inner, self.kind = inner, kind
        self.met = set()

    def start(self):
        return self.inner.start()

    def final(self, state):
        return self.inner.final(state)

    def allowed(self, state):
        allowed = [int(t) for t in self.inner.allowed(state)]
        self.met.add((len(allowed), bool(self.inner.final(state))))
        return np.array(allowed, dtype=np.intp) if self.kind is np.ndarray else self.kind(allowed)

    def advance(self, state, token):
        return self.inner.advance(state, token)


class TestSurvivorOnlySteps:
    """Candidates ordered by (-score, parent's token rank, token) equal the reference."""

    def test_ties_across_parents_at_the_cut(self):
        # exact dyadic sums tie across parents whose score order differs
        # from their token order, so the cut must break ties by prefix
        vocab = pool_vocabulary()
        rng = np.random.default_rng(41)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        for _ in range(20):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(10, 40)), max_len=8)
            trie = build_trie(seqs, vocab.size)
            source = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(2, 6))))
            scorer = DyadicBigramScorer(rng, vocab.size)
            searches = [
                ((), trie, 9),
                ((), _Candidates(sorted(seqs)), 9),
                (source, MarkupConstraint(source, trie), 40),
            ]
            for inputs, constraint, max_steps in searches:
                for k in (1, 2, 3, 4):
                    config = BeamConfig(k, max_steps, bool(rng.integers(0, 2)))
                    got = beam_search(scorer, inputs, constraint, config)
                    assert got == reference_beam_search(scorer, inputs, constraint, config)

    @pytest.mark.parametrize("kind", [list, tuple, np.ndarray])
    def test_each_sequence_type_on_both_sides_of_k(self, kind):
        # parents with k, k + 1 and k + 2 allowed ids, final or not, meet each
        # boundary of the step: an array short enough to become a list, the
        # retirement of a final parent, and the cut of a parent wider than k
        vocab = pool_vocabulary()
        rng = np.random.default_rng(43)
        met = set()
        for _ in range(15):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(5, 60)), max_len=5)
            trie = build_trie(seqs, vocab.size)
            scorer = DyadicBigramScorer(rng, vocab.size)
            for k in (1, 2, 3, 4):
                config = BeamConfig(k, 8, length_normalize=False)
                want = reference_beam_search(scorer, (), trie, config)
                for constraint in (trie, _Candidates(sorted(seqs))):
                    counted = AllowedAs(constraint, kind)
                    got = beam_search(scorer, (), counted, config)
                    assert got == want
                    assert all(type(t) is int for h in got for t in h.tokens)
                    met |= {(width - k, final) for width, final in counted.met}
        assert met >= {(extra, final) for extra in (0, 1, 2) for final in (False, True)}


class AdvanceChecked:
    """``inner`` that records every ``advance(state, token)`` call in ``advanced``.

    Each call asserts that ``token`` is in ``allowed(state)``, the one place
    ``advance`` is defined, so never EOS.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.advanced = []

    def start(self):
        return self.inner.start()

    def final(self, state):
        return self.inner.final(state)

    def allowed(self, state):
        return self.inner.allowed(state)

    def advance(self, state, token):
        assert token in [int(t) for t in self.inner.allowed(state)]
        self.advanced.append((state, token))
        return self.inner.advance(state, token)


class TestAdvanceOnlyOnAllowedIds:
    """``beam_search`` advances a state only on one of its allowed ids."""

    def test_trie_candidates_and_markup_below_and_above_the_fanout(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(53)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        # every allowed set is narrower than the vocabulary, which holds SOS and EOS
        ks = (1, 2, vocab.size)
        met = set()
        for _ in range(15):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(5, 40)), max_len=5)
            trie = build_trie(seqs, vocab.size)
            source = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(1, 6))))
            scorer = random_table_scorer(rng, vocab)
            searches = {
                "trie": ((), trie, 8),
                "candidates": ((), _Candidates(sorted(seqs)), 8),
                "markup": (source, MarkupConstraint(source, trie), 40),
            }
            for kind, (inputs, constraint, max_steps) in searches.items():
                for k in ks:
                    config = BeamConfig(k, max_steps, length_normalize=False)
                    checked = AdvanceChecked(constraint)
                    assert beam_search(scorer, inputs, checked, config) == beam_search(
                        scorer, inputs, constraint, config
                    )
                    assert checked.advanced
                    widths = [len(constraint.allowed(state)) for state, _ in checked.advanced]
                    met |= {(kind, max(widths) > k)}
        # each constraint met a parent wider than k and a search narrower throughout
        assert met == {(kind, wider) for kind in searches for wider in (False, True)}


def read_only(row: np.ndarray) -> np.ndarray:
    row.flags.writeable = False
    return row


class RowPerContext:
    """One read-only row per previous token, handed out as the same object each time.

    Tied rows hold quarters, so sums are exact and tie often; untied rows
    hold continuous values.
    """

    def __init__(self, rng: np.random.Generator, vocab_size: int, tied: bool) -> None:
        self.vocab_size = vocab_size
        rows = -rng.exponential(1.0, (vocab_size, vocab_size))
        if tied:
            rows = np.round(rows * 4) / 4
        self._rows = [read_only(row.copy()) for row in rows]

    def next_token_logprobs(self, input_tokens, prefix):
        return self._rows[prefix[-1] if prefix else 0]


class RefilledRow:
    """A row per whole prefix, copied into one writeable buffer that every call returns."""

    def __init__(self, vocab_size: int) -> None:
        self.vocab_size = vocab_size
        self._buffer = np.empty(vocab_size)

    def next_token_logprobs(self, input_tokens, prefix):
        seed = zlib.crc32(np.array(prefix, dtype=np.int64).tobytes())
        self._buffer[:] = -np.random.default_rng(seed).exponential(1.0, self.vocab_size)
        return self._buffer


class RefilledList(AdvanceChecked):
    """``inner`` whose allowed ids are copied into one list that every call refills and returns."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._buffer = []

    def allowed(self, state):
        self._buffer[:] = map(int, self.inner.allowed(state))
        return self._buffer


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


class RowPerStep:
    """``rows[i]`` at step ``i``, the same object wherever one row repeats."""

    def __init__(self, rows) -> None:
        self.vocab_size = len(rows[0])
        self.rows = rows

    def next_token_logprobs(self, input_tokens, prefix):
        return self.rows[len(prefix)]


@pytest.fixture
def sorts(monkeypatch):
    """Counts of wide parents (``wide``) and of the exact sorts run for them (``exact``) during a test.

    An exact sort is a ``_cut`` call, the one in the ``_order`` of a pair the memo records included.
    """
    counts = {"wide": 0, "exact": 0}
    memo_cut, cut = beam._memo_cut, beam._cut

    def counted_memo_cut(*args):
        counts["wide"] += 1
        return memo_cut(*args)

    def counted_cut(*args):
        counts["exact"] += 1
        return cut(*args)

    monkeypatch.setattr(beam, "_memo_cut", counted_memo_cut)
    monkeypatch.setattr(beam, "_cut", counted_cut)
    return counts


class TestCutMemo:
    """A wide parent's cut, reused within one search, equals the reference."""

    @pytest.mark.parametrize("tied", [False, True])
    def test_repeated_pairs_under_markup_match_reference(self, tied, sorts):
        # few words and names of 1-3 tokens: the names share prefixes, and each
        # link re-enters nodes that earlier hypotheses met at other scores
        vocab = pool_vocabulary()
        rng = np.random.default_rng(601 + tied)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        for _ in range(12):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(20, 60)), max_len=3)
            trie = build_trie(seqs, vocab.size)
            source = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(3, 7))))
            scorer = RowPerContext(rng, vocab.size, tied)
            for k in (1, 2, 3, 4):
                config = BeamConfig(k, 60, bool(rng.integers(0, 2)))
                got = beam_search(scorer, source, MarkupConstraint(source, trie), config)
                assert got == reference_beam_search(scorer, source, MarkupConstraint(source, trie), config)
        # about half the wide cuts reused an earlier sort
        assert sorts["exact"] < sorts["wide"] * 2 / 3

    @pytest.mark.parametrize(
        "gaps, winners, exact",
        [
            # met at cum 0, then at cum -1000 where the two sums round to one value
            ((-999.0,), (8, 7), 2),
            # and reused in between, at cum -1.5 where they stay apart
            ((-0.5, -999.0), (8, 8, 7), 2),
        ],
    )
    def test_sums_that_round_together_take_the_exact_sort(self, gaps, winners, exact, sorts):
        a, b, c = 7, 8, 9
        pair = (a, b)
        row = np.full(10, -5.0)
        row[a], row[b] = -1.0 - 2**-50, -1.0  # apart at cum 0, one value at cum -1000
        row = read_only(row)
        steps, rows = [pair], [row]
        for gap in gaps:
            bridge = np.full(10, -5.0)
            bridge[c] = gap
            steps += [(c,), pair]
            rows += [read_only(bridge), row]
        constraint, scorer = Chain(steps), RowPerStep(rows + [row])
        config = BeamConfig(k=1, max_steps=len(steps) + 1, length_normalize=False)
        (got,) = beam_search(scorer, (), constraint, config)
        assert got.tokens[::2] == winners
        assert [got] == reference_beam_search(scorer, (), constraint, config)
        # the first sighting and the pair met where the sums merge
        assert sorts == {"wide": len(winners), "exact": exact}

    def test_a_refilled_writeable_row_matches_reference(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(607)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        scorer = RefilledRow(vocab.size)
        for _ in range(10):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(20, 60)), max_len=3)
            trie = build_trie(seqs, vocab.size)
            source = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(3, 7))))
            for k in (1, 2, 3):
                config = BeamConfig(k, 60, length_normalize=False)
                got = beam_search(scorer, source, MarkupConstraint(source, trie), config)
                assert got == reference_beam_search(scorer, source, MarkupConstraint(source, trie), config)

    def test_a_refilled_list_of_ids_matches_reference(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(613)
        row = read_only(-rng.exponential(1.0, vocab.size))
        scorer = RowPerStep([row] * 16)  # one row object for every prefix
        for _ in range(10):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(20, 80)), max_len=5)
            trie = build_trie(seqs, vocab.size)
            for k in (1, 2, 3):
                config = BeamConfig(k, 8, length_normalize=False)
                got = beam_search(scorer, (), RefilledList(trie), config)
                assert got == reference_beam_search(scorer, (), trie, config)

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

    def test_trie_views_are_cut_and_never_recorded(self, monkeypatch):
        # read-only rows, so only the ids decide: a trie hands out a fresh view per call
        vocab = pool_vocabulary()
        rng = np.random.default_rng(619)
        trie = build_trie(random_sequences(rng, vocab, size=200, max_len=3), vocab.size)
        scorer = RowPerContext(rng, vocab.size, tied=True)
        memo_cut, wide = beam._memo_cut, [0]

        def checked(cuts, *args):
            wide[0] += 1
            cut = memo_cut(cuts, *args)
            assert not cuts
            return cut

        def never(*args):
            raise AssertionError("_order sorted a trie view")

        monkeypatch.setattr(beam, "_memo_cut", checked)
        monkeypatch.setattr(beam, "_order", never)
        for k in (1, 2, 3):
            config = BeamConfig(k, 4, length_normalize=False)
            assert beam_search(scorer, (), trie, config) == reference_beam_search(scorer, (), trie, config)
        assert wide[0] > 3

    def test_a_link_sorts_each_recorded_pair_once_on_first_sight(self, monkeypatch):
        # with read-only rows every wide pair of a link is recorded: a node's
        # owned array inside ``(...)``, a per-cursor tuple outside
        vocab = pool_vocabulary()
        rng = np.random.default_rng(631)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        memo_cut, order = beam._memo_cut, beam._order
        met, sorted_pairs = [], []  # (row, ids) pairs, held, so no two live ones share their id()s
        orders = [0]

        def recorded_memo_cut(cuts, logprobs, allowed, *rest):
            met.append((logprobs, allowed))
            recorded = len(cuts)
            cut = memo_cut(cuts, logprobs, allowed, *rest)
            if len(cuts) > recorded:
                sorted_pairs.append((logprobs, allowed))
            return cut

        def counted_order(*args):
            orders[0] += 1
            return order(*args)

        monkeypatch.setattr(beam, "_memo_cut", recorded_memo_cut)
        monkeypatch.setattr(beam, "_order", counted_order)
        reused = 0
        for _ in range(6):
            trie = build_trie(random_sequences(rng, vocab, size=int(rng.integers(20, 60)), max_len=3), vocab.size)
            source = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(3, 7))))
            scorer = RowPerContext(rng, vocab.size, tied=False)
            for k in (1, 2, 3):
                met.clear()
                sorted_pairs.clear()
                orders[0] = 0
                config = BeamConfig(k, 60, length_normalize=False)
                got = beam_search(scorer, source, MarkupConstraint(source, trie), config)
                assert got == reference_beam_search(scorer, source, MarkupConstraint(source, trie), config)
                first_sights = list(dict.fromkeys((id(row), id(ids)) for row, ids in met))
                assert [(id(row), id(ids)) for row, ids in sorted_pairs] == first_sights
                assert orders[0] == len(first_sights)
                reused += len(met) - len(first_sights)
        assert reused > 0


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


class FlatRows:
    """One read-only row per previous token: one value throughout, or that value with a few peaks.

    Values are quarters, so sums are exact and tie across parents often.
    Every value is at most -0.25, a log-probability.
    """

    def __init__(self, rng: np.random.Generator, vocab_size: int, peaks: bool) -> None:
        self.vocab_size = vocab_size
        rows = np.repeat(-rng.integers(1, 5, size=(vocab_size, 1)) / 4.0, vocab_size, axis=1)
        if peaks:
            for row in rows:
                spots = rng.choice(vocab_size, size=int(rng.integers(1, 4)), replace=False)
                row[spots] += rng.integers(1, 4, size=len(spots)) / 4.0
            rows -= 0.75
        self._rows = [read_only(row) for row in rows]

    def next_token_logprobs(self, input_tokens, prefix):
        return self._rows[prefix[-1] if prefix else 0]


class RowPerPrefix:
    """``rows[prefix]`` where given, else ``default``."""

    def __init__(self, rows, default) -> None:
        self.vocab_size = len(default)
        self.rows = rows
        self.default = default

    def next_token_logprobs(self, input_tokens, prefix):
        return self.rows.get(tuple(prefix), self.default)


class TestStepBar:
    """A wide parent whose best id cannot pass the step's bar is not sorted, and nothing changes."""

    @pytest.mark.parametrize("peaks", [False, True], ids=["flat", "few-peak"])
    def test_random_shared_prefix_tries_match_reference(self, peaks, sorts):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(701 + peaks)
        for _ in range(15):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(100, 300)), max_len=4)
            trie = build_trie(seqs, vocab.size)
            scorer = FlatRows(rng, vocab.size, peaks)
            for k in (1, 2, 3, 4):
                config = BeamConfig(k, 6, bool(rng.integers(0, 2)))
                assert beam_search(scorer, (), trie, config) == reference_beam_search(scorer, (), trie, config)
        # trie views are new objects per call, so no cut is reused: every
        # wide parent not sorted was skipped at the bar, over a fifth of them
        assert sorts["exact"] < sorts["wide"] * 4 / 5

    def test_a_parent_of_minus_inf_values_before_any_cut_is_sorted(self, sorts):
        # the first wide parent meets no bar, whatever its values
        trie = build_trie([(3, 5), (3, 6), (3, 7), (4, 5)], 10)
        default = np.full(10, -1.0)
        below_three = default.copy()
        below_three[[5, 6, 7]] = -np.inf
        scorer = RowPerPrefix({(3,): below_three}, default)
        config = BeamConfig(k=2, max_steps=4, length_normalize=False)
        got = beam_search(scorer, (), trie, config)
        assert [h.tokens for h in got] == [(4, 5, EOS), (3, 5, EOS)]
        assert got[1].cum_logprob == -np.inf
        assert got == reference_beam_search(scorer, (), trie, config)
        assert sorts == {"wide": 1, "exact": 1}

    @staticmethod
    def two_parents(later_top: float) -> tuple[Chain, RowPerPrefix]:
        """Parents 7 (cum -0.1) and 8 (cum -0.2) over ids 3, 4, 5 at k=2.

        Parent 7 keeps 3 and 4 at -0.1 + -0.2, the bar; parent 8's best id, 3,
        scores -0.2 + ``later_top``.
        """
        default = np.full(10, -9.0)
        default[EOS] = 0.0  # final scores keep the step's sums apart
        root, first, later = default.copy(), default.copy(), default.copy()
        root[[7, 8]] = -0.1, -0.2
        first[[3, 4, 5]] = -0.2, -0.2, -3.0
        later[[3, 4, 5]] = later_top, -5.0, -5.0
        return Chain([(7, 8), (3, 4, 5)]), RowPerPrefix({(): root, (7,): first, (8,): later}, default)

    def test_a_later_best_id_tying_the_bar_loses_on_rank(self, sorts):
        bar = -0.1 + -0.2
        assert -0.2 + -0.1 == bar  # a tie bit for bit, from other values
        constraint, scorer = self.two_parents(-0.1)
        config = BeamConfig(k=2, max_steps=3, length_normalize=False)
        got = beam_search(scorer, (), constraint, config)
        assert [h.tokens[:2] for h in got] == [(7, 3), (7, 4)]
        assert got == reference_beam_search(scorer, (), constraint, config)
        assert sorts == {"wide": 2, "exact": 1}

    def test_a_later_best_id_one_ulp_past_the_bar_is_kept(self, sorts):
        bar = -0.1 + -0.2
        top = -0.1
        while -0.2 + top == bar:
            top = math.nextafter(top, 0.0)
        assert -0.2 + top == math.nextafter(bar, 0.0)
        constraint, scorer = self.two_parents(top)
        config = BeamConfig(k=2, max_steps=3, length_normalize=False)
        got = beam_search(scorer, (), constraint, config)
        assert [h.tokens[:2] for h in got] == [(8, 3), (7, 3)]
        assert got == reference_beam_search(scorer, (), constraint, config)
        assert sorts == {"wide": 2, "exact": 2}

    def test_a_row_with_nan_among_the_allowed_values_raises(self, sorts):
        # the later parent's row is read whether or not the bar skips it
        constraint, scorer = self.two_parents(math.nan)
        config = BeamConfig(k=2, max_steps=3, length_normalize=False)
        with pytest.raises(BeamError, match=r"^scorer gave token 3 the value nan; a log-probability is at most 0\.0$"):
            beam_search(scorer, (), constraint, config)
        assert sorts == {"wide": 2, "exact": 1}

    def test_a_recorded_pair_with_nan_among_its_values_raises(self, monkeypatch):
        # parents 8 and 9 meet one (row, ids) pair, which is recorded; its
        # best value is finite, but the NaN elsewhere in its ids is read
        default = np.full(10, -9.0)
        default[EOS] = 0.0
        root, first, shared = default.copy(), default.copy(), default.copy()
        root[[7, 8, 9]] = -0.1, -0.2, -0.3
        first[[3, 4, 5, 6]] = -0.1, -0.1, -0.1, -3.0
        shared[[3, 4, 5, 6]] = -5.0, math.nan, -5.0, -5.0
        shared = read_only(shared)
        scorer = RowPerPrefix({(): root, (7,): read_only(first), (8,): shared, (9,): shared}, default)
        constraint = Chain([(7, 8, 9), (3, 4, 5, 6)])
        skipped = []
        memo_cut = beam._memo_cut

        def recorded(*args):
            cut = memo_cut(*args)
            skipped.append(cut is None)
            return cut

        monkeypatch.setattr(beam, "_memo_cut", recorded)
        with pytest.raises(BeamError, match=r"^scorer gave token 4 the value nan; a log-probability is at most 0\.0$"):
            beam_search(scorer, (), constraint, BeamConfig(k=3, max_steps=3, length_normalize=False))
        assert skipped == [False]  # parent 7 was cut; parent 8 raised on first sight of the pair


class TestScorerValues:
    """A scorer value above 0.0, or NaN, is no log-probability: the search that reads it raises."""

    SEQS = [(7,), (8,), (9,), (10, 11)]
    BAD = [math.nan, math.inf, 3.0]

    @staticmethod
    def message(token: int, value: float) -> str:
        return rf"^scorer gave token {token} the value {re.escape(repr(value))}; a log-probability is at most 0\.0$"

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_a_bad_value_at_an_allowed_root_id_raises_at_every_width(self, bad, k):
        # at k 1 and 2 the root is a wide parent, at 4, the catalog size, a narrow one
        root = np.full(12, -2.0)
        root[8] = bad
        scorer = RowPerPrefix({(): root}, np.full(12, -2.0))
        with pytest.raises(BeamError, match=self.message(8, bad)):
            beam_search(scorer, (), build_trie(self.SEQS, 12), BeamConfig(k, 4))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_a_bad_eos_value_raises(self, bad, k):
        root, after_8 = np.full(12, -2.0), np.full(12, -2.0)
        root[8] = -0.5  # name 8 makes every cut
        after_8[EOS] = bad
        scorer = RowPerPrefix({(): root, (8,): after_8}, np.full(12, -2.0))
        with pytest.raises(BeamError, match=self.message(EOS, bad)):
            beam_search(scorer, (), build_trie(self.SEQS, 12), BeamConfig(k, 4))

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_bad_value_in_a_recorded_pair_raises(self, bad, k, sorts):
        # a read-only row and a tuple of ids: the memo would record the pair,
        # but the value is refused on first sight, before any sort
        row = np.full(12, -2.0)
        row[8] = bad
        scorer = RowPerStep([read_only(row), np.full(12, -2.0)])
        with pytest.raises(BeamError, match=self.message(8, bad)):
            beam_search(scorer, (), Chain([(7, 8, 9, 10)]), BeamConfig(k, 2))
        assert sorts == {"wide": 1, "exact": 0}

    def test_minus_inf_is_a_log_probability(self):
        root = np.full(12, -2.0)
        root[[8, EOS]] = -np.inf
        scorer = RowPerPrefix({(): root}, root)
        got = beam_search(scorer, (), build_trie(self.SEQS, 12), BeamConfig(1, 4, length_normalize=False))
        assert [(h.tokens, h.cum_logprob) for h in got] == [((7, EOS), -np.inf)]

    @pytest.mark.parametrize("bad", BAD)
    def test_exhaustive_rank_raises_too(self, bad):
        vocab = Vocabulary(["a", "b", "c", "d", "e"])
        assert vocab.size == 12 and encode("b", vocab) == [8]
        root = np.full(12, -2.0)
        root[8] = bad
        scorer = RowPerPrefix({(): root}, np.full(12, -2.0))
        catalog = catalog_from_sequences(self.SEQS, vocab)
        with pytest.raises(ScorerError, match=rf"^step 0: scorer gave token 8 the value {re.escape(repr(bad))};"):
            exhaustive_rank(scorer, (), catalog, True, vocab)


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


class TestValidityAndScores:
    def test_only_catalog_names_with_exact_raw_scores(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(101)
        for _ in range(60):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(2, 12)), max_len=4)
            trie = build_trie(seqs, vocab.size)
            scorer = random_table_scorer(rng, vocab)
            k = int(rng.integers(1, len(seqs) + 1))
            normalize = bool(rng.integers(0, 2))
            ranking = rank_entities(scorer, (), trie, BeamConfig(k, 15, normalize), vocab)
            for entry in ranking:
                assert trie.contains(entry.tokens[:-1])
                # masking does not renormalize, so the constrained score is
                # exactly the unconstrained one
                assert entry.raw_logprob == sequence_score(scorer, (), entry.tokens)


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
