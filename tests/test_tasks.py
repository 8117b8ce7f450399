"""Task pipelines: mention flagging, disambiguation, retrieval, eval suites."""

import dataclasses
import os
import pickle
import re
import tracemalloc
from array import array

import numpy as np
import pytest

from trie_decode.beam import BeamConfig, BeamError, DecodeStats, RankedEntry, RankedResult, beam_search, rank_entities
from trie_decode.catalog import CandidateSet, CatalogError, load_candidate_sets
from trie_decode.metrics import EvalReport, RetrievalReport
from trie_decode.scoring import OracleScorer, UniformScorer, train_table_scorer
from trie_decode.tasks import (
    END_ENT_STRING,
    START_ENT_STRING,
    TASK_EXTRA_SPECIALS,
    EDInstance,
    PackedIds,
    TaskConfig,
    TaskError,
    _Candidates,
    _mention_token_span,
    disambiguate,
    flag_mention,
    load_ed_dataset,
    parallel_map,
    retrieve,
    run_eval_suite,
)
from trie_decode.trie import build_trie
from trie_decode.vocab import EOS, Vocabulary, decode, encode, encode_with_offsets, load_vocabulary

from helpers import (
    PAINTING_ENTITIES,
    PAINTING_MARKUP,
    PAINTING_SOURCE,
    PAINTING_WORDS,
    assert_ranked_as_the_pool,
    generate,
    pool_vocabulary,
    random_candidate_field,
    random_sequences,
    random_table_scorer,
    reference_flag_window,
    reference_mention_token_span,
)


@pytest.fixture
def vocab():
    return pool_vocabulary(extra_specials=TASK_EXTRA_SPECIALS)


def make_instance(vocab, context_len=10, start=4, length=2, gold="alpha", candidates=None):
    base = vocab.ordinary_base
    context = tuple(base + (i % 5) for i in range(context_len))
    return EDInstance("inst", context, start, length, gold, candidates)


class TestEdInstance:
    def test_names_given_by_a_caller_become_a_candidate_set(self, vocab):
        for names in (("beta", "alpha"), ["beta", "alpha"], CandidateSet(("beta", "alpha"))):
            instance = make_instance(vocab, candidates=names)
            assert type(instance.candidates) is CandidateSet and instance.candidates == ("beta", "alpha")
        assert make_instance(vocab, candidates=()).candidates is None
        assert make_instance(vocab, candidates=[]).candidates is None
        for bad in (("alpha", "a|b"), ("alpha", "")):
            with pytest.raises(CatalogError, match="cannot be written"):
                make_instance(vocab, candidates=bad)

    def test_slotted_frozen_and_still_checked(self, vocab):
        instance = make_instance(vocab, candidates=("beta",))
        assert not hasattr(instance, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.gold = "beta"
        with pytest.raises(TaskError, match="outside the context"):
            make_instance(vocab, context_len=3, start=2, length=2)
        for candidates in (None, ("beta", "alpha")):
            instance = make_instance(vocab, candidates=candidates)
            assert pickle.loads(pickle.dumps(instance)) == instance

    def test_a_string_of_candidates_is_refused_not_read_as_its_letters(self, vocab):
        for names in ("France", ""):
            with pytest.raises(CatalogError, match=re.escape(f"not the string {names!r}")):
                make_instance(vocab, candidates=names)

    @pytest.mark.parametrize(
        "start, length", [(1.0, 1), (1, 1.0), (True, 1), (1, False), ("1", 1), (None, 1), (np.int64(1), 1)]
    )
    def test_a_mention_offset_that_is_no_int_is_refused(self, start, length):
        with pytest.raises(TaskError, match="mention offsets must be ints"):
            EDInstance("m", (9, 10, 11), start, length, "g")

    def test_a_context_given_as_ids_is_packed_and_hashable(self, vocab):
        ids = tuple(vocab.ordinary_base + i for i in range(10))
        from_tuple = EDInstance("inst", ids, 4, 2, "alpha")
        for given in (ids, list(ids), iter(ids), array("H", ids), PackedIds(ids)):
            instance = EDInstance("inst", given, 4, 2, "alpha")
            assert type(instance.context_tokens) is PackedIds and instance.context_tokens == ids
            assert instance == from_tuple and hash(instance) == hash(from_tuple)
        with pytest.raises(TaskError, match=re.escape("token id -1 is not an int in 0..2**32-1")):
            EDInstance("inst", [5, -1, 6], 0, 1, "alpha")


class TestPackedIds:
    CASES = [(0,), (7, 65535, 0, 300), tuple(range(250, 330)), (65536,), (1, 2**32 - 1, 65536, 0), ()]

    def test_equal_to_the_tuple_of_its_ids_and_hashed_as_it(self):
        for ids in self.CASES:
            for given in (ids, list(ids), iter(ids)):
                packed = PackedIds(given)
                assert packed == ids and ids == packed and not packed != ids
                assert hash(packed) == hash(ids) and packed.ids == ids
                assert packed == PackedIds(ids) and hash(packed) == hash(PackedIds(ids))
            assert PackedIds(ids) != ids + (0,) and PackedIds(ids) != list(ids)
            assert PackedIds(ids) != PackedIds(ids + (0,))
            assert repr(PackedIds(ids)) == f"PackedIds({ids!r})"
        # the ids decide equality, whatever their width
        wide = PackedIds._of(array("I", (1, 2)).tobytes(), 4)
        assert wide == PackedIds((1, 2)) and hash(wide) == hash((1, 2))

    def test_two_bytes_per_id_below_two_to_the_sixteen_else_four(self):
        for ids in self.CASES:
            assert len(PackedIds(ids)._data) == (2 if max(ids, default=0) < 1 << 16 else 4) * len(ids)
        assert not hasattr(PackedIds((1,)), "__dict__")

    def test_reads_agree_with_the_tuple(self):
        rng = np.random.default_rng(51)
        for ids in self.CASES:
            packed = PackedIds(ids)
            assert len(packed) == len(ids) and list(packed) == list(ids)
            assert all(type(token) is int for token in packed)
            for index in range(-len(ids), len(ids)):
                assert packed[index] == ids[index] and type(packed[index]) is int
            for index in (len(ids), -len(ids) - 1):
                with pytest.raises(IndexError):
                    packed[index]
            for _ in range(200):
                start, stop = (int(n) for n in rng.integers(-len(ids) - 2, len(ids) + 3, size=2))
                step = int(rng.choice((1, 1, 2, 3, -1, -2)))
                got = packed[start:stop:step]
                assert type(got) is tuple and got == ids[start:stop:step]
                assert all(type(token) is int for token in got)
            assert list(reversed(packed)) == list(reversed(ids))
            if ids:
                assert ids[-1] in packed and packed.index(ids[-1]) == ids.index(ids[-1])
                assert packed.count(ids[0]) == ids.count(ids[0])

    def test_pickles(self):
        for ids in self.CASES:
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
                packed = PackedIds(ids)
                loaded = pickle.loads(pickle.dumps(packed, protocol))
                assert type(loaded) is PackedIds and loaded == ids and loaded._data == packed._data

    @pytest.mark.parametrize("bad", [-1, 2**32, 1.5, "7", None, b"7"])
    def test_an_id_that_is_no_int_in_range_is_refused_by_name(self, bad):
        with pytest.raises(TaskError, match=re.escape(f"token id {bad!r} is not an int in 0..2**32-1")):
            PackedIds((5, 70000, bad, 6))


def _flagged_reference(ids, start, length, vocab, window):
    """The flagged window of :func:`flag_mention`, cut from a plain tuple by :func:`reference_flag_window`."""
    keep_left, keep_right = reference_flag_window(start, len(ids) - start - length, window - length - 2)
    end = start + length
    return (
        ids[start - keep_left : start] + (vocab.extra_special_id(START_ENT_STRING),) + ids[start:end]
        + (vocab.extra_special_id(END_ENT_STRING),) + ids[end : end + keep_right]
    )


@pytest.fixture(scope="module")
def generated_ed(tmp_path_factory):
    """The rows and vocabulary of a seeded ``benchmarks/gen.py disambiguate`` dataset at a small scale."""
    out = tmp_path_factory.mktemp("gen-ed")
    generate("disambiguate", 3, out, 0.05)
    vocab = load_vocabulary(str(out / "vocab.txt"), TASK_EXTRA_SPECIALS)
    return (out / "dataset.tsv").read_text(encoding="utf-8").splitlines(), vocab


class TestPackedContexts:
    def test_loaded_contexts_are_the_encoded_ids_on_both_span_paths(self, generated_ed):
        lines, vocab = generated_ed
        rng = np.random.default_rng(52)
        rows, paths = [], {"whole-token": 0, "general": 0}
        for line in lines:
            fields = line.split("\t")
            if rng.random() < 0.5:  # a U+2028 for one space keeps every offset, and no word is then a token
                spaces = [at for at, char in enumerate(fields[1]) if char == " "]
                at = int(rng.choice(spaces))
                fields[1] = fields[1][:at] + "\u2028" + fields[1][at + 1 :]
                paths["general"] += 1
            else:
                assert all(word in vocab._table for word in fields[1].split(" "))
                paths["whole-token"] += 1
            rows.append(fields)
        instances = load_ed_dataset(["\t".join(fields) for fields in rows], vocab)
        for fields, instance in zip(rows, instances):
            context, char_start, char_len = fields[1], int(fields[2]), int(fields[3])
            ids = tuple(encode(context, vocab))
            start = len(encode(context[:char_start], vocab))
            length = len(encode(context[char_start : char_start + char_len], vocab))
            assert type(instance.context_tokens) is PackedIds and instance.context_tokens == ids
            assert (instance.mention_start, instance.mention_length) == (start, length)
            assert instance == EDInstance(instance.instance_id, ids, start, length, instance.gold, instance.candidates)
            for window in (384, 40, 12, length + 2):
                flagged = flag_mention(instance, vocab, TaskConfig(context_window=window))
                assert type(flagged) is tuple and all(type(token) is int for token in flagged)
                assert flagged == _flagged_reference(ids, start, length, vocab, window)
        assert min(paths.values()) > 100, paths
        assert pickle.loads(pickle.dumps(instances)) == instances

    def test_loaded_contexts_hold_two_bytes_per_id_plus_a_bounded_cost_per_row(self, generated_ed):
        lines, vocab = generated_ed
        tracemalloc.start()
        try:
            instances = load_ed_dataset(lines, vocab)
            held = tracemalloc.get_traced_memory()[0]
            ids = sum(len(instance.context_tokens) for instance in instances)
            for instance in instances:  # what the contexts alone hold is what dropping them frees
                object.__setattr__(instance, "context_tokens", None)
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 2 * ids <= freed <= 2 * ids + 128 * len(instances), (freed / len(instances), ids / len(instances))

    @pytest.mark.parametrize("size, width", [(1 << 16, 2), ((1 << 16) + 1, 4)])
    def test_a_vocabulary_past_two_to_the_sixteen_ids_packs_four_bytes_per_id(self, size, width):
        ordinary = size - 7 - len(TASK_EXTRA_SPECIALS)
        vocab = Vocabulary([f"w{i}" for i in range(ordinary)], TASK_EXTRA_SPECIALS)
        assert vocab.size == size
        top = f"w{ordinary - 1}"  # id size - 1
        rows = [
            f"m1\tw0 {top} w5 w3\t3\t{len(top) + 3}\tg",  # whole tokens
            f"m2\tw0 {top}  w5 zz\t3\t{len(top)}\tg",  # a double space and a word that is no token
        ]
        for line, instance in zip(rows, load_ed_dataset(rows, vocab)):
            context = line.split("\t")[1]
            ids = tuple(encode(context, vocab))
            assert max(ids) == size - 1 and instance.context_tokens == ids
            assert len(instance.context_tokens._data) == width * len(ids)
            window = instance.mention_length + 3
            flagged = flag_mention(instance, vocab, TaskConfig(context_window=window))
            assert flagged == _flagged_reference(ids, instance.mention_start, instance.mention_length, vocab, window)
            assert pickle.loads(pickle.dumps(instance)) == instance


class TestFlagMention:
    def test_short_context_unchanged(self, vocab):
        instance = make_instance(vocab, context_len=5, start=1, length=2)
        flagged = flag_mention(instance, vocab, TaskConfig(context_window=384))
        start_id = vocab.extra_special_id(START_ENT_STRING)
        end_id = vocab.extra_special_id(END_ENT_STRING)
        context = instance.context_tokens
        assert flagged == context[:1] + (start_id,) + context[1:3] + (end_id,) + context[3:]

    def test_window_six_keeps_one_token_each_side(self, vocab):
        instance = make_instance(vocab, context_len=10, start=4, length=2)
        flagged = flag_mention(instance, vocab, TaskConfig(context_window=6))
        context = instance.context_tokens
        start_id = vocab.extra_special_id(START_ENT_STRING)
        end_id = vocab.extra_special_id(END_ENT_STRING)
        assert flagged == (context[3], start_id, context[4], context[5], end_id, context[6])
        assert len(flagged) == 6

    def test_odd_budget_trims_more_from_left(self, vocab):
        instance = make_instance(vocab, context_len=10, start=4, length=2)
        flagged = flag_mention(instance, vocab, TaskConfig(context_window=7))
        context = instance.context_tokens
        # budget 3 splits 1 left / 2 right
        assert flagged[0] == context[3]
        assert flagged[-2:] == (context[6], context[7])

    def test_mention_at_start_trims_right_only(self, vocab):
        instance = make_instance(vocab, context_len=10, start=0, length=2)
        flagged = flag_mention(instance, vocab, TaskConfig(context_window=6))
        context = instance.context_tokens
        start_id = vocab.extra_special_id(START_ENT_STRING)
        assert flagged[0] == start_id
        assert flagged[-2:] == (context[2], context[3])

    def test_mention_kept_verbatim(self, vocab):
        instance = make_instance(vocab, context_len=30, start=12, length=3)
        flagged = flag_mention(instance, vocab, TaskConfig(context_window=9))
        start_id = vocab.extra_special_id(START_ENT_STRING)
        end_id = vocab.extra_special_id(END_ENT_STRING)
        inner = flagged[flagged.index(start_id) + 1 : flagged.index(end_id)]
        assert inner == instance.mention_tokens()

    def test_mention_exceeding_window_rejected(self, vocab):
        instance = make_instance(vocab, context_len=10, start=2, length=5)
        with pytest.raises(TaskError, match="window"):
            flag_mention(instance, vocab, TaskConfig(context_window=6))

    def test_empty_mention_rejected(self, vocab):
        with pytest.raises(TaskError, match="mention must span at least one token"):
            make_instance(vocab, length=0)

    def test_span_outside_context_rejected(self, vocab):
        with pytest.raises(TaskError):
            make_instance(vocab, context_len=4, start=3, length=2)

    def test_window_matches_the_reference_trim(self, vocab):
        rng = np.random.default_rng(7)
        start_id = vocab.extra_special_id(START_ENT_STRING)
        end_id = vocab.extra_special_id(END_ENT_STRING)
        for _ in range(2000):
            left, right, length = (int(n) for n in rng.integers((0, 0, 1), (40, 40, 4)))
            budget = int(rng.integers(0, 60))
            instance = make_instance(vocab, left + length + right, left, length)
            flagged = flag_mention(instance, vocab, TaskConfig(context_window=budget + length + 2))
            keep_left, keep_right = reference_flag_window(left, right, budget)
            context = instance.context_tokens
            assert flagged == (
                context[left - keep_left : left] + (start_id,) + instance.mention_tokens() + (end_id,)
                + context[left + length : left + length + keep_right]
            ), (left, right, length, budget)


class TestDisambiguate:
    def test_singleton_candidate_always_wins(self, vocab):
        instance = make_instance(vocab, gold="beta", candidates=("beta",))
        ranking = disambiguate(UniformScorer(vocab.size), instance, vocab, TaskConfig())
        assert ranking.names() == ("beta",)

    def test_candidate_ranking_is_filtered_full_ranking(self, vocab):
        rng = np.random.default_rng(97)
        sequences = random_sequences(rng, vocab, size=6, max_len=3)
        names = [decode(seq, vocab) for seq in sequences]
        full_trie = build_trie(sequences, vocab.size)
        candidates = tuple(names[i] for i in (0, 2, 5))
        scorer = UniformScorer(vocab.size)
        instance = make_instance(vocab, gold=names[0], candidates=candidates)
        restricted = disambiguate(scorer, instance, vocab, TaskConfig(), trie=None)
        unrestricted = disambiguate(
            scorer,
            EDInstance("inst", instance.context_tokens, 4, 2, names[0]),
            vocab,
            TaskConfig(),
            trie=full_trie,
        )
        filtered = [n for n in unrestricted.names() if n in candidates]
        assert list(restricted.names()) == filtered

    def test_candidate_output_always_within_candidates(self, vocab):
        rng = np.random.default_rng(103)
        sequences = random_sequences(rng, vocab, size=8, max_len=3)
        names = [decode(seq, vocab) for seq in sequences]
        # names that do not read back: an unknown word, a doubled space, a
        # known word glued to unknown letters, a leading space
        unread = ("Café", f"{names[4]}  {names[5]}", "alphax", f" {names[6]}")
        assert all(decode(encode(n, vocab), vocab) != n for n in unread)
        from helpers import random_table_scorer

        # the last set repeats a name, which is one candidate
        for candidates in (tuple(names[:4]), unread, tuple(names[:2]) + unread + ("Café",)):
            instance = make_instance(vocab, gold=candidates[0], candidates=candidates)
            for _ in range(10):
                scorer = random_table_scorer(rng, vocab)
                ranking = disambiguate(scorer, instance, vocab, TaskConfig())
                assert sorted(ranking.names()) == sorted(set(candidates))

    def test_candidates_that_encode_alike_are_an_error(self, vocab):
        # both names encode to four <unk> tokens
        instance = make_instance(vocab, candidates=("alpha", "Café", "Cafe"))
        with pytest.raises(
            TaskError, match="instance 'inst': candidates 'Café' and 'Cafe' encode to the same tokens"
        ):
            disambiguate(UniformScorer(vocab.size), instance, vocab, TaskConfig())

    def test_a_candidate_with_no_tokens_is_an_error(self, vocab):
        instance = make_instance(vocab, candidates=("alpha", " "))
        with pytest.raises(TaskError, match="instance 'inst': candidate ' ' has no tokens"):
            disambiguate(UniformScorer(vocab.size), instance, vocab, TaskConfig())

    def test_candidate_too_long_to_finish_is_a_diagnostic(self, vocab):
        # max_steps 2 finishes a one-token name; "beta gamma" needs three steps
        instance = load_ed_dataset(["m1\tzeta alpha eta\t5\t5\talpha\talpha|beta gamma"], vocab)[0]
        scorer = UniformScorer(vocab.size)
        ranking = disambiguate(scorer, instance, vocab, TaskConfig(max_steps=2))
        assert ranking.names() == ("alpha",)
        assert ranking.diagnostics == (
            "candidate 'beta gamma' (2 tokens) cannot finish within max_steps=2",
        )
        assert disambiguate(scorer, instance, vocab, TaskConfig(max_steps=3)).diagnostics == ()

    def test_a_candidate_too_long_to_finish_takes_no_beam_slot(self, vocab):
        # the oracle drives toward the four-token name, which three steps cannot finish
        long_name = "beta gamma delta eta"
        instance = make_instance(vocab, candidates=(long_name, "alpha"))
        scorer = OracleScorer(encode(long_name, vocab), vocab.size)
        for beams in (1, 2):
            ranking = disambiguate(scorer, instance, vocab, TaskConfig(beams=beams, max_steps=3))
            assert ranking.names() == ("alpha",)
            assert ranking.diagnostics == (f"candidate {long_name!r} (4 tokens) cannot finish within max_steps=3",)

    def test_a_ranking_with_a_diagnostic_is_ranked_as_the_pool(self, vocab):
        rng = np.random.default_rng(89)
        names = ("alpha", "alpha beta", "gamma", "delta alpha", "beta  gamma", "eta zeta iota")
        for k in (1, 2, 3, 6):
            for normalize in (False, True):
                config = TaskConfig(k, 3, 384, normalize)
                for scorer in (UniformScorer(vocab.size), random_table_scorer(rng, vocab)):
                    ranking = disambiguate(scorer, make_instance(vocab, candidates=names), vocab, config)
                    assert ranking.diagnostics == (
                        "candidate 'eta zeta iota' (3 tokens) cannot finish within max_steps=3",
                    )
                    assert len(ranking) == min(k, 5)
                    assert_ranked_as_the_pool(ranking, normalize)
                    # each entry keeps its candidate's name as given, doubled space and all
                    assert set(ranking.names()) <= set(names[:5])
                    assert all(" ".join(e.name.split()) == decode(e.tokens[:-1], vocab) for e in ranking)

    def test_every_candidate_too_long_gives_an_empty_ranking_naming_each(self, vocab):
        instance = make_instance(vocab, candidates=("beta gamma", "alpha delta eta"))
        ranking = disambiguate(UniformScorer(vocab.size), instance, vocab, TaskConfig(max_steps=2))
        assert ranking.names() == ()
        assert ranking.diagnostics == (
            "candidate 'beta gamma' (2 tokens) cannot finish within max_steps=2",
            "candidate 'alpha delta eta' (3 tokens) cannot finish within max_steps=2",
        )

    def test_a_catalog_name_too_long_to_finish_is_a_beam_error(self, vocab):
        trie = build_trie([encode("alpha", vocab), encode("beta gamma delta eta", vocab)], vocab.size)
        with pytest.raises(BeamError, match=r"^max_steps 3 cannot finish the longest name \(4 tokens\)$"):
            disambiguate(UniformScorer(vocab.size), make_instance(vocab), vocab, TaskConfig(max_steps=3), trie)
        assert disambiguate(UniformScorer(vocab.size), make_instance(vocab), vocab, TaskConfig(max_steps=5), trie)

    def test_a_field_with_empty_pieces_ranks_as_its_names(self, vocab):
        rng = np.random.default_rng(50)
        line = "m1\tzeta alpha eta\t5\t5\talpha\t"
        (padded,) = load_ed_dataset([line + "|beta gamma||alpha|beta gamma|"], vocab)
        (plain,) = load_ed_dataset([line + "beta gamma|alpha"], vocab)
        assert padded.candidates == ("beta gamma", "alpha", "beta gamma")  # a repeated name is one candidate
        for scorer in (UniformScorer(vocab.size), random_table_scorer(rng, vocab)):
            config = TaskConfig()
            assert disambiguate(scorer, padded, vocab, config) == disambiguate(scorer, plain, vocab, config)

    def test_without_candidates_requires_trie(self, vocab):
        instance = make_instance(vocab)
        with pytest.raises(TaskError, match="no candidate set"):
            disambiguate(UniformScorer(vocab.size), instance, vocab, TaskConfig())


def fuzz_candidate_sequences(rng, vocab, round_):
    """Distinct candidate sequences: a lone candidate every third round, else
    sets where some names are strict token prefixes of others and, every
    fourth round, every name is a single token."""
    if round_ % 3 == 0:
        return random_sequences(rng, vocab, size=1, max_len=4)
    if round_ % 4 == 1:
        return random_sequences(rng, vocab, size=int(rng.integers(2, 12)), max_len=1)
    seqs = random_sequences(rng, vocab, size=int(rng.integers(2, 12)), max_len=3)
    ordinary = list(range(vocab.ordinary_base, vocab.size))
    for seq in seqs[: int(rng.integers(1, len(seqs) + 1))]:
        longer = seq + tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(1, 3))))
        if longer not in seqs:
            seqs.append(longer)
    return seqs


def trie_path_disambiguate(scorer, instance, vocab, config):
    """The candidate-set path of ``disambiguate`` as it read over a per-request trie of the finishable names."""
    names = {tuple(encode(name, vocab)): name for name in dict.fromkeys(instance.candidates)}
    finishable = [tokens for tokens in names if len(tokens) < config.max_steps]
    flagged = flag_mention(instance, vocab, config)
    ranking = (
        rank_entities(scorer, flagged, build_trie(finishable, vocab.size), config.beam_config(), vocab)
        if finishable
        else ()
    )
    return RankedResult(
        tuple(RankedEntry(names[e.tokens[:-1]], e.raw_logprob, e.normalized_score, e.tokens) for e in ranking),
        tuple(
            f"candidate {name!r} ({len(tokens)} tokens) cannot finish within max_steps={config.max_steps}"
            for tokens, name in names.items()
            if len(tokens) >= config.max_steps
        ),
    )


class TestCandidateConstraint:
    """The candidate-set constraint walks exactly as the trie of the same names."""

    @staticmethod
    def walk(seqs, vocab):
        """Every reachable state of ``_Candidates(seqs)`` checked against the trie's node; their count."""
        candidates, trie = _Candidates(seqs), build_trie(seqs, vocab.size)
        reached, stack = 0, [(candidates.start(), trie.start())]
        while stack:
            state, node = stack.pop()
            reached += 1
            allowed = candidates.allowed(state)
            assert type(allowed) is list
            assert allowed == trie.allowed(node).tolist()
            assert candidates.final(state) == trie.final(node)
            stack += [(candidates.advance(state, token), trie.advance(node, token)) for token in allowed]
        assert reached == trie.node_count  # one state per distinct prefix, the empty one included
        return reached

    def test_every_reachable_state_matches_the_trie(self, vocab):
        rng = np.random.default_rng(59)
        for round_ in range(300):
            # in generation order, unsorted: the constructor sorts
            self.walk(fuzz_candidate_sequences(rng, vocab, round_), vocab)

    def test_a_one_token_name_that_prefixes_others_from_the_root(self, vocab):
        # sorted insertion reaches (a,) before (a, b) and (a, c): EOS is the node's first key, dropped from its ids
        a, b, c, d = sorted(vocab.ordinary_id(w) for w in ("alpha", "beta", "gamma", "delta"))
        seqs = [(a, c), (d,), (a,), (a, b)]
        candidates = _Candidates(seqs)
        root = candidates.start()
        assert not candidates.final(root) and candidates.allowed(root) == [a, d]
        node = candidates.advance(root, a)
        assert list(node)[0] == EOS
        assert candidates.final(node) and candidates.allowed(node) == [b, c]
        assert self.walk(seqs, vocab) == 5

    def test_a_name_that_prefixes_another(self, vocab):
        a, b = vocab.ordinary_id("alpha"), vocab.ordinary_id("beta")
        candidates = _Candidates([(a, b), (a,)])
        node = candidates.advance(candidates.start(), a)
        assert candidates.final(node) and candidates.allowed(node) == [b]
        leaf = candidates.advance(node, b)
        assert candidates.final(leaf) and candidates.allowed(leaf) == []
        assert self.walk([(a, b), (a,)], vocab) == 3

    def test_a_single_candidate(self, vocab):
        seq = tuple(vocab.ordinary_id(w) for w in ("gamma", "alpha", "gamma"))
        candidates = _Candidates([seq])
        state = candidates.start()
        for token in seq:
            assert not candidates.final(state) and candidates.allowed(state) == [token]
            state = candidates.advance(state, token)
        assert candidates.final(state) and candidates.allowed(state) == []
        assert self.walk([seq], vocab) == 4

    def test_unsorted_candidates_give_ascending_ids(self, vocab):
        ids = sorted(vocab.ordinary_id(w) for w in ("alpha", "beta", "gamma", "delta"))
        seqs = [(ids[3],), (ids[1], ids[2]), (ids[1], ids[0]), (ids[0],)]
        candidates = _Candidates(seqs)
        root = candidates.start()
        assert candidates.allowed(root) == [ids[0], ids[1], ids[3]]
        assert candidates.allowed(candidates.advance(root, ids[1])) == [ids[0], ids[2]]
        self.walk(seqs, vocab)

    def test_a_wide_root_is_cut_through_the_memo_with_a_list(self, vocab):
        rng = np.random.default_rng(67)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        seqs = [(t,) for t in ordinary[::-1]] + [(ordinary[0], ordinary[1]), (ordinary[2], ordinary[0])]
        scorer, trie = random_table_scorer(rng, vocab), build_trie(seqs, vocab.size)
        stats = DecodeStats()
        for k in (1, 2, 3):
            config = BeamConfig(k, 4, False)
            assert beam_search(scorer, (), _Candidates(seqs), config, stats) == beam_search(scorer, (), trie, config)
        # read-only rows, but a fresh list of ids is never recorded
        assert stats.wide_parents > 0 and stats.recorded_pairs == 0

    def test_disambiguate_equals_the_trie_path(self, vocab):
        rng = np.random.default_rng(61)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        for round_ in range(150):
            names = [decode(seq, vocab) for seq in fuzz_candidate_sequences(rng, vocab, round_)]
            # a doubled space reads back otherwise; the entry keeps the name as written
            names = [name.replace(" ", "  ") if rng.random() < 0.2 else name for name in names]
            context = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(1, 10))))
            start = int(rng.integers(0, len(context)))
            length = int(rng.integers(1, len(context) - start + 1))
            instance = EDInstance("inst", context, start, length, names[0], tuple(names))
            tied = round_ % 2 == 0
            scorer = (
                UniformScorer(vocab.size)
                if tied
                else random_table_scorer(rng, vocab, input_conditioned=bool(rng.integers(0, 2)))
            )
            for k in (1, 2, 3, 4):
                config = TaskConfig(k, int(rng.integers(2, 7)), 384, bool(rng.integers(0, 2)))
                got = disambiguate(scorer, instance, vocab, config)
                assert got == trie_path_disambiguate(scorer, instance, vocab, config)


class TestRetrieve:
    def test_matches_rank_entities_directly(self, vocab):
        rng = np.random.default_rng(107)
        sequences = random_sequences(rng, vocab, size=12, max_len=3)
        trie = build_trie(sequences, vocab.size)
        scorer = UniformScorer(vocab.size)
        config = TaskConfig(beams=10, max_steps=15)
        via_task = retrieve(scorer, "alpha beta", trie, config, vocab)
        direct = rank_entities(
            scorer, encode("alpha beta", vocab), trie, BeamConfig(10, 15, True), vocab
        )
        assert via_task == direct

    def test_a_catalog_name_too_long_to_finish_is_a_beam_error(self, vocab):
        trie = build_trie([encode("alpha", vocab), encode("beta gamma delta eta", vocab)], vocab.size)
        with pytest.raises(BeamError, match=r"^max_steps 3 cannot finish the longest name \(4 tokens\)$"):
            retrieve(UniformScorer(vocab.size), "alpha", trie, TaskConfig(max_steps=3), vocab)

    def test_deterministic_across_runs(self, vocab):
        rng = np.random.default_rng(109)
        sequences = random_sequences(rng, vocab, size=12, max_len=3)
        trie = build_trie(sequences, vocab.size)
        scorer = UniformScorer(vocab.size)
        config = TaskConfig()
        assert retrieve(scorer, "mu", trie, config, vocab) == retrieve(
            scorer, "mu", trie, config, vocab
        )


class TestEdDatasetLoader:
    def test_char_offsets_mapped_to_token_span(self, vocab):
        lines = ["m1\talpha beta gamma\t6\t4\tbeta\t"]
        (instance,) = load_ed_dataset(lines, vocab)
        assert instance.mention_tokens() == (vocab.ordinary_id("beta"),)
        assert decode(instance.mention_tokens(), vocab) == "beta"

    def test_candidates_parsed_from_sixth_column(self, vocab):
        lines = ["m1\talpha beta\t0\t5\talpha\tbeta|alpha"]
        (instance,) = load_ed_dataset(lines, vocab)
        assert instance.candidates == ("beta", "alpha")

    def test_candidate_sets_fallback(self, vocab):
        lines = ["m1\talpha beta\t0\t5\talpha"]
        sets = {"m1": CandidateSet(("alpha",))}
        (instance,) = load_ed_dataset(lines, vocab, sets)
        assert instance.candidates == ("alpha",)

    @pytest.mark.parametrize(
        "context, start, length, span",
        [
            ("alpha beta", 1, 3, None),  # starts inside a token
            ("alpha beta", 0, 3, None),  # ends inside a token
            ("alpha beta", 5, 5, None),  # starts on whitespace
            ("zeta alpha beta gamma", 5, 10, (1, 2)),  # exactly two words
            ("zeta alphabeta", 5, 5, (1, 1)),  # "alpha", the first of two sub-tokens
        ],
        ids=["starts-inside", "ends-inside", "starts-on-space", "two-words", "first-sub-token"],
    )
    def test_misaligned_mention_rejected_with_line_number(self, vocab, context, start, length, span):
        line = f"m1\t{context}\t{start}\t{length}\talpha"
        if span is None:
            with pytest.raises(TaskError, match="line 1: mention does not align to token boundaries"):
                load_ed_dataset([line], vocab)
            return
        (instance,) = load_ed_dataset([line], vocab)
        tokens = tuple(encode(context, vocab))
        assert (instance.context_tokens, instance.mention_start, instance.mention_length) == (tokens, *span)

    def test_span_rule_agrees_with_the_reference_on_random_contexts(self):
        # tokens that prefix each other split words mid-way; "d" and "é" match no token.  A
        # dataset line cannot hold a tab, so a context with one goes to the span rule directly
        rng = np.random.default_rng(22)
        separators = (" ", "  ", "\t", "\x1c", "\x85", "\u3000")

        def word(letters, longest):
            return "".join(rng.choice(list(letters), int(rng.integers(1, longest + 1))))

        def load_row(context, start, length, v, line):
            row = f"m1\t{context}\t{start}\t{length}\tg"
            (instance,) = load_ed_dataset([""] * (line - 1) + [row], v)
            return instance.context_tokens, instance.mention_start, instance.mention_length

        def outcome(find_span, *args):
            try:
                return find_span(*args)
            except TaskError as exc:
                return str(exc), exc.line

        counts = {"aligned": 0, "outside": 0, "misaligned": 0, "whole-token": 0}
        for case in range(4000):
            if case % 40 == 0:
                v = Vocabulary(dict.fromkeys(word("abc", 4) for _ in range(8)))
            # a share of contexts are whole tokens joined by single spaces, which the loader maps by one split
            whole = rng.random() < 0.3
            if whole:
                context = " ".join(rng.choice(v.tokens, int(rng.integers(1, 7))))
            else:
                words = [word("abcdé", 6) for _ in range(rng.integers(0, 6))]
                context = "".join(str(rng.choice(separators)) + w for w in words)
                context = context[int(rng.integers(0, 2)) :] + str(rng.choice(("", *separators)))
            # cuts on token boundaries (mid-word ones included) or anywhere: on whitespace, past either end;
            # in a whole-token context a boundary cut starts at a word's start and ends at a word's end
            spans = encode_with_offsets(context, v)
            bounds = sorted({b for t in spans for b in (t.start, t.end)})
            firsts, lasts = ([t.start for t in spans], [t.end for t in spans]) if whole else (bounds, bounds)
            anywhere = range(-2, len(context) + 3)
            start = int(rng.choice(firsts if firsts and rng.random() < 0.7 else anywhere))
            later = [b for b in lasts if b > start]
            end = int(rng.choice(later if later and rng.random() < 0.7 else anywhere))
            args = (context, start, end - start, v, int(rng.integers(1, 4)))
            expected = outcome(reference_mention_token_span, *args)
            got = outcome(_mention_token_span if "\t" in context else load_row, *args)
            assert got == expected, (v.tokens, *args[:3])
            if isinstance(expected[0], str):
                counts["outside" if "outside" in expected[0] else "misaligned"] += 1
            else:
                counts["aligned"] += 1
                counts["whole-token"] += whole
        assert min(counts.values()) > 500, counts

    def test_both_candidate_sources_give_equal_instances(self, vocab):
        rng = np.random.default_rng(48)
        fields = [random_candidate_field(rng) for _ in range(400)]
        fields = [field for field in fields if field.strip("|")]
        rows = [f"m{i}\talpha beta gamma\t6\t4\tbeta" for i in range(len(fields))]
        from_file = load_ed_dataset(
            rows, vocab, load_candidate_sets([f"m{i}\t{field}" for i, field in enumerate(fields)])
        )
        from_field = load_ed_dataset([f"{row}\t{field}" for row, field in zip(rows, fields)], vocab)
        assert from_file == from_field
        for file_instance, field_instance, field in zip(from_file, from_field, fields):
            assert type(file_instance.candidates) is type(field_instance.candidates) is CandidateSet
            assert tuple(field_instance.candidates) == tuple(filter(None, field.split("|")))
        # the --jobs fork pool pickles each item
        for instances in (from_file, from_field):
            assert pickle.loads(pickle.dumps(instances)) == instances

    def test_a_field_of_no_name_is_refused_on_its_line_by_each_source(self, vocab):
        rng = np.random.default_rng(49)
        refused = 0
        for _ in range(300):
            field = random_candidate_field(rng)
            if field.strip("|"):
                continue
            refused += 1
            lines = ["g1\talpha beta\t0\t5\talpha\tbeta"] * int(rng.integers(0, 3))
            lines.append("m1\talpha beta\t0\t5\talpha")
            with pytest.raises(CatalogError) as from_file:
                load_ed_dataset(lines, vocab, load_candidate_sets(["g1\tbeta", f"m1\t{field}"]))
            assert type(from_file.value) is CatalogError
            assert (str(from_file.value), from_file.value.line) == ("line 2: empty candidate set", 2)
            with_field = lines[:-1] + [f"{lines[-1]}\t{field}"]
            if not field:  # an empty sixth field means no candidates
                assert load_ed_dataset(with_field, vocab)[-1].candidates is None
                continue
            with pytest.raises(TaskError) as from_field:
                load_ed_dataset(with_field, vocab)
            assert type(from_field.value) is TaskError
            line = len(lines)
            assert (str(from_field.value), from_field.value.line) == (f"line {line}: empty candidate set", line)
        assert refused > 30

    def test_an_empty_sixth_field_falls_back_to_the_candidate_file(self, vocab):
        sets = load_candidate_sets(["m1\t|beta||alpha|"])
        (instance,) = load_ed_dataset(["m1\talpha beta\t0\t5\talpha\t"], vocab, sets)
        assert instance.candidates is sets["m1"]

    def test_malformed_line_rejected(self, vocab):
        with pytest.raises(TaskError, match="line 2"):
            load_ed_dataset(["m1\talpha\t0\t5\talpha", "oops"], vocab)

    def test_non_integer_offsets_rejected(self, vocab):
        with pytest.raises(TaskError, match="integers"):
            load_ed_dataset(["m1\talpha\tzero\t5\talpha"], vocab)


class TestRunEvalSuite:
    def _ed_lines(self, vocab, count=5):
        # five instances over a five-name catalog, mention = the gold name
        names = ["alpha", "beta", "gamma", "delta", "epsilon"]
        lines = []
        for i in range(count):
            gold = names[i % len(names)]
            context = f"zeta {gold} eta"
            lines.append(f"m{i}\t{context}\t5\t{len(gold)}\t{gold}")
        return lines, names

    def test_self_trained_scorer_scores_perfectly(self, vocab):
        lines, names = self._ed_lines(vocab)
        instances = load_ed_dataset(lines, vocab)
        config = TaskConfig()
        pairs = [
            (flag_mention(inst, vocab, config), tuple(encode(inst.gold, vocab)) + (EOS,))
            for inst in instances
        ]
        scorer = train_table_scorer(pairs, alpha=0.1, vocab_size=vocab.size, input_conditioned=True)
        trie = build_trie([encode(n, vocab) for n in names], vocab.size)
        suite = run_eval_suite(lines, "ed", scorer, vocab, config, trie=trie)
        assert suite.accuracy == 1.0
        assert suite.report == EvalReport.from_counts(5, 0, 0)

    def test_shuffled_dataset_same_aggregates(self, vocab):
        lines, names = self._ed_lines(vocab)
        trie = build_trie([encode(n, vocab) for n in names], vocab.size)
        scorer = UniformScorer(vocab.size)
        first = run_eval_suite(lines, "ed", scorer, vocab, trie=trie)
        rng = np.random.default_rng(113)
        shuffled = list(lines)
        rng.shuffle(shuffled)
        second = run_eval_suite(shuffled, "ed", scorer, vocab, trie=trie)
        assert first.report == second.report
        assert first.accuracy == second.accuracy

    def test_aggregate_equals_manual_per_instance_aggregation(self, vocab):
        lines, names = self._ed_lines(vocab)
        trie = build_trie([encode(n, vocab) for n in names], vocab.size)
        scorer = UniformScorer(vocab.size)
        suite = run_eval_suite(lines, "ed", scorer, vocab, trie=trie)
        correct = sum(o.predicted == o.gold for o in suite.outcomes)
        wrong = sum(o.predicted != o.gold for o in suite.outcomes)
        assert suite.report == EvalReport.from_counts(correct, wrong, wrong)
        assert suite.accuracy == correct / len(suite.outcomes)

    def test_jobs_do_not_change_results(self, vocab):
        lines, names = self._ed_lines(vocab)
        trie = build_trie([encode(n, vocab) for n in names], vocab.size)
        scorer = UniformScorer(vocab.size)
        sequential = run_eval_suite(lines, "ed", scorer, vocab, trie=trie, jobs=1)
        parallel = run_eval_suite(lines, "ed", scorer, vocab, trie=trie, jobs=4)
        assert sequential.report == parallel.report
        assert [o.instance_id for o in sequential.outcomes] == [
            o.instance_id for o in parallel.outcomes
        ]

    def test_parallel_map_keeps_order_and_runs_closures(self):
        offset = 1000  # reaches the workers through fork, not pickling
        assert parallel_map(lambda x: x + offset, list(range(50)), 2) == [x + offset for x in range(50)]

    def test_task_error_from_a_worker_keeps_its_line(self):
        def fail_on_three(x):
            if x == 3:
                raise TaskError("bad item", line=x)
            return x

        with pytest.raises(TaskError, match="^line 3: bad item$") as caught:
            parallel_map(fail_on_three, [1, 2, 3, 4], 2)
        assert caught.value.line == 3

    def test_a_dead_worker_is_an_error_not_a_hang(self):
        def exit_on_three(x):
            if x == 3:
                os._exit(1)
            return x

        with pytest.raises(TaskError, match="worker process died"):
            parallel_map(exit_on_three, list(range(8)), 2)

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("affinity", [True, False])
    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch, cpus, affinity):
        started = []

        class InlinePool:
            """Records the workers asked for and runs the items here: no process starts."""

            def __init__(self, max_workers, mp_context, initializer, initargs):
                started.append(max_workers)
                self.fn = initargs[0]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(self.fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for jobs, items in ((5000, 10), (2, 10), (5000, 2)):
            assert parallel_map(abs, [-x for x in range(items)], jobs) == list(range(items))
        # every jobs above 1 takes the pool, even with one CPU to run it on
        assert started == [cpus, min(2, cpus), min(2, cpus)]

    def test_jobs_without_fork_rejected(self, monkeypatch):
        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr("multiprocessing.get_context", no_fork)
        with pytest.raises(TaskError, match="fork"):
            parallel_map(abs, [1, 2], 2)
        assert parallel_map(abs, [-1, -2], 1) == [1, 2]

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(TaskError, match=f"jobs must be at least 1, got {jobs}"):
            parallel_map(abs, [1, 2], jobs)

    def test_empty_dataset_rejected(self, vocab):
        with pytest.raises(TaskError, match="empty dataset"):
            run_eval_suite([], "ed", UniformScorer(vocab.size), vocab)

    def test_dr_mode_reports_r_precision(self, vocab):
        sequences = [(vocab.ordinary_id("alpha"),), (vocab.ordinary_id("beta"),)]
        trie = build_trie(sequences, vocab.size)
        scorer = UniformScorer(vocab.size)
        lines = ["q1\tany query\talpha", "q2\tanother\talpha|beta"]
        suite = run_eval_suite(lines, "dr", scorer, vocab, trie=trie)
        assert isinstance(suite.report, RetrievalReport)
        # uniform + normalization ties everything; 'alpha' sorts first
        assert suite.outcomes[0].r_precision == 1.0
        assert suite.outcomes[1].r_precision == 1.0
        assert suite.report.mean == 1.0

    def test_el_mode_with_perfect_predictions(self):
        vocab = Vocabulary(PAINTING_WORDS, extra_specials=TASK_EXTRA_SPECIALS)
        trie = build_trie([encode(n, vocab) for n in PAINTING_ENTITIES], vocab.size)
        from trie_decode.vocab import LINK_CLOSE, LINK_OPEN, MENTION_CLOSE, MENTION_OPEN
        from trie_decode.scoring import OracleScorer

        t = {w: vocab.ordinary_id(w) for w in PAINTING_WORDS}
        target = (
            t["In"], t["1503"], t[","],
            MENTION_OPEN, t["Leonardo"], MENTION_CLOSE,
            LINK_OPEN, t["Leonardo"], t["da"], t["Vinci"], LINK_CLOSE,
            t["began"], t["painting"], t["the"],
            MENTION_OPEN, t["Mona"], t["Lisa"], MENTION_CLOSE,
            LINK_OPEN, t["Mona"], t["Lisa"], LINK_CLOSE,
            t["."], EOS,
        )
        scorer = OracleScorer(target, vocab.size)
        lines = [f"d1\t{PAINTING_SOURCE}\t{PAINTING_MARKUP}"]
        suite = run_eval_suite(
            lines, "el", scorer, vocab, TaskConfig(beams=6, max_steps=384), trie=trie
        )
        assert suite.report == EvalReport.from_counts(2, 0, 0)

    def test_el_mode_defaults_to_the_link_config(self):
        vocab = Vocabulary(PAINTING_WORDS, extra_specials=TASK_EXTRA_SPECIALS)
        trie = build_trie([encode(n, vocab) for n in PAINTING_ENTITIES], vocab.size)
        scorer = UniformScorer(vocab.size)
        lines = [f"d1\t{PAINTING_SOURCE}\t{PAINTING_MARKUP}", f"d2\t{PAINTING_SOURCE}\t{PAINTING_SOURCE}"]
        default = run_eval_suite(lines, "el", scorer, vocab, trie=trie)
        assert default == run_eval_suite(lines, "el", scorer, vocab, TaskConfig(6, 384), trie=trie)
        # the ranking defaults cannot finish the document
        assert default != run_eval_suite(lines, "el", scorer, vocab, TaskConfig(), trie=trie)

    def test_unknown_mode_rejected(self, vocab):
        with pytest.raises(TaskError, match="unknown mode"):
            run_eval_suite(["x"], "qa", UniformScorer(vocab.size), vocab)
