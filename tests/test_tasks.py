"""Task pipelines: mention flagging, disambiguation, retrieval, eval suites."""

import os

import numpy as np
import pytest

from trie_decode.beam import BeamConfig, rank_entities
from trie_decode.catalog import CandidateSet
from trie_decode.metrics import EvalReport, RetrievalReport
from trie_decode.scoring import UniformScorer, train_table_scorer
from trie_decode.tasks import (
    END_ENT_STRING,
    START_ENT_STRING,
    TASK_EXTRA_SPECIALS,
    EDInstance,
    TaskConfig,
    TaskError,
    disambiguate,
    flag_mention,
    load_ed_dataset,
    parallel_map,
    retrieve,
    run_eval_suite,
)
from trie_decode.trie import build_trie
from trie_decode.vocab import EOS, Vocabulary, decode, encode

from helpers import (
    PAINTING_ENTITIES,
    PAINTING_MARKUP,
    PAINTING_SOURCE,
    PAINTING_WORDS,
    pool_vocabulary,
    random_sequences,
)


@pytest.fixture
def vocab():
    return pool_vocabulary(extra_specials=TASK_EXTRA_SPECIALS)


def make_instance(vocab, context_len=10, start=4, length=2, gold="alpha", candidates=None):
    base = vocab.ordinary_base
    context = tuple(base + (i % 5) for i in range(context_len))
    return EDInstance("inst", context, start, length, gold, candidates)


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

    def test_span_outside_context_rejected(self, vocab):
        with pytest.raises(TaskError):
            make_instance(vocab, context_len=4, start=3, length=2)


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
        candidates = tuple(names[:4])
        instance = make_instance(vocab, gold=names[0], candidates=candidates)
        from helpers import random_table_scorer

        for _ in range(10):
            scorer = random_table_scorer(rng, vocab)
            ranking = disambiguate(scorer, instance, vocab, TaskConfig())
            assert set(ranking.names()) <= set(candidates)

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

    def test_without_candidates_requires_trie(self, vocab):
        instance = make_instance(vocab)
        with pytest.raises(TaskError, match="no candidate set"):
            disambiguate(UniformScorer(vocab.size), instance, vocab, TaskConfig())


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

    def test_misaligned_mention_rejected_with_line_number(self, vocab):
        with pytest.raises(TaskError, match="line 1"):
            load_ed_dataset(["m1\talpha beta\t1\t3\talpha"], vocab)

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

    def test_jobs_without_fork_rejected(self, monkeypatch):
        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr("multiprocessing.get_context", no_fork)
        with pytest.raises(TaskError, match="fork"):
            parallel_map(abs, [1, 2], 2)
        assert parallel_map(abs, [-1, -2], 1) == [1, 2]

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

    def test_unknown_mode_rejected(self, vocab):
        with pytest.raises(TaskError, match="unknown mode"):
            run_eval_suite(["x"], "qa", UniformScorer(vocab.size), vocab)
