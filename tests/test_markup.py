"""Markup decoding FSM, end-to-end linking, parsing, and chunking."""

import numpy as np
import pytest

from trie_decode.beam import BeamConfig, beam_search
from trie_decode.markup import (
    LinkerState,
    MarkupConstraint,
    MarkupDocument,
    MarkupError,
    MarkupParseError,
    Phase,
    SpanAnnotation,
    advance_state,
    chunk_input,
    dynamic_constraint,
    link_document,
    parse_markup,
    render_markup,
    replay_markup,
    strip_markup_tokens,
)
from trie_decode.scoring import OracleScorer, UniformScorer
from trie_decode.trie import build_trie
from trie_decode.vocab import (
    EOS,
    LINK_CLOSE,
    LINK_OPEN,
    MENTION_CLOSE,
    MENTION_OPEN,
    Vocabulary,
    encode,
)

from helpers import (
    PAINTING_MARKUP,
    PAINTING_SOURCE,
    SOCCER_PREDICTED_MARKUP,
    SOCCER_SOURCE,
    painting_fixture,
    pool_vocabulary,
    random_sequences,
    random_table_scorer,
)


@pytest.fixture
def painting():
    return painting_fixture()


class TestDynamicConstraint:
    def test_outside_at_end_only_eos(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        state = LinkerState(Phase.OUTSIDE, len(source))
        assert dynamic_constraint(state, source, trie) == {EOS}

    def test_outside_copies_or_opens(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        leonardo_at = source.index(vocab.ordinary_id("Leonardo"))
        state = LinkerState(Phase.OUTSIDE, leonardo_at)
        assert dynamic_constraint(state, source, trie) == {
            vocab.ordinary_id("Leonardo"),
            MENTION_OPEN,
        }

    def test_mention_close_needs_one_token(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        opened = LinkerState(Phase.MENTION, 3, mention_start=3)
        assert MENTION_CLOSE not in dynamic_constraint(opened, source, trie)
        copied = LinkerState(Phase.MENTION, 4, mention_start=3)
        assert dynamic_constraint(copied, source, trie) == {source[4], MENTION_CLOSE}

    def test_link_open_forced_after_mention_close(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        state = LinkerState(Phase.ENTITY, 4, mention_start=3, entity_prefix=None)
        assert dynamic_constraint(state, source, trie) == {LINK_OPEN}

    def test_entity_prefix_not_yet_valid_cannot_close(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        state = LinkerState(
            Phase.ENTITY, 9, mention_start=7, entity_prefix=(vocab.ordinary_id("Mona"),)
        )
        assert dynamic_constraint(state, source, trie) == {vocab.ordinary_id("Lisa")}

    def test_entity_at_valid_name_offers_close(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        prefix = (vocab.ordinary_id("Mona"), vocab.ordinary_id("Lisa"))
        state = LinkerState(Phase.ENTITY, 9, mention_start=7, entity_prefix=prefix)
        allowed = dynamic_constraint(state, source, trie)
        assert LINK_CLOSE in allowed and EOS not in allowed


    def test_constraint_allowed_is_the_ascending_dynamic_constraint(self):
        # raw ids 2..10 put markup specials among the trie labels and the
        # source, so EOS -> LINK_CLOSE must be merged in order, not swapped
        rng = np.random.default_rng(13)
        ids = list(range(2, 11))
        for _ in range(40):
            seqs = {tuple(int(t) for t in rng.choice(ids, size=int(rng.integers(1, 4)))) for _ in range(6)}
            trie = build_trie(seqs, 11)
            source = tuple(int(t) for t in rng.choice(ids, size=int(rng.integers(1, 4))))
            constraint = MarkupConstraint(source, trie)
            frontier = [constraint.start()]
            for _ in range(8):
                following = []
                for state in frontier:
                    allowed = [int(t) for t in constraint.allowed(state)]
                    assert allowed == sorted(set(allowed))
                    assert frozenset(allowed) == dynamic_constraint(state[0], source, trie)
                    for token in allowed:
                        if token == EOS:
                            continue
                        try:
                            following.append(constraint.advance(state, token))
                        except MarkupError:  # a special label inside a link
                            pass
                frontier = following[:200]


    def test_constraint_rejects_a_token_outside_every_name(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        constraint = MarkupConstraint(source, trie)
        state = constraint.start()
        for token in (MENTION_OPEN, source[0], MENTION_CLOSE, LINK_OPEN):
            state = constraint.advance(state, token)
        with pytest.raises(MarkupError, match="continues no entity name"):
            constraint.advance(state, vocab.ordinary_id("began"))


class TestAdvanceState:
    def test_illegal_moves_raise(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        with pytest.raises(MarkupError):
            advance_state(LinkerState(), MENTION_CLOSE, source)
        with pytest.raises(MarkupError):  # empty mention
            advance_state(LinkerState(Phase.MENTION, 0, mention_start=0), MENTION_CLOSE, source)
        with pytest.raises(MarkupError):  # empty entity link
            advance_state(
                LinkerState(Phase.ENTITY, 1, mention_start=0, entity_prefix=()),
                LINK_CLOSE,
                source,
            )

    def test_copy_advances_cursor(self, painting):
        vocab, _, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        state = advance_state(LinkerState(), source[0], source)
        assert state == LinkerState(Phase.OUTSIDE, 1)


class TestLinkDocument:
    def test_painting_sentence_with_oracle(self, painting):
        vocab, trie, target = painting
        scorer = OracleScorer(target, vocab.size)
        doc = link_document(scorer, PAINTING_SOURCE, trie, BeamConfig(k=6, max_steps=384), vocab)
        assert [(s.start, s.length, s.entity) for s in doc.spans] == [
            (9, 8, "Leonardo da Vinci"),
            (37, 9, "Mona Lisa"),
        ]
        assert render_markup(doc) == PAINTING_MARKUP
        assert tuple(parse_markup(render_markup(doc), PAINTING_SOURCE)) == doc.spans

    def test_copy_only_oracle_yields_no_spans(self, painting):
        vocab, trie, _ = painting
        source = tuple(encode(PAINTING_SOURCE, vocab))
        scorer = OracleScorer(source + (EOS,), vocab.size)
        doc = link_document(scorer, PAINTING_SOURCE, trie, BeamConfig(k=2, max_steps=64), vocab)
        assert doc.spans == ()
        assert render_markup(doc) == PAINTING_SOURCE

    def test_no_finish_within_max_steps_gives_diagnostic(self, painting):
        vocab, trie, _ = painting
        scorer = UniformScorer(vocab.size)
        doc = link_document(scorer, PAINTING_SOURCE, trie, BeamConfig(k=2, max_steps=3), vocab)
        assert doc.spans == ()
        assert doc.diagnostics and "max_steps" in doc.diagnostics[0]

    @pytest.mark.parametrize("label", [MENTION_OPEN, MENTION_CLOSE, LINK_OPEN, LINK_CLOSE])
    def test_trie_with_a_markup_label_is_rejected(self, label):
        # inside a link a name token 5 would read as `)`: this oracle would
        # close the link after (7,), which is not a name in the trie
        vocab = Vocabulary(["a", "b", "c"])
        trie = build_trie([(7, label, 8)], vocab.size)
        assert trie.min_label == label
        target = (MENTION_OPEN, 7, MENTION_CLOSE, LINK_OPEN, 7, LINK_CLOSE, EOS)
        scorer = OracleScorer(target, vocab.size)
        with pytest.raises(MarkupError, match=f"trie label {label} is a markup token"):
            link_document(scorer, "a", trie, BeamConfig(k=1, max_steps=16), vocab)
        # the same name without the markup label links to a name in the trie
        ok = build_trie([(7, 9, 8)], vocab.size)
        assert ok.min_label == 7
        doc = link_document(scorer, "a", ok, BeamConfig(k=1, max_steps=16), vocab)
        assert [span.entity for span in doc.spans] == ["a c b"]


class TestCopyFidelityFuzz:
    def test_random_decodes_are_sound_and_copy_faithful(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(71)
        ordinary = list(range(vocab.ordinary_base, vocab.size))
        for _ in range(60):
            seqs = random_sequences(rng, vocab, size=int(rng.integers(1, 6)), max_len=3)
            trie = build_trie(seqs, vocab.size)
            source = tuple(int(t) for t in rng.choice(ordinary, size=int(rng.integers(1, 8))))
            scorer = random_table_scorer(rng, vocab)
            config = BeamConfig(k=int(rng.integers(1, 4)), max_steps=64)
            hyps = beam_search(scorer, source, MarkupConstraint(source, trie), config)
            assert hyps, "a copy-only path always exists, so something must finish"
            for hyp in hyps:
                state = LinkerState()
                for token in hyp.tokens:
                    assert token in dynamic_constraint(state, source, trie)
                    if token == EOS:
                        break
                    state = advance_state(state, token, source)
                assert tuple(strip_markup_tokens(hyp.tokens)) == source
                _, level_spans = replay_markup(hyp.tokens, source)
                for span in level_spans:
                    assert trie.contains(span.entity_tokens)


class TestParseMarkup:
    def test_plain_text_no_spans(self):
        assert parse_markup("x", "x") == []

    def test_soccer_prediction_yields_five_spans(self):
        spans = parse_markup(SOCCER_PREDICTED_MARKUP, SOCCER_SOURCE)
        assert [(s.start, s.length, s.entity) for s in spans] == [
            (19, 7, "Spain"),
            (44, 6, "Madrid"),
            (91, 7, "Spain"),
            (128, 9, "Deportivo de La Coruna"),
            (147, 11, "Real Madrid C.F."),
        ]

    def test_unbalanced_brackets_rejected(self):
        with pytest.raises(MarkupParseError):
            parse_markup("a [b c", "a b c")
        with pytest.raises(MarkupParseError):
            parse_markup("a ]b c", "a b c")
        with pytest.raises(MarkupParseError):
            parse_markup("a [b] c", "a b c")  # missing the entity group

    def test_mention_must_match_source(self):
        with pytest.raises(MarkupParseError, match="does not match"):
            parse_markup("[wrong](E)", "right")

    def test_unknown_entity_keep_or_reject(self):
        spans = parse_markup("[a](X)", "a", known_names={"Y"}, on_unknown="keep")
        assert spans[0].entity == "X"
        with pytest.raises(MarkupParseError, match="unknown entity"):
            parse_markup("[a](X)", "a", known_names={"Y"}, on_unknown="reject")

    def test_literal_parentheses_in_text_are_fine(self):
        source = "a (b) c"
        assert parse_markup("a (b) c", source) == []
        spans = parse_markup("a (b) [c](E)", source)
        assert [(s.start, s.length) for s in spans] == [(6, 1)]

    def test_render_of_parse_reproduces_the_markup(self):
        spans = parse_markup(SOCCER_PREDICTED_MARKUP, SOCCER_SOURCE)
        doc = MarkupDocument(SOCCER_SOURCE, tuple(spans))
        assert render_markup(doc) == SOCCER_PREDICTED_MARKUP


class TestRenderMarkup:
    def test_zero_spans_is_identity(self):
        assert render_markup(MarkupDocument("plain text")) == "plain text"

    def test_adjacent_spans(self):
        doc = MarkupDocument(
            "ab", (SpanAnnotation(0, 1, "X"), SpanAnnotation(1, 1, "Y"))
        )
        markup = render_markup(doc)
        assert markup == "[a](X)[b](Y)"
        assert tuple(parse_markup(markup, "ab")) == doc.spans

    def test_round_trip_fuzz(self):
        rng = np.random.default_rng(83)
        letters = "abcdefg "
        for _ in range(200):
            source = "".join(rng.choice(list(letters), size=int(rng.integers(1, 30))))
            spans = []
            cursor = 0
            while cursor < len(source):
                start = int(rng.integers(cursor, len(source) + 1))
                if start >= len(source):
                    break
                length = int(rng.integers(1, len(source) - start + 1))
                if rng.random() < 0.5:
                    spans.append(SpanAnnotation(start, length, f"E{len(spans)}"))
                cursor = start + length
            doc = MarkupDocument(source, tuple(spans))
            markup = render_markup(doc)
            assert tuple(parse_markup(markup, source)) == doc.spans

    def test_overlapping_spans_rejected(self):
        with pytest.raises(MarkupError):
            MarkupDocument("abcd", (SpanAnnotation(0, 3, "X"), SpanAnnotation(2, 2, "Y")))


class TestChunking:
    def test_sizes_four_four_two(self):
        chunks = chunk_input(tuple(range(100, 110)), 4)
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert tuple(t for chunk in chunks for t in chunk) == tuple(range(100, 110))

    def test_short_input_single_chunk(self):
        assert chunk_input((1, 2, 3), 5) == [(1, 2, 3)]

    def test_chunked_linking_matches_unchunked_when_no_straddle(self):
        # a uniform scorer with normalization ties everything, so the ranking
        # is pure ascending token order and both routes pick the same markup
        words = tuple(f"w{i}" for i in range(8))
        vocab = Vocabulary(words)
        source = " ".join(words)
        trie = build_trie(
            [(vocab.ordinary_id("w1"),), (vocab.ordinary_id("w5"),)], vocab.size
        )
        scorer = UniformScorer(vocab.size)
        config = BeamConfig(k=2, max_steps=64)
        whole = link_document(scorer, source, trie, config, vocab)
        chunked = link_document(scorer, source, trie, config, vocab, chunk_size=4)
        assert whole.spans == chunked.spans

    def test_suite_chunked_equals_unchunked_markup(self):
        # feed the unchunked result back as gold: the chunked run must score
        # a perfect F1 against it when no mention straddles a boundary
        from trie_decode.tasks import TASK_EXTRA_SPECIALS, TaskConfig, run_eval_suite

        words = tuple(f"w{i}" for i in range(8))
        vocab = Vocabulary(words, extra_specials=TASK_EXTRA_SPECIALS)
        source = " ".join(words)
        trie = build_trie(
            [(vocab.ordinary_id("w1"),), (vocab.ordinary_id("w5"),)], vocab.size
        )
        scorer = UniformScorer(vocab.size)
        config = BeamConfig(k=2, max_steps=64)
        gold_markup = render_markup(link_document(scorer, source, trie, config, vocab))
        suite = run_eval_suite(
            [f"d1\t{source}\t{gold_markup}"],
            "el",
            scorer,
            vocab,
            TaskConfig(beams=2, max_steps=64),
            trie=trie,
            chunk_size=4,
        )
        assert suite.report.f1 == 1.0
