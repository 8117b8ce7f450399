"""Vocabulary construction, encoding, and the round-trip contract."""

import numpy as np
import pytest

from trie_decode.catalog import load_candidate_sets, load_catalog
from trie_decode.cli import _load_predictions
from trie_decode.scoring import load_table_scorer
from trie_decode.tasks import load_dr_dataset, load_ed_dataset, load_el_dataset
from trie_decode.vocab import (
    CORE_SPECIAL_STRINGS,
    EOS,
    MENTION_OPEN,
    NUM_CORE_SPECIALS,
    SOS,
    UNK,
    InputError,
    Vocabulary,
    VocabularyError,
    decode,
    encode,
    encode_with_offsets,
    load_vocabulary,
)

from helpers import WORD_POOL, pool_vocabulary


@pytest.fixture
def vocab():
    return Vocabulary(("English", "France", "language", "literature"))


class TestVocabulary:
    def test_special_ids_fixed(self, vocab):
        assert SOS == 0 and EOS == 1 and UNK == 6
        assert vocab.string_of(MENTION_OPEN) == "["
        assert vocab.ordinary_base == NUM_CORE_SPECIALS == 7

    def test_ordinary_ids_follow_specials(self, vocab):
        assert vocab.ordinary_id("English") == 7
        assert vocab.ordinary_id("literature") == 10
        assert vocab.size == 11

    def test_duplicate_token_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(("a", "a"))

    def test_token_colliding_with_special_rejected(self):
        for special in CORE_SPECIAL_STRINGS:
            with pytest.raises(VocabularyError):
                Vocabulary((special,))

    def test_whitespace_token_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(("two words",))

    def test_extra_specials_take_ids_after_core(self):
        v = Vocabulary(("a", "b"), extra_specials=("[S]", "[E]"))
        assert v.extra_special_id("[S]") == 7
        assert v.extra_special_id("[E]") == 8
        assert v.ordinary_id("a") == 9

    def test_load_from_lines_matches_line_plus_seven(self):
        v = load_vocabulary(["English", "France"])
        assert v.ordinary_id("English") == 7
        assert v.ordinary_id("France") == 8

    def test_load_rejects_empty_line(self):
        with pytest.raises(VocabularyError, match="line 2"):
            load_vocabulary(["ok", "", "also-ok"])


class TestEncode:
    def test_empty_input(self, vocab):
        assert encode("", vocab) == []

    def test_single_token_identity(self, vocab):
        assert encode("France", vocab) == [vocab.ordinary_id("France")]

    def test_greedy_longest_match_two_words(self, vocab):
        # hand application of the rule: two whitespace words, each a full token
        assert encode("English language", vocab) == [
            vocab.ordinary_id("English"),
            vocab.ordinary_id("language"),
        ]

    def test_longest_match_beats_shorter_prefix(self):
        v = Vocabulary(("ab", "abc", "c"))
        # greedy should take "abc" whole rather than "ab" + "c"
        assert encode("abc", v) == [v.ordinary_id("abc")]
        assert encode("abcc", v) == [v.ordinary_id("abc"), v.ordinary_id("c")]

    def test_unknown_characters_become_unk(self, vocab):
        assert encode("zz", vocab) == [UNK, UNK]

    def test_specials_never_produced_from_text(self, vocab):
        for text in ("[", "]", "(", ")", "<s>", "</s>", "<unk>", "[ ] ( )"):
            assert all(t == UNK for t in encode(text, vocab))

    def test_offsets_cover_the_matched_characters(self, vocab):
        spans = encode_with_offsets("  English   France ", vocab)
        assert [(s.start, s.length) for s in spans] == [(2, 7), (12, 6)]

    def test_deterministic(self, vocab):
        assert encode("English literature", vocab) == encode("English literature", vocab)

    def test_encode_agrees_with_offsets_on_random_text(self):
        # overlapping tokens, so greedy matching and whole-word lookups differ in reach
        v = Vocabulary(("ab", "abc", "c", "bca", "abcab", "é", "中文"))
        pieces = (
            "ab", "abc", "c", "bca", "abcab", "é", "中文", "a", "b", "z", "€", "\U0001F600",
            " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u2028", "\x1c", "\x85",
        )
        rng = np.random.default_rng(41)
        for _ in range(2000):
            text = "".join(rng.choice(pieces, size=int(rng.integers(0, 12))))
            assert encode(text, v) == [s.token for s in encode_with_offsets(text, v)], repr(text)


class TestDecode:
    def test_empty(self, vocab):
        assert decode([], vocab) == ""

    def test_single(self, vocab):
        assert decode([vocab.ordinary_id("France")], vocab) == "France"

    def test_two_tokens_single_space(self, vocab):
        tokens = encode("English literature", vocab)
        assert decode(tokens, vocab) == "English literature"

    def test_out_of_range_rejected(self, vocab):
        with pytest.raises(VocabularyError, match="out of range"):
            decode([vocab.size], vocab)
        with pytest.raises(VocabularyError):
            decode([-1], vocab)


class TestRoundTrip:
    def test_round_trip_for_in_vocabulary_words(self):
        vocab = pool_vocabulary()
        rng = np.random.default_rng(7)
        for _ in range(300):
            words = rng.choice(WORD_POOL, size=rng.integers(1, 8))
            text = " ".join(words)
            assert decode(encode(text, vocab), vocab) == text

    def test_round_trip_normalizes_whitespace_only(self, vocab):
        assert decode(encode("  English \t language ", vocab), vocab) == "English language"


READER_VOCAB = Vocabulary(("France",), extra_specials=("[START_ENT]", "[END_ENT]"))


@pytest.mark.parametrize(
    "reader, text, line",
    [
        # a blank line is the vocabulary's one bad line: ids follow line positions
        (load_vocabulary, "English\n\nFrance\n", 2),
        (lambda path: load_catalog(path, READER_VOCAB), "France\n\nbad [name]\n", 3),
        (load_candidate_sets, "m1\tFrance\n\nm2\n", 3),
        (load_table_scorer, "1.0\t10\n\n7\t8\n", 3),
        (lambda path: load_ed_dataset(path, READER_VOCAB), "m1\tFrance\t0\t6\tFrance\n\nm2\tFrance\n", 3),
        (load_dr_dataset, "q1\tFrance\tFrance\n\nq2\tFrance\n", 3),
        (load_el_dataset, "d1\tFrance\t[France](France)\n\nd2\tFrance\n", 3),
        (lambda path: list(_load_predictions(path)), '{"id": "d1", "spans": []}\n\n{"id"\n', 3),
    ],
    ids=["vocabulary", "catalog", "candidates", "scorer", "ed", "dr", "el", "predictions"],
)
def test_every_reader_numbers_lines_from_one(tmp_path, reader, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        reader(str(path))
    if isinstance(caught.value, InputError):
        assert str(caught.value).startswith(f"line {line}: ")
        assert caught.value.line == line
    else:  # a dump line is named as file:line, like the records it yields
        assert str(caught.value).startswith(f"{path}:{line}: ")
