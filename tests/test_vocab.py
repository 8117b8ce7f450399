"""Vocabulary construction, encoding, and the round-trip contract."""

import re
import tracemalloc

import numpy as np
import pytest

from trie_decode.catalog import CatalogError, _catalog_ids, load_candidate_sets, load_catalog
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
    read_lines,
    read_rows,
)

from helpers import WORD_POOL, pool_vocabulary, reference_encode_with_offsets


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

    @pytest.mark.parametrize("extras", [("[S]", "[S]"), ("<unk>",)], ids=["repeated", "core"])
    def test_duplicate_extra_special_rejected(self, extras):
        with pytest.raises(VocabularyError, match="duplicate special string"):
            Vocabulary(("a",), extra_specials=extras)

    @pytest.mark.parametrize("tokens, extras", [(("a", ""), ()), (("a",), ("",))], ids=["token", "extra-special"])
    def test_empty_token_string_rejected(self, tokens, extras):
        with pytest.raises(VocabularyError, match="empty (token|extra special) string"):
            Vocabulary(tokens, extras)

    def test_unknown_strings_and_ids_rejected(self, vocab):
        with pytest.raises(VocabularyError, match="not an ordinary vocabulary token: 'Paris'"):
            vocab.ordinary_id("Paris")
        # a core special is no ordinary token
        with pytest.raises(VocabularyError, match="not an ordinary vocabulary token"):
            vocab.ordinary_id(CORE_SPECIAL_STRINGS[UNK])
        with pytest.raises(VocabularyError, match=r"not a registered extra special: '\[S\]'"):
            vocab.extra_special_id("[S]")
        for bad in (-1, vocab.size):
            with pytest.raises(VocabularyError, match=f"token id out of range: {bad}"):
                vocab.string_of(bad)
        assert vocab.string_of(vocab.size - 1) == "literature"

    def test_equality_hash_length_and_repr(self, vocab):
        same = Vocabulary(["English", "France", "language", "literature"])
        assert same == vocab and hash(same) == hash(vocab) and len({same, vocab}) == 1
        assert vocab != Vocabulary(("English", "France", "language"))
        assert vocab != Vocabulary(vocab.tokens, extra_specials=("[S]",))
        assert vocab.__eq__(vocab.tokens) is NotImplemented
        assert len(vocab) == vocab.size == 11
        assert repr(Vocabulary(("a", "b"), ("[S]",))) == "Vocabulary(2 tokens, extra_specials=('[S]',))"

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

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["ok", "be ta"], "line 2: token string contains whitespace: 'be ta'"),
            (["a", "b", "a"], "line 3: duplicate token string: 'a'"),
            (["a", "<unk>"], "line 2: duplicate token string: '<unk>'"),
            (["a", "b", "", "c d"], "line 3: empty token string"),
        ],
    )
    def test_load_names_the_line_of_a_refused_token(self, lines, message):
        for build in (load_vocabulary, Vocabulary):  # a token's place in a list is its line in a file
            with pytest.raises(VocabularyError, match=f"^{re.escape(message)}$"):
                build(lines)

    def test_load_names_no_line_for_a_refused_extra_special(self):
        with pytest.raises(VocabularyError, match="^extra special string contains whitespace: 'a b'$"):
            load_vocabulary(["ok"], extra_specials=["a b"])


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

    def test_offsets_match_the_word_regex_reference(self):
        # random overlapping vocabularies, and texts mixing their pieces, unknown
        # characters and every kind of separator str.split cuts on
        letters = ("a", "b", "c", "é", "中")
        separators = (" ", "\t", "\n", "\x1c", "\x85", "\v", "\f", "\r", "\u2028", "\u3000", "\u00a0")
        rng = np.random.default_rng(47)
        for _ in range(3000):
            sizes = rng.integers(1, 5, size=int(rng.integers(1, 8)))
            words = {"".join(rng.choice(letters, size=int(size))) for size in sizes}
            v = Vocabulary(sorted(words))
            pieces = (*words, *letters, "z", "\U0001F600", *separators)
            text = "".join(rng.choice(pieces, size=int(rng.integers(0, 14))))
            spans = encode_with_offsets(text, v)
            assert spans == reference_encode_with_offsets(text, v), repr(text)
            assert encode(text, v) == [s.token for s in spans]

    def test_text_never_encodes_to_a_special_but_unk(self):
        # candidate-set decoding relies on this: its names hold no SOS or EOS
        # and no id at or past the vocabulary size, so they go unchecked
        extras = ("[START_ENT]", "[END_ENT]")
        v = Vocabulary(("ab", "<s>x", "[a", "é", "中文"), extras)
        pieces = (*CORE_SPECIAL_STRINGS, *extras, "ab", "<s>x", "[a", "é", "中文", "<", "s", ">", "/", "x", " ", "\t")
        rng = np.random.default_rng(43)
        for _ in range(2000):
            text = "".join(rng.choice(pieces, size=int(rng.integers(0, 12))))
            for token in encode(text, v):
                assert token == UNK or v.ordinary_base <= token < v.size, (text, token)


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


def read_predictions(path):
    return list(_load_predictions(path))


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
        (read_predictions, '{"id": "d1", "spans": []}\n\n{"id"\n', 3),
    ],
    ids=["vocabulary", "catalog", "candidates", "scorer", "ed", "dr", "el", "predictions"],
)
def test_every_reader_numbers_lines_from_one(tmp_path, reader, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        reader(str(path))
    if reader is not read_predictions:
        assert str(caught.value).startswith(f"line {line}: ")
        assert caught.value.line == line
    else:  # a dump line is named as file:line, like the records it yields
        assert str(caught.value).startswith(f"{path}:{line}: ")


# str.splitlines breaks at these, a text-mode file does not
LINE_BREAKS_INSIDE_A_LINE = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


# (text of a file, its lines)
LINE_CASES = [
    *((f"a{sep}b\nc\n", [f"a{sep}b", "c"]) for sep in LINE_BREAKS_INSIDE_A_LINE),
    ("a\r\nb\r\n", ["a", "b"]),
    ("a\rb", ["a", "b"]),
    ("a\nb", ["a", "b"]),
    ("a\n\n", ["a", ""]),
    ("\n", [""]),
    ("", []),
]
LINE_CASE_IDS = [
    *(f"{ord(sep):#x}-inside" for sep in LINE_BREAKS_INSIDE_A_LINE),
    "crlf", "lone-cr", "no-final-newline", "blank-last", "newline", "empty",
]


@pytest.mark.parametrize("text, lines", LINE_CASES, ids=LINE_CASE_IDS)
def test_a_path_reads_the_lines_of_its_open_file(tmp_path, text, lines):
    path = tmp_path / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        assert list(read_lines(fh)) == lines
    assert list(read_lines(str(path))) == lines


def test_a_path_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path):
    # \r, \r\n and \n each end one line, as read_lines splits them
    path = tmp_path / "lines.txt"
    path.write_bytes(b"a\rb\r\n\nc\n\xe2\x82")
    with pytest.raises(InputError) as caught:
        list(read_lines(str(path)))
    assert str(caught.value) == f"{path}:5: not UTF-8 (can't decode byte 0xe2: unexpected end of data)"


def test_read_rows_skips_the_lines_str_strip_empties():
    # \x1c, \x85 and U+3000 are whitespace to str.strip and str.isspace alike; U+200B is not
    lines = ["\x1c", "a", "\x85", " \u3000\t", "", "\x1c b \x85", "\u200b", "\x1d\x1e\x1f\f\v"]
    assert list(read_rows(lines)) == [(2, "a"), (6, "\x1c b \x85"), (7, "\u200b")]
    assert [(i, line) for i, line in enumerate(lines, 1) if line.strip()] == list(read_rows(lines))


def whole_file_read(path):
    """``(lines, error message or None)`` of ``path`` read whole, as the reader first did.

    On a bad byte, the lines are those ended before it.
    """
    data = path.read_bytes()
    try:
        text, message = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        message = f"{path}:{line}: not UTF-8 (can't decode byte {data[exc.start]:#04x}: {exc.reason})"
        text = head.decode("utf-8")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if message is not None or not lines[-1]:  # the bad byte's line, or the text after a final newline
        lines.pop()
    return lines, message


def chunked_read(path):
    """``(lines, error message or None)`` of ``read_lines`` at ``path``: the lines yielded before any error."""
    lines = []
    try:
        for line in read_lines(str(path)):
            lines.append(line)
    except InputError as exc:
        return lines, str(exc)
    return lines, None


class TestChunkedReader:
    """A path is read ``_CHUNK_BYTES`` at a time, and every chunk size reads what one whole read does."""

    @pytest.fixture(params=[1, 2, 3])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr("trie_decode.vocab._CHUNK_BYTES", request.param)
        return request.param

    def test_every_line_case_reads_alike_at_a_small_chunk(self, tmp_path, chunk):
        for text, lines in LINE_CASES:
            test_a_path_reads_the_lines_of_its_open_file(tmp_path, text, lines)
        test_a_path_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path)

    def test_a_crlf_split_across_two_chunks_ends_one_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr("trie_decode.vocab._CHUNK_BYTES", 3)
        path = tmp_path / "lines.txt"
        path.write_bytes(b"ab\r\ncd\r\r\n")  # chunks "ab\r", "\ncd", "\r\r\n"
        assert list(read_lines(str(path))) == ["ab", "cd", ""]

    def test_a_character_split_across_chunks_reads_whole(self, tmp_path, chunk):
        path = tmp_path / "lines.txt"
        path.write_bytes("a\u00e9\u20ac\U0001f600\nb\u00e9\n".encode("utf-8"))
        assert list(read_lines(str(path))) == ["a\u00e9\u20ac\U0001f600", "b\u00e9"]

    def test_a_bad_byte_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr("trie_decode.vocab._CHUNK_BYTES", 4)
        path = tmp_path / "lines.txt"
        path.write_bytes(b"ab\ncd\r\nef\xffgh\n")  # the bad byte is in the third chunk, "f\xffgh"
        assert chunked_read(path) == (
            ["ab", "cd"], f"{path}:3: not UTF-8 (can't decode byte 0xff: invalid start byte)"
        )

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 3, 5, None])
    def test_random_files_read_as_one_whole_read(self, tmp_path, monkeypatch, chunk_bytes):
        if chunk_bytes is not None:
            monkeypatch.setattr("trie_decode.vocab._CHUNK_BYTES", chunk_bytes)
        pieces = [
            b"a", b"b", b" ", b"\r", b"\n", b"\r\n", b"\x1c", "\u2028".encode(), "\u00e9".encode(),
            "\u20ac".encode(), "\U0001f600".encode(), b"\xff", b"\xe2\x82", b"\xc3",
        ]
        rng = np.random.default_rng(101)
        path = tmp_path / "lines.txt"
        for _ in range(300):
            path.write_bytes(b"".join(pieces[i] for i in rng.integers(0, len(pieces), int(rng.integers(0, 13)))))
            assert chunked_read(path) == whole_file_read(path), path.read_bytes()

    def test_reading_rows_holds_a_chunk_not_the_file(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("".join(f"name {i}\n" for i in range(200_000)), encoding="utf-8")
        assert path.stat().st_size > 2_000_000
        tracemalloc.start()
        try:
            rows = sum(1 for _ in read_rows(str(path)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == 200_000
        # about 1 MB, the line objects of two 64 KiB chunks; the whole file's list of lines is over 15 MB
        assert peak < 2_000_000


class TestWhichErrorWins:
    """A row loader names the first bad line in file order: a bad byte only wins on or before a refused row."""

    BAD_NAME = b"bad [name]\n"
    BAD_BYTE = b"\xffFrance\n"

    @staticmethod
    def catalog(tmp_path, first, second, gap):
        """``France`` lines, ``first`` on line 3, then ``gap`` more ``France`` lines and ``second``."""
        path = tmp_path / "catalog.txt"
        path.write_bytes(b"France\n" * 2 + first + b"France\n" * gap + second)
        return str(path)

    # 20 lines: one chunk and one block; 1,500: the next block; 20,000: a later 64 KiB chunk
    @pytest.mark.parametrize("gap", [20, 1_500, 20_000])
    @pytest.mark.parametrize("load", [load_catalog, _catalog_ids], ids=["load_catalog", "build-trie"])
    def test_a_bad_name_before_a_bad_byte_is_named(self, tmp_path, load, gap):
        path = self.catalog(tmp_path, self.BAD_NAME, self.BAD_BYTE, gap)
        with pytest.raises(CatalogError, match=r"^line 3: entity name contains reserved characters"):
            load(path, READER_VOCAB)

    @pytest.mark.parametrize("gap", [20, 1_500, 20_000])
    @pytest.mark.parametrize("load", [load_catalog, _catalog_ids], ids=["load_catalog", "build-trie"])
    def test_a_bad_byte_before_a_bad_name_is_named(self, tmp_path, load, gap):
        path = self.catalog(tmp_path, self.BAD_BYTE, self.BAD_NAME, gap)
        with pytest.raises(InputError) as caught:
            load(path, READER_VOCAB)
        assert str(caught.value) == f"{path}:3: not UTF-8 (can't decode byte 0xff: invalid start byte)"


def test_a_vocabulary_line_holding_a_separator_is_one_bad_token(tmp_path):
    # a path once split at "\x1c", loading "a" and "b" and shifting every later id by one
    path = tmp_path / "vocab.txt"
    path.write_bytes("English\na\x1cb\nFrance\n".encode("utf-8"))
    with pytest.raises(VocabularyError, match=r"^line 2: token string contains whitespace: 'a\\x1cb'$"):
        load_vocabulary(str(path))
