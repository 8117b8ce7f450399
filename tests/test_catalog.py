"""Catalog loading, validation, and cold-start insertion."""

import re
import tracemalloc
from array import array
from types import SimpleNamespace

import numpy as np
import pytest

from trie_decode.beam import BeamConfig, rank_entities
from trie_decode.catalog import (
    _BLOCK_LINES,
    CandidateSet,
    Catalog,
    CatalogError,
    _catalog_ids,
    _word_ids,
    add_entity,
    load_candidate_sets,
    load_catalog,
    make_record,
)
from trie_decode.scoring import UniformScorer
from trie_decode.trie import build_trie
from trie_decode.vocab import Vocabulary

from helpers import (
    SHARED_PREFIX_NAMES,
    WORD_POOL,
    pool_vocabulary,
    random_candidate_field,
    reference_load_catalog,
    reference_make_record,
    shared_prefix_vocabulary,
)


@pytest.fixture
def vocab():
    return shared_prefix_vocabulary()


class TestLoadCatalog:
    def test_single_name(self, vocab):
        catalog, dup = load_catalog(["France"], vocab)
        assert len(catalog) == 1 and dup == 0

    def test_three_names(self, vocab):
        catalog, dup = load_catalog(list(SHARED_PREFIX_NAMES), vocab)
        assert len(catalog) == 3 and dup == 0
        assert catalog.names() == SHARED_PREFIX_NAMES

    def test_duplicates_skipped_and_counted(self, vocab):
        catalog, dup = load_catalog(["France", "France"], vocab)
        assert len(catalog) == 1
        assert dup == 1

    def test_reserved_characters_rejected_with_line_number(self, vocab):
        with pytest.raises(CatalogError, match="line 2"):
            load_catalog(["France", "Metro (x)"], vocab)
        for bad in ("a[b", "a]b", "a(b", "a)b"):
            with pytest.raises(CatalogError):
                load_catalog([bad], vocab)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("New\tYork", r"entity name contains control characters: 'New\tYork'"),
            ("a(b]", r"entity name contains reserved characters ['(', ']']: 'a(b]'"),
            ("x\t[y", r"entity name contains reserved characters ['[']: 'x\t[y'"),
        ],
    )
    def test_rejected_names_keep_their_message_and_line(self, vocab, name, message):
        with pytest.raises(CatalogError) as err:
            load_catalog(["France", name], vocab)
        assert str(err.value) == f"line 2: {message}"

    def test_blank_lines_ignored(self, vocab):
        catalog, _ = load_catalog(["France", "", "  "], vocab)
        assert len(catalog) == 1

    def test_idempotent_on_its_own_output(self, vocab):
        catalog, _ = load_catalog(list(SHARED_PREFIX_NAMES), vocab)
        again, dup = load_catalog(list(catalog.names()), vocab)
        assert again == catalog and dup == 0

    def test_tokens_cached(self, vocab):
        catalog, _ = load_catalog(["English language"], vocab)
        assert catalog.get("English language").tokens == (
            vocab.ordinary_id("English"),
            vocab.ordinary_id("language"),
        )


class TestCatalog:
    def test_get_of_an_unknown_name(self, vocab):
        catalog, _ = load_catalog(list(SHARED_PREFIX_NAMES), vocab)
        assert catalog.get("France").name == "France"
        with pytest.raises(CatalogError, match="unknown entity: 'Paris'"):
            catalog.get("Paris")

    def test_equality_against_another_type_and_repr(self, vocab):
        catalog, _ = load_catalog(list(SHARED_PREFIX_NAMES), vocab)
        assert catalog == load_catalog(list(SHARED_PREFIX_NAMES), vocab)[0]
        assert catalog.__eq__(catalog.names()) is NotImplemented
        assert catalog != catalog.names()
        assert repr(catalog) == "Catalog(3 entities)"

    def test_a_record_is_an_immutable_name_tokens_pair(self, vocab):
        record = load_catalog(["English language"], vocab)[0].get("English language")
        tokens = tuple(vocab.ordinary_id(w) for w in ("English", "language"))
        assert (record.name, record.tokens) == ("English language", tokens)
        assert record == ("English language", tokens) == make_record("English language", vocab)
        assert repr(record) == f"EntityRecord(name='English language', tokens={tokens!r})"
        with pytest.raises(AttributeError):
            record.name = "France"


class TestAddEntity:
    def test_add_new(self, vocab):
        catalog, _ = load_catalog(["France"], vocab)
        grown = add_entity(catalog, "English", vocab)
        assert "English" in grown and len(grown) == 2
        assert "English" not in catalog  # old version untouched

    def test_add_duplicate_rejected(self, vocab):
        catalog, _ = load_catalog(["France"], vocab)
        with pytest.raises(CatalogError, match="duplicate"):
            add_entity(catalog, "France", vocab)

    def test_add_reserved_rejected(self, vocab):
        catalog, _ = load_catalog(["France"], vocab)
        with pytest.raises(CatalogError):
            add_entity(catalog, "x(y)", vocab)

    def test_newline_in_an_added_name_rejected(self, vocab):
        catalog, _ = load_catalog(["France"], vocab)
        with pytest.raises(CatalogError) as err:
            add_entity(catalog, "New\nYork", vocab)
        assert str(err.value) == r"entity name contains control characters: 'New\nYork'"

    def test_add_then_rebuild_trie_gains_one_leaf(self, vocab):
        catalog, _ = load_catalog(list(SHARED_PREFIX_NAMES), vocab)
        before = build_trie(catalog.token_sequences(), vocab.size)
        grown = add_entity(catalog, "literature", vocab)
        after = build_trie(grown.token_sequences(), vocab.size)
        assert after.leaf_count == before.leaf_count + 1
        assert after.contains(grown.get("literature").tokens)

    def test_add_never_perturbs_existing_tokenizations(self, vocab):
        catalog, _ = load_catalog(list(SHARED_PREFIX_NAMES), vocab)
        before = {rec.name: rec.tokens for rec in catalog}
        grown = add_entity(catalog, "France literature", vocab)
        for name, tokens in before.items():
            assert grown.get(name).tokens == tokens


class TestReadBack:
    """A name is a catalog name only if its tokens decode back to it."""

    VOCAB = ("Caf", "Paris", "New", "York")
    REFUSED = pytest.mark.parametrize(
        "name, read_back",
        [("Café", "Caf <unk>"), ("New  York", "New York")],
        ids=["unknown-character", "double-space"],
    )

    @REFUSED
    def test_load_refuses_a_name_with_its_line(self, name, read_back):
        with pytest.raises(CatalogError) as err:
            load_catalog(["Paris", "", name], Vocabulary(self.VOCAB))
        assert err.value.line == 3
        assert str(err.value) == (
            f"line 3: catalog name {name!r} reads back as {read_back!r}, so no decode can emit it"
        )

    @REFUSED
    def test_add_entity_refuses_a_name(self, name, read_back):
        vocab = Vocabulary(self.VOCAB)
        catalog, _ = load_catalog(["Paris"], vocab)
        with pytest.raises(CatalogError) as err:
            add_entity(catalog, name, vocab)
        assert err.value.line is None
        assert str(err.value) == f"catalog name {name!r} reads back as {read_back!r}, so no decode can emit it"

    @REFUSED
    def test_constructor_refuses_a_name(self, name, read_back):
        with pytest.raises(CatalogError) as err:
            Catalog(["Paris", name], Vocabulary(self.VOCAB))
        assert err.value.line is None
        assert str(err.value) == f"catalog name {name!r} reads back as {read_back!r}, so no decode can emit it"

    def test_constructor_refuses_a_duplicate(self):
        with pytest.raises(CatalogError, match="^duplicate entity name: 'Paris'$"):
            Catalog(["Paris", "York", "Paris"], Vocabulary(self.VOCAB))

    def test_constructor_agrees_with_load(self):
        vocab = Vocabulary(self.VOCAB)
        names = ["Paris", "New York", "Caf"]
        assert Catalog(names, vocab) == load_catalog(names, vocab)[0]

    def test_make_record_agrees_with_the_reference(self):
        # random names of tokens, token fragments, specials and odd characters, with odd separators
        vocab = Vocabulary((*self.VOCAB, "x(y", "<s>x"))
        pieces = (*self.VOCAB, "x(y", "<s>x", "CafParis", "Ca", "é", "<unk>", "(", "]", "\t", "\x1c", "\u2028", "")
        separators = (" ", " ", " ", "  ", "", "\u00a0", "\n")
        rng = np.random.default_rng(79)
        for _ in range(2000):
            words = rng.choice(pieces, size=int(rng.integers(1, 5)))
            name = "".join(str(w) + str(rng.choice(separators)) for w in words)[: -1 if rng.random() < 0.8 else None]
            try:
                expected = reference_make_record(name, vocab, 3)
            except CatalogError as exc:
                with pytest.raises(CatalogError) as err:
                    make_record(name, vocab, 3)
                assert (str(err.value), err.value.line) == (str(exc), 3)
            else:
                assert make_record(name, vocab, 3).tokens == expected

    def test_every_ranked_name_is_a_catalog_name(self):
        # keep each name that loads on its own; a trie over them ranks each under its own name
        vocab = Vocabulary(self.VOCAB)
        accepted = []
        for name in ("Paris", "Café", "New York", "New  York", "York", "Caf", "CafParis", "Caf é"):
            try:
                load_catalog([name], vocab)
            except CatalogError:
                continue
            accepted.append(name)
        assert accepted == ["Paris", "New York", "York", "Caf"]
        catalog, _ = load_catalog(accepted, vocab)
        trie = build_trie(catalog.token_sequences(), vocab.size)
        ranking = rank_entities(UniformScorer(vocab.size), (), trie, BeamConfig(10, 5), vocab)
        assert sorted(entry.name for entry in ranking) == sorted(catalog.names())


# the four lines from two before block edge k: at odd k a name and its repeat
# sit either side of the edge, at even k they hold two blank lines between them
_EDGE_LINES = (("name", "", "", "repeat"), (None, "name", "repeat", None))


def seeded_catalog_lines(seed: int, count: int) -> list[str]:
    """``count`` catalog lines of pool words: names, some padded, among blank and whitespace-only lines.

    About one name in five repeats an earlier one, some the name just before
    (a repeat inside one block), others any name (mostly across blocks).  At
    each block edge a name of four words and its repeat sit on either side,
    as :data:`_EDGE_LINES` places them.
    """
    rng = np.random.default_rng(seed)
    names: list[str] = []
    lines: list[str] = []
    while len(lines) < count:
        edge, at = divmod(len(lines) + 2, _BLOCK_LINES)
        step = _EDGE_LINES[edge % 2][at] if edge and at < 4 else None
        if step == "" or step is None and rng.random() < 0.1:
            lines.append(str(rng.choice(["", " ", "\t", " \t  "])))
            continue
        if step == "name":
            name = " ".join(rng.choice(WORD_POOL, size=4))
        elif step == "repeat":
            name = names[-1]
        elif names and rng.random() < 0.2:
            name = names[-1] if rng.random() < 0.3 else names[int(rng.integers(len(names)))]
        else:
            name = " ".join(rng.choice(WORD_POOL, size=int(rng.integers(1, 5))))
        names.append(name)
        lines.append(f" {name}\t " if rng.random() < 0.2 else name)
    return lines


class TestOneCompiler:
    """``load_catalog`` and ``build-trie`` compile names in blocks, each against the per-line rule."""

    @pytest.mark.parametrize("rows", [3 * _BLOCK_LINES + 500, 4 * _BLOCK_LINES, _BLOCK_LINES, 1, 0])
    def test_load_agrees_with_the_reference(self, rows):
        vocab = pool_vocabulary()
        lines = seeded_catalog_lines(rows, rows)
        assert len(lines) == rows
        catalog, duplicates = load_catalog(lines, vocab)
        expected, expected_duplicates = reference_load_catalog(lines, vocab)
        assert [(record.name, record.tokens) for record in catalog] == list(expected.items())
        assert duplicates == expected_duplicates
        assert duplicates >= rows // 10
        # build-trie keeps the repeats: every row's tokens, laid end to end
        ids, lengths = _catalog_ids(lines, vocab)
        names = [line.strip() for line in lines if line.strip()]
        assert list(lengths) == [len(expected[name]) for name in names]
        assert list(ids) == [t for name in names for t in expected[name]]

    @pytest.mark.parametrize(
        "name, message",
        [
            ("alpha (beta)", "entity name contains reserved characters ['(', ')']: 'alpha (beta)'"),
            ("alpha\tbeta", r"entity name contains control characters: 'alpha\tbeta'"),
            ("alpha  beta", "catalog name 'alpha  beta' reads back as 'alpha beta', so no decode can emit it"),
            ("alphabet", "catalog name 'alphabet' reads back as 'alpha <unk> <unk> <unk>', so no decode can emit it"),
        ],
    )
    def test_a_refused_name_in_block_two_names_its_line(self, name, message):
        vocab = pool_vocabulary()
        lines = seeded_catalog_lines(7, _BLOCK_LINES + 30)
        lines[-10:-10] = ["", name, "alpha [beta]"]  # the first of two refused names raises
        line = len(lines) - 11
        assert reference_load_catalog(lines[:_BLOCK_LINES], vocab)[1] > 0  # block one holds a repeat
        assert line > _BLOCK_LINES
        for load in (load_catalog, _catalog_ids, reference_load_catalog):
            with pytest.raises(CatalogError) as err:
                load(lines, vocab)
            assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)

    def test_constructor_names_a_duplicate_before_a_later_refusal(self):
        with pytest.raises(CatalogError, match=r"^duplicate entity name: 'a'$"):
            Catalog(["a", "a", "x(y)"], Vocabulary(("a", "y")))

    @pytest.mark.parametrize("char", "[]()\t\n", ids=["[", "]", "(", ")", "tab", "newline"])
    def test_the_rule_refuses_each_character_itself(self, char):
        # a table that would take the word, so the refusal does not lean on the vocabulary's own checks
        word = f"a{char}b"
        table = SimpleNamespace(_table={word: 7, "a": 8})
        assert _word_ids("a a", table) == array("I", [8, 8])
        assert _word_ids(word, table) is None
        assert _word_ids(f"a {word}", table) is None


class TestCandidateSets:
    def test_non_empty_enforced(self):
        with pytest.raises(CatalogError):
            CandidateSet(())

    def test_load_candidate_file(self):
        sets = load_candidate_sets(["m1\tFrance|English language", "m2\tFrance"])
        assert sets["m1"].names == ("France", "English language")
        assert sets["m2"].names == ("France",)

    def test_load_rejects_malformed_line(self):
        with pytest.raises(CatalogError, match="line 1"):
            load_candidate_sets(["no-tab-here"])

    def test_load_rejects_empty_set(self):
        with pytest.raises(CatalogError, match="empty candidate set"):
            load_candidate_sets(["m1\t|"])

    @pytest.mark.parametrize("names", ["France", "", "a|b"])
    def test_a_string_is_refused_not_read_as_its_letters(self, names):
        with pytest.raises(CatalogError, match=re.escape(f"not the string {names!r}")):
            CandidateSet(names)

    @pytest.mark.parametrize("name", ["a|b", "", "|a"])
    def test_a_name_a_field_cannot_hold_is_refused(self, name):
        with pytest.raises(CatalogError, match=r"cannot be written in a `\|`-joined set"):
            CandidateSet(("alpha", name))

    def test_a_set_reads_its_field_as_the_filter_over_its_split(self):
        rng = np.random.default_rng(45)
        for _ in range(500):
            field = random_candidate_field(rng)
            names = tuple(filter(None, field.split("|")))
            if not names:
                continue
            (loaded,) = load_candidate_sets([f"m1\t{field}"]).values()
            assert tuple(loaded) == loaded.names == names
            assert len(loaded) == len(names)
            assert [loaded[i] for i in range(-len(names), len(names))] == list(names + names)
            assert loaded[1:] == names[1:]
            assert all(name in loaded for name in names) and "" not in loaded and "|" not in loaded
            built = CandidateSet(names)
            assert loaded == built == names and names == loaded and loaded != list(names)
            assert hash(loaded) == hash(built) == hash(names)
            assert repr(loaded) == f"CandidateSet({names!r})"

    def test_a_field_of_no_name_is_refused_on_its_line(self):
        rng = np.random.default_rng(46)
        refused = 0
        for _ in range(300):
            field = random_candidate_field(rng)
            good = [f"g{i}\tFrance|Café" for i in range(int(rng.integers(0, 4)))]
            lines = good + [f"m1\t{field}"]
            if tuple(filter(None, field.split("|"))):
                assert load_candidate_sets(lines)["m1"] == tuple(filter(None, field.split("|")))
                continue
            refused += 1
            with pytest.raises(CatalogError) as caught:
                load_candidate_sets(lines)
            assert type(caught.value) is CatalogError
            line = len(lines)
            assert (str(caught.value), caught.value.line) == (f"line {line}: empty candidate set", line)
        assert refused > 30

    def test_loaded_sets_hold_under_one_and_a_half_bytes_per_file_byte(self, tmp_path):
        # 2,000 lines of 10..60 names of 1..4 words, the shape of the benchmark's candidate file;
        # a tuple of split names held about 3.5 bytes per file byte
        rng = np.random.default_rng(47)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        # an array, which rng.choice draws from without converting a list on every call
        words = np.array(["".join(rng.choice(letters, size=int(rng.integers(3, 10)))) for _ in range(2000)])
        path = tmp_path / "candidates.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(2000):
                names = (
                    " ".join(rng.choice(words, size=int(rng.integers(1, 5))))
                    for _ in range(int(rng.integers(10, 61)))
                )
                fh.write(f"m{i}\t{'|'.join(names)}\n")
        tracemalloc.start()
        try:
            sets = load_candidate_sets(str(path))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sets) == 2000
        assert held / path.stat().st_size <= 1.5
