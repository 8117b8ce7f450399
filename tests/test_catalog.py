"""Catalog loading, validation, and cold-start insertion."""

from array import array
from types import SimpleNamespace

import numpy as np
import pytest

from trie_decode.beam import BeamConfig, rank_entities
from trie_decode.catalog import (
    _BLOCK_ROWS,
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


def seeded_catalog_lines(seed: int, rows: int) -> list[str]:
    """``rows`` catalog rows of pool words, with blank, whitespace-only and padded lines.

    About one row in five repeats an earlier name, some the row just before
    (a repeat inside one block), others any row (mostly across blocks).  The
    last row of each block and the first of the next hold the same name of
    four words, so a block edge falls between a name and its repeat.
    """
    rng = np.random.default_rng(seed)
    names: list[str] = []
    lines: list[str] = []
    for row in range(rows):
        if row % _BLOCK_ROWS == _BLOCK_ROWS - 1:
            name = " ".join(rng.choice(WORD_POOL, size=4))
        elif row % _BLOCK_ROWS == 0 and row:
            name = names[-1]
        elif names and rng.random() < 0.2:
            name = names[-1] if rng.random() < 0.3 else names[int(rng.integers(len(names)))]
        else:
            name = " ".join(rng.choice(WORD_POOL, size=int(rng.integers(1, 5))))
        names.append(name)
        while rng.random() < 0.1:
            lines.append(str(rng.choice(["", " ", "\t", " \t  "])))
        lines.append(f" {name}\t " if rng.random() < 0.2 else name)
    return lines


class TestOneCompiler:
    """``load_catalog`` and ``build-trie`` compile names in blocks, each against the per-line rule."""

    @pytest.mark.parametrize("rows", [3 * _BLOCK_ROWS + 500, 4 * _BLOCK_ROWS, _BLOCK_ROWS, 1, 0])
    def test_load_agrees_with_the_reference(self, rows):
        vocab = pool_vocabulary()
        lines = seeded_catalog_lines(rows, rows)
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
        lines = seeded_catalog_lines(7, _BLOCK_ROWS + 30)
        lines[-10:-10] = ["", name, "alpha [beta]"]  # the first of two refused names raises
        line = len(lines) - 11
        block_one_end = [i for i, text in enumerate(lines) if text.strip()][_BLOCK_ROWS - 1]
        assert reference_load_catalog(lines[: block_one_end + 1], vocab)[1] > 0
        assert line > block_one_end + 1
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
