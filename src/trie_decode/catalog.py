"""Entity collection, per-mention candidate sets, and cold-start insertion.

Entities are identified by their name string alone; the cached tokenization
is what the trie and the decoders consume.  Every name is held to the one
rule of :func:`_word_ids` (``Catalog(names, vocab)`` and :func:`add_entity`
through :func:`make_record`, :func:`load_catalog` and ``build-trie`` through
:func:`_name_blocks`), so two names are equal exactly when their tokens are.
Catalogs have value semantics: ``add_entity`` returns a new catalog and never
mutates the old one, so any number of readers may share a version.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .vocab import InputError, TokenId, Vocabulary, decode, encode, read_lines, read_rows

RESERVED_NAME_CHARS = frozenset("[]()")
# catalog lines, blank ones too, :func:`_name_blocks` takes per block: larger blocks cost
# memory for the joined text, smaller ones a call each
_BLOCK_LINES = 1024


class CatalogError(InputError):
    """Raised for invalid entity names or malformed catalog files."""


class EntityRecord(NamedTuple):
    """An entity name plus its cached tokenization; it equals the plain tuple ``(name, tokens)``."""

    name: str
    tokens: tuple[TokenId, ...]


def _word_ids(text: str, vocab: Vocabulary) -> array | None:
    """The ids of ``text``'s words, cut at single spaces, if ``text`` passes the name rule; else ``None``.

    The rule: no ``[ ] ( )``, tab or newline, and each word an ordinary
    token, so a blank, padded or double-spaced name, with its empty word,
    fails.  The ids come back as an ``array('I')``, whose conversion is the
    token check: a word that is no token looks up as ``None``, which the
    array refuses with ``TypeError``.  A name passes exactly when it reads
    back from its tokens: :func:`encode` gives these ids, and
    :func:`decode` joins their strings with single spaces.  Names joined
    with single spaces pass exactly when each one does, with the ids of
    each in turn.
    """
    if "[" in text or "]" in text or "(" in text or ")" in text or "\t" in text or "\n" in text:
        return None
    ids = array("I")
    try:
        ids.fromlist(list(map(vocab._table.get, text.split(" "))))
    except TypeError:
        return None
    return ids


def _refusal(name: str, vocab: Vocabulary, line: int | None) -> CatalogError:
    """Why :func:`make_record` refuses ``name``."""
    if not name:
        return CatalogError("empty entity name", line)
    bad = RESERVED_NAME_CHARS.intersection(name)
    if bad:
        return CatalogError(f"entity name contains reserved characters {sorted(bad)}: {name!r}", line)
    if "\t" in name or "\n" in name:
        return CatalogError(f"entity name contains control characters: {name!r}", line)
    read_back = decode(encode(name, vocab), vocab)
    return CatalogError(f"catalog name {name!r} reads back as {read_back!r}, so no decode can emit it", line)


def make_record(name: str, vocab: Vocabulary, line: int | None = None) -> EntityRecord:
    """The record of ``name``; a decode emits the name only if its tokens read back as it."""
    tokens = _word_ids(name, vocab)
    if tokens is None:
        raise _refusal(name, vocab, line)
    return EntityRecord(name, tuple(tokens))


def _name_blocks(source: str | Iterable[str], vocab: Vocabulary) -> Iterator[tuple[list[str], array]]:
    """The stripped names of :func:`read_lines`' non-blank lines, per ``_BLOCK_LINES`` lines, and their ids.

    The ids are one ``array('I')`` per block, laid end to end, a name's one
    more than its spaces.  A block's names, joined with single spaces, pass
    :func:`_word_ids` in one call exactly when each one does; else
    :func:`make_record` raises for its first refused name, if any.  A read
    that fails yields the lines before its bad one first, so a refused name
    among them is named before the bad byte.
    """
    lines = enumerate(read_lines(source), 1)
    while True:
        block, error = [], None
        try:
            block.extend(islice(lines, _BLOCK_LINES))
        except InputError as exc:
            error = exc
        names = [name for _, raw in block if (name := raw.strip())]
        ids = _word_ids(" ".join(names), vocab)
        if ids is None:
            for line, raw in block:  # raises for the block's first refused name
                if name := raw.strip():
                    make_record(name, vocab, line)
            ids = array("I")  # the block has no name
        yield names, ids
        if error is not None:
            raise error
        if len(block) < _BLOCK_LINES:
            return


def _catalog_ids(source: str | Iterable[str], vocab: Vocabulary) -> tuple[array, array]:
    """The ids of :func:`load_catalog`'s names, repeats kept, laid end to end, and each name's id count.

    Both are ``array('I')``, the trie file's u32.
    """
    ids, lengths = array("I"), array("I")
    for names, block_ids in _name_blocks(source, vocab):
        ids += block_ids
        lengths.fromlist([name.count(" ") + 1 for name in names])
    return ids, lengths


class Catalog:
    """Mapping of unique entity names to records (insertion ordered)."""

    __slots__ = ("_records",)

    def __init__(self, names: Iterable[str], vocab: Vocabulary) -> None:
        """The catalog of ``names``; a name :func:`make_record` refuses, or a repeat, raises ``CatalogError``."""
        self._records: dict[str, EntityRecord] = {}
        for name in names:
            if name in self._records:
                raise CatalogError(f"duplicate entity name: {name!r}")
            self._records[name] = make_record(name, vocab)

    @classmethod
    def _of(cls, records: dict[str, EntityRecord]) -> Catalog:
        """The catalog that keeps ``records``, each already made by :func:`make_record`."""
        catalog = cls.__new__(cls)
        catalog._records = records
        return catalog

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __iter__(self) -> Iterator[EntityRecord]:
        return iter(self._records.values())

    def get(self, name: str) -> EntityRecord:
        try:
            return self._records[name]
        except KeyError:
            raise CatalogError(f"unknown entity: {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._records)

    def token_sequences(self) -> list[tuple[TokenId, ...]]:
        return [rec.tokens for rec in self._records.values()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Catalog):
            return NotImplemented
        return self._records == other._records

    def __repr__(self) -> str:
        return f"Catalog({len(self)} entities)"


def load_catalog(source: str | Iterable[str], vocab: Vocabulary) -> tuple[Catalog, int]:
    """Read one entity name per line; blank lines are ignored.

    Returns the catalog and the number of duplicate lines skipped.

    Raises:
        CatalogError: with the offending 1-based line number on a bad name
            or one that does not read back from its tokens.
    """
    records: dict[str, EntityRecord] = {}
    duplicates = 0
    for names, block_ids in _name_blocks(source, vocab):
        ids, end = block_ids.tolist(), 0  # a list slices to a tuple faster than an array
        for name in names:
            start, end = end, end + name.count(" ") + 1
            if name in records:
                duplicates += 1
            else:
                records[name] = EntityRecord(name, tuple(ids[start:end]))
    return Catalog._of(records), duplicates


def add_entity(catalog: Catalog, name: str, vocab: Vocabulary) -> Catalog:
    """Return a new catalog with ``name`` added (cold-start insertion).

    Existing records are reused untouched, so their tokenizations cannot be
    perturbed by the addition.
    """
    record = make_record(name, vocab)
    if name in catalog:
        raise CatalogError(f"duplicate entity name: {name!r}")
    return Catalog._of({**catalog._records, name: record})


class CandidateSet(Sequence[str]):
    """Non-empty set of entity names attached to one mention, each ranked under its own name.

    A read-only ``Sequence[str]`` held as one ``|``-joined string, the field
    of a candidate file or of a dataset's sixth column as read.  Its names
    are that text's non-empty pieces, ``tuple(filter(None, text.split("|")))``,
    split again on each read and never cached, so a loaded set costs about
    its field's bytes.  Two sets, or a set and a tuple, are equal when their
    names are.
    """

    __slots__ = ("_text",)

    def __init__(self, names: Iterable[str]) -> None:
        """The set of ``names``; a ``str``, an empty set, or a name empty or holding ``|``, raises ``CatalogError``."""
        if isinstance(names, str):  # a str would give its letters as names
            raise CatalogError(f"candidate names must be a collection of names, not the string {names!r}")
        names = tuple(names)
        for name in names:
            if not name or "|" in name:
                raise CatalogError(f"candidate name {name!r} cannot be written in a `|`-joined set")
        if not names:
            raise CatalogError("empty candidate set")
        self._text = "|".join(names)

    @classmethod
    def _of_field(cls, text: str) -> CandidateSet | None:
        """The set of a ``|``-joined field, kept as that text; ``None`` when the field holds no name."""
        if not text.strip("|"):
            return None
        candidate_set = cls.__new__(cls)
        candidate_set._text = text
        return candidate_set

    @property
    def names(self) -> tuple[str, ...]:
        """The names, split anew on each read."""
        return tuple(iter(self))

    def __iter__(self) -> Iterator[str]:
        return filter(None, self._text.split("|"))  # one split, and no tuple built

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index: int | slice) -> str | tuple[str, ...]:
        return self.names[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CandidateSet):
            other = other.names
        return self.names == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"CandidateSet({self.names!r})"


def load_candidate_sets(source: str | Iterable[str]) -> dict[str, CandidateSet]:
    """Read ``mention-id TAB name1|name2|...`` lines into candidate sets, each kept as its field's text."""
    sets: dict[str, CandidateSet] = {}
    for lineno, raw in read_rows(source):
        parts = raw.split("\t")
        if len(parts) != 2:
            raise CatalogError("expected `mention-id TAB name1|name2|...`", lineno)
        mention_id, joined = parts
        candidate_set = CandidateSet._of_field(joined)
        if candidate_set is None:
            raise CatalogError("empty candidate set", lineno)
        if mention_id in sets:
            raise CatalogError(f"duplicate mention id: {mention_id!r}", lineno)
        sets[mention_id] = candidate_set
    return sets
