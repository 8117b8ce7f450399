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
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .vocab import InputError, TokenId, Vocabulary, decode, encode, read_rows

RESERVED_NAME_CHARS = frozenset("[]()")
# catalog lines :func:`_name_blocks` compiles per block: larger blocks cost
# memory for the joined text, smaller ones a call each
_BLOCK_ROWS = 1024


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
    """The rows of :func:`read_rows`, ``_BLOCK_ROWS`` at a time, as stripped names and their ids laid end to end.

    The ids are one ``array('I')`` per block, and a name has one id more
    than spaces.  A block's names, joined with single spaces, pass
    :func:`_word_ids` in one call exactly when each one does; a block that
    fails is empty or holds a refused name, and :func:`make_record` goes
    through it line by line and raises for the first.  The last block may
    be empty.  A read that fails yields the rows before its bad line first,
    so a refused name among them is named before the bad byte.
    """
    rows = read_rows(source)
    while True:
        block, error = [], None
        try:
            block.extend(islice(rows, _BLOCK_ROWS))
        except InputError as exc:
            error = exc
        names = [raw.strip() for _, raw in block]
        ids = _word_ids(" ".join(names), vocab)
        if ids is None:
            for (line, _), name in zip(block, names):  # raises for the block's first refused name
                make_record(name, vocab, line)
            ids = array("I")  # the block was empty
        yield names, ids
        if error is not None:
            raise error
        if len(block) < _BLOCK_ROWS:
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


@dataclass(frozen=True)
class CandidateSet:
    """Non-empty set of entity names attached to one mention, each ranked under its own name."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise CatalogError("empty candidate set")


def load_candidate_sets(source: str | Iterable[str]) -> dict[str, CandidateSet]:
    """Read ``mention-id TAB name1|name2|...`` lines into candidate sets."""
    sets: dict[str, CandidateSet] = {}
    for lineno, raw in read_rows(source):
        parts = raw.split("\t")
        if len(parts) != 2:
            raise CatalogError("expected `mention-id TAB name1|name2|...`", lineno)
        mention_id, joined = parts
        names = tuple(filter(None, joined.split("|")))
        if not names:
            raise CatalogError("empty candidate set", lineno)
        if mention_id in sets:
            raise CatalogError(f"duplicate mention id: {mention_id!r}", lineno)
        sets[mention_id] = CandidateSet(names)
    return sets
