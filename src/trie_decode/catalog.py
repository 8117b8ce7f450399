"""Entity collection, per-mention candidate sets, and cold-start insertion.

Entities are identified by their name string alone; the cached tokenization
is what the trie and the decoders consume.  Catalogs have value semantics:
``add_entity`` returns a new catalog and never mutates the old one, so any
number of readers may share a version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .vocab import InputError, TokenId, Vocabulary, encode, read_rows

RESERVED_NAME_CHARS = frozenset("[]()")


class CatalogError(InputError):
    """Raised for invalid entity names or malformed catalog files."""


@dataclass(frozen=True)
class EntityRecord:
    """An entity name plus its cached tokenization."""

    name: str
    tokens: tuple[TokenId, ...]


def _validate_name(name: str, line: int | None = None) -> None:
    if not name:
        raise CatalogError("empty entity name", line)
    bad = RESERVED_NAME_CHARS.intersection(name)
    if bad:
        raise CatalogError(f"entity name contains reserved characters {sorted(bad)}: {name!r}", line)
    if "\t" in name or "\n" in name:
        raise CatalogError(f"entity name contains control characters: {name!r}", line)


def make_record(name: str, vocab: Vocabulary, line: int | None = None) -> EntityRecord:
    _validate_name(name, line)
    return EntityRecord(name, tuple(encode(name, vocab)))


class Catalog:
    """Mapping of unique entity names to records (insertion ordered)."""

    __slots__ = ("_records",)

    def __init__(self, records: Iterable[EntityRecord] = ()) -> None:
        self._records: dict[str, EntityRecord] = {}
        for rec in records:
            if rec.name in self._records:
                raise CatalogError(f"duplicate entity name: {rec.name!r}")
            self._records[rec.name] = rec

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
        CatalogError: with the offending 1-based line number on bad names.
    """
    records: dict[str, EntityRecord] = {}
    duplicates = 0
    for lineno, raw in read_rows(source):
        name = raw.strip()
        if name in records:
            duplicates += 1
            continue
        records[name] = make_record(name, vocab, line=lineno)
    catalog = Catalog.__new__(Catalog)
    catalog._records = records
    return catalog, duplicates


def add_entity(catalog: Catalog, name: str, vocab: Vocabulary) -> Catalog:
    """Return a new catalog with ``name`` added (cold-start insertion).

    Existing records are reused untouched, so their tokenizations cannot be
    perturbed by the addition.
    """
    _validate_name(name)
    if name in catalog:
        raise CatalogError(f"duplicate entity name: {name!r}")
    new = Catalog.__new__(Catalog)
    new._records = dict(catalog._records)
    new._records[name] = make_record(name, vocab)
    return new


@dataclass(frozen=True)
class CandidateSet:
    """Non-empty subset of catalog names attached to one mention."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise CatalogError("empty candidate set")

    @classmethod
    def checked(cls, names: Iterable[str], catalog: Catalog) -> "CandidateSet":
        names = tuple(names)
        for name in names:
            if name not in catalog:
                raise CatalogError(f"candidate not in catalog: {name!r}")
        return cls(names)


def load_candidate_sets(
    source: str | Iterable[str], catalog: Catalog | None = None
) -> dict[str, CandidateSet]:
    """Read ``mention-id TAB name1|name2|...`` lines into candidate sets.

    Membership is validated against ``catalog`` when one is given.
    """
    sets: dict[str, CandidateSet] = {}
    for lineno, raw in read_rows(source):
        parts = raw.split("\t")
        if len(parts) != 2:
            raise CatalogError("expected `mention-id TAB name1|name2|...`", lineno)
        mention_id, joined = parts
        names = tuple(n for n in joined.split("|") if n)
        if not names:
            raise CatalogError("empty candidate set", lineno)
        if mention_id in sets:
            raise CatalogError(f"duplicate mention id: {mention_id!r}", lineno)
        if catalog is not None:
            sets[mention_id] = CandidateSet.checked(names, catalog)
        else:
            sets[mention_id] = CandidateSet(names)
    return sets
