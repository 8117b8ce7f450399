"""End-to-end entity linking by dynamically constrained markup decoding.

The decoder rewrites the source token sequence, optionally wrapping mention
spans as ``[mention](Entity Name)``.  Legal next tokens depend on a
three-phase state:

* OUTSIDE a mention: copy the next source token or open a mention with
  ``[``; at the end of the source only EOS is legal, the one final state.
* Inside a MENTION: copy the next source token, or close with ``]`` once at
  least one mention token has been emitted (mentions are never empty).
* Inside an ENTITY link: ``(`` is forced as the single option right after
  ``]``; afterwards the entity trie constrains the tokens, and ``)`` becomes
  legal exactly where the trie node is final, a complete name.

Copying is the only move that advances the source cursor, so stripping all
markup tokens from any finished hypothesis reproduces the source exactly.
Nested or overlapping mentions are unrepresentable.

Long inputs may be split into equal token chunks that are linked
independently and merged by position; a mention that would straddle a chunk
boundary can therefore never be produced, which is the documented behavior
rather than a merge heuristic.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .beam import BeamConfig, _search
from .catalog import RESERVED_NAME_CHARS
from .scoring import Scorer
from .trie import EntityTrie
from .vocab import (
    EOS,
    LINK_CLOSE,
    LINK_OPEN,
    MENTION_CLOSE,
    MENTION_OPEN,
    SOS,
    InputError,
    TokenId,
    Vocabulary,
    decode,
    encode_with_offsets,
)


class MarkupError(InputError):
    """Raised for invalid spans, markup token sequences or linking requests."""


class MarkupParseError(MarkupError):
    """Raised for markup text that does not parse back onto its source."""


class Phase(Enum):
    OUTSIDE = "outside"
    MENTION = "mention"
    ENTITY = "entity"


@dataclass(frozen=True)
class LinkerState:
    """Decoder state between generation steps.

    ``source_cursor`` is the index of the next source token to copy.
    ``mention_start`` is set while inside a mention or entity phase.
    ``entity_prefix`` is ``None`` until ``(`` has been emitted, then the
    tokens generated so far inside the link.
    """

    phase: Phase = Phase.OUTSIDE
    source_cursor: int = 0
    mention_start: int | None = None
    entity_prefix: tuple[TokenId, ...] | None = None


@dataclass(frozen=True)
class SpanAnnotation:
    """A linked mention: character offsets into the source plus the entity."""

    start: int
    length: int
    entity: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.length < 1:
            raise MarkupError(f"invalid span extent: start={self.start} length={self.length}")
        if not self.entity:
            raise MarkupError("empty entity name in span")

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class MarkupDocument:
    """Source text with sorted, non-overlapping span annotations."""

    source: str
    spans: tuple[SpanAnnotation, ...] = ()
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        cursor = 0
        for span in self.spans:
            if span.start < cursor:
                raise MarkupError("spans overlap or are unsorted")
            if span.end > len(self.source):
                raise MarkupError("span exceeds the source text")
            cursor = span.end


def dynamic_constraint(
    state: LinkerState, source: Sequence[TokenId], trie: EntityTrie
) -> frozenset[TokenId]:
    """Legal next tokens for ``state``: the module overview's rule, as a set."""
    cursor = state.source_cursor
    copy = {source[cursor]} if cursor < len(source) else set()
    if state.phase is Phase.OUTSIDE:
        return frozenset(copy | {MENTION_OPEN} if copy else {EOS})
    if state.phase is Phase.MENTION:
        return frozenset(copy | {MENTION_CLOSE} if cursor > state.mention_start else copy)
    if state.entity_prefix is None:
        return frozenset({LINK_OPEN})
    # a complete name is where the trie allows EOS; inside a link, ``)`` ends it
    continuations = trie.allowed_continuations(state.entity_prefix)
    return frozenset(LINK_CLOSE if t == EOS else t for t in continuations)


_CLOSE_ONLY = (LINK_CLOSE,)  # the ids inside a link at a leaf, one tuple for every leaf
_BRACKET = re.compile(r"[\[\]]")


def _link_ids(node: int, trie: EntityTrie) -> tuple[TokenId, ...] | np.ndarray:
    """Legal next tokens inside ``(...)`` at ``node``: the trie's labels, after ``)`` where a name ends.

    A node with two or more children gets the trie's own read-only array (see
    :class:`~trie_decode.trie.EntityTrie`), made once per trie; a leaf gets
    ``(LINK_CLOSE,)`` and a node with one child a new tuple.  The ids ascend:
    :class:`MarkupConstraint` refuses labels at or below ``)``.
    """
    labels = trie.allowed(node)
    if len(labels) < 2:
        if not len(labels):
            return _CLOSE_ONLY  # every childless node ends a name
        return (LINK_CLOSE, *labels.tolist()) if trie.final(node) else tuple(labels.tolist())
    ids = trie._link_ids.get(node)
    if ids is None:
        ids = np.concatenate((_CLOSE_ONLY, labels)) if trie.final(node) else labels.copy()
        ids.flags.writeable = False
        ids = trie._link_ids.setdefault(node, ids)  # a search that stored one first wins
    return ids


def advance_state(state: LinkerState, token: TokenId, source: Sequence[TokenId]) -> LinkerState:
    """Transition on ``token``; raises on structurally illegal moves."""
    cursor = state.source_cursor
    if state.phase is Phase.OUTSIDE:
        if token == MENTION_OPEN:
            if cursor >= len(source):
                raise MarkupError("cannot open a mention at the end of the source")
            return LinkerState(Phase.MENTION, cursor, mention_start=cursor)
        if cursor < len(source) and token == source[cursor]:
            return LinkerState(Phase.OUTSIDE, cursor + 1)
        raise MarkupError(f"illegal token {token} outside a mention")
    if state.phase is Phase.MENTION:
        if token == MENTION_CLOSE:
            if cursor <= state.mention_start:
                raise MarkupError("mentions must be non-empty")
            return LinkerState(Phase.ENTITY, cursor, mention_start=state.mention_start)
        if cursor < len(source) and token == source[cursor]:
            return LinkerState(Phase.MENTION, cursor + 1, mention_start=state.mention_start)
        raise MarkupError(f"illegal token {token} inside a mention")
    if state.entity_prefix is None:
        if token != LINK_OPEN:
            raise MarkupError("the link must open immediately after the mention closes")
        return LinkerState(Phase.ENTITY, cursor, state.mention_start, entity_prefix=())
    if token == LINK_CLOSE:
        if not state.entity_prefix:
            raise MarkupError("empty entity link")
        return LinkerState(Phase.OUTSIDE, cursor)
    if token in (EOS, MENTION_OPEN, MENTION_CLOSE, LINK_OPEN):
        raise MarkupError(f"illegal token {token} inside an entity link")
    return LinkerState(
        Phase.ENTITY, cursor, state.mention_start, state.entity_prefix + (token,)
    )


def _scan(
    tokens: Iterable[TokenId],
) -> tuple[list[TokenId], list[tuple[int, int, tuple[TokenId, ...]]]]:
    """The copied source tokens of ``tokens`` and its links.

    A link is ``(mention start, mention end, entity tokens)``, the mention
    extent counted in copied tokens.  Markup specials and the tokens inside
    ``(...)`` are not copied.  Nothing is validated: a hypothesis that
    :class:`MarkupConstraint` finished is well formed by construction.
    """
    copied: list[TokenId] = []
    links: list[tuple[int, int, tuple[TokenId, ...]]] = []
    entity: list[TokenId] | None = None
    start = 0
    for token in tokens:
        if token == LINK_OPEN:
            entity = []
        elif token == LINK_CLOSE:
            if entity is not None:
                links.append((start, len(copied), tuple(entity)))
            entity = None
        elif token == MENTION_OPEN:
            start = len(copied)
        elif token in (MENTION_CLOSE, EOS):
            continue
        elif entity is not None:
            entity.append(token)
        else:
            copied.append(token)
    return copied, links


def strip_markup_tokens(tokens: Sequence[TokenId]) -> list[TokenId]:
    """Drop markup specials and entity tokens, keeping only copied source tokens."""
    return _scan(tokens)[0]


# the phases of a MarkupConstraint state: as Phase, with MENTION split at
# its first copy and ENTITY at ``(``
_OUTSIDE, _OPENED, _MENTION, _OPEN_LINK, _LINK = range(5)
_State = tuple[int, int, int]  # (phase, cursor, trie node)


class MarkupConstraint:
    """The linking FSM as a :func:`beam_search` constraint over ``source``.

    The state is a ``(phase, cursor, node)`` tuple of ints: ``phase`` is
    OUTSIDE, OPENED (after ``[``, nothing copied yet), MENTION, OPEN_LINK
    (after ``]``) or LINK (inside ``(...)``); ``cursor`` is the next source
    token, and ``node`` the entity prefix's trie node (the root outside a
    link).  Every phase before the link reads its ids from a per-cursor
    table built once per source.  Inside a link, ``allowed`` hands out, per
    trie node, the trie's own read-only array where the node has two or more
    children, made once per trie and shared by every constraint over it; a
    tuple kept by this constraint where it has one; and one shared
    ``(LINK_CLOSE,)`` at a leaf.  So a node met again, in this search or
    another, gives the same object, whose cut :func:`beam_search` sorts at
    most once per search and reuses, and no document copies the trie's
    labels.  ``advance`` inside a link bisects the trie's labels in place.
    The one final state is outside at the end of the source.
    ``allowed`` matches :func:`dynamic_constraint` (without EOS, ascending),
    and ``advance``, defined only for an id in ``allowed(state)``, moves as
    :func:`advance_state` does: that reference, which keeps the errors, is
    what this FSM is tested against.  A trie label that is a markup id would
    read as markup inside a link, and a source id at or below ``)`` would be
    copied as SOS, EOS or markup, so such a trie or source raises
    :class:`MarkupError`; ``advance`` then reads each move off the token
    alone.
    """

    def __init__(self, source: Sequence[TokenId], trie: EntityTrie) -> None:
        if trie.min_label <= LINK_CLOSE:
            raise MarkupError(
                f"trie label {trie.min_label} is a markup token ({MENTION_OPEN}..{LINK_CLOSE}); "
                "entity names cannot contain one"
            )
        source = tuple(source)
        lowest = min(source, default=LINK_CLOSE + 1)
        if lowest <= LINK_CLOSE:
            raise MarkupError(
                f"source token {lowest} is a sequence or markup token ({SOS}..{LINK_CLOSE}); "
                "it cannot be copied"
            )
        self._trie = trie
        self._labels, self._first = trie._token, trie._first  # the bisection inside a link reads these
        self._root = trie.start()
        self._end = _OUTSIDE, len(source), self._root  # the one final state
        # allowed ids by phase, then by cursor, for each phase before _LINK
        self._tables = (
            [(MENTION_OPEN, t) for t in source] + [()],
            [(t,) for t in source] + [()],
            [(MENTION_CLOSE, t) for t in source] + [(MENTION_CLOSE,)],
            [(LINK_OPEN,)] * (len(source) + 1),
        )
        # allowed ids inside a link by trie node, filled on first use from _link_ids
        self._links: dict[int, tuple[TokenId, ...] | np.ndarray] = {}

    def start(self) -> _State:
        return _OUTSIDE, 0, self._root

    def final(self, state: _State) -> bool:
        return state == self._end

    def allowed(self, state: _State) -> tuple[TokenId, ...] | np.ndarray:
        phase, cursor, node = state
        if phase == _LINK:
            allowed = self._links.get(node)
            if allowed is None:
                allowed = self._links[node] = _link_ids(node, self._trie)
            return allowed
        return self._tables[phase][cursor]

    def advance(self, state: _State, token: TokenId) -> _State:
        phase, cursor, node = state
        if phase == _LINK:
            if token == LINK_CLOSE:
                return _OUTSIDE, cursor, self._root
            return _LINK, cursor, bisect_left(self._labels, token, self._first[node], self._first[node + 1])
        if token == MENTION_OPEN:
            return _OPENED, cursor, node
        if token == MENTION_CLOSE:
            return _OPEN_LINK, cursor, node
        if token == LINK_OPEN:
            return _LINK, cursor, node
        return (_OUTSIDE if phase == _OUTSIDE else _MENTION), cursor + 1, node


def link_document(
    scorer: Scorer,
    source: str,
    trie: EntityTrie,
    config: BeamConfig,
    vocab: Vocabulary,
    chunk_size: int | None = None,
) -> MarkupDocument:
    """Annotate ``source`` with entity links via constrained beam search.

    A chunk (the whole source unless ``chunk_size`` splits it) whose decode
    finishes no hypothesis within ``max_steps`` adds no spans and a
    diagnostic, prefixed ``chunk i: `` in a chunked run.  Span offsets are
    characters in the original ``source`` string.

    An annotated output costs up to ``5 + longest-name-length`` tokens per
    source token, so ``max_steps`` (or ``chunk_size``) must leave room for
    the markup or heavily annotated hypotheses cannot finish.

    Each chunk reads only its search's best hypothesis, so a markup that
    reaches the end of its chunk is not scored where its ``cum_logprob``
    (over its length with EOS, when normalized) is already strictly below
    the best score pooled: its EOS value, at most 0.0, could not lift it to
    the best.  The scorer value such a markup would read is never read, and
    so never refused.

    Each chunk's :class:`MarkupConstraint` hands out the ids inside a link
    from arrays that ``trie`` keeps for all its searches, so linking a
    document copies none of the trie's labels, and the first documents
    linked over a trie also fill its table, at most one array per node with
    two or more children.

    Raises :class:`MarkupError` when ``source`` holds a square bracket, naming
    the first and its offset, since its linked markup could not parse back;
    when ``chunk_size`` is below 1, whatever the source; or when an entity
    name in ``trie`` contains a markup token (see :class:`MarkupConstraint`).
    """
    bracket = _BRACKET.search(source)
    if bracket:
        raise MarkupError(
            f"source holds {bracket.group()!r} at offset {bracket.start()}; "
            "square brackets are markup, so the linked text could not parse back"
        )
    token_spans = encode_with_offsets(source, vocab)
    tokens = tuple(span.token for span in token_spans)
    chunks = [tokens] if chunk_size is None else chunk_input(tokens, chunk_size)
    chunked = len(chunks) > 1
    spans: list[SpanAnnotation] = []
    diagnostics: list[str] = []
    offset = 0
    for index, chunk in enumerate(chunks):
        pool = _search(scorer, chunk, MarkupConstraint(chunk, trie), config, 1)
        if pool:
            for start, end, entity in _scan(pool[0][1])[1]:
                first, last = token_spans[offset + start], token_spans[offset + end - 1]
                spans.append(SpanAnnotation(first.start, last.end - first.start, decode(entity, vocab)))
        else:
            where = f"chunk {index}: " if chunked else ""
            diagnostics.append(f"{where}no finished hypothesis within max_steps={config.max_steps}")
        offset += len(chunk)
    return MarkupDocument(source, tuple(spans), tuple(diagnostics))


def chunk_input(source: Sequence[TokenId], max_len: int) -> list[tuple[TokenId, ...]]:
    """Split into ``ceil(n / max_len)`` chunks of at most ``max_len`` tokens.

    Chunk sizes differ by at most one, the longer chunks first: 10 tokens at
    ``max_len=4`` split 4, 3, 3.
    """
    if max_len < 1:
        raise MarkupError("chunk size must be at least 1")
    tokens = tuple(source)
    count = -(-len(tokens) // max_len) or 1
    size, longer = divmod(len(tokens), count)
    bounds = [i * size + min(i, longer) for i in range(count + 1)]
    return [tokens[a:b] for a, b in zip(bounds, bounds[1:])]


def render_markup(doc: MarkupDocument) -> str:
    """Insert ``[``, ``](``, ``)`` around each span of the source text."""
    parts: list[str] = []
    cursor = 0
    for span in doc.spans:
        parts.append(doc.source[cursor : span.start])
        parts.append("[")
        parts.append(doc.source[span.start : span.end])
        parts.append("](")
        parts.append(span.entity)
        parts.append(")")
        cursor = span.end
    parts.append(doc.source[cursor:])
    return "".join(parts)


def parse_markup(markup: str, source: str) -> list[SpanAnnotation]:
    """Recover span annotations from a ``[mention](Entity)`` markup string.

    Offsets are measured in ``source``; the text outside the groups must
    reproduce it exactly.  Sources containing literal square brackets are
    outside this format's contract.
    """
    spans: list[SpanAnnotation] = []
    i = j = 0
    while j < len(markup):
        char = markup[j]
        if char == "[":
            close = markup.find("]", j + 1)
            if close < 0:
                raise MarkupParseError("unbalanced '[': no closing ']'")
            mention = markup[j + 1 : close]
            if not mention:
                raise MarkupParseError("empty mention")
            if "[" in mention:
                raise MarkupParseError("nested '[' inside a mention")
            if close + 1 >= len(markup) or markup[close + 1] != "(":
                raise MarkupParseError("mention must be followed by '(' and an entity name")
            entity_close = markup.find(")", close + 2)
            if entity_close < 0:
                raise MarkupParseError("unbalanced '(': no closing ')'")
            entity = markup[close + 2 : entity_close]
            if not entity:
                raise MarkupParseError("empty entity name")
            if not RESERVED_NAME_CHARS.isdisjoint(entity):
                raise MarkupParseError(f"reserved characters in entity name: {entity!r}")
            if source[i : i + len(mention)] != mention:
                raise MarkupParseError(
                    f"mention {mention!r} does not match the source at offset {i}"
                )
            spans.append(SpanAnnotation(i, len(mention), entity))
            i += len(mention)
            j = entity_close + 1
        elif char == "]":
            raise MarkupParseError("unbalanced ']' outside a mention")
        else:
            if i >= len(source) or source[i] != char:
                raise MarkupParseError(f"markup diverges from the source at offset {i}")
            i += 1
            j += 1
    if i != len(source):
        raise MarkupParseError("markup ends before the source is exhausted")
    return spans
