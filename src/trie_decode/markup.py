"""End-to-end entity linking by dynamically constrained markup decoding.

The decoder rewrites the source token sequence, optionally wrapping mention
spans as ``[mention](Entity Name)``.  Legal next tokens depend on a
three-phase state:

* OUTSIDE a mention: copy the next source token or open a mention with
  ``[``; at the end of the source only EOS is legal.
* Inside a MENTION: copy the next source token, or close with ``]`` once at
  least one mention token has been emitted (mentions are never empty).
* Inside an ENTITY link: ``(`` is forced as the single option right after
  ``]``; afterwards the entity trie constrains the tokens, and ``)`` becomes
  legal exactly where the trie accepts the prefix as a complete name.

Copying is the only move that advances the source cursor, so stripping all
markup tokens from any finished hypothesis reproduces the source exactly.
Nested or overlapping mentions are unrepresentable.

Long inputs may be split into equal token chunks that are linked
independently and merged by position; a mention that would straddle a chunk
boundary can therefore never be produced, which is the documented behavior
rather than a merge heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .beam import BeamConfig, beam_search
from .scoring import Scorer
from .trie import EntityTrie
from .vocab import (
    EOS,
    LINK_CLOSE,
    LINK_OPEN,
    MENTION_CLOSE,
    MENTION_OPEN,
    TokenId,
    TokenSpan,
    Vocabulary,
    decode,
    encode_with_offsets,
)


class MarkupError(ValueError):
    pass


class MarkupParseError(MarkupError):
    pass


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
    """Legal next tokens for ``state`` (see the module overview)."""
    node = trie.start()
    if state.entity_prefix is not None:
        try:
            for token in state.entity_prefix:
                node = trie.advance(node, token)
        except KeyError:
            return frozenset()
    return frozenset(map(int, _allowed(state, node, source, trie)))


def _pair(a: TokenId, b: TokenId) -> tuple[TokenId, ...]:
    return (a, b) if a < b else (b, a) if b < a else (a,)


def _allowed(
    state: LinkerState, node: int, source: Sequence[TokenId], trie: EntityTrie
) -> tuple[TokenId, ...] | np.ndarray:
    """Legal next tokens, ascending; ``node`` is the entity prefix's trie node."""
    cursor = state.source_cursor
    if state.phase is Phase.OUTSIDE:
        if cursor >= len(source):
            return (EOS,)
        return _pair(source[cursor], MENTION_OPEN)
    if state.phase is Phase.MENTION:
        closable = cursor > state.mention_start
        if cursor >= len(source):
            return (MENTION_CLOSE,) if closable else ()
        return _pair(source[cursor], MENTION_CLOSE) if closable else (source[cursor],)
    if state.entity_prefix is None:
        return (LINK_OPEN,)
    allowed = trie.allowed(node)
    if allowed[0] != EOS:
        return allowed
    if len(allowed) == 1:
        return (LINK_CLOSE,)
    if allowed[1] > LINK_CLOSE:
        # EOS sorts first and LINK_CLOSE still sorts before the children
        allowed = allowed.copy()
        allowed[0] = LINK_CLOSE
        return allowed
    return np.union1d(allowed[1:], (LINK_CLOSE,))


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


@dataclass(frozen=True)
class TokenLevelSpan:
    mention_start: int
    mention_end: int
    entity_tokens: tuple[TokenId, ...]


def replay_markup(
    tokens: Sequence[TokenId], source: Sequence[TokenId]
) -> tuple[LinkerState, list[TokenLevelSpan]]:
    """Walk a finished hypothesis through the state machine, collecting spans."""
    state = LinkerState()
    spans: list[TokenLevelSpan] = []
    for i, token in enumerate(tokens):
        if token == EOS:
            if i != len(tokens) - 1:
                raise MarkupError("EOS before the final position")
            if state.phase is not Phase.OUTSIDE or state.source_cursor != len(source):
                raise MarkupError("EOS before the source was exhausted")
            break
        if token == LINK_CLOSE and state.phase is Phase.ENTITY and state.entity_prefix is not None:
            spans.append(
                TokenLevelSpan(state.mention_start, state.source_cursor, state.entity_prefix)
            )
        state = advance_state(state, token, source)
    return state, spans


def strip_markup_tokens(tokens: Sequence[TokenId]) -> list[TokenId]:
    """Drop markup specials and entity tokens, keeping only copied source tokens."""
    out: list[TokenId] = []
    in_link = False
    for token in tokens:
        if token == LINK_OPEN:
            in_link = True
        elif token == LINK_CLOSE:
            in_link = False
        elif token in (MENTION_OPEN, MENTION_CLOSE, EOS) or in_link:
            continue
        else:
            out.append(token)
    return out


class MarkupConstraint:
    """The linking FSM as a :func:`beam_search` constraint over ``source``.

    The state is a ``(LinkerState, node)`` pair, where ``node`` is the trie
    node of the entity prefix once ``(`` has been emitted, so the entity
    phase reads ``trie.allowed(node)`` instead of re-walking the prefix.
    ``start()`` is the initial OUTSIDE state, ``allowed`` gives the same ids
    as :func:`dynamic_constraint` as an ascending sequence, and ``advance``
    is :func:`advance_state` plus one trie step inside a link.
    """

    def __init__(self, source: Sequence[TokenId], trie: EntityTrie) -> None:
        self._source = tuple(source)
        self._trie = trie

    def start(self) -> tuple[LinkerState, int]:
        return LinkerState(), self._trie.start()

    def allowed(self, state: tuple[LinkerState, int]) -> tuple[TokenId, ...] | np.ndarray:
        linker, node = state
        return _allowed(linker, node, self._source, self._trie)

    def advance(self, state: tuple[LinkerState, int], token: TokenId) -> tuple[LinkerState, int]:
        linker, node = state
        after = advance_state(linker, token, self._source)
        if linker.entity_prefix is not None and after.entity_prefix is not None:
            try:
                node = self._trie.advance(node, token)
            except KeyError:
                raise MarkupError(f"token {token} continues no entity name") from None
        else:
            node = self._trie.start()
        return after, node


def _char_spans(
    token_spans: Sequence[TokenSpan],
    level_spans: Iterable[TokenLevelSpan],
    vocab: Vocabulary,
) -> list[SpanAnnotation]:
    out = []
    for span in level_spans:
        first = token_spans[span.mention_start]
        last = token_spans[span.mention_end - 1]
        out.append(
            SpanAnnotation(first.start, last.end - first.start, decode(span.entity_tokens, vocab))
        )
    return out


def link_document(
    scorer: Scorer,
    source: str,
    trie: EntityTrie,
    config: BeamConfig,
    vocab: Vocabulary,
    chunk_size: int | None = None,
) -> MarkupDocument:
    """Annotate ``source`` with entity links via constrained beam search.

    Returns an empty-span document with a diagnostic when no hypothesis
    finishes within ``max_steps``.  Span offsets are characters in the
    original ``source`` string.

    An annotated output costs up to ``5 + longest-name-length`` tokens per
    source token, so ``max_steps`` (or ``chunk_size``) must leave room for
    the markup or heavily annotated hypotheses cannot finish.

    Raises :class:`MarkupError` when an entity name in ``trie`` contains a
    markup token (ids ``MENTION_OPEN..LINK_CLOSE``): inside a link it would
    read as markup, so the decoded entity need not be a name in the trie.
    """
    if trie.min_label <= LINK_CLOSE:
        raise MarkupError(
            f"trie label {trie.min_label} is a markup token ({MENTION_OPEN}..{LINK_CLOSE}); "
            "entity names cannot contain one"
        )
    token_spans = encode_with_offsets(source, vocab)
    tokens = tuple(span.token for span in token_spans)
    if chunk_size is not None and len(tokens) > chunk_size:
        spans: list[SpanAnnotation] = []
        diagnostics: list[str] = []
        start = 0
        for index, chunk in enumerate(chunk_input(tokens, chunk_size)):
            chunk_token_spans = token_spans[start : start + len(chunk)]
            start += len(chunk)
            best = _link_tokens(scorer, chunk, trie, config)
            if best is None:
                diagnostics.append(
                    f"chunk {index}: no finished hypothesis within max_steps={config.max_steps}"
                )
                continue
            _, level_spans = replay_markup(best.tokens, chunk)
            spans.extend(_char_spans(chunk_token_spans, level_spans, vocab))
        return MarkupDocument(source, tuple(spans), tuple(diagnostics))
    best = _link_tokens(scorer, tokens, trie, config)
    if best is None:
        return MarkupDocument(
            source, (), (f"no finished hypothesis within max_steps={config.max_steps}",)
        )
    _, level_spans = replay_markup(best.tokens, tokens)
    return MarkupDocument(source, tuple(_char_spans(token_spans, level_spans, vocab)))


def _link_tokens(scorer, tokens, trie, config):
    hypotheses = beam_search(scorer, tokens, MarkupConstraint(tokens, trie), config)
    return hypotheses[0] if hypotheses else None


def chunk_input(source: Sequence[TokenId], max_len: int) -> list[tuple[TokenId, ...]]:
    """Split into chunks of ``max_len`` tokens; only the last may be shorter."""
    if max_len < 1:
        raise MarkupError("chunk size must be at least 1")
    tokens = tuple(source)
    return [tokens[i : i + max_len] for i in range(0, len(tokens), max_len)] or [()]


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


def parse_markup(
    markup: str,
    source: str,
    known_names: Iterable[str] | None = None,
    on_unknown: str = "keep",
) -> list[SpanAnnotation]:
    """Recover span annotations from a ``[mention](Entity)`` markup string.

    Offsets are measured in ``source``; the text outside the groups must
    reproduce it exactly.  ``on_unknown`` selects whether an entity missing
    from ``known_names`` is kept or rejected.  Sources containing literal
    square brackets are outside this format's contract.
    """
    if on_unknown not in ("keep", "reject"):
        raise MarkupParseError(f"on_unknown must be 'keep' or 'reject', got {on_unknown!r}")
    known = set(known_names) if known_names is not None else None
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
            if any(c in "[]()" for c in entity):
                raise MarkupParseError(f"reserved characters in entity name: {entity!r}")
            if source[i : i + len(mention)] != mention:
                raise MarkupParseError(
                    f"mention {mention!r} does not match the source at offset {i}"
                )
            if known is not None and entity not in known:
                if on_unknown == "reject":
                    raise MarkupParseError(f"unknown entity: {entity!r}")
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
