"""Beam search with log-probability masking against a constraint.

A constraint is a state machine: ``start()`` is the state of the empty
prefix, ``allowed(state)`` the legal next token ids (EOS where finishing is
legal) as an ascending 1-D sequence of distinct ints (an integer ndarray, a
list or a tuple, never a set), and ``advance(state, token)`` the state after
a legal token.  Each live hypothesis carries its state, so no step re-reads a
prefix or rebuilds a set.  ``EntityTrie`` (state: a node; allowed: a
read-only view of its labels) and ``MarkupConstraint`` (state: a
``(LinkerState, trie node)`` pair) implement it.  Tokens outside the allowed
set score minus infinity; the surviving entries are *not* renormalized, so
the score of any fully decoded sequence equals its unconstrained stepwise
sum.  Finished hypotheses are retired to a pool and do not occupy beam
slots; pruning keeps the best ``k`` live hypotheses by cumulative
log-probability.  The final ranking applies length normalization when
configured, breaking exact ties by ascending token-sequence order so that
results are total and reproducible.

A single search is sequential; any number of searches may run concurrently
over a shared trie and scorer, which are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, NamedTuple, Protocol, Sequence, TypeVar

import numpy as np

from .catalog import Catalog
from .scoring import Scorer, sequence_score
from .trie import EntityTrie
from .vocab import EOS, TokenId, Vocabulary, decode

State = TypeVar("State")


class Constraint(Protocol[State]):
    """Legal continuations as a state machine (see the module overview)."""

    def start(self) -> State: ...

    def allowed(self, state: State) -> Sequence[TokenId] | np.ndarray:
        """Legal next ids, ascending and distinct; empty at a dead end."""

    def advance(self, state: State, token: TokenId) -> State: ...


class BeamError(ValueError):
    pass


_PARTITION_FROM = 256  # allowed ids past which :func:`_best` partitions first


@dataclass(frozen=True)
class Hypothesis:
    """A partial or finished decode (no SOS; EOS present iff finished)."""

    tokens: tuple[TokenId, ...]
    cum_logprob: float
    finished: bool


@dataclass(frozen=True)
class BeamConfig:
    k: int = 10
    max_steps: int = 15
    length_normalize: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise BeamError("beam width must be at least 1")
        if self.max_steps < 1:
            raise BeamError("max_steps must be at least 1")


class RankedEntry(NamedTuple):
    name: str
    raw_logprob: float
    normalized_score: float
    tokens: tuple[TokenId, ...]


@dataclass(frozen=True)
class RankedResult:
    """Entries sorted descending by score, ties by ascending token order.

    ``diagnostics`` explains entries a caller expected but the ranking lacks,
    such as candidate names too long to finish within ``max_steps``.
    """

    entries: tuple[RankedEntry, ...]
    diagnostics: tuple[str, ...] = ()

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def __iter__(self) -> Iterator[RankedEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> RankedEntry:
        return self.entries[index]


def mask_logprobs(logprobs: np.ndarray, allowed: Collection[TokenId] | np.ndarray) -> np.ndarray:
    """Set entries outside ``allowed`` to -inf, leaving the rest unchanged.

    ``allowed`` may be a set or a sequence such as a constraint returns.  No
    renormalization happens.  An empty allowed set is a dead end and is
    rejected here.  This is the reference semantics of a search step, which
    :func:`beam_search` computes without building the masked vector.
    """
    if len(allowed) == 0:
        raise BeamError("empty allowed set")
    masked = np.full(logprobs.shape, -np.inf)
    idx = np.fromiter(allowed, dtype=np.intp, count=len(allowed))
    if idx.min() < 0 or idx.max() >= logprobs.shape[0]:
        raise BeamError("allowed token id out of range")
    masked[idx] = logprobs[idx]
    return masked


def beam_search(
    scorer: Scorer,
    input_tokens: Sequence[TokenId],
    constraint: Constraint,
    config: BeamConfig,
) -> list[Hypothesis]:
    """Search for up to ``k`` finished hypotheses satisfying ``constraint``.

    Each live hypothesis carries its constraint state.  Hypotheses whose
    allowed set is empty are dropped; those that reach ``max_steps`` without
    EOS are discarded.  EOS always retires to the pool.  Since live prefixes
    share one length, only a parent's best ``k`` other tokens under
    ``(-score, token)`` can make the global ``(-score, tokens)`` cut, so only
    they become candidates and only the ``k`` kept are advanced.  Returns
    finished hypotheses sorted by the config's ranking score; an empty list
    means nothing finished.  Raises :class:`BeamError` on an allowed token
    id outside the scorer's vocabulary, or when ``allowed`` returns a set.
    """
    input_tokens = tuple(input_tokens)
    live = [(Hypothesis((), 0.0, False), constraint.start())]
    pool: list[Hypothesis] = []
    for _ in range(config.max_steps):
        if not live:
            break
        candidates = []
        for hyp, state in live:
            allowed = constraint.allowed(state)
            if len(allowed) == 0:
                continue
            logprobs = scorer.next_token_logprobs(input_tokens, hyp.tokens)
            try:
                tokens = np.asarray(allowed, dtype=np.intp)
            except TypeError:
                raise BeamError(
                    f"allowed ids must be an ascending sequence, not {type(allowed).__name__}"
                ) from None
            # ascending ids: the ends bound the range, and only SOS sorts before EOS
            head = tokens[:2].tolist()
            if head[0] < 0 or tokens[-1] >= len(logprobs):
                raise BeamError("allowed token id out of range")
            scores = np.add(logprobs[tokens], hyp.cum_logprob, dtype=np.float64)
            width = config.k
            if EOS in head:
                pool.append(
                    Hypothesis(hyp.tokens + (EOS,), hyp.cum_logprob + float(logprobs[EOS]), True)
                )
                width += 1
            if len(tokens) > width:
                tokens, scores = _best(tokens, scores, width)
            for token, score in zip(tokens.tolist(), scores.tolist()):
                if token != EOS:
                    candidates.append((score, hyp.tokens + (token,), state))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = [
            (Hypothesis(tokens, score, False), constraint.advance(state, tokens[-1]))
            for score, tokens, state in candidates[: config.k]
        ]
    pool.sort(key=lambda h: (-_final_score(h, config.length_normalize), h.tokens))
    return pool[: config.k]


def _best(tokens: np.ndarray, scores: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``width`` entries under ``(-score, token)``, in that order.

    Past a few hundred entries a linear ``np.partition`` on the scores first
    keeps every entry at or above the ``width``-th best score, ties at the
    cut included, so the sort that follows sees the same leaders; below
    that its fixed cost (about 7 us) exceeds what it saves the sort.
    """
    neg = -scores
    if len(tokens) > max(_PARTITION_FROM, 8 * width):
        keep = neg <= np.partition(neg, width - 1)[width - 1]
        tokens, scores, neg = tokens[keep], scores[keep], neg[keep]
    best = np.lexsort((tokens, neg))[:width]
    return tokens[best], scores[best]


def _final_score(hyp: Hypothesis, length_normalize: bool) -> float:
    if length_normalize:
        return hyp.cum_logprob / len(hyp.tokens)
    return hyp.cum_logprob


def rank_entities(
    scorer: Scorer,
    input_tokens: Sequence[TokenId],
    trie: EntityTrie,
    config: BeamConfig,
    vocab: Vocabulary,
) -> RankedResult:
    """Top-k catalog names under the trie constraint.

    ``normalized_score`` divides the cumulative log-probability by the token
    count including EOS; with normalization off it simply repeats the raw
    score.  Names are decoded from the winning token sequences.
    """
    hypotheses = beam_search(scorer, input_tokens, trie, config)
    return _ranked(
        ((h.tokens, h.cum_logprob) for h in hypotheses), config.length_normalize, vocab
    )


def exhaustive_rank(
    scorer: Scorer,
    input_tokens: Sequence[TokenId],
    catalog: Catalog,
    length_normalize: bool,
    vocab: Vocabulary,
) -> RankedResult:
    """Score every catalog name directly and sort (the brute-force route).

    Applies the same scores, normalization, and tie rules as
    :func:`rank_entities`; with a beam at least as wide as the catalog the
    two agree exactly.
    """
    input_tokens = tuple(input_tokens)
    scored = []
    for record in catalog:
        seq = record.tokens + (EOS,)
        scored.append((seq, sequence_score(scorer, input_tokens, seq)))
    return _ranked(scored, length_normalize, vocab)


def _ranked(
    scored: Iterable[tuple[tuple[TokenId, ...], float]],
    length_normalize: bool,
    vocab: Vocabulary,
) -> RankedResult:
    entries = []
    for tokens, raw in scored:
        normalized = raw / len(tokens) if length_normalize else raw
        entries.append(RankedEntry(decode(tokens[:-1], vocab), raw, normalized, tokens))
    entries.sort(key=lambda e: (-e.normalized_score, e.tokens))
    return RankedResult(tuple(entries))
