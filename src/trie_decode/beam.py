"""Beam search with log-probability masking against a constraint.

A constraint is a state machine: ``start()`` is the state of the empty
prefix, ``final(state)`` whether EOS is legal there, ``allowed(state)`` the
other legal next ids as an ascending 1-D sequence of distinct ints, never
SOS or EOS (an integer ndarray, a list or a tuple, never a set), and
``advance(state, token)`` the state after a legal token.  Each live
hypothesis carries its state, so no step re-reads a prefix or rebuilds a
set.  ``EntityTrie`` (state: a node; final: its terminal flag; allowed: a
read-only view of its labels), ``MarkupConstraint`` (state: a tuple of
ints) and the candidate-set constraint of ``tasks.disambiguate`` (state: a
node of a dict trie over its names that can finish) implement it.

Tokens outside the allowed set score minus infinity; the surviving entries
are *not* renormalized, so the score of any fully decoded sequence equals
its unconstrained stepwise sum.  A hypothesis at a final state retires to a
pool, where it occupies no beam slot; pruning keeps the best ``k`` live
hypotheses by cumulative log-probability, breaking ties by ascending token
order, and builds only what survives its cut (see :func:`beam_search`).  A
parent wider than the beam is first cut to its best ``k`` ids; within one
search, a read-only row met again with the same tuple or owned read-only
array of ids reuses its first sight's sort wherever that stays exact.  Within
one step, the ``k``-th key of the best cut so far is a bar: a later wide
parent whose best id cannot get below it keeps nothing and is not sorted.
Each scorer value read must be at most 0.0; NaN is refused.
The final ranking applies length normalization when configured, breaking
exact ties the same way so that results are total and reproducible.

A single search is sequential; any number of searches may run concurrently
over a shared trie, which is read-only, and a shared scorer, which changes at
most :class:`~trie_decode.scoring.TableScorer`'s row cache and never reads a
wrong row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Protocol, Sequence, TypeVar

import numpy as np

from .catalog import Catalog
from .scoring import Scorer, sequence_score
from .trie import EntityTrie
from .vocab import EOS, SOS, InputError, TokenId, Vocabulary, decode

State = TypeVar("State")


class Constraint(Protocol[State]):
    """Legal continuations as a state machine (see the module overview)."""

    def start(self) -> State: ...

    def final(self, state: State) -> bool:
        """Whether the decode may end at ``state``, that is, EOS is legal there."""

    def allowed(self, state: State) -> Sequence[TokenId] | np.ndarray:
        """Legal next ids other than EOS, ascending and distinct, never SOS; empty where none is.

        A tuple or an owned read-only array returned here must never change:
        :func:`beam_search` may reuse work done on it within one search.  A
        list, a view or a writeable array is never remembered.
        """

    def advance(self, state: State, token: TokenId) -> State:
        """The state after ``token``; defined only for an id in ``allowed(state)``."""


class BeamError(InputError):
    """Raised for invalid beam settings, constraints or scorer values met in a search."""


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

    ``allowed`` may be a set or a sequence, EOS included where legal; SOS
    never is, and an empty set is a dead end: both are rejected here.  No
    renormalization happens.  This is the reference semantics of a search
    step, which :func:`beam_search` computes without building the masked vector.
    """
    if len(allowed) == 0:
        raise BeamError("empty allowed set")
    masked = np.full(logprobs.shape, -np.inf)
    idx = np.fromiter(allowed, dtype=np.intp, count=len(allowed))
    if idx.min() <= SOS or idx.max() >= logprobs.shape[0]:
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

    Each live hypothesis carries its constraint state.  At a final state it
    retires to the pool with EOS, and its allowed ids still extend it; at a
    state neither final nor with ids it is dropped, as at ``max_steps``.
    Returns finished hypotheses sorted by the config's ranking score; an
    empty list means nothing finished.  Raises :class:`BeamError` for a
    constraint without ``final``, on an allowed id outside the scorer's
    vocabulary or at most EOS, when ``allowed`` returns a set, or on a scorer
    value above 0.0 or NaN, naming its token.

    A step builds only what survives the cut.  Live hypotheses are
    ``(tokens, cum_logprob, state)`` tuples of one prefix length, kept in
    token order, so a child's place in the global ``(-score, tokens)``
    order is ``(-score, parent's index, token)``, its lex-rank tie key: a
    candidate is that plain tuple, sorted natively, and only the ``k`` kept
    build their prefix and advance their state.  For the same reason only a
    parent's best ``k`` ids under ``(-score, token)`` can make the cut, so
    one ``np.lexsort`` cuts a wider parent to them before the one loop that
    scores every parent's candidates by the same float64 sums.

    Hypotheses that reach one state after the same token meet the same
    scorer row and the same allowed ids again, at another ``cum_logprob``.
    So for the life of the search a wide parent's cut is memoized by the
    identity of its ``(logprobs, allowed)`` pair when the row is a read-only
    array and the ids a tuple or an owned read-only array: sorted on first
    sight, reused wherever rounding cannot change it (see ``_memo_cut``).

    Within a step, the bar is the key ``-(cum + value)`` of the ``k``-th id
    of the best cut made so far; a step has none before its first cut.
    Parents are visited in rank order, so that cut's ``k`` ids all come from
    lower ranks than a later parent and win each tie on rank.  A later wide
    parent whose best allowed value ``top`` gives ``-(cum + top) >= bar``
    therefore keeps nothing and is skipped unsorted; ``x -> fl(cum + x)`` is
    monotone, so no id of it can sort before the bar's ``k``.  A NaN
    ``top`` raises first.
    """
    if not hasattr(constraint, "final"):
        raise BeamError(f"{type(constraint).__name__} has no final(state); EOS is never an allowed id")
    allowed_of, final = constraint.allowed, constraint.final
    input_tokens = tuple(input_tokens)
    k = config.k
    live = [((), 0.0, constraint.start())]  # (tokens, cum_logprob, state), in token order
    # (-ranking score, tokens with EOS, cum_logprob); only the k returned become Hypothesis objects
    pool: list[tuple[float, tuple[TokenId, ...], float]] = []
    cuts: dict[tuple[int, int], tuple] = {}  # see _memo_cut; it dies with this search
    for _ in range(config.max_steps):
        if not live:
            break
        candidates = []
        bar = None  # the k-th key of this step's best cut so far; none before its first cut
        for rank, (prefix, cum, state) in enumerate(live):
            allowed = allowed_of(state)
            ends = final(state)
            if not (ends or len(allowed)):
                continue  # a dead end
            logprobs = scorer.next_token_logprobs(input_tokens, prefix)
            if ends:
                value = float(logprobs[EOS])
                if not value <= 0.0:
                    raise _bad_value(EOS, value)
                done, score = prefix + (EOS,), cum + value
                pool.append((-_final_score(done, score, config.length_normalize), done, score))
                if len(allowed) == 0:
                    continue
            if len(allowed) <= k and type(allowed) is np.ndarray:
                allowed = allowed.tolist()  # too short to pay for numpy
            try:
                # ascending ids: the ends bound the range, which starts above EOS
                if allowed[0] <= EOS or allowed[-1] >= len(logprobs):
                    raise BeamError("allowed token id out of range")
            except TypeError:
                raise BeamError(
                    f"allowed ids must be an ascending sequence, not {type(allowed).__name__}"
                ) from None
            if len(allowed) > k:
                cut = _memo_cut(cuts, logprobs, allowed, cum, k, bar)
                if cut is None:
                    continue  # every id of this parent sorts after the bar's k
                for value, token in cut:
                    candidates.append((-(cum + value), rank, token))
                if bar is None or candidates[-1][0] < bar:
                    bar = candidates[-1][0]
            else:
                for token in allowed:
                    value = float(logprobs[token])
                    if not value <= 0.0:  # NaN fails too
                        raise _bad_value(token, value)
                    candidates.append((-(cum + value), rank, token))
        candidates.sort()
        # (parent, token) pairs are distinct: this sort never compares
        # scores, and it puts the next step's parents in token order
        kept = sorted((rank, token, -neg) for neg, rank, token in candidates[:k])
        live = [
            (live[rank][0] + (token,), score, constraint.advance(live[rank][2], token))
            for rank, token, score in kept
        ]
    pool.sort()  # pooled token sequences are distinct, so no two cum_logprobs are compared
    return [Hypothesis(tokens, score, True) for _, tokens, score in pool[:k]]


_Cut = Iterable[tuple[float, TokenId]]  # (logprob, id) of each id a cut keeps


def _bad_value(token: TokenId, value: float) -> BeamError:
    return BeamError(f"scorer gave token {token} the value {value!r}; a log-probability is at most 0.0")


def _top(tokens: np.ndarray, values: np.ndarray) -> float:
    """The best of ``values``, refused unless it is at most 0.0; ``argmax`` finds any NaN first."""
    best = values.argmax()
    top = values.item(best)
    if not top <= 0.0:
        raise _bad_value(tokens.item(best), top)
    return top


def _cut(tokens: np.ndarray, values: np.ndarray, cum: float, k: int) -> _Cut:
    """The best ``k`` of ``tokens`` under ``(-(cum + value), id)``, by one ``np.lexsort``."""
    neg = np.subtract(-cum, values, dtype=np.float64)  # bit for bit -(cum + value): rounding is symmetric
    best = np.lexsort((tokens, neg))[:k]
    return zip(values[best].tolist(), tokens[best].tolist())


def _memo_cut(
    cuts: dict[tuple[int, int], tuple],
    logprobs: np.ndarray,
    allowed: Sequence[TokenId] | np.ndarray,
    cum: float,
    k: int,
    bar: float | None,
) -> _Cut | None:
    """:func:`_cut` of a wide parent, or None where no id of it can pass ``bar``.

    ``bar`` is the largest key ``-(cum + value)`` of the ``k`` ids an earlier
    parent of this step kept.  Those ``k`` win every tie on rank, so a
    parent whose best value ``top`` has ``-(cum + top) >= bar`` keeps
    nothing and is not sorted.

    ``cuts`` reuses an earlier sort of the same ``(logprobs, allowed)`` pair.
    It is keyed by the ``id()`` of both objects of a pair that promises not
    to change (a read-only row; a tuple or an owned read-only array of ids),
    and holds both, so no other object can take those ``id()`` values while
    it lives.  On first sight the row is gathered and :func:`_top` read
    once; any other pair, a trie's fresh view or a list, is then cut and not
    recorded, and one that promises is recorded with ``top`` and its
    :func:`_order`.  ``x -> fl(cum + x)`` is monotone, so the best ``k`` at
    ``cum`` are those of the order unless rounding merges a neighbour into
    the ``k``-th value's group; where the rounded sums do not keep all three
    apart, the exact sort runs instead.
    """
    key = id(logprobs), id(allowed)
    seen = cuts.get(key)
    if seen is None:
        tokens = np.asarray(allowed, dtype=np.intp)
        values = logprobs[tokens]
        top = _top(tokens, values)
        if type(logprobs) is not np.ndarray or logprobs.flags.writeable or not (type(allowed) is tuple or (
            type(allowed) is np.ndarray and not allowed.flags.writeable and allowed.flags.owndata
        )):
            if bar is not None and -(cum + top) >= bar:
                return None
            return _cut(tokens, values, cum, k)
        seen = cuts[key] = (logprobs, allowed, top, *_order(tokens, values, k))
    top, best, value, above, below = seen[2:]
    if bar is not None and -(cum + top) >= bar:
        return None
    if cum + above > cum + value > cum + below:
        return best
    tokens = np.asarray(allowed, dtype=np.intp)
    return _cut(tokens, logprobs[tokens], cum, k)


def _order(
    tokens: np.ndarray, values: np.ndarray, k: int
) -> tuple[tuple[tuple[float, TokenId], ...], float, float, float]:
    """:func:`_cut` at ``cum`` 0.0, and the ``k``-th value with its nearest distinct neighbours above and below.

    ``-0.0 - x`` is ``-x`` bit for bit, so the cut is the order under
    ``(-value, id)``.  A neighbour is infinite where there is none; the
    one above lies in the cut.
    """
    best = tuple(_cut(tokens, values, 0.0, k))
    v = best[-1][0]
    above = next((x for x, _ in reversed(best) if x > v), math.inf)
    past = values[values < v]
    return best, v, above, float(past.max()) if len(past) else -math.inf


def _final_score(tokens: tuple[TokenId, ...], cum_logprob: float, length_normalize: bool) -> float:
    if length_normalize:
        return cum_logprob / len(tokens)
    return cum_logprob


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
    score.  Names are decoded from the winning token sequences.  Raises
    :class:`BeamError`, before any search, when the longest name plus EOS
    does not fit in ``max_steps``: it could never finish.
    """
    if trie.max_depth >= config.max_steps:
        raise BeamError(f"max_steps {config.max_steps} cannot finish the longest name ({trie.max_depth} tokens)")
    hypotheses = beam_search(scorer, input_tokens, trie, config)
    return _ranked(hypotheses, config.length_normalize, lambda name: decode(name, vocab))


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
        scored.append(Hypothesis(seq, sequence_score(scorer, input_tokens, seq), True))
    return _ranked(scored, length_normalize, lambda name: decode(name, vocab))


def _ranked(
    finished: Iterable[Hypothesis],
    length_normalize: bool,
    name_of: Callable[[tuple[TokenId, ...]], str],
) -> RankedResult:
    """Entries under the one score and tie rule, named by ``name_of(tokens without EOS)``."""
    entries = [
        RankedEntry(
            name_of(h.tokens[:-1]),
            h.cum_logprob,
            _final_score(h.tokens, h.cum_logprob, length_normalize),
            h.tokens,
        )
        for h in finished
    ]
    entries.sort(key=lambda e: (-e.normalized_score, e.tokens))
    return RankedResult(tuple(entries))
