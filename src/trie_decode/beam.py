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
order, and builds only what survives its cut (see :func:`beam_search`); a
step with no parent wider than the beam and at most ``k`` candidates keeps
them all, unsorted, in the (parent, token) order they were made.  A
parent wider than the beam is first cut to its best ``k`` ids; within one
search, a read-only row met again with the same tuple or owned read-only
array of ids reuses its first sight's sort wherever that stays exact.  Within
one step, the ``k``-th key of the best cut so far is a bar: a later wide
parent whose best id cannot get below it keeps nothing and is not sorted.
Each scorer value read must be at most 0.0; NaN is refused.
The final ranking applies length normalization when configured, breaking
exact ties the same way so that results are total and reproducible; the
rankings read their entries straight off the search's sorted pool.

A single search is sequential; any number of searches may run concurrently
over a shared trie, which is read-only, and a shared scorer, which changes at
most :class:`~trie_decode.scoring.TableScorer`'s row cache and never reads a
wrong row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import itemgetter
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

        :func:`beam_search` checks only the first and the last id against the
        vocabulary, so that check covers every id only because they ascend:
        ids out of order or repeated are not detected.  A tuple or an owned
        read-only array returned here must never change: :func:`beam_search`
        may reuse work done on it within one search.  A list, a view or a
        writeable array is never remembered.
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


@dataclass
class DecodeStats:
    """What the searches given this record did, summed over them; each search adds its counts once, at its end.

    A step visits each live hypothesis, its parent: a parent neither final
    nor with ids is a dead end, and every other parent is one scorer call.
    ``candidates`` are the entries the steps made (a wide parent adds at
    most ``k``) and ``pruned`` those no step kept; a keep-all step kept
    every candidate unsorted.  A wide parent has more than ``k`` allowed ids
    and ends in one of ``bar_skips``, ``unrecorded_cuts``, ``memo_reuses``
    (cut from its pair's recorded order, a first sight included) or
    ``exact_fallbacks`` (a recorded pair whose rounded sums merged);
    ``recorded_pairs`` counts the pairs the memo sorted once and kept.
    ``retired_with_ids`` are final parents whose ids still extended them,
    ``dropped`` the live hypotheses left at ``max_steps``, and ``finished``
    the pool the best ``k`` were taken from.
    """

    searches: int = 0
    steps: int = 0
    scorer_calls: int = 0
    candidates: int = 0
    pruned: int = 0
    keep_all_steps: int = 0
    dead_ends: int = 0
    wide_parents: int = 0
    bar_skips: int = 0
    unrecorded_cuts: int = 0
    memo_reuses: int = 0
    exact_fallbacks: int = 0
    recorded_pairs: int = 0
    retired_with_ids: int = 0
    dropped: int = 0
    finished: int = 0

    def __iadd__(self, other: DecodeStats) -> DecodeStats:
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))
        return self


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
    stats: DecodeStats | None = None,
) -> list[Hypothesis]:
    """Search for up to ``k`` finished hypotheses satisfying ``constraint``.

    Each live hypothesis carries its constraint state.  At a final state it
    retires to the pool with EOS, and its allowed ids still extend it; at a
    state neither final nor with ids it is dropped, as at ``max_steps``.
    Returns the best ``k`` of that pool sorted by the config's ranking score,
    as the rankings read it; an empty list means nothing finished.  A
    ``stats`` given gets this search's counts added at its end.

    Raises :class:`BeamError` for a constraint without ``final``; when
    ``allowed`` returns anything but a 1-D sequence (a set, a dict, None, an
    iterator, an array of another shape), naming its type; when the first
    allowed id is at most EOS or the last one is past the scorer's
    vocabulary; and on a scorer value above 0.0 or NaN, naming its token.
    The range check reads only those two ends, so it covers every id only
    for ids that ascend, as the protocol asks: ids out of order or repeated
    are not detected.

    A step builds only what survives the cut.  Live hypotheses are
    ``(tokens, cum_logprob, state)`` tuples of one prefix length, kept in
    token order, so a child's place in the global ``(-score, tokens)``
    order is ``(-score, parent's index, token)``, its lex-rank tie key: a
    candidate is that plain tuple, sorted natively, and only the ``k`` kept
    build their prefix and advance their state.  For the same reason only a
    parent's best ``k`` ids under ``(-score, token)`` can make the cut, so
    one ``np.lexsort`` cuts a wider parent to them before the one loop that
    scores every parent's candidates by the same float64 sums.  A step with
    no such wide parent and at most ``k`` candidates keeps them all, unsorted:
    they were made in (parent, token) order, the order of the next step's
    parents.  A wide parent's cut is memoized for the life of the search,
    and skipped unsorted where it cannot pass the step's bar (see ``_memo_cut``).
    """
    pool = _search(scorer, input_tokens, constraint, config, stats)
    return [Hypothesis(tokens, cum, True) for _, tokens, cum in pool]


def _search(
    scorer: Scorer,
    input_tokens: Sequence[TokenId],
    constraint: Constraint,
    config: BeamConfig,
    stats: DecodeStats | None = None,
) -> list[_Finished]:
    """:func:`beam_search`'s hypotheses as the best ``k`` entries of its pool, sorted."""
    if not hasattr(constraint, "final"):
        raise BeamError(f"{type(constraint).__name__} has no final(state); EOS is never an allowed id")
    allowed_of, final, advance = constraint.allowed, constraint.final, constraint.advance
    next_logprobs = scorer.next_token_logprobs
    input_tokens, k, max_steps = tuple(input_tokens), config.k, config.max_steps
    live = [((), 0.0, constraint.start())]  # (tokens, cum_logprob, state), in token order
    pool: list[_Finished] = []
    cuts: dict[tuple[int, int], tuple] = {}  # see _memo_cut; it dies with this search
    tally = [0, 0, 0, 0]  # _memo_cut's pairs recorded, cuts read from them, exact sorts in their place, other cuts
    candidates: list[tuple[float, int, TokenId]] = []  # (-cum_logprob, parent's rank, token)
    append = candidates.append
    # DecodeStats counts; the rest follow from these, tally and the lengths of live and pool
    steps = parents = made = keep_all = dead_ends = leaves = skips = 0
    try:
        while live and steps < max_steps:
            steps += 1
            parents += len(live)
            candidates.clear()
            bar = None  # the k-th key of this step's best cut so far; none before its first cut
            for rank, (prefix, cum, state) in enumerate(live):
                allowed = allowed_of(state)
                ends = final(state)
                if not (ends or len(allowed)):
                    dead_ends += 1
                    continue
                logprobs = next_logprobs(input_tokens, prefix)
                if ends:
                    value = float(logprobs[EOS])
                    if not value <= 0.0:
                        raise _bad_value(EOS, value)
                    done, score = prefix + (EOS,), cum + value
                    pool.append((-_final_score(done, score, config.length_normalize), done, score))
                    if len(allowed) == 0:
                        leaves += 1
                        continue
                if len(allowed) <= k and type(allowed) is np.ndarray:
                    allowed = allowed.tolist()  # too short to pay for numpy
                try:
                    # ascending ids: the ends bound the range, which starts above EOS
                    if allowed[0] <= EOS or allowed[-1] >= len(logprobs):
                        raise BeamError("allowed token id out of range")
                except TypeError:
                    raise _not_ids(allowed) from None
                if len(allowed) > k:
                    cut = _memo_cut(cuts, tally, logprobs, allowed, cum, k, bar)
                    if cut is None:
                        skips += 1
                        continue  # every id of this parent sorts after the bar's k
                    for value, token in cut:
                        append((-(cum + value), rank, token))
                    if bar is None or candidates[-1][0] < bar:
                        bar = candidates[-1][0]
                else:
                    for token in allowed:
                        value = float(logprobs[token])
                        if not value <= 0.0:  # NaN fails too
                            raise _bad_value(token, value)
                        append((-(cum + value), rank, token))
            made += len(candidates)
            if bar is None and len(candidates) <= k:
                keep_all += 1
                kept = candidates  # all of them, made in (parent, token) order
            else:
                # (parent, token) pairs are distinct: neither sort compares two
                # scores of one pair, and the second puts the next parents in token order
                candidates.sort()
                kept = sorted(candidates[:k], key=_RANK_TOKEN)
            live = [(live[rank][0] + (token,), -neg, advance(live[rank][2], token)) for neg, rank, token in kept]
    except (TypeError, LookupError, ValueError):
        # free until something raises: then name what the constraint returned if it was no 1-D sequence
        # (a BeamError is a ValueError, so a short 2-D array, listed before the range check, is named here)
        returned = allowed_of(state)
        if isinstance(returned, Sequence) or isinstance(returned, np.ndarray) and returned.ndim == 1:
            raise
        raise _not_ids(returned) from None
    pool.sort()  # pooled token sequences are distinct, so no two cum_logprobs are compared
    if stats is not None:
        recorded, reuses, fallbacks, unrecorded = tally
        stats += DecodeStats(
            searches=1,
            steps=steps,
            scorer_calls=parents - dead_ends,
            candidates=made,
            pruned=made - (parents - 1 + len(live)),  # every step's kept but the last are the next's parents
            keep_all_steps=keep_all,
            dead_ends=dead_ends,
            wide_parents=skips + unrecorded + reuses + fallbacks,
            bar_skips=skips,
            unrecorded_cuts=unrecorded,
            memo_reuses=reuses,
            exact_fallbacks=fallbacks,
            recorded_pairs=recorded,
            retired_with_ids=len(pool) - leaves,
            dropped=len(live),
            finished=len(pool),
        )
    return pool[:k]


_Finished = tuple[float, tuple[TokenId, ...], float]  # (-ranking score, tokens with EOS, cum_logprob)
_RANK_TOKEN = itemgetter(1, 2)
_Cut = Iterable[tuple[float, TokenId]]  # (logprob, id) of each id a cut keeps


def _bad_value(token: TokenId, value: float) -> BeamError:
    return BeamError(f"scorer gave token {token} the value {value!r}; a log-probability is at most 0.0")


def _not_ids(allowed: object) -> BeamError:
    kind = f"{allowed.ndim}-d ndarray" if isinstance(allowed, np.ndarray) else type(allowed).__name__
    return BeamError(f"allowed ids must be an ascending sequence, not {kind}")


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
    tally: list[int],
    logprobs: np.ndarray,
    allowed: Sequence[TokenId] | np.ndarray,
    cum: float,
    k: int,
    bar: float | None,
) -> _Cut | None:
    """:func:`_cut` of a wide parent, or None where no id of it can pass ``bar``.

    ``bar``, the step's bar, is the key ``-(cum + value)`` of the ``k``-th id
    of the best cut made so far in the step, or None before its first cut.
    Parents are visited in rank order, so those ``k`` ids come from lower
    ranks and win every tie on rank: a parent whose best value ``top`` has
    ``-(cum + top) >= bar`` keeps nothing and is not sorted, as
    ``x -> fl(cum + x)`` is monotone.  A NaN ``top`` raises first.

    Hypotheses that reach one state after the same token meet the same row
    and the same allowed ids again, at another ``cum``, so ``cuts`` reuses an
    earlier sort of the same ``(logprobs, allowed)`` pair.  It is keyed by the
    ``id()`` of both objects of a pair that promises not to change (a
    read-only row; a tuple or an owned read-only array of ids), and holds
    both, so no other object can take those ``id()`` values while it lives.
    On first sight the row is gathered and :func:`_top` read once; any other
    pair, a trie's fresh view or a list, is then cut and not recorded, and one
    that promises is recorded with ``top`` and its :func:`_order`.  As
    ``x -> fl(cum + x)`` is monotone, the best ``k`` at ``cum`` are those of
    the order unless rounding merges a neighbour into the ``k``-th value's
    group; where the rounded sums do not keep all three apart, the exact sort
    runs instead.  ``tally`` counts the pairs recorded, the cuts read from
    their orders, the exact sorts run in their place and the cuts of pairs
    not recorded.
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
            tally[3] += 1
            return _cut(tokens, values, cum, k)
        seen = cuts[key] = (logprobs, allowed, top, *_order(tokens, values, k))
        tally[0] += 1
    top, best, value, above, below = seen[2:]
    if bar is not None and -(cum + top) >= bar:
        return None
    if cum + above > cum + value > cum + below:
        tally[1] += 1
        return best
    tally[2] += 1
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
    pool = _search(scorer, input_tokens, trie, config)
    return RankedResult(_entries(pool, lambda name: decode(name, vocab)))


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
        score = sequence_score(scorer, input_tokens, seq)
        scored.append((-_final_score(seq, score, length_normalize), seq, score))
    scored.sort()  # catalog names are distinct token sequences
    return RankedResult(_entries(scored, lambda name: decode(name, vocab)))


def _entries(finished: Iterable[_Finished], name_of: Callable[[tuple[TokenId, ...]], str]) -> tuple[RankedEntry, ...]:
    """The ranking of sorted pool entries, each named by ``name_of(tokens without EOS)``."""
    return tuple([RankedEntry(name_of(tokens[:-1]), cum, -neg, tokens) for neg, tokens, cum in finished])
