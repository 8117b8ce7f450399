"""Autoregressive conditional scorers and sequence-level objectives.

A scorer maps ``(input tokens, generated prefix)`` to a full log-probability
vector over the vocabulary.  Every implementation returns a proper
distribution (logsumexp of the vector is 0).  Scorers are read-only at
inference time, apart from :class:`TableScorer`'s row cache, which
:class:`UniformScorer`, the table with no counts, shares, and safe for
concurrent evaluation.

Scorers are deliberately decoupled from :class:`~trie_decode.vocab.Vocabulary`:
they only need a vocabulary *size* and the fixed special ids, which makes
tiny hand-built distributions usable in tests and oracles.
"""

from __future__ import annotations

import math
import re
import sys
import zlib
from abc import ABC, abstractmethod
from array import array
from contextlib import suppress
from functools import cached_property
from itertools import islice
from numbers import Integral, Real
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .vocab import EOS, SOS, InputError, TokenId, read_lines


class ScorerError(InputError):
    """Raised for invalid scorer construction or scoring requests."""


class Scorer(ABC):
    """Contract for a conditional next-token distribution."""

    vocab_size: int

    @abstractmethod
    def next_token_logprobs(
        self, input_tokens: Sequence[TokenId], prefix: Sequence[TokenId]
    ) -> np.ndarray:
        """Log-probabilities over the full vocabulary for the next token.

        The returned vector has length ``vocab_size`` and is deterministic
        for a fixed ``(scorer, input, prefix)`` triple.  Callers must not
        mutate it.  A read-only vector returned here must never change:
        :func:`~trie_decode.beam.beam_search` may reuse work done on it
        within one search.  A scorer that refills one buffer returns it
        writeable.
        """


class OracleScorer(Scorer):
    """Drives generation toward a fixed target sequence.

    At step ``i`` the token ``target[i]`` receives probability 0.9 and the
    rest share the remainder uniformly, so the argmax at step ``i`` is always
    ``target[i]``.  Past the end of the target the favored token is EOS.
    """

    def __init__(self, target: Sequence[TokenId], vocab_size: int) -> None:
        if vocab_size < 2:
            raise ScorerError("vocab_size must be at least 2")
        target = tuple(target)
        if any(not 0 <= t < vocab_size for t in target):
            raise ScorerError("target token out of range")
        self.vocab_size = vocab_size
        self.target = target
        self.on_logprob = float(np.log(0.9))
        # 1.0 - 0.9, not 0.1: the two differ in the last bit
        self.off_logprob = float(np.log((1.0 - 0.9) / (vocab_size - 1)))
        self._cache: dict[int, np.ndarray] = {}

    def next_token_logprobs(
        self, input_tokens: Sequence[TokenId], prefix: Sequence[TokenId]
    ) -> np.ndarray:
        pos = min(len(prefix), len(self.target))
        vec = self._cache.get(pos)
        if vec is None:
            favored = self.target[pos] if pos < len(self.target) else EOS
            vec = np.full(self.vocab_size, self.off_logprob)
            vec[favored] = self.on_logprob
            vec.flags.writeable = False
            self._cache[pos] = vec
        return vec


def _input_key(input_tokens: Iterable[TokenId]) -> int:
    """crc32 of the input's ids packed as little-endian u32, in one C call; the input is read once."""
    try:
        ids = tuple(input_tokens)
    except TypeError:
        raise ScorerError(f"input tokens must be an iterable of ids, not {type(input_tokens).__name__}") from None
    try:
        packed = array("I", ids)  # C unsigned int: 32 bits wherever numpy runs
    except (TypeError, OverflowError):  # name the first id the packing refuses
        t = next(t for t in ids if not (isinstance(t, Integral) and 0 <= t <= 0xFFFFFFFF))
        if not isinstance(t, Integral):
            raise ScorerError(f"input token id {t!r} is not an integer") from None
        raise ScorerError(f"input token id {t} does not fit in an unsigned 32-bit int") from None
    if sys.byteorder == "big":
        packed.byteswap()
    return zlib.crc32(packed)


def _context(key: int | None, prev: TokenId) -> int:
    """The context id of a step after ``prev``; ``key`` is the input's crc, or None unconditioned."""
    return prev if key is None else (key * 0x10001 + prev) & 0x7FFFFFFF


def _column(values: Sequence[object], kind: type, dtype: type, bad: object) -> np.ndarray:
    """``values`` as a ``dtype`` array, in which a value not of ``kind``, or that ``dtype`` cannot hold, is ``bad``."""
    with suppress(OverflowError):
        if all(issubclass(t, kind) for t in set(map(type, values))):
            return np.array(values, dtype)

    def held(value: object) -> object:
        with suppress(OverflowError):
            return dtype(value) if isinstance(value, kind) else bad
        return bad

    return np.array([held(value) for value in values], dtype)


def _columns(records: Sequence[tuple[int | None, object, object, object]]) -> tuple[np.ndarray, ...]:
    """``(line, ctx, token, count)`` records as columns, with -1 for an id that is no integer in int64 (so out of
    range) and NaN for a count that is no real number in the floats: :meth:`TableScorer._check` names both as given."""
    _, ctxs, tokens, counts = zip(*records) if records else ((),) * 4
    ids = Integral, np.int64, -1
    return _column(ctxs, *ids), _column(tokens, *ids), _column(counts, Real, np.float64, math.nan)


def _count_records(counts: Mapping[int, Mapping[TokenId, float]]) -> Iterator[tuple[None, object, object, object]]:
    """The ``(None, ctx, token, count)`` records of ``{ctx: {token: count}}``; a container with no ``items`` raises."""
    try:
        rows = counts.items()
    except AttributeError:
        raise ScorerError(f"counts must map contexts to {{token: count}} rows, not {type(counts).__name__}") from None
    for ctx, row in rows:
        try:
            items = row.items()
        except AttributeError:
            raise ScorerError(f"context {ctx!r}: row {row!r} is not a {{token: count}} mapping") from None
        for token, count in items:
            yield None, ctx, token, count


def _until_refused(items: Iterator, failed: list[InputError]) -> Iterator:
    """``items`` up to an :class:`InputError`, which goes into ``failed``, to be raised once those before it pass."""
    try:
        yield from items
    except InputError as exc:
        failed.append(exc)


class TableScorer(Scorer):
    """Additively smoothed bigram model over target tokens.

    ``p(v | ctx) = (count(ctx, v) + alpha) / (total(ctx) + alpha * V)`` with
    finite ``alpha > 0`` and an integer ``V`` in ``1..2**63 - 1``.  The
    constructor, training and the file loader end in one check and one keep
    step, so every source refuses and sums alike, and every log-probability
    is finite.  The context is the previous generated token (SOS at the
    first step), or, when ``input_conditioned``, ``(crc32(input) * 0x10001 +
    prev) mod 2**31`` over the input's u32 token ids: distinct pairs can
    share a row, and an input that is not iterable, or holds an id that is
    not an integer or not in u32, raises :class:`ScorerError`.

    The counts are kept as four flat arrays: ``_ctxs``, the distinct
    contexts, ascending; ``_bounds``, where ``_bounds[r]:_bounds[r + 1]`` is
    row ``r``'s slice of the other two; and ``_tokens`` and ``_values``,
    each row's ids in the order first seen.  :attr:`counts` is a
    ``{ctx: {token: count}}`` view of them, built on first read.

    Rows are built on first use into one scope, an ``(input, key, window,
    rows)`` tuple, with ``window`` and ``rows`` keyed by the previous token.
    Unconditioned, the key is None, the window is the whole table and the
    rows serve every input for good.  Input-conditioned, the key is the
    input's crc: a call with another input object hashes it, and another crc
    opens a new scope, freeing the old input's rows.  Its window holds the
    trained rows the input can reach, ``base..base + V - 1`` mod ``2**31``
    with ``base = crc * 0x10001 mod 2**31``: one slice of ``_ctxs``, or two
    where it wraps, found by one ``searchsorted`` call.  A cold row is one
    probe of the window (a ``prev`` outside ``0..min(V, 2**31) - 1`` is
    searched for by its context), filled from its count shape: the
    untrained value and the trained log-probabilities of each distinct
    tuple of a row's counts, taken once per scorer and kept.  Threads
    sharing a scorer read the scope once per call and may rebuild a row
    another thread dropped, but never read a wrong one: a scope's dicts
    belong to one key.
    """

    def __init__(
        self,
        counts: Mapping[int, Mapping[TokenId, float]],
        alpha: float,
        vocab_size: int,
        input_conditioned: bool = False,
    ) -> None:
        self._keep_records(_count_records(counts), self._header(alpha, vocab_size, input_conditioned))

    def _header(self, alpha: float, vocab_size: int, input_conditioned: bool) -> int:
        """Check and keep the header, clear the caches, and return the largest context id a step can reach."""
        # plain comparisons, which NaN fails; an int past the floats fails the second
        if not (isinstance(alpha, Real) and 0 < alpha <= sys.float_info.max):
            raise ScorerError(f"alpha must be positive and finite, got {alpha!r}")
        if isinstance(vocab_size, bool) or not (isinstance(vocab_size, Integral) and 0 < vocab_size < 2**63):
            raise ScorerError(f"vocab_size must be an integer in 1..2**63 - 1, got {vocab_size!r}")
        self.vocab_size = int(vocab_size)
        self.alpha = float(alpha)
        self.input_conditioned = input_conditioned
        self._uniform_row: np.ndarray | None = None  # built on first use, so a refused size allocates nothing
        self._span = min(self.vocab_size, 2**31)  # an input's window covers the steps after prev in 0..span-1
        self._shapes: dict[tuple[float, ...], tuple[float, np.ndarray]] = {}  # count tuple -> (untrained, trained logs)
        return 0x7FFFFFFF if input_conditioned else self.vocab_size - 1

    def _keep_records(self, records: Iterator[tuple[None, object, object, object]], top: int) -> None:
        """Check and keep ``(None, ctx, token, count)`` records; the first bad record, or the first error the
        records raise, whichever comes first, is refused."""
        failed: list[InputError] = []
        held = list(_until_refused(records, failed))
        columns = self._check(_columns(held), top, held.__getitem__)
        if failed:
            raise failed[0]
        self._keep(*columns)

    def _check(self, columns: Sequence[np.ndarray], top: int, record: Callable[[int], tuple]) -> Sequence[np.ndarray]:
        """``columns``, unless a record's context is not an integer a step can reach, its token not an integer in
        ``0..V-1`` or its count not a finite real ``>= 0``: the first is refused, as ``record(i)`` names it."""
        ctx, tokens, values = columns
        ok = (ctx >= 0) & (ctx <= top) & (tokens >= 0) & (tokens < self.vocab_size) & (values >= 0) & (values < np.inf)
        if not ok.all():
            line, ctx, token, count = record(int(ok.argmin()))
            if not isinstance(ctx, Integral):
                raise ScorerError(f"context {ctx!r} is not an integer", line)
            if not 0 <= ctx <= top:
                raise ScorerError(f"context {ctx} is outside 0..{top}, so no step can reach it", line)
            if not isinstance(token, Integral):
                raise ScorerError(f"token id {token!r} is not an integer", line)
            if not 0 <= token < self.vocab_size:
                raise ScorerError(f"token id {token} out of range", line)
            raise ScorerError(f"count must be non-negative and finite, got {count!r}", line)
        return columns

    @np.errstate(over="ignore")  # a sum that leaves the floats is refused by its row's check
    def _keep(self, ctx: np.ndarray, tokens: np.ndarray, values: np.ndarray) -> None:
        """Keep checked records as the flat arrays, dropping zero counts and summing a repeated key's in record order.

        A row whose ``np.add.reduceat`` total is within a factor of 2 of leaving the floats is summed again as
        :meth:`_build_row` sums it; the first context seen whose ``alpha`` share underflows to 0, as it does over a
        denominator that overflows, is refused."""
        order = np.flatnonzero(values)[np.argsort(ctx[values != 0], kind="stable")]  # a row's records stay in order
        ctx, tokens, values = ctx[order], tokens[order], values[order]
        # saved rows list their ids ascending, so the sort that finds a repeat is seldom needed
        if np.any((ctx[1:] == ctx[:-1]) & (tokens[1:] <= tokens[:-1])):
            _, first, inverse = np.unique(np.stack([ctx, tokens], 1), axis=0, return_index=True, return_inverse=True)
            inverse = inverse.reshape(-1)  # NumPy 2.0.0 alone shapes it (n, 1)
            sums = np.zeros(len(first))
            np.add.at(sums, inverse, values)  # in index order, so each sum has a running sum's bits
            first.sort()  # each key at its first record
            order, ctx, tokens, values = order[first], ctx[first], tokens[first], sums[inverse[first]]
        starts = np.flatnonzero(np.diff(ctx, prepend=-1))
        bounds = np.append(starts, len(ctx))
        shares = self.alpha / (2 * (np.add.reduceat(values, starts) + self.alpha * self.vocab_size))
        for r in sorted(np.flatnonzero(shares == 0).tolist(), key=lambda r: order[bounds[r]]):
            if self.alpha / (sum(values[bounds[r] : bounds[r + 1]].tolist()) + self.alpha * self.vocab_size) == 0:
                raise ScorerError(f"context {ctx[bounds[r]]}: probabilities overflow or underflow a float")
        self._ctxs, self._bounds, self._tokens, self._values = ctx[starts], bounds, tokens, values
        self._scope = (None, None, {} if self.input_conditioned else self._window(None), {})

    @cached_property
    def counts(self) -> dict[int, dict[TokenId, float]]:
        """``{ctx: {token: count}}`` of the nonzero summed counts, built from the flat arrays on first read."""
        tokens, values, bounds = self._tokens.tolist(), self._values.tolist(), self._bounds.tolist()
        return {
            ctx: dict(zip(tokens[lo:hi], values[lo:hi]))
            for ctx, lo, hi in zip(self._ctxs.tolist(), bounds, bounds[1:])
        }

    def _window(self, key: int | None) -> dict[TokenId, int]:
        """``{prev: row number}`` of the trained rows a step after a ``prev`` in ``0..min(V, 2**31) - 1`` reaches
        under input key ``key``; with ``key`` None, every row, keyed by its context."""
        ctxs = self._ctxs
        if key is None:
            return dict(zip(ctxs.tolist(), range(len(ctxs))))
        base = key * 0x10001 & 0x7FFFFFFF
        end = base + self._span
        lo, hi, wrapped = ctxs.searchsorted((base, end, end - 2**31)).tolist()  # past 2**31, it goes on from 0
        offsets = [(ctx - base) & 0x7FFFFFFF for ctx in [*ctxs[lo:hi].tolist(), *ctxs[:wrapped].tolist()]]
        return dict(zip(offsets, [*range(lo, hi), *range(wrapped)]))

    def _search(self, ctx: int) -> int | None:
        """The row number of context ``ctx``, or None if it has no trained row."""
        r = int(self._ctxs.searchsorted(ctx))
        return r if r < len(self._ctxs) and self._ctxs[r] == ctx else None

    def _build_row(self, r: int | None) -> np.ndarray:
        """Row ``r`` of the table as a read-only vector of log-probabilities; with ``r`` None, the untrained row."""
        if r is None:
            if self._uniform_row is None:
                self._uniform_row = np.full(self.vocab_size, -np.log(self.vocab_size))
                self._uniform_row.flags.writeable = False
            return self._uniform_row
        lo, hi = self._bounds[r], self._bounds[r + 1]
        shape = tuple(self._values[lo:hi].tolist())
        cached = self._shapes.get(shape)
        if cached is None:
            # the untrained share rides last in the same np.log call as the
            # trained ones, so every entry is bit-identical to np.log(probs)
            # taken over the whole row
            denom = sum(shape) + self.alpha * self.vocab_size
            logs = np.log((np.array([*shape, 0.0]) + self.alpha) / denom)
            cached = self._shapes[shape] = (float(logs[-1]), logs[:-1])
        untrained, trained = cached
        row = np.empty(self.vocab_size)
        row.fill(untrained)
        row.put(self._tokens[lo:hi], trained)
        row.flags.writeable = False
        return row

    def next_token_logprobs(
        self, input_tokens: Sequence[TokenId], prefix: Sequence[TokenId]
    ) -> np.ndarray:
        held, key, window, rows = self._scope
        if self.input_conditioned and held is not input_tokens:
            new_key = _input_key(input_tokens)
            if new_key != key:
                key, window, rows = new_key, self._window(new_key), {}
            # a list can change in place, so it is hashed again on every call
            held = input_tokens if isinstance(input_tokens, tuple) else None
            self._scope = (held, key, window, rows)
        prev = prefix[-1] if len(prefix) else SOS
        row = rows.get(prev)
        if row is None:
            r = window.get(prev)
            if r is None and key is not None and not 0 <= prev < self._span:  # an id past 2**31, or no id at all
                r = self._search(_context(key, prev))
            row = rows[prev] = self._build_row(r)
        return row


class UniformScorer(TableScorer):
    """Assigns every token probability ``1 / vocab_size`` at every step: the table with no counts."""

    def __init__(self, vocab_size: int) -> None:
        super().__init__({}, 1.0, vocab_size)


def train_table_scorer(
    pairs: Iterable[tuple[Sequence[TokenId], Sequence[TokenId]]],
    alpha: float,
    vocab_size: int,
    input_conditioned: bool = False,
) -> TableScorer:
    """Closed-form MLE counts for the bigram family.

    Every ``(previous token, token)`` transition in each target is counted,
    with SOS as the initial context.  Targets are counted verbatim; append
    EOS to a target if the end of sequence should be part of the model.
    """
    def transitions() -> Iterator[tuple[None, object, object, float]]:
        try:
            items = iter(pairs)
        except TypeError:
            raise ScorerError(f"training pairs must be iterable, not {type(pairs).__name__}") from None
        for i, pair in enumerate(items):
            try:
                input_tokens, target = pair
            except (TypeError, ValueError):
                raise ScorerError(f"training item {i}: {pair!r} is not an (input, target) pair") from None
            try:
                target = tuple(target)
            except TypeError:
                raise ScorerError(f"training item {i}: target {target!r} is not a sequence of token ids") from None
            if not target:
                raise ScorerError("empty target sequence")
            key = _input_key(input_tokens) if input_conditioned else None
            for prev, token in zip((SOS, *target), target):
                # a bad id is refused as a token first, so no context worked out from one is named
                yield None, _context(key, prev) if isinstance(prev, Integral) else prev, token, 1.0

    scorer = TableScorer.__new__(TableScorer)
    scorer._keep_records(transitions(), scorer._header(alpha, vocab_size, input_conditioned))
    if not len(scorer._ctxs):
        raise ScorerError("empty training set")
    return scorer


def _steps(
    scorer: Scorer, input_tokens: Sequence[TokenId], tokens: Sequence[TokenId]
) -> Iterator[tuple[np.ndarray, float]]:
    """``(logprobs, logprobs[token])`` at each step of ``tokens``: vocabulary ids, one EOS last.

    The input is read once.  A token's value above 0.0, or NaN, is no
    log-probability and raises :class:`ScorerError`.
    """
    input_tokens, seq = tuple(input_tokens), tuple(tokens)
    if not seq or seq[-1] != EOS:
        raise ScorerError("sequence must end with EOS")
    if EOS in seq[:-1]:
        raise ScorerError("EOS may only appear at the final position")
    for i, token in enumerate(seq):
        if not (isinstance(token, (int, np.integer)) and type(token) is not bool and 0 <= token < scorer.vocab_size):
            raise ScorerError(f"step {i}: token {token!r} is not a vocabulary id in 0..{scorer.vocab_size - 1}")
        logprobs = scorer.next_token_logprobs(input_tokens, seq[:i])
        value = float(logprobs[token])
        if not value <= 0.0:
            raise _bad_value(i, token, value)
        yield logprobs, value


def _bad_value(step: int, token: TokenId, value: float) -> ScorerError:
    return ScorerError(f"step {step}: scorer gave token {token} the value {value!r}; a log-probability is at most 0.0")


def sequence_score(
    scorer: Scorer, input_tokens: Sequence[TokenId], tokens: Sequence[TokenId]
) -> float:
    """Sum of stepwise log-probabilities of ``tokens`` (EOS step included)."""
    total = 0.0
    for _, value in _steps(scorer, input_tokens, tokens):
        total += value
    return total


def smoothed_nll(
    scorer: Scorer,
    input_tokens: Sequence[TokenId],
    target: Sequence[TokenId],
    epsilon: float,
) -> float:
    """Label-smoothed negative log-likelihood of an EOS-terminated target.

    Per step: ``-(1 - eps) * log p(gold) - (eps / V) * sum_v log p(v)``, i.e.
    the smoothing mass is spread uniformly over all ``V`` classes, gold
    included.  With ``eps == 0`` this equals ``-sequence_score``.  With
    ``eps > 0`` every value of a row is summed, so a value above 0.0, or
    NaN, anywhere in it raises :class:`ScorerError`, naming the row's
    largest value, or its first NaN.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ScorerError("epsilon must lie in [0, 1)")
    total = 0.0
    for i, (logprobs, value) in enumerate(_steps(scorer, input_tokens, target)):
        step = -(1.0 - epsilon) * value
        if epsilon > 0.0:
            if not logprobs.max() <= 0.0:  # NaN fails too
                worst = int(logprobs.argmax())  # the first NaN, if any
                raise _bad_value(i, worst, float(logprobs[worst]))
            step -= (epsilon / scorer.vocab_size) * float(logprobs.sum())
        total += step
    return total


def save_table_scorer(scorer: TableScorer, path: str) -> None:
    """Write ``alpha TAB vocab-size`` then ``ctx TAB token TAB count`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        header = f"{scorer.alpha!r}\t{scorer.vocab_size}"
        if scorer.input_conditioned:
            header += "\tinput-conditioned"
        fh.write(header + "\n")
        for ctx, row in sorted(scorer.counts.items()):
            for token in sorted(row):
                fh.write(f"{ctx}\t{token}\t{row[token]!r}\n")


_LOAD_LINES = 4096  # lines read and checked at a time
# digits-only ids that fit int64, and a count of digits, point, sign and exponent:
# numpy's parser reads these exactly as int() and float() do
# (?=(...))\1 is an atomic group (Python 3.10 has no `*+`): no line is kept to backtrack into, which cuts the state
# the match holds per line
_PLAIN_LINES = re.compile(r"(?:(?=([0-9]{1,18}\t[0-9]{1,18}\t[-+.eE0-9]+\n))\1)*")


def _parsed(block: list[str], lineno: int) -> Iterator[tuple[int, int, int, float]]:
    """``(line, ctx, token, count)`` of each count line of ``block``, after line ``lineno``; a bad one raises."""
    for n, line in enumerate(block, lineno + 1):
        if line and not line.isspace():
            parts = line.split("\t")
            if len(parts) != 3:
                raise ScorerError("expected `ctx TAB token TAB count`", n)
            try:
                yield n, int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ScorerError(str(exc), n) from None


def _block_columns(block: list[str], lineno: int, failed: list[InputError]) -> Sequence[np.ndarray]:
    """The columns of ``block``'s count lines, by one ``np.loadtxt`` if all are in the plain form, else line by line."""
    rows = list(filter(None, block))  # a line of only whitespace is not in the plain form
    if rows and _PLAIN_LINES.fullmatch("\n".join([*rows, ""])):
        with suppress(ValueError):  # a count such as `1.2.3`
            return np.loadtxt(rows, dtype="i8,i8,f8", delimiter="\t", comments=None, ndmin=1, unpack=True)
    return _columns(list(_until_refused(_parsed(block, lineno), failed)))


def load_table_scorer(path: str) -> TableScorer:
    """Read a :func:`save_table_scorer` file, summing repeated keys; a refused line is named (``line 3: ...``).

    The file is read once, :data:`_LOAD_LINES` lines at a time, each block checked before the next is read,
    so the first refused line, or a bad byte with no refused line before it, is named."""
    failed: list[InputError] = []  # a bad byte, then a line before it that does not parse
    lines = _until_refused(read_lines(path), failed)
    header = next(lines, None)
    if header is None:
        raise failed[0] if failed else ScorerError("empty scorer file")
    head = header.split("\t")
    if len(head) < 2 or head[2:] not in ([], ["input-conditioned"]):
        raise ScorerError("bad header: expected `alpha TAB vocab-size [TAB input-conditioned]`")
    try:
        alpha, vocab_size = float(head[0]), int(head[1])
    except ValueError as exc:
        raise ScorerError(f"bad header: {exc}") from None
    scorer = TableScorer.__new__(TableScorer)
    top = scorer._header(alpha, vocab_size, len(head) == 3)
    blocks, lineno = [_columns(())], 1  # the last line read: the header
    while not failed and (block := list(islice(lines, _LOAD_LINES))):
        columns = _block_columns(block, lineno, failed)
        blocks.append(scorer._check(columns, top, lambda i: next(islice(_parsed(block, lineno), i, None))))
        lineno += len(block)
    if failed:
        raise failed[-1]
    blocks = [np.concatenate(column) for column in zip(*blocks)]  # the blocks are freed before the sort
    scorer._keep(*blocks)
    return scorer
