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
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .vocab import EOS, SOS, InputError, TokenId, read_lines, read_rows


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
    except (TypeError, OverflowError):
        packed = array("I")
        for t in ids:  # id by id, to name the first one the packing refuses
            try:
                packed.append(t)
            except TypeError:
                raise ScorerError(f"input token id {t!r} is not an integer") from None
            except OverflowError:
                raise ScorerError(f"input token id {t} does not fit in an unsigned 32-bit int") from None
    if sys.byteorder == "big":
        packed.byteswap()
    return zlib.crc32(packed)


def _context(key: int | None, prev: TokenId) -> int:
    """The context id of a step after ``prev``; ``key`` is the input's crc, or None unconditioned."""
    return prev if key is None else (key * 0x10001 + prev) & 0x7FFFFFFF


_Entry = tuple[int | None, int, TokenId, float]  # one count to check: (file line or None, ctx, token, count)


class TableScorer(Scorer):
    """Additively smoothed bigram model over target tokens.

    ``p(v | ctx) = (count(ctx, v) + alpha) / (total(ctx) + alpha * V)`` with
    finite ``alpha > 0``.  The constructor, the file loader and training sum
    counts in one pass, which checks each finite and ``>= 0`` before summing
    it, then rejects a row whose denominator overflows, or whose ``alpha``
    share underflows to 0, so every log-probability is finite.  The context
    is the previous generated token (SOS at the first step), or, when
    ``input_conditioned``, ``(crc32(input) * 0x10001 + prev) mod 2**31`` over
    the input's u32 token ids: distinct pairs can share a row, and an input
    that is not iterable, or holds an id that is not an integer or not in u32,
    raises :class:`ScorerError`.  A context id no step can reach is rejected.

    The counts are kept as one flat table: ``_tokens`` and ``_values``
    arrays grouped by context, ascending, each context's ids in the order
    first seen, with ``_rows`` giving a context's row number and
    ``_bounds[r]:_bounds[r + 1]`` its row's slice.  :attr:`counts` is a
    ``{ctx: {token: count}}`` view of it, built on first read.

    Rows are built on first use into one scope, an ``(input, key, rows)``
    triple, with ``rows`` keyed by the previous token; the context id is
    worked out only to build a missing row.  Unconditioned, the key is None
    and the rows serve every input for good.  Input-conditioned, the key is
    the input's crc: a call with another input object hashes it, and another
    crc replaces the scope, freeing the old input's rows.  A cold row is
    filled from its count shape: the untrained value and the trained
    log-probabilities of each distinct tuple of a row's counts, taken once
    per scorer and kept.  Threads sharing a scorer read the scope once per
    call and may rebuild a row another thread dropped, but never read a
    wrong one: a ``rows`` dict belongs to one scope, so to one key.
    """

    def __init__(
        self,
        counts: Mapping[int, Mapping[TokenId, float]],
        alpha: float,
        vocab_size: int,
        input_conditioned: bool = False,
    ) -> None:
        entries = ((None, ctx, token, count) for ctx, row in counts.items() for token, count in row.items())
        self._count(entries, alpha, vocab_size, input_conditioned)

    def _header(self, alpha: float, vocab_size: int, input_conditioned: bool) -> int:
        """Check and keep the header, clear the caches, and return the largest context id a step can reach."""
        # plain comparisons, which NaN fails
        if not 0 < alpha < math.inf:
            raise ScorerError(f"alpha must be positive and finite, got {alpha!r}")
        if vocab_size < 1:
            raise ScorerError("vocab_size must be positive")
        self.vocab_size = vocab_size
        self.alpha = float(alpha)
        self.input_conditioned = input_conditioned
        self._uniform_row: np.ndarray | None = None  # built on first use, so a refused size allocates nothing
        self._scope: tuple[tuple[TokenId, ...] | None, int | None, dict[TokenId, np.ndarray]] = (None, None, {})
        self._shapes: dict[tuple[float, ...], tuple[float, np.ndarray]] = {}  # count tuple -> (untrained, trained logs)
        return 0x7FFFFFFF if input_conditioned else vocab_size - 1

    def _count(self, entries: Iterable[_Entry], alpha: float, vocab_size: int, input_conditioned: bool) -> None:
        """Check the header; check each entry, naming its line, and sum its nonzero count; then check each row."""
        top = self._header(alpha, vocab_size, input_conditioned)
        counts: dict[int, dict[TokenId, float]] = {}
        for line, ctx, token, count in entries:
            if not 0 <= ctx <= top:
                raise ScorerError(f"context {ctx} is outside 0..{top}, so no step can reach it", line)
            if not 0 <= token < vocab_size:
                raise ScorerError(f"token id {token} out of range", line)
            if not 0 <= count < math.inf:
                raise ScorerError(f"count must be non-negative and finite, got {count!r}", line)
            if count:
                row = counts.setdefault(int(ctx), {})
                token = int(token)
                row[token] = row.get(token, 0.0) + float(count)
        for ctx, row in counts.items():
            total = sum(row.values()) + self.alpha * vocab_size
            if not (total < math.inf and self.alpha / total > 0):
                raise ScorerError(f"context {ctx}: probabilities overflow or underflow a float")
        ctxs = sorted(counts)
        try:
            ctx_ids = np.repeat(np.array(ctxs, np.int64), [len(counts[ctx]) for ctx in ctxs])
            tokens = np.array([token for ctx in ctxs for token in counts[ctx]], np.int64)
        except OverflowError:  # only a vocabulary of more ids than any row can hold has such an id
            raise ScorerError("a context or token id does not fit in a signed 64-bit int") from None
        self._store(ctx_ids, tokens, np.array([c for ctx in ctxs for c in counts[ctx].values()], np.float64))

    def _fill(self, columns: np.ndarray, top: int) -> bool:
        """Keep the ``(ctx, token, count)`` records ``columns``, in file order, if they pass :meth:`_count`'s checks.

        The checks are array reductions: False, with nothing kept, if any
        record is out of range, a nonzero ``(ctx, token)`` key repeats, or a
        row's total may leave the floats.
        """
        ctx, tokens, values = columns["ctx"], columns["token"], columns["count"]
        if len(columns) and (
            int(ctx.min()) < 0 or int(ctx.max()) > top or int(tokens.min()) < 0
            or int(tokens.max()) >= self.vocab_size or not np.all((values >= 0) & (values < np.inf))
        ):
            return False
        kept = np.flatnonzero(values)
        order = kept[np.argsort(ctx[kept], kind="stable")]
        ctx, tokens, values = ctx[order], tokens[order], values[order]
        # saved rows list their ids ascending, so the sort that finds a repeat is seldom needed
        if np.any((ctx[1:] == ctx[:-1]) & (tokens[1:] <= tokens[:-1])):
            key = np.lexsort((tokens, ctx))
            if np.any((ctx[key][1:] == ctx[key][:-1]) & (tokens[key][1:] == tokens[key][:-1])):
                return False
        if len(values):
            with np.errstate(over="ignore"):  # an overflowing row is refused just below
                totals = np.add.reduceat(values, np.flatnonzero(np.diff(ctx, prepend=-1)))
            # a float sum in another order is far closer than a factor of 2 to the per-line one
            worst = 2 * (float(totals.max()) + self.alpha * self.vocab_size)
            if not (worst < math.inf and self.alpha / worst > 0):
                return False
        self._store(ctx, tokens, values)
        return True

    def _store(self, ctx: np.ndarray, tokens: np.ndarray, values: np.ndarray) -> None:
        """Keep checked counts, grouped by ascending ``ctx``, as the flat table."""
        starts = np.flatnonzero(np.diff(ctx, prepend=-1))
        self._rows = dict(zip(ctx[starts].tolist(), range(len(starts))))
        self._bounds = [*starts.tolist(), len(ctx)]  # a list, whose items read faster than an array's
        self._tokens, self._values = tokens, values

    @cached_property
    def counts(self) -> dict[int, dict[TokenId, float]]:
        """``{ctx: {token: count}}`` of the nonzero summed counts, built from the flat table on first read."""
        tokens, values, bounds = self._tokens.tolist(), self._values.tolist(), self._bounds
        return {
            ctx: dict(zip(tokens[bounds[r] : bounds[r + 1]], values[bounds[r] : bounds[r + 1]]))
            for ctx, r in self._rows.items()
        }

    def _build_row(self, ctx: int) -> np.ndarray:
        r = self._rows.get(ctx)
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
        held, key, rows = self._scope
        if self.input_conditioned and held is not input_tokens:
            new_key = _input_key(input_tokens)
            if new_key != key:
                key, rows = new_key, {}
            # a list can change in place, so it is hashed again on every call
            held = input_tokens if isinstance(input_tokens, tuple) else None
            self._scope = (held, key, rows)
        prev = prefix[-1] if len(prefix) else SOS
        row = rows.get(prev)
        if row is None:
            row = rows[prev] = self._build_row(_context(key, prev))
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
    def transitions() -> Iterator[_Entry]:
        for input_tokens, target in pairs:
            target = tuple(target)
            if not target:
                raise ScorerError("empty target sequence")
            key = _input_key(input_tokens) if input_conditioned else None
            for prev, token in zip((SOS, *target), target):
                yield None, _context(key, prev), token, 1.0

    scorer = TableScorer.__new__(TableScorer)
    scorer._count(transitions(), alpha, vocab_size, input_conditioned)
    if not scorer._rows:
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


_LOAD_LINES = 4096  # lines read per np.loadtxt call
# digits-only ids that fit int64, and a count of digits, point, sign and exponent:
# numpy's parser reads these exactly as int() and float() do
_PLAIN_LINES = re.compile(r"(?:[0-9]{1,18}\t[0-9]{1,18}\t[-+.eE0-9]+\n)*")
_COLUMNS = np.dtype([("ctx", np.int64), ("token", np.int64), ("count", np.float64)])


def _plain_columns(lines: Iterator[str]) -> np.ndarray | None:
    """The ``(ctx, token, count)`` records of the non-blank ``lines``, parsed ``_LOAD_LINES`` lines at a time.

    None if a line is not in the plain form ``_PLAIN_LINES``, numpy refuses
    one, or a byte is not UTF-8: the per-line pass then names the fault.
    """
    blocks = []
    try:
        while block := list(islice(lines, _LOAD_LINES)):
            rows = [line for line in block if line and not line.isspace()]
            if not rows:
                continue
            if not _PLAIN_LINES.fullmatch("\n".join([*rows, ""])):
                return None
            blocks.append(np.loadtxt(rows, dtype=_COLUMNS, delimiter="\t", comments=None, ndmin=1))
    except ValueError:  # InputError, a bad byte, included
        return None
    return np.concatenate(blocks) if blocks else np.empty(0, _COLUMNS)


def load_table_scorer(path: str) -> TableScorer:
    """Read a :func:`save_table_scorer` file, summing repeated keys; a refused line is named (``line 3: ...``).

    The count lines are parsed in blocks by :func:`_plain_columns` and kept
    by :meth:`TableScorer._fill`.  If a line is not in the plain form, or
    fails a check, or a key repeats, the file is read again by the
    constructor's per-line pass, which sums repeats and names the first
    refused line, context or bad byte in file order.
    """
    lines = read_lines(path)
    header = next(lines, None)
    if header is None:
        raise ScorerError("empty scorer file")
    head = header.split("\t")
    if len(head) < 2 or head[2:] not in ([], ["input-conditioned"]):
        raise ScorerError("bad header: expected `alpha TAB vocab-size [TAB input-conditioned]`")
    try:
        alpha = float(head[0])
        vocab_size = int(head[1])
    except ValueError as exc:
        raise ScorerError(f"bad header: {exc}") from None
    scorer = TableScorer.__new__(TableScorer)
    top = scorer._header(alpha, vocab_size, len(head) == 3)
    columns = _plain_columns(lines)
    if columns is not None and scorer._fill(columns, top):
        return scorer

    def entries() -> Iterator[_Entry]:
        lines = read_lines(path)
        next(lines)  # the header
        for lineno, raw in read_rows(lines):
            lineno += 1  # line 1 is the header
            parts = raw.split("\t")
            if len(parts) != 3:
                raise ScorerError("expected `ctx TAB token TAB count`", lineno)
            try:
                ctx, token, count = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ScorerError(str(exc), lineno) from None
            yield lineno, ctx, token, count

    scorer._count(entries(), alpha, vocab_size, len(head) == 3)
    return scorer
