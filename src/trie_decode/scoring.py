"""Autoregressive conditional scorers and sequence-level objectives.

A scorer maps ``(input tokens, generated prefix)`` to a full log-probability
vector over the vocabulary.  Every implementation returns a proper
distribution (logsumexp of the vector is 0).  Scorers are read-only at
inference time and safe for concurrent evaluation.

Scorers are deliberately decoupled from :class:`~trie_decode.vocab.Vocabulary`:
they only need a vocabulary *size* and the fixed special ids, which makes
tiny hand-built distributions usable in tests and oracles.
"""

from __future__ import annotations

import math
import zlib
from abc import ABC, abstractmethod
from typing import Iterable, Mapping, Sequence

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
        mutate it.
        """


class UniformScorer(Scorer):
    """Assigns every token probability ``1 / vocab_size`` at every step."""

    def __init__(self, vocab_size: int) -> None:
        if vocab_size < 1:
            raise ScorerError("vocab_size must be positive")
        self.vocab_size = vocab_size
        self._vector = np.full(vocab_size, -np.log(vocab_size))
        self._vector.flags.writeable = False

    def next_token_logprobs(
        self, input_tokens: Sequence[TokenId], prefix: Sequence[TokenId]
    ) -> np.ndarray:
        return self._vector


class OracleScorer(Scorer):
    """Drives generation toward a fixed target sequence.

    At step ``i`` the token ``target[i]`` receives probability ``on_prob``
    and the rest share the remainder uniformly, so the argmax at step ``i``
    is always ``target[i]``.  Past the end of the target the favored token is
    EOS.
    """

    def __init__(self, target: Sequence[TokenId], vocab_size: int, on_prob: float = 0.9) -> None:
        if vocab_size < 2:
            raise ScorerError("vocab_size must be at least 2")
        if not 0.0 < on_prob < 1.0:
            raise ScorerError("on_prob must lie strictly between 0 and 1")
        target = tuple(target)
        if any(not 0 <= t < vocab_size for t in target):
            raise ScorerError("target token out of range")
        off_prob = (1.0 - on_prob) / (vocab_size - 1)
        if on_prob <= off_prob:
            raise ScorerError("on_prob too small to dominate the off tokens")
        self.vocab_size = vocab_size
        self.target = target
        self.on_logprob = float(np.log(on_prob))
        self.off_logprob = float(np.log(off_prob))
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


def _input_key(input_tokens: Sequence[TokenId]) -> int:
    packed = b"".join(int(t).to_bytes(4, "little") for t in input_tokens)
    return zlib.crc32(packed)


def _conditioned_context(input_key: int, prev: TokenId) -> int:
    return (input_key * 0x10001 + prev) & 0x7FFFFFFF


class TableScorer(Scorer):
    """Additively smoothed bigram model over target tokens.

    ``p(v | ctx) = (count(ctx, v) + alpha) / (total(ctx) + alpha * V)`` with
    finite ``alpha > 0`` and finite counts ``>= 0``; a row whose denominator
    overflows, or whose ``alpha`` share underflows to 0, is rejected, so every
    log-probability is finite.  The
    context is the previous generated token (SOS at the first step),
    or, when ``input_conditioned``, ``(crc32(input) * 0x10001 + prev) mod
    2**31`` over the input's u32 token ids: distinct pairs can share a row.

    A decode passes one input at every step, so the scorer keeps the last
    ``(input tuple, crc)`` pair and hashes an input once per decode rather
    than once per call.  Only ``tuple`` inputs are kept, because a list can
    change in place between calls; a list is hashed on every call.  The pair
    is read once and replaced by a single attribute assignment, so threads
    sharing a scorer at worst hash again and never see a torn pair.
    """

    def __init__(
        self,
        counts: Mapping[int, Mapping[TokenId, float]],
        alpha: float,
        vocab_size: int,
        input_conditioned: bool = False,
    ) -> None:
        # plain comparisons, which NaN fails
        if not 0 < alpha < math.inf:
            raise ScorerError(f"alpha must be positive and finite, got {alpha!r}")
        if vocab_size < 1:
            raise ScorerError("vocab_size must be positive")
        self.vocab_size = vocab_size
        self.alpha = float(alpha)
        self.input_conditioned = input_conditioned
        self.counts: dict[int, dict[TokenId, float]] = {}
        for ctx, row in counts.items():
            clean: dict[TokenId, float] = {}
            for token, count in row.items():
                if not 0 <= token < vocab_size:
                    raise ScorerError(f"token id {token} out of range")
                if not 0 <= count < math.inf:
                    raise ScorerError(f"count must be non-negative and finite, got {count!r}")
                if count:
                    clean[int(token)] = float(count)
            if clean:
                total = sum(clean.values()) + self.alpha * vocab_size
                if not (total < math.inf and self.alpha / total > 0):
                    raise ScorerError(f"context {ctx}: probabilities overflow or underflow a float")
                self.counts[int(ctx)] = clean
        self._rows: dict[int, np.ndarray] = {}
        self._uniform_row: np.ndarray | None = None
        self._last_input: tuple[tuple[TokenId, ...], int] = ((), _input_key(()))

    def _row(self, ctx: int) -> np.ndarray:
        row = self._rows.get(ctx)
        if row is not None:
            return row
        table = self.counts.get(ctx)
        if table is None:
            if self._uniform_row is None:
                self._uniform_row = np.full(self.vocab_size, -np.log(self.vocab_size))
                self._uniform_row.flags.writeable = False
            return self._uniform_row
        probs = np.full(self.vocab_size, self.alpha)
        for token, count in table.items():
            probs[token] += count
        probs /= sum(table.values()) + self.alpha * self.vocab_size
        row = np.log(probs)
        row.flags.writeable = False
        self._rows[ctx] = row
        return row

    def next_token_logprobs(
        self, input_tokens: Sequence[TokenId], prefix: Sequence[TokenId]
    ) -> np.ndarray:
        prev = prefix[-1] if prefix else SOS
        if not self.input_conditioned:
            return self._row(prev)
        return self._row(_conditioned_context(self._memo_input_key(input_tokens), prev))

    def _memo_input_key(self, input_tokens: Sequence[TokenId]) -> int:
        if not isinstance(input_tokens, tuple):
            return _input_key(input_tokens)
        last, key = self._last_input
        if last is not input_tokens and last != input_tokens:
            key = _input_key(input_tokens)
            self._last_input = (input_tokens, key)
        return key


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
    counts: dict[int, dict[TokenId, float]] = {}
    seen_any = False
    for input_tokens, target in pairs:
        seen_any = True
        target = tuple(target)
        if not target:
            raise ScorerError("empty target sequence")
        key = _input_key(input_tokens) if input_conditioned else 0
        prev: TokenId = SOS
        for token in target:
            ctx = _conditioned_context(key, prev) if input_conditioned else prev
            row = counts.setdefault(ctx, {})
            row[token] = row.get(token, 0.0) + 1.0
            prev = token
    if not seen_any:
        raise ScorerError("empty training set")
    return TableScorer(counts, alpha, vocab_size, input_conditioned)


def _check_target(tokens: Sequence[TokenId]) -> tuple[TokenId, ...]:
    seq = tuple(tokens)
    if not seq or seq[-1] != EOS:
        raise ScorerError("sequence must end with EOS")
    if EOS in seq[:-1]:
        raise ScorerError("EOS may only appear at the final position")
    return seq


def sequence_score(
    scorer: Scorer, input_tokens: Sequence[TokenId], tokens: Sequence[TokenId]
) -> float:
    """Sum of stepwise log-probabilities of ``tokens`` (EOS step included)."""
    seq = _check_target(tokens)
    total = 0.0
    for i, token in enumerate(seq):
        logprobs = scorer.next_token_logprobs(input_tokens, seq[:i])
        total += float(logprobs[token])
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
    included.  With ``eps == 0`` this equals ``-sequence_score``.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ScorerError("epsilon must lie in [0, 1)")
    seq = _check_target(target)
    total = 0.0
    for i, token in enumerate(seq):
        logprobs = scorer.next_token_logprobs(input_tokens, seq[:i])
        step = -(1.0 - epsilon) * float(logprobs[token])
        if epsilon > 0.0:
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
        for ctx in sorted(scorer.counts):
            row = scorer.counts[ctx]
            for token in sorted(row):
                fh.write(f"{ctx}\t{token}\t{row[token]!r}\n")


def load_table_scorer(path: str) -> TableScorer:
    lines = read_lines(path)
    if not lines:
        raise ScorerError("empty scorer file")
    head = lines[0].split("\t")
    if len(head) < 2 or head[2:] not in ([], ["input-conditioned"]):
        raise ScorerError("bad header: expected `alpha TAB vocab-size [TAB input-conditioned]`")
    try:
        alpha = float(head[0])
        vocab_size = int(head[1])
    except ValueError as exc:
        raise ScorerError(f"bad header: {exc}") from None
    conditioned = len(head) == 3
    counts: dict[int, dict[TokenId, float]] = {}
    rows = read_rows(lines)
    next(rows)  # line 1, the header: it parsed, so it is not blank
    for lineno, raw in rows:
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ScorerError("expected `ctx TAB token TAB count`", lineno)
        try:
            ctx, token, count = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ScorerError(str(exc), lineno) from None
        row = counts.setdefault(ctx, {})
        row[token] = row.get(token, 0.0) + count
    return TableScorer(counts, alpha, vocab_size, conditioned)
