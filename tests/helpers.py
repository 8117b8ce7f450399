"""Shared fixtures-as-functions for the test suite.

Random catalogs are generated directly in token space (distinct sequences of
ordinary ids over a small word pool), so decoded names are canonical and the
name/token mapping is exact in both directions.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from bisect import bisect_left
from collections import deque
from numbers import Integral, Real
from types import SimpleNamespace

import numpy as np

from trie_decode.beam import Hypothesis, _top, mask_logprobs
from trie_decode.catalog import Catalog, CatalogError
from trie_decode.scoring import ScorerError, TableScorer, _context, _input_key
from trie_decode.tasks import TaskError
from trie_decode.trie import MAGIC, EntityTrie, TrieError, build_trie
from trie_decode.vocab import (
    EOS, SOS, UNK, TokenSpan, Vocabulary, decode, encode, encode_with_offsets, read_lines, read_rows,
)

WORD_POOL = (
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "eta", "theta", "iota", "kappa", "lambda", "mu",
)

SHARED_PREFIX_NAMES = ("English language", "English literature", "France")

# A linking fixture: annotate the painting sentence with its two entities.
PAINTING_SOURCE = "In 1503, Leonardo began painting the Mona Lisa."
PAINTING_WORDS = (
    "In", "1503", ",", "Leonardo", "began", "painting",
    "the", "Mona", "Lisa", ".", "da", "Vinci",
)
PAINTING_ENTITIES = ("Leonardo da Vinci", "Mona Lisa")
PAINTING_MARKUP = "In 1503, [Leonardo](Leonardo da Vinci) began painting the [Mona Lisa](Mona Lisa)."

# A soccer report with four gold mentions; the predictions add a spurious
# fifth, giving micro precision 0.80, recall 1.00, F1 8/9.
SOCCER_SOURCE = (
    "SOCCER - RESULT IN SPANISH FIRST DIVISION . MADRID 1996-08-31 Result of game "
    "played in the Spanish first division on Saturday : Deportivo Coruna 1 Real Madrid 1."
)
SOCCER_GOLD_MARKUP = (
    "SOCCER - RESULT IN [SPANISH](Spain) FIRST DIVISION . [MADRID](Madrid) 1996-08-31 "
    "Result of game played in the [Spanish](Spain) first division on Saturday : "
    "Deportivo Coruna 1 [Real Madrid](Real Madrid C.F.) 1."
)
SOCCER_PREDICTED_MARKUP = (
    "SOCCER - RESULT IN [SPANISH](Spain) FIRST DIVISION . [MADRID](Madrid) 1996-08-31 "
    "Result of game played in the [Spanish](Spain) first division on Saturday : "
    "[Deportivo](Deportivo de La Coruna) Coruna 1 [Real Madrid](Real Madrid C.F.) 1."
)
SOCCER_GOLD_TRIPLES = (
    (19, 7, "Spain"),
    (44, 6, "Madrid"),
    (91, 7, "Spain"),
    (147, 11, "Real_Madrid_C.F."),
)
SOCCER_PREDICTED_TRIPLES = (
    (19, 7, "Spain"),
    (44, 6, "Madrid"),
    (91, 7, "Spain"),
    (128, 9, "Deportivo_de_La_Coruna"),
    (147, 11, "Real_Madrid_C.F."),
)


def pool_vocabulary(extra_specials: tuple[str, ...] = ()) -> Vocabulary:
    return Vocabulary(WORD_POOL, extra_specials)


def shared_prefix_vocabulary() -> Vocabulary:
    return Vocabulary(("English", "France", "language", "literature"))


def random_sequences(
    rng: np.random.Generator, vocab: Vocabulary, size: int, max_len: int = 6
) -> list[tuple[int, ...]]:
    """Distinct random token sequences of ordinary ids, 1..max_len long.

    Raises ValueError when ``size`` exceeds the distinct sequences there are.
    """
    ordinary = list(range(vocab.ordinary_base, vocab.size))
    distinct = sum(len(ordinary) ** length for length in range(1, max_len + 1))
    if size > distinct:
        raise ValueError(
            f"asked for {size} distinct sequences; {len(ordinary)} ids make {distinct} of length 1..{max_len}"
        )
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    while len(out) < size:
        length = int(rng.integers(1, max_len + 1))
        seq = tuple(int(t) for t in rng.choice(ordinary, size=length))
        if seq not in seen:
            seen.add(seq)
            out.append(seq)
    return out


# candidate names with a space inside, non-ASCII letters or padding; none holds `|`, tab or newline
CANDIDATE_NAME_POOL = ("France", "English language", "Café", "Zürich", "北京 市", " padded ", "a  b")


def random_candidate_field(rng: np.random.Generator) -> str:
    """A ``|``-joined candidate field of the shapes a file may hold.

    Empty pieces (``a||b``), a leading or trailing ``|``, repeated names and,
    one field in eight, bars only; a field of empty pieces alone holds no name.
    """
    if rng.integers(8) == 0:
        return "|" * int(rng.integers(1, 5))
    pieces = rng.choice(CANDIDATE_NAME_POOL + ("",) * 3, size=int(rng.integers(1, 9)))
    return "|".join(str(piece) for piece in pieces)


def catalog_from_sequences(sequences: list[tuple[int, ...]], vocab: Vocabulary) -> Catalog:
    return Catalog((decode(seq, vocab) for seq in sequences), vocab)


def random_catalog(
    rng: np.random.Generator, vocab: Vocabulary, size: int, max_len: int = 6
) -> tuple[Catalog, EntityTrie]:
    sequences = random_sequences(rng, vocab, size, max_len)
    return catalog_from_sequences(sequences, vocab), build_trie(sequences, vocab.size)


def painting_fixture() -> tuple[Vocabulary, EntityTrie, tuple[int, ...]]:
    """Vocabulary, entity trie, and gold markup token target for the painting sentence."""
    from trie_decode.vocab import EOS, LINK_CLOSE, LINK_OPEN, MENTION_CLOSE, MENTION_OPEN, encode

    vocab = Vocabulary(PAINTING_WORDS)
    trie = build_trie([tuple(encode(n, vocab)) for n in PAINTING_ENTITIES], vocab.size)
    t = {w: vocab.ordinary_id(w) for w in PAINTING_WORDS}
    target = (
        t["In"], t["1503"], t[","],
        MENTION_OPEN, t["Leonardo"], MENTION_CLOSE,
        LINK_OPEN, t["Leonardo"], t["da"], t["Vinci"], LINK_CLOSE,
        t["began"], t["painting"], t["the"],
        MENTION_OPEN, t["Mona"], t["Lisa"], MENTION_CLOSE,
        LINK_OPEN, t["Mona"], t["Lisa"], LINK_CLOSE,
        t["."], EOS,
    )
    return vocab, trie, target


def random_table_scorer(
    rng: np.random.Generator, vocab: Vocabulary, input_conditioned: bool = False
) -> TableScorer:
    """Random sparse bigram counts over the ordinary tokens plus EOS."""
    contexts = [SOS] + list(range(vocab.ordinary_base, vocab.size))
    targets = [EOS] + list(range(vocab.ordinary_base, vocab.size))
    counts: dict[int, dict[int, float]] = {}
    for ctx in contexts:
        if rng.random() < 0.3:
            continue  # leave some contexts untrained
        n_entries = int(rng.integers(1, 6))
        row: dict[int, float] = {}
        for tok in rng.choice(targets, size=n_entries, replace=False):
            row[int(tok)] = float(rng.integers(1, 20))
        counts[ctx] = row
    alpha = float(rng.choice((0.1, 0.5, 1.0)))
    return TableScorer(counts, alpha, vocab.size, input_conditioned)


def reference_table_counts(entries, alpha, vocab_size, input_conditioned=False) -> SimpleNamespace:
    """A table scorer's header and ``{ctx: {token: count}}`` by one dict pass over ``(line, ctx, token, count)``.

    Each entry is checked before it is summed, so the first bad one in
    order is named; then each row is checked in the order its context was
    first counted.  Contexts come out ascending, each row's ids in the order
    first seen.
    """
    if not (isinstance(alpha, Real) and 0 < alpha <= sys.float_info.max):
        raise ScorerError(f"alpha must be positive and finite, got {alpha!r}")
    if isinstance(vocab_size, bool) or not (isinstance(vocab_size, Integral) and 1 <= vocab_size <= 2**63 - 1):
        raise ScorerError(f"vocab_size must be an integer in 1..2**63 - 1, got {vocab_size!r}")
    top = 0x7FFFFFFF if input_conditioned else vocab_size - 1
    counts: dict[int, dict[int, float]] = {}
    for line, ctx, token, count in entries:
        if not isinstance(ctx, Integral):
            raise ScorerError(f"context {ctx!r} is not an integer", line)
        if not 0 <= ctx <= top:
            raise ScorerError(f"context {ctx} is outside 0..{top}, so no step can reach it", line)
        if not isinstance(token, Integral):
            raise ScorerError(f"token id {token!r} is not an integer", line)
        if not 0 <= token < vocab_size:
            raise ScorerError(f"token id {token} out of range", line)
        try:
            value = float(count) if isinstance(count, Real) else math.nan
        except OverflowError:
            value = math.nan
        if not 0 <= value < math.inf:
            raise ScorerError(f"count must be non-negative and finite, got {count!r}", line)
        if value:
            row = counts.setdefault(int(ctx), {})
            row[int(token)] = row.get(int(token), 0.0) + value
    for ctx, row in counts.items():
        total = sum(row.values()) + alpha * vocab_size
        if not (total < math.inf and alpha / total > 0):
            raise ScorerError(f"context {ctx}: probabilities overflow or underflow a float")
    return SimpleNamespace(
        alpha=float(alpha), vocab_size=int(vocab_size), input_conditioned=input_conditioned,
        counts={ctx: counts[ctx] for ctx in sorted(counts)},
    )


def reference_table_scorer(counts, alpha, vocab_size, input_conditioned=False) -> SimpleNamespace:
    """What ``TableScorer(counts, ...)`` keeps, by the reference pass."""
    entries = ((None, ctx, token, count) for ctx, row in counts.items() for token, count in row.items())
    return reference_table_counts(entries, alpha, vocab_size, input_conditioned)


def reference_train_table_scorer(pairs, alpha, vocab_size, input_conditioned=False) -> SimpleNamespace:
    """What ``train_table_scorer`` keeps: each transition counted once, in order, by the reference pass."""
    def transitions():
        for input_tokens, target in pairs:
            target = tuple(target)
            if not target:
                raise ScorerError("empty target sequence")
            key = _input_key(input_tokens) if input_conditioned else None
            for prev, token in zip((SOS, *target), target):
                yield None, _context(key, prev), token, 1.0

    table = reference_table_counts(transitions(), alpha, vocab_size, input_conditioned)
    if not table.counts:
        raise ScorerError("empty training set")
    return table


def reference_load_table_scorer(path: str) -> SimpleNamespace:
    """What ``load_table_scorer`` keeps: the file's count lines parsed one at a time, by the reference pass."""
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

    def entries():
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

    return reference_table_counts(entries(), alpha, vocab_size, len(head) == 3)


def reference_table_row(table, ctx: int) -> np.ndarray:
    """The smoothing formula over a whole row of ``table`` (a scorer or a reference), then one ``np.log``."""
    row = table.counts.get(ctx)
    if row is None:
        return np.full(table.vocab_size, -np.log(table.vocab_size))
    probs = np.full(table.vocab_size, table.alpha)
    for token, count in row.items():
        probs[token] += count
    probs /= sum(row.values()) + table.alpha * table.vocab_size
    return np.log(probs)


def legal_ids(constraint, state) -> frozenset[int]:
    """The constraint's allowed ids at ``state`` as a set, plus EOS where ``state`` is final."""
    allowed = frozenset(map(int, constraint.allowed(state)))
    return allowed | {EOS} if constraint.final(state) else allowed


def reference_beam_search(scorer, input_tokens, constraint, config) -> list[Hypothesis]:
    """Beam search as the definition reads, the reference for ``beam_search``.

    Masks each live hypothesis's scores, extends it by every legal token,
    then sorts all candidates by ``(-score, tokens)`` and keeps ``k``.  Each
    prefix's constraint state is recomputed from the start, and its legal
    ids are taken as a set (see :func:`legal_ids`).
    """

    def allowed(prefix):
        state = constraint.start()
        for token in prefix:
            state = constraint.advance(state, token)
        return legal_ids(constraint, state)

    live, pool = [Hypothesis((), 0.0, False)], []
    for _ in range(config.max_steps):
        candidates = []
        for hyp in live:
            tokens = allowed(hyp.tokens)
            if not tokens:
                continue
            logprobs = scorer.next_token_logprobs(tuple(input_tokens), hyp.tokens)
            masked = mask_logprobs(logprobs, tokens)
            for token in sorted(tokens):
                score = hyp.cum_logprob + float(masked[token])
                extended = Hypothesis(hyp.tokens + (token,), score, token == EOS)
                (pool if extended.finished else candidates).append(extended)
        candidates.sort(key=lambda h: (-h.cum_logprob, h.tokens))
        live = candidates[: config.k]
    length = (lambda h: len(h.tokens)) if config.length_normalize else (lambda h: 1)
    pool.sort(key=lambda h: (-(h.cum_logprob / length(h)), h.tokens))
    return pool[: config.k]


def reference_order(logprobs, allowed, k):
    """``beam._order`` as first written, with ``top`` last, the reference for it: the whole sorted row is searched."""
    tokens = np.asarray(allowed, dtype=np.intp)
    values = logprobs[tokens]
    top = _top(tokens, values)
    neg = -values.astype(np.float64)
    order = np.lexsort((tokens, neg))
    neg = neg[order]  # ascending
    lo, hi = np.searchsorted(neg, neg[k - 1], "left"), np.searchsorted(neg, neg[k - 1], "right")
    above = -float(neg[lo - 1]) if lo else math.inf
    below = -float(neg[hi]) if hi < len(neg) else -math.inf
    best = tuple(zip((-neg[:k]).tolist(), tokens[order[:k]].tolist()))
    return best, -float(neg[k - 1]), above, below, top


def reference_flag_window(left_len: int, right_len: int, budget: int) -> tuple[int, int]:
    """Context tokens ``flag_mention`` keeps left and right of the mention.

    The three-branch trim as first written, the reference for its closed form:
    each side gets half the budget (the right side the odd token), and a side
    shorter than its half hands what it leaves unused to the other.
    """
    if left_len + right_len <= budget:
        return left_len, right_len
    left_share = budget // 2
    right_share = budget - left_share
    if left_len < left_share:
        return left_len, min(right_len, budget - left_len)
    if right_len < right_share:
        return min(left_len, budget - right_len), right_len
    return left_share, right_share


def reference_mention_token_span(context, char_start, char_len, vocab, line):
    """The ED loader's mention token range as first written, the reference for the loader.

    Lays out every token's character extent, then bisects the token starts
    for the tokens that start inside the mention's characters.
    """
    end = char_start + char_len
    if char_len < 1 or char_start < 0 or end > len(context):
        raise TaskError("mention character span outside the context", line)
    token_spans = encode_with_offsets(context, vocab)
    starts = [span.start for span in token_spans]
    # the spans are sorted and disjoint: the mention is the tokens starting in [char_start, end)
    first = bisect_left(starts, char_start)
    last = bisect_left(starts, end, first)
    if first == last or starts[first] != char_start or token_spans[last - 1].end != end:
        raise TaskError("mention does not align to token boundaries", line)
    return tuple(span.token for span in token_spans), first, last - first


def reference_encode_with_offsets(text, vocab) -> list[TokenSpan]:
    """``encode_with_offsets`` as first written, the reference for its extents.

    Finds each whitespace word with ``\\S+``, looks it up whole, and otherwise
    matches greedily inside it, each match at its own offset in the word.
    """
    table = vocab._table
    out = []
    for m in re.finditer(r"\S+", text):
        word, base = m.group(), m.start()
        if word in table:
            out.append(TokenSpan(table[word], base, len(word)))
            continue
        i = 0
        while i < len(word):
            for length in range(min(vocab._max_len, len(word) - i), 0, -1):
                tid = table.get(word[i : i + length])
                if tid is not None:
                    out.append(TokenSpan(tid, base + i, length))
                    i += length
                    break
            else:
                out.append(TokenSpan(UNK, base + i, 1))
                i += 1
    return out


def reference_build_trie(sequences, vocab_size) -> EntityTrie:
    """The trie built as first written, the reference for ``build_trie``.

    Sorts the distinct sequences, then numbers the nodes in level order with
    a FIFO of runs of sorted sequences that share a node's prefix, and packs
    the file bytes itself, so the result passes the checks a file does.  It
    checks each sequence in input order and raises the builder's messages.
    """
    seqs = [tuple(s) for s in sequences]
    if not seqs:
        raise TrieError("cannot build a trie from zero sequences")
    for seq in seqs:
        if not seq:
            raise TrieError("empty sequence")
        for token in seq:
            if token in (SOS, EOS):
                raise TrieError("sequences must not contain SOS/EOS (terminality is implicit)")
            if not 0 <= token < vocab_size:
                raise TrieError(f"token id {token} out of range for vocab size {vocab_size}")
    seqs = sorted(set(seqs))
    token, first, terminal = [0], [], []
    runs = deque([(0, len(seqs), 0)])  # node v: seqs[lo:hi] share its depth-token prefix
    while runs:
        lo, hi, depth = runs.popleft()
        first.append(len(token))
        ends_here = len(seqs[lo]) == depth  # sorted, so only the first can
        terminal.append(ends_here)
        lo += ends_here
        while lo < hi:
            label = seqs[lo][depth]
            end = lo + 1
            while end < hi and seqs[end][depth] == label:
                end += 1
            token.append(label)
            runs.append((lo, end, depth + 1))
            lo = end
    first.append(len(token))
    # the file layout, packed here: magic, u32 vocab size and node count, then the arrays
    header = MAGIC + struct.pack("<II", vocab_size, len(token))
    arrays = struct.pack(f"<{len(token)}I{len(first)}I", *token, *first) + bytes(terminal)
    return EntityTrie(header + arrays)


def reference_make_record(name, vocab, line=None) -> tuple[int, ...]:
    """A catalog name's tokens under the rule as first written, the reference for ``make_record``.

    Checks the name's characters, then encodes it and decodes the tokens:
    a name that does not read back as itself is refused with its read-back.
    """
    if not name:
        raise CatalogError("empty entity name", line)
    bad = sorted(set("[]()").intersection(name))
    if bad:
        raise CatalogError(f"entity name contains reserved characters {bad}: {name!r}", line)
    if "\t" in name or "\n" in name:
        raise CatalogError(f"entity name contains control characters: {name!r}", line)
    tokens = tuple(encode(name, vocab))
    read_back = decode(tokens, vocab)
    if read_back != name:
        raise CatalogError(f"catalog name {name!r} reads back as {read_back!r}, so no decode can emit it", line)
    return tokens


def reference_load_catalog(source, vocab) -> tuple[dict[str, tuple[int, ...]], int]:
    """``load_catalog``'s names with their tokens, in order, and its duplicate count, as first written.

    Each non-blank line, stripped, goes through :func:`reference_make_record`
    unless an earlier line gave the same name, which is counted instead.
    Raises ``CatalogError`` for the first refused line.
    """
    records: dict[str, tuple[int, ...]] = {}
    duplicates = 0
    for lineno, raw in read_rows(source):
        name = raw.strip()
        if name in records:
            duplicates += 1
        else:
            records[name] = reference_make_record(name, vocab, lineno)
    return records, duplicates


def reference_catalog_build(source, vocab) -> tuple[EntityTrie, int]:
    """``build-trie``'s trie and name count as first written, the reference for the block compile.

    Each non-blank line, stripped, goes through :func:`reference_make_record`
    in turn, and the token tuples through ``build_trie``; the count includes
    repeats.  Raises ``CatalogError`` for the first refused line.
    """
    seqs = [reference_make_record(raw.strip(), vocab, lineno) for lineno, raw in read_rows(source)]
    return build_trie(seqs, vocab.size), len(seqs)
