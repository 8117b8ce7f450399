"""Seeded synthetic workloads, written to disk in the documented file formats.

Everything here is derived from one ``numpy`` generator seeded by the
benchmark's ``--seed``, so the same seed always yields byte-identical files.
The engine under test only ever sees these files (and the requests read back
from them); nothing in this module is timed.

Words are two- or three-syllable strings, so every whitespace word of a name,
query or document is exactly one vocabulary token and ``decode(encode(t)) ==
t`` holds for every generated text.  Word frequencies follow a Zipf law, so
names share prefixes unevenly, as real catalogs do.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, replace

import numpy as np

from trie_decode import (
    EOS,
    LINK_CLOSE,
    LINK_OPEN,
    MENTION_CLOSE,
    MENTION_OPEN,
    TASK_EXTRA_SPECIALS,
    EDInstance,
    TaskConfig,
    Vocabulary,
    flag_mention,
    train_table_scorer,
)
from trie_decode.scoring import save_table_scorer

ALPHA = 0.01  # table-scorer smoothing: a trained continuation is ~100x any other token
SEEN_EVERY = 4  # requests i with i % 4 == 3 are left out of scorer training
NAME_LENGTH_WEIGHTS = (0.05, 0.30, 0.30, 0.20, 0.10, 0.05)  # names of 1..6 tokens
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Sizes:
    """Workload size knobs; ``warmup`` requests precede the timed pool."""

    vocab_words: int
    catalog_names: int
    requests: int
    warmup: int


SIZES = {
    "retrieve": Sizes(vocab_words=2000, catalog_names=100_000, requests=3000, warmup=20),
    "disambiguate": Sizes(vocab_words=2000, catalog_names=100_000, requests=10_000, warmup=50),
    "link": Sizes(vocab_words=2000, catalog_names=100_000, requests=800, warmup=4),
}


def scaled(sizes: Sizes, scale: float) -> Sizes:
    """Shrink a workload for self-tests; ``scale=1`` is the benchmark size."""
    if scale == 1:
        return sizes
    return replace(
        sizes,
        vocab_words=max(40, int(sizes.vocab_words * scale)),
        catalog_names=max(200, int(sizes.catalog_names * scale)),
        requests=max(12, int(sizes.requests * scale)),
        warmup=max(2, int(sizes.warmup * scale)),
    )


@dataclass(frozen=True)
class Files:
    vocab: str
    scorer: str
    dataset: str
    catalog: str
    candidates: str | None
    warmup: int


class _Words:
    """A seeded word list plus a Zipf sampler over it."""

    def __init__(self, rng: np.random.Generator, count: int) -> None:
        consonants, vowels = "bdfgklmnprstvz", "aeiou"
        syllables = [c + v for c in consonants for v in vowels]
        two = [a + b for a in syllables for b in syllables]
        three = [w + s for w in two[:400] for s in syllables]
        pool = two + three
        picked = rng.choice(len(pool), size=count, replace=False)
        self.words = [pool[i] for i in picked]
        weights = 1.0 / np.arange(1, count + 1) ** ZIPF_EXPONENT
        self.p = weights / weights.sum()
        self.rng = rng

    def sample(self, n: int) -> np.ndarray:
        return self.rng.choice(len(self.words), size=n, p=self.p)

    def text(self, ids) -> str:
        return " ".join(self.words[i] for i in ids)


def _catalog(rng: np.random.Generator, words: _Words, count: int) -> list[tuple[int, ...]]:
    """``count`` distinct names of 1..6 Zipf-drawn words, in generation order."""
    names: dict[tuple[int, ...], None] = {}
    lengths_p = np.asarray(NAME_LENGTH_WEIGHTS)
    while len(names) < count:
        batch = count - len(names) + 1000
        lengths = rng.choice(len(lengths_p), size=batch, p=lengths_p) + 1
        draws = words.sample(batch * 6).reshape(batch, 6)
        for length, row in zip(lengths, draws):
            names.setdefault(tuple(int(t) for t in row[:length]))
            if len(names) == count:
                break
    return list(names)


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def files_for(workload: str, out_dir: str, scale: float = 1.0) -> Files:
    """Where :func:`generate` puts one workload's files."""
    path = lambda name: os.path.join(out_dir, name)  # noqa: E731
    return Files(
        vocab=path("vocab.txt"),
        scorer=path("scorer.tsv"),
        dataset=path("dataset.tsv"),
        catalog=path("catalog.txt"),
        candidates=path("candidates.tsv") if workload == "disambiguate" else None,
        warmup=scaled(SIZES[workload], scale).warmup,
    )


def generate(workload: str, seed: int, out_dir: str, scale: float = 1.0) -> Files:
    """Write one workload's vocab, catalog, scorer and dataset files."""
    files = files_for(workload, out_dir, scale)
    sizes = scaled(SIZES[workload], scale)
    rng = np.random.default_rng([seed, list(SIZES).index(workload)])
    words = _Words(rng, sizes.vocab_words)
    vocab = Vocabulary(words.words, TASK_EXTRA_SPECIALS)
    base = vocab.ordinary_base
    catalog = _catalog(rng, words, sizes.catalog_names)

    def ids(word_indices) -> tuple[int, ...]:
        return tuple(base + i for i in word_indices)

    _write_lines(files.vocab, words.words)
    _write_lines(files.catalog, (words.text(n) for n in catalog))
    total = sizes.requests + sizes.warmup
    make = {"retrieve": _retrieval, "disambiguate": _disambiguation, "link": _linking}[workload]
    dataset, candidates, pairs = make(rng, words, vocab, catalog, total, ids)
    _write_lines(files.dataset, dataset)
    if files.candidates is not None:
        _write_lines(files.candidates, candidates)
    scorer = train_table_scorer(pairs, ALPHA, vocab.size, input_conditioned=True)
    save_table_scorer(scorer, files.scorer)
    return files


def _request_id(i: int) -> str:
    # zero-padded so that sorting by id keeps generation order
    return f"r{i:06d}"


def _seen(i: int) -> bool:
    return i % SEEN_EVERY != SEEN_EVERY - 1


def _retrieval(rng, words, vocab, catalog, total, ids):
    """Queries of 3..8 words naming 1..3 gold names (one word of each)."""
    lines, pairs, used = [], [], set()
    i = 0
    while len(lines) < total:
        # gold count and seen/unseen cycle with the request index, so every
        # seed gets the same mix of the two properties that set R-precision
        golds = [catalog[j] for j in rng.choice(len(catalog), size=i % 3 + 1, replace=False)]
        length = int(rng.integers(3, 9))
        query = [int(g[rng.integers(len(g))]) for g in golds]
        query += [int(w) for w in words.sample(length - len(query))]
        rng.shuffle(query)
        if tuple(query) in used:
            continue
        used.add(tuple(query))
        gold_names = [words.text(g) for g in golds]
        lines.append(f"{_request_id(i)}\t{words.text(query)}\t{'|'.join(gold_names)}")
        if _seen(i):
            pairs.extend((ids(query), ids(g) + (EOS,)) for g in golds)
        i += 1
    return lines, None, pairs


def _disambiguation(rng, words, vocab, catalog, total, ids):
    """Flagged mentions in 20..120-token contexts, each with 10..60 candidates plus the gold."""
    by_first: dict[int, list[int]] = {}
    for j, name in enumerate(catalog):
        by_first.setdefault(name[0], []).append(j)
    config = TaskConfig()
    lines, cand_lines, pairs = [], [], []
    for i in range(total):
        gold = catalog[int(rng.integers(len(catalog)))]
        # most mentions spell the gold name; the rest a prefix of it
        cut = len(gold) if rng.random() < 0.7 else int(rng.integers(1, len(gold) + 1))
        mention = list(gold[:cut])
        length = int(rng.integers(20, 121))
        filler = [int(w) for w in words.sample(max(0, length - len(mention)))]
        at = int(rng.integers(0, len(filler) + 1))
        context = filler[:at] + mention + filler[at:]
        char_start = sum(len(words.words[w]) + 1 for w in context[:at])
        char_len = len(words.text(mention))
        wanted = 10 + i % 51  # cycles, so every seed builds the same candidate-trie sizes
        similar = by_first[gold[0]]
        alike = rng.choice(len(similar), size=min(len(similar), wanted // 2), replace=False)
        picks = [similar[k] for k in alike]
        picks += [int(k) for k in rng.choice(len(catalog), size=wanted - len(picks), replace=False)]
        names = dict.fromkeys(words.text(catalog[k]) for k in picks)
        names.pop(words.text(gold), None)
        order = list(names) + [words.text(gold)]
        order = [order[k] for k in rng.permutation(len(order))]
        rid = _request_id(i)
        lines.append(f"{rid}\t{words.text(context)}\t{char_start}\t{char_len}\t{words.text(gold)}")
        cand_lines.append(f"{rid}\t{'|'.join(order)}")
        if _seen(i):
            instance = EDInstance(rid, ids(context), at, len(mention), words.text(gold))
            pairs.append((flag_mention(instance, vocab, config), ids(gold) + (EOS,)))
    return lines, cand_lines, pairs


def _linking(rng, words, vocab, catalog, total, ids):
    """Documents of 8..24 tokens with about 10% of tokens inside 1- or 2-word mentions."""
    lines, pairs = [], []
    for i in range(total):
        length = 8 + i % 17  # cycles with seen/unseen, so every seed has the same length mix
        n_mentions = max(1, round(length * 0.1 / 1.5))
        slots = sorted(rng.choice(length // 3, size=n_mentions, replace=False) * 3)
        source, markup, target = [], [], []
        cursor = 0
        for slot in slots:
            gap = [int(w) for w in words.sample(slot - cursor)]
            entity = catalog[int(rng.integers(len(catalog)))]
            mention = list(entity[: int(rng.integers(1, 3))])
            source += gap + mention
            markup += [words.words[w] for w in gap]
            markup.append(f"[{words.text(mention)}]({words.text(entity)})")
            target += list(ids(gap)) + [MENTION_OPEN, *ids(mention), MENTION_CLOSE, LINK_OPEN]
            target += [*ids(entity), LINK_CLOSE]
            cursor = slot + len(mention)
        tail = [int(w) for w in words.sample(max(0, length - cursor))]
        source += tail
        markup += [words.words[w] for w in tail]
        target += list(ids(tail))
        lines.append(f"{_request_id(i)}\t{words.text(source)}\t{' '.join(markup)}")
        if _seen(i):
            pairs.append((ids(source), tuple(target) + (EOS,)))
    return lines, None, pairs


if __name__ == "__main__":
    # run as a child process, so that the generator's memory stays out of the
    # benchmark's peak RSS
    parser = argparse.ArgumentParser(description="write one seeded workload")
    parser.add_argument("workload", choices=sorted(SIZES))
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out_dir, args.scale)
