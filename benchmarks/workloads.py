"""The three workloads: set-up from files, one request, output checks, replays.

Only the public surface is used: ``trie_decode`` exports, ``trie_decode.cli.main``
and the documented file formats with their module-level readers.  The
benchmark never hands ``beam_search`` a constraint of its own and never
touches ``MarkupConstraint``, ``TrieNode``, ``parallel_map`` or ``--jobs``, so
the constraint protocol, the trie layout and the thread pool can all be
replaced without editing it.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from contextlib import nullcontext
from functools import cached_property

from trie_decode import (
    EOS,
    LINK_CLOSE,
    LINK_OPEN,
    MENTION_CLOSE,
    MENTION_OPEN,
    TASK_EXTRA_SPECIALS,
    BeamConfig,
    EntityTrie,
    TaskConfig,
    build_trie,
    cli,
    decode,
    disambiguate,
    ed_accuracy,
    encode,
    encode_with_offsets,
    flag_mention,
    link_document,
    load_candidate_sets,
    load_catalog,
    load_vocabulary,
    micro_f1_spans,
    parse_markup,
    r_precision,
    rank_entities,
    render_markup,
    sequence_score,
)
from trie_decode.scoring import load_table_scorer
from trie_decode.tasks import load_dr_dataset, load_ed_dataset, load_el_dataset

RETRIEVE_CONFIG = BeamConfig(k=10, max_steps=15)
ED_CONFIG = TaskConfig(beams=10, max_steps=15, context_window=384)
LINK_CONFIG = BeamConfig(k=6, max_steps=384)
SCORE_TOLERANCE = 1e-12


class Workload:
    """Set-up, request and check logic shared by the three workloads.

    ``tail_percentile`` is fixed per workload and ``min_requests`` leaves at
    least ten timed samples beyond it.  Quality, scorer calls and the output
    digest are computed over the first ``min_requests`` timed requests, so
    they repeat exactly for a seed however fast the engine is.  A traced run
    replays the first ``traced_requests`` of them, once untraced and once
    traced.
    """

    name = ""
    decode_span = ""
    tail_percentile = 0.0
    min_requests = 0
    traced_requests = 0

    def __init__(self, files, work_dir: str, tracer=None) -> None:
        self.files = files
        self.work_dir = work_dir
        self.tracer = tracer
        self.trie_bytes = 0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    # --- set-up -----------------------------------------------------------

    def load_vocab(self) -> None:
        with self.span("vocab.load_vocabulary"):
            self.vocab = load_vocabulary(self.files.vocab, extra_specials=TASK_EXTRA_SPECIALS)

    def load_scorer(self):
        with self.span("scoring.load_table_scorer"):
            return load_table_scorer(self.files.scorer)

    def catalog_trie(self) -> EntityTrie:
        """``trie-decode build-trie`` on the catalog file, then load the trie file."""
        path = os.path.join(self.work_dir, "names.trie")
        argv = ["build-trie", self.files.catalog, "--vocab", self.files.vocab, "--out", path]
        with self.span("cli.build_trie"), contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"build-trie exited with status {status}")
        with open(path, "rb") as fh:
            blob = fh.read()
        self.trie_bytes = len(blob)
        with self.span("trie.deserialize"):
            return EntityTrie.deserialize(blob)

    def probe_catalog_layers(self) -> None:
        """Traced runs only: the catalog and trie calls behind ``build-trie``, one span each."""
        with self.span("catalog.load_catalog"):
            catalog, _ = load_catalog(self.files.catalog, self.vocab)
        with self.span("trie.build_trie"):
            trie = build_trie(catalog.token_sequences(), self.vocab.size)
        with self.span("trie.serialize"):
            trie.serialize()

    @cached_property
    def catalog_names(self) -> frozenset[str]:
        """Every catalog name; read on first use, outside the timed section."""
        with open(self.files.catalog, encoding="utf-8") as fh:
            return frozenset(fh.read().splitlines())

    def split(self, requests: list) -> None:
        self.warmup = requests[: self.files.warmup]
        self.timed = requests[self.files.warmup :]

    # --- per-workload hooks ------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, scorer, request):
        raise NotImplementedError

    def check(self, scorer, request, output) -> str | None:
        """``None`` when the output is valid, else the reason it is not."""
        raise NotImplementedError

    def quality(self, requests, outputs) -> float:
        raise NotImplementedError

    def digest_line(self, output) -> str:
        raise NotImplementedError

    def replay(self, requests, outputs, prefixes) -> dict[str, float]:
        """Per-layer numbers re-measured outside the traced pass."""
        raise NotImplementedError


def _ranking_problem(ranking, names, scorer, input_tokens, k: int, vocab) -> str | None:
    if not len(ranking):
        return "empty ranking"
    if len(ranking) > k:
        return f"{len(ranking)} entries for k={k}"
    keys = [(-e.normalized_score, e.tokens) for e in ranking]
    if keys != sorted(keys):
        return "entries not sorted by (-score, tokens)"
    for entry in ranking:
        if entry.name not in names:
            return f"{entry.name!r} is not an allowed name"
        if entry.tokens != tuple(encode(entry.name, vocab)) + (EOS,):
            return f"{entry.name!r} does not spell its tokens"
        expected = sequence_score(scorer, input_tokens, entry.tokens)
        if abs(entry.raw_logprob - expected) > SCORE_TOLERANCE:
            return f"raw_logprob {entry.raw_logprob!r} != sequence score {expected!r}"
    return None


def _ranking_line(ranking) -> str:
    if isinstance(ranking, BaseException):
        return f"error {type(ranking).__name__}"
    return "\t".join(f"{e.name}|{e.raw_logprob!r}|{e.normalized_score!r}" for e in ranking)


def _timed_calls(fn, items) -> float:
    """Mean microseconds of ``fn(item)`` over ``items``, timed as one loop."""
    start = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - start) / max(1, len(items)) * 1e6


class Retrieve(Workload):
    name = "retrieve"
    decode_span = "beam.rank_entities"
    tail_percentile = 95.0
    min_requests = 200
    traced_requests = 100

    def setup(self) -> None:
        self.load_vocab()
        self.trie = self.catalog_trie()
        self.scorer = self.load_scorer()
        with self.span("tasks.load_dataset"):
            self.split(load_dr_dataset(self.files.dataset))

    def run(self, scorer, request):
        with self.span("vocab.encode"):
            tokens = encode(request[1], self.vocab)
        with self.span(self.decode_span):
            return rank_entities(scorer, tokens, self.trie, RETRIEVE_CONFIG, self.vocab)

    def check(self, scorer, request, output) -> str | None:
        tokens = encode(request[1], self.vocab)
        return _ranking_problem(output, self.catalog_names, scorer, tokens, RETRIEVE_CONFIG.k, self.vocab)

    def quality(self, requests, outputs) -> float:
        scores = [
            0.0 if isinstance(out, BaseException) else r_precision(set(req[2]), out)
            for req, out in zip(requests, outputs)
        ]
        return sum(scores) / len(scores)

    def digest_line(self, output) -> str:
        return _ranking_line(output)

    def replay(self, requests, outputs, prefixes) -> dict[str, float]:
        flat = [p for per_request in prefixes for p in per_request]
        lookup = self.trie.allowed_continuations
        generated = sum(len(lookup(p)) for p in flat)
        return {
            "trie.lookup_us": _timed_calls(lookup, flat),
            "beam.candidates_per_call": generated / len(flat),
            "beam.kept_ratio": len(flat) / generated,
            "vocab.encode_us": _timed_calls(lambda r: encode_with_offsets(r[1], self.vocab), requests),
        }


class Disambiguate(Workload):
    name = "disambiguate"
    decode_span = "tasks.disambiguate"
    # not p99: on requests of about 1 ms the top 1% is set by the host
    # preempting the benchmark, not by the engine
    tail_percentile = 95.0
    min_requests = 1000
    traced_requests = 1000

    def setup(self) -> None:
        self.load_vocab()
        self.scorer = self.load_scorer()
        with self.span("catalog.load_candidate_sets"):
            candidate_sets = load_candidate_sets(self.files.candidates)
        with self.span("tasks.load_dataset"):
            self.split(load_ed_dataset(self.files.dataset, self.vocab, candidate_sets))

    def probe_catalog_layers(self) -> None:
        # set-up never builds the catalog trie here; the probe measures the
        # catalog the candidate sets are drawn from, so the trie rows exist
        self.catalog_trie()
        super().probe_catalog_layers()

    def run(self, scorer, request):
        with self.span(self.decode_span):
            return disambiguate(scorer, request, self.vocab, ED_CONFIG)

    def check(self, scorer, request, output) -> str | None:
        flagged = flag_mention(request, self.vocab, ED_CONFIG)
        names = frozenset(request.candidates)
        return _ranking_problem(output, names, scorer, flagged, ED_CONFIG.beams, self.vocab)

    def quality(self, requests, outputs) -> float:
        predicted = [
            out[0].name if not isinstance(out, BaseException) and len(out) else ""
            for out in outputs
        ]
        return ed_accuracy([req.gold for req in requests], predicted)

    def digest_line(self, output) -> str:
        return _ranking_line(output)

    def replay(self, requests, outputs, prefixes) -> dict[str, float]:
        vocab = self.vocab
        texts = [decode(req.context_tokens, vocab) for req in requests]
        encode_s = build_s = lookup_s = flag_s = 0.0
        calls = generated = 0
        for req, text, scored in zip(requests, texts, prefixes):
            t0 = time.perf_counter()
            encode_with_offsets(text, vocab)
            sequences = [tuple(span.token for span in encode_with_offsets(n, vocab)) for n in req.candidates]
            t1 = time.perf_counter()
            trie = build_trie(sequences, vocab.size)
            t2 = time.perf_counter()
            for p in scored:
                trie.allowed_continuations(p)
            t3 = time.perf_counter()
            flag_mention(req, vocab, ED_CONFIG)
            t4 = time.perf_counter()
            encode_s += t1 - t0
            build_s += t2 - t1
            lookup_s += t3 - t2
            flag_s += t4 - t3
            calls += len(scored)
            generated += sum(len(trie.allowed_continuations(p)) for p in scored)
        n = len(requests)
        return {
            "trie.lookup_us": lookup_s / calls * 1e6,
            "trie.candidate_build_us": build_s / n * 1e6,
            "beam.candidates_per_call": generated / calls,
            "beam.kept_ratio": calls / generated,
            "vocab.encode_us": encode_s / n * 1e6,
            "tasks.flag_us": flag_s / n * 1e6,
        }


# Markup FSM phases, as documented in ``trie_decode.markup``: copying outside
# a mention, inside ``[...]``, right after ``]`` (only ``(`` is legal), and
# inside ``(...)`` where the catalog trie constrains the tokens.
_OUTSIDE, _MENTION, _CLOSED, _LINK = range(4)


def _advance(state: tuple[int, int, int, int], token: int, index: int) -> tuple[int, int, int, int]:
    """``(phase, source cursor, mention length, link start)`` after ``token`` at ``index``."""
    phase, cursor, mention, link_start = state
    if phase == _OUTSIDE:
        if token == MENTION_OPEN:
            return (_MENTION, cursor, 0, -1)
        return (_OUTSIDE, cursor + 1, 0, -1)
    if phase == _MENTION:
        if token == MENTION_CLOSE:
            return (_CLOSED, cursor, mention, -1)
        return (_MENTION, cursor + 1, mention + 1, -1)
    if phase == _CLOSED:
        return (_LINK, cursor, 0, index + 1)
    if token == LINK_CLOSE:
        return (_OUTSIDE, cursor, 0, -1)
    return state


class Link(Workload):
    name = "link"
    decode_span = "markup.link_document"
    tail_percentile = 90.0
    min_requests = 100
    traced_requests = 40

    def setup(self) -> None:
        self.load_vocab()
        self.trie = self.catalog_trie()
        self.scorer = self.load_scorer()
        with self.span("tasks.load_dataset"):
            self.split(load_el_dataset(self.files.dataset))

    def run(self, scorer, request):
        with self.span(self.decode_span):
            doc = link_document(scorer, request[1], self.trie, LINK_CONFIG, self.vocab)
        with self.span("markup.render_markup"):
            return doc, render_markup(doc)

    def check(self, scorer, request, output) -> str | None:
        doc, markup = output
        if doc.diagnostics:
            return "; ".join(doc.diagnostics)
        if parse_markup(markup, request[1]) != list(doc.spans):
            return "rendered markup does not parse back to the document's spans"
        for span in doc.spans:
            if span.entity not in self.catalog_names:
                return f"{span.entity!r} is not a catalog name"
        return None

    def quality(self, requests, outputs) -> float:
        gold = [parse_markup(req[2], req[1]) for req in requests]
        predicted = [() if isinstance(out, BaseException) else out[0].spans for out in outputs]
        return micro_f1_spans(gold, predicted).f1

    def digest_line(self, output) -> str:
        if isinstance(output, BaseException):
            return f"error {type(output).__name__}"
        doc, markup = output
        return "\t".join((markup, *doc.diagnostics))

    def replay(self, requests, outputs, prefixes) -> dict[str, float]:
        lookup = self.trie.allowed_continuations
        entity_prefixes = []
        generated = calls = 0
        for req, scored in zip(requests, prefixes):
            source_len = len(encode(req[1], self.vocab))
            states = {(): (_OUTSIDE, 0, 0, -1)}
            for prefix in scored:
                state = states.get(prefix)
                if state is None:
                    state = _advance(states[prefix[:-1]], prefix[-1], len(prefix) - 1)
                    states[prefix] = state
                phase, cursor, mention, link_start = state
                if phase == _OUTSIDE:
                    generated += 1 if cursor >= source_len else 2
                elif phase == _MENTION:
                    generated += (cursor < source_len) + (mention > 0)
                elif phase == _CLOSED:
                    generated += 1
                else:
                    entity_prefixes.append(prefix[link_start:])
                    generated += len(lookup(entity_prefixes[-1]))
                calls += 1
        spans = [0 if isinstance(out, BaseException) else len(out[0].spans) for out in outputs]
        return {
            "trie.lookup_us": _timed_calls(lookup, entity_prefixes),
            "beam.candidates_per_call": generated / calls,
            "beam.kept_ratio": calls / generated,
            "vocab.encode_us": _timed_calls(lambda r: encode_with_offsets(r[1], self.vocab), requests),
            "markup.spans_per_doc": sum(spans) / len(spans),
        }


WORKLOADS = {cls.name: cls for cls in (Retrieve, Disambiguate, Link)}
