"""Spans and scorer proxies recorded from the benchmark's own code.

A span is ``[name, start, end, parent, request]``: wall-clock bounds from
``time.perf_counter``, the index of the enclosing span (``-1`` at top level)
and the request it belongs to (``-1`` during set-up).  Spans are kept in
memory and written out once the run ends.  A layer's self time is its span's
duration minus the time its direct child spans cover; on one thread children
never overlap, so that is a plain subtraction.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, Sequence

from trie_decode import Scorer

GC_SPANS = ("runtime.gc_gen0", "runtime.gc_gen1", "runtime.gc_gen2")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        # building the record may run a collection, whose callback appends its
        # own span, so the index is read only after this record is appended
        record = [name, time.perf_counter(), 0.0, parent, self.request]
        self.spans.append(record)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextmanager
    def gc_spans(self) -> Iterator[None]:
        """Record every garbage collection as a span named by its generation."""
        open_spans: list[int] = []

        def callback(phase: str, info: dict) -> None:
            if phase == "start":
                open_spans.append(self.begin(GC_SPANS[info["generation"]]))
            elif open_spans:
                self.end(open_spans.pop())

        gc.callbacks.append(callback)
        try:
            yield
        finally:
            gc.callbacks.remove(callback)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, summed duration, summed self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return dict(out)

    def child_time_by_name(self, parent_name: str) -> dict[str, float]:
        """Summed duration of the direct children of spans named ``parent_name``."""
        names = [s[0] for s in self.spans]
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and names[parent] == parent_name:
                out[name] += end - start
        return dict(out)

    def dump(self, path: str, extra: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            **extra,
            "span_fields": ["name", "start_s", "end_s", "parent", "request"],
            "span_names": names,
            "spans": [[code[n], s, e, p, r] for n, s, e, p, r in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class CountingScorer(Scorer):
    """Counts ``next_token_logprobs`` calls; reads no clock."""

    def __init__(self, inner: Scorer) -> None:
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.calls = 0

    def next_token_logprobs(self, input_tokens: Sequence[int], prefix: Sequence[int]):
        self.calls += 1
        return self.inner.next_token_logprobs(input_tokens, prefix)


class TracedScorer(Scorer):
    """Wraps each scorer call in a span and keeps the prefixes it was asked about."""

    def __init__(self, inner: Scorer, tracer: Tracer) -> None:
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.tracer = tracer
        self.prefixes: list[tuple[int, ...]] = []

    def next_token_logprobs(self, input_tokens: Sequence[int], prefix: Sequence[int]):
        self.prefixes.append(tuple(prefix))
        index = self.tracer.begin("scoring.next_token_logprobs")
        try:
            return self.inner.next_token_logprobs(input_tokens, prefix)
        finally:
            self.tracer.end(index)
