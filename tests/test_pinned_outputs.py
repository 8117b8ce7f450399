"""Seed 501 of each benchmark workload, decoded in process as ``benchmarks/run.py`` decodes it, pinned to its bytes.

The first ``min_requests`` timed requests of each workload go through the benchmark's own ``Workload.run`` and
``CountingScorer``, read-only from ``benchmarks/``.  Their output digest is ``benchmarks/BASELINE.json``'s for seed
501, and their scorer calls per request and quality are pinned below, with link's search counters: scorer calls,
recorded and sorted pairs, memo reuses and bar skips.  The first few requests of each are also decoded by the
reference search.

The outputs print float scores, and NumPy picks its ``np.log`` kernel by CPU (a vector one where AVX-512 is, libm's
elsewhere) and version.  So the pins hold only on a host whose generated files and scorer log-probabilities are
those they were pinned on: each workload's ``host`` digest says which.  Elsewhere the pins are skipped, naming the
digest; the checks that hold on any host, the benchmark's output checks and the reference search, still run.
"""

from __future__ import annotations

import hashlib
import json
import runpy
import statistics
from pathlib import Path
from typing import NamedTuple

import pytest

from trie_decode.beam import DecodeStats, _search
from trie_decode.markup import MarkupConstraint, SpanAnnotation, _scan
from trie_decode.tasks import flag_mention
from trie_decode.trie import build_trie
from trie_decode.vocab import decode, encode, encode_with_offsets

from helpers import generate, host_digest, reference_beam_search

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
SEED = 501
BASELINE = json.loads((BENCH / "BASELINE.json").read_text(encoding="utf-8"))


class Pin(NamedTuple):
    host: str  # the host_digest of the generated files and scorer that the pins hold for
    calls: float  # scorer calls per request
    quality: float
    references: int  # the first requests the reference search decodes too
    counters: dict[str, int] = {}  # the DecodeStats counters of the requests' searches, where pinned


# link: the searches of the first 100 documents, as link_document runs them
LINK_COUNTERS = {"scorer_calls": 30172, "recorded_pairs": 1396, "sorted_pairs": 804, "memo_reuses": 4637, "bar_skips": 4973}

PINS = {
    "retrieve": Pin("4773cdc22723efc61e012ded6ad74da5def7ce958985dd230ed7c0d60e52a736", 48.0, 0.7141666666666667, 5),
    "disambiguate": Pin("eb197a2371d13bc565c8d60ce27a2d1ac47a56d53a2e213f94d53585059736a1", 38.568, 0.751, 50),
    "link": Pin(
        "c082138e4820943f4c81d6ab5646edaed87cd694c2c351986894c67a707fdccc", 301.72, 0.2536231884057971, 3, LINK_COUNTERS
    ),
}


class Decoded(NamedTuple):
    name: str
    workload: object
    requests: list
    outputs: list
    calls: list[int]
    host: str
    config: dict  # the benchmark's decode configs
    counters: dict[str, int]  # the pinned DecodeStats counters of the requests' searches


@pytest.fixture(scope="module", params=list(PINS))
def decoded(request, tmp_path_factory) -> Decoded:
    name = request.param
    inputs, work = tmp_path_factory.mktemp(f"{name}-inputs"), tmp_path_factory.mktemp(f"{name}-work")
    generate(name, SEED, inputs, 1.0)
    gen = runpy.run_path(str(BENCH / "gen.py"))
    bench = runpy.run_path(str(BENCH / "workloads.py"))
    counting = runpy.run_path(str(BENCH / "tracing.py"))["CountingScorer"]
    workload = bench["WORKLOADS"][name](gen["files_for"](name, str(inputs), 1.0), str(work))
    workload.setup()
    scorer = counting(workload.scorer)
    requests, outputs, calls = workload.timed[: workload.min_requests], [], []
    for each in requests:
        before = scorer.calls
        outputs.append(workload.run(scorer, each))
        calls.append(scorer.calls - before)
    config = {key: bench[key] for key in ("RETRIEVE_CONFIG", "ED_CONFIG", "LINK_CONFIG")}
    stats = DecodeStats()
    if PINS[name].counters:  # link: each document's search again, with a record
        for request in requests:
            tokens = tuple(span.token for span in encode_with_offsets(request[1], workload.vocab))
            _search(workload.scorer, tokens, MarkupConstraint(tokens, workload.trie), config["LINK_CONFIG"], 1, stats)
        assert stats.scorer_calls == sum(calls)  # the counting scorer's count
    counters = {key: getattr(stats, key) for key in PINS[name].counters}
    return Decoded(name, workload, requests, outputs, calls, host_digest([inputs], [workload.scorer]), config, counters)


def test_outputs_pass_the_benchmark_checks(decoded):
    workload = decoded.workload
    problems = [workload.check(workload.scorer, *pair) for pair in zip(decoded.requests, decoded.outputs)]
    assert problems == [None] * len(decoded.requests)


def test_outputs_calls_and_quality_are_pinned(decoded):
    pin = PINS[decoded.name]
    if decoded.host != pin.host:
        pytest.skip(f"{decoded.name}: the host digest is {decoded.host}, not the pinned one")
    sha = hashlib.sha256()
    for output in decoded.outputs:
        sha.update(decoded.workload.digest_line(output).encode("utf-8") + b"\n")
    baseline = BASELINE["workloads"][decoded.name]["output_sha256_by_seed"][str(SEED)]
    assert sha.hexdigest() == baseline
    assert statistics.fmean(decoded.calls) == pin.calls
    assert decoded.workload.quality(decoded.requests, decoded.outputs) == pin.quality
    assert decoded.counters == pin.counters


def test_first_requests_equal_the_reference_search(decoded):
    """Rankings equal the reference's hypotheses; a linked document has the spans of the reference's best."""
    workload, config = decoded.workload, decoded.config
    vocab, scorer = workload.vocab, workload.scorer
    for request, output in list(zip(decoded.requests, decoded.outputs))[: PINS[decoded.name].references]:
        if decoded.name == "link":
            source = request[1]
            offsets = encode_with_offsets(source, vocab)
            tokens = tuple(span.token for span in offsets)
            constraint = MarkupConstraint(tokens, workload.trie)
            (best, *_) = reference_beam_search(scorer, tokens, constraint, config["LINK_CONFIG"])
            spans = [
                SpanAnnotation(offsets[start].start, offsets[end - 1].end - offsets[start].start, decode(entity, vocab))
                for start, end, entity in _scan(best.tokens)[1]
            ]
            assert list(output[0].spans) == spans
            continue
        if decoded.name == "retrieve":
            inputs, constraint, beams = encode(request[1], vocab), workload.trie, config["RETRIEVE_CONFIG"]
        else:
            beams = config["ED_CONFIG"].beam_config()
            inputs = flag_mention(request, vocab, config["ED_CONFIG"])
            names = {tuple(encode(name, vocab)) for name in request.candidates}
            constraint = build_trie([name for name in names if len(name) < beams.max_steps], vocab.size)
        want = reference_beam_search(scorer, inputs, constraint, beams)
        assert [(entry.tokens, entry.raw_logprob) for entry in output] == [(h.tokens, h.cum_logprob) for h in want]
