"""Seeded end-to-end benchmark for trie-decode, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload retrieve --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
does a separate traced run and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Generated inputs, the full result
and the span dump go under ``.bench_out/`` at the checkout root.

The engine is imported from ``src/`` of the checkout this file lives in and
nowhere else; without it the benchmark exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from speed import NEAREST, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROUNDS = 3


def _import_engine():
    if not (SRC / "trie_decode" / "__init__.py").is_file():
        sys.exit(f"error: no engine source at {SRC / 'trie_decode'}")
    sys.path.insert(0, str(SRC))
    import trie_decode

    if Path(trie_decode.__file__).resolve().parent != SRC / "trie_decode":
        sys.exit(f"error: imported trie_decode from {trie_decode.__file__}, not {SRC}")


def _scaled(count: int, scale: float) -> int:
    return max(5, int(count * scale))


def _check_all(workload, scorer, requests, outputs) -> list[str]:
    """One entry per failed request: raised, empty, or failed an output check."""
    problems = []
    for request, output in zip(requests, outputs):
        if isinstance(output, BaseException):
            problems.append(f"raised {type(output).__name__}: {output}")
            continue
        reason = workload.check(scorer, request, output)
        if reason is not None:
            problems.append(reason)
    return problems


def _digest(workload, outputs) -> str:
    sha = hashlib.sha256()
    for output in outputs:
        sha.update(workload.digest_line(output).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Timed:
    """Per-request records of the timed phase, pooled over the rounds.

    Peak RSS is read once ``rss_at`` requests are done: the scorer's row cache
    grows with every request, so reading it at the end would charge a faster
    engine for the extra requests it fits in.
    """

    def __init__(self, rss_at: int, probe: SpeedProbe) -> None:
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.outputs: list = []
        self.calls: list[int] = []
        self.wall = 0.0
        self.peak_rss = 0.0
        self.rss_at = rss_at
        self.probe = probe

    def run(self, workload, scorer, seconds: float, until: int) -> None:
        """Closed loop with one caller: each request is issued after the previous one returns.

        Continues with the next request not yet run until ``seconds`` have
        passed and ``until`` requests are done overall, or the pool runs out.
        Calibration blocks run between requests, never inside one.
        """
        start = time.perf_counter()
        for request in workload.timed[len(self.outputs) :]:
            self.probe.due()
            before = scorer.calls
            t0 = time.perf_counter()
            try:
                output = workload.run(scorer, request)
            except Exception as exc:  # a failed request is counted, not fatal
                output = exc
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.latencies.append(t1 - t0)
            self.outputs.append(output)
            self.calls.append(scorer.calls - before)
            if len(self.outputs) == self.rss_at:
                self.peak_rss = _peak_rss_mb()
            if t1 - start >= seconds and len(self.outputs) >= until:
                break
        self.probe.block(NEAREST)
        self.wall += time.perf_counter() - start


def untraced_run(workload_cls, files, work_dir, seconds, scale) -> dict:
    """Three rounds of set-up, warm-up and a third of the timed phase.

    Spreading the timed phase over the whole run means that a short slow
    spell of a shared machine moves the pooled figures less.  Time metrics
    are in reference seconds (see ``speed.py``); the raw wall-clock figures
    are kept in the result file.
    """
    from tracing import CountingScorer

    probe = SpeedProbe()
    setups = []
    timed = None
    for round_index in range(ROUNDS):
        # free the previous set-up before timing the next one
        workload = None
        gc.collect()
        workload = workload_cls(files, work_dir)
        probe.block(NEAREST)
        t0 = time.perf_counter()
        workload.setup()
        setups.append((t0, time.perf_counter() - t0))
        probe.block(NEAREST)
        if timed is None:
            min_requests = _scaled(workload.min_requests, scale)
            if len(workload.timed) < min_requests:
                raise RuntimeError(f"request pool of {len(workload.timed)} is below {min_requests}")
            timed = _Timed(min_requests, probe)
        scorer = CountingScorer(workload.scorer)
        for request in workload.warmup:
            workload.run(scorer, request)
        until = -(-min_requests * (round_index + 1) // ROUNDS)
        timed.run(workload, scorer, seconds / ROUNDS, until)
    outputs, calls = timed.outputs, timed.calls
    raw = timed.latencies
    latencies = [probe.scaled(t0, d) for t0, d in zip(timed.starts, raw)]
    setup_times = [probe.scaled(t0, d) for t0, d in setups]
    requests = workload.timed[: len(outputs)]
    problems = _check_all(workload, workload.scorer, requests, outputs)
    fixed = slice(0, min_requests)
    tail = workload.tail_percentile
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": (len(outputs) / math.fsum(latencies), "requests/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (float(np.percentile(latencies, tail)) * 1e3, "ms"),
        "scorer_calls_per_request": (statistics.fmean(calls[fixed]), "calls"),
        "quality": (workload.quality(requests[fixed], outputs[fixed]), "ratio"),
        "ok_frac": (1.0 - len(problems) / len(outputs), "ratio"),
        "peak_rss_mb": (timed.peak_rss, "MB"),
    }
    return {
        "metrics": metrics,
        "attempted": len(outputs),
        "failed": len(problems),
        "problems": problems[:20],
        "details": {
            "host_speed": probe.host_speed(),
            "calibration_blocks": len(probe.durations),
            "raw_setup_s": statistics.median(d for _, d in setups),
            "raw_throughput_rps": len(outputs) / math.fsum(raw),
            "raw_latency_p50_ms": statistics.median(raw) * 1e3,
            "raw_latency_tail_ms": float(np.percentile(raw, tail)) * 1e3,
            "setup_s_samples": setup_times,
            "timed_seconds": timed.wall,
            "latency_tail_percentile": tail,
            "latency_samples": len(latencies),
            "failed_frac": len(problems) / len(outputs),
            "fixed_requests": min_requests,
            "output_sha256": _digest(workload, outputs[fixed]),
        },
    }


def traced_run(workload_cls, files, work_dir, seconds, scale) -> dict:
    """Set up once with spans, then run the same requests untraced and traced."""
    from tracing import GC_SPANS, TracedScorer, Tracer

    tracer = Tracer()
    workload = workload_cls(files, work_dir, tracer)
    with tracer.gc_spans():
        workload.setup()
        workload.probe_catalog_layers()
    requests = workload.timed[: _scaled(workload.traced_requests, scale)]

    # reference pass over the same requests with tracing off; each pass gets
    # a freshly loaded scorer, so both meet cold per-context rows
    workload.tracer = None
    warm = workload.load_scorer()
    for request in workload.warmup:
        workload.run(warm, request)
    scorer = workload.load_scorer()
    probe = SpeedProbe()
    untraced = []
    gc.collect()
    for request in requests:
        probe.due()
        t0 = time.perf_counter()
        workload.run(scorer, request)
        untraced.append((t0, time.perf_counter() - t0))
    probe.block(NEAREST)

    traced = TracedScorer(workload.load_scorer(), tracer)
    workload.tracer = tracer
    outputs, prefixes, traced_times = [], [], []
    gc.collect()
    with tracer.gc_spans():
        for index, request in enumerate(requests):
            probe.due()
            tracer.request = index
            t0 = time.perf_counter()
            span = tracer.begin("request")
            try:
                output = workload.run(traced, request)
            except Exception as exc:  # a failed request is counted, not fatal
                output = exc
            tracer.end(span)
            traced_times.append((t0, time.perf_counter() - t0))
            outputs.append(output)
            prefixes.append(traced.prefixes)
            traced.prefixes = []
        probe.block(NEAREST)
        tracer.request = -1
        with tracer.span("metrics.eval"):
            quality = workload.quality(requests, outputs)
    problems = _check_all(workload, traced.inner, requests, outputs)
    replay = workload.replay(requests, outputs, prefixes)

    # the passes run at different moments, so compare them in reference seconds
    untraced_s = math.fsum(probe.scaled(t0, d) for t0, d in untraced)
    traced_s = math.fsum(probe.scaled(t0, d) for t0, d in traced_times)
    totals = tracer.totals()
    total = lambda name: totals.get(name, {}).get("total_s", 0.0)  # noqa: E731
    decode = totals[workload.decode_span]
    in_decode = tracer.child_time_by_name(workload.decode_span)
    gc_spans = [s for s in tracer.spans if s[0] in GC_SPANS and s[4] >= 0]
    scorer_calls = sum(len(p) for p in prefixes)
    layer = {
        "cli.build_trie_s": (total("cli.build_trie"), "s"),
        "catalog.load_s": (total("catalog.load_catalog"), "s"),
        "trie.build_s": (total("trie.build_trie"), "s"),
        "trie.serialize_s": (total("trie.serialize"), "s"),
        "trie.deserialize_s": (total("trie.deserialize"), "s"),
        "trie.file_bytes": (workload.trie_bytes, "bytes"),
        "trie.lookup_us": (replay.pop("trie.lookup_us"), "us"),
        "vocab.encode_us": (replay.pop("vocab.encode_us"), "us"),
        "scoring.load_s": (total("scoring.load_table_scorer"), "s"),
        "scoring.self_s": (totals["scoring.next_token_logprobs"]["self_s"], "s"),
        "scoring.mean_prefix_len": (
            sum(len(p) for per in prefixes for p in per) / scorer_calls,
            "tokens",
        ),
        "decode.self_s": (decode["self_s"], "s"),
        "beam.candidates_per_call": (replay.pop("beam.candidates_per_call"), "candidates"),
        "beam.kept_ratio": (replay.pop("beam.kept_ratio"), "ratio"),
        "tasks.load_dataset_s": (total("tasks.load_dataset"), "s"),
        "metrics.eval_s": (total("metrics.eval"), "s"),
        "runtime.gc_gen2": (sum(s[0] == GC_SPANS[2] for s in gc_spans), "count"),
        "runtime.gc_pause_s": (sum(e - s for _, s, e, _, _ in gc_spans), "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    decode_layer = "markup" if workload.name == "link" else "beam"
    workload_layers = {f"{decode_layer}.self_s": decode["self_s"], **replay}
    if workload.name == "link":
        workload_layers["markup.render_us"] = total("markup.render_markup") / len(requests) * 1e6
    accounted = decode["self_s"] + sum(in_decode.values())
    return {
        "metrics": layer,
        "attempted": len(outputs),
        "failed": len(problems),
        "problems": problems[:20],
        "details": {
            "workload_layers": workload_layers,
            "traced_requests": len(requests),
            "scorer_calls": scorer_calls,
            "quality": quality,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "raw_untraced_s": math.fsum(d for _, d in untraced),
            "raw_traced_s": math.fsum(d for _, d in traced_times),
            "decode_span_s": decode["total_s"],
            "decode_children_s": in_decode,
            "decode_accounted_frac": accounted / decode["total_s"],
            "output_sha256": _digest(workload, outputs),
        },
        "tracer": tracer,
    }


def measure(
    workload_name: str, seed: int, seconds: float, trace: bool, out_dir: str, scale: float = 1.0
) -> dict:
    _import_engine()
    import gen
    from workloads import WORKLOADS

    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"work-{workload_name}-") as work_dir:
        argv = [sys.executable, gen.__file__, workload_name, str(seed), work_dir, "--scale", str(scale)]
        paths = [str(SRC), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        subprocess.run(argv, check=True, env=env)
        files = gen.files_for(workload_name, work_dir, scale)
        run = traced_run if trace else untraced_run
        result = run(WORKLOADS[workload_name], files, work_dir, seconds, scale)
    result["run"] = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    tracer = result.pop("tracer", None)
    stem = os.path.join(out_dir, f"{workload_name}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(stem + "-spans.json", {"run": result["run"]})
    return result


def summary_lines(result: dict) -> list[str]:
    run, details = result["run"], result["details"]
    lines = [f"workload={run['workload']} seed={run['seed']} trace={run['trace']}"]
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name:<26} {value:.6g} {unit}")
    for name, value in details.items():
        lines.append(f"  {name:<26} {value}")
    for problem in result["problems"]:
        lines.append(f"  FAILED {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("retrieve", "disambiguate", "link"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out"), help="directory for inputs and results")
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the workload (self-tests)")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out, args.scale)
    for line in summary_lines(result):
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
