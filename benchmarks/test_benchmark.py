"""Self-tests for the benchmark: every named metric appears, and corrupted
outputs are counted as failures instead of passing silently.

Runs at a tiny ``--scale``, so the whole file takes a few seconds.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_engine()

import gen  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from trie_decode import MarkupDocument, RankedResult  # noqa: E402

SCALE = 0.01
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv + ["--out", str(tmp_path), "--scale", str(SCALE)]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in expected] == list(result["metrics"])
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert os.listdir(tmp_path) != []


def test_same_seed_repeats_quality_calls_and_digest(tmp_path):
    first, second = (
        run.measure("retrieve", 5, 0.1, False, str(tmp_path / name), SCALE) for name in "ab"
    )
    for key in ("quality", "scorer_calls_per_request"):
        assert first["metrics"][key] == second["metrics"][key]
    assert first["details"]["output_sha256"] == second["details"]["output_sha256"]


class _CorruptRankings(workloads.Retrieve):
    """Every other ranking gets a first score that no longer equals its sequence score."""

    corrupted: list[str] = []

    def run(self, scorer, request):
        ranking = super().run(scorer, request)
        if int(request[0][1:]) % 2:
            return ranking
        self.corrupted.append(request[0])
        first = ranking[0]._replace(raw_logprob=ranking[0].raw_logprob + 1e-9)
        return RankedResult((first,) + ranking.entries[1:])


class _CorruptMarkup(workloads.Link):
    """Documents with spans lose their last span but keep the full markup."""

    corrupted: list[str] = []

    def run(self, scorer, request):
        doc, markup = super().run(scorer, request)
        if not doc.spans:
            return doc, markup
        self.corrupted.append(request[0])
        return MarkupDocument(doc.source, doc.spans[:-1], doc.diagnostics), markup


def test_speed_probe_scales_by_the_nearest_blocks_and_spares_the_collector():
    probe = speed.SpeedProbe()
    counts = gc.get_count()
    probe.block(10)
    assert gc.get_count() == counts
    # blocks 0-9 start at 0..9 s; slow the host by 2x from block 5 on
    probe.starts = [float(i) for i in range(10)]
    probe.durations = [speed.REFERENCE_S] * 5 + [2 * speed.REFERENCE_S] * 5
    assert probe.scaled(0.5, 0.2) == pytest.approx(0.2)
    assert probe.scaled(8.0, 0.2) == pytest.approx(0.1)
    assert probe.host_speed() == pytest.approx(2 / 3)


@pytest.mark.parametrize("workload_cls", [_CorruptRankings, _CorruptMarkup])
def test_corrupted_outputs_count_in_failed_frac(workload_cls, tmp_path):
    files = gen.generate(workload_cls.name, 7, str(tmp_path), SCALE)
    workload_cls.corrupted.clear()
    result = run.untraced_run(workload_cls, files, str(tmp_path), 0.1, SCALE)
    # warm-up requests run through the same code but are never checked
    corrupted = sum(int(rid[1:]) >= files.warmup for rid in workload_cls.corrupted)
    assert corrupted > 0
    assert result["failed"] == corrupted
    assert result["metrics"]["ok_frac"][0] == pytest.approx(1 - corrupted / result["attempted"])
    assert result["details"]["failed_frac"] == pytest.approx(corrupted / result["attempted"])
