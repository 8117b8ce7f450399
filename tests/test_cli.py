"""Command-line behavior: stats, formats, stream separation, exit codes."""

import importlib
import inspect
import json
import math
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import trie_decode
import trie_decode.cli
from trie_decode.catalog import _BLOCK_LINES, CatalogError
from trie_decode.cli import main
from trie_decode.markup import parse_markup
from trie_decode.metrics import ed_accuracy
from trie_decode.tasks import TASK_EXTRA_SPECIALS
from trie_decode.vocab import InputError, load_vocabulary

from helpers import (
    SHARED_PREFIX_NAMES,
    SOCCER_GOLD_MARKUP,
    SOCCER_PREDICTED_MARKUP,
    SOCCER_SOURCE,
    WORD_POOL,
    reference_catalog_build,
)

CLI_VOCAB_LINES = "English\nFrance\nlanguage\nliterature\n"


@pytest.fixture
def cli_files(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(CLI_VOCAB_LINES)
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("\n".join(SHARED_PREFIX_NAMES) + "\n")
    trie = tmp_path / "names.trie"
    return {"vocab": str(vocab), "catalog": str(catalog), "trie": str(trie)}


def build(cli_files):
    code = main(
        ["build-trie", cli_files["catalog"], "--vocab", cli_files["vocab"], "--out", cli_files["trie"]]
    )
    assert code == 0


class TestBuildTrie:
    def test_stats_line(self, cli_files, capsys):
        build(cli_files)
        out = capsys.readouterr().out
        assert "leaves=3" in out
        assert "internal_nodes=2" in out
        assert "bytes=" in out

    def test_rebuild_is_byte_identical(self, cli_files, capsys):
        build(cli_files)
        first = Path(cli_files["trie"]).read_bytes()
        build(cli_files)
        assert Path(cli_files["trie"]).read_bytes() == first

    def test_duplicates_are_counted_and_merged(self, cli_files, tmp_path, capsys):
        # "English" is a prefix of "English language"; each name repeats at most twice more
        catalog = tmp_path / "repeats.txt"
        catalog.write_text(
            "English language\n\nFrance\nEnglish\n  English language  \n \nFrance\n"
            "English language\nEnglish literature\nEnglish\n"
        )
        code = main(["build-trie", str(catalog), "--vocab", cli_files["vocab"], "--out", cli_files["trie"]])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "skipped 4 duplicate name(s)\n"
        assert captured.out.startswith("leaves=4 ")
        deduplicated = tmp_path / "deduplicated.txt"
        deduplicated.write_text("English language\nFrance\nEnglish\nEnglish literature\n")
        reference = tmp_path / "deduplicated.trie"
        code = main(["build-trie", str(deduplicated), "--vocab", cli_files["vocab"], "--out", str(reference)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert Path(cli_files["trie"]).read_bytes() == reference.read_bytes()


class TestBuildTrieBlocks:
    """``build-trie``'s block compile against the per-line rule it replaced.

    Seeded catalogs of more than three blocks, with blank, whitespace-only,
    padded and repeated lines, and one bad line of each kind at line 1, on
    the last row of the first block, on the first row of the next, and on
    the last line: exit status, stdout, stderr and trie file all match.
    """

    # "x(y" is a token, so the name "x(y" is every word found, and still refused
    VOCAB = (*WORD_POOL, "x(y")
    BAD_NAMES = {
        "double-space": "alpha  beta",
        "tab": "alpha\tbeta gamma",
        "bracket": "alpha [beta",
        "paren": "delta(",
        "file-separator": "alpha\x1cbeta",
        "line-separator": "mu\u2028eta",
        "no-break-space": "alpha\u00a0beta",
        "unknown-word": "alphabeta",
        "unknown-character": "iota kappa\u00e9",
        "token-holding-a-paren": "x(y",
    }

    @staticmethod
    def random_lines(rng):
        """About 3,600 lines: names of 1-4 pool words, some padded or repeated, among blank lines."""
        lines, names = [], []
        while len(names) < 3 * _BLOCK_LINES + 300:
            roll = rng.random()
            if roll < 0.05:
                lines.append(str(rng.choice(["", " ", "\t", "  \t "])))
                continue
            if roll < 0.15 and names:
                name = names[int(rng.integers(len(names)))]
            else:
                name = " ".join(rng.choice(WORD_POOL, size=int(rng.integers(1, 5))))
            names.append(name)
            lines.append(str(rng.choice(["", " ", "\t", "\u00a0"])) + name + str(rng.choice(["", "  ", "\t"])))
        return lines

    @staticmethod
    def cli(catalog, vocab, out, capsys):
        code = main(["build-trie", str(catalog), "--vocab", str(vocab), "--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    @staticmethod
    def reference(catalog, vocab_path):
        vocab = load_vocabulary(str(vocab_path), extra_specials=TASK_EXTRA_SPECIALS)
        try:
            trie, names = reference_catalog_build(str(catalog), vocab)
        except CatalogError as exc:
            return 1, "", f"error: {catalog}:{exc.line}: {str(exc).removeprefix(f'line {exc.line}: ')}\n", None
        blob = trie.serialize()
        skipped = f"skipped {names - trie.leaf_count} duplicate name(s)\n" if names > trie.leaf_count else ""
        stats = f"leaves={trie.leaf_count} internal_nodes={trie.internal_node_count} bytes={len(blob)}\n"
        return 0, stats, skipped, blob

    def assert_same(self, lines, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(self.VOCAB) + "\n", encoding="utf-8")
        catalog = tmp_path / "catalog.txt"
        catalog.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "names.trie"
        if out.exists():
            out.unlink()
        expected = self.reference(catalog, vocab)
        assert self.cli(catalog, vocab, out, capsys) == expected
        return expected

    def test_a_clean_catalog_builds_the_reference_trie(self, tmp_path, capsys):
        lines = self.random_lines(np.random.default_rng(73))
        code, stats, skipped, _ = self.assert_same(lines, tmp_path, capsys)
        assert code == 0 and stats.startswith("leaves=") and skipped.startswith("skipped ")

    @pytest.mark.parametrize("kind", BAD_NAMES)
    def test_a_bad_line_fails_as_the_reference(self, tmp_path, capsys, kind):
        lines = self.random_lines(np.random.default_rng(sorted(self.BAD_NAMES).index(kind)))
        for at in (0, _BLOCK_LINES - 1, _BLOCK_LINES, len(lines) - 1):  # the ends of the first block of lines
            bad = list(lines)
            bad[at] = self.BAD_NAMES[kind]
            code, _, err, _ = self.assert_same(bad, tmp_path, capsys)
            assert code == 1 and err.startswith(f"error: {tmp_path / 'catalog.txt'}:{at + 1}: ")


class TestRetrieve:
    def test_oracle_with_one_beam_returns_target(self, cli_files, capsys):
        build(cli_files)
        capsys.readouterr()
        code = main(
            [
                "retrieve",
                "--query", "which country",
                "--vocab", cli_files["vocab"],
                "--trie", cli_files["trie"],
                "--scorer", "oracle:France",
                "--beams", "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        rank, name, _score = lines[0].split("\t")
        assert (rank, name) == ("1", "France")

    def test_name_deeper_than_the_recursion_limit(self, cli_files, capsys):
        deep = " ".join(["English", "language"] * 600)
        with open(cli_files["catalog"], "a", encoding="utf-8") as fh:
            fh.write(deep + "\n")
        build(cli_files)
        capsys.readouterr()
        code = main(
            [
                "retrieve",
                "--query", "q",
                "--vocab", cli_files["vocab"],
                "--trie", cli_files["trie"],
                "--scorer", f"oracle:{deep}",
                "--beams", "1",
                "--max-steps", "1201",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in lines] == [deep]

    def test_normalization_flag_changes_score_column_only(self, cli_files, capsys):
        build(cli_files)
        capsys.readouterr()
        base = [
            "retrieve",
            "--query", "q",
            "--vocab", cli_files["vocab"],
            "--trie", cli_files["trie"],
            "--scorer", "uniform",
            "--beams", "3",
            "--format", "structured",
        ]
        assert main(base) == 0
        normalized = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert main(base + ["--no-length-normalize"]) == 0
        raw = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        # same names returned either way, with identical raw scores per name
        raw_by_name = {r["name"]: r["raw_logprob"] for r in raw}
        for record in normalized:
            assert record["name"] in set(SHARED_PREFIX_NAMES)
            assert raw_by_name[record["name"]] == record["raw_logprob"]
        # normalization only rewrites the normalized_score column
        assert any(
            r["normalized_score"] != n["normalized_score"] for r, n in zip(raw, normalized)
        )

    def test_structured_output_has_sorted_keys(self, cli_files, capsys):
        build(cli_files)
        capsys.readouterr()
        main(
            [
                "retrieve",
                "--query", "q",
                "--vocab", cli_files["vocab"],
                "--trie", cli_files["trie"],
                "--scorer", "uniform",
                "--format", "structured",
            ]
        )
        line = capsys.readouterr().out.strip().splitlines()[0]
        assert list(json.loads(line)) == sorted(json.loads(line))


class TestLinkAndEval:
    def _write_el_fixture(self, tmp_path):
        words = sorted(
            {w for w in SOCCER_SOURCE.replace(".", " .").replace(":", " :").split() if w}
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(words) + "\n")
        dataset = tmp_path / "el.tsv"
        dataset.write_text(f"doc1\t{SOCCER_SOURCE}\t{SOCCER_GOLD_MARKUP}\n")
        predictions = tmp_path / "pred.jsonl"
        spans = parse_markup(SOCCER_PREDICTED_MARKUP, SOCCER_SOURCE)
        payload = {
            "id": "doc1",
            "markup": SOCCER_PREDICTED_MARKUP,
            "spans": [[s.start, s.length, s.entity] for s in spans],
            "diagnostics": [],
        }
        predictions.write_text(json.dumps(payload, sort_keys=True) + "\n")
        return str(vocab), str(dataset), str(predictions)

    def test_eval_predictions_prints_rounded_and_exact(self, tmp_path, capsys):
        vocab, dataset, predictions = self._write_el_fixture(tmp_path)
        code = main(
            [
                "eval",
                "--mode", "el",
                "--dataset", dataset,
                "--vocab", vocab,
                "--predictions", predictions,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "micro_precision=0.80" in out
        assert "micro_recall=1.00" in out
        assert "micro_f1=0.89" in out
        code = main(
            [
                "eval",
                "--mode", "el",
                "--dataset", dataset,
                "--vocab", vocab,
                "--predictions", predictions,
                "--format", "structured",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["micro_precision"] == 0.8
        assert payload["metrics"]["micro_f1"] == 8 / 9
        assert payload["counts"] == {"tp": 4, "fp": 1, "fn": 0}

    def test_bad_prediction_record_names_its_file_and_line(self, tmp_path, capsys):
        # a record too deep for the JSON decoder is a diagnostic too, not a RecursionError traceback
        for record, reason in (
            ('{"id": "doc2"}', r"\('spans'\)"),
            ("[" * 200_000 + "]" * 200_000, r"\(maximum recursion depth exceeded[^\n]*\)"),
        ):
            vocab, dataset, predictions = self._write_el_fixture(tmp_path)
            with open(predictions, "a", encoding="utf-8") as fh:
                fh.write(f"\n{record}\n")
            argv = ["eval", "--mode", "el", "--dataset", dataset, "--vocab", vocab]
            assert main(argv + ["--predictions", predictions]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(rf"error: {re.escape(predictions)}:3: bad prediction record {reason}\n", captured.err)

    def test_link_structured_roundtrips_through_eval(self, cli_files, tmp_path, capsys):
        # the oracle copies the source; linking yields zero spans, and eval
        # of that dump against a zero-span gold gives perfect scores
        build(cli_files)
        capsys.readouterr()
        dataset = tmp_path / "el.tsv"
        dataset.write_text("d1\tEnglish language\tEnglish language\n")
        out_path = tmp_path / "pred.jsonl"
        code = main(
            [
                "link",
                "--dataset", str(dataset),
                "--vocab", cli_files["vocab"],
                "--trie", cli_files["trie"],
                "--scorer", "oracle:English language",
                "--format", "structured",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        code = main(
            [
                "eval",
                "--mode", "el",
                "--dataset", str(dataset),
                "--vocab", cli_files["vocab"],
                "--predictions", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "micro_f1=1.00" in out


class TestDisambiguateCommand:
    def test_candidate_restricted_ranking(self, cli_files, tmp_path, capsys):
        build(cli_files)
        capsys.readouterr()
        dataset = tmp_path / "ed.tsv"
        dataset.write_text("m1\tlanguage France language\t9\t6\tFrance\tFrance\n")
        code = main(
            [
                "disambiguate",
                "--dataset", str(dataset),
                "--vocab", cli_files["vocab"],
                "--scorer", "uniform",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[:3] == ["m1", "1", "France"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_ranked_names_are_the_candidates_as_given(self, cli_files, tmp_path, capsys, jobs):
        # no token spells "Café" or "New  York", and a doubled space does not read back; "in" is no
        # token either, so m3's context takes the loader's general span path
        dataset = tmp_path / "ed.tsv"
        dataset.write_text(
            "m1\tlanguage France language\t9\t6\tFrance\tCafé|New  York|France\n"
            "m2\tFrance language\t7\t8\tlanguage\tCafé|English  language\n"
            "m3\tin France\t3\t6\tFrance\tCafé|France\n",
            encoding="utf-8",
        )
        argv = ["disambiguate", "--dataset", str(dataset), "--vocab", cli_files["vocab"]]
        assert main(argv + ["--scorer", "uniform", "--jobs", jobs]) == 0
        out = capsys.readouterr().out
        names: dict[str, set[str]] = {}
        for line in out.splitlines():
            instance_id, _, name = line.split("\t")[:3]
            names.setdefault(instance_id, set()).add(name)
        assert names == {
            "m1": {"Café", "New  York", "France"},
            "m2": {"Café", "English  language"},
            "m3": {"Café", "France"},
        }
        assert "<unk>" not in out

    def test_structured_ranked_list_with_log_likelihoods(self, cli_files, tmp_path, capsys):
        build(cli_files)
        capsys.readouterr()
        candidates = "France|English language|English literature"
        dataset = tmp_path / "ed.tsv"
        dataset.write_text(f"m1\tlanguage France language\t9\t6\tFrance\t{candidates}\n")
        code = main(
            [
                "disambiguate",
                "--dataset", str(dataset),
                "--vocab", cli_files["vocab"],
                "--scorer", "uniform",
                "--format", "structured",
            ]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["id"] == "m1" and record["gold"] == "France"
        assert [p["rank"] for p in record["predictions"]] == [1, 2, 3]
        for prediction in record["predictions"]:
            assert prediction["raw_logprob"] <= 0.0
            assert set(prediction) == {"rank", "name", "raw_logprob", "normalized_score"}

    def test_a_line_separator_inside_a_context_is_whitespace(self, cli_files, tmp_path, capsys):
        dataset = tmp_path / "ed.tsv"
        argv = ["disambiguate", "--dataset", str(dataset), "--vocab", cli_files["vocab"], "--scorer", "uniform"]
        # "language France" is whole tokens, which the loader maps by one split; "in" is no token
        for first_word in ("language", "in"):
            outputs = []
            for space in (" ", "\u2028"):
                line = f"m1\t{first_word}{space}France\t{len(first_word) + 1}\t6\tFrance\tFrance|English language\n"
                dataset.write_text(line, encoding="utf-8")
                assert main(argv + ["--format", "structured"]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1] and outputs[0]


class TestEvalPipelines:
    @pytest.mark.parametrize(
        "mode, line",
        [
            ("ed", "m1\tlanguage France language\t9\t6\tFrance\n"),
            ("dr", "q1\twhich country\tFrance\n"),
        ],
        ids=["ed", "dr"],
    )
    def test_catalog_name_longer_than_max_steps_fails_loud(
        self, cli_files, tmp_path, capsys, mode, line
    ):
        with open(cli_files["catalog"], "a", encoding="utf-8") as fh:
            fh.write(" ".join(["France"] * 15) + "\n")
        build(cli_files)
        capsys.readouterr()
        dataset = tmp_path / f"{mode}.tsv"
        dataset.write_text(line)
        common = ["--dataset", str(dataset), "--vocab", cli_files["vocab"], "--trie", cli_files["trie"]]
        code = main(["eval", "--mode", mode, *common, "--scorer", "uniform"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: max_steps 15 cannot finish the longest name (15 tokens)")
        # one more step lets the longest name finish
        assert main(["eval", "--mode", mode, *common, "--scorer", "uniform", "--max-steps", "16"]) == 0

    def test_dr_mode_mean_r_precision(self, cli_files, tmp_path, capsys):
        build(cli_files)
        capsys.readouterr()
        dataset = tmp_path / "dr.tsv"
        # uniform + normalization ranks by token order: the lex-first names
        # win, so q1 misses its gold and q2 hits both of its gold names
        dataset.write_text(
            "q1\twhich country\tFrance\n"
            "q2\tlanguage query\tEnglish language|English literature\n"
        )
        code = main(
            [
                "eval",
                "--mode", "dr",
                "--dataset", str(dataset),
                "--vocab", cli_files["vocab"],
                "--trie", cli_files["trie"],
                "--scorer", "uniform",
            ]
        )
        assert code == 0
        assert "r_precision_mean=0.50" in capsys.readouterr().out

    def test_el_pipeline_mode_runs_linker(self, cli_files, tmp_path, capsys):
        build(cli_files)
        capsys.readouterr()
        dataset = tmp_path / "el.tsv"
        dataset.write_text("d1\tFrance\tFrance\n")
        code = main(
            [
                "eval",
                "--mode", "el",
                "--dataset", str(dataset),
                "--vocab", cli_files["vocab"],
                "--trie", cli_files["trie"],
                "--scorer", "oracle:France",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "micro_f1=1.00" in out


class TestEdEvalPaths:
    @pytest.mark.parametrize("max_steps", ["1", "2"])
    def test_empty_ranking_is_a_miss_in_both_paths(self, cli_files, tmp_path, capsys, max_steps):
        # within two steps only the one-token name can finish, so m2's
        # ranking is empty; within one step every ranking is empty
        dataset = tmp_path / "ed.tsv"
        dataset.write_text(
            "m1\tlanguage France language\t9\t6\tFrance\tFrance|English language\n"
            "m2\tFrance language\t7\t8\tEnglish language\tEnglish language|English literature\n"
        )
        dump = tmp_path / "ed.jsonl"
        common = ["--dataset", str(dataset), "--vocab", cli_files["vocab"]]
        decode = ["--scorer", "uniform", "--max-steps", max_steps]
        structured = ["--format", "structured"]
        assert main(["disambiguate", *common, *decode, *structured, "--out", str(dump)]) == 0
        assert main(["eval", "--mode", "ed", *common, *decode, *structured]) == 0
        in_process = capsys.readouterr().out
        assert main(["eval", "--mode", "ed", *common, "--predictions", str(dump), *structured]) == 0
        assert capsys.readouterr().out == in_process
        tp = 1 if max_steps == "2" else 0
        assert json.loads(in_process)["counts"] == {"tp": tp, "fp": 0, "fn": 2 - tp}
        # the accuracy, read off the report's recall, is top-1 accuracy over the dump
        records = [json.loads(line) for line in dump.read_text().splitlines()]
        top1 = [r["predictions"][0]["name"] if r["predictions"] else "" for r in records]
        metrics = json.loads(in_process)["metrics"]
        assert metrics["accuracy"] == metrics["micro_recall"] == ed_accuracy([r["gold"] for r in records], top1)

    def test_accuracy_per_match_type_in_both_paths(self, cli_files, tmp_path, capsys):
        # uniform ties rank the lowest token ids first: m1 (exact) and m3
        # (no shared word) are right, m2 (partial) picks "English language"
        dataset = tmp_path / "ed.tsv"
        dataset.write_text(
            "m1\tFrance\t0\t6\tFrance\tFrance|language\n"
            "m2\tEnglish literature\t0\t7\tEnglish literature\tEnglish language|English literature\n"
            "m3\tlanguage\t0\t8\tFrance\tFrance|literature\n"
        )
        dump = tmp_path / "ed.jsonl"
        files = ["--dataset", str(dataset), "--vocab", cli_files["vocab"]]
        common = ["eval", "--mode", "ed", *files]
        structured = ["--format", "structured", "--out", str(dump)]
        assert main(["disambiguate", *files, "--scorer", "uniform", *structured]) == 0
        for fmt in ("text", "structured"):
            assert main([*common, "--scorer", "uniform", "--format", fmt]) == 0
            in_process = capsys.readouterr().out
            assert main([*common, "--predictions", str(dump), "--format", fmt]) == 0
            assert capsys.readouterr().out == in_process
            if fmt == "text":
                assert in_process.splitlines()[-3:] == [
                    "accuracy_exact=1.00", "accuracy_partial=0.00", "accuracy_none=1.00",
                ]
            else:
                assert json.loads(in_process)["by_match"] == {
                    "exact": {"instances": 1, "correct": 1, "accuracy": 1.0},
                    "partial": {"instances": 1, "correct": 0, "accuracy": 0.0},
                    "none": {"instances": 1, "correct": 1, "accuracy": 1.0},
                }
        # a type with no instances prints no line
        dataset.write_text("m1\tFrance\t0\t6\tFrance\tFrance|language\n")
        assert main([*common, "--scorer", "uniform"]) == 0
        assert [l for l in capsys.readouterr().out.splitlines() if l.startswith("accuracy_")] == [
            "accuracy_exact=1.00"
        ]


class TestDatasetRunner:
    """``disambiguate``, ``link --dataset`` and ``eval`` share one dataset runner."""

    @pytest.fixture
    def datasets(self, cli_files, tmp_path, capsys):
        build(cli_files)
        capsys.readouterr()
        ed = tmp_path / "ed.tsv"
        ed.write_text(
            "m3\tFrance language\t7\t8\tlanguage\tlanguage|France\n"
            "m1\tlanguage France language\t9\t6\tFrance\tFrance|English language\n"
            "m2\tFrance language\t7\t8\tEnglish language\tEnglish language|English literature\n"
        )
        dr = tmp_path / "dr.tsv"
        dr.write_text("q2\tlanguage query\tEnglish language\nq1\twhich country\tFrance\n")
        el = tmp_path / "el.tsv"
        el.write_text(
            "d2\tEnglish language France\t[English language](English language) France\n"
            "d1\tFrance\t[France](France)\n"
            "d3\tliterature\tliterature\n"
        )
        paths = {"ed": str(ed), "dr": str(dr), "el": str(el)}
        paths.update({f"{mode}-dump": str(tmp_path / f"{mode}.jsonl") for mode in ("ed", "el")})
        for mode in ("ed", "el"):
            self._dump(cli_files, paths, mode)
        return paths

    def _dump(self, cli_files, datasets, mode):
        """Dump what ``eval --mode <mode>`` decodes, with its decoder options."""
        command = {"ed": "disambiguate", "el": "link"}[mode]
        options = self._argv(cli_files, datasets, f"eval-{mode}")[3:]
        assert main([command, *options, "--format", "structured", "--out", datasets[f"{mode}-dump"]]) == 0

    def _argv(self, cli_files, datasets, command):
        common = ["--vocab", cli_files["vocab"], "--trie", cli_files["trie"]]
        dump = ["--vocab", cli_files["vocab"], "--predictions"]
        return {
            "eval-ed-dump": ["eval", "--mode", "ed", "--dataset", datasets["ed"], *dump, datasets["ed-dump"]],
            "eval-el-dump": ["eval", "--mode", "el", "--dataset", datasets["el"], *dump, datasets["el-dump"]],
            "disambiguate": ["disambiguate", "--dataset", datasets["ed"], *common, "--scorer", "uniform"],
            "link": ["link", "--dataset", datasets["el"], *common, "--scorer", "uniform", "--max-steps", "32"],
            "retrieve": ["retrieve", "--query", "which country", *common, "--scorer", "uniform"],
            "eval-ed": ["eval", "--mode", "ed", "--dataset", datasets["ed"], *common, "--scorer", "uniform"],
            "eval-dr": ["eval", "--mode", "dr", "--dataset", datasets["dr"], *common, "--scorer", "uniform"],
            "eval-el": [
                "eval", "--mode", "el", "--dataset", datasets["el"], *common,
                "--scorer", "oracle:English language", "--max-steps", "32",
            ],
        }[command]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("command", ["disambiguate", "link", "eval-ed", "eval-dr", "eval-el"])
    def test_stdout_identical_at_one_and_two_jobs(self, cli_files, datasets, capsys, command, fmt):
        argv = self._argv(cli_files, datasets, command) + ["--format", fmt]
        assert main(argv + ["--jobs", "1"]) == 0
        sequential = capsys.readouterr()
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr()
        assert sequential.out and parallel.out == sequential.out
        assert parallel.err == sequential.err

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize(
        "mode, repeated_row",
        [
            ("ed", "m1\tFrance language\t0\t6\tFrance\tFrance|language\n"),
            ("el", "d1\tEnglish language France\t[English language](English language) France\n"),
        ],
        ids=["ed", "el"],
    )
    def test_eval_of_a_dump_prints_the_in_process_report(
        self, cli_files, datasets, capsys, mode, repeated_row, fmt
    ):
        # the k-th dump record of a repeated id pairs with the k-th row of that id
        with open(datasets[mode], "a", encoding="utf-8") as fh:
            fh.write(repeated_row)
        self._dump(cli_files, datasets, mode)
        assert main(self._argv(cli_files, datasets, f"eval-{mode}") + ["--format", fmt]) == 0
        in_process = capsys.readouterr().out
        assert main(self._argv(cli_files, datasets, f"eval-{mode}-dump") + ["--format", fmt]) == 0
        assert capsys.readouterr().out == in_process

    def test_eval_of_a_dump_reads_any_json_number_as_a_score(self, cli_files, datasets, capsys):
        # json.dumps writes -inf as -Infinity, which loads back as a float
        assert main(self._argv(cli_files, datasets, "eval-ed")) == 0
        in_process = capsys.readouterr().out
        dump = datasets["ed-dump"]
        with open(dump, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        records[0]["predictions"][0].update(raw_logprob=-math.inf, normalized_score=-3)
        with open(dump, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)
        assert "-Infinity" in Path(dump).read_text(encoding="utf-8")
        assert main(self._argv(cli_files, datasets, "eval-ed-dump")) == 0
        assert capsys.readouterr().out == in_process

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_link_text_prints_the_dataset_document_of_its_source(self, cli_files, datasets, capsys, fmt):
        options = self._argv(cli_files, datasets, "link")[3:] + ["--format", fmt]
        assert main(["link", "--dataset", datasets["el"], *options]) == 0
        dataset = capsys.readouterr()
        assert main(["link", "--text", "English language France", *options]) == 0
        text = capsys.readouterr()
        row = dataset.out.splitlines()[1]  # d2, in id order
        if fmt == "text":
            assert row.startswith("d2\t") and text.out == row.removeprefix("d2\t") + "\n"
        else:
            assert json.loads(row)["id"] == "d2" and json.loads(text.out) == {**json.loads(row), "id": ""}
        assert text.err.splitlines() == [
            line.removeprefix("d2: ") for line in dataset.err.splitlines() if line.startswith("d2: ")
        ]

    @pytest.mark.parametrize(
        "command, dataset, bad_line",
        [
            ("disambiguate", "ed", "m4\tFrance\t0\t6\n"),
            ("link", "el", "d0\tFrance\t[France(France)\n"),
            ("eval-ed", "ed", "m4\tFrance\t0\t6\n"),
            ("eval-el-dump", "el", "d0\tFrance\t[France(France)\n"),
        ],
        ids=["disambiguate", "link", "eval-ed", "eval-el-dump"],
    )
    def test_failing_command_leaves_out_file_untouched(
        self, cli_files, datasets, tmp_path, capsys, command, dataset, bad_line
    ):
        with open(datasets[dataset], "a", encoding="utf-8") as fh:
            fh.write(bad_line)
        out = tmp_path / "earlier.txt"
        out.write_bytes(b"an earlier run's output\n")
        assert main(self._argv(cli_files, datasets, command) + ["--out", str(out)]) == 1
        assert out.read_bytes() == b"an earlier run's output\n"

    @pytest.mark.parametrize("command", ["disambiguate", "link", "eval-ed", "retrieve"])
    def test_out_streams_into_a_file_beside_it_that_replaces_it_on_exit_0(
        self, cli_files, datasets, tmp_path, capsys, monkeypatch, command
    ):
        argv = self._argv(cli_files, datasets, command) + ["--format", "structured"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        folder = tmp_path / "results"
        folder.mkdir()
        out = folder / "out.jsonl"
        out.write_bytes(b"an earlier run's output\n")
        name = f"cmd_{argv[0]}"
        run, written = getattr(trie_decode.cli, name), []

        def watched(args, out_file):
            status = run(args, out_file)
            out_file.flush()  # what the command wrote is in a file, not in memory
            written.append({path.name: path.read_text(encoding="utf-8") for path in folder.iterdir()})
            return status

        monkeypatch.setattr(trie_decode.cli, name, watched)
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        [files] = written
        assert files.pop("out.jsonl") == "an earlier run's output\n"
        [(name, text)] = files.items()
        assert name.startswith(".out.jsonl.") and name.endswith(".tmp") and text == printed
        assert [path.name for path in folder.iterdir()] == ["out.jsonl"]
        assert out.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("where", ["missing-folder", "folder"])
    def test_an_unwritable_out_is_one_error_line_naming_it(self, cli_files, datasets, tmp_path, capsys, where):
        out = tmp_path / "missing" / "out.txt" if where == "missing-folder" else tmp_path
        before = sorted(os.listdir(tmp_path))
        assert main(self._argv(cli_files, datasets, "disambiguate") + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: [Errno ") and line.endswith(f": {str(out)!r}")
        assert sorted(os.listdir(tmp_path)) == before

    def test_out_through_a_symlink_writes_its_target_and_keeps_the_target_mode(
        self, cli_files, datasets, tmp_path, capsys
    ):
        argv = self._argv(cli_files, datasets, "link")
        assert main(argv) == 0
        printed = capsys.readouterr().out
        target = tmp_path / "target.txt"
        target.write_text("an earlier run's output\n")
        target.chmod(0o640)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert main(argv + ["--out", str(link)]) == 0
        assert link.is_symlink() and target.read_text(encoding="utf-8") == printed
        assert target.stat().st_mode & 0o777 == 0o640

    def test_out_to_a_target_that_is_no_file_is_written_in_place(self, cli_files, datasets, tmp_path, capsys):
        assert main(self._argv(cli_files, datasets, "link") + ["--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)
        assert not any(name.startswith(".null.") for name in os.listdir(os.path.dirname(os.devnull)))

    def test_outcomes_are_printed_in_id_order(self, cli_files, datasets, capsys):
        assert main(self._argv(cli_files, datasets, "link") + ["--jobs", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[0] for line in lines] == ["d1", "d2", "d3"]

    def test_eval_el_prints_document_diagnostics(self, cli_files, datasets, capsys):
        argv = self._argv(cli_files, datasets, "eval-el")
        argv[argv.index("--max-steps") + 1] = "1"
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "micro_f1=0.00" in captured.out
        assert captured.err.splitlines() == [
            f"{doc_id}: no finished hypothesis within max_steps=1" for doc_id in ("d1", "d2", "d3")
        ]

    @pytest.mark.parametrize("command", ["disambiguate", "eval-ed"])
    def test_candidate_too_long_to_finish_is_named_on_stderr(
        self, cli_files, datasets, capsys, command
    ):
        argv = self._argv(cli_files, datasets, command) + ["--max-steps", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [
            "m1: candidate 'English language' (2 tokens) cannot finish within max_steps=2",
            "m2: candidate 'English language' (2 tokens) cannot finish within max_steps=2",
            "m2: candidate 'English literature' (2 tokens) cannot finish within max_steps=2",
        ]

    def test_two_jobs_without_fork_exit_1(self, cli_files, datasets, capsys, monkeypatch):
        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr("multiprocessing.get_context", no_fork)
        argv = self._argv(cli_files, datasets, "eval-ed")
        assert main(argv + ["--jobs", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: jobs > 1 needs the fork start method")
        assert main(argv + ["--jobs", "1"]) == 0


class TestTableScorerFile:
    def test_trained_scorer_round_trips_through_the_cli(self, cli_files, tmp_path, capsys):
        from trie_decode.scoring import save_table_scorer, train_table_scorer
        from trie_decode.tasks import TASK_EXTRA_SPECIALS
        from trie_decode.vocab import EOS, encode, load_vocabulary

        build(cli_files)
        capsys.readouterr()
        vocab = load_vocabulary(cli_files["vocab"], extra_specials=TASK_EXTRA_SPECIALS)
        scorer = train_table_scorer(
            [((), tuple(encode("France", vocab)) + (EOS,))], alpha=0.1, vocab_size=vocab.size
        )
        scorer_path = tmp_path / "table.tsv"
        save_table_scorer(scorer, str(scorer_path))
        code = main(
            [
                "retrieve",
                "--query", "q",
                "--vocab", cli_files["vocab"],
                "--trie", cli_files["trie"],
                "--scorer", str(scorer_path),
                "--beams", "3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[1] == "France"  # the trained name wins


class TestErrorHandling:

    def test_every_package_error_derives_from_input_error_and_is_exported(self):
        classes = {
            cls
            for info in pkgutil.iter_modules(trie_decode.__path__)
            for _, cls in inspect.getmembers(importlib.import_module(f"trie_decode.{info.name}"), inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__.startswith("trie_decode.")
        }
        assert InputError in classes and len(classes) > 1
        for cls in classes:
            assert issubclass(cls, InputError), cls
            assert getattr(trie_decode, cls.__name__, None) is cls, cls

    def test_an_error_that_is_no_input_error_keeps_its_traceback(self, cli_files, capsys, monkeypatch):
        build(cli_files)
        capsys.readouterr()

        def broken_retrieve(*args, **kwargs):
            raise ValueError("a bug, not a bad input")

        monkeypatch.setattr(trie_decode.cli, "retrieve", broken_retrieve)
        argv = ["retrieve", "--query", "q", "--vocab", cli_files["vocab"], "--trie", cli_files["trie"],
                "--scorer", "uniform"]
        with pytest.raises(ValueError, match="a bug, not a bad input") as caught:
            main(argv)
        assert not isinstance(caught.value, InputError)
        assert "error:" not in capsys.readouterr().err

