"""The command line's contract on generated files: one table row per check.

Each row of ``ROWS`` is an argv, run in process through ``cli.main`` over the files that ``benchmarks/gen.py
{link,disambiguate,retrieve} 1 --scale 0.02`` writes, with its exit status and exact stderr.  Its output is the
file its ``--out`` names, or else its stdout.  A row that exits 1 prints nothing and leaves no output.  A row that
exits 0 leaves a non-empty output, equal byte for byte to row ``same``'s where it names one; with ``--out``, it
prints ``printed`` and leaves no file beside its output.  In an argv, ``{out}`` is the row's own output path,
``{<row id>}`` the output path of that row, run first, and any other ``{name}`` a path or text from the fixture.
To add a CLI check, add a row.
"""

from __future__ import annotations

import errno
import io
import json
import os
import pickle
import re
import shlex
import subprocess
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest

from trie_decode.catalog import _BLOCK_LINES
from trie_decode.cli import main
from trie_decode.scoring import load_table_scorer, save_table_scorer
from trie_decode.trie import EntityTrie

from helpers import generate

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Row:
    argv: str
    status: int = 0
    err: str = ""
    same: str | None = None
    printed: re.Pattern = re.compile("")
    holds: str = ""  # text the output holds, where the check is no more than that


LINK = " --vocab {link}/vocab.txt --trie {link-trie} --scorer {link}/scorer.tsv --format structured"
ED = " --vocab {ed}/vocab.txt --scorer {ed}/scorer.tsv --format structured"
DR = " --vocab {dr}/vocab.txt --trie {dr-trie} --scorer {dr}/scorer.tsv --format structured"
PIECES = " --vocab {dir}/pieces.txt --scorer uniform --format structured"
LINKED = "link --dataset {link}/dataset.tsv" + LINK
RANKED = "disambiguate --dataset {ed}/dataset.tsv --candidates {ed}/candidates.tsv" + ED
EL_EVAL = "eval --mode el --dataset {link}/dataset.tsv" + LINK
ED_EVAL = "eval --mode ed --dataset {ed}/dataset.tsv --candidates {ed}/candidates.tsv" + ED
DR_EVAL = "eval --mode dr --dataset {dr}/dataset.tsv" + DR
BAD_SCORER = "retrieve --query x --vocab {dr}/vocab.txt --trie {dr-trie} --scorer {dir}/"
STATS = re.compile(r"leaves=\d+ internal_nodes=\d+ bytes=\d+\n")
EMPTY_SET = "error: line 2: empty candidate set\n"

ROWS = {
    "link-trie": Row("build-trie {link}/catalog.txt --vocab {link}/vocab.txt --out {out}", printed=STATS),
    "dr-trie": Row("build-trie {dr}/catalog.txt --vocab {dr}/vocab.txt --out {out}", printed=STATS),
    # the trie file is canonical: the catalog reversed, with every line twice, builds the same bytes
    "reversed-twice-trie": Row(
        "build-trie {dir}/reversed-twice.txt --vocab {dr}/vocab.txt --out {out}",
        err="skipped 2000 duplicate name(s)\n", same="dr-trie", printed=STATS,
    ),
    # a bad name past the first block of catalog lines names its own line
    "paren-trie": Row(
        "build-trie {dir}/paren-catalog.txt --vocab {dr}/vocab.txt --out {out}", 1,
        "error: line 2001: entity name contains reserved characters ['(', ')']: 'x(y)'\n",
    ),
    "unreachable-scorer": Row(
        BAD_SCORER + "unreachable-scorer.tsv", 1,
        "error: line 2: context -5 is outside 0..2147483647, so no step can reach it\n",
    ),
    "float-range-scorer": Row(
        BAD_SCORER + "float-range-scorer.tsv", 1,
        "error: vocab_size must be an integer in 1..2**63 - 1, got 1" + "0" * 400 + "\n",
    ),
    # dumps and reports are byte-identical at either --jobs, the chunked linking FSM's too
    "link-1": Row(LINKED + " --jobs 1 --out {out}"),
    "link-2": Row(LINKED + " --jobs 2 --out {out}", same="link-1"),
    "link-chunk5-1": Row(LINKED + " --chunk-size 5 --jobs 1 --out {out}"),
    "link-chunk5-2": Row(LINKED + " --chunk-size 5 --jobs 2 --out {out}", same="link-chunk5-1"),
    "ed-1": Row(RANKED + " --jobs 1 --out {out}"),
    "ed-2": Row(RANKED + " --jobs 2 --out {out}", same="ed-1"),
    "dr-report-1": Row(DR_EVAL + " --jobs 1 --out {out}"),
    "dr-report-2": Row(DR_EVAL + " --jobs 2 --out {out}", same="dr-report-1"),
    # eval of a dump scores it through the in-process report code
    "el-report": Row(EL_EVAL + " --out {out}"),
    "el-report-dump": Row(EL_EVAL + " --predictions {link-1} --out {out}", same="el-report"),
    "el-report-chunk5": Row(EL_EVAL + " --chunk-size 5 --out {out}"),
    "el-report-chunk5-dump": Row(EL_EVAL + " --predictions {link-chunk5-1} --out {out}", same="el-report-chunk5"),
    "ed-report": Row(ED_EVAL + " --out {out}"),
    "ed-report-dump": Row(ED_EVAL + " --predictions {ed-1} --out {out}", same="ed-report"),
    # candidates given as each dataset row's sixth field decode and score as they do from --candidates
    "joined-ed": Row("disambiguate --dataset {dir}/joined-ed.tsv" + ED + " --out {out}", same="ed-1"),
    "joined-report": Row("eval --mode ed --dataset {dir}/joined-ed.tsv" + ED + " --out {out}", same="ed-report"),
    # a candidate field with empty pieces decodes alike from either source, and one of bars only is refused
    "pieces-file": Row(
        "disambiguate --dataset {dir}/pieces.tsv --candidates {dir}/pieces-sets.tsv" + PIECES,
        holds='"name": "France"',
    ),
    "pieces-field": Row("disambiguate --dataset {dir}/pieces-joined.tsv" + PIECES, same="pieces-file"),
    "bars-file": Row("disambiguate --dataset {dir}/bars.tsv --candidates {dir}/bars-sets.tsv" + PIECES, 1, EMPTY_SET),
    "bars-field": Row("disambiguate --dataset {dir}/bars-joined.tsv" + PIECES, 1, EMPTY_SET),
    "rank-q1": Row("retrieve --query {q1}" + DR),
    "rank-q2": Row("retrieve --query {q2}" + DR),
    "rank-q3": Row("retrieve --query {q3}" + DR),
    "doc": Row("link --text {doc-text}" + LINK),
    "separated-doc": Row("link --text {separated-text}" + LINK),
}


# output: the --out file's bytes, or stdout's; left: the row's --out file and any file beside it, by name
Result = namedtuple("Result", "status printed err output left")


class Runner:
    """Runs each row once, in process, and keeps its result."""

    def __init__(self, root: Path, fields: dict[str, str]) -> None:
        self.outputs = root / "out"
        self.outputs.mkdir()
        assert not fields.keys() & ROWS.keys()
        self.fields, self.results = {**fields, **{key: str(self.outputs / key) for key in ROWS}}, {}

    def argv(self, row_id: str, out: str | None = None) -> list[str]:
        template = ROWS[row_id].argv
        for earlier in set(re.findall(r"{([^}]+)}", template)) & ROWS.keys():
            self.run(earlier)
        fields = {**self.fields, "out": out or self.fields[row_id]}
        return [token.format_map(fields) for token in shlex.split(template)]

    def run(self, row_id: str) -> Result:
        if row_id not in self.results:
            argv = self.argv(row_id)
            with redirect_stdout(io.StringIO()) as printed, redirect_stderr(io.StringIO()) as err:
                status = main(argv)
            out = self.outputs / row_id
            output = out.read_bytes() if out.exists() else printed.getvalue().encode()
            left = tuple(sorted(n for n in os.listdir(self.outputs) if n == row_id or n.startswith(f".{row_id}.")))
            self.results[row_id] = Result(status, printed.getvalue(), err.getvalue(), output, left)
        return self.results[row_id]


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    fields = {"dir": str(root)}
    for workload, name in (("link", "link"), ("disambiguate", "ed"), ("retrieve", "dr")):
        fields[name] = str(root / name)
        (root / name).mkdir()
        generate(workload, 1, root / name, 0.02)

    def write(name: str, text: str) -> None:
        (root / name).write_text(text, encoding="utf-8")

    def lines(name: str) -> list[str]:
        return (root / name).read_text(encoding="utf-8").splitlines(keepends=True)

    catalog = lines("dr/catalog.txt")
    assert len(catalog) == 2000 > _BLOCK_LINES
    write("paren-catalog.txt", "".join(catalog) + "x(y)\n")
    write("reversed-twice.txt", "".join(line * 2 for line in reversed(catalog)))
    write("unreachable-scorer.tsv", lines("dr/scorer.tsv")[0] + "-5\t7\t1\n")
    write("float-range-scorer.tsv", "0.5\t1" + "0" * 400 + "\n0\t7\t1\n")
    candidates = dict(line.split("\t", 1) for line in lines("ed/candidates.tsv"))
    joined = [row.rstrip("\n") + "\t" + candidates[row.split("\t", 1)[0]] for row in lines("ed/dataset.tsv")]
    assert all(len(line.split("\t")) == 6 and line.split("\t")[5].strip() for line in joined)
    write("joined-ed.tsv", "".join(joined))
    write("pieces.txt", "in\nParis\nFrance\n")
    write("pieces.tsv", "m1\tin Paris\t3\t5\tParis\n")
    write("pieces-sets.tsv", "m1\tParis||France|\n")
    write("pieces-joined.tsv", "m1\tin Paris\t3\t5\tParis\tParis||France|\n")
    write("bars.tsv", "m1\tin Paris\t3\t5\tParis\nm2\tin Paris\t3\t5\tParis\n")
    write("bars-sets.tsv", "m1\tParis\nm2\t|||\n")
    write("bars-joined.tsv", "m1\tin Paris\t3\t5\tParis\tParis\nm2\tin Paris\t3\t5\tParis\t|||\n")
    for i, line in enumerate(lines("dr/dataset.tsv")[:3], start=1):
        fields[f"q{i}"] = line.split("\t")[1]
    fields["doc-text"] = lines("link/dataset.tsv")[0].split("\t")[1]
    fields["separated-text"] = fields["doc-text"].replace(" ", "\u2028", 3).replace(" ", "\x1c", 3)
    assert fields["separated-text"] != fields["doc-text"]
    return Runner(root, fields)


@pytest.mark.parametrize("row_id", ROWS)
def test_row(runner, row_id):
    row, result = ROWS[row_id], runner.run(row_id)
    assert (result.status, result.err) == (row.status, row.err)
    if row.status:
        assert (result.printed, result.left) == ("", ())
        return
    assert result.output and row.holds.encode("utf-8") in result.output
    if row.same:
        assert result.output == runner.run(row.same).output
    if "--out" in ROWS[row_id].argv:
        assert result.left == (row_id,) and row.printed.fullmatch(result.printed)


def test_separators_between_words_keep_the_spans(runner):
    """U+2028 and \\x1c between words are whitespace: each token keeps its extent, so the spans are the same."""
    spans = [json.loads(runner.run(row_id).output)["spans"] for row_id in ("doc", "separated-doc")]
    assert spans[0] and spans[0] == spans[1]


@pytest.mark.parametrize("row_id", ["link-trie", "dr-trie"])
def test_a_built_trie_reads_back_as_written(runner, row_id):
    blob = runner.run(row_id).output
    trie = EntityTrie.deserialize(blob)
    assert trie.serialize() == blob
    assert pickle.loads(pickle.dumps(trie)) == trie


@pytest.mark.parametrize("name", ["link", "ed", "dr"])
def test_a_generated_scorer_saves_back_as_read_and_loads_each_line_twice_as_twice_the_counts(runner, tmp_path, name):
    path = Path(runner.fields[name]) / "scorer.tsv"
    save_table_scorer(load_table_scorer(str(path)), str(tmp_path / "resaved.tsv"))
    assert (tmp_path / "resaved.tsv").read_bytes() == path.read_bytes()
    head, *entries = path.read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "twice.tsv").write_text(head + "".join(entries * 2), encoding="utf-8")
    once, twice = load_table_scorer(str(path)).counts, load_table_scorer(str(tmp_path / "twice.tsv")).counts
    assert once and twice == {ctx: {token: 2 * n for token, n in row.items()} for ctx, row in once.items()}


# a fresh interpreter that runs each argv of a JSON list on stdin, after it limits the size of a file it writes
CHILD = """
import io, json, resource, signal, sys
from contextlib import redirect_stdout
from trie_decode.cli import main
argvs, limit = json.load(sys.stdin)
if limit:
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
results = []
for argv in argvs:
    with redirect_stdout(io.StringIO()) as printed:
        results.append([main(argv), printed.getvalue()])
json.dump(results, sys.stdout)
"""


def run_child(argvs: list[list[str]], hash_seed: str | None = None, limit: int = 0) -> tuple[list, str]:
    """Each argv's exit status and stdout, and the child's stderr."""
    paths = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    if hash_seed:
        env["PYTHONHASHSEED"] = hash_seed
    child = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps([argvs, limit]), env=env, capture_output=True, encoding="utf-8"
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout), child.stderr


# the dr report holds only R-precision, so retrieve's rankings are compared as well
HASHED = ("rank-q1", "rank-q2", "rank-q3", "link-1", "ed-1", "dr-report-1")


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_output_does_not_depend_on_str_hashing(runner, tmp_path, hash_seed):
    argvs = [runner.argv(row_id, out=str(tmp_path / row_id)) for row_id in HASHED]
    results, _ = run_child(argvs, hash_seed=hash_seed)
    for row_id, (status, printed) in zip(HASHED, results):
        out = tmp_path / row_id
        assert (status, out.read_bytes() if out.exists() else printed.encode()) == (0, runner.run(row_id).output)


@pytest.mark.parametrize("row_id", ["ed-1", "dr-trie"])
def test_a_write_past_the_file_size_limit_is_one_error_line_and_leaves_what_was_there(runner, tmp_path, row_id):
    out = tmp_path / "out"
    out.write_bytes(runner.run(row_id).output)
    [[status, printed]], err = run_child([runner.argv(row_id, out=str(out))], limit=4096)
    assert (status, printed) == (1, "")
    assert err == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(out)!r}\n"
    assert os.listdir(tmp_path) == ["out"] and out.read_bytes() == runner.run(row_id).output


def run_blocks(workflow: str) -> list[str]:
    """The text of each ``run:`` key in a workflow file, block lines included."""
    blocks, key = [], None
    for line in workflow.splitlines():
        if key is not None and (not line.strip() or len(line) - len(line.lstrip(" ")) > key):
            blocks[-1] += "\n" + line
            continue
        match = re.match(r"( *(?:- )?)run:(.*)", line)
        key = len(match.group(1)) if match else None
        if match:
            blocks.append(match.group(2))
    return blocks


def test_no_workflow_step_runs_a_cli_check_of_its_own():
    blocks = run_blocks((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    assert any("pytest" in block for block in blocks)
    for block in blocks:
        for call in ("trie_decode.cli", "trie-decode", "benchmarks/gen.py"):
            assert call not in block, f"a workflow step calls {call}: add a row to tests/test_cli_contract.py instead"
