"""The command line's contract: one table row per check.

Each row of ``ROWS`` is an argv, run in process through ``cli.main``, with its exit status and exact stderr.  Its
inputs are the files that ``benchmarks/gen.py {link,disambiguate,retrieve} 1 --scale 0.02`` writes, and the small
files of ``FILES``, by name under ``{dir}``.  Its output is the file its ``--out`` names, or else its stdout.  A row
that exits 1 prints nothing and leaves no output.  A row that exits 0 leaves a non-empty output, equal byte for byte
to row ``same``'s where it names one; with ``--out``, it prints ``printed`` and leaves no file beside its output.  In
an argv or a stderr, ``{out}`` is the row's own output path, ``{<row id>}`` the output path of that row, run first,
and any other ``{name}`` a path or text from the fixture.  To add a CLI check, add a row.
"""

from __future__ import annotations

import errno
import hashlib
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
from trie_decode.scoring import UniformScorer, load_table_scorer, save_table_scorer
from trie_decode.trie import EntityTrie

from helpers import SHARED_PREFIX_NAMES, generate, host_digest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Row:
    argv: str
    status: int = 0
    err: str = ""
    same: str | None = None
    printed: re.Pattern = re.compile("")
    holds: str = ""  # text the output holds
    sha256: str = ""  # the output's SHA-256, where the row exits 0 and names no row ``same``


def dump(*records: dict) -> str:
    """A structured dump of ``records``, one JSON line each."""
    return "".join(json.dumps(record) + "\n" for record in records)


def ranking(mention_id: str, *edits: dict) -> dict:
    """An ed dump record of two predictions, the k-th updated by the k-th of ``edits``."""
    guess = {"name": "France", "raw_logprob": -1.0, "normalized_score": -1.0}
    return {"id": mention_id, "predictions": [{**guess, **edit} for edit in (*edits, {}, {})[:2]]}


# the datasets of the 13-id vocabulary, and dump records of their ids
CLI_ED = (
    "m3\tFrance language\t7\t8\tlanguage\tlanguage|France\n"
    "m1\tlanguage France language\t9\t6\tFrance\tFrance|English language\n"
    "m2\tFrance language\t7\t8\tEnglish language\tEnglish language|English literature\n"
)
CLI_DR = "q2\tlanguage query\tEnglish language\nq1\twhich country\tFrance\n"
CLI_EL = (
    "d2\tEnglish language France\t[English language](English language) France\n"
    "d1\tFrance\t[France](France)\n"
    "d3\tliterature\tliterature\n"
)
D1, D2, D3 = ({"id": doc_id, "spans": []} for doc_id in ("d1", "d2", "d3"))
M1, M2, M3 = (ranking(mention_id) for mention_id in ("m1", "m2", "m3"))
LONG_NAME = " ".join(["English", "language"] * 10)  # 20 tokens, past the default 15 steps
GOLD_MARKUP = {
    "empty-mention": ("[](France)France", "empty mention"),
    "nested-open": ("[Fr[ance](France)", "nested '[' inside a mention"),
    "empty-entity": ("[France]()", "empty entity name"),
    "open-paren-in-entity": ("[France](Fr(ance)", "reserved characters in entity name: 'Fr(ance'"),
    "close-bracket-in-entity": ("[France](Fr]ance)", "reserved characters in entity name: 'Fr]ance'"),
}
# d1's spans, which its source "France" cannot take
SOURCE_SPANS = {
    "past-the-source": ([[5000, 3, "France"]], "span exceeds the source text"),
    "overlapping": ([[0, 6, "France"], [2, 3, "France"]], "spans overlap or are unsorted"),
}
# dumps of the ed or el dataset with a record that cannot be read or paired, and its line and error
BAD_DUMPS = {
    **{
        f"el-{case}": (dump({"id": "d1", "spans": spans}, D2, D3), f"1: bad prediction record ({reason})")
        for case, (spans, reason) in {
            "fractional-length": ([[0, 13.5, "France"]], "expected int, got 13.5"),
            "bool-start": ([[True, 6, "France"]], "expected int, got True"),
            "int-entity": ([[0, 6, 5]], "expected str, got 5"),
            "zero-length": ([[0, 0, "France"]], "invalid span extent: start=0 length=0"),
            "empty-entity": ([[0, 6, ""]], "empty entity name in span"),
        }.items()
    },
    "el-doubled-record": (dump(D1, D1, D2, D3), "2: no dataset row left for this record of instance 'd1'"),
    "el-unknown-id": (
        dump(D1, D2, D3, {"id": "d9", "spans": []}), "4: no dataset row left for this record of instance 'd9'"
    ),
    "ed-doubled-record": (dump(M1, M1, M2, M3), "2: no dataset row left for this record of instance 'm1'"),
    "ed-int-name": (dump(M1, M2, ranking("m3", {"name": 5})), "3: bad prediction record (expected str, got 5)"),
    "ed-str-score": (
        dump(M1, M2, ranking("m3", {}, {"raw_logprob": "zz"})),
        "3: bad prediction record (expected int or float, got 'zz')",
    ),
    "ed-null-score": (
        dump(ranking("m1", {"normalized_score": None}), M2, M3),
        "1: bad prediction record (expected int or float, got None)",
    ),
    "ed-bool-score": (
        dump(M1, ranking("m2", {"raw_logprob": True}), M3), "2: bad prediction record (expected int or float, got True)"
    ),
}
# scorer tables of the 13-id vocabulary that cannot serve, and the error after their path
BAD_TABLES = {
    "nan-alpha": ("nan\t13\n", ": alpha must be positive and finite, got nan"),
    "inf-alpha": ("inf\t13\n", ": alpha must be positive and finite, got inf"),
    "nan-count": ("0.5\t13\n0\t7\tnan\n", ":2: count must be non-negative and finite, got nan"),
    "inf-count": ("0.5\t13\n0\t7\tinf\n", ":2: count must be non-negative and finite, got inf"),
    "row-overflow": ("0.5\t13\n0\t7\t1e308\n0\t8\t1e308\n", ": context 0: probabilities overflow or underflow a float"),
    "empty": ("", ": empty scorer file"),
}
# the small input files, by name under {dir}; str is written as UTF-8
FILES = {
    # the 13-id vocabulary (nine specials and four words), with its catalogs and datasets
    "cli-vocab.txt": "English\nFrance\nlanguage\nliterature\n",
    "cli-catalog.txt": "".join(name + "\n" for name in SHARED_PREFIX_NAMES),
    "cli-long-catalog.txt": "".join(name + "\n" for name in (*SHARED_PREFIX_NAMES, LONG_NAME)),
    "cli-ed.tsv": CLI_ED,
    "cli-dr.tsv": CLI_DR,
    "cli-el.tsv": CLI_EL,
    "catalog-ed.tsv": "m1\tlanguage France language\t9\t6\tFrance\n",
    "wide-mention.tsv": "m1\tlanguage France\t9\t6\tFrance\tFrance\nm2\tEnglish language\t0\t16\tFrance\tFrance\n",
    "empty.txt": "",
    "newline.txt": "\n",
    "blank-lines.txt": "  \n\n\t\n",
    "fs-vocab.txt": b"a\x1cb\nFrance\n",
    "latin1-line-1.txt": b"\xffFrance\n",
    "latin1-line-2.txt": b"France\n\xffFrance\n",
    # the catalog is read in 64 KiB chunks: this bad byte is in a later one
    "latin1-line-20001.txt": b"France\n" * 20_000 + b"\xffFrance\n",
    "latin1-crlf-vocab.txt": b"English\r\nFrance\r\n\r\nlan\xffguage\r\n",
    # with no words in the vocabulary every character is <unk>, so names of one length would share a sequence
    "same-length.txt": "English language\nFrance\nGreece\nSpain\nItaly\n",
    "cafe-vocab.txt": "Caf\nParis\nNew\nYork\n",
    "unknown-character.txt": "Café\nParis\nNew  York\n",
    "double-space.txt": "Paris\nNew  York\n",
    "bad-after-duplicate.txt": "France\n\nFrance\nx(y)\nEnglish\n",
    # a version 1 file: magic, vocab size, one non-terminal root record
    "v1.trie": b"ETRIE\x00\x01\x00" + (13).to_bytes(4, "little") + bytes(5),
    "float-range-scorer.tsv": "0.5\t1" + "0" * 400 + "\n0\t7\t1\n",
    **{f"{case}-table.tsv": table for case, (table, _) in BAD_TABLES.items()},
    **{f"size-{size}-table.tsv": f"0.5\t{size}\n0\t7\t3\n" for size in (12, 14, 10**13)},
    "negative-count-table.tsv": "0.5\t13\n0\t7\t-1\n0\t7\t2\n",
    "negative-count-ed.tsv": "m1\tlanguage France\t9\t6\tFrance\tFrance|English language\n",
    "ed-empty-gold.tsv": CLI_ED + "m4\tFrance\t0\t6\t\tFrance\n",
    "ed-bar-only-candidates.tsv": CLI_ED + "m4\tFrance\t0\t6\tFrance\t|\n",
    "ed-bars-only-candidates.tsv": CLI_ED + "m4\tFrance\t0\t6\tFrance\t||\n",
    "dr-bar-only-gold.tsv": CLI_DR + "q3\twhich country\t|\n",
    "dr-empty-gold.tsv": CLI_DR + "q3\twhich country\t\n",
    "ed-four-fields.tsv": CLI_ED + "m4\tFrance\t0\t6\n",
    "ed-no-candidates.tsv": CLI_ED + "m0\tFrance\t0\t6\tFrance\n",
    "ed-blank-candidate.tsv": CLI_ED + "m0\tFrance\t0\t6\tFrance\tFrance| \n",
    "el-unbalanced.tsv": CLI_EL + "d0\tFrance\t[France(France)\n",
    "el-mention-mismatch.tsv": "d1\tFrance\t[Germany](France)\n",
    **{f"gold-{case}.tsv": f"d1\tFrance\t{markup}\n" for case, (markup, _) in GOLD_MARKUP.items()},
    **{f"el-{case}.jsonl": dump({"id": "d1", "spans": spans}, D2, D3) for case, (spans, _) in SOURCE_SPANS.items()},
    **{f"{case}.jsonl": text for case, (text, _) in BAD_DUMPS.items()},
    "pieces.txt": "in\nParis\nFrance\n",
    "pieces.tsv": "m1\tin Paris\t3\t5\tParis\n",
    "pieces-sets.tsv": "m1\tParis||France|\n",
    "pieces-joined.tsv": "m1\tin Paris\t3\t5\tParis\tParis||France|\n",
    "bars.tsv": "m1\tin Paris\t3\t5\tParis\nm2\tin Paris\t3\t5\tParis\n",
    "bars-sets.tsv": "m1\tParis\nm2\t|||\n",
    "bars-joined.tsv": "m1\tin Paris\t3\t5\tParis\tParis\nm2\tin Paris\t3\t5\tParis\t|||\n",
}

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
# commands over the 13-id vocabulary; one that ends in {dir}/ takes the name of its input file
CLI = " --vocab {dir}/cli-vocab.txt"
BUILD = "build-trie" + CLI + " --out {out} {dir}/"
BUILD_WITH_VOCAB = "build-trie {dir}/cli-catalog.txt --out {out} --vocab {dir}/"
UNIFORM = CLI + " --trie {cli-trie} --scorer uniform"
LONG = CLI + " --trie {cli-long-trie} --scorer "
WITH_SCORER = "retrieve --query q" + CLI + " --trie {cli-trie} --scorer {dir}/"
DISAMBIGUATE = "disambiguate" + UNIFORM + " --dataset {dir}/"
NO_TRIE_DISAMBIGUATE = "disambiguate" + CLI + " --scorer uniform --dataset {dir}/"
LINK_DATASET = "link --max-steps 32" + UNIFORM + " --dataset {dir}/"
EVAL_ED = "eval --mode ed" + UNIFORM + " --dataset {dir}/"
EVAL_DR = "eval --mode dr" + UNIFORM + " --dataset {dir}/"
ORACLE = " --trie {cli-trie} --scorer 'oracle:English language'"
EVAL_EL = "eval --mode el --max-steps 32" + CLI + ORACLE + " --dataset {dir}/"
EVAL_EL_DUMP = "eval --mode el" + CLI + " --predictions {cli-el-dump} --dataset {dir}/"
CLI_RUNS = {
    "disambiguate": DISAMBIGUATE + "cli-ed.tsv",
    "link": LINK_DATASET + "cli-el.tsv",
    "link-text": "link --text 'English language France'" + UNIFORM,
    "retrieve": "retrieve --query 'which country'" + UNIFORM,
    "eval-ed": EVAL_ED + "cli-ed.tsv",
    "eval-dr": EVAL_DR + "cli-dr.tsv",
    "eval-el": EVAL_EL + "cli-el.tsv",
    "eval-ed-dump": "eval --mode ed --dataset {dir}/cli-ed.tsv" + CLI + " --predictions {cli-ed-dump}",
    "eval-el-dump": EVAL_EL_DUMP + "cli-el.tsv",
}
EVALS = ("eval-ed", "eval-dr", "eval-el", "eval-ed-dump", "eval-el-dump")
BAD_DECODE = "error: beams and max_steps must be >= 1, context_window >= 3\n"
DECODE_FLAGS = {
    "beams": ("--beams 0", BAD_DECODE),
    "max-steps": ("--max-steps 0", BAD_DECODE),
    "context-window": ("--context-window 2", BAD_DECODE),
    "chunk-size": ("--chunk-size 0", "error: chunk size must be at least 1\n"),
}
BUDGET = "error: max_steps 15 cannot finish the longest name (20 tokens)\n"
FOUR_FIELDS = (
    "error: {dir}/ed-four-fields.tsv:4: expected `id TAB context TAB start TAB len TAB gold [TAB candidates]`\n"
)
UNBALANCED = "error: instance 'd0': bad gold markup (unbalanced '[': no closing ']')\n"
NOT_READ_BACK = "error: {{dir}}/{}:{}: catalog name {!r} reads back as {!r}, so no decode can emit it\n"
NOT_UTF8 = {  # argv hands a byte that is not UTF-8 on as a surrogate escape: b"\xff" as "\udcff"
    "text": ("link --text 'English \udcff language'" + UNIFORM, "error: --text is not UTF-8 ('\\udcff' at offset 8)\n"),
    "query": ("retrieve --query \udcff" + UNIFORM, "error: --query is not UTF-8 ('\\udcff' at offset 0)\n"),
    "oracle": (
        "retrieve --query English" + UNIFORM + " --scorer 'oracle:Fr\udcc3ance'",
        "error: --scorer is not UTF-8 ('\\udcc3' at offset 9)\n",
    ),
}

HOST = "044550bda41d23d46c5ecba937867443d71d41a27400fbe299ddd84f856c967a"
ROWS = {
    "link-trie": Row(
        "build-trie {link}/catalog.txt --vocab {link}/vocab.txt --out {out}", printed=STATS,
        sha256="1887c5c419d954a01e171c0e3cffde02a479452abbdecb15a7a080e335d548b9",
    ),
    "dr-trie": Row(
        "build-trie {dr}/catalog.txt --vocab {dr}/vocab.txt --out {out}", printed=STATS,
        sha256="2b8922fe01e71c7e4388e9005c8ae75061293aeeb06028dd553dc02689b9c842",
    ),
    # the trie file is canonical: the catalog reversed, with every line twice, builds the same bytes
    "reversed-twice-trie": Row(
        "build-trie {dir}/reversed-twice.txt --vocab {dr}/vocab.txt --out {out}",
        err="skipped 2000 duplicate name(s)\n", same="dr-trie", printed=STATS,
    ),
    # a bad name past the first block of catalog lines names its own line
    "paren-trie": Row(
        "build-trie {dir}/paren-catalog.txt --vocab {dr}/vocab.txt --out {out}", 1,
        "error: {dir}/paren-catalog.txt:2001: entity name contains reserved characters ['(', ')']: 'x(y)'\n",
    ),
    "unreachable-scorer": Row(
        BAD_SCORER + "unreachable-scorer.tsv", 1,
        "error: {dir}/unreachable-scorer.tsv:2: context -5 is outside 0..2147483647, so no step can reach it\n",
    ),
    "float-range-scorer": Row(
        BAD_SCORER + "float-range-scorer.tsv", 1,
        "error: {dir}/float-range-scorer.tsv: vocab_size must be an integer in 1..2**63 - 1, got 1" + "0" * 400 + "\n",
    ),
    # dumps and reports are byte-identical at either --jobs, the chunked linking FSM's too
    "link-1": Row(
        LINKED + " --jobs 1 --out {out}",
        sha256="59e0b0a4649332a2189cf00ce35883744e9bb388bfeb03036a2f460e3b1e5510",
    ),
    "link-2": Row(LINKED + " --jobs 2 --out {out}", same="link-1"),
    "link-chunk5-1": Row(
        LINKED + " --chunk-size 5 --jobs 1 --out {out}",
        sha256="76efd6c60cdc30444e99dccad6021062ec9aa4eeb6885f6ebd7b221670b72889",
    ),
    "link-chunk5-2": Row(LINKED + " --chunk-size 5 --jobs 2 --out {out}", same="link-chunk5-1"),
    "ed-1": Row(
        RANKED + " --jobs 1 --out {out}",
        sha256="e28388856c2005b9bf83ed7521b51c6529abed15caa5eed7ec56c08783e0068e",
    ),
    "ed-2": Row(RANKED + " --jobs 2 --out {out}", same="ed-1"),
    "dr-report-1": Row(
        DR_EVAL + " --jobs 1 --out {out}",
        sha256="3bbaa579e4b6b3068c7b17d38e9098e07aebecf59a28f8cdadf1caf1f9828916",
    ),
    "dr-report-2": Row(DR_EVAL + " --jobs 2 --out {out}", same="dr-report-1"),
    # eval of a dump scores it through the in-process report code
    "el-report": Row(
        EL_EVAL + " --out {out}",
        sha256="4964629961b28d9dd1b3b079f1f06bf0a6ef177cf3f6b207be5c082f5641af66",
    ),
    "el-report-dump": Row(EL_EVAL + " --predictions {link-1} --out {out}", same="el-report"),
    "el-report-chunk5": Row(
        EL_EVAL + " --chunk-size 5 --out {out}",
        sha256="10420144bfdabd987e4d54c0a264d0da0d180cfa32f63231660f7f2b89d10c4d",
    ),
    "el-report-chunk5-dump": Row(EL_EVAL + " --predictions {link-chunk5-1} --out {out}", same="el-report-chunk5"),
    "ed-report": Row(
        ED_EVAL + " --out {out}",
        sha256="d6313e5950c878ee3e0467bb58e5e0516a32208b22d03425a6746470a7a636cd",
    ),
    "ed-report-dump": Row(ED_EVAL + " --predictions {ed-1} --out {out}", same="ed-report"),
    # candidates given as each dataset row's sixth field decode and score as they do from --candidates
    "joined-ed": Row("disambiguate --dataset {dir}/joined-ed.tsv" + ED + " --out {out}", same="ed-1"),
    "joined-report": Row("eval --mode ed --dataset {dir}/joined-ed.tsv" + ED + " --out {out}", same="ed-report"),
    # a candidate field with empty pieces decodes alike from either source, and one of bars only is refused
    "pieces-file": Row(
        "disambiguate --dataset {dir}/pieces.tsv --candidates {dir}/pieces-sets.tsv" + PIECES,
        holds='"name": "France"',
        sha256="fbd327208844090d796ebfd28dbe0a8b406cd7c5f1d5890cb9174c5e3c42bd16",
    ),
    "pieces-field": Row("disambiguate --dataset {dir}/pieces-joined.tsv" + PIECES, same="pieces-file"),
    "bars-file": Row(
        "disambiguate --dataset {dir}/bars.tsv --candidates {dir}/bars-sets.tsv" + PIECES, 1,
        "error: {dir}/bars-sets.tsv:2: empty candidate set\n",
    ),
    "bars-field": Row(
        "disambiguate --dataset {dir}/bars-joined.tsv" + PIECES, 1,
        "error: {dir}/bars-joined.tsv:2: empty candidate set\n",
    ),
    "rank-q1": Row(
        "retrieve --query {q1}" + DR,
        sha256="5eab5c9fc1f123ff1ef1b83be243095100537ae82fc22005aec692d5ea46e96c",
    ),
    "rank-q2": Row(
        "retrieve --query {q2}" + DR,
        sha256="d15a8214a1c8be9926d3ff25a4721d60208019537200b38406e70b3cd247d5c8",
    ),
    "rank-q3": Row(
        "retrieve --query {q3}" + DR,
        sha256="6d879e13502e5eb2eeee48e07c951a3d1e8b323ec8ab4950782e465587f9e34b",
    ),
    "doc": Row(
        "link --text {doc-text}" + LINK,
        sha256="f2a96141f1f3259f798bcfae7868b07a08bf63cbda70840d1e015f394e608c83",
    ),
    "separated-doc": Row(
        "link --text {separated-text}" + LINK,
        sha256="7395ad299570efcf9558de16e2d4fda1b6d55c64e1784bdfb289b1a9fcddcf00",
    ),
    # the tries and dumps of the 13-id vocabulary
    "cli-trie": Row(
        BUILD + "cli-catalog.txt", printed=STATS,
        sha256="c23c5d943bb108cc9ce81e42fe3590b4a16a472bb66dfb4e780539b6da0c2360",
    ),
    "cli-long-trie": Row(
        BUILD + "cli-long-catalog.txt", printed=STATS,
        sha256="b67c63cf1ae60a11e9329ad8a78d6be3fb85e99b8f636bdcc26fab2c990ffecd",
    ),
    "cli-ed-dump": Row(
        CLI_RUNS["disambiguate"] + " --format structured --out {out}",
        sha256="e04dfe3e37035c4bfe2bb2200f0629faabb0bf25f1fbb05084ec9db07cfb3788",
    ),
    "cli-el-dump": Row(
        CLI_RUNS["link"] + " --format structured --out {out}",
        sha256="8c9e7a165e0c9019759bf2f27e28024c5917d39c374ff77b959723c2581be410",
    ),
    # build-trie writes no file for a catalog or vocabulary it refuses, and names the file or the line
    **{
        f"no-names-{case}": Row(BUILD + f"{case}.txt", 1, f"error: {{dir}}/{case}.txt holds no entity names\n")
        for case in ("empty", "newline", "blank-lines")
    },
    "fs-vocab-trie": Row(
        BUILD_WITH_VOCAB + "fs-vocab.txt", 1,
        "error: {dir}/fs-vocab.txt:1: token string contains whitespace: 'a\\x1cb'\n",
    ),
    **{
        name.removesuffix(".txt"): Row(
            (BUILD_WITH_VOCAB if "vocab" in name else BUILD) + name, 1,
            f"error: {{dir}}/{name}:{line}: not UTF-8 (can't decode byte 0xff: invalid start byte)\n",
        )
        for name, line in (
            ("latin1-line-1.txt", 1), ("latin1-line-2.txt", 2), ("latin1-line-20001.txt", 20001),
            ("latin1-crlf-vocab.txt", 4),
        )
    },
    "same-length-trie": Row(
        "build-trie {dir}/same-length.txt --vocab {dir}/empty.txt --out {out}", 1,
        NOT_READ_BACK.format("same-length.txt", 1, "English language", " ".join(["<unk>"] * 15)),
    ),
    "unknown-character-trie": Row(
        "build-trie {dir}/unknown-character.txt --vocab {dir}/cafe-vocab.txt --out {out}", 1,
        NOT_READ_BACK.format("unknown-character.txt", 1, "Café", "Caf <unk>"),
    ),
    "double-space-trie": Row(
        "build-trie {dir}/double-space.txt --vocab {dir}/cafe-vocab.txt --out {out}", 1,
        NOT_READ_BACK.format("double-space.txt", 2, "New  York", "New York"),
    ),
    "bad-after-duplicate-trie": Row(
        BUILD + "bad-after-duplicate.txt", 1,
        "error: {dir}/bad-after-duplicate.txt:4: entity name contains reserved characters ['(', ')']: 'x(y)'\n",
    ),
    # a trie file that is refused is named
    **{
        f"{case}-trie-file": Row(
            "retrieve --query q" + CLI + f" --trie {{dir}}/{case}.trie --scorer uniform", 1,
            f"error: {{dir}}/{case}.trie: {reason}\n",
        )
        for case, reason in (
            ("truncated", "truncated stream"),
            ("bad-magic", "bad magic"),
            ("v1", "version 1 trie file is no longer supported; rebuild it with `trie-decode build-trie`"),
        )
    },
    # a name too long to finish within --max-steps is refused before any decode, on every command and scorer
    "long-retrieve": Row("retrieve --query q" + LONG + "uniform", 1, BUDGET),
    "long-retrieve-oracle": Row(f"retrieve --query q{LONG}'oracle:{LONG_NAME}'", 1, BUDGET),
    "long-disambiguate": Row("disambiguate --dataset {dir}/catalog-ed.tsv" + LONG + "uniform", 1, BUDGET),
    "long-disambiguate-oracle": Row(
        "disambiguate --dataset {dir}/catalog-ed.tsv" + LONG + f"'oracle:{LONG_NAME}'", 1, BUDGET
    ),
    "long-eval-dr": Row("eval --mode dr --dataset {dir}/cli-dr.tsv" + LONG + "uniform", 1, BUDGET),
    **{
        f"wide-mention-{jobs}": Row(
            DISAMBIGUATE + f"wide-mention.tsv --context-window 3 --jobs {jobs}", 1,
            "error: instance 'm2': mention of 2 tokens does not fit a window of 3\n",
        )
        for jobs in (1, 2)
    },
    **{
        f"chunk0-{case}": Row(f"link --text '{text}'{UNIFORM} --chunk-size 0", 1, DECODE_FLAGS["chunk-size"][1])
        for case, text in (("empty-text", ""), ("text", "France"))
    },
    "bracket-text": Row(
        "link --text 'English [x] France'" + UNIFORM, 1,
        "error: source holds '[' at offset 8; square brackets are markup, so the linked text could not parse back\n",
    ),
    # every dataset command, and eval on both of its paths, checks its flags alike
    **{
        f"jobs{jobs}-{command}": Row(
            f"{CLI_RUNS[command]} --jobs {jobs}", 1, f"error: jobs must be at least 1, got {jobs}\n"
        )
        for command in ("disambiguate", "link", *EVALS)
        for jobs in ("0", "-2")
    },
    **{
        f"{command}-{flag}": Row(f"{CLI_RUNS[command]} {argv}", 1, err)
        for command in EVALS
        for flag, (argv, err) in DECODE_FLAGS.items()
    },
    **{
        f"{command}-{flag}": Row(f"{CLI_RUNS[command]} {DECODE_FLAGS[flag][0]}", 1, BAD_DECODE)
        for command in ("retrieve", "disambiguate", "link", "link-text")
        for flag in ("beams", "max-steps")
    },
    # a bad dataset line, gold markup or dump record is named, at either --jobs: a line by its file and number
    **{
        f"{command}-{case}": Row(template + f"{case}.tsv", 1, f"error: {{dir}}/{case}.tsv:{message}\n")
        for command, template, case, message in (
            ("disambiguate", DISAMBIGUATE, "ed-empty-gold", "4: empty gold entity"),
            ("disambiguate", DISAMBIGUATE, "ed-bar-only-candidates", "4: empty candidate set"),
            ("eval-ed", EVAL_ED, "ed-bars-only-candidates", "4: empty candidate set"),
            ("eval-dr", EVAL_DR, "dr-bar-only-gold", "3: empty gold set"),
            ("eval-dr", EVAL_DR, "dr-empty-gold", "3: empty gold set"),
        )
    },
    **{
        f"{command}-gold-{case}": Row(
            template + f"gold-{case}.tsv", 1, f"error: instance 'd1': bad gold markup ({reason})\n"
        )
        for command, template in (("link", LINK_DATASET), ("eval-el", EVAL_EL), ("eval-el-dump", EVAL_EL_DUMP))
        for case, (_, reason) in GOLD_MARKUP.items()
    },
    "link-mention-mismatch": Row(
        LINK_DATASET + "el-mention-mismatch.tsv", 1,
        "error: instance 'd1': bad gold markup (mention 'Germany' does not match the source at offset 0)\n",
    ),
    "link-empty-dataset": Row(LINK_DATASET + "empty.txt", 1, "error: empty dataset\n"),
    "eval-el-empty-dump": Row(
        "eval --mode el --dataset {dir}/empty.txt" + CLI + " --predictions {dir}/empty.txt", 1, "error: empty dataset\n"
    ),
    # a failing run leaves no file beside its --out
    "ed-four-fields-out": Row(DISAMBIGUATE + "ed-four-fields.tsv --out {out}", 1, FOUR_FIELDS),
    # under two jobs too, raised in the parent or in a worker
    "ed-four-fields-jobs-2": Row(DISAMBIGUATE + "ed-four-fields.tsv --jobs 2", 1, FOUR_FIELDS),
    # and when a dump is scored against it
    "ed-four-fields-dump": Row(
        "eval --mode ed --dataset {dir}/ed-four-fields.tsv" + CLI + " --predictions {cli-ed-dump}", 1, FOUR_FIELDS
    ),
    "ed-no-candidates-jobs-2": Row(
        NO_TRIE_DISAMBIGUATE + "ed-no-candidates.tsv --jobs 2", 1,
        "error: instance 'm0': no candidate set and no catalog trie\n",
    ),
    "ed-blank-candidate-jobs-2": Row(
        NO_TRIE_DISAMBIGUATE + "ed-blank-candidate.tsv --jobs 2", 1,
        "error: instance 'm0': candidate ' ' has no tokens\n",
    ),
    "el-unbalanced-jobs-2": Row(LINK_DATASET + "el-unbalanced.tsv --jobs 2", 1, UNBALANCED),
    "el-unbalanced-dump-jobs-2": Row(EVAL_EL_DUMP + "el-unbalanced.tsv --jobs 2", 1, UNBALANCED),
    **{
        f"eval-el-{case}": Row(
            "eval --mode el --dataset {dir}/cli-el.tsv" + CLI + f" --predictions {{dir}}/el-{case}.jsonl", 1,
            f"error: instance 'd1': bad predicted spans ({reason})\n",
        )
        for case, (_, reason) in SOURCE_SPANS.items()
    },
    **{
        f"eval-{case}": Row(
            f"eval --mode {case[:2]} --dataset {{dir}}/cli-{case[:2]}.tsv{CLI} --predictions {{dir}}/{case}.jsonl", 1,
            f"error: {{dir}}/{case}.jsonl:{message}\n",
        )
        for case, (_, message) in BAD_DUMPS.items()
    },
    "eval-dr-dump": Row(
        "eval --mode dr --dataset {dir}/cli-dr.tsv" + CLI + " --predictions {cli-ed-dump}", 1,
        "error: a dump can be scored in ed and el modes only\n",
    ),
    **{
        f"{command}-without-trie": Row(
            CLI_RUNS[command].replace(" --trie {cli-trie}", ""), 1, f"error: {what} requires a catalog trie\n"
        )
        for command, what in (("eval-dr", "retrieval"), ("eval-el", "linking"))
    },
    "link-text-and-dataset": Row(
        CLI_RUNS["link"] + " --text France", 1, "error: exactly one of --text and --dataset is required\n"
    ),
    "link-neither-text-nor-dataset": Row(
        "link" + UNIFORM, 1, "error: exactly one of --text and --dataset is required\n"
    ),
    "eval-without-scorer": Row(
        "eval --mode ed --dataset {dir}/cli-ed.tsv" + CLI, 1,
        "error: --scorer is required unless --predictions is given\n",
    ),
    # a scorer table that cannot serve is refused as it loads, naming its file, and each line before it is summed
    **{
        f"{case}-scorer": Row(WITH_SCORER + f"{case}-table.tsv", 1, f"error: {{dir}}/{case}-table.tsv{message}\n")
        for case, (_, message) in BAD_TABLES.items()
    },
    "negative-count-scorer": Row(
        "disambiguate --dataset {dir}/negative-count-ed.tsv" + CLI + " --scorer {dir}/negative-count-table.tsv", 1,
        "error: {dir}/negative-count-table.tsv:2: count must be non-negative and finite, got -1.0\n",
    ),
    # a row of 10**13 floats cannot be allocated: the sizes are compared before any row is built
    **{
        f"size-{size}-scorer": Row(
            WITH_SCORER + f"size-{size}-table.tsv", 1,
            f"error: scorer has vocabulary size {size}, but {{dir}}/cli-vocab.txt has 13\n",
        )
        for size in (12, 14, 10**13)
    },
    "empty-vocab": Row(
        "retrieve --query q --vocab {dir}/empty.txt --trie {cli-trie} --scorer uniform", 1,
        "error: trie has vocabulary size 13, but {dir}/empty.txt has 9\n",
    ),
    "missing-vocab": Row(
        "retrieve --query q --vocab {dir}/missing/vocab.txt --trie {dir}/missing/names.trie --scorer uniform", 1,
        "error: [Errno 2] No such file or directory: '{dir}/missing/vocab.txt'\n",
    ),
    # a text flag that is not UTF-8 is refused before any work, with or without --out
    **{
        f"not-utf8-{case}{out and '-out'}": Row(argv + out, 1, err)
        for case, (argv, err) in NOT_UTF8.items()
        for out in ("", " --out {out}")
    },
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

    def write(name: str, content: str | bytes) -> None:
        (root / name).write_bytes(content.encode("utf-8") if isinstance(content, str) else content)

    def lines(name: str) -> list[str]:
        return (root / name).read_text(encoding="utf-8").splitlines(keepends=True)

    for name, content in FILES.items():
        write(name, content)
    catalog = lines("dr/catalog.txt")
    assert len(catalog) == 2000 > _BLOCK_LINES
    write("paren-catalog.txt", "".join(catalog) + "x(y)\n")
    write("reversed-twice.txt", "".join(line * 2 for line in reversed(catalog)))
    write("unreachable-scorer.tsv", lines("dr/scorer.tsv")[0] + "-5\t7\t1\n")
    candidates = dict(line.split("\t", 1) for line in lines("ed/candidates.tsv"))
    joined = [row.rstrip("\n") + "\t" + candidates[row.split("\t", 1)[0]] for row in lines("ed/dataset.tsv")]
    assert all(len(line.split("\t")) == 6 and line.split("\t")[5].strip() for line in joined)
    write("joined-ed.tsv", "".join(joined))
    for i, line in enumerate(lines("dr/dataset.tsv")[:3], start=1):
        fields[f"q{i}"] = line.split("\t")[1]
    fields["doc-text"] = lines("link/dataset.tsv")[0].split("\t")[1]
    fields["separated-text"] = fields["doc-text"].replace(" ", "\u2028", 3).replace(" ", "\x1c", 3)
    assert fields["separated-text"] != fields["doc-text"]
    runner = Runner(root, fields)
    scorers = [load_table_scorer(str(root / name / "scorer.tsv")) for name in ("link", "ed", "dr")]
    uniform = [UniformScorer(12), UniformScorer(13)]  # the small vocabularies' uniform scorers
    runner.host = host_digest([root / name for name in ("link", "ed", "dr")], scorers + uniform)
    blob = runner.run("cli-trie").output
    write("truncated.trie", blob[:-1])
    write("bad-magic.trie", b"X" + blob[1:])
    return runner


@pytest.mark.parametrize("row_id", ROWS)
def test_row(runner, row_id):
    row, result = ROWS[row_id], runner.run(row_id)
    assert (result.status, result.err) == (row.status, row.err.format_map(runner.fields))
    if row.status:
        assert (result.printed, result.left) == ("", ())
        return
    assert result.output and row.holds.encode("utf-8") in result.output
    if row.same:
        assert result.output == runner.run(row.same).output
    if "--out" in ROWS[row_id].argv:
        assert result.left == (row_id,) and row.printed.fullmatch(result.printed)


def test_each_output_is_pinned(runner):
    """Each row that exits 0 leaves the output whose SHA-256 it holds, or row ``same``'s, where the host digest of
    the generated inputs and scorer logs is the one they were pinned with (see ``helpers.host_digest``)."""
    if runner.host != HOST:
        pytest.skip(f"the host digest is {runner.host}, not the pinned one")
    pinned = [row_id for row_id, row in ROWS.items() if not (row.status or row.same)]
    got = {row_id: hashlib.sha256(runner.run(row_id).output).hexdigest() for row_id in pinned}
    assert got == {row_id: ROWS[row_id].sha256 for row_id in pinned}, json.dumps(got, indent=1)


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


def child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports ``trie_decode`` from this checkout."""
    paths = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_child(argvs: list[list[str]], hash_seed: str | None = None, limit: int = 0) -> tuple[list, str]:
    """Each argv's exit status and stdout, and the child's stderr."""
    env = child_env()
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


@pytest.mark.parametrize("append", [False, True], ids=["pipe", "append"])
def test_out_to_the_file_stdout_is_open_on_writes_through_stdout(runner, tmp_path, append):
    """``--out /dev/stdout`` writes to stdout's descriptor: into a pipe, and after the line a file opened for append
    holds, not over it."""
    argv = [sys.executable, "-m", "trie_decode.cli", *runner.argv("rank-q1"), "--out", "/dev/stdout"]
    log = tmp_path / "log"
    log.write_bytes(b"an earlier line\n")
    with open(log, "ab") as fh:
        child = subprocess.run(argv, env=child_env(), stdout=fh if append else subprocess.PIPE, stderr=subprocess.PIPE)
    assert (child.returncode, child.stderr) == (0, b"")
    ranked = runner.run("rank-q1").output
    assert (log.read_bytes() if append else child.stdout) == (b"an earlier line\n" if append else b"") + ranked


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
