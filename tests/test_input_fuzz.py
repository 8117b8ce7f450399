"""Seeded CLI input fuzz: every input file and text flag of every subcommand, mutated.

Each run goes through ``cli.main`` in process.  Whatever the mutation, the
run must exit 0 or 1 without a traceback, an exit 1 must end in one
``error: `` line, and every number in structured output must be finite.  A
mutated text flag runs with and without ``--out``, with one exit status, and
no ``--out`` file is left after an exit 1.
"""

import json
import math
import os
import random
import re
from pathlib import Path

import pytest

from trie_decode.cli import main
from trie_decode.scoring import save_table_scorer, train_table_scorer
from trie_decode.tasks import TASK_EXTRA_SPECIALS
from trie_decode.vocab import EOS, encode, load_vocabulary

VOCAB = ("English", "France", "Paris", "capital", "is", "language", "literature", "of", "the")
CATALOG = ("English language", "English literature", "France", "Paris")
FILES = {
    "vocab": "\n".join(VOCAB) + "\n",
    "catalog": "\n".join(CATALOG) + "\n",
    "ed": (
        "m1\tParis is the capital of France\t24\t6\tFrance\tFrance|Paris\n"
        "m2\tthe English language\t4\t16\tEnglish language\n"
    ),
    "candidates": "m2\tEnglish language|English literature\n",
    "dr": "q1\tcapital of France\tFrance|Paris\nq2\tEnglish\tEnglish language|English literature\n",
    "el": (
        "d1\tParis is the capital of France\t[Paris](Paris) is the capital of [France](France)\n"
        "d2\tthe English language\tthe [English language](English language)\n"
    ),
}
# text flags, given in argv rather than read from a file
TEXTS = {"query": "capital of France", "text": "Paris is the capital of France"}
# each subcommand with the inputs it reads; "{name}" is the path of that input, or the text of a flag
COMMANDS = {
    "build-trie": ["build-trie", "{catalog}", "--vocab", "{vocab}", "--out", "{out}"],
    "retrieve": ["retrieve", "--query", "{query}", "--vocab", "{vocab}", "--trie", "{trie}",
                 "--scorer", "{scorer}"],
    "disambiguate": ["disambiguate", "--dataset", "{ed}", "--vocab", "{vocab}", "--trie", "{trie}",
                     "--scorer", "{scorer}", "--candidates", "{candidates}"],
    "link": ["link", "--dataset", "{el}", "--vocab", "{vocab}", "--trie", "{trie}", "--scorer", "{scorer}",
             "--max-steps", "48"],
    "link-text": ["link", "--text", "{text}", "--vocab", "{vocab}", "--trie", "{trie}", "--scorer", "{scorer}",
                  "--max-steps", "48"],
    "eval-ed": ["eval", "--mode", "ed", "--dataset", "{ed}", "--vocab", "{vocab}", "--trie", "{trie}",
                "--scorer", "{scorer}", "--candidates", "{candidates}"],
    "eval-dr": ["eval", "--mode", "dr", "--dataset", "{dr}", "--vocab", "{vocab}", "--trie", "{trie}",
                "--scorer", "{scorer}"],
    "eval-el": ["eval", "--mode", "el", "--dataset", "{el}", "--vocab", "{vocab}", "--trie", "{trie}",
                "--scorer", "{scorer}", "--max-steps", "48"],
    "eval-ed-dump": ["eval", "--mode", "ed", "--dataset", "{ed}", "--vocab", "{vocab}",
                     "--predictions", "{ed-dump}"],
    "eval-el-dump": ["eval", "--mode", "el", "--dataset", "{el}", "--vocab", "{vocab}",
                     "--predictions", "{el-dump}"],
}
MUTATIONS_PER_INPUT = 32
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e-?\d+)?")
_BAD_NUMBERS = (b"nan", b"inf", b"-inf", b"1e999", b"1.5", b"-3", b"0x1f", b"", b"9" * 13, b"9" * 30)
_UNDECODABLE = (b"\xff", b"\xc3", b"\xed\xa0\x80")
_BRACKETS = (b"[", b"]", b"(", b")", b"[x](y)")


def _insert(rng: random.Random, data: bytes, pieces: tuple[bytes, ...]) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice(pieces) + data[at:]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    kind = rng.choice(("truncate", "flip", "swap", "number", "utf8", "drop", "duplicate"))
    if not data or kind == "truncate":
        return data[: rng.randrange(len(data) + 1)]
    if kind == "flip":
        flipped = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            flipped[rng.randrange(len(flipped))] ^= rng.randrange(1, 256)
        return bytes(flipped)
    if kind == "number":
        numbers = list(_NUMBER.finditer(data))
        if numbers:
            m = rng.choice(numbers)
            return data[: m.start()] + rng.choice(_BAD_NUMBERS) + data[m.end() :]
        kind = "utf8"
    if kind == "utf8":
        return _insert(rng, data, _UNDECODABLE)
    lines = data.splitlines()
    i = rng.randrange(len(lines))
    if kind == "swap":
        columns = lines[i].split(b"\t")
        if len(columns) > 1:
            a, b = rng.sample(range(len(columns)), 2)
            columns[a], columns[b] = columns[b], columns[a]
        lines[i] = b"\t".join(columns)
    elif kind == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return b"".join(line + b"\n" for line in lines)


def _mutate_text(rng: random.Random, text: str) -> str:
    """``text`` mutated as argv hands it on: a byte that is not UTF-8 arrives as a surrogate escape."""
    kind = rng.choice(("mutate", "undecodable", "bracket", "empty"))
    if kind == "empty":
        return ""
    if kind == "mutate":
        data = _mutate(rng, text.encode())
    else:
        data = _insert(rng, text.encode(), _UNDECODABLE if kind == "undecodable" else _BRACKETS)
    return data.decode("utf-8", "surrogateescape")


def _finite(text: str) -> float:
    """A JSON float or constant (``NaN``, ``Infinity``), which must be finite."""
    value = float(text)
    assert math.isfinite(value), f"non-finite number {text} in structured output"
    return value


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs for every subcommand, keyed by the names in ``COMMANDS``."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(root / name) for name in (*FILES, "trie", "scorer", "ed-dump", "el-dump")}
    paths.update(TEXTS)
    for name, text in FILES.items():
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    vocab = load_vocabulary(paths["vocab"], TASK_EXTRA_SPECIALS)
    pairs = [(encode(name, vocab), encode(name, vocab) + [EOS]) for name in CATALOG]
    save_table_scorer(train_table_scorer(pairs, 0.5, vocab.size), paths["scorer"])
    argv = [a.format(**paths, out=paths["trie"]) for a in COMMANDS["build-trie"]]
    assert main(argv) == 0
    for mode, command in (("ed", "disambiguate"), ("el", "link")):
        argv = [a.format(**paths) for a in COMMANDS[command]]
        assert main(argv + ["--format", "structured", "--out", paths[f"{mode}-dump"]]) == 0
    return paths


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_inputs_exit_0_or_1_with_an_error_line(inputs, tmp_path, capsys, command):
    template = COMMANDS[command]
    names = [a[1:-1] for a in template if a.startswith("{") and a != "{out}"]
    names.sort(key=lambda name: name in TEXTS)  # files first, so their mutations do not move when a text is added
    rng = random.Random(f"trie-decode input fuzz {command}")
    capsys.readouterr()
    for name in names:
        if name not in TEXTS:
            with open(inputs[name], "rb") as fh:
                original = fh.read()
        for _ in range(MUTATIONS_PER_INPUT):
            paths = dict(inputs)
            if name in TEXTS:
                paths[name] = _mutate_text(rng, TEXTS[name])
            else:
                paths[name] = str(tmp_path / name)
                with open(paths[name], "wb") as fh:
                    fh.write(_mutate(rng, original))
            out = str(tmp_path / "out.trie")
            argv = [a.format(**paths, out=out) for a in template]
            if command != "build-trie":
                argv += ["--format", "structured"]
            codes = set()
            for run in ([argv, argv + ["--out", out]] if name in TEXTS else [argv]):
                if os.path.exists(out):
                    os.remove(out)
                code = main(run)
                codes.add(code)
                captured = capsys.readouterr()
                context = f"{command} with mutated {name} {paths[name]!r}: exit {code}, stderr {captured.err!r}"
                assert code in (0, 1), context
                assert "Traceback" not in captured.err, context
                if code == 1:
                    assert captured.err.splitlines()[-1].startswith("error: "), context
                    assert not os.path.exists(out), context
                elif command != "build-trie":
                    written = captured.out if run is argv else Path(out).read_text(encoding="utf-8")
                    for line in written.splitlines():
                        json.loads(line, parse_float=_finite, parse_constant=_finite)
            assert len(codes) == 1, f"{command} with mutated {name} {paths[name]!r}: exits {sorted(codes)}"
