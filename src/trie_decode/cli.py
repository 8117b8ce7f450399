"""Command-line surface.

Results go to stdout (or ``--out``, written only on success), diagnostics
to stderr; the exit status is zero exactly when no error occurred.  An
:class:`InputError` or ``OSError`` ends a run in one ``error:`` line and exit 1;
any other exception is a bug and keeps its traceback.  Structured
output is JSON lines with sorted keys, so repeated runs are byte-identical
and the span dumps of ``link`` can be fed back to ``eval --predictions``.

The CLI registers the two mention-marker specials on every vocabulary it
loads, so ids are consistent across all subcommands of one installation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from contextlib import suppress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .beam import RankedResult
from .catalog import _catalog_ids, load_candidate_sets
from .markup import MarkupDocument, link_document, render_markup
from .metrics import RetrievalReport
from .scoring import OracleScorer, Scorer, UniformScorer, load_table_scorer
from .tasks import (
    LINK_CONFIG,
    TASK_EXTRA_SPECIALS,
    SuiteReport,
    TaskConfig,
    retrieve,
    run_eval_suite,
    score_dump,
)
from .trie import EntityTrie, _build_flat
from .vocab import EOS, InputError, Vocabulary, encode, load_vocabulary, read_rows


_T = TypeVar("_T")

# (beams, max_steps) defaults: ranking decodes one short name, linking a whole marked-up text
_RANK_DECODE = (TaskConfig.beams, TaskConfig.max_steps)
_LINK_DECODE = (LINK_CONFIG.beams, LINK_CONFIG.max_steps)


def _load_vocab(path: str) -> Vocabulary:
    return _from_file(lambda path: load_vocabulary(path, extra_specials=TASK_EXTRA_SPECIALS), path)


def _from_file(load: Callable[[str], _T], path: str, lines_only: bool = False) -> _T:
    """``load(path)``, whose :class:`InputError` names ``path``: ``PATH:LINE: message``, or ``PATH: message``
    when it names no line.  A message that starts with ``PATH:`` already, as a bad byte's does, is kept, and so,
    with ``lines_only``, is one that names no line, such as a decode's in a dataset run."""
    try:
        return load(path)
    except InputError as exc:
        if lines_only and exc.line is None:
            raise
        where = path if exc.line is None else f"{path}:{exc.line}"
        message = str(exc).removeprefix(f"line {exc.line}: ")
        raise InputError(message if message.startswith(f"{path}:") else f"{where}: {message}") from None


def _make_scorer(spec: str, vocab: Vocabulary) -> Scorer:
    if spec == "uniform":
        return UniformScorer(vocab.size)
    if spec.startswith("oracle:"):
        target = tuple(encode(spec[len("oracle:") :], vocab)) + (EOS,)
        return OracleScorer(target, vocab.size)
    return _from_file(load_table_scorer, spec)


def _load_decoder(args: argparse.Namespace) -> tuple[Vocabulary, Scorer, EntityTrie | None]:
    vocab = _load_vocab(args.vocab)
    scorer = _make_scorer(args.scorer, vocab)
    trie = _from_file(lambda path: EntityTrie(Path(path).read_bytes()), args.trie) if args.trie else None
    sizes = {"scorer": scorer.vocab_size, "trie": vocab.size if trie is None else trie.vocab_size}
    for what, size in sizes.items():
        if size != vocab.size:
            raise InputError(f"{what} has vocabulary size {size}, but {args.vocab} has {vocab.size}")
    return vocab, scorer, trie


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def _ranking_payloads(ranking: RankedResult) -> list[dict]:
    return [
        {
            "rank": rank,
            "name": entry.name,
            "raw_logprob": entry.raw_logprob,
            "normalized_score": entry.normalized_score,
        }
        for rank, entry in enumerate(ranking, start=1)
    ]


def _ranking_lines(ranking: RankedResult, fmt: str, prefix: str = "") -> list[str]:
    if fmt == "structured":
        return [_json_line(payload) for payload in _ranking_payloads(ranking)]
    lead = f"{prefix}\t" if prefix else ""
    return [f"{lead}{rank}\t{e.name}\t{e.normalized_score!r}" for rank, e in enumerate(ranking, start=1)]


def cmd_build_trie(args: argparse.Namespace, out: TextIO) -> int:
    """Write the trie to ``out``, the file under ``--out``, and its stats line to stdout."""
    vocab = _load_vocab(args.vocab)
    # every name reads back from its tokens, so equal names are exactly equal
    # sequences, and the trie's leaves count the distinct names
    ids, lengths = _from_file(lambda path: _catalog_ids(path, vocab), args.catalog)
    if not lengths:
        raise InputError(f"{args.catalog} holds no entity names")
    trie = _build_flat(ids, lengths, vocab.size)
    if len(lengths) > trie.leaf_count:
        print(f"skipped {len(lengths) - trie.leaf_count} duplicate name(s)", file=sys.stderr)
    blob = trie.serialize()
    out.buffer.write(blob)
    out.flush()  # a write that fails does so before the stats line
    print(f"leaves={trie.leaf_count} internal_nodes={trie.internal_node_count} bytes={len(blob)}")
    return 0


def cmd_retrieve(args: argparse.Namespace, out: TextIO) -> int:
    vocab, scorer, trie = _load_decoder(args)
    config = TaskConfig(args.beams, args.max_steps, length_normalize=args.length_normalize)
    ranking = retrieve(scorer, args.query, trie, config, vocab)
    for line in _ranking_lines(ranking, args.format):
        print(line, file=out)
    return 0


def _warn(diagnostics: Iterable[str], instance_id: str = "") -> None:
    for diagnostic in diagnostics:
        print(f"{instance_id}: {diagnostic}" if instance_id else diagnostic, file=sys.stderr)


def _run_suite(args: argparse.Namespace, mode: str, config: TaskConfig) -> SuiteReport:
    """Decode ``--dataset`` with :func:`run_eval_suite`, warning each outcome's diagnostics."""
    vocab, scorer, trie = _load_decoder(args)
    candidates = getattr(args, "candidates", None)
    candidate_sets = _from_file(load_candidate_sets, candidates) if candidates else None
    chunk_size = getattr(args, "chunk_size", None)
    suite = _from_file(
        lambda path: run_eval_suite(path, mode, scorer, vocab, config, trie, candidate_sets, chunk_size, args.jobs),
        args.dataset, lines_only=True,
    )
    for o in suite.outcomes:
        _warn(o.document.diagnostics if mode == "el" else o.ranking.diagnostics, o.instance_id)
    return suite


def cmd_disambiguate(args: argparse.Namespace, out: TextIO) -> int:
    config = TaskConfig(args.beams, args.max_steps, args.context_window, args.length_normalize)
    for o in _run_suite(args, "ed", config).outcomes:
        if args.format == "structured":
            payload = {"id": o.instance_id, "gold": o.gold, "predictions": _ranking_payloads(o.ranking)}
            print(_json_line(payload), file=out)
        else:
            for line in _ranking_lines(o.ranking, "text", prefix=o.instance_id):
                print(line, file=out)
    return 0


def _emit_document(doc: MarkupDocument, doc_id: str, fmt: str, out: TextIO) -> None:
    if fmt == "structured":
        payload = {
            "id": doc_id,
            "markup": render_markup(doc),
            "spans": [[s.start, s.length, s.entity] for s in doc.spans],
            "diagnostics": list(doc.diagnostics),
        }
        print(_json_line(payload), file=out)
    else:
        markup = render_markup(doc)
        print(f"{doc_id}\t{markup}" if doc_id else markup, file=out)


def cmd_link(args: argparse.Namespace, out: TextIO) -> int:
    if (args.text is None) == (args.dataset is None):
        raise InputError("exactly one of --text and --dataset is required")
    config = TaskConfig(args.beams, args.max_steps, length_normalize=args.length_normalize)
    if args.dataset is not None:
        for outcome in _run_suite(args, "el", config).outcomes:
            _emit_document(outcome.document, outcome.instance_id, args.format, out)
        return 0
    vocab, scorer, trie = _load_decoder(args)
    doc = link_document(scorer, args.text, trie, config.beam_config(), vocab, args.chunk_size)
    _warn(doc.diagnostics)
    _emit_document(doc, "", args.format, out)
    return 0


def _load_predictions(path: str) -> Iterator[tuple[str, dict]]:
    """``(path:line, record)`` for each JSON line of a structured dump."""
    for lineno, raw in read_rows(path):
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
            raise InputError(f"{path}:{lineno}: bad prediction record ({exc})") from None
        yield f"{path}:{lineno}", record


def cmd_eval(args: argparse.Namespace, out: TextIO) -> int:
    # built on both paths, so a decode flag out of range fails with or without --predictions
    beams, max_steps = _LINK_DECODE if args.mode == "el" else _RANK_DECODE
    beams = beams if args.beams is None else args.beams
    max_steps = max_steps if args.max_steps is None else args.max_steps
    config = TaskConfig(beams, max_steps, args.context_window, args.length_normalize)
    if args.predictions:
        vocab, records = _load_vocab(args.vocab), _load_predictions(args.predictions)
        suite = _from_file(lambda path: score_dump(path, args.mode, vocab, records), args.dataset, lines_only=True)
    elif not args.scorer:
        raise InputError("--scorer is required unless --predictions is given")
    else:
        suite = _run_suite(args, args.mode, config)
    for line in _report_lines(suite, args.format):
        print(line, file=out)
    return 0


def _report_lines(suite: SuiteReport, fmt: str) -> list[str]:
    """One report for in-process and from-dump eval alike."""
    report = suite.report
    if isinstance(report, RetrievalReport):
        metrics = {"r_precision_mean": report.mean}
        counts = {"queries": len(report.per_query)}
    else:
        metrics = {"micro_precision": report.precision, "micro_recall": report.recall, "micro_f1": report.f1}
        if suite.accuracy is not None:
            metrics = {"accuracy": suite.accuracy, **metrics}
        counts = {"tp": report.tp, "fp": report.fp, "fn": report.fn}
    by_match = {
        match.value: {"instances": n, "correct": correct, "accuracy": correct / n}
        for match, (n, correct) in (suite.by_match or {}).items()
    }
    if fmt == "structured":
        extra = {} if suite.by_match is None else {"by_match": by_match}
        return [_json_line({"metrics": metrics, "counts": counts, **extra})]
    lines = [f"{key}={value:.2f}" for key, value in metrics.items()]
    return lines + [f"accuracy_{match}={row['accuracy']:.2f}" for match, row in by_match.items()]


def _add_beam_options(parser: argparse.ArgumentParser, beams: int | None, max_steps: int | None) -> None:
    parser.add_argument("--beams", type=int, default=beams, help="beam width")
    parser.add_argument("--max-steps", type=int, default=max_steps, help="decode-length cap")
    parser.add_argument(
        "--length-normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="divide scores by sequence length for ranking",
    )


def _add_format_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--out", default=None, help="write results here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trie-decode",
        description="Entity retrieval by constrained generation over a name trie.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-trie", help="compile a catalog into a binary trie")
    p.add_argument("catalog", help="catalog file, one entity name per line")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="output path for the binary trie")
    p.set_defaults(func=cmd_build_trie)

    p = sub.add_parser("retrieve", help="rank catalog entities against a query")
    p.add_argument("--query", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--trie", required=True)
    p.add_argument("--scorer", required=True, help="uniform | oracle:<text> | table file path")
    _add_beam_options(p, *_RANK_DECODE)
    _add_format_option(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("disambiguate", help="rank entities for flagged mentions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--trie", default=None, help="full-catalog trie (fallback when no candidates)")
    p.add_argument("--scorer", required=True)
    p.add_argument("--candidates", default=None, help="candidate-set file keyed by mention id")
    p.add_argument("--context-window", type=int, default=TaskConfig.context_window)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the dataset")
    _add_beam_options(p, *_RANK_DECODE)
    _add_format_option(p)
    p.set_defaults(func=cmd_disambiguate)

    p = sub.add_parser("link", help="annotate text with entity links")
    p.add_argument("--text", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--vocab", required=True)
    p.add_argument("--trie", required=True)
    p.add_argument("--scorer", required=True)
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the dataset")
    _add_beam_options(p, *_LINK_DECODE)
    _add_format_option(p)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("eval", help="run a dataset and report metrics")
    p.add_argument("--mode", choices=("ed", "dr", "el"), required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--trie", default=None)
    p.add_argument("--scorer", default=None)
    p.add_argument("--candidates", default=None)
    p.add_argument("--predictions", default=None, help="structured dump to evaluate instead of decoding")
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--context-window", type=int, default=TaskConfig.context_window)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the dataset")
    _add_beam_options(p, None, None)
    _add_format_option(p)
    p.set_defaults(func=cmd_eval)

    return parser


class _OutFile(io.FileIO):
    """The file under ``--out``: a write that fails names ``path``, as a failed open does."""

    def __init__(self, file: int | str, path: str) -> None:
        super().__init__(file, "w")
        self.path = path

    def write(self, data) -> int | None:
        try:
            return super().write(data)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self.path) from None


def _open_out(path: str) -> tuple[TextIO, str | None]:
    """A text file for ``--out path``, whose ``buffer`` takes bytes, and the name to move over ``path``'s target
    on success: a new file beside the target, with the target's mode if it is a file.  The file stdout is open on
    is stdout, and a target that is no file (``/dev/null``, a pipe) is written in place; the name is then None.
    An ``OSError`` names ``path``."""
    try:
        with suppress(OSError, ValueError):  # a missing path, or a stdout with no descriptor, as under a capture
            if os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno())):
                return sys.stdout, None
        if os.path.exists(path) and not os.path.isfile(path):  # each follows a link, /dev/stdout's to a pipe too
            raw, temp = _OutFile(path, path), None
        else:
            target = os.path.realpath(path)  # a symlink is written through, as opening it would
            temp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.urandom(6).hex()}.tmp")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            with suppress(FileNotFoundError):
                os.chmod(fd, os.stat(target).st_mode & 0o7777)
            raw = _OutFile(fd, path)
        return io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8"), temp
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out: TextIO = sys.stdout
    temp = None  # written as the command runs, moved over --out on exit 0 and removed otherwise
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InputError(f"jobs must be at least 1, got {args.jobs}")
        # checked here, not only where a chunk is cut, so no mode or path ignores it
        if getattr(args, "chunk_size", None) is not None and args.chunk_size < 1:
            raise InputError("chunk size must be at least 1")
        # argv passes a byte that is not UTF-8 on as a lone surrogate, which no output can encode
        scorer = getattr(args, "scorer", None) or ""
        texts = {"--query": getattr(args, "query", None), "--text": getattr(args, "text", None),
                 "--scorer": scorer if scorer.startswith("oracle:") else None}
        for flag, text in texts.items():
            if bad := re.search("[\ud800-\udfff]", text or ""):
                raise InputError(f"{flag} is not UTF-8 ({bad.group()!r} at offset {bad.start()})")
        if getattr(args, "out", None) is not None:
            out, temp = _open_out(args.out)
        status = args.func(args, out)
        if out is not sys.stdout:
            out.close()
        if temp and status == 0:
            try:
                os.replace(temp, os.path.realpath(args.out))
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, args.out) from None
            temp = None
        return status
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if out is not sys.stdout:
            with suppress(OSError):  # a write that failed fails again as close flushes what it left
                out.close()
        if temp:
            with suppress(OSError):
                os.remove(temp)


if __name__ == "__main__":
    sys.exit(main())
