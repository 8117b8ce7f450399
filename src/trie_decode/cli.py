"""Command-line surface.

Results go to stdout (or ``--out``, written only on success), diagnostics
to stderr; the exit status is zero exactly when no error occurred.  Structured
output is JSON lines with sorted keys, so repeated runs are byte-identical
and the span dumps of ``link`` can be fed back to ``eval --predictions``.

The CLI registers the two mention-marker specials on every vocabulary it
loads, so ids are consistent across all subcommands of one installation.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Iterable, Iterator, Sequence, TextIO

from .beam import BeamConfig, RankedResult
from .catalog import load_candidate_sets, load_catalog
from .markup import MarkupDocument, link_document, render_markup
from .metrics import RetrievalReport
from .scoring import OracleScorer, Scorer, UniformScorer, load_table_scorer
from .tasks import (
    TASK_EXTRA_SPECIALS,
    SuiteReport,
    TaskConfig,
    retrieve,
    run_eval_suite,
    score_dump,
)
from .trie import EntityTrie, build_trie
from .vocab import EOS, Vocabulary, decode, encode, load_vocabulary, read_rows


class CliError(ValueError):
    pass


def _load_vocab(path: str) -> Vocabulary:
    return load_vocabulary(path, extra_specials=TASK_EXTRA_SPECIALS)


def _load_trie(path: str) -> EntityTrie:
    with open(path, "rb") as fh:
        return EntityTrie.deserialize(fh.read())


def _make_scorer(spec: str, vocab: Vocabulary) -> Scorer:
    if spec == "uniform":
        return UniformScorer(vocab.size)
    if spec.startswith("oracle:"):
        target = tuple(encode(spec[len("oracle:") :], vocab)) + (EOS,)
        return OracleScorer(target, vocab.size)
    return load_table_scorer(spec)


def _load_decoder(args: argparse.Namespace) -> tuple[Vocabulary, Scorer, EntityTrie | None]:
    vocab = _load_vocab(args.vocab)
    scorer = _make_scorer(args.scorer, vocab)
    trie = _load_trie(args.trie) if args.trie else None
    sizes = {"scorer": scorer.vocab_size, "trie": vocab.size if trie is None else trie.vocab_size}
    for what, size in sizes.items():
        if size != vocab.size:
            raise CliError(f"{what} has vocabulary size {size}, but {args.vocab} has {vocab.size}")
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
    vocab = _load_vocab(args.vocab)
    catalog, duplicates = load_catalog(args.catalog, vocab)
    if duplicates:
        print(f"skipped {duplicates} duplicate name(s)", file=sys.stderr)
    for record in catalog:
        read_back = decode(record.tokens, vocab)
        if read_back != record.name:
            raise CliError(f"catalog name {record.name!r} reads back as {read_back!r}, so no decode can emit it")
    trie = build_trie(catalog.token_sequences(), vocab.size)
    blob = trie.serialize()
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(
        f"leaves={trie.leaf_count} internal_nodes={trie.internal_node_count} bytes={len(blob)}",
        file=out,
    )
    return 0


def cmd_retrieve(args: argparse.Namespace, out: TextIO) -> int:
    vocab, scorer, trie = _load_decoder(args)
    config = TaskConfig(args.beams, args.max_steps, length_normalize=args.length_normalize)
    ranking = retrieve(scorer, args.query, trie, config, vocab, max_steps_name="--max-steps")
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
    candidate_sets = load_candidate_sets(candidates) if candidates else None
    suite = run_eval_suite(
        args.dataset, mode, scorer, vocab, config, trie, candidate_sets,
        chunk_size=getattr(args, "chunk_size", None), jobs=args.jobs,
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
        raise CliError("exactly one of --text and --dataset is required")
    if args.dataset is not None:
        config = TaskConfig(args.beams, args.max_steps, length_normalize=args.length_normalize)
        for outcome in _run_suite(args, "el", config).outcomes:
            _emit_document(outcome.document, outcome.instance_id, args.format, out)
        return 0
    vocab, scorer, trie = _load_decoder(args)
    config = BeamConfig(args.beams, args.max_steps, args.length_normalize)
    doc = link_document(scorer, args.text, trie, config, vocab, args.chunk_size)
    _warn(doc.diagnostics)
    _emit_document(doc, "", args.format, out)
    return 0


def _load_predictions(path: str) -> Iterator[tuple[str, dict]]:
    """``(path:line, record)`` for each JSON line of a structured dump."""
    for lineno, raw in read_rows(path):
        try:
            record = json.loads(raw)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad prediction record ({exc})") from None
        yield f"{path}:{lineno}", record


def cmd_eval(args: argparse.Namespace, out: TextIO) -> int:
    if args.predictions:
        suite = score_dump(args.dataset, args.mode, _load_vocab(args.vocab), _load_predictions(args.predictions))
    elif not args.scorer:
        raise CliError("--scorer is required unless --predictions is given")
    else:
        # linking runs default to the wider decode budget; ranking modes stay small
        beams = args.beams if args.beams is not None else (6 if args.mode == "el" else 10)
        max_steps = args.max_steps if args.max_steps is not None else (384 if args.mode == "el" else 15)
        config = TaskConfig(beams, max_steps, args.context_window, args.length_normalize)
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
    if fmt == "structured":
        return [_json_line({"metrics": metrics, "counts": counts})]
    return [f"{key}={value:.2f}" for key, value in metrics.items()]


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
    _add_beam_options(p, beams=10, max_steps=15)
    _add_format_option(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("disambiguate", help="rank entities for flagged mentions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--trie", default=None, help="full-catalog trie (fallback when no candidates)")
    p.add_argument("--scorer", required=True)
    p.add_argument("--candidates", default=None, help="candidate-set file keyed by mention id")
    p.add_argument("--context-window", type=int, default=384)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the dataset")
    _add_beam_options(p, beams=10, max_steps=15)
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
    _add_beam_options(p, beams=6, max_steps=384)
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
    p.add_argument("--context-window", type=int, default=384)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for the dataset")
    _add_beam_options(p, beams=None, max_steps=None)
    _add_format_option(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    buffered = getattr(args, "out", None) and args.command != "build-trie"
    out: TextIO = io.StringIO() if buffered else sys.stdout
    try:
        if getattr(args, "jobs", 1) < 1:
            raise CliError(f"jobs must be at least 1, got {args.jobs}")
        status = args.func(args, out)
        if buffered and status == 0:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        return status
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
