"""Task pipelines: mention disambiguation, query retrieval, and linking runs.

Dataset formats are line-oriented and tab-separated:

* disambiguation: ``id TAB context TAB mention_start TAB mention_len TAB gold
  TAB candidates`` with character offsets into the context and an optional
  pipe-separated candidate list;
* retrieval: ``id TAB query TAB gold1|gold2|...``;
* linking: ``id TAB source TAB gold-markup``.

Mention flagging wraps the mention in two reserved marker tokens and trims
the context to the configured window, keeping the mention centered when
possible and trimming more from the left on odd remainders.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Iterable, Sequence, TypeVar

from .beam import BeamConfig, RankedEntry, RankedResult, rank_entities
from .catalog import CandidateSet
from .markup import MarkupDocument, MarkupError, SpanAnnotation, link_document, parse_markup
from .metrics import (
    EvalReport,
    MatchType,
    RetrievalReport,
    ed_accuracy,
    ed_report,
    match_type,
    micro_f1_spans,
    r_precision,
)
from .scoring import Scorer
from .trie import EntityTrie, build_trie
from .vocab import InputError, TokenId, Vocabulary, decode, encode, encode_with_offsets, read_rows

START_ENT_STRING = "[START_ENT]"
END_ENT_STRING = "[END_ENT]"
TASK_EXTRA_SPECIALS = (START_ENT_STRING, END_ENT_STRING)

_T = TypeVar("_T")
_R = TypeVar("_R")


class TaskError(InputError):
    """Raised for invalid task settings, dataset lines or instances."""


@dataclass(frozen=True)
class TaskConfig:
    beams: int = 10
    max_steps: int = 15
    context_window: int = 384
    length_normalize: bool = True

    def __post_init__(self) -> None:
        if self.beams < 1 or self.max_steps < 1 or self.context_window < 3:
            raise TaskError("beams and max_steps must be >= 1, context_window >= 3")

    def beam_config(self) -> BeamConfig:
        return BeamConfig(self.beams, self.max_steps, self.length_normalize)


@dataclass(frozen=True)
class EDInstance:
    """One flagged-mention disambiguation instance (token-level span)."""

    instance_id: str
    context_tokens: tuple[TokenId, ...]
    mention_start: int
    mention_length: int
    gold: str
    candidates: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.mention_length < 1:
            raise TaskError("mention must span at least one token")
        if self.mention_start < 0 or self.mention_start + self.mention_length > len(
            self.context_tokens
        ):
            raise TaskError("mention span outside the context")

    def mention_tokens(self) -> tuple[TokenId, ...]:
        return self.context_tokens[self.mention_start : self.mention_start + self.mention_length]


def flag_mention(instance: EDInstance, vocab: Vocabulary, config: TaskConfig) -> tuple[TokenId, ...]:
    """Insert the mention markers and trim to the context window.

    The window counts the two marker tokens.  The mention itself is always
    kept verbatim; surrounding context is trimmed symmetrically, spilling a
    short side's unused budget to the other side.
    """
    start_id = vocab.extra_special_id(START_ENT_STRING)
    end_id = vocab.extra_special_id(END_ENT_STRING)
    mention = instance.mention_tokens()
    if len(mention) + 2 > config.context_window:
        raise TaskError(
            f"mention of {len(mention)} tokens does not fit a window of {config.context_window}"
        )
    left = instance.context_tokens[: instance.mention_start]
    right = instance.context_tokens[instance.mention_start + instance.mention_length :]
    budget = config.context_window - len(mention) - 2
    keep_left = min(len(left), max(budget // 2, budget - len(right)))
    keep_right = min(len(right), max(budget - budget // 2, budget - len(left)))
    return left[len(left) - keep_left :] + (start_id,) + mention + (end_id,) + right[:keep_right]


def disambiguate(
    scorer: Scorer,
    instance: EDInstance,
    vocab: Vocabulary,
    config: TaskConfig,
    trie: EntityTrie | None = None,
) -> RankedResult:
    """Rank entities for a flagged mention.

    With a candidate set present the constraint trie is built from exactly
    those names; otherwise the full-catalog ``trie`` is used, and a catalog
    name too long to finish within ``max_steps`` raises :class:`TaskError`.
    A candidate name too long to finish is left out of the ranking, which may
    then be empty, and named in the ranking's ``diagnostics``.
    """
    flagged = flag_mention(instance, vocab, config)
    if instance.candidates:
        encoded = {name: tuple(encode(name, vocab)) for name in instance.candidates}
        constraint_trie = build_trie(encoded.values(), vocab.size)
    elif trie is not None:
        constraint_trie = _finishable(trie, config)
    else:
        raise TaskError(f"instance {instance.instance_id!r}: no candidate set and no catalog trie")
    ranking = rank_entities(scorer, flagged, constraint_trie, config.beam_config(), vocab)
    if constraint_trie.max_depth >= config.max_steps:  # a candidate trie: _finishable passed the catalog
        ranking = replace(ranking, diagnostics=tuple(
            f"candidate {name!r} ({len(tokens)} tokens) cannot finish within max_steps={config.max_steps}"
            for name, tokens in encoded.items()
            if len(tokens) >= config.max_steps
        ))
    return ranking


def retrieve(
    scorer: Scorer,
    query: str,
    trie: EntityTrie,
    config: TaskConfig,
    vocab: Vocabulary,
    max_steps_name: str = "max_steps",
) -> RankedResult:
    """Rank the full catalog against a free-text query.

    Raises :class:`TaskError` when a catalog name is too long to finish
    within ``max_steps``, rather than leave it silently out of the ranking;
    the message spells the budget ``max_steps_name``.
    """
    trie = _finishable(trie, config, max_steps_name)
    return rank_entities(scorer, encode(query, vocab), trie, config.beam_config(), vocab)


def _finishable(trie: EntityTrie, config: TaskConfig, max_steps_name: str = "max_steps") -> EntityTrie:
    """``trie``, once its longest name plus EOS fits in ``max_steps``."""
    if trie.max_depth >= config.max_steps:
        raise TaskError(
            f"{max_steps_name} {config.max_steps} cannot finish the longest name "
            f"({trie.max_depth} tokens)"
        )
    return trie


# --- dataset loading -----------------------------------------------------


def _mention_token_span(
    context: str, char_start: int, char_len: int, vocab: Vocabulary, line: int
) -> tuple[tuple[TokenId, ...], int, int]:
    token_spans = encode_with_offsets(context, vocab)
    if char_len < 1 or char_start < 0 or char_start + char_len > len(context):
        raise TaskError("mention character span outside the context", line)
    inside = [
        i
        for i, span in enumerate(token_spans)
        if span.start >= char_start and span.end <= char_start + char_len
    ]
    if (
        not inside
        or token_spans[inside[0]].start != char_start
        or token_spans[inside[-1]].end != char_start + char_len
        or inside[-1] - inside[0] + 1 != len(inside)
    ):
        raise TaskError("mention does not align to token boundaries", line)
    tokens = tuple(span.token for span in token_spans)
    return tokens, inside[0], len(inside)


def load_ed_dataset(
    source: str | Iterable[str],
    vocab: Vocabulary,
    candidate_sets: dict[str, CandidateSet] | None = None,
) -> list[EDInstance]:
    instances = []
    for lineno, raw in read_rows(source):
        parts = raw.split("\t")
        if len(parts) not in (5, 6):
            raise TaskError("expected `id TAB context TAB start TAB len TAB gold [TAB candidates]`", lineno)
        instance_id, context, start_s, len_s, gold = parts[:5]
        try:
            char_start, char_len = int(start_s), int(len_s)
        except ValueError:
            raise TaskError("mention offsets must be integers", lineno) from None
        if not gold:
            raise TaskError("empty gold entity", lineno)
        candidates: tuple[str, ...] | None = None
        if len(parts) == 6 and parts[5]:
            candidates = tuple(n for n in parts[5].split("|") if n)
            if not candidates:
                raise TaskError("empty candidate set", lineno)
        elif candidate_sets is not None and instance_id in candidate_sets:
            candidates = candidate_sets[instance_id].names
        tokens, tok_start, tok_len = _mention_token_span(context, char_start, char_len, vocab, lineno)
        instances.append(EDInstance(instance_id, tokens, tok_start, tok_len, gold, candidates))
    return instances


def load_dr_dataset(source: str | Iterable[str]) -> list[tuple[str, str, tuple[str, ...]]]:
    queries = []
    for lineno, raw in read_rows(source):
        parts = raw.split("\t")
        if len(parts) != 3:
            raise TaskError("expected `id TAB query TAB gold1|gold2|...`", lineno)
        instance_id, query, joined = parts
        gold = tuple(n for n in joined.split("|") if n)
        if not gold:
            raise TaskError("empty gold set", lineno)
        queries.append((instance_id, query, gold))
    return queries


def load_el_dataset(source: str | Iterable[str]) -> list[tuple[str, str, str]]:
    documents = []
    for lineno, raw in read_rows(source):
        parts = raw.split("\t")
        if len(parts) != 3:
            raise TaskError("expected `id TAB source TAB gold-markup`", lineno)
        documents.append((parts[0], parts[1], parts[2]))
    return documents


# --- suite runner --------------------------------------------------------


@dataclass(frozen=True)
class EDOutcome:
    instance_id: str
    gold: str
    ranking: RankedResult
    match: MatchType

    @property
    def predicted(self) -> str | None:
        return self.ranking[0].name if len(self.ranking) else None


@dataclass(frozen=True)
class DROutcome:
    instance_id: str
    gold: tuple[str, ...]
    ranking: RankedResult
    r_precision: float


@dataclass(frozen=True)
class ELOutcome:
    instance_id: str
    document: MarkupDocument
    gold_spans: tuple[SpanAnnotation, ...]


@dataclass(frozen=True)
class SuiteReport:
    mode: str
    report: EvalReport | RetrievalReport
    outcomes: tuple[EDOutcome, ...] | tuple[DROutcome, ...] | tuple[ELOutcome, ...]
    accuracy: float | None = None


_worker_fn: Callable | None = None  # set only in a pool worker, by its initializer


def _install_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker(item):
    return _worker_fn(item)


def parallel_map(fn: Callable[[_T], _R], items: Sequence[_T], jobs: int) -> list[_R]:
    """``[fn(item) for item in items]`` on up to ``jobs`` forked processes.

    Workers inherit ``fn`` and all it closes over (scorer, trie, vocabulary)
    through fork; only items, results and exceptions are pickled.  Fork is
    unsafe in a process that runs other threads.  Raises :class:`TaskError`
    when ``jobs`` is below 1.
    """
    if jobs < 1:
        raise TaskError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here, so that sequential runs do not pay for loading them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        raise TaskError("jobs > 1 needs the fork start method, which this platform lacks") from None
    workers = min(jobs, len(items))
    # about four chunks per worker, as multiprocessing.Pool.map cuts them
    with ProcessPoolExecutor(workers, context, _install_worker, (fn,)) as pool:
        try:
            return list(pool.map(_call_worker, items, chunksize=-(-len(items) // (4 * workers))))
        except BrokenProcessPool:
            raise TaskError("a worker process died before finishing its items") from None


def run_eval_suite(
    source: str | Iterable[str],
    mode: str,
    scorer: Scorer,
    vocab: Vocabulary,
    config: TaskConfig = TaskConfig(),
    trie: EntityTrie | None = None,
    candidate_sets: dict[str, CandidateSet] | None = None,
    chunk_size: int | None = None,
    jobs: int = 1,
) -> SuiteReport:
    """Run a dataset through the matching pipeline and aggregate metrics.

    Outcomes are ordered by instance id regardless of completion order, so
    repeated runs (and shuffled datasets) produce identical reports.
    """
    mode = mode.lower()
    decoders = {
        "ed": lambda instance: disambiguate(scorer, instance, vocab, config, trie),
        "dr": lambda row: retrieve(scorer, row[1], trie, config, vocab),
        "el": lambda row: link_document(scorer, row[1], trie, config.beam_config(), vocab, chunk_size),
    }
    if mode not in decoders:
        raise TaskError(f"unknown mode: {mode!r} (expected ed, dr, or el)")
    if mode != "ed" and trie is None:
        raise TaskError(f"{'retrieval' if mode == 'dr' else 'linking'} requires a catalog trie")
    rows = _load_rows(source, mode, vocab, candidate_sets)
    return _suite_report(mode, rows, parallel_map(decoders[mode], rows, jobs), vocab)


def score_dump(
    source: str | Iterable[str], mode: str, vocab: Vocabulary, records: Iterable[tuple[str, dict]]
) -> SuiteReport:
    """Score the ``(place, JSON record)`` pairs of an ed or el dump against a dataset.

    The k-th record of an id goes with the k-th dataset row of that id.  A record left over,
    a span offset that is no int, a name that is no string or a span past the source is an error.
    """
    mode = mode.lower()
    if mode not in ("ed", "el"):
        raise TaskError("a dump can be scored in ed and el modes only")
    dumped: dict[str, list] = {}
    for where, record in records:
        try:
            if mode == "ed":
                result = RankedResult(tuple(
                    RankedEntry(_json(p["name"], str), p["raw_logprob"], p["normalized_score"], ())
                    for p in record["predictions"]
                ))
            else:
                spans = record["spans"]
                result = tuple(SpanAnnotation(_json(s, int), _json(l, int), _json(e, str)) for s, l, e in spans)
            dumped.setdefault(record["id"], []).append((where, result))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise TaskError(f"{where}: bad prediction record ({exc})") from None
    rows = _load_rows(source, mode, vocab)
    results = []
    for row in rows:
        instance_id = row.instance_id if mode == "ed" else row[0]
        if not dumped.get(instance_id):
            raise TaskError(f"no prediction for instance {instance_id!r}")
        result = dumped[instance_id].pop(0)[1]
        try:
            results.append(result if mode == "ed" else MarkupDocument(row[1], result))
        except MarkupError as exc:
            raise TaskError(f"instance {instance_id!r}: bad predicted spans ({exc})") from None
    for instance_id, left in dumped.items():
        if left:
            raise TaskError(f"{left[0][0]}: no dataset row left for this record of instance {instance_id!r}")
    return _suite_report(mode, rows, results, vocab)


def _json(value, kind: type):
    """``value`` if JSON gave it as a ``kind``; a bool is no int here."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _load_rows(
    source: str | Iterable[str], mode: str, vocab: Vocabulary, candidate_sets: dict | None = None
) -> list:
    """A dataset's rows; a linking row holds its gold spans in place of the markup."""
    if mode == "ed":
        rows = load_ed_dataset(source, vocab, candidate_sets)
    elif mode == "dr":
        rows = load_dr_dataset(source)
    else:
        rows = [(i, text, _gold_spans(i, text, markup)) for i, text, markup in load_el_dataset(source)]
    if not rows:
        raise TaskError("empty dataset")
    return rows


def _gold_spans(instance_id: str, text: str, markup: str) -> tuple[SpanAnnotation, ...]:
    try:
        return tuple(parse_markup(markup, text))
    except MarkupError as exc:
        raise TaskError(f"instance {instance_id!r}: bad gold markup ({exc})") from None


def _suite_report(mode: str, rows: list, results: list, vocab: Vocabulary) -> SuiteReport:
    """Pair each row with its decoded or dumped result, order by id and aggregate."""
    if mode == "ed":
        outcomes = [
            EDOutcome(i.instance_id, i.gold, ranking, match_type(decode(i.mention_tokens(), vocab), i.gold))
            for i, ranking in zip(rows, results)
        ]
    elif mode == "dr":
        outcomes = [DROutcome(i, gold, r, r_precision(set(gold), r)) for (i, _, gold), r in zip(rows, results)]
    else:
        outcomes = [ELOutcome(i, document, gold) for (i, _, gold), document in zip(rows, results)]
    # the sort is stable, so outcomes with one id keep the dataset's order
    outcomes = tuple(sorted(outcomes, key=attrgetter("instance_id")))
    if mode == "ed":
        gold = [o.gold for o in outcomes]
        predicted = [o.predicted or "" for o in outcomes]
        return SuiteReport(mode, ed_report(gold, predicted), outcomes, ed_accuracy(gold, predicted))
    if mode == "dr":
        return SuiteReport(mode, RetrievalReport.from_scores(o.r_precision for o in outcomes), outcomes)
    report = micro_f1_spans([o.gold_spans for o in outcomes], [o.document.spans for o in outcomes])
    return SuiteReport(mode, report, outcomes)
