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

import os
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, TypeVar

from .beam import BeamConfig, RankedEntry, RankedResult, _entries, _search, rank_entities
from .catalog import CandidateSet
from .markup import MarkupDocument, MarkupError, SpanAnnotation, link_document, parse_markup
from .metrics import (
    EvalReport,
    MatchType,
    RetrievalReport,
    ed_report,
    match_type,
    micro_f1_spans,
    r_precision,
)
from .scoring import Scorer
from .trie import EntityTrie
from .vocab import EOS, InputError, TokenId, Vocabulary, decode, encode, read_rows

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


# the default of a linking decode, which generates a whole marked-up text, not one name
LINK_CONFIG = TaskConfig(beams=6, max_steps=384)


class PackedIds(Sequence[TokenId]):
    """A read-only ``Sequence[int]`` of token ids packed into one ``bytes``, in the machine's byte order.

    ``PackedIds(ids)`` takes 2 bytes per id when every id is below ``2**16``,
    else 4; an id that is no int in ``0..2**32 - 1`` raises :class:`TaskError`
    naming it.  It equals the tuple of its ids, and another ``PackedIds`` of
    the same ids whatever their width, and hashes as that tuple; an index is
    an int, a slice a tuple of ints.  It pickles, to be read back on a
    machine of the same byte order.
    """

    __slots__ = ("_data", "_width")

    def __init__(self, ids: Iterable[TokenId]) -> None:
        ids = ids if isinstance(ids, (tuple, list)) else tuple(ids)
        for width, code in ((2, "H"), (4, "I")):
            try:
                self._data, self._width = array(code, ids).tobytes(), width
                return
            except OverflowError:  # an id past this width, or below 0
                continue
            except TypeError:  # an id that is no int
                break
        for token in ids:
            try:
                array("I", (token,))
            except (TypeError, OverflowError):
                raise TaskError(f"token id {token!r} is not an int in 0..2**32-1") from None

    @classmethod
    def _of(cls, data: bytes, width: int) -> PackedIds:
        """The ids packed in ``data``, ``width`` (2 or 4) bytes each, with no check."""
        ids = cls.__new__(cls)
        ids._data, ids._width = data, width
        return ids

    def _view(self) -> memoryview:
        return memoryview(self._data).cast("H" if self._width == 2 else "I")

    @property
    def ids(self) -> tuple[TokenId, ...]:
        """The ids, unpacked anew on each read."""
        return tuple(self._view().tolist())

    def __iter__(self) -> Iterator[TokenId]:
        return iter(self._view().tolist())

    def __len__(self) -> int:
        return len(self._data) // self._width

    def __getitem__(self, index: int | slice) -> TokenId | tuple[TokenId, ...]:
        item = self._view()[index]
        return tuple(item.tolist()) if isinstance(index, slice) else item

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedIds):
            other = other.ids
        return self.ids == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"PackedIds({self.ids!r})"


def _id_bytes(vocab: Vocabulary) -> tuple[dict[str, bytes], int]:
    """Each ordinary token's id as :class:`PackedIds` packs it for ``vocab``, and that width."""
    width = 2 if vocab.size <= 1 << 16 else 4
    return {token: tid.to_bytes(width, sys.byteorder) for token, tid in vocab._table.items()}, width


@dataclass(frozen=True, slots=True, init=False)
class EDInstance:
    """One flagged-mention disambiguation instance (token-level span).

    ``context_tokens`` is a :class:`PackedIds`, 2 or 4 bytes per id; a tuple
    or list of ids is packed into one.  ``mention_start`` and
    ``mention_length`` must be ints (not bools) that put at least one token,
    all inside the context, in the mention.  ``candidates`` is a
    :class:`CandidateSet`, which splits its text on each read, or ``None``
    for a decode over the full catalog.  A tuple or list of names is wrapped
    in one, and an empty one is stored as ``None``; a ``str`` is refused.
    """

    instance_id: str
    context_tokens: PackedIds
    mention_start: int
    mention_length: int
    gold: str
    candidates: CandidateSet | None = None

    def __init__(
        self, instance_id: str, context_tokens: PackedIds | Iterable[TokenId], mention_start: int, mention_length: int,
        gold: str, candidates: CandidateSet | Iterable[str] | None = None,
    ) -> None:
        # the fields are set through the slots: a frozen dataclass's own __init__ takes half as long again
        if not isinstance(context_tokens, PackedIds):  # a loaded context is packed already
            context_tokens = PackedIds(context_tokens)
        if candidates is not None and not isinstance(candidates, CandidateSet):
            candidates = CandidateSet(candidates) if candidates or isinstance(candidates, str) else None
        if type(mention_start) is not int or type(mention_length) is not int:
            raise TaskError(f"mention offsets must be ints, got {mention_start!r} and {mention_length!r}")
        if mention_length < 1:
            raise TaskError("mention must span at least one token")
        # the packed length read inline: PackedIds.__len__ would be a Python-level call per loaded row
        if mention_start < 0 or mention_start + mention_length > len(context_tokens._data) // context_tokens._width:
            raise TaskError("mention span outside the context")
        set_id, set_context, set_start, set_length, set_gold, set_candidates = _ED_SLOT_SETTERS
        set_id(self, instance_id)
        set_context(self, context_tokens)
        set_start(self, mention_start)
        set_length(self, mention_length)
        set_gold(self, gold)
        set_candidates(self, candidates)

    def mention_tokens(self) -> tuple[TokenId, ...]:
        return self.context_tokens[self.mention_start : self.mention_start + self.mention_length]


_ED_SLOT_SETTERS = tuple(getattr(EDInstance, name).__set__ for name in EDInstance.__slots__)


def flag_mention(instance: EDInstance, vocab: Vocabulary, config: TaskConfig) -> tuple[TokenId, ...]:
    """Insert the mention markers and trim to the context window.

    The window counts the two marker tokens.  The mention itself is always
    kept verbatim; surrounding context is trimmed symmetrically, spilling a
    short side's unused budget to the other side.  The kept ids are
    unpacked from the packed context in one slice, and the markers inserted.
    """
    start_id = vocab.extra_special_id(START_ENT_STRING)
    end_id = vocab.extra_special_id(END_ENT_STRING)
    start, length = instance.mention_start, instance.mention_length
    if length + 2 > config.context_window:
        raise TaskError(
            f"instance {instance.instance_id!r}: mention of {length} tokens does not fit a window of "
            f"{config.context_window}"
        )
    right = len(instance.context_tokens) - start - length
    budget = config.context_window - length - 2
    keep_left = min(start, max(budget // 2, budget - right))
    keep_right = min(right, max(budget - budget // 2, budget - start))
    flagged = instance.context_tokens._view()[start - keep_left : start + length + keep_right].tolist()
    flagged.insert(keep_left + length, end_id)
    flagged.insert(keep_left, start_id)
    return tuple(flagged)


def disambiguate(
    scorer: Scorer,
    instance: EDInstance,
    vocab: Vocabulary,
    config: TaskConfig,
    trie: EntityTrie | None = None,
) -> RankedResult:
    """Rank entities for a flagged mention.

    With a candidate set present the decode walks a small dict trie of
    exactly those names (no :class:`EntityTrie`), and each ranked entry carries
    its candidate's name as given, even where the name's tokens decode to
    other text (unknown words, extra whitespace).  A candidate name too long
    to finish within ``max_steps`` is left out of the search and its ranking,
    which may then be empty, and named in the ranking's ``diagnostics``; two
    distinct candidates that encode alike, or a candidate with no tokens,
    raise :class:`TaskError`.  Otherwise the full-catalog ``trie`` goes to
    :func:`rank_entities`, which raises :class:`BeamError` when a catalog name
    is too long to finish within ``max_steps``.
    """
    flagged = flag_mention(instance, vocab, config)
    if instance.candidates is None:
        if trie is None:
            raise TaskError(f"instance {instance.instance_id!r}: no candidate set and no catalog trie")
        return rank_entities(scorer, flagged, trie, config.beam_config(), vocab)
    names: dict[tuple[TokenId, ...], str] = {}
    finishable = []
    diagnostics = []
    for name in instance.candidates:
        tokens = tuple(encode(name, vocab))
        if not tokens:
            raise TaskError(f"instance {instance.instance_id!r}: candidate {name!r} has no tokens")
        known = names.get(tokens)
        if known == name:  # a repeated name is one candidate
            continue
        if known is not None:
            raise TaskError(
                f"instance {instance.instance_id!r}: candidates {known!r} and {name!r} "
                "encode to the same tokens"
            )
        names[tokens] = name
        if len(tokens) < config.max_steps:
            finishable.append(tokens)
        else:
            diagnostics.append(
                f"candidate {name!r} ({len(tokens)} tokens) cannot finish within max_steps={config.max_steps}"
            )
    pool = _search(scorer, flagged, _Candidates(finishable), config.beam_config())
    return RankedResult(_entries(pool, names.__getitem__), tuple(diagnostics))


class _Candidates:
    """The constraint of a candidate set: a trie of dicts over its distinct token sequences.

    A state is a node, which maps each next id to its child node and EOS to ``None`` where a
    sequence ends.  The sequences are inserted sorted, so each node's ids come out ascending,
    after EOS where one ends; :func:`encode` yields no SOS or EOS, so no sequence holds either.
    """

    def __init__(self, seqs: Iterable[tuple[TokenId, ...]]) -> None:
        self._root: dict = {}
        for seq in sorted(seqs):
            node = self._root
            for token in seq:
                node = node.setdefault(token, {})
            node[EOS] = None

    def start(self) -> dict:
        return self._root

    def final(self, node: dict) -> bool:
        return EOS in node

    def allowed(self, node: dict) -> list[TokenId]:
        ids = [*node]  # _memo_cut never records a list, whatever it holds
        return ids[1:] if EOS in node else ids  # EOS, where a sequence ends, is the first key

    def advance(self, node: dict, token: TokenId) -> dict:
        return node[token]


def retrieve(
    scorer: Scorer,
    query: str,
    trie: EntityTrie,
    config: TaskConfig,
    vocab: Vocabulary,
) -> RankedResult:
    """Rank the full catalog against a free-text query with :func:`rank_entities`, raising its ``BeamError``."""
    return rank_entities(scorer, encode(query, vocab), trie, config.beam_config(), vocab)


# --- dataset loading -----------------------------------------------------


def _cut_aligned(text: str, cut: int, vocab: Vocabulary) -> bool:
    """Whether the ids of ``text[:cut]`` and ``text[cut:]``, end to end, are those of ``text``.

    A cut on whitespace or at an end is aligned.  A cut inside a word is
    aligned iff the word's ids equal those of its two halves: greedy matching
    in a word depends only on the characters that follow, and each id spans a
    fixed number of characters (its string's, one for UNK).
    """
    if cut in (0, len(text)) or text[cut - 1].isspace() or text[cut].isspace():
        return True
    head, tail = text[:cut].rsplit(None, 1)[-1], text[cut:].split(None, 1)[0]
    return encode(head + tail, vocab) == encode(head, vocab) + encode(tail, vocab)


def _mention_token_span(
    context: str,
    char_start: int,
    char_len: int,
    vocab: Vocabulary,
    line: int,
    id_bytes: tuple[dict[str, bytes], int] | None = None,
) -> tuple[PackedIds, int, int]:
    """The context's ids, packed, with the mention's first id and id count.

    Whole-token path: when each word between single spaces is a token and
    each mention cut is at an end of the context or next to a space, the
    words' ids are the context's (a token is non-empty and holds no
    whitespace, so ``encode`` takes each such word whole), and the spaces
    before and inside the mention count its place and length.  The words'
    packed ids, from ``id_bytes`` (:func:`_id_bytes` of ``vocab``, made here
    when not given), are joined in one call.  Every other context takes the
    general path, which checks both cuts and encodes each of the three
    pieces once; only it refuses a mention that is not aligned.
    """
    end = char_start + char_len
    if char_len < 1 or char_start < 0 or end > len(context):
        raise TaskError("mention character span outside the context", line)
    if (char_start == 0 or context[char_start - 1] == " ") and (end == len(context) or context[end] == " "):
        table, width = _id_bytes(vocab) if id_bytes is None else id_bytes
        try:
            data = b"".join(map(table.__getitem__, context.split(" ")))
        except KeyError:  # a word that is no token, or the empty one next to another space or at an end
            pass
        else:
            ids = PackedIds._of(data, width)
            return ids, context.count(" ", 0, char_start), context.count(" ", char_start, end) + 1
    mention = context[char_start:end]
    space_edge = mention[0].isspace() or mention[-1].isspace()
    if space_edge or not (_cut_aligned(context, char_start, vocab) and _cut_aligned(context, end, vocab)):
        raise TaskError("mention does not align to token boundaries", line)
    before, ids = encode(context[:char_start], vocab), encode(mention, vocab)
    return PackedIds((*before, *ids, *encode(context[end:], vocab))), len(before), len(ids)


def load_ed_dataset(
    source: str | Iterable[str],
    vocab: Vocabulary,
    candidate_sets: dict[str, CandidateSet] | None = None,
) -> list[EDInstance]:
    """The instances of a disambiguation dataset, each context packed as :class:`PackedIds`.

    A context goes through :func:`_mention_token_span`'s two paths; the
    whole-token path joins packed ids from one table made per load, 2 bytes
    per id when ``vocab.size <= 2**16`` and 4 otherwise.  A sixth field is
    kept as a :class:`CandidateSet` of its text; with none, the row takes
    ``candidate_sets``' set of its id, if any.
    """
    id_bytes = _id_bytes(vocab)
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
        candidates: CandidateSet | None = None
        if len(parts) == 6 and parts[5]:
            candidates = CandidateSet._of_field(parts[5])
            if candidates is None:
                raise TaskError("empty candidate set", lineno)
        elif candidate_sets is not None:
            candidates = candidate_sets.get(instance_id)
        tokens, tok_start, tok_len = _mention_token_span(context, char_start, char_len, vocab, lineno, id_bytes)
        instances.append(EDInstance(instance_id, tokens, tok_start, tok_len, gold, candidates))
    return instances


def load_dr_dataset(source: str | Iterable[str]) -> list[tuple[str, str, tuple[str, ...]]]:
    queries = []
    for lineno, raw in read_rows(source):
        parts = raw.split("\t")
        if len(parts) != 3:
            raise TaskError("expected `id TAB query TAB gold1|gold2|...`", lineno)
        instance_id, query, joined = parts
        gold = tuple(filter(None, joined.split("|")))
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
    # ed only: (instances, correct) per match type that has instances, in enum order
    by_match: dict[MatchType, tuple[int, int]] | None = None


_worker_fn: Callable | None = None  # set only in a pool worker, by its initializer


def _install_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker(item):
    return _worker_fn(item)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[_T], _R], items: Sequence[_T], jobs: int) -> list[_R]:
    """``[fn(item) for item in items]`` on up to ``jobs`` forked processes, at most one per usable CPU.

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
    workers = min(jobs, len(items), _usable_cpus())
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
    config: TaskConfig | None = None,
    trie: EntityTrie | None = None,
    candidate_sets: dict[str, CandidateSet] | None = None,
    chunk_size: int | None = None,
    jobs: int = 1,
) -> SuiteReport:
    """Run a dataset through the matching pipeline and aggregate metrics.

    Outcomes are ordered by instance id regardless of completion order, so
    repeated runs (and shuffled datasets) produce identical reports.  With no
    ``config``, el mode decodes with :data:`LINK_CONFIG`, the others with
    ``TaskConfig()``.
    """
    mode = mode.lower()
    if config is None:
        config = LINK_CONFIG if mode == "el" else TaskConfig()
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
    a span offset that is no int, a score that is no number, a name that is no string or a span
    past the source is an error.
    """
    mode = mode.lower()
    if mode not in ("ed", "el"):
        raise TaskError("a dump can be scored in ed and el modes only")
    dumped: dict[str, list] = {}
    for where, record in records:
        try:
            if mode == "ed":
                result = RankedResult(tuple(
                    RankedEntry(
                        _json(p["name"], str), _json(p["raw_logprob"], int, float),
                        _json(p["normalized_score"], int, float), (),
                    )
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


def _json(value, *kinds: type):
    """``value`` if JSON gave it as one of ``kinds``; a bool is no int here."""
    if type(value) not in kinds:
        raise TypeError(f"expected {' or '.join(kind.__name__ for kind in kinds)}, got {value!r}")
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
        by_match = {
            match: (len(hits), sum(hits))
            for match in MatchType
            if (hits := [o.predicted == o.gold for o in outcomes if o.match is match])
        }
        report = ed_report(gold, predicted)  # its recall is the top-1 accuracy
        return SuiteReport(mode, report, outcomes, report.recall, by_match)
    if mode == "dr":
        return SuiteReport(mode, RetrievalReport.from_scores(o.r_precision for o in outcomes), outcomes)
    report = micro_f1_spans([o.gold_spans for o in outcomes], [o.document.spans for o in outcomes])
    return SuiteReport(mode, report, outcomes)
