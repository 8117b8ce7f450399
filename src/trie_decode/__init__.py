"""Entity retrieval by constrained generation.

Build a prefix trie over tokenized entity names, run log-prob-masked beam
search against any autoregressive scorer, link documents end to end with
dynamically constrained markup decoding, and evaluate the results.
"""

from .beam import (
    BeamConfig,
    BeamError,
    DecodeStats,
    Hypothesis,
    RankedEntry,
    RankedResult,
    beam_search,
    exhaustive_rank,
    mask_logprobs,
    rank_entities,
)
from .catalog import (
    CandidateSet,
    Catalog,
    CatalogError,
    EntityRecord,
    add_entity,
    load_candidate_sets,
    load_catalog,
)
from .markup import (
    LinkerState,
    MarkupDocument,
    MarkupError,
    MarkupParseError,
    Phase,
    SpanAnnotation,
    chunk_input,
    dynamic_constraint,
    link_document,
    parse_markup,
    render_markup,
)
from .metrics import (
    EvalReport,
    MatchType,
    MetricsError,
    RetrievalReport,
    ed_accuracy,
    match_type,
    micro_f1_spans,
    r_precision,
)
from .scoring import (
    OracleScorer,
    Scorer,
    ScorerError,
    TableScorer,
    UniformScorer,
    sequence_score,
    smoothed_nll,
    train_table_scorer,
)
from .tasks import (
    END_ENT_STRING,
    START_ENT_STRING,
    TASK_EXTRA_SPECIALS,
    DROutcome,
    EDInstance,
    EDOutcome,
    ELOutcome,
    SuiteReport,
    TaskConfig,
    TaskError,
    disambiguate,
    flag_mention,
    retrieve,
    run_eval_suite,
)
from .trie import EntityTrie, TrieError, TrieFormatError, TrieStats, build_trie
from .vocab import (
    EOS,
    LINK_CLOSE,
    LINK_OPEN,
    MENTION_CLOSE,
    MENTION_OPEN,
    SOS,
    UNK,
    InputError,
    TokenId,
    Vocabulary,
    VocabularyError,
    decode,
    encode,
    encode_with_offsets,
    load_vocabulary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
