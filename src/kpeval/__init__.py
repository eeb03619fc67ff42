"""Corpus toolkit and scorer for mention-level scientific keyphrase and
relation annotations: stand-off file parsing, token-label sequence encoding,
exact-match micro-averaged evaluation, reference baselines, corpus statistics
and inter-annotator agreement."""

from .analytics import (
    AgreementReport,
    CorpusStats,
    agreement_report,
    cohen_kappa,
    corpus_stats,
    fleiss_kappa,
)
from .baselines import (
    BaselineKind,
    Gazetteer,
    gazetteer_build,
    gazetteer_predict,
    oracle_predict,
    random_predict,
    roundtrip_report,
)
from .brat import (
    AnnKind,
    AnnLine,
    Corpus,
    MalformedLine,
    load_corpus,
    load_predictions,
    parse_ann_line,
    parse_document_pair,
    save_corpus,
    serialize_annotations,
)
from .codec import (
    AlignmentOutcome,
    LabeledSequence,
    SentenceTokenization,
    Token,
    decode_document,
    encode_document,
    split_sentences,
    tokenize,
    tokenize_document,
)
from .model import (
    Document,
    Keyphrase,
    KeyphraseType,
    Relation,
    RelationType,
    ValidationReport,
    canonicalize_document,
    make_document,
    validate_document,
)
from .scoring import (
    MatchCounts,
    Scenario,
    ScoreReport,
    Subtask,
    count_matches,
    micro_scores,
    score_scenario,
)

__version__ = "0.1.0"
