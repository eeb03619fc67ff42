"""Corpus toolkit and scorer for mention-level scientific keyphrase and
relation annotations: stand-off file parsing, token-label sequence encoding,
exact-match micro-averaged evaluation, reference baselines, corpus statistics
and inter-annotator agreement.

Importing the package loads none of its modules.  Each public name below is
imported from its module on first use (PEP 562) and then cached here, so a
program pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names it defines; the one list of the package's API.
_EXPORTS = {
    "analytics": (
        "AgreementReport",
        "CorpusStats",
        "agreement_report",
        "cohen_kappa",
        "corpus_stats",
    ),
    "baselines": (
        "BaselineKind",
        "Gazetteer",
        "gazetteer_build",
        "gazetteer_predict",
        "oracle_predict",
        "random_predict",
        "roundtrip_report",
    ),
    "brat": (
        "Corpus",
        "MalformedLine",
        "load_corpus",
        "load_predictions",
        "parse_ann_line",
        "parse_document_pair",
        "save_corpus",
        "serialize_annotations",
    ),
    "codec": (
        "AlignmentOutcome",
        "LabeledSequence",
        "SentenceTokenization",
        "Token",
        "decode_document",
        "encode_document",
        "split_sentences",
        "tokenize",
        "tokenize_document",
    ),
    "model": (
        "Document",
        "Keyphrase",
        "KeyphraseType",
        "Relation",
        "RelationType",
        "ValidationReport",
        "canonicalize_document",
        "make_document",
        "validate_document",
    ),
    "scoring": (
        "MatchCounts",
        "Scenario",
        "ScoreReport",
        "Subtask",
        "count_matches",
        "micro_scores",
        "score_scenario",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # `kpeval.brat` after a bare `import kpeval`
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
