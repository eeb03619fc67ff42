"""Corpus statistics and chance-corrected inter-annotator agreement.

Statistics cover mention counts, unique normalized surfaces, singleton and
word-length fractions, and the most frequent surfaces.  Agreement between two
annotation sets is measured with Cohen's kappa over per-token labels produced
by the sequence codec: each shared text is tokenized once and both sides are
encoded over that tokenization, so they are compared token by token.
Documents where either side has no annotations at all are excluded
(annotators who stopped annotating would otherwise deflate the score).
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .brat import Corpus
from .codec import TOKEN, encode_document, tokenize_document
from .model import normalize_surface


class CorpusStats(NamedTuple):
    n_mentions: int
    n_unique: int
    pct_singleton: float
    pct_single_word: float
    pct_len_ge3: float
    pct_len_ge5: float
    top_k: tuple[tuple[str, int], ...]


class AgreementReport(NamedTuple):
    kappa: float
    n_docs_included: int
    n_docs_excluded: int
    granularity: str
    n_tokens: int = 0


def corpus_stats(corpus: Corpus, k: int = 10) -> CorpusStats:
    """Count mentions, unique surfaces and word-length fractions.

    Word lengths count the codec's tokens in each surface, without building
    them.  Uniqueness and the singleton fraction use case-folded,
    whitespace-collapsed surfaces (the same normalization as the gazetteer).
    Note: the fraction of mentions that are noun phrases is deliberately not
    reported here; it would require a POS tagger.
    """
    mentions = 0
    single_word = 0
    len_ge3 = 0
    len_ge5 = 0
    frequency: Counter[str] = Counter()
    for doc in corpus:
        for kp in doc.keyphrases:
            mentions += 1
            n_words = len(TOKEN.findall(kp.surface))
            if n_words == 1:
                single_word += 1
            if n_words >= 3:
                len_ge3 += 1
            if n_words >= 5:
                len_ge5 += 1
            frequency[normalize_surface(kp.surface)] += 1
    unique = len(frequency)
    singletons = sum(1 for c in frequency.values() if c == 1)
    top = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))[:k]

    def pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    return CorpusStats(
        n_mentions=mentions,
        n_unique=unique,
        pct_singleton=pct(singletons, unique),
        pct_single_word=pct(single_word, mentions),
        pct_len_ge3=pct(len_ge3, mentions),
        pct_len_ge5=pct(len_ge5, mentions),
        top_k=tuple(top),
    )


def cohen_kappa(labels_x: Sequence, labels_y: Sequence) -> float:
    """Chance-corrected agreement between two equal-length label sequences.

    kappa = (p_o - p_e) / (1 - p_e), where p_o is the per-position agreement
    rate and p_e the chance agreement implied by each side's marginal label
    distribution.  Two identical constant sequences have p_e = 1 and are
    defined to agree perfectly (kappa = 1).
    """
    if len(labels_x) != len(labels_y):
        raise ValueError(
            f"length mismatch: {len(labels_x)} vs {len(labels_y)} labels"
        )
    if not labels_x:
        raise ValueError("cannot compute kappa over empty sequences")
    n = len(labels_x)
    p_o = sum(1 for x, y in zip(labels_x, labels_y) if x == y) / n
    marg_x = Counter(labels_x)
    marg_y = Counter(labels_y)
    p_e = sum(marg_x[c] * marg_y.get(c, 0) for c in marg_x) / (n * n)
    if p_e == 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def agreement_report(
    corpus_x: Corpus, corpus_y: Corpus, granularity: str = "token_a"
) -> AgreementReport:
    """Cohen's kappa between two annotation sets over shared documents.

    Each shared text is tokenized once, both sides are encoded over that one
    tokenization, and the per-token labels (`token_a`: boundary labels;
    `token_b`: type labels) are concatenated over all included documents.
    A shared document where either side has zero keyphrases is excluded and
    counted.
    """
    if granularity not in ("token_a", "token_b"):
        raise ValueError(f"unknown granularity {granularity!r}")
    shared = sorted(set(corpus_x.doc_ids()) & set(corpus_y.doc_ids()))
    if not shared:
        raise ValueError("the two corpora share no doc_ids")
    labels_x: list[str] = []
    labels_y: list[str] = []
    included = 0
    excluded = 0
    for doc_id in shared:
        doc_x = corpus_x[doc_id]
        doc_y = corpus_y[doc_id]
        if doc_x.text != doc_y.text:
            raise ValueError(f"{doc_id}: the two corpora disagree on the text")
        if not doc_x.keyphrases or not doc_y.keyphrases:
            excluded += 1
            continue
        included += 1
        tokenizations = tokenize_document(doc_x.text)
        for doc, sink in ((doc_x, labels_x), (doc_y, labels_y)):
            for seq in encode_document(doc, tokenizations=tokenizations)[0]:
                sink.extend(seq.labels_a if granularity == "token_a" else seq.labels_b)
    if not labels_x:
        raise ValueError("no shared document has annotations on both sides")
    return AgreementReport(
        kappa=cohen_kappa(labels_x, labels_y),
        n_docs_included=included,
        n_docs_excluded=excluded,
        granularity=granularity,
        n_tokens=len(labels_x),
    )


def stats_to_text(stats: CorpusStats) -> str:
    lines = [
        f"{'mentions':<28}{stats.n_mentions}",
        f"{'unique surfaces':<28}{stats.n_unique}",
        f"{'% singleton surfaces':<28}{stats.pct_singleton:.1f}",
        f"{'% single-word mentions':<28}{stats.pct_single_word:.1f}",
        f"{'% mentions >= 3 words':<28}{stats.pct_len_ge3:.1f}",
        f"{'% mentions >= 5 words':<28}{stats.pct_len_ge5:.1f}",
        "most common surfaces:",
    ]
    for surface, freq in stats.top_k:
        lines.append(f"  {freq:>6}  {surface}")
    lines.append("(noun-phrase fraction not reported: requires POS tagging)")
    return "\n".join(lines) + "\n"


def stats_to_json(stats: CorpusStats) -> str:
    import json  # only JSON output loads it
    payload = stats._asdict()
    payload["top_k"] = [list(pair) for pair in stats.top_k]
    return json.dumps(payload, indent=2) + "\n"


def agreement_to_text(report: AgreementReport) -> str:
    return (
        f"cohen_kappa ({report.granularity}): {report.kappa:.4f}\n"
        f"documents included: {report.n_docs_included}\n"
        f"documents excluded (one side empty): {report.n_docs_excluded}\n"
        f"tokens compared: {report.n_tokens}\n"
    )


def agreement_to_json(report: AgreementReport) -> str:
    import json  # only JSON output loads it
    return json.dumps(report._asdict(), indent=2) + "\n"
