"""Shared fixtures: the worked example document, the 3-document misalignment
fixture, a synthetic corpus generator, and independent brute-force oracles
used to cross-check the scorer and the statistics."""

from __future__ import annotations

import random
import tracemalloc
from pathlib import Path

import pytest

from kpeval import (
    Corpus,
    Document,
    KeyphraseType,
    RelationType,
    Subtask,
    canonicalize_document,
    make_document,
    save_corpus,
)

K = KeyphraseType
R = RelationType

EXAMPLE_TEXT = (
    "Information extraction is the process of extracting structured data "
    "from unstructured text, which is relevant for several end-to-end tasks, "
    "including question answering. This paper addresses the tasks of "
    "named entity recognition (NER), a subtask of information extraction, "
    "using conditional random fields (CRF). Our method is evaluated on the "
    "ConLL-2003 NER corpus."
)

# (id, type, start, end): information extraction x2, question answering,
# named entity recognition + NER, conditional random fields + CRF, corpus.
EXAMPLE_KEYPHRASES = [
    ("T1", K.TASK, 0, 22),
    ("T2", K.TASK, 150, 168),
    ("T3", K.TASK, 204, 228),
    ("T4", K.TASK, 230, 233),
    ("T5", K.TASK, 249, 271),
    ("T6", K.PROCESS, 279, 304),
    ("T7", K.PROCESS, 306, 309),
    ("T8", K.MATERIAL, 343, 364),
]
EXAMPLE_RELATIONS = [
    (R.HYPONYM_OF, "T3", "T1"),   # named entity recognition -> information extraction
    (R.SYNONYM_OF, "T3", "T4"),
    (R.SYNONYM_OF, "T6", "T7"),
]


def example_document() -> Document:
    return canonicalize_document(
        make_document("example1", EXAMPLE_TEXT, EXAMPLE_KEYPHRASES, EXAMPLE_RELATIONS)
    )


@pytest.fixture
def example1() -> Document:
    return example_document()


# ---------------------------------------------------------------------------
# The 3-document misalignment fixture: 10 spans of which exactly one misses
# token boundaries, and 4 relations.  Two variants share the documents and
# differ only in the relation wired to the misaligned span:
#   * snapped variant: the misaligned span carries a relation and snapping
#     lands it exactly on another gold span (doc2), so the snap=True round
#     trip scores A = 18/19 and C = 6/8 = 0.75;
#   * cross variant: the misaligned span carries no relation and one relation
#     crosses sentences instead, so the snap=False round trip scores
#     A = 18/19 and C = 6/7.
# ---------------------------------------------------------------------------

DOC1_TEXT = (
    "Support vector machines (SVM) separate classes. "
    "Kernel machines include support vector machines."
)
DOC2_TEXT = "Carbon nanotube arrays conduct heat. Quartz wafers hold samples."
DOC3_TEXT = "Finite element analysis (FEA) approximates solutions."


def _misalignment_docs(variant: str) -> list[Document]:
    assert variant in ("snapped", "cross")
    d1_kps = [
        ("T1", K.PROCESS, 0, 23),    # Support vector machines
        ("T2", K.PROCESS, 25, 28),   # SVM
        ("T3", K.PROCESS, 48, 63),   # Kernel machines
        ("T4", K.PROCESS, 72, 95),   # support vector machines
    ]
    d1_rels = [(R.SYNONYM_OF, "T1", "T2"), (R.HYPONYM_OF, "T4", "T3")]
    if variant == "cross":
        # T4 sits in sentence 2, T1 in sentence 1: dropped by the codec.
        d1_rels.append((R.HYPONYM_OF, "T4", "T1"))

    d2_kps = [
        ("T1", K.MATERIAL, 0, 6),    # Carbon
        ("T2", K.TASK, 7, 22),       # nanotube arrays (token-aligned)
        ("T3", K.MATERIAL, 8, 22),   # anotube arrays (BOUNDARY_MISMATCH)
    ]
    d2_rels = [(R.HYPONYM_OF, "T3", "T1")] if variant == "snapped" else []

    d3_kps = [
        ("T1", K.PROCESS, 0, 23),    # Finite element analysis
        ("T2", K.PROCESS, 25, 28),   # FEA
        ("T3", K.TASK, 30, 52),      # approximates solutions
    ]
    d3_rels = [(R.SYNONYM_OF, "T1", "T2")]

    return [
        canonicalize_document(make_document("doc1", DOC1_TEXT, d1_kps, d1_rels)),
        canonicalize_document(make_document("doc2", DOC2_TEXT, d2_kps, d2_rels)),
        canonicalize_document(make_document("doc3", DOC3_TEXT, d3_kps, d3_rels)),
    ]


def misalignment_corpus(variant: str = "snapped") -> Corpus:
    return Corpus({d.doc_id: d for d in _misalignment_docs(variant)})


# ---------------------------------------------------------------------------
# Synthetic corpus generation.
# ---------------------------------------------------------------------------

_WORDS = (
    "alloy beam core decay field flux grid lattice matrix mesh node phase "
    "plasma probe pulse sample signal solver spectrum vector wave model "
    "method kernel tensor layer circuit crystal polymer membrane reactor"
).split()


def synth_document(
    rng: random.Random,
    doc_id: str,
    n_sentences: int = 3,
    n_mentions: int = 5,
    n_relations: int = 2,
    mention_words: tuple[int, ...] = (1, 1, 2, 2, 3, 3, 4, 5),
) -> Document:
    """A document whose spans are token-aligned and relations intra-sentence.

    Spans never overlap, so decode(encode(doc)) reproduces the document
    exactly (the identity condition of the codec round trip).
    """
    sentences = []
    pos = 0
    sentence_words: list[list[tuple[int, int]]] = []
    for _ in range(n_sentences):
        words = [rng.choice(_WORDS) for _ in range(rng.randint(6, 12))]
        words[0] = words[0].capitalize()
        offsets = []
        for w in words:
            offsets.append((pos, pos + len(w)))
            pos += len(w) + 1
        pos -= 1
        sentences.append(" ".join(words) + ".")
        pos += 2  # the '.' and the following space
        sentence_words.append(offsets)
    text = " ".join(sentences)

    kps = []
    mention_sentence = {}
    mention_type = {}
    used: list[list[int]] = [list(range(len(w))) for w in sentence_words]
    count = 0
    for _ in range(n_mentions * 4):
        if count >= n_mentions:
            break
        s = rng.randrange(n_sentences)
        width = rng.choice(mention_words)
        free = used[s]
        if len(free) < width:
            continue
        starts = [
            i for i in range(len(free) - width + 1)
            if free[i + width - 1] - free[i] == width - 1
        ]
        if not starts:
            continue
        at = rng.choice(starts)
        first, last = free[at], free[at + width - 1]
        start = sentence_words[s][first][0]
        end = sentence_words[s][last][1]
        count += 1
        kp_id = f"T{count}"
        ktype = rng.choice(list(K))
        kps.append((kp_id, ktype, start, end))
        mention_sentence[kp_id] = s
        mention_type[kp_id] = ktype
        del free[at : at + width]

    rels = []
    # Annotation guidelines restrict relations to same-type mentions in the
    # same sentence; generated corpora follow suit.  Candidates are listed in
    # the order of a loop over all ordered pairs (ids compare as strings), but
    # each mention is paired only within its (sentence, type) group.
    groups: dict[tuple, list[str]] = {}
    for kp_id in mention_sentence:
        groups.setdefault((mention_sentence[kp_id], mention_type[kp_id]), []).append(kp_id)
    candidates = [
        (a, b)
        for a in mention_sentence
        for b in groups[(mention_sentence[a], mention_type[a])]
        if a < b
    ]
    rng.shuffle(candidates)
    for a, b in candidates[:n_relations]:
        rtype = rng.choice(list(R))
        rels.append((rtype, a, b))
    return canonicalize_document(make_document(doc_id, text, kps, rels))


def synth_corpus(
    rng: random.Random,
    n_docs: int,
    doc_prefix: str = "doc",
    **doc_kwargs,
) -> Corpus:
    width = len(str(n_docs))
    docs = {}
    for i in range(n_docs):
        doc_id = f"{doc_prefix}{i:0{width}}"
        docs[doc_id] = synth_document(rng, doc_id, **doc_kwargs)
    return Corpus(docs)


def traced_call(fn):
    """Call `fn()` under tracemalloc.

    Returns its result, the bytes that the result still holds when the call
    returns, and the transient peak: the most the call held above that.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, current - before, peak - current


def random_scored_pair(rng: random.Random, doc_id: str = "d") -> tuple[Document, Document]:
    """A (gold, pred) pair sharing some items, for scorer cross-checks."""
    gold = synth_document(
        rng, doc_id,
        n_sentences=rng.randint(1, 3),
        n_mentions=rng.randint(0, 10),
        n_relations=rng.randint(0, 4),
    )
    # Prediction: keep a random subset of gold annotations, then add noise
    # spans and relations over the same text.
    kept = [kp for kp in gold.keyphrases if rng.random() < 0.6]
    kps = [
        (kp.id, kp.ktype if rng.random() < 0.7 else rng.choice(list(K)),
         kp.start, kp.end)
        for kp in kept
    ]
    kept_ids = {kp.id for kp in kept}
    rels = [
        (rel.rtype, rel.arg1, rel.arg2)
        for rel in gold.relations
        if rel.arg1 in kept_ids and rel.arg2 in kept_ids and rng.random() < 0.7
    ]
    noise = synth_document(
        rng, doc_id,
        n_sentences=1,
        n_mentions=rng.randint(0, 4),
        n_relations=rng.randint(0, 2),
    )
    # Graft noise annotations onto the gold text where offsets allow.
    next_id = len(kps)
    remap = {}
    for kp in noise.keyphrases:
        if kp.end <= len(gold.text):
            next_id += 1
            new_id = f"N{next_id}"
            remap[kp.id] = new_id
            kps.append((new_id, kp.ktype, kp.start, kp.end))
    for rel in noise.relations:
        if rel.arg1 in remap and rel.arg2 in remap:
            rels.append((rel.rtype, remap[rel.arg1], remap[rel.arg2]))
    pred = make_document(doc_id, gold.text, kps, rels)
    return gold, canonicalize_document(pred)


# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------


def oracle_items(subtask: Subtask, doc: Document) -> list[tuple]:
    """Re-derive subtask items from scratch (dedup by pairwise equivalence)."""
    raw: list[tuple]
    if subtask is Subtask.A:
        raw = [("span", kp.start, kp.end) for kp in doc.keyphrases]
    elif subtask is Subtask.B:
        raw = [("typed", kp.start, kp.end, kp.ktype.value) for kp in doc.keyphrases]
    else:
        spans = {kp.id: (kp.start, kp.end) for kp in doc.keyphrases}
        raw = [
            (rel.rtype.value, spans[rel.arg1], spans[rel.arg2])
            for rel in doc.relations
        ]
    deduped: list[tuple] = []
    for item in raw:
        if not any(_items_equivalent(item, other) for other in deduped):
            deduped.append(item)
    return deduped


def _items_equivalent(x: tuple, y: tuple) -> bool:
    if x == y:
        return True
    if x[0] == y[0] == RelationType.SYNONYM_OF.value:
        return (x[1], x[2]) == (y[2], y[1])
    return False


def oracle_counts(subtask: Subtask, gold: Document, pred: Document):
    """tp/fp/fn via exhaustive maximum bipartite pairing of items."""
    gold_items = oracle_items(subtask, gold)
    pred_items = oracle_items(subtask, pred)
    match_of_pred: dict[int, int] = {}

    def augment(gi: int, seen: set[int]) -> bool:
        for pi, p_item in enumerate(pred_items):
            if pi in seen or not _items_equivalent(gold_items[gi], p_item):
                continue
            seen.add(pi)
            if pi not in match_of_pred or augment(match_of_pred[pi], seen):
                match_of_pred[pi] = gi
                return True
        return False

    tp = sum(1 for gi in range(len(gold_items)) if augment(gi, set()))
    return tp, len(pred_items) - tp, len(gold_items) - tp


def write_corpus_dir(corpus: Corpus, path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, path, write_text=True)
    return path
