"""Reference prediction generators that bound the task.

ORACLE runs annotations through the sequence codec and back, giving the best
score any system built on that framing can reach.  RANDOM draws uniform
per-token labels, bounding the task from below.  GAZETTEER memorizes the
training keyphrase list and string-matches it, the classic "remember the
training set" baseline.

All generators emit ordinary annotation corpora, so their output flows
through the scorer exactly like a participant submission.  Each one is a loop
over a function of one document, which `kpeval baseline` calls directly, so
that it holds the input corpus and one predicted document at a time.  RANDOM
derives an independent substream per (seed, doc_id), which makes output
independent of document processing order.
"""

from __future__ import annotations

import bisect
import enum
import random
from typing import Callable

from .brat import Corpus
from .codec import (
    _TOKEN,
    LabeledSequence,
    decode_document,
    encode_document,
    tokenize_document,
)
from .model import (
    TYPE_PRIORITY,
    Document,
    Keyphrase,
    KeyphraseType,
    normalize_surface,
)
from .scoring import Scenario, ScoreReport, score_scenario

_BOUNDARY_LABELS = ("O", "B", "I")
_TYPE_LABELS = ("O", "M", "P", "T")
_SPAN_TYPE_LABELS = ("M", "P", "T")
_CELL_LABELS = ("O", "S", "H")


class BaselineKind(enum.Enum):
    ORACLE = "oracle"
    RANDOM = "random"
    GAZETTEER = "gazetteer"


def oracle_predict(gold: Corpus, snap: bool = False) -> Corpus:
    """decode(encode(doc)) for every document; a projection, hence idempotent."""
    return Corpus({doc.doc_id: _oracle_document(doc, snap) for doc in gold})


def _oracle_document(doc: Document, snap: bool) -> Document:
    return decode_document(encode_document(doc, snap)[0], doc.text, doc.doc_id)


def roundtrip_report(corpus: Corpus, snap: bool = False) -> ScoreReport:
    """Score the oracle prediction of a corpus against the corpus itself.

    This is the oracle upper bound for any sequence-labeling system using
    this framing: it measures exactly what the conversion itself loses to
    sentence splitting, tokenization and the BIO scheme.
    """
    return score_scenario(corpus, oracle_predict(corpus, snap), Scenario.S1)


def _doc_rng(seed: int, doc_id: str) -> random.Random:
    # String seeding hashes all bits deterministically across runs/platforms.
    return random.Random(f"{seed}\x1f{doc_id}")


def random_predict(texts: Corpus, scenario: Scenario, seed: int) -> Corpus:
    """Uniform random labels per token, repaired by the ordinary decode rules.

    Scenario 1 draws boundary and type labels for every token; scenario 2
    keeps the given boundaries and draws one type per span; scenario 3 keeps
    boundaries and types.  Relation grid cells are drawn uniformly over
    {O, S, H} for every ordered pair of span head tokens in all scenarios.
    The output is fully determined by (seed, doc_id).
    """
    return Corpus({doc.doc_id: _random_document(doc, scenario, seed) for doc in texts})


def _random_document(doc: Document, scenario: Scenario, seed: int) -> Document:
    rng = _doc_rng(seed, doc.doc_id)
    if scenario is Scenario.S1:
        sequences = _random_sequences(doc, rng)
    else:
        sequences, _ = encode_document(doc)
        sequences = [_redraw(seq, scenario, rng) for seq in sequences]
    return decode_document(sequences, doc.text, doc.doc_id)


def _random_sequences(doc: Document, rng: random.Random) -> list[LabeledSequence]:
    sequences = []
    for sent in tokenize_document(doc.text):
        n = len(sent.tokens)
        labels_a = [rng.choice(_BOUNDARY_LABELS) for _ in range(n)]
        labels_b = [rng.choice(_TYPE_LABELS) for _ in range(n)]
        # Heads after the I-after-O repair: every (O|start)->I becomes a B.
        heads = [
            i
            for i, a in enumerate(labels_a)
            if a == "B" or (a == "I" and (i == 0 or labels_a[i - 1] == "O"))
        ]
        cells = _random_cells(heads, rng)
        sequences.append(
            LabeledSequence(sent, tuple(labels_a), tuple(labels_b), cells)
        )
    return sequences


def _redraw(seq: LabeledSequence, scenario: Scenario, rng: random.Random) -> LabeledSequence:
    labels_b = list(seq.labels_b)
    if scenario is Scenario.S2:
        letter = "M"
        for i, a in enumerate(seq.labels_a):
            if a == "B":
                letter = rng.choice(_SPAN_TYPE_LABELS)
            if a != "O":
                labels_b[i] = letter
    heads = [i for i, a in enumerate(seq.labels_a) if a == "B"]
    cells = _random_cells(heads, rng)
    return LabeledSequence(seq.tokenization, seq.labels_a, tuple(labels_b), cells)


def _random_cells(heads: list[int], rng: random.Random) -> dict[tuple[int, int], str]:
    cells = {}
    for i in heads:
        for j in heads:
            if i != j:
                value = rng.choice(_CELL_LABELS)
                if value != "O":
                    cells[(i, j)] = value
    return cells


class Gazetteer:
    """Normalized training surfaces with their majority type and frequency."""

    def __init__(self, entries: dict[str, tuple[KeyphraseType, int]]) -> None:
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, surface: str) -> bool:
        return normalize_surface(surface) in self.entries


def gazetteer_build(train: Corpus) -> Gazetteer:
    """Collect every gold surface from a training corpus.

    Each normalized surface maps to its majority observed type (ties break by
    the fixed Material > Process > Task priority) and its total mention count.
    """
    if not len(train):
        raise ValueError("cannot build a gazetteer from an empty corpus")
    counts: dict[str, dict[KeyphraseType, int]] = {}
    for doc in train:
        for kp in doc.keyphrases:
            key = normalize_surface(kp.surface)
            if not key:
                continue
            per_type = counts.setdefault(key, {})
            per_type[kp.ktype] = per_type.get(kp.ktype, 0) + 1
    entries = {}
    for key, per_type in counts.items():
        best = max(
            per_type.items(),
            key=lambda item: (item[1], -TYPE_PRIORITY.index(item[0])),
        )[0]
        entries[key] = (best, sum(per_type.values()))
    return Gazetteer(entries)


def gazetteer_predict(gaz: Gazetteer, texts: Corpus) -> Corpus:
    """Longest-match, left-to-right, non-overlapping lookup at token boundaries.

    One forward pass over the tokens of the whole text, which are the tokens
    of its sentences in order, since no token holds whitespace and sentences
    break only before whitespace.  From each start token a single candidate
    grows a token at a time, casefolded tokens joined by " " across a gap and
    by "" where they touch.  Tokens cover every non-whitespace character, so
    the candidate equals `normalize_surface` of the text it spans.  Growth
    stops as soon as no entry starts with the candidate, found by one
    bisection of the sorted entries, and the last hit is the longest match.
    Matches become keyphrases of the stored type, numbered in text order;
    they never overlap, so the output is canonical by construction.  No
    relations are predicted, and a surface absent from the training set can
    never be produced.
    """
    match = _gazetteer_matcher(gaz)
    return Corpus({doc.doc_id: match(doc) for doc in texts})


def _gazetteer_matcher(gaz: Gazetteer) -> Callable[[Document], Document]:
    """The `gazetteer_predict` of one document, with the entries sorted once."""
    keys = sorted(gaz.entries)

    def match(doc: Document) -> Document:
        text = doc.text
        starts: list[int] = []
        ends: list[int] = []
        folded: list[str] = []
        for m in _TOKEN.finditer(text):
            starts.append(m.start())
            ends.append(m.end())
            folded.append(m.group().casefold())
        keyphrases: list[Keyphrase] = []
        i = 0
        while i < len(folded):
            hit = None
            candidate = folded[i]
            for j in range(i, len(folded)):
                if j > i:
                    candidate += (" " if starts[j] > ends[j - 1] else "") + folded[j]
                k = bisect.bisect_left(keys, candidate)
                if k == len(keys) or not keys[k].startswith(candidate):
                    break
                if keys[k] == candidate:
                    hit = (j, gaz.entries[candidate][0])
            if hit is None:
                i += 1
            else:
                j, ktype = hit
                start, end = starts[i], ends[j]
                keyphrases.append(
                    Keyphrase(f"T{len(keyphrases) + 1}", ktype, start, end, text[start:end])
                )
                i = j + 1
        return Document(doc.doc_id, text, tuple(keyphrases))

    return match
