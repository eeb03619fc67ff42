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
from typing import TYPE_CHECKING, Callable

from .brat import Corpus
from .codec import _TOKEN, LabeledSequence, decode_document, encode_document
from .model import (
    TYPE_PRIORITY,
    Document,
    Keyphrase,
    KeyphraseType,
    normalize_surface,
)

# Only `roundtrip_report` imports the scorer, so that `kpeval baseline` does
# not load it.
if TYPE_CHECKING:
    from .scoring import Scenario, ScoreReport


def _drawer(labels: str) -> Callable[[random.Random, int], str]:
    """`draw(rng, m)`: the labels of `m` successive `rng.choice(labels)`
    calls, as one string, leaving `rng` in the state those calls leave.

    `choice` draws `r = rng.getrandbits(k)` for k = len(labels).bit_length(),
    and again while r >= len(labels).  For k <= 32 that is the top k bits of
    one 32-bit output of the generator, and `getrandbits(32 * m)` holds the
    next m outputs, the first in its lowest bits.  With fewer than 256
    labels, k <= 8, so the top byte of each output decides one draw:
    `bytes.translate` deletes the rejected bytes and maps the rest to their
    labels.  Each round draws one output per draw still missing, and every
    output yields at most one draw, so no output is drawn that the `choice`
    calls would not draw.
    """
    n = len(labels)
    shift = 8 - n.bit_length()
    table = bytes(ord(labels[b >> shift]) if b >> shift < n else 0 for b in range(256))
    rejected = bytes(b for b in range(256) if b >> shift >= n)

    def draw(rng: random.Random, m: int) -> str:
        drawn = b""
        while len(drawn) < m:
            missing = m - len(drawn)
            outputs = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
            drawn += outputs[3::4].translate(table, rejected)
        return drawn.decode("ascii")

    return draw


_draw_boundary = _drawer("OBI")
_draw_type = _drawer("OMPT")
_draw_span_type = _drawer("MPT")
_draw_cell = _drawer("OSH")


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
    from .scoring import Scenario, score_scenario

    return score_scenario(corpus, oracle_predict(corpus, snap), Scenario.S1)


def _doc_rng(seed: int, doc_id: str) -> random.Random:
    # Bytes hash all bits deterministically across runs and platforms, and
    # `random` seeds with a str's UTF-8 bytes, so this is the seed of the str
    # for every name that is valid UTF-8; surrogateescape takes the rest.
    return random.Random(f"{seed}\x1f{doc_id}".encode("utf-8", "surrogateescape"))


def random_predict(texts: Corpus, scenario: Scenario, seed: int) -> Corpus:
    """Uniform random labels per token, repaired by the ordinary decode rules.

    Every scenario redraws labels over the sequences that `encode_document`
    makes: scenario 1 of the bare text, drawing boundary and type labels for
    every token; scenario 2 of the document, keeping the given boundaries and
    drawing one type per span; scenario 3 of the document, keeping
    boundaries and types.  In all three scenarios a relation cell is drawn
    uniformly over {O, S, H} for every ordered pair of head tokens in a
    sentence; an S both ways round is one Synonym-of, so there are about 11
    relations per 18 ordered pairs.  Draws are made in token order and equal
    those of `random.Random(seed_bytes).choice`, where `seed_bytes` is
    `f"{seed}\\x1f{doc_id}"` encoded as UTF-8 with surrogateescape, so the
    output is fully determined by (seed, doc_id).
    """
    return Corpus({doc.doc_id: _random_document(doc, scenario.value, seed) for doc in texts})


def _random_document(doc: Document, scenario: int, seed: int) -> Document:
    """The `random_predict` of one document in scenario number `scenario`:
    its sequences, encoded from the bare text in scenario 1 and from `doc`
    otherwise, each redrawn from the generator seeded by the UTF-8 bytes
    (with surrogateescape) of `f"{seed}\\x1f{doc_id}"`, and decoded."""
    rng = _doc_rng(seed, doc.doc_id)
    s1, s2 = scenario == 1, scenario == 2
    given = Document(doc.doc_id, doc.text) if s1 else doc
    sequences = [_redraw(seq, rng, s1, s2) for seq in encode_document(given)[0]]
    return decode_document(sequences, doc.text, doc.doc_id)


def _redraw(
    seq: LabeledSequence, rng: random.Random, s1: bool, s2: bool
) -> LabeledSequence:
    """`seq` redrawn for scenario 1 if `s1`, for scenario 2 if `s2`, and for
    scenario 3 if neither."""
    labels_a, labels_b = seq.labels_a, seq.labels_b
    if s1:
        labels_a = tuple(_draw_boundary(rng, len(labels_a)))
        labels_b = tuple(_draw_type(rng, len(labels_b)))
    # The runs that decode opens: a B, or an I at the start or after an O.
    heads = [
        i
        for i, a in enumerate(labels_a)
        if a == "B" or (a == "I" and (i == 0 or labels_a[i - 1] == "O"))
    ]
    if s2:
        letters = iter(_draw_span_type(rng, len(heads)))
        labels_b = list(labels_b)
        letter = "M"
        for i, a in enumerate(labels_a):
            if a == "B":
                letter = next(letters)
            if a != "O":
                labels_b[i] = letter
        labels_b = tuple(labels_b)
    cells = _random_cells(heads, rng)
    return LabeledSequence(seq.tokenization, labels_a, labels_b, cells)


def _random_cells(heads: list[int], rng: random.Random) -> dict[tuple[int, int], str]:
    pairs = [(i, j) for i in heads for j in heads if i != j]
    return {
        pair: value
        for pair, value in zip(pairs, _draw_cell(rng, len(pairs)))
        if value != "O"
    }


class Gazetteer:
    """Normalized training surfaces with their majority type and frequency."""

    def __init__(self, entries: dict[str, tuple[KeyphraseType, int]]) -> None:
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)


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
