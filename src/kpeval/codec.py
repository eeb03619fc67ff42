"""Conversion between documents and per-sentence token-label sequences.

One sentence is one sequence.  Three label layers are used:

  * boundary labels  {O, B, I}  (outside / begin / inside a keyphrase)
  * type labels      {O, M, P, T}
  * a per-sentence token-by-token relation grid with entries {O, S, H},
    written only at the head (first) token of each keyphrase.

The conversion is lossy by construction: spans that do not coincide with
token boundaries and relations that cross sentences cannot be expressed.
`baselines.roundtrip_report` quantifies exactly that loss by scoring
decode(encode(d)) against d.  Nothing is lost silently; every keyphrase and
relation of the input is accounted for in the AlignmentOutcome that
`encode_document` returns.

Sentence and token rules are deliberately simple and fully deterministic:

  * sentences split after '.', '!' or '?' (plus any closing quotes/brackets)
    when followed by whitespace and an uppercase letter or digit;
  * tokens are maximal alphanumeric runs, optionally joined by an internal
    '-', '_', '.', apostrophe or '+' flanked by alphanumerics on both sides;
    any other non-space character is a one-character token.

Encoding is linear in document length up to logarithmic factors.  Each
keyphrase is placed with one bisection over the sentence starts and two over
the tokens of its sentence; no per-token index is built.  The label rows
decide overlaps: the placed spans are visited longest first, and a span whose
tokens are not all still O drops, so no other record of taken tokens is kept.
A document of T tokens, K keyphrases and R relations costs
O(T + K log T + K log K + R), plus one step per token of each placed span.
Sentence splitting is linear in the text.

All functions are pure.
"""

from __future__ import annotations

import bisect
import operator
import re
from typing import NamedTuple

from .brat import MalformedLine, split_lines
from .model import (
    OFFSET_OUT_OF_BOUNDS,
    SURFACE_MISMATCH,
    TYPE_PRIORITY,
    Document,
    Keyphrase,
    KeyphraseType,
    Relation,
    RelationType,
    canonicalize_document,
    relation_key,
    relations_from_keys,
)

# Reasons a span or relation is dropped during alignment / encoding.
BOUNDARY_MISMATCH = "BOUNDARY_MISMATCH"
CROSSES_SENTENCE = "CROSSES_SENTENCE"
OVERLAP = "OVERLAP"
CROSS_SENTENCE_RELATION = "CROSS_SENTENCE_RELATION"
ARGUMENT_DROPPED = "ARGUMENT_DROPPED"
CELL_CONFLICT = "CELL_CONFLICT"

# The type label of each keyphrase type, keyed by the type's value, which
# `_value_` reads without the enum's Python-level `value` descriptor.
_LETTER = {t._value_: t._value_[0] for t in KeyphraseType}

# A break, with the first non-space character after its whitespace run as
# group 1.  That run ends before the next break starts, so the lookaheads scan
# disjoint stretches of the text and splitting stays linear.
_SENTENCE_BREAK = re.compile(
    r"[.!?][\)\]\}\"'’”]*(?=\s+(\S))"
)

# The one definition of a token: alphanumeric runs joined by internal -, _, ., ', +.
TOKEN = re.compile(r"[^\W_]+(?:[-_.'+][^\W_]+)*|\S", re.UNICODE)


class Token(NamedTuple):
    start: int
    end: int
    text: str


class SentenceTokenization(NamedTuple):
    """Tokens of one sentence; the sentence span is trimmed to its tokens."""

    sentence_start: int
    sentence_end: int
    tokens: tuple[Token, ...]


class LabeledSequence(NamedTuple):
    """Per-token labels for one sentence.

    `relations` is the sparse form of the n-by-n relation grid: missing cells
    are O.  Each sequence needs a dict of its own, so it has no default.
    Valid sequences satisfy: an I never follows an O, the type label is O
    exactly where the boundary label is O, non-O cells sit only at head (B)
    token pairs off the diagonal, and S cells are symmetric.
    """

    tokenization: SentenceTokenization
    labels_a: tuple[str, ...]
    labels_b: tuple[str, ...]
    relations: dict[tuple[int, int], str]


class AlignmentOutcome:
    """Bookkeeping of what survived the span-to-token conversion.

    `aligned` maps keyphrase id to (sentence index, half-open token range).
    Every keyphrase of the document lands either in `aligned` or in
    `dropped_spans`; every relation either encodes or lands in
    `dropped_relations`.
    """

    def __init__(self) -> None:
        self.aligned: dict[str, tuple[int, tuple[int, int]]] = {}
        self.dropped_spans: list[tuple[str, str]] = []
        self.dropped_relations: list[tuple[Relation, str]] = []


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Split text into sentence spans, trimmed to non-whitespace.

    The spans are in order and non-overlapping and jointly cover every
    non-whitespace character; whatever lies between them is whitespace, so
    the original text is recoverable.  Empty or all-whitespace text yields
    no sentences.
    """
    boundaries = [
        m.end()
        for m in _SENTENCE_BREAK.finditer(text)
        if m.group(1).isupper() or m.group(1).isdigit()
    ]
    spans = []
    prev = 0
    for b in boundaries + [len(text)]:
        chunk = text[prev:b]
        stripped = chunk.strip()
        if stripped:
            lead = len(chunk) - len(chunk.lstrip())
            spans.append((prev + lead, prev + lead + len(stripped)))
        prev = b
    return spans


def tokenize(text: str, sentence: tuple[int, int]) -> list[Token]:
    """Deterministic offset-preserving tokens for one sentence span."""
    # The pattern has no anchor or lookbehind, so matching inside the bounds
    # equals matching the slice.
    return [Token(m.start(), m.end(), m.group()) for m in TOKEN.finditer(text, *sentence)]


def tokenize_document(text: str) -> list[SentenceTokenization]:
    result = []
    for span in split_sentences(text):
        tokens = tuple(tokenize(text, span))
        result.append(SentenceTokenization(span[0], span[1], tokens))
    return result


_token_start = operator.attrgetter("start")
_token_end = operator.attrgetter("end")


def _place_span(
    start: int,
    end: int,
    tokenizations: list[SentenceTokenization],
    sentence_starts: list[int],
    snap: bool,
) -> tuple[int, tuple[int, int]] | str:
    """Return (sentence index, token range) or a drop reason.

    The range holds every token that the span touches.  Tokens lie inside
    their sentence's span, so a span inside one sentence touches no token of
    another.  Without `snap` the range must also start and end exactly where
    the span does.
    """
    # Sentences are disjoint, so only the last one starting at or before
    # `start` can hold the span.
    s_idx = bisect.bisect_right(sentence_starts, start) - 1
    if s_idx < 0 or end > tokenizations[s_idx].sentence_end:
        return CROSSES_SENTENCE
    tokens = tokenizations[s_idx].tokens
    first = bisect.bisect_right(tokens, start, key=_token_end)
    last = bisect.bisect_left(tokens, end, key=_token_start)
    if first < last and (
        snap or (tokens[first].start == start and tokens[last - 1].end == end)
    ):
        return (s_idx, (first, last))
    return BOUNDARY_MISMATCH


def encode_document(
    doc: Document,
    snap: bool = False,
    tokenizations: list[SentenceTokenization] | None = None,
) -> tuple[list[LabeledSequence], AlignmentOutcome]:
    """Encode a canonical document as one labeled sequence per sentence.

    A keyphrase aligns iff its start is some token's start and its end some
    token's end within a single sentence.  Spans not contained in any single
    sentence drop as CROSSES_SENTENCE; contained spans that miss token
    boundaries drop as BOUNDARY_MISMATCH.  A relation drops when either
    argument dropped (ARGUMENT_DROPPED) or its arguments sit in different
    sentences (CROSS_SENTENCE_RELATION).

    With `snap` enabled, spans that merely miss token boundaries are first
    expanded outward to enclosing token boundaries instead of being dropped.
    When two surviving keyphrases claim the same token, the longer span wins
    and the loser drops with reason OVERLAP (the BIO scheme cannot express
    overlap); ties go to the earlier sentence, then the earlier first token,
    then the Material > Process > Task priority, then the id.  Spans are
    written to the label rows in that order, and a span drops when any of its
    boundary labels is already set.  A relation grid cell already claimed by
    an earlier relation drops the later relation with reason CELL_CONFLICT.

    `tokenizations`, when given, must be `tokenize_document(doc.text)`; a
    caller that encodes several annotations of one text tokenizes it once.
    """
    if tokenizations is None:
        tokenizations = tokenize_document(doc.text)
    sentence_starts = [sent.sentence_start for sent in tokenizations]
    outcome = AlignmentOutcome()
    by_id = doc.keyphrase_by_id()
    for kp in doc.keyphrases:
        placed = _place_span(kp.start, kp.end, tokenizations, sentence_starts, snap)
        if isinstance(placed, str):
            outcome.dropped_spans.append((kp.id, placed))
        else:
            outcome.aligned[kp.id] = placed

    order = sorted(
        outcome.aligned.items(),
        key=lambda item: (
            -(item[1][1][1] - item[1][1][0]),
            item[1][0],
            item[1][1][0],
            TYPE_PRIORITY.index(by_id[item[0]].ktype),
            item[0],
        ),
    )
    labels_a = [["O"] * len(sent.tokens) for sent in tokenizations]
    labels_b = [["O"] * len(sent.tokens) for sent in tokenizations]
    for kp_id, (s_idx, (first, last)) in order:
        row = labels_a[s_idx]
        if any(label != "O" for label in row[first:last]):
            del outcome.aligned[kp_id]
            outcome.dropped_spans.append((kp_id, OVERLAP))
            continue
        row[first:last] = ["B"] + ["I"] * (last - first - 1)
        labels_b[s_idx][first:last] = [_LETTER[by_id[kp_id].ktype._value_]] * (last - first)
    sequences = [
        LabeledSequence(sent, tuple(a), tuple(b), {})
        for sent, a, b in zip(tokenizations, labels_a, labels_b)
    ]

    encodable: list[Relation] = []
    for rel in doc.relations:
        a1 = outcome.aligned.get(rel.arg1)
        a2 = outcome.aligned.get(rel.arg2)
        if a1 is None or a2 is None:
            outcome.dropped_relations.append((rel, ARGUMENT_DROPPED))
        elif a1[0] != a2[0]:
            outcome.dropped_relations.append((rel, CROSS_SENTENCE_RELATION))
        else:
            encodable.append(rel)

    for rel in encodable:
        s_idx, (h1, _) = outcome.aligned[rel.arg1]
        _, (h2, _) = outcome.aligned[rel.arg2]
        cells = sequences[s_idx].relations
        if rel.rtype is RelationType.HYPONYM_OF:
            wanted = {(h1, h2): "H"}
        else:
            wanted = {(h1, h2): "S", (h2, h1): "S"}
        if any(cells.get(pos, wanted[pos]) != wanted[pos] for pos in wanted):
            outcome.dropped_relations.append((rel, CELL_CONFLICT))
            continue
        cells.update(wanted)
    return sequences, outcome


def decode_document(
    sequences: list[LabeledSequence],
    text: str,
    doc_id: str,
    repairs: list[str] | None = None,
) -> Document:
    """Convert label sequences back to a canonical document.

    Predicted sequences are often ill-formed, so nothing is rejected: an I
    run with no B is promoted to start with B, type votes of O inside a span
    are ignored, type ties break by the fixed Material > Process > Task
    priority, and relation cells that do not sit on a valid head pair are
    discarded.  Each repair appends a message to `repairs` when given.

    Spans are numbered T1..Tn in the order they are found.  When each span
    lies inside `text` and starts at or after the previous one ends, as in
    every sequence list that `encode_document` or `tokenize_document` makes,
    that order is canonical and the document is returned as built.
    Otherwise it is returned through `canonicalize_document`, which sorts
    sentences out of text order and raises ValueError for a span that is
    empty or outside `text` (tokens out of order or past the text).
    """
    # Each repair is formatted only when `repairs` is given to hold it.
    # The members are read once: through their class, before Python 3.12, a
    # read runs the enum's Python-level lookup.
    hyponym_of, synonym_of = RelationType.HYPONYM_OF, RelationType.SYNONYM_OF
    keyphrases: list[Keyphrase] = []
    relation_keys: list[tuple[str, int, int]] = []
    n = len(text)
    prev_end = 0
    in_order = True  # every span lies in the text after the previous one
    for s_idx, seq in enumerate(sequences):
        tokens = seq.tokenization.tokens
        runs: list[tuple[int, int]] = []
        start_i: int | None = None  # the first token of the open run
        for i, label in enumerate(seq.labels_a):
            if label == "B" or (label == "I" and start_i is None):
                if label == "I" and repairs is not None:
                    repairs.append(f"sentence {s_idx}: I after O at token {i} promoted to B")
                if start_i is not None:
                    runs.append((start_i, i))
                start_i = i
            elif label != "I":
                if label != "O" and repairs is not None:
                    repairs.append(f"sentence {s_idx}: unknown boundary label {label!r} read as O")
                if start_i is not None:
                    runs.append((start_i, i))
                    start_i = None
        if start_i is not None:
            runs.append((start_i, len(seq.labels_a)))

        head_number: dict[int, int] = {}  # head token -> i of its keyphrase Ti
        for first, last in runs:
            votes = [b for b in seq.labels_b[first:last] if b != "O"]
            if len(votes) < last - first and repairs is not None:
                repairs.append(f"sentence {s_idx}: span at token {first} has O type labels")
            number = len(keyphrases) + 1
            head_number[first] = number
            start, end = tokens[first].start, tokens[last - 1].end
            kp = Keyphrase(f"T{number}", _majority_type(votes), start, end, text[start:end])
            keyphrases.append(kp)
            if not prev_end <= start < end <= n:
                in_order = False
            prev_end = end

        cells = seq.relations
        for (i, j), value in sorted(cells.items()):
            if i == j or i not in head_number or j not in head_number:
                if repairs is not None:
                    repairs.append(f"sentence {s_idx}: cell ({i}, {j}) is not a valid head pair")
                continue
            if value == "H":
                relation_keys.append(
                    relation_key(hyponym_of, head_number[i], head_number[j])
                )
            elif value == "S":
                mirrored = cells.get((j, i)) == "S"
                if mirrored and j < i:
                    continue  # the same pair, already read from cell (j, i)
                if not mirrored and repairs is not None:
                    repairs.append(f"sentence {s_idx}: cell ({i}, {j}) S without mirror cell")
                relation_keys.append(
                    relation_key(synonym_of, head_number[i], head_number[j])
                )
            elif repairs is not None:
                repairs.append(f"sentence {s_idx}: cell ({i}, {j}) has unknown value {value!r}")
    doc = Document(
        doc_id, text, tuple(keyphrases), relations_from_keys(relation_keys, keyphrases)
    )
    # Ids are T1..Tn, surfaces are text slices and each relation joins two
    # distinct heads of one sentence.  In order, the spans are also in bounds,
    # disjoint and increasing, so their numbers are their canonical ones and
    # no two merge.
    return doc if in_order else canonicalize_document(doc)


def _majority_type(votes: list[str]) -> KeyphraseType:
    best = None
    best_count = -1
    for t in TYPE_PRIORITY:
        count = votes.count(_LETTER[t._value_])
        if count > best_count:
            best, best_count = t, count
    return best


# ---------------------------------------------------------------------------
# TSV export/import of encoded sequences (the CLI `convert` wire format):
# one "token<TAB>start<TAB>end<TAB>label_a<TAB>label_b" line per token,
# "#REL<TAB>i<TAB>j<TAB>S|H" lines after each sentence's tokens (0-based
# sentence-local indices), and a blank line between sentences.
# ---------------------------------------------------------------------------


def sequences_to_tsv(sequences: list[LabeledSequence]) -> str:
    blocks = []
    for seq in sequences:
        lines = [
            f"{t.text}\t{t.start}\t{t.end}\t{a}\t{b}"
            for t, a, b in zip(seq.tokenization.tokens, seq.labels_a, seq.labels_b)
        ]
        for (i, j), value in sorted(seq.relations.items()):
            lines.append(f"#REL\t{i}\t{j}\t{value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def sequences_from_tsv(
    content: str, filename: str | None, text: str
) -> list[LabeledSequence]:
    """Parse the format `sequences_to_tsv` writes, for the document `text`.

    Raises MalformedLine, carrying `filename` and the line number, for a line
    with the wrong number of fields or a non-integer offset or cell index,
    for a token whose span lies outside the text (code OFFSET_OUT_OF_BOUNDS),
    for one whose text differs from the slice at its offsets (code
    SURFACE_MISMATCH), so that a sequence file made for another version of
    the text is not decoded against shifted spans, and for one that starts
    before the previous token of its sentence ends.  The sequences returned
    therefore always decode.
    """
    sequences = []
    tokens: list[Token] = []
    labels_a: list[str] = []
    labels_b: list[str] = []
    cells: dict[tuple[int, int], str] = {}
    for lineno, raw in enumerate(split_lines(content) + [""], 1):
        if not raw:  # an empty line, or the end of `content`, ends a sentence
            if tokens:
                sent = SentenceTokenization(tokens[0].start, tokens[-1].end, tuple(tokens))
                sequences.append(LabeledSequence(sent, tuple(labels_a), tuple(labels_b), cells))
            tokens, labels_a, labels_b, cells = [], [], [], {}
            continue
        if not raw.strip():
            continue
        fields = raw.split("\t")
        try:
            if fields[0] == "#REL":
                _, i, j, value = fields
                cells[(int(i), int(j))] = value
                continue
            word, start, end, a, b = fields
            token = Token(int(start), int(end), word)
        except ValueError as exc:  # a wrong field count or a non-integer
            kind = "#REL" if fields[0] == "#REL" else "token"
            raise MalformedLine(f"bad {kind} line ({exc})", raw, lineno, filename) from None
        if not 0 <= token.start < token.end <= len(text):
            raise MalformedLine(
                f"token span ({token.start}, {token.end}) outside text "
                f"of length {len(text)}",
                raw, lineno, filename, OFFSET_OUT_OF_BOUNDS,
            )
        if text[token.start : token.end] != word:
            raise MalformedLine(
                f"token {word!r} != text slice {text[token.start:token.end]!r}",
                raw, lineno, filename, SURFACE_MISMATCH,
            )
        if tokens and token.start < tokens[-1].end:
            raise MalformedLine(
                f"token out of order: starts at {token.start}, before the "
                f"previous token ends at {tokens[-1].end}",
                raw, lineno, filename,
            )
        tokens.append(token)
        labels_a.append(a)
        labels_b.append(b)
    return sequences
