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

All functions are pure.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

from .brat import MalformedLine
from .model import (
    TYPE_PRIORITY,
    Document,
    Keyphrase,
    KeyphraseType,
    Relation,
    RelationType,
    canonicalize_document,
    make_document,
)

# Reasons a span or relation is dropped during alignment / encoding.
BOUNDARY_MISMATCH = "BOUNDARY_MISMATCH"
CROSSES_SENTENCE = "CROSSES_SENTENCE"
OVERLAP = "OVERLAP"
CROSS_SENTENCE_RELATION = "CROSS_SENTENCE_RELATION"
ARGUMENT_DROPPED = "ARGUMENT_DROPPED"
CELL_CONFLICT = "CELL_CONFLICT"

_LETTER_TO_TYPE = {t.letter: t for t in KeyphraseType}

_SENTENCE_BREAK = re.compile(
    r"[.!?][\)\]\}\"'’”]*(?=\s)"
)

# A word token: alphanumeric runs joined by internal -, _, ., ', + .
_TOKEN = re.compile(r"[^\W_]+(?:[-_.'+][^\W_]+)*|\S", re.UNICODE)


@dataclass(frozen=True)
class Token:
    start: int
    end: int
    text: str


@dataclass(frozen=True)
class SentenceTokenization:
    """Tokens of one sentence; the sentence span is trimmed to its tokens."""

    sentence_start: int
    sentence_end: int
    tokens: tuple[Token, ...]


@dataclass(frozen=True)
class LabeledSequence:
    """Per-token labels for one sentence.

    `relations` is the sparse form of the n-by-n relation grid: missing cells
    are O.  Valid sequences satisfy: an I never follows an O, the type label
    is O exactly where the boundary label is O, non-O cells sit only at head
    (B) token pairs off the diagonal, and S cells are symmetric.
    """

    tokenization: SentenceTokenization
    labels_a: tuple[str, ...]
    labels_b: tuple[str, ...]
    relations: dict[tuple[int, int], str] = dataclasses.field(default_factory=dict)


@dataclass
class AlignmentOutcome:
    """Bookkeeping of what survived the span-to-token conversion.

    `aligned` maps keyphrase id to (sentence index, half-open token range).
    Every keyphrase of the document lands either in `aligned` or in
    `dropped_spans`; every relation either encodes or lands in
    `dropped_relations`.
    """

    aligned: dict[str, tuple[int, tuple[int, int]]] = dataclasses.field(default_factory=dict)
    dropped_spans: list[tuple[str, str]] = dataclasses.field(default_factory=list)
    dropped_relations: list[tuple[Relation, str]] = dataclasses.field(default_factory=list)


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Split text into sentence spans, trimmed to non-whitespace.

    The spans are in order and non-overlapping and jointly cover every
    non-whitespace character; whatever lies between them is whitespace, so
    the original text is recoverable.  Empty or all-whitespace text yields
    no sentences.
    """
    boundaries = []
    for m in _SENTENCE_BREAK.finditer(text):
        rest = text[m.end():].lstrip()
        if rest and (rest[0].isupper() or rest[0].isdigit()):
            boundaries.append(m.end())
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
    start, end = sentence
    return [
        Token(start + m.start(), start + m.end(), m.group())
        for m in _TOKEN.finditer(text[start:end])
    ]


def tokenize_document(text: str) -> list[SentenceTokenization]:
    result = []
    for span in split_sentences(text):
        tokens = tuple(tokenize(text, span))
        result.append(SentenceTokenization(span[0], span[1], tokens))
    return result


def _place_span(
    start: int, end: int, tokenizations: list[SentenceTokenization]
) -> tuple[int, tuple[int, int]] | str:
    """Return (sentence index, token range) or a drop reason."""
    for s_idx, sent in enumerate(tokenizations):
        if sent.sentence_start <= start and end <= sent.sentence_end:
            first = next(
                (i for i, t in enumerate(sent.tokens) if t.start == start), None
            )
            last = next(
                (i for i, t in enumerate(sent.tokens) if t.end == end), None
            )
            if first is not None and last is not None and first <= last:
                return (s_idx, (first, last + 1))
            return BOUNDARY_MISMATCH
    return CROSSES_SENTENCE


def _snap_span(
    start: int, end: int, tokenizations: list[SentenceTokenization]
) -> tuple[int, tuple[int, int]] | str:
    """Expand a span outward to the boundaries of every token it touches."""
    hits = [
        (s_idx, i)
        for s_idx, sent in enumerate(tokenizations)
        for i, t in enumerate(sent.tokens)
        if t.end > start and t.start < end
    ]
    if not hits:
        return BOUNDARY_MISMATCH
    if len({s_idx for s_idx, _ in hits}) > 1:
        return CROSSES_SENTENCE
    s_idx = hits[0][0]
    return (s_idx, (hits[0][1], hits[-1][1] + 1))


def encode_document(
    doc: Document, snap: bool = False
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
    overlap).  A relation grid cell already claimed by an earlier relation
    drops the later relation with reason CELL_CONFLICT.
    """
    tokenizations = tokenize_document(doc.text)
    outcome = AlignmentOutcome()
    by_id = doc.keyphrase_by_id()
    for kp in doc.keyphrases:
        placed = _place_span(kp.start, kp.end, tokenizations)
        if placed == BOUNDARY_MISMATCH and snap:
            placed = _snap_span(kp.start, kp.end, tokenizations)
        if isinstance(placed, str):
            outcome.dropped_spans.append((kp.id, placed))
        else:
            outcome.aligned[kp.id] = placed

    _resolve_overlaps(by_id, outcome)
    for rel in doc.relations:
        a1 = outcome.aligned.get(rel.arg1)
        a2 = outcome.aligned.get(rel.arg2)
        if a1 is None or a2 is None:
            outcome.dropped_relations.append((rel, ARGUMENT_DROPPED))
        elif a1[0] != a2[0]:
            outcome.dropped_relations.append((rel, CROSS_SENTENCE_RELATION))

    sequences = [
        LabeledSequence(
            tokenization=sent,
            labels_a=tuple(["O"] * len(sent.tokens)),
            labels_b=tuple(["O"] * len(sent.tokens)),
        )
        for sent in tokenizations
    ]
    for kp_id, (s_idx, (first, last)) in outcome.aligned.items():
        seq = sequences[s_idx]
        a = list(seq.labels_a)
        b = list(seq.labels_b)
        a[first] = "B"
        for i in range(first + 1, last):
            a[i] = "I"
        letter = by_id[kp_id].ktype.letter
        for i in range(first, last):
            b[i] = letter
        sequences[s_idx] = dataclasses.replace(seq, labels_a=tuple(a), labels_b=tuple(b))

    dropped = {rel for rel, _ in outcome.dropped_relations}
    for rel in doc.relations:
        if rel in dropped:
            continue
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


def _resolve_overlaps(
    by_id: dict[str, Keyphrase], outcome: AlignmentOutcome
) -> None:
    """Longer span wins contested tokens; deterministic tie-break."""
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
    claimed: set[tuple[int, int]] = set()
    for kp_id, (s_idx, (first, last)) in order:
        tokens = {(s_idx, i) for i in range(first, last)}
        if tokens & claimed:
            del outcome.aligned[kp_id]
            outcome.dropped_spans.append((kp_id, OVERLAP))
        else:
            claimed |= tokens


def check_sequence(seq: LabeledSequence) -> list[str]:
    """Return a description of every LabeledSequence invariant violation."""
    problems = []
    n = len(seq.tokenization.tokens)
    if len(seq.labels_a) != n or len(seq.labels_b) != n:
        problems.append("label lengths differ from token count")
        return problems
    prev = "O"
    for i, (a, b) in enumerate(zip(seq.labels_a, seq.labels_b)):
        if a not in ("O", "B", "I"):
            problems.append(f"token {i}: bad boundary label {a!r}")
        if b not in ("O", "M", "P", "T"):
            problems.append(f"token {i}: bad type label {b!r}")
        if a == "I" and prev == "O":
            problems.append(f"token {i}: I follows O")
        if (a == "O") != (b == "O"):
            problems.append(f"token {i}: boundary/type labels disagree on O")
        prev = a
    heads = {i for i, a in enumerate(seq.labels_a) if a == "B"}
    for (i, j), value in seq.relations.items():
        if value not in ("S", "H"):
            problems.append(f"cell ({i}, {j}): bad value {value!r}")
        if i == j:
            problems.append(f"cell ({i}, {j}): diagonal entry")
        if not (0 <= i < n and 0 <= j < n):
            problems.append(f"cell ({i}, {j}): out of range")
        elif i not in heads or j not in heads:
            problems.append(f"cell ({i}, {j}): not a head-token pair")
        if value == "S" and seq.relations.get((j, i)) != "S":
            problems.append(f"cell ({i}, {j}): S without symmetric cell")
    return problems


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
    """

    def note(msg: str) -> None:
        if repairs is not None:
            repairs.append(msg)

    keyphrases: list[tuple[str, KeyphraseType, int, int]] = []
    relations: list[tuple[RelationType, str, str]] = []
    counter = 0
    for s_idx, seq in enumerate(sequences):
        tokens = seq.tokenization.tokens
        runs: list[tuple[int, int]] = []
        start_i: int | None = None
        prev = "O"
        for i, label in enumerate(seq.labels_a):
            if label == "B" or (label == "I" and prev == "O"):
                if label == "I":
                    note(f"sentence {s_idx}: I after O at token {i} promoted to B")
                if start_i is not None:
                    runs.append((start_i, i))
                start_i = i
            elif label == "I":
                pass  # continues the open run
            else:
                if label != "O":
                    note(f"sentence {s_idx}: unknown boundary label {label!r} read as O")
                if start_i is not None:
                    runs.append((start_i, i))
                    start_i = None
            prev = "O" if label not in ("B", "I") else "B"
        if start_i is not None:
            runs.append((start_i, len(seq.labels_a)))

        head_to_id: dict[int, str] = {}
        for first, last in runs:
            votes = [seq.labels_b[i] for i in range(first, last) if seq.labels_b[i] != "O"]
            if len(votes) < last - first:
                note(f"sentence {s_idx}: span at token {first} has O type labels")
            ktype = _majority_type(votes)
            counter += 1
            kp_id = f"T{counter}"
            head_to_id[first] = kp_id
            keyphrases.append((kp_id, ktype, tokens[first].start, tokens[last - 1].end))

        seen_syn: set[frozenset[int]] = set()
        for (i, j), value in sorted(seq.relations.items()):
            if i == j or i not in head_to_id or j not in head_to_id:
                note(f"sentence {s_idx}: cell ({i}, {j}) is not a valid head pair")
                continue
            if value == "H":
                relations.append((RelationType.HYPONYM_OF, head_to_id[i], head_to_id[j]))
            elif value == "S":
                pair = frozenset((i, j))
                if pair in seen_syn:
                    continue
                if seq.relations.get((j, i)) != "S":
                    note(f"sentence {s_idx}: cell ({i}, {j}) S without mirror cell")
                seen_syn.add(pair)
                relations.append((RelationType.SYNONYM_OF, head_to_id[i], head_to_id[j]))
            else:
                note(f"sentence {s_idx}: cell ({i}, {j}) has unknown value {value!r}")
    doc = make_document(doc_id, text, keyphrases, relations)
    return canonicalize_document(doc)


def _majority_type(votes: list[str]) -> KeyphraseType:
    best = None
    best_count = -1
    for t in TYPE_PRIORITY:
        count = votes.count(t.letter)
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


def sequences_from_tsv(content: str, filename: str | None = None) -> list[LabeledSequence]:
    """Parse the format `sequences_to_tsv` writes.

    Raises MalformedLine, carrying `filename` and the line number, for a line
    with the wrong number of fields or a non-integer offset or cell index.
    """
    sequences = []
    block_line = 1
    for block in content.split("\n\n"):
        first_line, block_line = block_line, block_line + block.count("\n") + 2
        if not block.strip():
            continue
        tokens: list[Token] = []
        labels_a: list[str] = []
        labels_b: list[str] = []
        cells: dict[tuple[int, int], str] = {}
        for lineno, raw in enumerate(block.splitlines(), first_line):
            if not raw.strip():
                continue
            fields = raw.split("\t")
            try:
                if fields[0] == "#REL":
                    _, i, j, value = fields
                    cells[(int(i), int(j))] = value
                else:
                    text, start, end, a, b = fields
                    tokens.append(Token(int(start), int(end), text))
                    labels_a.append(a)
                    labels_b.append(b)
            except ValueError as exc:  # a wrong field count or a non-integer
                kind = "#REL" if fields[0] == "#REL" else "token"
                raise MalformedLine(f"bad {kind} line ({exc})", raw, lineno, filename) from None
        if not tokens:
            continue
        sent = SentenceTokenization(tokens[0].start, tokens[-1].end, tuple(tokens))
        sequences.append(
            LabeledSequence(sent, tuple(labels_a), tuple(labels_b), cells)
        )
    return sequences
