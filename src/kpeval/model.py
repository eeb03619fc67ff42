"""In-memory model for mention-level keyphrase and relation annotations.

A document is one paragraph of plain text plus a set of typed character-offset
spans (keyphrases) and a set of typed links between them (relations).  All
offsets count Unicode code points of the document text, never bytes.  Types
are immutable; every operation here is a pure function, so documents can be
shared freely across worker threads or processes.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Iterable


class KeyphraseType(enum.Enum):
    """The three mention types. Enum values are the canonical file spellings."""

    MATERIAL = "Material"
    PROCESS = "Process"
    TASK = "Task"

    @classmethod
    def parse(cls, s: str) -> "KeyphraseType":
        """Case-insensitive lookup; raises ValueError for anything else."""
        try:
            return _KEYPHRASE_BY_NAME[s.casefold()]
        except KeyError:
            raise ValueError(f"unknown keyphrase type: {s!r}") from None

    @property
    def letter(self) -> str:
        """Single-letter sequence label: M, P or T."""
        return self.value[0]


_KEYPHRASE_BY_NAME = {t.value.casefold(): t for t in KeyphraseType}

# Deterministic priority used everywhere a type tie must be broken.
TYPE_PRIORITY = (KeyphraseType.MATERIAL, KeyphraseType.PROCESS, KeyphraseType.TASK)


class RelationType(enum.Enum):
    """HYPONYM_OF is directed (arg1 = hyponym); SYNONYM_OF is symmetric."""

    HYPONYM_OF = "Hyponym-of"
    SYNONYM_OF = "Synonym-of"

    @classmethod
    def parse(cls, s: str) -> "RelationType":
        try:
            return _RELATION_BY_NAME[s.casefold()]
        except KeyError:
            raise ValueError(f"unknown relation type: {s!r}") from None


_RELATION_BY_NAME = {t.value.casefold(): t for t in RelationType}


@dataclass(frozen=True)
class Keyphrase:
    """A typed span. `surface` must equal the owning document's text[start:end]."""

    id: str
    ktype: KeyphraseType
    start: int
    end: int
    surface: str

    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def sort_key(self) -> tuple:
        return (self.start, self.end, self.ktype.value)


@dataclass(frozen=True)
class Relation:
    """A typed link between two keyphrase ids of the same document."""

    rtype: RelationType
    arg1: str
    arg2: str


@dataclass(frozen=True)
class Document:
    """One paragraph of text with its keyphrases and relations.

    Annotations are stored as tuples; `canonicalize_document` fixes their
    order, merges duplicates and renumbers ids T1..Tn so that two documents
    with the same annotation content compare equal field-wise.
    """

    doc_id: str
    text: str
    keyphrases: tuple[Keyphrase, ...] = ()
    relations: tuple[Relation, ...] = ()

    def keyphrase_by_id(self) -> dict[str, Keyphrase]:
        return {k.id: k for k in self.keyphrases}


@dataclass
class ValidationReport:
    """Aggregated (doc_id, code, message) entries; errors are hard violations."""

    errors: list[tuple[str, str, str]] = dataclasses.field(default_factory=list)
    warnings: list[tuple[str, str, str]] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, doc_id: str, code: str, message: str) -> None:
        self.errors.append((doc_id, code, message))

    def warn(self, doc_id: str, code: str, message: str) -> None:
        self.warnings.append((doc_id, code, message))

    def extend(self, other: "ValidationReport") -> None:
        self.errors.extend(other.errors)
        self.warnings.extend(other.warnings)


# Error codes reported by validate_document.
OFFSET_OUT_OF_BOUNDS = "OFFSET_OUT_OF_BOUNDS"
SURFACE_MISMATCH = "SURFACE_MISMATCH"
DUPLICATE_ID = "DUPLICATE_ID"
DANGLING_ARGUMENT = "DANGLING_ARGUMENT"
SELF_RELATION = "SELF_RELATION"
# Warning codes.
CROSS_TYPE_RELATION = "CROSS_TYPE_RELATION"
DUPLICATE_SPAN = "DUPLICATE_SPAN"


def _walk(doc: Document) -> tuple[ValidationReport, Document, list[str]]:
    """Apply every invariant rule to every annotation of `doc`, once.

    Returns the validation report, the document stripped of each annotation
    that breaks an error rule, and one message per stripped annotation.  The
    two views resolve ids differently: the report resolves an id to its first
    definition, valid or not, while the stripped document keeps the first
    valid keyphrase of each id, so a relation whose argument was stripped is
    stripped as dangling.
    """
    report = ValidationReport()
    dropped: list[str] = []
    n = len(doc.text)
    seen_ids: dict[str, Keyphrase] = {}  # first definition of each id
    kept: dict[str, Keyphrase] = {}  # first valid keyphrase of each id
    seen_spans: set[tuple[int, int, KeyphraseType]] = set()
    for kp in doc.keyphrases:
        drop = None  # why drop_invalid strips this keyphrase, if it does
        if not (0 <= kp.start < kp.end <= n):
            drop = "span out of bounds"
            report.error(
                doc.doc_id,
                OFFSET_OUT_OF_BOUNDS,
                f"{kp.id}: span ({kp.start}, {kp.end}) outside text of length {n}",
            )
        elif kp.surface != doc.text[kp.start : kp.end]:
            drop = "surface mismatch"
            report.error(
                doc.doc_id,
                SURFACE_MISMATCH,
                f"{kp.id}: surface {kp.surface!r} != text slice "
                f"{doc.text[kp.start:kp.end]!r}",
            )
        if kp.id in seen_ids:
            report.error(doc.doc_id, DUPLICATE_ID, f"id {kp.id} defined twice")
        else:
            seen_ids[kp.id] = kp
        if drop is None and kp.id in kept:
            drop = "duplicate id"
        if drop is None:
            kept[kp.id] = kp
        else:
            dropped.append(f"keyphrase {kp.id}: {drop}")
        key = (kp.start, kp.end, kp.ktype)
        if key in seen_spans:
            report.warn(
                doc.doc_id,
                DUPLICATE_SPAN,
                f"{kp.id}: duplicates span ({kp.start}, {kp.end}, {kp.ktype.value})",
            )
        seen_spans.add(key)

    relations: list[Relation] = []
    for rel in doc.relations:
        if rel.arg1 == rel.arg2:
            drop = "self-relation"
            report.error(
                doc.doc_id, SELF_RELATION, f"{rel.rtype.value} relates {rel.arg1} to itself"
            )
        else:
            drop = None if rel.arg1 in kept and rel.arg2 in kept else "dangling argument"
            dangling = [a for a in (rel.arg1, rel.arg2) if a not in seen_ids]
            if dangling:
                report.error(
                    doc.doc_id,
                    DANGLING_ARGUMENT,
                    f"{rel.rtype.value}({rel.arg1}, {rel.arg2}): no keyphrase "
                    + ", ".join(dangling),
                )
            else:
                k1, k2 = seen_ids[rel.arg1], seen_ids[rel.arg2]
                if k1.ktype != k2.ktype:
                    report.warn(
                        doc.doc_id,
                        CROSS_TYPE_RELATION,
                        f"{rel.rtype.value}({rel.arg1}, {rel.arg2}) links "
                        f"{k1.ktype.value} to {k2.ktype.value}",
                    )
        if drop is None:
            relations.append(rel)
        else:
            dropped.append(f"{rel.rtype.value}({rel.arg1}, {rel.arg2}): {drop}")
    if dropped:
        doc = Document(doc.doc_id, doc.text, tuple(kept.values()), tuple(relations))
    return report, doc, dropped


def validate_document(doc: Document) -> ValidationReport:
    """Check every document invariant, reporting violations instead of raising.

    Errors: offsets out of bounds, surface/text mismatch, duplicate keyphrase
    ids, relation arguments that do not resolve, self-relations.  Warnings:
    relations whose two arguments have different keyphrase types (annotation
    guidelines restrict relations to same-type mentions, but predictions may
    not), and exactly duplicated (start, end, type) keyphrases.
    """
    return _walk(doc)[0]


def canonicalize_document(doc: Document) -> Document:
    """Return the canonical form of a document that validates with zero errors.

    Canonical form: exact duplicate keyphrases (same start, end, type) merged,
    keyphrases sorted by (start, end, type) and renumbered T1..Tn, SYNONYM_OF
    arguments ordered so arg1 has the lexicographically smaller span, duplicate
    relations merged, relations sorted deterministically.  The function is a
    fixed point: canonicalizing twice equals canonicalizing once.  Raises
    ValueError, naming the first error, for a document that does not validate.
    """
    report = validate_document(doc)
    if not report.ok:
        first = report.errors[0]
        raise ValueError(
            f"cannot canonicalize {doc.doc_id}: {len(report.errors)} validation "
            f"error(s), first: [{first[1]}] {first[2]}"
        )
    return canonical_form(doc)


def canonical_form(doc: Document) -> Document:
    """`canonicalize_document` for a document known to validate, unchecked.

    For callers that hold the output of `drop_invalid`, which is valid by
    construction.  An invalid document gives undefined results.
    """
    # Merge duplicate spans, keeping one representative per (start, end, type).
    merged: dict[tuple[int, int, KeyphraseType], Keyphrase] = {}
    remap: dict[str, tuple[int, int, KeyphraseType]] = {}
    for kp in doc.keyphrases:
        key = (kp.start, kp.end, kp.ktype)
        merged.setdefault(key, kp)
        remap[kp.id] = key

    ordered = sorted(merged.values(), key=Keyphrase.sort_key)
    new_ids = {(kp.start, kp.end, kp.ktype): f"T{i}" for i, kp in enumerate(ordered, 1)}
    keyphrases = tuple(
        dataclasses.replace(kp, id=new_ids[(kp.start, kp.end, kp.ktype)])
        for kp in ordered
    )
    span_of = {new_ids[key]: key[:2] for key in new_ids}

    relations: set[Relation] = set()
    for rel in doc.relations:
        a1 = new_ids[remap[rel.arg1]]
        a2 = new_ids[remap[rel.arg2]]
        if a1 == a2:
            # Both arguments merged into one keyphrase; the relation degenerates.
            continue
        if rel.rtype is RelationType.SYNONYM_OF and _arg_sort_key(
            a2, span_of
        ) < _arg_sort_key(a1, span_of):
            a1, a2 = a2, a1
        relations.add(Relation(rel.rtype, a1, a2))

    rel_order = sorted(
        relations,
        key=lambda r: (r.rtype.value, span_of[r.arg1], span_of[r.arg2]),
    )
    return Document(doc.doc_id, doc.text, keyphrases, tuple(rel_order))


def _arg_sort_key(arg_id: str, span_of: dict[str, tuple[int, int]]) -> tuple:
    start, end = span_of[arg_id]
    # Identical spans can only differ in type; canonical ids are assigned in
    # type order, so the id itself is a stable final tie-break.
    return (start, end, int(arg_id[1:]))


def drop_invalid(doc: Document) -> tuple[Document, list[str]]:
    """Strip annotations that make a document fail validation.

    Prediction files from third parties sometimes carry out-of-bounds spans or
    dangling relation arguments; those cannot be scored as items, so they are
    removed with a description of each removal.  Duplicate ids keep the first
    valid occurrence, and relations resolve to it; a relation whose argument
    was removed is removed as dangling.  Cross-type relations are warnings and
    are kept.  A document that validates comes back unchanged.
    """
    _, clean, dropped = _walk(doc)
    return clean, dropped


def make_document(
    doc_id: str,
    text: str,
    keyphrases: Iterable[tuple[str, KeyphraseType, int, int]],
    relations: Iterable[tuple[RelationType, str, str]] = (),
) -> Document:
    """Convenience constructor that derives surfaces from the text."""
    kps = tuple(
        Keyphrase(start=s, end=e, ktype=t, id=kid, surface=text[s:e])
        for kid, t, s, e in keyphrases
    )
    rels = tuple(Relation(rt, a1, a2) for rt, a1, a2 in relations)
    return Document(doc_id, text, kps, rels)
