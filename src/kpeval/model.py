"""In-memory model for mention-level keyphrase and relation annotations.

A document is one paragraph of plain text plus a set of typed character-offset
spans (keyphrases) and a set of typed links between them (relations).  All
offsets count Unicode code points of the document text, never bytes.  The
records are `NamedTuple`s: immutable, cheap to build, and copied with changes
by `_replace`.  Every operation here is a pure function, so documents can be
shared freely across worker threads or processes.  `ValidationReport`, which
collects findings, is the one mutable class.
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence


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
_RELATION_BY_VALUE = {t.value: t for t in RelationType}


class Keyphrase(NamedTuple):
    """A typed span. `surface` must equal the owning document's text[start:end]."""

    id: str
    ktype: KeyphraseType
    start: int
    end: int
    surface: str

    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def sort_key(self) -> tuple:
        # `_value_` is the member's plain attribute.  `value` runs the enum's
        # Python-level descriptor, a cost on every key of every sort; the
        # per-item loops of `_walk`, `canonical_form` and
        # `brat.serialize_annotations` read `_value_` for the same reason.
        return (self.start, self.end, self.ktype._value_)


class Relation(NamedTuple):
    """A typed link between two keyphrase ids of the same document."""

    rtype: RelationType
    arg1: str
    arg2: str


class Document(NamedTuple):
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


class ValidationReport:
    """(doc_id, code, message) entries, errors being hard violations, and one
    (doc_id, message) per annotation a loader stripped, which `ok` ignores."""

    def __init__(
        self,
        errors: list[tuple[str, str, str]] | None = None,
        warnings: list[tuple[str, str, str]] | None = None,
        dropped: list[tuple[str, str]] | None = None,
    ) -> None:
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings
        self.dropped = [] if dropped is None else dropped

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
        self.dropped.extend(other.dropped)


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
    # The first valid keyphrase of each id: the same dict as `seen_ids` until
    # an invalid keyphrase defines a new id, and a copy from then on.
    kept = seen_ids
    seen_spans: set[tuple[int, int, str]] = set()  # sort keys, which hash no enum
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
        if kp.id in seen_ids:  # every id in `kept` is in `seen_ids` too
            report.error(doc.doc_id, DUPLICATE_ID, f"id {kp.id} defined twice")
            if drop is None and kp.id in kept:
                drop = "duplicate id"
        else:
            if drop is not None and kept is seen_ids:
                kept = dict(seen_ids)
            seen_ids[kp.id] = kp
        if drop is None:
            kept[kp.id] = kp
        else:
            dropped.append(f"keyphrase {kp.id}: {drop}")
        key = kp.sort_key()
        if key in seen_spans:
            report.warn(
                doc.doc_id,
                DUPLICATE_SPAN,
                f"{kp.id}: duplicates span ({kp.start}, {kp.end}, {kp.ktype._value_})",
            )
        seen_spans.add(key)

    relations: list[Relation] = []
    for rel in doc.relations:
        if rel.arg1 == rel.arg2:
            drop = "self-relation"
            report.error(
                doc.doc_id, SELF_RELATION, f"{rel.rtype._value_} relates {rel.arg1} to itself"
            )
        else:
            drop = None if rel.arg1 in kept and rel.arg2 in kept else "dangling argument"
            dangling = [a for a in (rel.arg1, rel.arg2) if a not in seen_ids]
            if dangling:
                report.error(
                    doc.doc_id,
                    DANGLING_ARGUMENT,
                    f"{rel.rtype._value_}({rel.arg1}, {rel.arg2}): no keyphrase "
                    + ", ".join(dangling),
                )
            else:
                k1, k2 = seen_ids[rel.arg1], seen_ids[rel.arg2]
                if k1.ktype != k2.ktype:
                    report.warn(
                        doc.doc_id,
                        CROSS_TYPE_RELATION,
                        f"{rel.rtype._value_}({rel.arg1}, {rel.arg2}) links "
                        f"{k1.ktype._value_} to {k2.ktype._value_}",
                    )
        if drop is None:
            relations.append(rel)
        else:
            dropped.append(f"{rel.rtype._value_}({rel.arg1}, {rel.arg2}): {drop}")
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

    For callers that hold a document already checked: one that `_walk` has
    stripped, as `brat.parse_document_pair` does before it returns this
    form, or one that `validate_document` passed.  What the loaders return
    is already canonical.  An invalid document gives undefined results.
    Nothing already canonical is rebuilt: a keyphrase whose id is already its
    canonical id, and a relation whose arguments are, come back as the same
    objects, so a canonical document costs one pass and no copies.
    """
    # Merge duplicate spans, keeping one representative per sort key.
    merged: dict[tuple, Keyphrase] = {}
    for kp in doc.keyphrases:
        merged.setdefault(kp.sort_key(), kp)

    keys = sorted(merged)
    keyphrases: list[Keyphrase] = []
    for i, key in enumerate(keys, 1):
        kp = merged[key]
        kid = f"T{i}"
        if kp.id != kid:
            kp = Keyphrase(kid, kp.ktype, kp.start, kp.end, kp.surface)
        keyphrases.append(kp)

    # Only relations need the number of each id, so a document without any
    # (every gazetteer prediction) builds no map of its ids.
    number: dict[str, int] = {}  # keyphrase id -> i of the canonical Ti
    if doc.relations:
        number_of_key = {key: i for i, key in enumerate(keys, 1)}
        number = {kp.id: number_of_key[kp.sort_key()] for kp in doc.keyphrases}

    # Keyed by `relation_key`, which determines the relation, so sorting the
    # keys orders the relations independently of the hash seed.
    relations: dict[tuple, Relation] = {}
    for rel in doc.relations:
        n1 = number[rel.arg1]
        n2 = number[rel.arg2]
        if n1 == n2:
            # Both arguments merged into one keyphrase; the relation degenerates.
            continue
        key = relation_key(rel.rtype, n1, n2)
        if key not in relations:
            # Share the keyphrases' id strings rather than format new ones.
            a1, a2 = keyphrases[key[1] - 1].id, keyphrases[key[2] - 1].id
            if (rel.arg1, rel.arg2) != (a1, a2):
                rel = Relation(rel.rtype, a1, a2)
            relations[key] = rel
    return Document(
        doc.doc_id,
        doc.text,
        tuple(keyphrases),
        tuple(relations[key] for key in sorted(relations)),
    )


def relation_key(rtype: RelationType, n1: int, n2: int) -> tuple[str, int, int]:
    """The canonical sort key of a relation from keyphrase Tn1 to Tn2.

    Canonical relations are ordered by (type, arg1, arg2), each argument
    compared by its keyphrase's sort key.  Canonical numbers follow that
    order, so the key holds the numbers: integers compare faster than spans.
    Synonym-of is symmetric, so its lower number comes first.
    """
    if n2 < n1 and rtype is RelationType.SYNONYM_OF:
        return (rtype._value_, n2, n1)
    return (rtype._value_, n1, n2)


def relations_from_keys(
    keys: Iterable[tuple[str, int, int]], keyphrases: Sequence[Keyphrase]
) -> tuple[Relation, ...]:
    """The relations `relation_key` gave `keys`, in key order; argument n is
    `keyphrases[n - 1]`, whose id string each relation shares."""
    ids = [kp.id for kp in keyphrases]
    return tuple([
        Relation(_RELATION_BY_VALUE[value], ids[n1 - 1], ids[n2 - 1])
        for value, n1, n2 in sorted(keys)
    ])


def is_canonical(doc: Document) -> bool:
    """Whether `doc` validates and is already in canonical form, as
    `serialize_annotations` requires."""
    return validate_document(doc).ok and canonical_form(doc) == doc


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


def normalize_surface(surface: str) -> str:
    """Case-fold and collapse internal whitespace runs to single spaces."""
    return " ".join(surface.casefold().split())


def make_document(
    doc_id: str,
    text: str,
    keyphrases: Iterable[tuple[str, KeyphraseType, int, int]],
    relations: Iterable[tuple[RelationType, str, str]] = (),
) -> Document:
    """Convenience constructor that derives surfaces from the text."""
    kps = tuple(
        Keyphrase(kid, t, s, e, text[s:e]) for kid, t, s, e in keyphrases
    )
    rels = tuple(Relation(rt, a1, a2) for rt, a1, a2 in relations)
    return Document(doc_id, text, kps, rels)
