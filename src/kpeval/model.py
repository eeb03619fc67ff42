"""In-memory model for mention-level keyphrase and relation annotations.

A document is one paragraph of plain text plus a set of typed character-offset
spans (keyphrases) and a set of typed links between them (relations).  All
offsets count Unicode code points of the document text, never bytes.  The
records are `NamedTuple`s: immutable, cheap to build, and copied with changes
by `_replace`.  Every operation here is a pure function.  `ValidationReport`,
which collects findings, is the one mutable class.
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
# Before Python 3.12, reading a member through its class runs the enum's
# Python-level lookup; `relation_key`, called once per relation, reads this.
_SYNONYM_OF = RelationType.SYNONYM_OF


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
        # per-item loops of `walk_document` and `brat.serialize_annotations` read
        # `_value_` for the same reason.
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

    def __init__(self) -> None:
        self.errors: list[tuple[str, str, str]] = []
        self.warnings: list[tuple[str, str, str]] = []
        self.dropped: list[tuple[str, str]] = []

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


def walk_document(
    doc: Document, warn: bool = True
) -> tuple[ValidationReport, Document, list[str]]:
    """Apply every invariant rule to every annotation of `doc`, once, and put
    what is left in canonical form; `validate_document`, `is_canonical`,
    `canonicalize_document` and `drop_invalid` are projections of it.

    Returns the validation report, the canonical form of the document
    stripped of each annotation that breaks an error rule, and one message
    per stripped annotation.  The two views resolve ids differently: the
    report resolves an id to its first definition, valid or not, while the
    canonical form keeps the first valid keyphrase of each id, so a relation
    whose argument was stripped is stripped as dangling.  A relation that
    repeats a kept one (the same `relation_key`) is merged into it and warns
    nothing.  Nothing already canonical is rebuilt: a keyphrase whose id is
    already its canonical id, and a relation whose arguments are, come back
    as the same objects.  With `warn` false the report holds errors only,
    for callers that read nothing else, and no warning is formatted.
    """
    report = ValidationReport()
    dropped: list[str] = []
    n = len(doc.text)
    seen_ids: dict[str, Keyphrase] = {}  # first definition of each id
    # The first valid keyphrase of each id: the same dict as `seen_ids` until
    # an invalid keyphrase defines a new id, and a copy from then on.
    kept = seen_ids
    # Each sort key, which hashes no enum, to the first kept keyphrase with
    # it, or to None while only stripped keyphrases have it.
    by_key: dict[tuple[int, int, str], Keyphrase | None] = {}
    for kp in doc.keyphrases:
        drop = None  # why the walk strips this keyphrase, if it does
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
        if key in by_key:
            if warn:
                report.warn(
                    doc.doc_id,
                    DUPLICATE_SPAN,
                    f"{kp.id}: duplicates span ({kp.start}, {kp.end}, {kp.ktype._value_})",
                )
            if drop is None and by_key[key] is None:
                by_key[key] = kp
        else:
            by_key[key] = kp if drop is None else None

    keys = sorted([key for key, kp in by_key.items() if kp is not None])
    keyphrases: list[Keyphrase] = []
    for i, key in enumerate(keys, 1):
        kp = by_key[key]
        kid = f"T{i}"
        if kp.id != kid:
            kp = Keyphrase(kid, kp.ktype, kp.start, kp.end, kp.surface)
        keyphrases.append(kp)
    # Only relations need the canonical number of each kept id, so a document
    # without any (every gazetteer prediction) builds no such map.
    kept_number: dict[str, int] = {}
    if doc.relations:
        number = {key: i for i, key in enumerate(keys, 1)}
        kept_number = {kid: number[kp.sort_key()] for kid, kp in kept.items()}

    # Each kept relation's `relation_key` to the first kept relation with it;
    # the key determines the relation, so sorting the keys orders the
    # relations independently of the hash seed.
    relations: dict[tuple[str, int, int], Relation] = {}
    for rel in doc.relations:
        if rel.arg1 == rel.arg2:
            report.error(
                doc.doc_id, SELF_RELATION, f"{rel.rtype._value_} relates {rel.arg1} to itself"
            )
            dropped.append(f"{rel.rtype._value_}({rel.arg1}, {rel.arg2}): self-relation")
            continue
        n1 = kept_number.get(rel.arg1)
        n2 = kept_number.get(rel.arg2)
        if n1 is not None and n2 is not None:
            key = relation_key(rel.rtype, n1, n2)
            if key in relations:
                continue  # a repeat, merged into the relation that warned for it
            relations[key] = rel
        else:
            # Every kept id is in `seen_ids`, so only a relation that is not
            # kept can name an id that nothing defines.
            dropped.append(f"{rel.rtype._value_}({rel.arg1}, {rel.arg2}): dangling argument")
            dangling = [a for a in (rel.arg1, rel.arg2) if a not in seen_ids]
            if dangling:
                report.error(
                    doc.doc_id,
                    DANGLING_ARGUMENT,
                    f"{rel.rtype._value_}({rel.arg1}, {rel.arg2}): no keyphrase "
                    + ", ".join(dangling),
                )
                continue
        if warn:
            k1, k2 = seen_ids[rel.arg1], seen_ids[rel.arg2]
            if k1.ktype is not k2.ktype:
                report.warn(
                    doc.doc_id,
                    CROSS_TYPE_RELATION,
                    f"{rel.rtype._value_}({rel.arg1}, {rel.arg2}) links "
                    f"{k1.ktype._value_} to {k2.ktype._value_}",
                )

    canonical: list[Relation] = []
    for key in sorted(relations):
        _, n1, n2 = key
        if n1 == n2:
            # Both arguments merged into one keyphrase; the relation degenerates.
            continue
        rel = relations[key]
        # Share the keyphrases' id strings rather than format new ones.
        a1, a2 = keyphrases[n1 - 1].id, keyphrases[n2 - 1].id
        if (rel.arg1, rel.arg2) != (a1, a2):
            rel = Relation(rel.rtype, a1, a2)
        canonical.append(rel)
    doc = Document(doc.doc_id, doc.text, tuple(keyphrases), tuple(canonical))
    return report, doc, dropped


def validate_document(doc: Document) -> ValidationReport:
    """Check every document invariant, reporting violations instead of raising.

    Errors: offsets out of bounds, surface/text mismatch, duplicate keyphrase
    ids, relation arguments that do not resolve, self-relations.  Warnings:
    relations whose two arguments have different keyphrase types (annotation
    guidelines restrict relations to same-type mentions, but predictions may
    not), and exactly duplicated (start, end, type) keyphrases.  A cross-type
    relation warns once: a repeat of a relation that is kept, the same pair
    written again or, for Synonym-of, either way round, warns nothing more.
    """
    return walk_document(doc)[0]


def canonicalize_document(doc: Document) -> Document:
    """Return the canonical form of a document that validates with zero errors.

    Canonical form: exact duplicate keyphrases (same start, end, type) merged,
    keyphrases sorted by (start, end, type) and renumbered T1..Tn, SYNONYM_OF
    arguments ordered so arg1 has the lexicographically smaller span, duplicate
    relations merged, relations sorted deterministically.  The function is a
    fixed point: canonicalizing twice equals canonicalizing once.  Raises
    ValueError, naming the first error, for a document that does not validate.
    """
    report, canon, _ = walk_document(doc, warn=False)
    if not report.ok:
        first = report.errors[0]
        raise ValueError(
            f"cannot canonicalize {doc.doc_id}: {len(report.errors)} validation "
            f"error(s), first: [{first[1]}] {first[2]}"
        )
    return canon


def relation_key(rtype: RelationType, n1: int, n2: int) -> tuple[str, int, int]:
    """The canonical sort key of a relation from keyphrase Tn1 to Tn2.

    Canonical relations are ordered by (type, arg1, arg2), each argument
    compared by its keyphrase's sort key.  Canonical numbers follow that
    order, so the key holds the numbers: integers compare faster than spans.
    Synonym-of is symmetric, so its lower number comes first.
    """
    if n2 < n1 and rtype is _SYNONYM_OF:
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
    report, canon, _ = walk_document(doc, warn=False)
    return report.ok and canon == doc


def drop_invalid(doc: Document) -> tuple[Document, list[str]]:
    """Strip annotations that make a document fail validation, and return the
    canonical form of what is left.

    Prediction files from third parties sometimes carry out-of-bounds spans or
    dangling relation arguments; those cannot be scored as items, so they are
    removed with a description of each removal.  Duplicate ids keep the first
    valid occurrence, and relations resolve to it; a relation whose argument
    was removed is removed as dangling.  Cross-type relations are warnings and
    are kept.  A document that validates comes back as `canonicalize_document`
    returns it, with no removals.
    """
    _, canon, dropped = walk_document(doc, warn=False)
    return canon, dropped


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
