"""Reading and writing paired .txt / .ann stand-off annotation files.

File conventions (one document = `<stem>.txt` + `<stem>.ann`, both UTF-8):

  * `<stem>.txt` holds one plain-text paragraph.  Bytes are preserved as-is
    (no re-wrapping, "\\r\\n" kept); one leading BOM, if present, is
    stripped before offset 0 is assigned.  Offsets count code points of the
    result, so a U+FEFF after the BOM is offset 0.
  * `<stem>.ann` is UTF-8 too, and one leading BOM is stripped likewise.  It
    is newline-delimited and tab-separated:
      - entities:     ``T<k>\\t<Type> <start> <end>\\t<surface>``
      - hyponymy:     ``R<k>\\tHyponym-of Arg1:T<i> Arg2:T<j>``
      - synonymy:     ``*\\tSynonym-of T<i> T<j> [T<l> ...]``
    Lines end at "\\n", "\\r\\n" or "\\r" only, so a surface column holds
    any other character (a form feed, "\\u2028") just as the text does.
    Type strings are matched case-insensitively.  ``R`` lines with type
    Synonym-of are tolerated (some prediction files emit them) and normalized
    to canonical pairs.  The surface column is only validated against the
    text slice; offsets are the source of truth.

The loaders return canonical documents: each annotation that breaks an error
rule is reported, left out, and listed in `ValidationReport.dropped`, and the
rest is put in canonical form (duplicate spans merged, ids renumbered T1..Tn,
relations sorted), so what a loader returns can be saved as it is.  Parsing
of distinct documents is pure and may run concurrently.

Text meets a file in `read_utf8` and `write_utf8` only, and each undoes the
other.  `parse_document_pair` takes the text and .ann content as `read_utf8`
returns them and strips no BOM.  Every .txt, .seq and .ann file that kpeval
writes holds its text byte for byte, line breaks included, and a BOM is
written only before a text that starts with U+FEFF.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Iterator

from .model import (
    Document,
    Keyphrase,
    KeyphraseType,
    Relation,
    RelationType,
    SURFACE_MISMATCH,
    ValidationReport,
    _walk,
    is_canonical,
)

MISSING_ANN = "MISSING_ANN"
MISSING_TXT = "MISSING_TXT"
MALFORMED_LINE = "MALFORMED_LINE"


class MalformedLine(ValueError):
    """A .ann or .seq line that cannot be used; knows its position when
    available, and `code`, the report code it is an error under."""

    def __init__(self, reason: str, line: str, lineno: int | None = None,
                 filename: str | None = None, code: str = MALFORMED_LINE):
        self.reason = reason
        self.line = line
        self.lineno = lineno
        self.filename = filename
        self.code = code
        where = ""
        if filename is not None:
            where += f"{filename} "
        if lineno is not None:
            where += f"line {lineno}: "
        super().__init__(f"{where}{reason}: {line!r}")


class Corpus:
    """Documents keyed and iterated by doc_id, in doc_id order."""

    def __init__(self, documents: dict[str, Document] | None = None) -> None:
        self.documents = dict(sorted(documents.items())) if documents else {}

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.documents

    def __getitem__(self, doc_id: str) -> Document:
        return self.documents[doc_id]

    def doc_ids(self) -> list[str]:
        return list(self.documents)


def parse_ann_line(line: str) -> Keyphrase | tuple[Relation, ...]:
    """Parse one non-empty .ann line into the records it annotates: for a
    ``T`` line its Keyphrase, with the surface column as `surface`; for an
    ``R`` line a tuple of its one Relation; for a ``*`` line with k ids a
    tuple of all k*(k-1)/2 synonym pairs, in `itertools.combinations` order.

    Raises MalformedLine for a wrong field count, non-integer offsets, an
    unknown leading sigil, or an unknown type string.
    """
    line = line.rstrip("\r\n")
    fields = line.split("\t")
    sigil = fields[0][:1]
    if sigil == "T":
        if len(fields) < 3:
            raise MalformedLine("entity line needs 3 tab-separated fields", line)
        middle = fields[1].split()
        if len(middle) != 3:
            raise MalformedLine("entity line needs '<Type> <start> <end>'", line)
        type_str, start_str, end_str = middle
        try:
            ktype = KeyphraseType.parse(type_str)
        except ValueError:
            raise MalformedLine(f"unknown keyphrase type {type_str!r}", line) from None
        try:
            start, end = int(start_str), int(end_str)
        except ValueError:
            raise MalformedLine("offsets must be integers", line) from None
        if start < 0 or end < 0:
            raise MalformedLine("offsets must be non-negative", line)
        return Keyphrase(fields[0], ktype, start, end, fields[2])
    if sigil == "R":
        if len(fields) < 2:
            raise MalformedLine("relation line needs 2 tab-separated fields", line)
        parts = fields[1].split()
        if len(parts) != 3:
            raise MalformedLine("relation line needs '<Type> Arg1:<id> Arg2:<id>'", line)
        try:
            rtype = RelationType.parse(parts[0])
        except ValueError:
            raise MalformedLine(f"unknown relation type {parts[0]!r}", line) from None
        args = {}
        for part in parts[1:]:
            label, sep, ref = part.partition(":")
            if not sep or label.casefold() not in ("arg1", "arg2"):
                raise MalformedLine(f"bad relation argument {part!r}", line)
            args[label.casefold()] = ref
        if set(args) != {"arg1", "arg2"}:
            raise MalformedLine("relation needs exactly Arg1 and Arg2", line)
        return (Relation(rtype, args["arg1"], args["arg2"]),)
    if sigil == "*":
        if len(fields) < 2:
            raise MalformedLine("equivalence line needs 2 tab-separated fields", line)
        parts = fields[1].split()
        if len(parts) < 3:
            raise MalformedLine("equivalence line needs a type and >= 2 ids", line)
        try:
            rtype = RelationType.parse(parts[0])
        except ValueError:
            raise MalformedLine(f"unknown relation type {parts[0]!r}", line) from None
        if rtype is not RelationType.SYNONYM_OF:
            raise MalformedLine("equivalence lines must be Synonym-of", line)
        return tuple(Relation(rtype, a1, a2)
                     for a1, a2 in itertools.combinations(parts[1:], 2))
    raise MalformedLine(f"unknown leading sigil {fields[0]!r}", line)


def split_lines(content: str) -> list[str]:
    """`content` split at "\\n", "\\r\\n" and "\\r" only, as universal newlines
    reads it; `str.splitlines` also splits at "\\f", "\\x85", "\\u2028" and
    other characters that a surface column or a token may hold."""
    return content.replace("\r\n", "\n").replace("\r", "\n").split("\n")


# Characters that would break the one-line .ann layout if written verbatim in
# the surface column; the validator applies the same mapping to the text slice.
_FLATTEN = str.maketrans({"\n": " ", "\r": " ", "\t": " "})


def parse_document_pair(
    doc_id: str, text: str, ann: str
) -> tuple[Document, ValidationReport]:
    """Assemble a canonical Document from .txt and .ann content as `read_utf8`
    returns them; a U+FEFF left at the start of either is content.

    Malformed lines are recorded as MALFORMED_LINE errors with their line
    number and skipped; no line is ever dropped silently.  A keyphrase keeps
    the text slice at its offsets; a surface column equal to neither the slice
    nor its flattened form is a SURFACE_MISMATCH error.  The document is walked
    once: the report carries the validate_document output of the document as
    written, and the document comes back as the canonical form of what is left
    once each annotation that breaks an error rule is stripped, with each
    removal in `report.dropped`.  Each report message names its document:
    `<doc_id>.ann line <k>: ` before a line's, `<doc_id>: ` before the walk's.
    """
    report = ValidationReport()
    keyphrases: list[Keyphrase] = []
    relations: list[Relation] = []
    n = len(text)
    for lineno, raw in enumerate(split_lines(ann), 1):
        if not raw.strip():
            continue
        try:
            parsed = parse_ann_line(raw)
        except MalformedLine as exc:
            report.error(doc_id, MALFORMED_LINE,
                         f"{doc_id}.ann line {lineno}: {exc.reason}")
            continue
        if isinstance(parsed, Keyphrase):
            surface = text[parsed.start : parsed.end] if parsed.end <= n else ""
            if surface != parsed.surface:
                if surface and surface.translate(_FLATTEN) != parsed.surface:
                    report.error(
                        doc_id,
                        SURFACE_MISMATCH,
                        f"{doc_id}.ann line {lineno}: {parsed.id} column "
                        f"{parsed.surface!r} != text slice {surface!r}",
                    )
                parsed = parsed._replace(surface=surface)
            keyphrases.append(parsed)
        else:
            relations.extend(parsed)
    doc = Document(doc_id, text, tuple(keyphrases), tuple(relations))
    doc_report, doc, dropped = _walk(doc)
    # A walk message names an annotation only; every report entry names its file.
    for entries, into in ((doc_report.errors, report.errors),
                          (doc_report.warnings, report.warnings)):
        into.extend((doc_id, code, f"{doc_id}: {message}") for _, code, message in entries)
    report.dropped.extend((doc_id, message) for message in dropped)
    return doc, report


def serialize_annotations(doc: Document) -> str:
    """Render a canonical document back to .ann bytes.

    Output is deterministic: entities in canonical order renumbered T1..Tn,
    one ``*`` line per synonym pair, hyponym lines numbered R1..Rm.  A document
    with no annotations serializes to the empty string.  Re-parsing and
    re-serializing the output is a byte-level fixed point.
    """
    if not is_canonical(doc):
        raise ValueError(f"document {doc.doc_id} is not canonical; "
                         "run canonicalize_document first")
    # Surfaces are slices of the text, as the guard has just checked, so only
    # a text holding a tab or a line break can give one to flatten.
    text = doc.text
    flatten = "\t" in text or "\n" in text or "\r" in text
    lines = [
        f"{kp.id}\t{kp.ktype._value_} {kp.start} {kp.end}\t"
        f"{kp.surface.translate(_FLATTEN) if flatten else kp.surface}\n"
        for kp in doc.keyphrases
    ]
    # Synonym lines come first, though canonical order puts them last.  The
    # member is read once, as in `codec.decode_document`.
    synonym_of = RelationType.SYNONYM_OF
    hyponyms: list[str] = []
    for rel in doc.relations:
        if rel.rtype is synonym_of:
            lines.append(f"*\tSynonym-of {rel.arg1} {rel.arg2}\n")
        else:
            hyponyms.append(f"R{len(hyponyms) + 1}\tHyponym-of Arg1:{rel.arg1} Arg2:{rel.arg2}\n")
    return "".join(lines) + "".join(hyponyms)


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file, without one leading BOM and with its line
    breaks as stored; bytes that do not decode are an OSError naming it.
    `write_utf8` undoes it."""
    try:
        with path.open(encoding="utf-8", newline="") as f:
            return f.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def write_utf8(path: Path, text: str) -> None:
    """Write `text` as UTF-8 with its line breaks as they are, and with a BOM
    only before a text that starts with U+FEFF, so that `read_utf8` reads
    `text` back."""
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write("\ufeff" + text if text.startswith("\ufeff") else text)


def doc_id_of(path: Path) -> str:
    """The name of `path` without its last suffix: `Path.stem` keeps the
    whole name of a hidden file, so that `.txt` would pair with `.txt.ann`."""
    return path.name.rpartition(".")[0]


def load_corpus(dir_path: str | Path) -> tuple[Corpus, ValidationReport]:
    """Load every `<stem>.txt` + `<stem>.ann` pair from a directory.

    A .txt without its .ann (or vice versa) produces an error entry naming the
    stem.  Per-file parse problems are aggregated into the report rather than
    aborting the load; the rest of the corpus still comes back usable.
    """
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise NotADirectoryError(f"not a directory: {dir_path}")
    report = ValidationReport()
    txt_stems = {doc_id_of(p) for p in dir_path.glob("*.txt")}
    ann_stems = {doc_id_of(p) for p in dir_path.glob("*.ann")}
    for stem in sorted(txt_stems - ann_stems):
        report.error(stem, MISSING_ANN, f"{stem}.txt has no matching {stem}.ann")
    for stem in sorted(ann_stems - txt_stems):
        report.error(stem, MISSING_TXT, f"{stem}.ann has no matching {stem}.txt")
    documents = {}
    for stem in sorted(txt_stems & ann_stems):
        text = read_utf8(dir_path / f"{stem}.txt")
        ann = read_utf8(dir_path / f"{stem}.ann")
        doc, doc_report = parse_document_pair(stem, text, ann)
        documents[stem] = doc
        report.extend(doc_report)
    return Corpus(documents), report


def load_predictions(dir_path: str | Path, reference: Corpus) -> tuple[Corpus, ValidationReport]:
    """Load a prediction directory of bare .ann files against reference texts.

    Prediction directories mirror the input corpus but need not repeat the
    .txt files; each `<stem>.ann` is paired with the reference document's
    text.  A stem absent from the reference is an error; a reference document
    without a prediction file loads as an empty prediction.
    """
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise NotADirectoryError(f"not a directory: {dir_path}")
    report = ValidationReport()
    documents = {}
    # In doc_id order, as `load_corpus` reads; path order puts "a-b.ann"
    # before "a.ann".
    for doc_id, path in sorted((doc_id_of(path), path) for path in dir_path.glob("*.ann")):
        if doc_id not in reference:
            report.error(doc_id, MISSING_TXT,
                         f"{path.name} has no document in the gold corpus")
            continue
        text = reference[doc_id].text
        doc, doc_report = parse_document_pair(doc_id, text, read_utf8(path))
        documents[doc_id] = doc
        report.extend(doc_report)
    for doc_id in reference.doc_ids():
        documents.setdefault(doc_id, Document(doc_id, reference[doc_id].text))
    return Corpus(documents), report


def save_corpus(corpus: Corpus, dir_path: str | Path, write_text: bool = False) -> None:
    """Write one .ann file per document (plus .txt when requested).

    Each document is serialized and written before the next, by the same
    per-document writer that `kpeval baseline` calls as it makes each
    prediction, so the writer holds one serialized document at a time.
    """
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for doc in corpus:
        _save_document(doc, dir_path, write_text)


def _save_document(doc: Document, dir_path: Path, write_text: bool = False) -> None:
    write_utf8(dir_path / f"{doc.doc_id}.ann", serialize_annotations(doc))
    if write_text:
        write_utf8(dir_path / f"{doc.doc_id}.txt", doc.text)
