import ast
import enum
import itertools
import random
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXAMPLE_TEXT,
    example_document,
    misalignment_corpus,
    synth_corpus,
    write_corpus_dir,
)
import kpeval
from kpeval import (
    Corpus,
    Document,
    Keyphrase,
    KeyphraseType,
    MalformedLine,
    Relation,
    RelationType,
    ValidationReport,
    canonicalize_document,
    load_corpus,
    load_predictions,
    parse_ann_line,
    parse_document_pair,
    save_corpus,
    serialize_annotations,
)
from kpeval.brat import read_utf8, write_utf8
from kpeval.model import _walk

K = KeyphraseType
R = RelationType


def test_parse_entity_line():
    kp = parse_ann_line("T3\tTask 230 233\tNER")
    assert type(kp) is Keyphrase
    assert kp == Keyphrase("T3", K.TASK, 230, 233, "NER")


def test_parse_equivalence_line():
    assert parse_ann_line("*\tSynonym-of T5 T6") == (Relation(R.SYNONYM_OF, "T5", "T6"),)
    assert parse_ann_line("*\tSynonym-of T1 T2 T3") == (
        Relation(R.SYNONYM_OF, "T1", "T2"),
        Relation(R.SYNONYM_OF, "T1", "T3"),
        Relation(R.SYNONYM_OF, "T2", "T3"),
    )


def test_parse_relation_line():
    (rel,) = parse_ann_line("R1\tHyponym-of Arg1:T2 Arg2:T0")
    assert type(rel) is Relation
    assert rel == Relation(R.HYPONYM_OF, "T2", "T0")


def test_parse_relation_line_accepts_swapped_arg_order():
    assert parse_ann_line("R1\tHyponym-of Arg2:T0 Arg1:T2") == (
        Relation(R.HYPONYM_OF, "T2", "T0"),
    )


def test_parse_is_case_insensitive_on_types():
    assert parse_ann_line("T1\tmaterial 0 5\tx").ktype is K.MATERIAL
    (rel,) = parse_ann_line("R1\tSYNONYM-OF Arg1:T1 Arg2:T2")
    assert rel.rtype is R.SYNONYM_OF


_MALFORMED_LINES = [
    "T1\tTask 0\tx",                      # wrong field count in the middle
    "T1\tTask zero five\tx",              # non-integer offsets
    "T1\tTask 0 5",                       # missing surface column
    "X1\tTask 0 5\tx",                    # unknown sigil
    "T1\tEntity 0 5\tx",                  # unknown type string
    "R1\tHyponym-of Arg1:T1",             # one argument only
    "R1\tPart-of Arg1:T1 Arg2:T2",        # unknown relation type
    "*\tSynonym-of T1",                   # equivalence with one id
    "#1\tAnnotatorNotes T1\tcomment",     # unsupported annotation kind
]


@pytest.mark.parametrize("line", _MALFORMED_LINES)
def test_malformed_lines_raise(line):
    with pytest.raises(MalformedLine):
        parse_ann_line(line)


def test_parse_document_pair_assembles_example():
    ann = serialize_annotations(example_document())
    doc, report = parse_document_pair("example1", EXAMPLE_TEXT, ann)
    assert len(doc.keyphrases) == 8
    assert len(doc.relations) == 3
    assert report.errors == []


def test_parse_document_pair_empty_ann():
    doc, report = parse_document_pair("d", "some text", "")
    assert doc.keyphrases == () and doc.relations == ()
    assert report.errors == []


def test_equivalence_expands_to_all_pairs():
    text = "alpha beta gamma"
    ann = (
        "T1\tTask 0 5\talpha\n"
        "T2\tTask 6 10\tbeta\n"
        "T3\tTask 11 16\tgamma\n"
        "*\tSynonym-of T1 T2 T3\n"
    )
    doc, report = parse_document_pair("d", text, ann)
    assert report.errors == []
    assert len(doc.relations) == 3  # C(3, 2)
    assert all(rel.rtype is R.SYNONYM_OF for rel in doc.relations)


def test_synonym_r_line_is_tolerated():
    text = "alpha beta"
    ann = "T1\tTask 0 5\talpha\nT2\tTask 6 10\tbeta\nR1\tSynonym-of Arg1:T1 Arg2:T2\n"
    doc, report = parse_document_pair("d", text, ann)
    assert report.errors == []
    canon = canonicalize_document(doc)
    assert canon.relations[0].rtype is R.SYNONYM_OF


def test_malformed_line_recorded_with_line_number():
    ann = "T1\tTask 0 5\talpha\njunk line without tabs\n"
    doc, report = parse_document_pair("d", "alpha beta", ann)
    assert len(doc.keyphrases) == 1
    assert len(report.errors) == 1
    assert report.errors[0][1] == "MALFORMED_LINE"
    assert "line 2" in report.errors[0][2]


def test_surface_column_mismatch_is_validation_error():
    ann = "T1\tTask 0 5\tWRONG\n"
    doc, report = parse_document_pair("d", "alpha beta", ann)
    # offsets win: the keyphrase carries the true slice
    assert doc.keyphrases[0].surface == "alpha"
    assert [e[1] for e in report.errors] == ["SURFACE_MISMATCH"]


def test_bom_is_stripped_before_offsets(tmp_path):
    (tmp_path / "d.txt").write_bytes("\ufeffalpha".encode("utf-8"))
    (tmp_path / "d.ann").write_bytes("\ufeffT1\tTask 0 5\talpha\n".encode("utf-8"))
    corpus, report = load_corpus(tmp_path)
    assert report.errors == []
    assert corpus["d"].text == "alpha"
    assert corpus["d"].keyphrases[0].surface == "alpha"


# Text with leading U+FEFF runs and line breaks of every kind.
_FILE_TEXT = st.builds(
    lambda boms, pieces: "\ufeff" * boms + "".join(pieces),
    st.integers(0, 3),
    st.lists(st.one_of(st.sampled_from(["\r\n", "\r", "\n", "\u2028", "\ufeff"]),
                       st.characters(blacklist_categories=("Cs",)))),
)


@settings(max_examples=200)
@given(_FILE_TEXT)
def test_read_utf8_reads_back_what_write_utf8_wrote(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.txt"
        write_utf8(path, text)
        assert read_utf8(path) == text
        bom = b"\xef\xbb\xbf" if text.startswith("\ufeff") else b""
        assert path.read_bytes() == bom + text.encode("utf-8")


def test_a_file_with_a_bom_before_other_text_is_written_back_without_it(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xef\xbb\xbfalpha\r\n")
    write_utf8(path, read_utf8(path))
    assert path.read_bytes() == b"alpha\r\n"


# Calls that open, read or write a file, or that pick a newline mode or strip
# a BOM; only `brat.read_utf8` and `brat.write_utf8` may make them.
_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_calls(source: str) -> set[str]:
    """The names of the functions in `source` that make a file call."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            strips_bom = name == "removeprefix" and any(
                getattr(arg, "value", None) == "\ufeff" for arg in node.args
            )
            if (name in _FILE_CALLS or strips_bom
                    or any(k.arg == "newline" for k in node.keywords)):
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_only_brat_reads_and_writes_files():
    package = Path(kpeval.__file__).parent
    calls = {
        (path.stem, where)
        for path in sorted(package.glob("*.py"))
        for where in _file_calls(path.read_text(encoding="utf-8"))
    }
    assert calls == {("brat", "read_utf8"), ("brat", "write_utf8")}


def test_serialize_empty_document():
    from kpeval import Document

    assert serialize_annotations(Document("d", "whatever")) == ""


def test_serialize_single_synonym_pair_layout():
    from kpeval import make_document

    doc = canonicalize_document(
        make_document(
            "d",
            "alpha beta",
            [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10)],
            [(R.SYNONYM_OF, "T1", "T2")],
        )
    )
    lines = serialize_annotations(doc).splitlines()
    assert sum(1 for l in lines if l.startswith("T")) == 2
    assert sum(1 for l in lines if l.startswith("*")) == 1
    assert len(lines) == 3


def test_serialize_rejects_non_canonical():
    from kpeval import make_document

    doc = make_document("d", "alpha beta", [("T9", K.TASK, 0, 5)])
    with pytest.raises(ValueError, match="not canonical"):
        serialize_annotations(doc)


@pytest.mark.parametrize(
    "brk",
    ["\n", "\r\n", "\r", "\t", "\v", "\f", "\x1c", "\x85", "\u2028"],
    ids=["LF", "CRLF", "CR", "TAB", "VT", "FF", "FS", "NEL", "LS"],
)
def test_newlines_in_surface_survive_round_trip(brk, tmp_path):
    from kpeval import make_document

    text = f"alpha beta{brk}gamma delta"
    span = ("T1", K.TASK, 6, 15 + len(brk))  # "beta<brk>gamma"
    doc = canonicalize_document(make_document("d", text, [span]))
    ann = serialize_annotations(doc)
    assert ann.count("\n") == 1 and "\r" not in ann  # column stays one line
    save_corpus(Corpus({"d": doc}), tmp_path, write_text=True)
    loaded, report = load_corpus(tmp_path)
    assert report.errors == []
    assert canonicalize_document(loaded["d"]) == doc


def test_round_trip_identity_and_fixed_point(tmp_path):
    corpus = misalignment_corpus("cross")
    for doc in corpus:
        ann = serialize_annotations(doc)
        reparsed, report = parse_document_pair(doc.doc_id, doc.text, ann)
        assert report.errors == []
        assert canonicalize_document(reparsed) == doc
        assert serialize_annotations(canonicalize_document(reparsed)) == ann


def test_load_corpus_roundtrip(tmp_path):
    corpus = synth_corpus(random.Random(3), 4)
    write_corpus_dir(corpus, tmp_path / "c")
    loaded, report = load_corpus(tmp_path / "c")
    assert report.errors == []
    assert loaded.doc_ids() == corpus.doc_ids()
    for doc_id in corpus.doc_ids():
        assert canonicalize_document(loaded[doc_id]) == corpus[doc_id]


def test_load_corpus_reports_unpaired_files(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    (d / "a.txt").write_text("alpha", encoding="utf-8")
    (d / "b.ann").write_text("", encoding="utf-8")
    corpus, report = load_corpus(d)
    assert len(corpus) == 0
    codes = {(e[0], e[1]) for e in report.errors}
    assert codes == {("a", "MISSING_ANN"), ("b", "MISSING_TXT")}


def test_load_corpus_names_a_hidden_file_by_its_name_minus_its_suffix(tmp_path):
    # `.txt` holds the text of doc_id "", and `.txt.ann` annotates ".txt".
    d = tmp_path / "c"
    d.mkdir()
    (d / ".txt").write_text("alpha", encoding="utf-8")
    (d / ".txt.ann").write_text("", encoding="utf-8")
    corpus, report = load_corpus(d)
    assert len(corpus) == 0
    assert report.errors == [
        ("", "MISSING_ANN", ".txt has no matching .ann"),
        (".txt", "MISSING_TXT", ".txt.ann has no matching .txt.txt"),
    ]


def test_load_corpus_aggregates_parse_errors(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    (d / "a.txt").write_text("alpha beta", encoding="utf-8")
    (d / "a.ann").write_text("T1\tTask 0 5\talpha\n", encoding="utf-8")
    (d / "b.txt").write_text("gamma delta", encoding="utf-8")
    (d / "b.ann").write_text("T1\tTask 0 5\tgamma\nBROKEN\n", encoding="utf-8")
    corpus, report = load_corpus(d)
    assert corpus.doc_ids() == ["a", "b"]          # both documents still load
    assert len(corpus["b"].keyphrases) == 1        # the good line survives
    (err,) = report.errors
    assert "b.ann" in err[2] and "line 2" in err[2]


def test_load_corpus_order_is_independent_of_listing(tmp_path):
    corpus = synth_corpus(random.Random(5), 6)
    write_corpus_dir(corpus, tmp_path / "c")
    loaded, _ = load_corpus(tmp_path / "c")
    assert loaded.doc_ids() == sorted(loaded.doc_ids())


def test_load_predictions_pairs_against_reference(tmp_path):
    corpus = synth_corpus(random.Random(11), 3)
    gold_dir = write_corpus_dir(corpus, tmp_path / "gold")
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    first = corpus.doc_ids()[0]
    (pred_dir / f"{first}.ann").write_text(
        serialize_annotations(corpus[first]), encoding="utf-8"
    )
    loaded, report = load_predictions(pred_dir, corpus)
    assert report.errors == []
    assert loaded.doc_ids() == corpus.doc_ids()    # missing ones load empty
    assert canonicalize_document(loaded[first]) == corpus[first]
    others = [d for d in loaded.doc_ids() if d != first]
    assert all(not loaded[d].keyphrases for d in others)


def test_load_predictions_flags_unknown_stems(tmp_path):
    corpus = synth_corpus(random.Random(11), 2)
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    (pred_dir / "nosuch.ann").write_text("", encoding="utf-8")
    _, report = load_predictions(pred_dir, corpus)
    assert [e[1] for e in report.errors] == ["MISSING_TXT"]


def test_load_predictions_pairs_a_hidden_file_with_its_document(tmp_path):
    reference = Corpus({"": Document("", "alpha beta")})
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    (pred_dir / ".ann").write_text("T1\tTask 0 5\talpha\n", encoding="utf-8")
    (pred_dir / ".txt.ann").write_text("", encoding="utf-8")
    loaded, report = load_predictions(pred_dir, reference)
    assert report.errors == [
        (".txt", "MISSING_TXT", ".txt.ann has no document in the gold corpus"),
    ]
    assert [kp.surface for kp in loaded[""].keyphrases] == ["alpha"]


# --- parse_document_pair against the reader it replaced ---------------------
# The reader below parsed each line into a tagged intermediate record and then
# branched on the tag to build the document.  It defines the expected
# document and report on content that holds no line break other than "\n",
# "\r\n" and "\r", where its `str.splitlines` agrees with `split_lines`.


class _AnnKind(enum.Enum):
    ENTITY = "entity"
    RELATION = "relation"
    EQUIVALENCE = "equivalence"


class _AnnLine(NamedTuple):
    kind: _AnnKind
    id: str | None = None
    ktype: KeyphraseType | None = None
    rtype: RelationType | None = None
    start: int = -1
    end: int = -1
    surface: str = ""
    args: tuple = ()


def _reference_parse_ann_line(line):
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
        return _AnnLine(_AnnKind.ENTITY, id=fields[0], ktype=ktype,
                        start=start, end=end, surface=fields[2])
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
        return _AnnLine(_AnnKind.RELATION, id=fields[0], rtype=rtype,
                        args=(args["arg1"], args["arg2"]))
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
        return _AnnLine(_AnnKind.EQUIVALENCE, rtype=rtype, args=tuple(parts[1:]))
    raise MalformedLine(f"unknown leading sigil {fields[0]!r}", line)


_FLATTEN = str.maketrans({"\n": " ", "\r": " ", "\t": " "})


def _reference_parse_document_pair(doc_id, text, ann):
    report = ValidationReport()
    keyphrases = []
    relations = []
    n = len(text)
    for lineno, raw in enumerate(ann.splitlines(), 1):
        if not raw.strip():
            continue
        try:
            parsed = _reference_parse_ann_line(raw)
        except MalformedLine as exc:
            report.error(doc_id, "MALFORMED_LINE",
                         f"{doc_id}.ann line {lineno}: {exc.reason}")
            continue
        if parsed.kind is _AnnKind.ENTITY:
            surface = text[parsed.start : parsed.end] if parsed.end <= n else ""
            keyphrases.append(
                Keyphrase(parsed.id, parsed.ktype, parsed.start, parsed.end, surface)
            )
            if (surface and surface != parsed.surface
                    and surface.translate(_FLATTEN) != parsed.surface):
                report.error(
                    doc_id,
                    "SURFACE_MISMATCH",
                    f"{doc_id}.ann line {lineno}: {parsed.id} column "
                    f"{parsed.surface!r} != text slice {surface!r}",
                )
        elif parsed.kind is _AnnKind.RELATION:
            relations.append(Relation(parsed.rtype, parsed.args[0], parsed.args[1]))
        else:
            for a1, a2 in itertools.combinations(parsed.args, 2):
                relations.append(Relation(RelationType.SYNONYM_OF, a1, a2))
    doc = Document(doc_id, text, tuple(keyphrases), tuple(relations))
    doc_report, doc, dropped = _walk(doc)
    for _, code, message in doc_report.errors:
        report.error(doc_id, code, f"{doc_id}: {message}")
    for _, code, message in doc_report.warnings:
        report.warn(doc_id, code, f"{doc_id}: {message}")
    report.dropped.extend((doc_id, message) for message in dropped)
    return doc, report


_IDS = st.sampled_from(["T1", "T2", "T3", "T4", "T9"])


@st.composite
def _ann_content(draw):
    """A short text and .ann content for it: entity lines whose column is the
    slice, the flattened slice or another word, `R` and `*` lines over a few
    ids, malformed and blank lines, in types of any case, with "\n" or
    "\r\n" breaks."""
    text = draw(st.text(alphabet="ab .\n\r\t", max_size=16))
    offset = st.integers(-1, len(text))
    ktype = st.sampled_from(["Material", "material", "PROCESS", "Task", "tAsK"])
    rtype = st.sampled_from(["Hyponym-of", "hyponym-OF", "Synonym-of", "SYNONYM-OF"])
    lines = []
    for kind in draw(st.lists(st.sampled_from("TR*xb"), max_size=10)):
        if kind == "T":
            start = draw(offset)
            end = start + draw(st.integers(-1, 6))
            piece = text[max(start, 0) : max(end, 0)]
            column = draw(st.sampled_from([piece, piece.translate(_FLATTEN), "ab"]))
            tab = draw(st.sampled_from(["", "\t"]))
            lines.append(f"{draw(_IDS)}\t{draw(ktype)} {start} {end}\t{column}{tab}")
        elif kind == "R":
            args = [f"Arg1:{draw(_IDS)}", f"Arg2:{draw(_IDS)}"]
            if draw(st.booleans()):
                args.reverse()
            lines.append(f"R{draw(st.integers(1, 3))}\t{draw(rtype)} {' '.join(args)}")
        elif kind == "*":
            ids = draw(st.lists(_IDS, min_size=2, max_size=4))
            synonym = draw(st.sampled_from(["Synonym-of", "synonym-OF"]))
            lines.append(f"*\t{synonym} {' '.join(ids)}")
        elif kind == "x":
            lines.append(draw(st.sampled_from(_MALFORMED_LINES)))
        else:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    brk = draw(st.sampled_from(["\n", "\r\n"]))
    ann = brk.join(lines) + draw(st.sampled_from(["", brk]))
    return text, draw(st.sampled_from(["", "\ufeff"])) + ann


@settings(max_examples=300)
@given(_ann_content())
def test_parse_document_pair_agrees_with_the_reference_reader(content):
    text, ann = content
    doc, report = parse_document_pair("d", text, ann)
    want_doc, want = _reference_parse_document_pair("d", text, ann)
    assert doc == want_doc
    assert [type(kp) for kp in doc.keyphrases] == [Keyphrase] * len(doc.keyphrases)
    assert (report.errors, report.warnings, report.dropped) == (
        want.errors, want.warnings, want.dropped,
    )
