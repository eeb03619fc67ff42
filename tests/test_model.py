import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import synth_document
from kpeval import (
    Document,
    Keyphrase,
    KeyphraseType,
    Relation,
    RelationType,
    canonicalize_document,
    make_document,
    parse_document_pair,
    serialize_annotations,
    validate_document,
)
from kpeval.model import (
    CROSS_TYPE_RELATION,
    DANGLING_ARGUMENT,
    DUPLICATE_ID,
    DUPLICATE_SPAN,
    OFFSET_OUT_OF_BOUNDS,
    SELF_RELATION,
    SURFACE_MISMATCH,
    ValidationReport,
    _walk,
    drop_invalid,
    is_canonical,
    relation_key,
)

K = KeyphraseType
R = RelationType


def test_keyphrase_type_parsing():
    assert K.parse("material") is K.MATERIAL
    assert K.parse("PROCESS") is K.PROCESS
    assert K.parse("Task") is K.TASK
    with pytest.raises(ValueError):
        K.parse("Entity")


def test_relation_type_parsing():
    assert R.parse("hyponym-of") is R.HYPONYM_OF
    assert R.parse("Synonym-OF") is R.SYNONYM_OF
    with pytest.raises(ValueError):
        R.parse("part-of")


def test_example_document_is_clean(example1):
    report = validate_document(example1)
    assert report.errors == []
    assert report.warnings == []


def test_dangling_argument_is_an_error():
    doc = make_document(
        "d", "alpha beta", [("T1", K.TASK, 0, 5)], [(R.HYPONYM_OF, "T1", "T9")]
    )
    report = validate_document(doc)
    assert len(report.errors) == 1
    assert report.errors[0][1] == "DANGLING_ARGUMENT"
    assert "T9" in report.errors[0][2]


def test_cross_type_relation_is_a_warning():
    doc = make_document(
        "d",
        "alpha beta",
        [("T1", K.TASK, 0, 5), ("T2", K.MATERIAL, 6, 10)],
        [(R.HYPONYM_OF, "T1", "T2")],
    )
    report = validate_document(doc)
    assert report.errors == []
    assert [w[1] for w in report.warnings] == ["CROSS_TYPE_RELATION"]


def test_offset_and_surface_errors():
    doc = make_document("d", "alpha", [("T1", K.TASK, 0, 9)])
    assert [e[1] for e in validate_document(doc).errors] == ["OFFSET_OUT_OF_BOUNDS"]
    bad = make_document("d", "alpha", [("T1", K.TASK, 0, 5)])
    bad = bad.__class__(
        bad.doc_id, bad.text,
        (bad.keyphrases[0].__class__("T1", K.TASK, 0, 5, "wrong"),), ()
    )
    assert [e[1] for e in validate_document(bad).errors] == ["SURFACE_MISMATCH"]


def test_self_relation_and_duplicate_id_errors():
    doc = make_document(
        "d",
        "alpha beta",
        [("T1", K.TASK, 0, 5), ("T1", K.TASK, 6, 10)],
        [(R.SYNONYM_OF, "T1", "T1")],
    )
    codes = {e[1] for e in validate_document(doc).errors}
    assert codes == {"DUPLICATE_ID", "SELF_RELATION"}


def test_duplicate_span_is_a_warning():
    doc = make_document(
        "d", "alpha beta", [("T1", K.TASK, 0, 5), ("T2", K.TASK, 0, 5)]
    )
    report = validate_document(doc)
    assert report.errors == []
    assert [w[1] for w in report.warnings] == ["DUPLICATE_SPAN"]


def test_duplicate_span_needs_the_same_type():
    doc = make_document("d", "alpha beta", [
        ("T1", K.TASK, 0, 5), ("T2", K.PROCESS, 0, 5), ("T3", K.TASK, 0, 5),
    ])
    assert validate_document(doc).warnings == [
        ("d", "DUPLICATE_SPAN", "T3: duplicates span (0, 5, Task)"),
    ]


def test_canonicalize_orders_synonym_args():
    # arg1 must be the keyphrase whose (start, end) sorts first.
    doc = make_document(
        "d",
        "alpha beta gamma",
        [("T5", K.TASK, 6, 10), ("T6", K.TASK, 0, 5)],
        [(R.SYNONYM_OF, "T5", "T6")],
    )
    canon = canonicalize_document(doc)
    by_id = canon.keyphrase_by_id()
    (rel,) = canon.relations
    assert by_id[rel.arg1].span() < by_id[rel.arg2].span()


def test_canonicalize_keeps_hyponym_direction():
    doc = make_document(
        "d",
        "alpha beta gamma",
        [("T1", K.TASK, 6, 10), ("T2", K.TASK, 0, 5)],
        [(R.HYPONYM_OF, "T1", "T2")],
    )
    canon = canonicalize_document(doc)
    by_id = canon.keyphrase_by_id()
    (rel,) = canon.relations
    assert rel.rtype is R.HYPONYM_OF
    assert by_id[rel.arg1].span() == (6, 10)  # the hyponym stays arg1


def test_canonicalize_merges_duplicates():
    doc = make_document(
        "d",
        "alpha beta gamma",
        [("T1", K.PROCESS, 0, 5), ("T2", K.PROCESS, 0, 5), ("T3", K.PROCESS, 6, 10)],
        [(R.SYNONYM_OF, "T1", "T3"), (R.SYNONYM_OF, "T2", "T3")],
    )
    canon = canonicalize_document(doc)
    assert len(canon.keyphrases) == 2
    assert len(canon.relations) == 1


def test_canonicalize_drops_relation_between_merged_twins():
    doc = make_document(
        "d",
        "alpha beta",
        [("T1", K.PROCESS, 0, 5), ("T2", K.PROCESS, 0, 5)],
        [(R.SYNONYM_OF, "T1", "T2")],
    )
    canon = canonicalize_document(doc)
    assert len(canon.keyphrases) == 1
    assert canon.relations == ()


def test_same_span_keyphrases_take_ids_in_type_order():
    # Material < Process < Task among keyphrases of one span, and Hyponym-of
    # before Synonym-of among relations, whatever order they come in.
    doc = make_document(
        "d",
        "Graphene conducts heat.",
        [("T1", K.TASK, 0, 8), ("T2", K.MATERIAL, 0, 8), ("T3", K.PROCESS, 0, 8),
         ("T4", K.MATERIAL, 9, 17)],
        [(R.SYNONYM_OF, "T4", "T1"), (R.HYPONYM_OF, "T1", "T2")],
    )
    canon = canonicalize_document(doc)
    assert [(kp.id, kp.ktype, kp.span()) for kp in canon.keyphrases] == [
        ("T1", K.MATERIAL, (0, 8)), ("T2", K.PROCESS, (0, 8)), ("T3", K.TASK, (0, 8)),
        ("T4", K.MATERIAL, (9, 17)),
    ]
    assert canon.relations == (Relation(R.HYPONYM_OF, "T3", "T1"),
                               Relation(R.SYNONYM_OF, "T3", "T4"))
    assert is_canonical(canon)
    assert serialize_annotations(canon) == (
        "T1\tMaterial 0 8\tGraphene\nT2\tProcess 0 8\tGraphene\n"
        "T3\tTask 0 8\tGraphene\nT4\tMaterial 9 17\tconducts\n"
        "*\tSynonym-of T3 T4\nR1\tHyponym-of Arg1:T3 Arg2:T1\n"
    )


def test_canonicalize_rejects_invalid_documents():
    doc = make_document("d", "alpha", [("T1", K.TASK, 0, 99)])
    with pytest.raises(ValueError, match="OFFSET_OUT_OF_BOUNDS"):
        canonicalize_document(doc)


def test_canonicalize_example_is_fixed_point(example1):
    assert canonicalize_document(example1) == example1


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_canonicalize_idempotent_and_validates_clean(seed):
    doc = synth_document(random.Random(seed), "d", n_mentions=6, n_relations=3)
    canon = canonicalize_document(doc)
    assert canonicalize_document(canon) == canon
    assert validate_document(canon).errors == []


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_canonicalize_is_order_insensitive(seed):
    rng = random.Random(seed)
    doc = synth_document(rng, "d", n_mentions=6, n_relations=3)
    kps = list(doc.keyphrases)
    rels = list(doc.relations)
    rng.shuffle(kps)
    rng.shuffle(rels)
    shuffled = doc.__class__(doc.doc_id, doc.text, tuple(kps), tuple(rels))
    assert canonicalize_document(shuffled) == canonicalize_document(doc)


def test_synonym_argument_order_never_matters():
    base = make_document(
        "d",
        "alpha beta gamma",
        [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10)],
        [(R.SYNONYM_OF, "T1", "T2")],
    )
    flipped = make_document(
        "d",
        "alpha beta gamma",
        [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10)],
        [(R.SYNONYM_OF, "T2", "T1")],
    )
    assert canonicalize_document(base) == canonicalize_document(flipped)


def test_drop_invalid_strips_unusable_annotations():
    doc = make_document(
        "d",
        "alpha beta",
        [("T1", K.TASK, 0, 5), ("T2", K.TASK, 2, 99)],
        [(R.SYNONYM_OF, "T1", "T2"), (R.SYNONYM_OF, "T1", "T1")],
    )
    clean, dropped = drop_invalid(doc)
    assert [kp.id for kp in clean.keyphrases] == ["T1"]
    assert clean.relations == ()
    assert len(dropped) == 3
    assert validate_document(clean).errors == []


def test_drop_invalid_keeps_valid_twin_of_out_of_bounds_id():
    doc = make_document(
        "d",
        "alpha beta",
        [("T1", K.TASK, 0, 99), ("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10)],
        [(R.SYNONYM_OF, "T1", "T2")],
    )
    clean, dropped = drop_invalid(doc)
    assert clean.keyphrases == doc.keyphrases[1:]
    assert clean.relations == doc.relations
    assert dropped == ["keyphrase T1: span out of bounds"]
    codes = [e[1] for e in validate_document(doc).errors]
    assert codes == ["OFFSET_OUT_OF_BOUNDS", "DUPLICATE_ID"]


def test_drop_invalid_drops_relation_to_out_of_bounds_keyphrase():
    doc = make_document(
        "d",
        "alpha beta",
        [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 99)],
        [(R.HYPONYM_OF, "T1", "T2")],
    )
    clean, dropped = drop_invalid(doc)
    assert clean.keyphrases == doc.keyphrases[:1]
    assert clean.relations == ()
    assert dropped == [
        "keyphrase T2: span out of bounds",
        "Hyponym-of(T1, T2): dangling argument",
    ]
    # The argument resolves to its (broken) definition, so validation flags
    # the keyphrase only.
    assert [e[1] for e in validate_document(doc).errors] == ["OFFSET_OUT_OF_BOUNDS"]


_TEXT = "alpha beta gamma"
_IDS = st.sampled_from(["T1", "T2", "T3", "T4"])


@st.composite
def _any_keyphrase(draw):
    start = draw(st.integers(-2, len(_TEXT) + 2))
    end = draw(st.integers(-2, len(_TEXT) + 2))
    surface = _TEXT[max(start, 0) : max(end, 0)]
    if draw(st.booleans()):
        surface = draw(st.sampled_from(["", "alpha", "x"]))
    return Keyphrase(draw(_IDS), draw(st.sampled_from(K)), start, end, surface)


_ANY_DOCUMENT = st.builds(
    lambda kps, rels: Document("d", _TEXT, tuple(kps), tuple(rels)),
    st.lists(_any_keyphrase(), max_size=6),
    st.lists(st.builds(Relation, st.sampled_from(R), _IDS, _IDS), max_size=6),
)


def _reference_drop_invalid(doc):
    """drop_invalid's rules stated on their own, as an oracle for the shared walk."""
    dropped, keep, ids, rels = [], [], set(), []
    for kp in doc.keyphrases:
        if not (0 <= kp.start < kp.end <= len(doc.text)):
            dropped.append(f"keyphrase {kp.id}: span out of bounds")
        elif kp.surface != doc.text[kp.start : kp.end]:
            dropped.append(f"keyphrase {kp.id}: surface mismatch")
        elif kp.id in ids:
            dropped.append(f"keyphrase {kp.id}: duplicate id")
        else:
            keep.append(kp)
            ids.add(kp.id)
    for rel in doc.relations:
        name = f"{rel.rtype.value}({rel.arg1}, {rel.arg2})"
        if rel.arg1 == rel.arg2:
            dropped.append(f"{name}: self-relation")
        elif rel.arg1 not in ids or rel.arg2 not in ids:
            dropped.append(f"{name}: dangling argument")
        else:
            rels.append(rel)
    return Document(doc.doc_id, doc.text, tuple(keep), tuple(rels)), dropped


def _reference_walk(doc):
    """The walk with two id maps that are filled side by side, as an oracle
    for the one that shares a single map until the two views part.  It
    returns the stripped document, not its canonical form, and warns of a
    cross-type relation that is kept only the first time its arguments'
    (start, end, type) pair appears, unordered for Synonym-of."""
    report = ValidationReport()
    dropped = []
    n = len(doc.text)
    seen_ids = {}  # first definition of each id
    kept = {}  # first valid keyphrase of each id
    seen_spans = set()
    kept_pairs = set()  # (type, argument spans) of each kept relation
    for kp in doc.keyphrases:
        drop = None
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
        key = kp.sort_key()
        if key in seen_spans:
            report.warn(
                doc.doc_id,
                DUPLICATE_SPAN,
                f"{kp.id}: duplicates span ({kp.start}, {kp.end}, {kp.ktype.value})",
            )
        seen_spans.add(key)
    relations = []
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
                repeat = False
                if drop is None:
                    spans = [(kp.start, kp.end, kp.ktype)
                             for kp in (kept[rel.arg1], kept[rel.arg2])]
                    unordered = rel.rtype is R.SYNONYM_OF
                    pair = (rel.rtype, frozenset(spans) if unordered else tuple(spans))
                    repeat = pair in kept_pairs
                    kept_pairs.add(pair)
                if k1.ktype != k2.ktype and not repeat:
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


@st.composite
def _id_defined_invalid_and_valid(draw):
    """A document in which one id has an invalid and a valid definition, in
    either order, among other keyphrases of any validity."""
    doc = draw(_ANY_DOCUMENT)
    kp_id = draw(_IDS)
    valid = Keyphrase(kp_id, draw(st.sampled_from(K)), 6, 10, "beta")
    invalid = draw(st.sampled_from([
        Keyphrase(kp_id, K.TASK, 6, 10, "x"),
        Keyphrase(kp_id, K.TASK, 6, 99, "beta"),
    ]))
    pair = [invalid, valid] if draw(st.booleans()) else [valid, invalid]
    kps = list(doc.keyphrases)
    i = draw(st.integers(0, len(kps)))
    kps.insert(i, pair[0])
    kps.insert(draw(st.integers(i + 1, len(kps))), pair[1])
    return doc._replace(keyphrases=tuple(kps))


_ALPHA = Keyphrase("T1", K.TASK, 0, 5, "alpha")
_BROKEN_ALPHA = Keyphrase("T1", K.TASK, 0, 5, "x")
_GAMMA = Keyphrase("T2", K.TASK, 11, 16, "gamma")
_LINK = Relation(R.HYPONYM_OF, "T1", "T2")


@settings(max_examples=300)
@given(st.one_of(_ANY_DOCUMENT, _id_defined_invalid_and_valid()))
@example(Document("d", _TEXT, (_BROKEN_ALPHA, _ALPHA, _GAMMA), (_LINK,)))
@example(Document("d", _TEXT, (_ALPHA, _BROKEN_ALPHA, _GAMMA), (_LINK,)))
@example(Document("d", _TEXT, (_GAMMA, _BROKEN_ALPHA, _GAMMA, _ALPHA), (_LINK,)))
def test_walk_equals_the_walk_with_two_id_maps(doc):
    report, clean, dropped = _walk(doc)
    want_report, want_clean, want_dropped = _reference_walk(doc)
    assert report.errors == want_report.errors
    assert report.warnings == want_report.warnings
    assert report.dropped == want_report.dropped
    assert clean == _reference_canonical_form(want_clean)
    assert dropped == want_dropped


@settings(max_examples=300)
@given(_ANY_DOCUMENT)
def test_drop_invalid_output_always_validates(doc):
    clean, dropped = drop_invalid(doc)
    want_clean, want_dropped = _reference_drop_invalid(doc)
    assert (clean, dropped) == (_reference_canonical_form(want_clean), want_dropped)
    assert validate_document(clean).errors == []
    assert drop_invalid(clean) == (clean, [])
    if validate_document(doc).ok:
        assert (clean, dropped) == (_reference_canonical_form(doc), [])


# --- canonical order and the canonical-form check --------------------------

# Two spans, each annotated twice with different types, so that a relation
# sort key made of spans alone ties.
_TIED_TEXT = "graphene sheets of carbon atoms"
_TIED_KEYPHRASES = [
    ("T1", K.MATERIAL, 0, 8), ("T2", K.PROCESS, 0, 8),
    ("T3", K.MATERIAL, 19, 25), ("T4", K.PROCESS, 19, 25),
]
_TIED_RELATIONS = [
    (R.HYPONYM_OF, "T1", "T3"), (R.HYPONYM_OF, "T2", "T4"),
    (R.HYPONYM_OF, "T1", "T4"), (R.HYPONYM_OF, "T2", "T3"),
    (R.SYNONYM_OF, "T3", "T1"), (R.SYNONYM_OF, "T2", "T4"),
]

_TIED_ANN = "".join(
    [f"{i}\t{t.value} {s} {e}\t{_TIED_TEXT[s:e]}\n" for i, t, s, e in _TIED_KEYPHRASES]
    + [f"R{n}\tHyponym-of Arg1:{a} Arg2:{b}\n"
       for n, (_, a, b) in enumerate(_TIED_RELATIONS[:4], 1)]
    + [f"*\tSynonym-of {a} {b}\n" for _, a, b in _TIED_RELATIONS[4:]]
)

_PRINT_TIED = f"""
from kpeval import canonicalize_document, parse_document_pair, serialize_annotations
doc, _ = parse_document_pair("d", {_TIED_TEXT!r}, {_TIED_ANN!r})
print(serialize_annotations(canonicalize_document(doc)), end="")
"""


def test_canonical_relation_order_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _PRINT_TIED], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        outputs.add(run.stdout)
    assert len(outputs) == 1
    (ann,) = outputs
    assert ann.count("Hyponym-of") == 4 and ann.count("Synonym-of") == 2


@settings(max_examples=50)
@given(st.permutations(_TIED_RELATIONS))
def test_canonical_form_ignores_relation_order_under_span_ties(relations):
    want = canonicalize_document(make_document("d", _TIED_TEXT, _TIED_KEYPHRASES, _TIED_RELATIONS))
    got = canonicalize_document(make_document("d", _TIED_TEXT, _TIED_KEYPHRASES, relations))
    assert got == want


def _one_pass_is_canonical(doc):
    """The canonical conditions checked in one pass, as an oracle: every span
    in bounds and equal to its text slice, keyphrases strictly increasing by
    (start, end, type) and numbered T1..Tn in that order, every relation
    between two distinct existing keyphrases, each Synonym-of with its
    lower-numbered argument first, and relations strictly increasing by
    `relation_key` (so none repeats)."""
    n = len(doc.text)
    number = {}
    prev_kp = None
    for i, kp in enumerate(doc.keyphrases, 1):
        key = kp.sort_key()
        if kp.id != f"T{i}" or not (0 <= kp.start < kp.end <= n):
            return False
        if kp.surface != doc.text[kp.start : kp.end]:
            return False
        if prev_kp is not None and key <= prev_kp:
            return False
        prev_kp = key
        number[kp.id] = i
    prev_rel = None
    for rel in doc.relations:
        if rel.arg1 == rel.arg2 or rel.arg1 not in number or rel.arg2 not in number:
            return False
        n1 = number[rel.arg1]
        key = relation_key(rel.rtype, n1, number[rel.arg2])
        if key[1] != n1:  # a Synonym-of with its arguments the wrong way round
            return False
        if prev_rel is not None and key <= prev_rel:
            return False
        prev_rel = key
    return True


@st.composite
def _valid_document(draw, least=0):
    """A valid document over a few spans, so that spans and types repeat.

    Ids come in any order, and relations may repeat, run either way and link
    two keyphrases that merge into one; `least` raises the lower bound on the
    number of annotations drawn.
    """
    spans = st.sampled_from([(0, 5), (0, 10), (6, 10), (11, 16), (2, 3)])
    ids = draw(st.permutations([f"T{i}" for i in range(1, draw(st.integers(least, 6)) + 1)]))
    keyphrases = [(kid, draw(st.sampled_from(K)), *draw(spans)) for kid in ids]
    relations = []
    if len(ids) > 1:
        pairs = st.lists(
            st.tuples(st.sampled_from(R), st.sampled_from(ids), st.sampled_from(ids)),
            min_size=least, max_size=8,
        )
        relations = [r for r in draw(pairs) if r[1] != r[2]]
    return make_document("d", _TEXT, keyphrases, relations)


def _canonical_document(least=0):
    return _valid_document(least).map(canonicalize_document)


@st.composite
def _near_canonical_document(draw):
    """A canonical document with one of its canonical conditions broken."""
    doc = draw(_canonical_document(least=3).filter(lambda d: len(d.relations) > 1))
    kps, rels = list(doc.keyphrases), list(doc.relations)
    i = draw(st.integers(0, len(kps) - 2))  # a keyphrase with a successor
    j = draw(st.integers(0, len(rels) - 2))  # a relation with a successor
    r = draw(st.integers(0, len(rels) - 1))  # any relation
    kp, rel = kps[i], rels[r]
    edit = draw(st.sampled_from(
        ["swap_kps", "repeat_kp", "renumber", "surface", "bounds",
         "swap_rels", "flip", "repeat_rel", "self", "dangle"]
    ))
    if edit == "swap_kps":
        kps[i], kps[i + 1] = kps[i + 1], kp
    elif edit == "repeat_kp":
        kps[i + 1] = Keyphrase(kps[i + 1].id, kp.ktype, kp.start, kp.end, kp.surface)
    elif edit == "renumber":
        kps[i] = Keyphrase(f"T{len(kps) + 1}", kp.ktype, kp.start, kp.end, kp.surface)
    elif edit == "surface":
        kps[i] = Keyphrase(kp.id, kp.ktype, kp.start, kp.end, kp.surface + "x")
    elif edit == "bounds":  # the surface still equals the (truncated) text slice
        last = kps[-1]
        kps[-1] = Keyphrase(last.id, last.ktype, last.start, len(_TEXT) + 1, _TEXT[last.start :])
    elif edit == "swap_rels":
        rels[j], rels[j + 1] = rels[j + 1], rels[j]
    elif edit == "repeat_rel":
        rels[j + 1] = rels[j]
    elif edit == "flip":  # Synonym-of sorts last, so this flips one if any exists
        rels[-1] = Relation(rels[-1].rtype, rels[-1].arg2, rels[-1].arg1)
    elif edit == "self":
        rels[r] = Relation(rel.rtype, rel.arg1, rel.arg1)
    else:
        rels[r] = Relation(rel.rtype, rel.arg1, f"T{len(kps) + 1}")
    return Document(doc.doc_id, doc.text, tuple(kps), tuple(rels))


@settings(max_examples=200)
@given(st.one_of(_ANY_DOCUMENT, _canonical_document()))
def test_is_canonical_agrees_with_validate_and_canonical_form(doc):
    assert is_canonical(doc) == _one_pass_is_canonical(doc)


@settings(max_examples=200)
@given(_near_canonical_document())
def test_is_canonical_rejects_what_canonical_form_would_change(doc):
    assert is_canonical(doc) == _one_pass_is_canonical(doc)


@settings(max_examples=200)
@given(_near_canonical_document())
def test_serialize_rejects_what_the_one_pass_check_rejects(doc):
    if _one_pass_is_canonical(doc):
        serialize_annotations(doc)
    else:
        with pytest.raises(ValueError, match="is not canonical"):
            serialize_annotations(doc)


@settings(max_examples=200)
@given(_canonical_document())
def test_serialize_writes_every_canonical_document(doc):
    parsed, report = parse_document_pair(doc.doc_id, doc.text, serialize_annotations(doc))
    assert report.errors == [] and parsed == doc


def test_is_canonical_on_the_tied_document():
    doc = canonicalize_document(make_document("d", _TIED_TEXT, _TIED_KEYPHRASES, _TIED_RELATIONS))
    assert is_canonical(doc)
    rels = doc.relations
    assert not is_canonical(Document("d", doc.text, doc.keyphrases, rels[1:2] + rels[:1]))


# --- the canonical form against the algorithm it replaced -------------------


def _reference_canonical_form(doc):
    """Merge, sort and renumber keyphrases by copying each one, then map,
    dedupe and sort relations by spans and parsed ids."""
    merged, remap = {}, {}
    for kp in doc.keyphrases:
        key = (kp.start, kp.end, kp.ktype)
        merged.setdefault(key, kp)
        remap[kp.id] = key
    ordered = sorted(merged.values(), key=Keyphrase.sort_key)
    new_ids = {(kp.start, kp.end, kp.ktype): f"T{i}" for i, kp in enumerate(ordered, 1)}
    keyphrases = tuple(
        kp._replace(id=new_ids[(kp.start, kp.end, kp.ktype)]) for kp in ordered
    )
    span_of = {new_ids[key]: key[:2] for key in new_ids}

    def arg_key(arg_id):
        return (*span_of[arg_id], int(arg_id[1:]))

    relations = set()
    for rel in doc.relations:
        a1, a2 = new_ids[remap[rel.arg1]], new_ids[remap[rel.arg2]]
        if a1 == a2:
            continue
        if rel.rtype is R.SYNONYM_OF and arg_key(a2) < arg_key(a1):
            a1, a2 = a2, a1
        relations.add(Relation(rel.rtype, a1, a2))
    order = sorted(relations, key=lambda r: (r.rtype.value, arg_key(r.arg1), arg_key(r.arg2)))
    return Document(doc.doc_id, doc.text, keyphrases, tuple(order))


# Valid documents: drawn as such, already canonical, or stripped from anything
# by the reference rules, which leave them valid but seldom canonical.
_VALID_DOCUMENT = st.one_of(
    _valid_document(),
    _canonical_document(),
    _ANY_DOCUMENT.map(lambda doc: _reference_drop_invalid(doc)[0]),
)


@settings(max_examples=300)
@given(_VALID_DOCUMENT)
def test_canonical_form_equals_reference_algorithm(doc):
    canon = canonicalize_document(doc)
    assert canon == _reference_canonical_form(doc)
    assert is_canonical(canon)


def test_canonical_form_keeps_what_is_already_canonical():
    doc = canonicalize_document(make_document("d", _TIED_TEXT, _TIED_KEYPHRASES, _TIED_RELATIONS))
    canon = canonicalize_document(doc)
    assert all(a is b for a, b in zip(canon.keyphrases, doc.keyphrases))
    assert all(a is b for a, b in zip(canon.relations, doc.relations))
