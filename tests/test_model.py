import random

import pytest
from hypothesis import given, settings
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
    validate_document,
)
from kpeval.model import drop_invalid

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


@settings(max_examples=300)
@given(_ANY_DOCUMENT)
def test_drop_invalid_output_always_validates(doc):
    clean, dropped = drop_invalid(doc)
    assert (clean, dropped) == _reference_drop_invalid(doc)
    assert validate_document(clean).errors == []
    assert drop_invalid(clean) == (clean, [])
    if validate_document(doc).ok:
        assert (clean, dropped) == (doc, [])
