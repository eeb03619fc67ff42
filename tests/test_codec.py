import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_TEXT, example_document, misalignment_corpus, synth_document
from kpeval import (
    KeyphraseType,
    LabeledSequence,
    MalformedLine,
    RelationType,
    Subtask,
    canonicalize_document,
    decode_document,
    encode_document,
    make_document,
    roundtrip_report,
    split_sentences,
    tokenize,
)
from kpeval.codec import (
    BOUNDARY_MISMATCH,
    CELL_CONFLICT,
    CROSS_SENTENCE_RELATION,
    CROSSES_SENTENCE,
    OVERLAP,
    SentenceTokenization,
    Token,
    check_sequence,
    sequences_from_tsv,
    sequences_to_tsv,
)

K = KeyphraseType
R = RelationType


# --- sentences -------------------------------------------------------------


def test_example_paragraph_splits_into_three_sentences():
    spans = split_sentences(EXAMPLE_TEXT)
    assert len(spans) == 3
    assert EXAMPLE_TEXT[slice(*spans[0])].endswith("question answering.")
    assert EXAMPLE_TEXT[slice(*spans[1])].endswith("(CRF).")
    assert EXAMPLE_TEXT[slice(*spans[2])].endswith("corpus.")


def test_no_terminator_is_one_sentence():
    assert split_sentences("One sentence") == [(0, 12)]


def test_two_minimal_sentences():
    assert split_sentences("A. B.") == [(0, 2), (3, 5)]


def test_empty_text_has_no_sentences():
    assert split_sentences("") == []
    assert split_sentences("   \n ") == []


def test_split_does_not_break_before_lowercase_or_inside_numbers():
    assert len(split_sentences("approx. value is 2.5 units")) == 1


def test_sentence_spans_cover_all_non_whitespace():
    text = "Alpha beta.  Gamma delta!   Epsilon 7 zeta? 9 done."
    spans = split_sentences(text)
    covered = set()
    for s, e in spans:
        covered.update(range(s, e))
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert i in covered


# --- tokens ----------------------------------------------------------------


def test_tokenize_punctuation_and_words():
    text = "conditional random fields (CRF)."
    assert [t.text for t in tokenize(text, (0, len(text)))] == [
        "conditional", "random", "fields", "(", "CRF", ")", ".",
    ]


def test_tokenize_keeps_internal_hyphens():
    text = "ConLL-2003 NER corpus"
    assert [t.text for t in tokenize(text, (0, len(text)))] == [
        "ConLL-2003", "NER", "corpus",
    ]


def test_tokenize_empty():
    assert tokenize("", (0, 0)) == []


def test_tokenize_joiners_need_alnum_on_both_sides():
    text = "x+y a_b c.d e'f -g h-"
    assert [t.text for t in tokenize(text, (0, len(text)))] == [
        "x+y", "a_b", "c.d", "e'f", "-", "g", "h", "-",
    ]


def test_tokens_preserve_offsets():
    text = "Alpha (beta-2) gamma."
    for tok in tokenize(text, (0, len(text))):
        assert text[tok.start : tok.end] == tok.text


# --- alignment -------------------------------------------------------------


def test_align_example_document():
    doc = example_document()
    outcome = encode_document(doc)[1]
    assert len(outcome.aligned) == 8
    # ConLL-2003 NER corpus -> three tokens in sentence 3
    s_idx, (first, last) = outcome.aligned["T8"]
    assert s_idx == 2 and last - first == 3
    dropped = {(rel.arg1, rel.arg2): why for rel, why in outcome.dropped_relations}
    assert dropped == {("T3", "T1"): CROSS_SENTENCE_RELATION}


def test_align_reports_boundary_mismatch():
    text = "Alpha ConLL-2003 beta."
    doc = make_document("d", text, [("T1", K.MATERIAL, 6, 11)])  # "ConLL" only
    outcome = encode_document(doc)[1]
    assert outcome.aligned == {}
    assert outcome.dropped_spans == [("T1", BOUNDARY_MISMATCH)]


def test_align_reports_crossing_sentence():
    text = "Alpha beta. Gamma delta."
    doc = make_document("d", text, [("T1", K.MATERIAL, 6, 17)])
    outcome = encode_document(doc)[1]
    assert outcome.dropped_spans == [("T1", CROSSES_SENTENCE)]


def test_every_keyphrase_is_accounted_for():
    doc = example_document()
    outcome = encode_document(doc)[1]
    ids = set(outcome.aligned) | {kp_id for kp_id, _ in outcome.dropped_spans}
    assert ids == {kp.id for kp in doc.keyphrases}


# --- encoding --------------------------------------------------------------


def test_encode_example_sentence3_labels():
    doc = example_document()
    sequences, _ = encode_document(doc)
    assert list(sequences[2].labels_a) == ["O"] * 6 + ["B", "I", "I", "O"]
    assert list(sequences[2].labels_b) == ["O"] * 6 + ["M", "M", "M", "O"]


def test_encode_example_synonym_cells_are_symmetric():
    doc = example_document()
    sequences, _ = encode_document(doc)
    cells = sequences[1].relations
    s_cells = {pos for pos, v in cells.items() if v == "S"}
    assert len(s_cells) == 4  # two synonym pairs, both directions each
    for i, j in s_cells:
        assert (j, i) in s_cells


def test_encode_never_violates_sequence_invariants():
    doc = example_document()
    for seq in encode_document(doc)[0]:
        assert check_sequence(seq) == []


def test_encode_overlap_longer_span_wins():
    text = "Alpha beta gamma delta."
    doc = canonicalize_document(
        make_document(
            "d", text,
            [("T1", K.TASK, 0, 10), ("T2", K.TASK, 6, 16)],  # 2 tokens vs 2 tokens
        )
    )
    # Equal token length: the earlier span wins deterministically.
    _, outcome = encode_document(doc)
    assert ("T2", OVERLAP) in [
        (kp_id, why) for kp_id, why in outcome.dropped_spans
    ] or ("T2" not in outcome.aligned and outcome.dropped_spans)


def test_encode_overlap_drops_contained_span():
    text = "Alpha beta gamma delta."
    doc = canonicalize_document(
        make_document(
            "d", text,
            [("T1", K.TASK, 0, 16), ("T2", K.TASK, 6, 10)],
        )
    )
    _, outcome = encode_document(doc)
    aligned_ids = set(outcome.aligned)
    assert len(aligned_ids) == 1
    kp = {k.id: k for k in doc.keyphrases}
    (winner,) = aligned_ids
    assert kp[winner].span() == (0, 16)
    assert [why for _, why in outcome.dropped_spans] == [OVERLAP]


def test_encode_relation_with_dropped_argument_is_dropped():
    text = "Alpha ConLL-2003 beta gamma."
    doc = canonicalize_document(
        make_document(
            "d", text,
            [("T1", K.MATERIAL, 0, 5), ("T2", K.MATERIAL, 6, 11)],
            [(R.HYPONYM_OF, "T2", "T1")],
        )
    )
    _, outcome = encode_document(doc)
    assert [why for _, why in outcome.dropped_relations] == ["ARGUMENT_DROPPED"]


def test_encode_conflicting_cell_drops_later_relation():
    text = "Alpha beta."
    doc = canonicalize_document(
        make_document(
            "d", text,
            [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10)],
            [(R.HYPONYM_OF, "T1", "T2"), (R.SYNONYM_OF, "T1", "T2")],
        )
    )
    sequences, outcome = encode_document(doc)
    assert [why for _, why in outcome.dropped_relations] == [CELL_CONFLICT]
    assert set(sequences[0].relations.values()) == {"H"}


def test_snap_expands_to_token_boundaries():
    text = "Carbon nanotube arrays conduct heat."
    doc = make_document("d", text, [("T1", K.MATERIAL, 8, 22)])
    _, strict = encode_document(doc)
    assert strict.dropped_spans == [("T1", BOUNDARY_MISMATCH)]
    sequences, snapped = encode_document(doc, snap=True)
    assert snapped.dropped_spans == []
    s_idx, (first, last) = snapped.aligned["T1"]
    tokens = sequences[s_idx].tokenization.tokens
    assert (tokens[first].start, tokens[last - 1].end) == (7, 22)


# --- decoding --------------------------------------------------------------


def _seq(tokens_text, labels_a, labels_b, cells=None):
    pos = 0
    tokens = []
    for t in tokens_text:
        tokens.append(Token(pos, pos + len(t), t))
        pos += len(t) + 1
    sent = SentenceTokenization(tokens[0].start, tokens[-1].end, tuple(tokens))
    return LabeledSequence(sent, tuple(labels_a), tuple(labels_b), cells or {})


def test_decode_encode_is_identity_on_example_minus_cross_sentence():
    doc = example_document()
    sequences, _ = encode_document(doc)
    decoded = decode_document(sequences, doc.text, doc.doc_id)
    assert {kp.span() for kp in decoded.keyphrases} == {
        kp.span() for kp in doc.keyphrases
    }
    assert len(decoded.relations) == 2  # the cross-sentence hyponym is lost
    gold_syn = {r for r in doc.relations if r.rtype is R.SYNONYM_OF}
    assert {r.rtype for r in decoded.relations} == {R.SYNONYM_OF}
    assert len(gold_syn) == 2


def test_decode_all_outside_gives_empty_document():
    seq = _seq(["Alpha", "beta"], ["O", "O"], ["O", "O"])
    doc = decode_document([seq], "Alpha beta", "d")
    assert doc.keyphrases == () and doc.relations == ()


def test_decode_repairs_i_after_o():
    seq = _seq(["Alpha", "beta", "gamma"], ["O", "I", "I"], ["O", "T", "T"])
    repairs = []
    doc = decode_document([seq], "Alpha beta gamma", "d", repairs=repairs)
    assert [kp.span() for kp in doc.keyphrases] == [(6, 16)]
    assert doc.keyphrases[0].ktype is K.TASK
    assert repairs  # the promotion is reported


def test_decode_type_majority_and_tie():
    seq = _seq(
        ["a", "b", "c"], ["B", "I", "I"], ["P", "T", "T"]
    )
    doc = decode_document([seq], "a b c", "d")
    assert doc.keyphrases[0].ktype is K.TASK
    tie = _seq(["a", "b"], ["B", "I"], ["T", "M"])
    doc = decode_document([tie], "a b c", "d")
    assert doc.keyphrases[0].ktype is K.MATERIAL  # M > P > T on ties


def test_decode_ignores_cells_off_heads():
    seq = _seq(
        ["a", "b", "c"],
        ["B", "O", "B"],
        ["M", "O", "M"],
        {(0, 1): "H", (1, 1): "S"},
    )
    repairs = []
    doc = decode_document([seq], "a b c", "d", repairs=repairs)
    assert doc.relations == ()
    assert len(repairs) == 2


def test_decode_recovers_hyponym_direction():
    seq = _seq(
        ["a", "b", "c"],
        ["B", "O", "B"],
        ["M", "O", "M"],
        {(2, 0): "H"},
    )
    doc = decode_document([seq], "a b c", "d")
    (rel,) = doc.relations
    by_id = doc.keyphrase_by_id()
    assert rel.rtype is R.HYPONYM_OF
    assert by_id[rel.arg1].span() == (4, 5)
    assert by_id[rel.arg2].span() == (0, 1)


def test_decode_one_sided_synonym_cell_is_repaired():
    seq = _seq(
        ["a", "b"],
        ["B", "B"],
        ["M", "M"],
        {(0, 1): "S"},
    )
    repairs = []
    doc = decode_document([seq], "a b", "d", repairs=repairs)
    (rel,) = doc.relations
    assert rel.rtype is R.SYNONYM_OF
    assert repairs


# --- round trip ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_roundtrip_identity_on_aligned_documents(seed):
    doc = synth_document(random.Random(seed), "d", n_mentions=6, n_relations=3)
    sequences, outcome = encode_document(doc)
    assert outcome.dropped_spans == [] and outcome.dropped_relations == []
    assert decode_document(sequences, doc.text, doc.doc_id) == doc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_encode_output_always_valid(seed):
    doc = synth_document(random.Random(seed), "d", n_mentions=8, n_relations=4)
    for seq in encode_document(doc)[0]:
        assert check_sequence(seq) == []


def test_roundtrip_report_is_perfect_on_aligned_corpus():
    from conftest import synth_corpus

    corpus = synth_corpus(random.Random(1), 5)
    report = roundtrip_report(corpus)
    for task in Subtask:
        assert report.subtasks[task].f1 == 1.0
    assert report.overall.f1 == 1.0


def test_roundtrip_report_on_misalignment_fixture_snapped():
    report = roundtrip_report(misalignment_corpus("snapped"), snap=True)
    assert report.subtasks[Subtask.A].f1 == 18 / 19
    assert report.subtasks[Subtask.C].f1 == 0.75


def test_roundtrip_report_on_misalignment_fixture_strict():
    # One span of ten misses token boundaries; one relation of four crosses
    # sentences.  Hand count: A loses exactly the misaligned span
    # (tp=9, fp=0, fn=1 -> 18/19); C loses exactly the crossing relation
    # (tp=3, fp=0, fn=1 -> 6/7).
    report = roundtrip_report(misalignment_corpus("cross"), snap=False)
    a = report.subtasks[Subtask.A]
    c = report.subtasks[Subtask.C]
    assert (a.counts.tp, a.counts.fp, a.counts.fn) == (9, 0, 1)
    assert a.f1 == 18 / 19
    assert (c.counts.tp, c.counts.fp, c.counts.fn) == (3, 0, 1)
    assert c.f1 == 6 / 7


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_roundtrip_f1_never_exceeds_one(seed, snap):
    from conftest import synth_corpus

    corpus = synth_corpus(random.Random(seed), 2)
    report = roundtrip_report(corpus, snap=snap)
    for task in Subtask:
        assert report.subtasks[task].f1 <= 1.0


# --- TSV wire format -------------------------------------------------------


def test_tsv_round_trip_preserves_sequences():
    doc = example_document()
    sequences, _ = encode_document(doc)
    tsv = sequences_to_tsv(sequences)
    back = sequences_from_tsv(tsv)
    assert back == sequences


def test_tsv_layout():
    doc = example_document()
    sequences, _ = encode_document(doc)
    tsv = sequences_to_tsv(sequences)
    blocks = tsv.strip().split("\n\n")
    assert len(blocks) == 3
    first_line = blocks[0].splitlines()[0].split("\t")
    assert first_line == ["Information", "0", "11", "B", "T"]
    rel_lines = [l for l in blocks[1].splitlines() if l.startswith("#REL")]
    assert len(rel_lines) == 4
    assert all(len(l.split("\t")) == 4 for l in rel_lines)


def test_tsv_rejects_garbage():
    with pytest.raises(ValueError):
        sequences_from_tsv("one\ttwo\n")


def test_tsv_malformed_line_names_file_and_line():
    content = "a\t0\t1\tB\tM\n\nb\t2\t3\tO\tO\n#REL\t0\tone\tS\n"
    with pytest.raises(MalformedLine) as info:
        sequences_from_tsv(content, "doc.seq")
    assert (info.value.filename, info.value.lineno) == ("doc.seq", 4)
    assert str(info.value).startswith("doc.seq line 4: bad #REL line")
