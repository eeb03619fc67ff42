import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXAMPLE_TEXT,
    example_document,
    misalignment_corpus,
    synth_document,
    traced_call,
)
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
    ARGUMENT_DROPPED,
    BOUNDARY_MISMATCH,
    CELL_CONFLICT,
    CROSS_SENTENCE_RELATION,
    CROSSES_SENTENCE,
    OVERLAP,
    _TOKEN,
    AlignmentOutcome,
    SentenceTokenization,
    Token,
    sequences_from_tsv,
    sequences_to_tsv,
    tokenize_document,
)
from kpeval.model import TYPE_PRIORITY, is_canonical

K = KeyphraseType
R = RelationType


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


def test_decode_reports_every_kind_of_repair_word_for_word():
    seq = _seq(
        ["a", "b", "c", "d", "e"],
        ["I", "X", "B", "I", "B"],
        ["M", "O", "P", "O", "T"],
        {(2, 4): "Q", (1, 2): "H", (0, 2): "S"},
    )
    repairs = []
    doc = decode_document([seq], "a b c d e", "d", repairs=repairs)
    assert [kp.span() for kp in doc.keyphrases] == [(0, 1), (4, 7), (8, 9)]
    assert repairs == [
        "sentence 0: I after O at token 0 promoted to B",
        "sentence 0: unknown boundary label 'X' read as O",
        "sentence 0: span at token 2 has O type labels",
        "sentence 0: cell (0, 2) S without mirror cell",
        "sentence 0: cell (1, 2) is not a valid head pair",
        "sentence 0: cell (2, 4) has unknown value 'Q'",
    ]


def test_decode_rejects_spans_that_tokens_out_of_place_make():
    """A reversed, empty or out-of-bounds span fails with the error text of
    canonicalize_document, which counts them all and names the first."""
    text = "Graphene conducts heat."
    tokens = (
        Token(9, 17, "conducts"),  # T1 (9, 17): valid
        Token(18, 22, "heat"), Token(0, 8, "Graphene"),  # T2 (18, 8): reversed
        Token(18, 22, "heat"), Token(9, 17, "conducts"),  # T3 (18, 17): reversed
        Token(5, 5, ""),  # T4 (5, 5): empty
        Token(20, 30, "heat"),  # T5 (20, 30): past the end
        Token(-2, 3, "Gr"),  # T6 (-2, 3): before the start
    )
    labels_a = ("B", "B", "I", "B", "I", "B", "B", "B")
    seq = LabeledSequence(
        SentenceTokenization(0, 23, tokens), labels_a, ("M",) * len(tokens), {}
    )
    spans = [(9, 17), (18, 8), (18, 17), (5, 5), (20, 30), (-2, 3)]
    with pytest.raises(ValueError) as expected:
        canonicalize_document(make_document(
            "d", text, [(f"T{i}", K.MATERIAL, s, e) for i, (s, e) in enumerate(spans, 1)]
        ))
    assert "5 validation error(s), first: [OFFSET_OUT_OF_BOUNDS] T2: span (18, 8)" in str(
        expected.value
    )
    with pytest.raises(ValueError) as decoded:
        decode_document([seq], text, "d")
    assert str(decoded.value) == str(expected.value)


def test_decode_rejects_a_span_past_the_text_that_comes_in_order():
    text = "Graphene."
    tokens = (Token(0, 8, "Graphene"), Token(8, 9, "."), Token(10, 18, "conducts"))
    seq = LabeledSequence(
        SentenceTokenization(0, 9, tokens), ("B", "O", "B"), ("M", "O", "P"), {}
    )
    with pytest.raises(ValueError) as decoded:
        decode_document([seq], text, "d")
    assert str(decoded.value) == (
        "cannot canonicalize d: 1 validation error(s), first: "
        "[OFFSET_OUT_OF_BOUNDS] T2: span (10, 18) outside text of length 9"
    )


def test_encoded_sequences_do_not_share_a_relations_dict():
    sequences, _ = encode_document(example_document())
    assert len(sequences) == 3
    assert len({id(seq.relations) for seq in sequences}) == len(sequences)
    sequences[0].relations[(0, 0)] = "S"
    assert all((0, 0) not in seq.relations for seq in sequences[1:])


# --- decode against the construction it replaced --------------------------
# Decode used to build its document with make_document and then put it in
# canonical form.  It now builds the canonical document directly when the
# spans come in text order, and the old construction defines its output.


def _reference_majority_type(votes):
    best, best_count = None, -1
    for t in TYPE_PRIORITY:
        if votes.count(t.value[0]) > best_count:
            best, best_count = t, votes.count(t.value[0])
    return best


def _reference_decode(sequences, text, doc_id, repairs=None):
    def note(msg):
        if repairs is not None:
            repairs.append(msg)

    keyphrases, relations = [], []
    for s_idx, seq in enumerate(sequences):
        tokens = seq.tokenization.tokens
        runs, start_i, prev = [], None, "O"
        for i, label in enumerate(seq.labels_a):
            if label == "B" or (label == "I" and prev == "O"):
                if label == "I":
                    note(f"sentence {s_idx}: I after O at token {i} promoted to B")
                if start_i is not None:
                    runs.append((start_i, i))
                start_i = i
            elif label != "I":
                if label != "O":
                    note(f"sentence {s_idx}: unknown boundary label {label!r} read as O")
                if start_i is not None:
                    runs.append((start_i, i))
                    start_i = None
            prev = "O" if label not in ("B", "I") else "B"
        if start_i is not None:
            runs.append((start_i, len(seq.labels_a)))
        head_to_id = {}
        for first, last in runs:
            votes = [seq.labels_b[i] for i in range(first, last) if seq.labels_b[i] != "O"]
            if len(votes) < last - first:
                note(f"sentence {s_idx}: span at token {first} has O type labels")
            kp_id = f"T{len(keyphrases) + 1}"
            head_to_id[first] = kp_id
            keyphrases.append(
                (kp_id, _reference_majority_type(votes), tokens[first].start, tokens[last - 1].end)
            )
        seen_syn = set()
        for (i, j), value in sorted(seq.relations.items()):
            if i == j or i not in head_to_id or j not in head_to_id:
                note(f"sentence {s_idx}: cell ({i}, {j}) is not a valid head pair")
            elif value == "H":
                relations.append((R.HYPONYM_OF, head_to_id[i], head_to_id[j]))
            elif value == "S":
                if frozenset((i, j)) in seen_syn:
                    continue
                if seq.relations.get((j, i)) != "S":
                    note(f"sentence {s_idx}: cell ({i}, {j}) S without mirror cell")
                seen_syn.add(frozenset((i, j)))
                relations.append((R.SYNONYM_OF, head_to_id[i], head_to_id[j]))
            else:
                note(f"sentence {s_idx}: cell ({i}, {j}) has unknown value {value!r}")
    return canonicalize_document(make_document(doc_id, text, keyphrases, relations))


@st.composite
def _sequence_lists(draw):
    """Sequences as a tagger or a .seq file may give them.

    Each sequence holds the tokens of a whole sentence, a run of a sentence's
    tokens (so two sequences may overlap), or tokens with arbitrary offsets,
    which may lie outside the text, be empty or come in any order.  Sentences
    come in any order and may repeat.  Labels include unknown ones, and cells
    may be one-sided, off the heads, off the grid or of an unknown value.
    """
    text = " ".join(draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=30)))
    sentences = _reference_tokenize_document(text)
    sequences = []
    for _ in range(draw(st.integers(0, 4))):
        if sentences and draw(st.integers(0, 7)):
            tokens = draw(st.sampled_from(sentences)).tokens
            if draw(st.booleans()):
                first = draw(st.integers(0, len(tokens) - 1))
                tokens = tokens[first : draw(st.integers(first + 1, len(tokens)))]
        else:
            offsets = st.integers(-2, len(text) + 2)
            tokens = tuple(
                Token(start, end, "x")
                for start, end in draw(st.lists(st.tuples(offsets, offsets), min_size=1, max_size=5))
            )
        n = len(tokens)
        labels_a = draw(st.lists(st.sampled_from("OBBIIX"), min_size=n, max_size=n))
        labels_b = draw(st.lists(st.sampled_from("OMPTTQ"), min_size=n, max_size=n))
        heads = [
            i for i, a in enumerate(labels_a)
            if a == "B" or (a == "I" and (i == 0 or labels_a[i - 1] not in "BI"))
        ]
        anywhere = st.tuples(st.integers(-1, n), st.integers(-1, n))
        on_heads = st.tuples(st.sampled_from(heads), st.sampled_from(heads)) if heads else anywhere
        cells = draw(st.dictionaries(anywhere, st.sampled_from("SHX"), max_size=3))
        cells.update(draw(st.dictionaries(on_heads, st.sampled_from("SSHX"), max_size=10)))
        for (i, j), value in list(cells.items()):
            if value == "S" and draw(st.booleans()):
                cells[(j, i)] = "S"
        sequences.append(LabeledSequence(
            SentenceTokenization(tokens[0].start, tokens[-1].end, tokens),
            tuple(labels_a), tuple(labels_b), cells,
        ))
    return sequences, text


def _decode_outcome(decode, sequences, text):
    repairs = []
    try:
        result = decode(sequences, text, "d", repairs=repairs)
    except ValueError as exc:
        result = f"ValueError: {exc}"
    return result, repairs


@settings(max_examples=400, deadline=None)
@given(_sequence_lists())
def test_decode_equals_the_construction_it_replaced(case):
    sequences, text = case
    decoded = _decode_outcome(decode_document, sequences, text)
    assert decoded == _decode_outcome(_reference_decode, sequences, text)
    if not isinstance(decoded[0], str):
        assert is_canonical(decoded[0])


def _count_canonicalize_calls(monkeypatch):
    calls = []

    def counted(doc):
        calls.append(doc.doc_id)
        return canonicalize_document(doc)

    monkeypatch.setattr("kpeval.codec.canonicalize_document", counted)
    return calls


@pytest.mark.parametrize("snap", [False, True])
def test_decoding_what_encode_made_does_not_canonicalize_again(monkeypatch, snap):
    rng = random.Random(5)
    docs = [example_document(), _long_document(20)] + [
        synth_document(rng, f"d{i}", n_sentences=4, n_mentions=8, n_relations=4) for i in range(20)
    ]
    calls = _count_canonicalize_calls(monkeypatch)
    for doc in docs:
        sequences, _ = encode_document(doc, snap)
        decoded = decode_document(sequences, doc.text, doc.doc_id)
        assert decoded == _reference_decode(sequences, doc.text, doc.doc_id)
    assert calls == []


def test_sentences_out_of_order_are_put_in_canonical_form(monkeypatch):
    doc = example_document()
    sequences, _ = encode_document(doc)
    in_order = decode_document(sequences, doc.text, doc.doc_id)
    calls = _count_canonicalize_calls(monkeypatch)
    assert decode_document(sequences[::-1], doc.text, doc.doc_id) == in_order
    assert calls == [doc.doc_id]


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
    back = sequences_from_tsv(tsv, None, doc.text)
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
        sequences_from_tsv("one\ttwo\n", None, "one two")


def test_tsv_malformed_line_names_file_and_line():
    content = "a\t0\t1\tB\tM\n\nb\t2\t3\tO\tO\n#REL\t0\tone\tS\n"
    with pytest.raises(MalformedLine) as info:
        sequences_from_tsv(content, "doc.seq", "a b")
    assert (info.value.filename, info.value.lineno) == ("doc.seq", 4)
    assert str(info.value).startswith("doc.seq line 4: bad #REL line")


def test_tsv_line_numbers_count_only_line_breaks():
    # A form feed at the end of line 1 does not start a line of its own.
    content = "a\t0\t1\tB\tM\f\nb\t2\t3\tO\tO\nc\t4\t9\tO\tO\n"
    with pytest.raises(MalformedLine) as info:
        sequences_from_tsv(content, "d.seq", "a b c")
    assert (info.value.lineno, info.value.code) == (3, "OFFSET_OUT_OF_BOUNDS")


@pytest.mark.parametrize("brk", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_tsv_reads_every_universal_line_break(brk):
    tsv = sequences_to_tsv(encode_document(example_document())[0])
    assert sequences_from_tsv(tsv.replace("\n", brk), None, EXAMPLE_TEXT) == (
        sequences_from_tsv(tsv, None, EXAMPLE_TEXT)
    )


def test_tsv_rejects_a_token_that_starts_before_the_previous_one_ends():
    content = "Graphene\t0\t8\tB\tM\nheat\t18\t22\tB\tM\nconducts\t9\t17\tO\tO\n"
    with pytest.raises(MalformedLine) as info:
        sequences_from_tsv(content, "d.seq", "Graphene conducts heat.")
    assert (info.value.filename, info.value.lineno) == ("d.seq", 3)
    assert info.value.reason == (
        "token out of order: starts at 9, before the previous token ends at 22"
    )


def test_tsv_accepts_touching_tokens_and_sentences_in_any_order():
    content = "heat\t18\t22\tB\tM\n.\t22\t23\tO\tO\n\nGraphene\t0\t8\tB\tM\n"
    sequences = sequences_from_tsv(content, "d.seq", "Graphene conducts heat.")
    assert [[t.text for t in seq.tokenization.tokens] for seq in sequences] == [
        ["heat", "."], ["Graphene"],
    ]


# --- the codec against its quadratic reference ----------------------------
# The straightforward algorithms below define the codec's output exactly:
# every keyphrase scans every sentence, snapping scans every token of the
# document, and splitting re-slices the text after each break.  They are
# quadratic in document length, so they only run on small documents.


def _reference_split_sentences(text):
    boundaries = []
    for m in re.finditer(r"[.!?][\)\]\}\"'’”]*(?=\s)", text):
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


def _reference_tokenize_document(text):
    return [
        SentenceTokenization(s, e, tuple(tokenize(text, (s, e))))
        for s, e in _reference_split_sentences(text)
    ]


def _reference_place_span(start, end, tokenizations):
    for s_idx, sent in enumerate(tokenizations):
        if sent.sentence_start <= start and end <= sent.sentence_end:
            first = next((i for i, t in enumerate(sent.tokens) if t.start == start), None)
            last = next((i for i, t in enumerate(sent.tokens) if t.end == end), None)
            if first is not None and last is not None and first <= last:
                return (s_idx, (first, last + 1))
            return BOUNDARY_MISMATCH
    return CROSSES_SENTENCE


def _reference_snap_span(start, end, tokenizations):
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
    return (hits[0][0], (hits[0][1], hits[-1][1] + 1))


def _reference_resolve_overlaps(by_id, outcome):
    """Walk the placed spans longest first (then by sentence, first token,
    type priority and id) and keep each one whose token range intersects no
    range kept before it in its sentence."""

    def priority(kp_id):
        s_idx, (first, last) = outcome.aligned[kp_id]
        return (first - last, s_idx, first, TYPE_PRIORITY.index(by_id[kp_id].ktype), kp_id)

    kept = []
    for kp_id in sorted(outcome.aligned, key=priority):
        s_idx, (first, last) = outcome.aligned[kp_id]
        if any(s == s_idx and f < last and first < l for s, f, l in kept):
            outcome.dropped_spans.append((kp_id, OVERLAP))
        else:
            kept.append((s_idx, first, last))
    dropped = {kp_id for kp_id, why in outcome.dropped_spans if why == OVERLAP}
    outcome.aligned = {k: v for k, v in outcome.aligned.items() if k not in dropped}


def _reference_encode(doc, snap):
    tokenizations = _reference_tokenize_document(doc.text)
    outcome = AlignmentOutcome()
    by_id = doc.keyphrase_by_id()
    for kp in doc.keyphrases:
        placed = _reference_place_span(kp.start, kp.end, tokenizations)
        if placed == BOUNDARY_MISMATCH and snap:
            placed = _reference_snap_span(kp.start, kp.end, tokenizations)
        if isinstance(placed, str):
            outcome.dropped_spans.append((kp.id, placed))
        else:
            outcome.aligned[kp.id] = placed
    _reference_resolve_overlaps(by_id, outcome)
    for rel in doc.relations:
        a1 = outcome.aligned.get(rel.arg1)
        a2 = outcome.aligned.get(rel.arg2)
        if a1 is None or a2 is None:
            outcome.dropped_relations.append((rel, ARGUMENT_DROPPED))
        elif a1[0] != a2[0]:
            outcome.dropped_relations.append((rel, CROSS_SENTENCE_RELATION))
    sequences = [
        LabeledSequence(sent, ("O",) * len(sent.tokens), ("O",) * len(sent.tokens), {})
        for sent in tokenizations
    ]
    for kp_id, (s_idx, (first, last)) in outcome.aligned.items():
        seq = sequences[s_idx]
        a, b = list(seq.labels_a), list(seq.labels_b)
        a[first] = "B"
        for i in range(first + 1, last):
            a[i] = "I"
        for i in range(first, last):
            b[i] = by_id[kp_id].ktype.value[0]
        sequences[s_idx] = LabeledSequence(seq.tokenization, tuple(a), tuple(b), seq.relations)
    dropped = {rel for rel, _ in outcome.dropped_relations}
    for rel in doc.relations:
        if rel in dropped:
            continue
        s_idx, (h1, _) = outcome.aligned[rel.arg1]
        _, (h2, _) = outcome.aligned[rel.arg2]
        cells = sequences[s_idx].relations
        if rel.rtype is R.HYPONYM_OF:
            wanted = {(h1, h2): "H"}
        else:
            wanted = {(h1, h2): "S", (h2, h1): "S"}
        if any(cells.get(pos, wanted[pos]) != wanted[pos] for pos in wanted):
            outcome.dropped_relations.append((rel, CELL_CONFLICT))
            continue
        cells.update(wanted)
    return sequences, outcome


def _assert_encodes_like_reference(doc, snap):
    sequences, outcome = encode_document(doc, snap)
    want_sequences, want = _reference_encode(doc, snap)
    assert sequences == want_sequences
    assert list(outcome.aligned.items()) == list(want.aligned.items())
    assert outcome.dropped_spans == want.dropped_spans
    assert outcome.dropped_relations == want.dropped_relations
    return outcome


# Words, joined tokens, digits, lone punctuation, sentence ends with closing
# quotes and brackets, and whitespace runs of every kind (no-break and line
# separators too), concatenated at random.
_PIECES = (
    "Alpha", "beta", "Gamma", "ConLL-2003", "x+y", "e'f", "7", "42", "9.5", "NER",
    "façade", "Ωmega", "(", ")", ",", ".", "!", "?", ".)", '."', ".’", "!”", "?]",
    "!}",
)
_GAPS = (
    " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\u2028", "\u2029", "\x85", " " * 40,
    "\n \n\t ",
)


@st.composite
def _texts(draw):
    pieces = st.one_of(st.sampled_from(_PIECES), st.sampled_from(_GAPS))
    return "".join(draw(st.lists(pieces, max_size=40)))


@st.composite
def _encodable_documents(draw):
    """Canonical documents whose spans land anywhere in the text.

    Half the spans start at a token start, possibly shifted one character
    into the token, and end at a token end; the rest are arbitrary, so they
    start in whitespace, cross sentences or cover only whitespace.
    """
    text = draw(_texts())
    tokens = [t for sent in _reference_tokenize_document(text) for t in sent.tokens]
    keyphrases = []
    for i in range(draw(st.integers(0, 12)) if text else 0):
        if tokens and draw(st.booleans()):
            start = draw(st.sampled_from(tokens)).start + draw(st.sampled_from((0, 0, 1)))
            end = draw(st.sampled_from(tokens)).end
        else:
            start = draw(st.integers(0, len(text) - 1))
            end = draw(st.integers(start + 1, len(text)))
        if start < end:
            keyphrases.append((f"T{i + 1}", draw(st.sampled_from(list(K))), start, end))
    ids = [kp[0] for kp in keyphrases]
    relations = []
    if len(ids) > 1:
        pairs = st.tuples(st.sampled_from(list(R)), st.sampled_from(ids), st.sampled_from(ids))
        relations = [r for r in draw(st.lists(pairs, max_size=10)) if r[1] != r[2]]
    return canonicalize_document(make_document("d", text, keyphrases, relations))


@settings(max_examples=200, deadline=None)
@given(_encodable_documents(), st.booleans())
def test_encode_equals_reference_algorithm(doc, snap):
    _assert_encodes_like_reference(doc, snap)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_texts(), st.text()))
def test_split_sentences_equals_reference_algorithm(text):
    assert split_sentences(text) == _reference_split_sentences(text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_texts(), st.text()))
def test_one_pass_over_the_text_finds_the_tokens_of_its_sentences(text):
    # gazetteer_predict tokenizes the whole text at once and relies on this.
    tokens = [Token(m.start(), m.end(), m.group()) for m in _TOKEN.finditer(text)]
    assert tokens == [t for sent in tokenize_document(text) for t in sent.tokens]


def test_encode_equals_reference_on_every_placement_case():
    text = "Alpha beta-gamma.\u00a0" + " " * 50 + "Delta (eps). 9 zeta?\n\n   Eta."
    spans = [
        (0, 5),    # aligned
        (1, 5),    # shifted one character into its token
        (6, 10),   # ends inside the joined token "beta-gamma"
        (5, 6),    # whitespace only
        (17, 73),  # starts in the whitespace between sentences
        (11, 76),  # crosses sentences
        (68, 73),  # Delta, in the second sentence
        (75, 78),  # eps
        (84, 88),  # from inside "zeta" to the end of "?"
    ]
    doc = canonicalize_document(make_document(
        "d", text,
        [(f"T{i}", K.TASK, s, e) for i, (s, e) in enumerate(spans, 1)],
        [(R.HYPONYM_OF, "T7", "T8"), (R.SYNONYM_OF, "T1", "T2"), (R.HYPONYM_OF, "T1", "T7")],
    ))
    reasons = set()
    for snap in (False, True):
        outcome = _assert_encodes_like_reference(doc, snap)
        reasons |= {why for _, why in outcome.dropped_spans}
        reasons |= {why for _, why in outcome.dropped_relations}
    assert {BOUNDARY_MISMATCH, CROSSES_SENTENCE, OVERLAP, CROSS_SENTENCE_RELATION} <= reasons


def _long_document(n_sentences):
    """Sentences of 15 words with four spans each, every other one shifted
    one character into its first token, and one relation per sentence."""
    rng = random.Random(3)
    words = "alloy beam core decay field flux grid lattice matrix mesh node phase".split()
    sentences, keyphrases, relations = [], [], []
    pos = 0
    for s in range(n_sentences):
        sentence = [rng.choice(words) for _ in range(15)]
        sentence[0] = sentence[0].capitalize()
        offsets = []
        for w in sentence:
            offsets.append(pos)
            pos += len(w) + 1
        pos += 1  # the '.' replaces the last space, then one space
        sentences.append(" ".join(sentence) + ".")
        for j, (first, last) in enumerate(((0, 1), (4, 4), (7, 9), (12, 12))):
            shift = j % 2
            start = offsets[first] + shift
            end = offsets[last] + len(sentence[last])
            keyphrases.append((f"T{4 * s + j + 1}", K.MATERIAL, start, end))
        relations.append((R.HYPONYM_OF, f"T{4 * s + 1}", f"T{4 * s + 3}"))
    text = " ".join(sentences)
    return canonicalize_document(make_document("long", text, keyphrases, relations))


@pytest.mark.parametrize("snap", [False, True])
def test_encode_cost_grows_linearly_with_sentences(snap):
    def best_of_3(doc):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            encode_document(doc, snap)
            times.append(time.perf_counter() - t0)
        return min(times)

    small, large = _long_document(100), _long_document(800)
    assert best_of_3(large) <= 20 * best_of_3(small)


def test_encode_holds_little_beyond_its_tokenization():
    doc = synth_document(random.Random(3), "long", n_sentences=400, n_mentions=600)
    _, tokenization, _ = traced_call(lambda: tokenize_document(doc.text))
    _, _, transient = traced_call(lambda: encode_document(doc))
    assert transient <= 0.3 * tokenization
