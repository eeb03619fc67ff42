import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import misalignment_corpus, synth_corpus, synth_document, traced_call
from kpeval import (
    Corpus,
    KeyphraseType,
    RelationType,
    Scenario,
    Subtask,
    canonicalize_document,
    gazetteer_build,
    gazetteer_predict,
    make_document,
    oracle_predict,
    random_predict,
    score_scenario,
    serialize_annotations,
    validate_document,
)
from kpeval.baselines import normalize_surface, random_document
from kpeval.codec import LabeledSequence, decode_document, encode_document, tokenize_document

K = KeyphraseType
R = RelationType


# --- oracle -----------------------------------------------------------------


def test_oracle_is_identity_on_aligned_corpus():
    corpus = synth_corpus(random.Random(4), 4)
    predicted = oracle_predict(corpus)
    for doc_id in corpus.doc_ids():
        assert predicted[doc_id] == corpus[doc_id]


def test_oracle_is_a_projection():
    corpus = misalignment_corpus("cross")
    once = oracle_predict(corpus)
    twice = oracle_predict(once)
    for doc_id in corpus.doc_ids():
        assert once[doc_id] == twice[doc_id]


def test_oracle_scores_misalignment_fixture():
    report = score_scenario(
        misalignment_corpus("cross"),
        oracle_predict(misalignment_corpus("cross")),
        Scenario.S1,
    )
    assert report.subtasks[Subtask.A].f1 == 18 / 19
    assert report.subtasks[Subtask.C].f1 == 6 / 7


# --- random -----------------------------------------------------------------


def test_random_predict_is_deterministic():
    corpus = synth_corpus(random.Random(5), 4)
    a = random_predict(corpus, Scenario.S1, seed=7)
    b = random_predict(corpus, Scenario.S1, seed=7)
    for doc_id in corpus.doc_ids():
        assert a[doc_id] == b[doc_id]
        assert serialize_annotations(a[doc_id]) == serialize_annotations(b[doc_id])


def test_random_predict_differs_across_seeds():
    corpus = synth_corpus(random.Random(5), 4)
    a = random_predict(corpus, Scenario.S1, seed=7)
    b = random_predict(corpus, Scenario.S1, seed=8)
    assert any(a[d] != b[d] for d in corpus.doc_ids())


def test_random_predict_is_order_independent():
    corpus = synth_corpus(random.Random(5), 4)
    ids = corpus.doc_ids()
    reversed_corpus = Corpus({d: corpus[d] for d in reversed(ids)})
    a = random_predict(corpus, Scenario.S1, seed=3)
    b = random_predict(reversed_corpus, Scenario.S1, seed=3)
    for doc_id in ids:
        assert a[doc_id] == b[doc_id]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_random_predict_documents_are_schema_valid(seed):
    corpus = synth_corpus(random.Random(seed % 100), 2)
    for scenario in Scenario:
        predicted = random_predict(corpus, scenario, seed=seed)
        for doc in predicted:
            report = validate_document(doc)
            assert report.errors == []


def test_random_s2_keeps_gold_boundaries():
    corpus = synth_corpus(random.Random(6), 3)
    predicted = random_predict(corpus, Scenario.S2, seed=1)
    for doc_id in corpus.doc_ids():
        gold_spans = {kp.span() for kp in corpus[doc_id].keyphrases}
        pred_spans = {kp.span() for kp in predicted[doc_id].keyphrases}
        assert pred_spans == gold_spans


def test_random_s3_keeps_gold_types():
    corpus = synth_corpus(random.Random(6), 3)
    predicted = random_predict(corpus, Scenario.S3, seed=1)
    for doc_id in corpus.doc_ids():
        gold = {(kp.span(), kp.ktype) for kp in corpus[doc_id].keyphrases}
        pred = {(kp.span(), kp.ktype) for kp in predicted[doc_id].keyphrases}
        assert pred == gold


def test_random_subtask_a_score_is_poor():
    corpus = synth_corpus(
        random.Random(42), 30,
        n_sentences=6, n_mentions=12, n_relations=2,
        mention_words=(1, 1, 2, 2, 2, 3, 3, 4, 5, 5),
    )
    predicted = random_predict(corpus, Scenario.S1, seed=0)
    report = score_scenario(corpus, predicted, Scenario.S1)
    assert report.subtasks[Subtask.A].f1 < 0.10


# The random baseline as it was first written, one `rng.choice` per label, in
# token order.  `baselines._drawer` must consume the generator exactly as
# these calls do, so that every seed keeps its output.

_BOUNDARY_LABELS = ("O", "B", "I")
_TYPE_LABELS = ("O", "M", "P", "T")
_SPAN_TYPE_LABELS = ("M", "P", "T")
_CELL_LABELS = ("O", "S", "H")


def _reference_random_sequences(doc, rng):
    sequences = []
    for sent in tokenize_document(doc.text):
        n = len(sent.tokens)
        labels_a = [rng.choice(_BOUNDARY_LABELS) for _ in range(n)]
        labels_b = [rng.choice(_TYPE_LABELS) for _ in range(n)]
        heads = [
            i
            for i, a in enumerate(labels_a)
            if a == "B" or (a == "I" and (i == 0 or labels_a[i - 1] == "O"))
        ]
        cells = _reference_random_cells(heads, rng)
        sequences.append(LabeledSequence(sent, tuple(labels_a), tuple(labels_b), cells))
    return sequences


def _reference_redraw(seq, scenario, rng):
    labels_b = list(seq.labels_b)
    if scenario is Scenario.S2:
        letter = "M"
        for i, a in enumerate(seq.labels_a):
            if a == "B":
                letter = rng.choice(_SPAN_TYPE_LABELS)
            if a != "O":
                labels_b[i] = letter
    heads = [i for i, a in enumerate(seq.labels_a) if a == "B"]
    cells = _reference_random_cells(heads, rng)
    return LabeledSequence(seq.tokenization, seq.labels_a, tuple(labels_b), cells)


def _reference_random_cells(heads, rng):
    cells = {}
    for i in heads:
        for j in heads:
            if i != j:
                value = rng.choice(_CELL_LABELS)
                if value != "O":
                    cells[(i, j)] = value
    return cells


def _reference_random_document(doc, scenario, seed):
    rng = random.Random(f"{seed}\x1f{doc.doc_id}")
    if scenario is Scenario.S1:
        sequences = _reference_random_sequences(doc, rng)
    else:
        sequences, _ = encode_document(doc)
        sequences = [_reference_redraw(seq, scenario, rng) for seq in sequences]
    return decode_document(sequences, doc.text, doc.doc_id)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.integers(0, 10**6),
    st.integers(1, 4),
    st.integers(0, 8),
    st.sampled_from(list(Scenario)),
)
def test_random_document_draws_as_random_choice_does(
    seed, doc_id, doc_seed, n_sentences, n_mentions, scenario
):
    doc = synth_document(
        random.Random(doc_seed), doc_id, n_sentences=n_sentences, n_mentions=n_mentions
    )
    assert random_document(doc, scenario.value, seed) == _reference_random_document(
        doc, scenario, seed
    )


# --- gazetteer ----------------------------------------------------------------


def test_gazetteer_build_counts_example_surfaces(example1):
    gaz = gazetteer_build(Corpus({"example1": example1}))
    ktype, freq = gaz.entries[normalize_surface("Information extraction")]
    assert freq == 2  # the capitalized and lowercase mentions fold together
    assert ktype is K.TASK
    assert len(gaz) == 7


def test_gazetteer_build_rejects_empty_corpus():
    with pytest.raises(ValueError):
        gazetteer_build(Corpus({}))


def test_gazetteer_type_tie_breaks_by_priority():
    text = "alpha beta. Alpha beta."
    d1 = canonicalize_document(make_document("a", text, [("T1", K.TASK, 0, 10)]))
    d2 = canonicalize_document(make_document("b", text, [("T1", K.MATERIAL, 0, 10)]))
    gaz = gazetteer_build(Corpus({"a": d1, "b": d2}))
    ktype, freq = gaz.entries["alpha beta"]
    assert freq == 2
    assert ktype is K.MATERIAL  # M > P > T


def test_gazetteer_predict_matches_at_offsets(example1):
    gaz = gazetteer_build(Corpus({"example1": example1}))
    text = "We study information extraction at scale."
    texts = Corpus({"d": canonicalize_document(make_document("d", text, []))})
    predicted = gazetteer_predict(gaz, texts)
    (kp,) = predicted["d"].keyphrases
    assert kp.span() == (9, 31)
    assert kp.ktype is K.TASK
    assert predicted["d"].relations == ()


def test_gazetteer_longest_match_wins():
    text = "Named entity recognition works. Entity recognition works."
    train = Corpus({
        "t": canonicalize_document(
            make_document(
                "t", text,
                [("T1", K.TASK, 0, 24), ("T2", K.TASK, 33, 51)],
            )
        )
    })
    gaz = gazetteer_build(train)
    target = "We use named entity recognition here."
    texts = Corpus({"d": canonicalize_document(make_document("d", target, []))})
    (kp,) = gazetteer_predict(gaz, texts)["d"].keyphrases
    assert target[kp.start : kp.end] == "named entity recognition"


def test_gazetteer_never_hallucinates_surfaces():
    rng = random.Random(12)
    train = synth_corpus(rng, 5, doc_prefix="train")
    held_out = synth_corpus(rng, 5, doc_prefix="test")
    gaz = gazetteer_build(train)
    predicted = gazetteer_predict(gaz, held_out)
    for doc in predicted:
        for kp in doc.keyphrases:
            assert normalize_surface(kp.surface) in gaz.entries


def test_gazetteer_recall_on_training_text():
    # Every training mention whose surface survives longest-match conflicts
    # is found again when re-annotating the training text itself.
    rng = random.Random(13)
    train = synth_corpus(rng, 4)
    gaz = gazetteer_build(train)
    predicted = gazetteer_predict(gaz, train)
    for doc_id in train.doc_ids():
        pred_surfaces = {
            normalize_surface(kp.surface) for kp in predicted[doc_id].keyphrases
        }
        gold_surfaces = {
            normalize_surface(kp.surface) for kp in train[doc_id].keyphrases
        }
        # longest-match may swallow some shorter gold mentions but never all
        assert gold_surfaces
        assert pred_surfaces & gold_surfaces


def test_gazetteer_finds_surface_longer_in_tokens_than_its_casefold():
    # α, U+0345 and β are three tokens; their casefold "αιβ" is one.
    text = "Some \u03b1\u0345\u03b2 here."
    train = Corpus({"t": make_document("t", text, [("T1", K.MATERIAL, 5, 8)])})
    gaz = gazetteer_build(train)
    (kp,) = gazetteer_predict(gaz, train)["t"].keyphrases
    assert (kp.span(), kp.ktype) == ((5, 8), K.MATERIAL)


def test_normalize_surface_collapses_whitespace_and_case():
    assert normalize_surface("Foo\n  Bar") == "foo bar"
    assert normalize_surface("ÉTUDE") == normalize_surface("étude")


# --- the one-pass matcher against the per-window one -------------------------


def _reference_gazetteer_predict(gaz, texts):
    """The definition: normalize the text of every window of tokens,
    longest first, with no bound, and canonicalize what matched."""
    documents = {}
    for doc in texts:
        tokens = [t for sent in tokenize_document(doc.text) for t in sent.tokens]
        spans = []
        i = 0
        while i < len(tokens):
            hit = None
            for j in range(len(tokens) - 1, i - 1, -1):
                entry = gaz.entries.get(normalize_surface(doc.text[tokens[i].start : tokens[j].end]))
                if entry is not None:
                    hit = (j, entry[0])
                    break
            if hit is None:
                i += 1
            else:
                j, ktype = hit
                spans.append((f"T{len(spans) + 1}", ktype, tokens[i].start, tokens[j].end))
                i = j + 1
        documents[doc.doc_id] = canonicalize_document(make_document(doc.doc_id, doc.text, spans))
    return Corpus(documents)


# Words whose casefold expands (ß, ﬁ) or merges (Σ, σ and ς), a combining
# mark that is a token of its own but casefolds to a letter (U+0345 folds to
# ι, so "α\u0345β" folds to the one-token "αιβ" of "ΑΙΒ"), punctuation glued
# to words, and sentence breaks: "Σ. Foo" splits before "Foo".
_GAZ_WORDS = (
    "foo", "Foo", "FOO", "bar", "Bar", "foo(bar", "x.y", "X.Y", "a-b", "(", ")",
    ",", ".", "Straße", "STRASSE", "strasse", "ﬁne", "FINE", "fine", "ΣΟΦΟΣ",
    "σοφος", "σοφοσ", "ς", "Σ", "9", "α\u0345β", "ΑΙΒ",
)
_GAZ_GAPS = (" ", "  ", "\t", "\n", "\u00a0", ". ", ".\n", "", "")


@st.composite
def _gazetteer_text(draw):
    parts = []
    for _ in range(draw(st.integers(0, 14))):
        parts += [draw(st.sampled_from(_GAZ_WORDS)), draw(st.sampled_from(_GAZ_GAPS))]
    return "".join(parts)


@st.composite
def _training_document(draw, doc_id, text):
    """Spans of `text` at token boundaries, so some cross a sentence break,
    and at arbitrary characters."""
    tokens = [t for sent in tokenize_document(text) for t in sent.tokens]
    kps = []
    for i in range(draw(st.integers(0, 8)) if tokens else 0):
        if draw(st.booleans()):
            first = draw(st.integers(0, len(tokens) - 1))
            last = draw(st.integers(first, min(len(tokens) - 1, first + 3)))
            start, end = tokens[first].start, tokens[last].end
        else:
            start = draw(st.integers(0, len(text) - 1))
            end = draw(st.integers(start + 1, len(text)))
        kps.append((f"T{i + 1}", draw(st.sampled_from(K)), start, end))
    return make_document(doc_id, text, kps)


@st.composite
def _gazetteer_case(draw):
    target = draw(_gazetteer_text())
    # Train on the target text itself or on another text of the same words.
    train_text = target if draw(st.booleans()) else draw(_gazetteer_text())
    train = draw(_training_document("train", train_text))
    return train, make_document("d", target, [])


@settings(max_examples=300, deadline=None)
@given(_gazetteer_case())
def test_gazetteer_predict_equals_reference_algorithm(case):
    train, target = case
    gaz = gazetteer_build(Corpus({"train": train}))
    texts = Corpus({"d": target})
    assert gazetteer_predict(gaz, texts)["d"] == _reference_gazetteer_predict(gaz, texts)["d"]


def test_gazetteer_predict_holds_no_more_than_its_output():
    doc = synth_document(random.Random(3), "long", n_sentences=400, n_mentions=600)
    corpus = Corpus({doc.doc_id: doc})
    gaz = gazetteer_build(corpus)
    _, output, transient = traced_call(lambda: gazetteer_predict(gaz, corpus))
    assert transient <= output
