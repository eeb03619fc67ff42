import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import example_document, random_scored_pair, synth_corpus
from kpeval import (
    AgreementReport,
    Corpus,
    Document,
    KeyphraseType,
    agreement_report,
    analytics,
    canonicalize_document,
    codec,
    cohen_kappa,
    corpus_stats,
    encode_document,
    make_document,
)

K = KeyphraseType


# --- corpus statistics --------------------------------------------------------


def test_stats_on_example_document(example1):
    stats = corpus_stats(Corpus({"example1": example1}))
    assert stats.n_mentions == 8
    assert stats.n_unique == 7          # the two "information extraction" fold
    assert stats.pct_singleton == pytest.approx(100 * 6 / 7)
    assert stats.pct_single_word == pytest.approx(100 * 2 / 8)   # NER, CRF
    assert stats.pct_len_ge3 == pytest.approx(100 * 3 / 8)
    assert stats.pct_len_ge5 == 0.0
    assert stats.top_k[0] == ("information extraction", 2)


def test_stats_on_empty_corpus():
    stats = corpus_stats(Corpus({}))
    assert stats.n_mentions == 0 and stats.n_unique == 0
    assert stats.pct_singleton == 0.0 and stats.pct_single_word == 0.0
    assert stats.top_k == ()


def test_stats_top_k_ordering():
    text = "aa bb. Aa bb. cc dd. cc dd. zz yy."
    spans = [(0, 5), (7, 12), (14, 19), (21, 26), (28, 33)]
    doc = canonicalize_document(
        make_document(
            "d", text, [(f"T{i}", K.TASK, s, e) for i, (s, e) in enumerate(spans, 1)]
        )
    )
    stats = corpus_stats(Corpus({"d": doc}), k=2)
    assert stats.top_k == (("aa bb", 2), ("cc dd", 2))  # freq desc, then name


def _brute_force_stats(corpus: Corpus):
    """Independent recomputation with plain string ops (no shared helpers)."""
    surfaces = []
    for doc in corpus:
        for kp in doc.keyphrases:
            surfaces.append(doc.text[kp.start : kp.end])
    norm = [" ".join(s.casefold().split()) for s in surfaces]
    words = [len(codec.tokenize(s, (0, len(s)))) for s in surfaces]
    uniq = {}
    for s in norm:
        uniq[s] = uniq.get(s, 0) + 1
    return {
        "mentions": len(surfaces),
        "unique": len(uniq),
        "singleton": sum(1 for c in uniq.values() if c == 1),
        "single_word": sum(1 for n in words if n == 1),
        "len_ge3": sum(1 for n in words if n >= 3),
        "len_ge5": sum(1 for n in words if n >= 5),
    }


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_stats_agree_with_brute_force_counter(seed):
    corpus = synth_corpus(random.Random(seed), 3)
    stats = corpus_stats(corpus)
    brute = _brute_force_stats(corpus)
    assert stats.n_mentions == brute["mentions"]
    assert stats.n_unique == brute["unique"]
    if brute["unique"]:
        assert stats.pct_singleton == pytest.approx(
            100 * brute["singleton"] / brute["unique"]
        )
    if brute["mentions"]:
        for field, count in (("pct_single_word", "single_word"),
                             ("pct_len_ge3", "len_ge3"), ("pct_len_ge5", "len_ge5")):
            assert getattr(stats, field) == pytest.approx(
                100 * brute[count] / brute["mentions"]
            )


# --- Cohen's kappa --------------------------------------------------------------


def test_cohen_identical_sequences():
    assert cohen_kappa(list("ABABAB"), list("ABABAB")) == 1.0


def test_cohen_hand_computed_value():
    # 20 positions: 7 agree on A, 7 agree on B, 3 are A/B, 3 are B/A.
    # p_o = 14/20 = 0.7; both marginals are 10/10 so p_e = 0.5; kappa = 0.4.
    x = ["A"] * 7 + ["B"] * 7 + ["A"] * 3 + ["B"] * 3
    y = ["A"] * 7 + ["B"] * 7 + ["B"] * 3 + ["A"] * 3
    assert cohen_kappa(x, y) == pytest.approx(0.4, abs=1e-15)


def test_cohen_perfectly_anticorrelated():
    x = ["A", "B"] * 10
    y = ["B", "A"] * 10
    assert cohen_kappa(x, y) == pytest.approx(-1.0, abs=1e-15)


def test_cohen_constant_sequences():
    assert cohen_kappa(["A"] * 5, ["A"] * 5) == 1.0


def test_cohen_errors():
    with pytest.raises(ValueError, match="length"):
        cohen_kappa(["A"], ["A", "B"])
    with pytest.raises(ValueError, match="empty"):
        cohen_kappa([], [])


def test_cohen_is_symmetric():
    rng = random.Random(0)
    x = [rng.choice("ABC") for _ in range(200)]
    y = [rng.choice("ABC") for _ in range(200)]
    assert cohen_kappa(x, y) == pytest.approx(cohen_kappa(y, x), abs=1e-15)


def test_cohen_invariant_under_label_permutation():
    rng = random.Random(1)
    x = [rng.choice("ABC") for _ in range(300)]
    y = [rng.choice("ABC") for _ in range(300)]
    mapping = {"A": "Z", "B": "Q", "C": "R"}
    assert cohen_kappa(x, y) == pytest.approx(
        cohen_kappa([mapping[v] for v in x], [mapping[v] for v in y]), abs=1e-15
    )


def test_cohen_chance_level_is_near_zero():
    rng = random.Random(99)
    x = [rng.choice("OBI") for _ in range(100_000)]
    y = [rng.choice("OBI") for _ in range(100_000)]
    assert abs(cohen_kappa(x, y)) < 0.05


# --- agreement report -------------------------------------------------------------


def test_agreement_identity_corpus():
    corpus = synth_corpus(random.Random(21), 4)
    report = agreement_report(corpus, corpus)
    assert report.kappa == 1.0
    assert report.n_docs_excluded == 0
    assert report.n_docs_included == 4


def test_agreement_excludes_documents_with_an_empty_side():
    corpus = synth_corpus(random.Random(22), 3)
    ids = corpus.doc_ids()
    stripped = Corpus(
        {
            doc_id: (
                Document(doc_id, corpus[doc_id].text)
                if doc_id == ids[0]
                else corpus[doc_id]
            )
            for doc_id in ids
        }
    )
    report = agreement_report(corpus, stripped)
    assert report.n_docs_excluded == 1
    assert report.n_docs_included == 2
    assert report.kappa == 1.0  # the remaining docs agree exactly


def test_agreement_requires_identical_texts():
    a = Corpus({"d": canonicalize_document(
        make_document("d", "alpha beta", [("T1", K.TASK, 0, 5)]))})
    b = Corpus({"d": canonicalize_document(
        make_document("d", "alpha gamma", [("T1", K.TASK, 0, 5)]))})
    with pytest.raises(ValueError, match="text"):
        agreement_report(a, b)


def test_agreement_requires_shared_documents():
    a = Corpus({"x": Document("x", "alpha")})
    b = Corpus({"y": Document("y", "alpha")})
    with pytest.raises(ValueError, match="share"):
        agreement_report(a, b)


def test_agreement_granularity_changes_labels():
    rng = random.Random(23)
    corpus = synth_corpus(rng, 3)
    # Same spans, different types: boundary agreement stays perfect while
    # type agreement degrades.
    retyped = {}
    for doc_id in corpus.doc_ids():
        doc = corpus[doc_id]
        rotated = {K.TASK: K.PROCESS, K.PROCESS: K.MATERIAL, K.MATERIAL: K.TASK}
        retyped[doc_id] = canonicalize_document(
            make_document(
                doc_id, doc.text,
                [(kp.id, rotated[kp.ktype], kp.start, kp.end) for kp in doc.keyphrases],
            )
        )
    other = Corpus(retyped)
    assert agreement_report(corpus, other, "token_a").kappa == 1.0
    assert agreement_report(corpus, other, "token_b").kappa < 1.0


def test_agreement_rejects_unknown_granularity():
    corpus = synth_corpus(random.Random(24), 2)
    with pytest.raises(ValueError, match="granularity"):
        agreement_report(corpus, corpus, "mention")


def _reference_agreement(corpus_x: Corpus, corpus_y: Corpus, granularity: str):
    """Encode each side of each shared document on its own, as the report
    did before it tokenized a shared text once for both sides."""
    field = "labels_a" if granularity == "token_a" else "labels_b"
    labels_x: list[str] = []
    labels_y: list[str] = []
    included = excluded = 0
    for doc_id in sorted(set(corpus_x.doc_ids()) & set(corpus_y.doc_ids())):
        doc_x, doc_y = corpus_x[doc_id], corpus_y[doc_id]
        if not doc_x.keyphrases or not doc_y.keyphrases:
            excluded += 1
            continue
        included += 1
        for doc, sink in ((doc_x, labels_x), (doc_y, labels_y)):
            for seq in encode_document(doc)[0]:
                sink.extend(getattr(seq, field))
    if not labels_x:
        return None
    return AgreementReport(
        cohen_kappa(labels_x, labels_y), included, excluded, granularity, len(labels_x)
    )


@pytest.mark.parametrize("granularity", ["token_a", "token_b"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n_docs=st.integers(1, 4))
def test_agreement_equals_encoding_each_side_on_its_own(granularity, seed, n_docs):
    # The prediction side of a scored pair keeps some gold spans, retypes
    # some, and grafts noise spans that may overlap or miss token boundaries.
    rng = random.Random(seed)
    pairs = [random_scored_pair(rng, f"d{i}") for i in range(n_docs)]
    corpus_x = Corpus({gold.doc_id: gold for gold, _ in pairs})
    corpus_y = Corpus({pred.doc_id: pred for _, pred in pairs})
    expected = _reference_agreement(corpus_x, corpus_y, granularity)
    if expected is None:
        with pytest.raises(ValueError, match="both sides"):
            agreement_report(corpus_x, corpus_y, granularity)
    else:
        assert agreement_report(corpus_x, corpus_y, granularity) == expected


def test_agreement_tokenizes_each_included_text_once(monkeypatch):
    corpus = synth_corpus(random.Random(25), 4)
    first = corpus.doc_ids()[0]
    other = Corpus({
        doc_id: Document(doc_id, corpus[doc_id].text) if doc_id == first else corpus[doc_id]
        for doc_id in corpus.doc_ids()
    })
    texts = []
    original = codec.tokenize_document

    def counting(text):
        texts.append(text)
        return original(text)

    # Both names: the report's own, and the codec's, which encode_document
    # would call.
    monkeypatch.setattr(analytics, "tokenize_document", counting)
    monkeypatch.setattr(codec, "tokenize_document", counting)
    report = agreement_report(corpus, other)
    assert report.n_docs_included == 3
    assert texts == [corpus[doc_id].text for doc_id in corpus.doc_ids()[1:]]
