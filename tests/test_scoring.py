import enum
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    example_document,
    oracle_counts,
    random_scored_pair,
    synth_corpus,
)
from kpeval import (
    Corpus,
    Document,
    KeyphraseType,
    MatchCounts,
    RelationType,
    Scenario,
    Subtask,
    canonicalize_document,
    count_matches,
    make_document,
    micro_scores,
    score_scenario,
)
from kpeval.scoring import items, report_to_dict, report_to_json, report_to_text, summarize

K = KeyphraseType
R = RelationType


def _perturbed_prediction() -> Document:
    """Example prediction: one correct synonym pair plus a spurious hyponym."""
    doc = example_document()
    by_span = {kp.span(): kp for kp in doc.keyphrases}
    keep = [
        (kp.id, kp.ktype, kp.start, kp.end)
        for kp in doc.keyphrases
        if kp.span() in {(279, 304), (306, 309), (0, 22), (150, 168)}
    ]
    syn = [kp.id for kp in doc.keyphrases if kp.span() in {(279, 304), (306, 309)}]
    spurious = [kp.id for kp in doc.keyphrases if kp.span() in {(0, 22), (150, 168)}]
    return canonicalize_document(
        make_document(
            doc.doc_id,
            doc.text,
            keep,
            [(R.SYNONYM_OF, syn[0], syn[1]), (R.HYPONYM_OF, spurious[0], spurious[1])],
        )
    )


def test_identical_documents_subtask_c():
    doc = example_document()
    assert count_matches(Subtask.C, doc, doc) == MatchCounts(tp=3, fp=0, fn=0)


def test_perturbed_prediction_subtask_c():
    gold = example_document()
    pred = _perturbed_prediction()
    counts = count_matches(Subtask.C, gold, pred)
    assert counts == MatchCounts(tp=1, fp=1, fn=2)
    p, r, f1 = micro_scores(counts)
    assert p == 0.5
    assert r == pytest.approx(1 / 3, abs=1e-15)
    assert f1 == 0.4


def test_types_do_not_matter_for_subtask_a_but_do_for_b():
    gold = example_document()
    rotated = {K.TASK: K.PROCESS, K.PROCESS: K.MATERIAL, K.MATERIAL: K.TASK}
    pred = canonicalize_document(
        make_document(
            gold.doc_id,
            gold.text,
            [(kp.id, rotated[kp.ktype], kp.start, kp.end) for kp in gold.keyphrases],
        )
    )
    assert count_matches(Subtask.A, gold, pred) == MatchCounts(tp=8, fp=0, fn=0)
    assert count_matches(Subtask.B, gold, pred) == MatchCounts(tp=0, fp=8, fn=8)


def test_count_matches_requires_same_doc_id():
    gold = example_document()
    other = Document("other", gold.text)
    with pytest.raises(ValueError, match="doc_id"):
        count_matches(Subtask.A, gold, other)


def test_synonym_matching_ignores_argument_order():
    text = "alpha beta gamma"
    a = canonicalize_document(
        make_document(
            "d", text,
            [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10)],
            [(R.SYNONYM_OF, "T1", "T2")],
        )
    )
    b = canonicalize_document(
        make_document(
            "d", text,
            [("X", K.TASK, 6, 10), ("Y", K.TASK, 0, 5)],
            [(R.SYNONYM_OF, "X", "Y")],
        )
    )
    assert count_matches(Subtask.C, a, b) == MatchCounts(tp=1, fp=0, fn=0)


def test_hyponym_matching_is_directed():
    text = "alpha beta gamma"
    fwd = canonicalize_document(
        make_document(
            "d", text,
            [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10)],
            [(R.HYPONYM_OF, "T1", "T2")],
        )
    )
    rev = canonicalize_document(
        make_document(
            "d", text,
            [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10)],
            [(R.HYPONYM_OF, "T2", "T1")],
        )
    )
    assert count_matches(Subtask.C, fwd, rev) == MatchCounts(tp=0, fp=1, fn=1)


@pytest.mark.parametrize(
    "counts,expected",
    [
        (MatchCounts(1, 1, 2), (0.5, 1 / 3, 0.4)),
        (MatchCounts(0, 0, 0), (0.0, 0.0, 0.0)),
        (MatchCounts(5, 0, 0), (1.0, 1.0, 1.0)),
    ],
)
def test_micro_scores_examples(counts, expected):
    p, r, f1 = micro_scores(counts)
    assert (p, r, f1) == pytest.approx(expected, abs=1e-15)


def test_micro_scores_zero_denominators():
    assert micro_scores(MatchCounts(0, 5, 0)) == (0.0, 0.0, 0.0)
    assert micro_scores(MatchCounts(0, 0, 5)) == (0.0, 0.0, 0.0)


# --- corpus-level scoring ----------------------------------------------------


def test_identity_scoring_is_perfect():
    corpus = synth_corpus(random.Random(0), 4)
    for scenario in Scenario:
        report = score_scenario(corpus, corpus, scenario)
        for score in report.subtasks.values():
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)
        assert report.overall.f1 == 1.0


def test_empty_predictions_score_zero():
    corpus = synth_corpus(random.Random(0), 4)
    empty = Corpus({d.doc_id: Document(d.doc_id, d.text) for d in corpus})
    report = score_scenario(corpus, empty, Scenario.S1)
    for score in report.subtasks.values():
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)


def test_missing_documents_count_as_empty():
    corpus = synth_corpus(random.Random(0), 3)
    some = Corpus({corpus.doc_ids()[0]: corpus[corpus.doc_ids()[0]]})
    report = score_scenario(corpus, some, Scenario.S1)
    a = report.subtasks[Subtask.A]
    assert a.precision == 1.0 and a.recall < 1.0


def test_unknown_prediction_doc_id_is_an_error():
    corpus = synth_corpus(random.Random(0), 2)
    alien = Corpus({"alien": Document("alien", "text")})
    with pytest.raises(ValueError, match="alien"):
        score_scenario(corpus, alien, Scenario.S1)


def test_pooled_counts_arithmetic():
    # two docs with subtask-C counts (1,1,2) and (1,0,0):
    # pooled C: tp=2 fp=1 fn=2 -> P=2/3 R=1/2 F1=4/7
    text = "alpha beta gamma delta"
    kps = [("T1", K.TASK, 0, 5), ("T2", K.TASK, 6, 10),
           ("T3", K.TASK, 11, 16), ("T4", K.TASK, 17, 22)]

    def doc(doc_id, rels):
        return canonicalize_document(make_document(doc_id, text, kps, rels))

    gold = Corpus({
        "a": doc("a", [(R.HYPONYM_OF, "T1", "T2"), (R.HYPONYM_OF, "T1", "T3"),
                       (R.HYPONYM_OF, "T1", "T4")]),
        "b": doc("b", [(R.HYPONYM_OF, "T2", "T3")]),
    })
    pred = Corpus({
        "a": doc("a", [(R.HYPONYM_OF, "T1", "T2"), (R.HYPONYM_OF, "T2", "T1")]),
        "b": doc("b", [(R.HYPONYM_OF, "T2", "T3")]),
    })
    report = score_scenario(gold, pred, Scenario.S3)
    c = report.subtasks[Subtask.C]
    assert (c.counts.tp, c.counts.fp, c.counts.fn) == (2, 1, 2)
    assert c.precision == pytest.approx(2 / 3)
    assert c.recall == 0.5
    assert c.f1 == pytest.approx(4 / 7)
    # S3: overall equals subtask C
    assert report.overall == c


def test_overall_pools_b_and_c_by_default():
    corpus = synth_corpus(random.Random(2), 3)
    report = score_scenario(corpus, corpus, Scenario.S1)
    b = report.subtasks[Subtask.B].counts
    c = report.subtasks[Subtask.C].counts
    assert report.overall.counts == b + c


def test_overall_abc_pooling_flag():
    corpus = synth_corpus(random.Random(2), 3)
    report = score_scenario(corpus, corpus, Scenario.S1, pool="abc")
    total = MatchCounts()
    for task in Subtask:
        total += report.subtasks[task].counts
    assert report.overall.counts == total


def test_scenarios_score_their_subtasks_only():
    corpus = synth_corpus(random.Random(2), 2)
    assert set(score_scenario(corpus, corpus, Scenario.S1).subtasks) == set(Subtask)
    assert set(score_scenario(corpus, corpus, Scenario.S2).subtasks) == {
        Subtask.B, Subtask.C,
    }
    assert set(score_scenario(corpus, corpus, Scenario.S3).subtasks) == {Subtask.C}


def test_s2_deviating_spans_are_flagged_but_scored():
    text = "alpha beta gamma"
    gold = Corpus({"d": canonicalize_document(
        make_document("d", text, [("T1", K.TASK, 0, 5)]))})
    pred = Corpus({"d": canonicalize_document(
        make_document("d", text, [("T1", K.TASK, 6, 10)]))})
    report = score_scenario(gold, pred, Scenario.S2)
    assert report.diagnostics and "d" in report.diagnostics[0]
    assert report.subtasks[Subtask.B].counts == MatchCounts(0, 1, 1)


def test_s3_retyped_spans_are_flagged_but_scored():
    text = "alpha beta gamma"
    gold = Corpus({"d": canonicalize_document(
        make_document("d", text, [("T1", K.TASK, 0, 5)]))})
    pred = Corpus({"d": canonicalize_document(
        make_document("d", text, [("T1", K.PROCESS, 0, 5)]))})
    report = score_scenario(gold, pred, Scenario.S3)
    assert report.diagnostics == ["d: predicted typed spans deviate from the given ones"]
    assert report.subtasks[Subtask.C].counts == MatchCounts(0, 0, 0)
    assert score_scenario(gold, pred, Scenario.S2).diagnostics == []


def test_unknown_pooling_is_rejected():
    corpus = synth_corpus(random.Random(2), 1)
    with pytest.raises(ValueError, match="unknown pooling 'ab'"):
        score_scenario(corpus, corpus, Scenario.S1, pool="ab")
    with pytest.raises(ValueError, match="unknown pooling 'ab'"):
        summarize(Scenario.S1, {}, pool="ab")


def _scored_corpora(seed: int) -> tuple[Corpus, Corpus]:
    """Gold and predicted corpora; the first gold document has no prediction."""
    rng = random.Random(seed)
    pairs = [random_scored_pair(rng, f"d{i}") for i in range(rng.randint(1, 6))]
    return (
        Corpus({gold.doc_id: gold for gold, _ in pairs}),
        Corpus({pred.doc_id: pred for _, pred in pairs[1:]}),
    )


def _prediction(pred: Corpus, gold_doc: Document) -> Document:
    doc_id = gold_doc.doc_id
    return pred[doc_id] if doc_id in pred else Document(doc_id, gold_doc.text)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_given_deviations_are_the_item_sets_that_differ(seed):
    gold, pred = _scored_corpora(seed)
    for scenario, task, message in (
        (Scenario.S2, Subtask.A, "predicted spans deviate from the given boundaries"),
        (Scenario.S3, Subtask.B, "predicted typed spans deviate from the given ones"),
    ):
        expected = [
            f"{doc.doc_id}: {message}"
            for doc in gold
            if items(task, doc) != items(task, _prediction(pred, doc))
        ]
        assert score_scenario(gold, pred, scenario).diagnostics == expected
    assert score_scenario(gold, pred, Scenario.S1).diagnostics == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(list(Scenario)), st.sampled_from(["bc", "abc"]))
def test_per_doc_counts_every_gold_document_and_sums_to_each_report(seed, scenario, pool):
    gold, pred = _scored_corpora(seed)
    report = score_scenario(gold, pred, scenario, pool=pool)
    assert list(report.per_doc) == gold.doc_ids()
    for doc in gold:
        assert report.per_doc[doc.doc_id] == tuple(
            count_matches(task, doc, _prediction(pred, doc)) for task in Subtask
        )
    for i, task in enumerate(Subtask):
        total = sum((counts[i] for counts in report.per_doc.values()), MatchCounts())
        if task in report.subtasks:
            assert report.subtasks[task].counts == total
    # Any subset of documents summarizes to the score of that sub-corpus.
    subset = gold.doc_ids()[::2]
    part = summarize(scenario, {d: report.per_doc[d] for d in subset}, pool)
    alone = score_scenario(
        Corpus({d: gold[d] for d in subset}),
        Corpus({d: pred[d] for d in subset if d in pred}),
        scenario,
        pool=pool,
    )
    assert report_to_dict(part) == report_to_dict(alone)
    assert part.diagnostics == alone.diagnostics


def test_items_hold_type_values_and_no_enum_member():
    doc = example_document()
    assert {kp.ktype for kp in doc.keyphrases} == set(K)
    assert {rel.rtype for rel in doc.relations} == set(R)

    def members(value):
        if isinstance(value, enum.Enum):
            return [value]
        if isinstance(value, (tuple, frozenset)):
            return [m for part in value for m in members(part)]
        return []

    for task in Subtask:
        found = items(task, doc)
        assert found and members(tuple(found)) == [], task
    assert {item[2] for item in items(Subtask.B, doc)} == {t.value for t in K}
    assert {item[0] for item in items(Subtask.C, doc)} == {t.value for t in R}


# --- invariants ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_swapping_gold_and_pred_swaps_fp_fn(seed):
    gold, pred = random_scored_pair(random.Random(seed))
    for task in Subtask:
        fwd = count_matches(task, gold, pred)
        rev = count_matches(task, pred, gold)
        assert (fwd.tp, fwd.fp, fwd.fn) == (rev.tp, rev.fn, rev.fp)
        pf, rf, ff = micro_scores(fwd)
        pr, rr, fr = micro_scores(rev)
        assert (pf, rf) == (rr, pr)
        assert ff == pytest.approx(fr, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_count_matches_agrees_with_bipartite_oracle(seed):
    gold, pred = random_scored_pair(random.Random(seed))
    for task in Subtask:
        mine = count_matches(task, gold, pred)
        assert (mine.tp, mine.fp, mine.fn) == oracle_counts(task, gold, pred)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_adding_a_correct_item_never_hurts(seed):
    rng = random.Random(seed)
    gold, pred = random_scored_pair(rng)
    missing = [
        kp for kp in gold.keyphrases
        if kp.span() not in {p.span() for p in pred.keyphrases}
    ]
    if not missing:
        return
    extra = rng.choice(missing)
    better = canonicalize_document(
        make_document(
            pred.doc_id,
            pred.text,
            [(kp.id, kp.ktype, kp.start, kp.end) for kp in pred.keyphrases]
            + [("EXTRA", extra.ktype, extra.start, extra.end)],
            [(r.rtype, r.arg1, r.arg2) for r in pred.relations],
        )
    )
    for task in (Subtask.A, Subtask.B):
        before = micro_scores(count_matches(task, gold, pred))
        after = micro_scores(count_matches(task, gold, better))
        assert all(a >= b - 1e-12 for a, b in zip(after, before))


def test_scoring_is_independent_of_iteration_order():
    corpus = synth_corpus(random.Random(9), 5)
    shuffled_ids = corpus.doc_ids()
    random.Random(1).shuffle(shuffled_ids)
    shuffled = Corpus({d: corpus[d] for d in shuffled_ids})
    a = score_scenario(corpus, corpus, Scenario.S1)
    b = score_scenario(shuffled, shuffled, Scenario.S1)
    assert report_to_dict(a) == report_to_dict(b)


# --- report rendering ---------------------------------------------------------


def test_report_json_shape():
    corpus = synth_corpus(random.Random(3), 2)
    report = score_scenario(corpus, corpus, Scenario.S1)
    payload = json.loads(report_to_json(report))
    assert payload["scenario"] == 1
    assert set(payload["subtasks"]) == {"A", "B", "C"}
    for row in list(payload["subtasks"].values()) + [payload["overall"]]:
        assert set(row) == {"tp", "fp", "fn", "p", "r", "f1"}


def test_report_text_has_four_decimals():
    corpus = synth_corpus(random.Random(3), 2)
    text = report_to_text(score_scenario(corpus, corpus, Scenario.S1))
    assert "1.0000" in text
    assert text.splitlines()[0].startswith("Scenario 1")
