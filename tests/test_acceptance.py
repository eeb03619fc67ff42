"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s to see the measured values).
"""

import random
import time

import pytest

from conftest import (
    example_document,
    misalignment_corpus,
    oracle_counts,
    random_scored_pair,
    synth_corpus,
    write_corpus_dir,
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
    cohen_kappa,
    corpus_stats,
    count_matches,
    decode_document,
    encode_document,
    load_corpus,
    make_document,
    micro_scores,
    oracle_predict,
    parse_ann_line,
    roundtrip_report,
    score_scenario,
    serialize_annotations,
    validate_document,
)
from kpeval.brat import MalformedLine
from kpeval.cli import run_cli

K = KeyphraseType
R = RelationType


def test_scorer_oracle_equivalence_on_1000_random_pairs():
    """count_matches == exhaustive bipartite pairing on 1000 pairs, < 10 s."""
    t0 = time.perf_counter()
    checked = 0
    for seed in range(1000):
        gold, pred = random_scored_pair(random.Random(seed))
        assert len(gold.keyphrases) <= 10 and len(gold.relations) <= 4
        for task in Subtask:
            mine = count_matches(task, gold, pred)
            assert (mine.tp, mine.fp, mine.fn) == oracle_counts(task, gold, pred), (
                seed, task,
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    print(f"\n  scorer-oracle equivalence: {checked} comparisons in {elapsed:.2f}s")
    assert elapsed < 10.0


def test_identity_and_empty_scoring():
    """gold-vs-gold is 1.0 everywhere; empty predictions are 0.0 everywhere."""
    corpus = synth_corpus(random.Random(100), 8)
    empty = Corpus({d.doc_id: Document(d.doc_id, d.text) for d in corpus})
    for scenario in Scenario:
        report = score_scenario(corpus, corpus, scenario)
        for task, score in report.subtasks.items():
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0), (
                scenario, task,
            )
        assert (report.overall.precision, report.overall.recall,
                report.overall.f1) == (1.0, 1.0, 1.0)
        zero = score_scenario(corpus, empty, scenario)
        for task, score in zero.subtasks.items():
            assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)
        assert (zero.overall.precision, zero.overall.recall,
                zero.overall.f1) == (0.0, 0.0, 0.0)
    print("\n  identity scoring = 1.0 and empty scoring = 0.0 for S1, S2, S3")


def test_hand_computed_subtask_c_fixture():
    """Worked-example gold vs perturbed pred: P=0.5, R=1/3, F1=0.4 (1e-12)."""
    gold = example_document()
    keep = {(279, 304), (306, 309), (0, 22), (150, 168)}
    kps = [
        (kp.id, kp.ktype, kp.start, kp.end)
        for kp in gold.keyphrases
        if kp.span() in keep
    ]
    syn = sorted(kp.id for kp in gold.keyphrases if kp.span() in {(279, 304), (306, 309)})
    hyp = sorted(kp.id for kp in gold.keyphrases if kp.span() in {(0, 22), (150, 168)})
    pred = canonicalize_document(
        make_document(
            gold.doc_id, gold.text, kps,
            [(R.SYNONYM_OF, syn[0], syn[1]), (R.HYPONYM_OF, hyp[0], hyp[1])],
        )
    )
    counts = count_matches(Subtask.C, gold, pred)
    assert counts == MatchCounts(tp=1, fp=1, fn=2)
    p, r, f1 = micro_scores(counts)
    assert abs(p - 0.5) < 1e-12
    assert abs(r - 1 / 3) < 1e-12
    assert abs(f1 - 0.4) < 1e-12
    print(f"\n  hand fixture subtask C: P={p} R={r} F1={f1}")


def test_roundtrip_identity_on_aligned_corpus():
    """decode(encode(g)) == g and the oracle baseline scores 1.0 on A, B, C."""
    corpus = synth_corpus(random.Random(200), 10)
    for doc in corpus:
        sequences, outcome = encode_document(doc)
        assert outcome.dropped_spans == [] and outcome.dropped_relations == []
        assert decode_document(sequences, doc.text, doc.doc_id) == doc
    report = score_scenario(corpus, oracle_predict(corpus), Scenario.S1)
    for task in Subtask:
        assert report.subtasks[task].f1 == 1.0
    print("\n  round-trip identity holds; oracle F1 = 1.0 on A, B and C")


def test_roundtrip_loss_fixture_exact():
    """3-document misalignment fixture: A F1 = 18/19 and C F1 = 0.75, exact.

    Corpus-level upper-bound figures for the official task corpus are
    reproducible only when that corpus is supplied, via `baseline --kind
    oracle` + `score`; this fixture pins the mechanism with exactly one
    misaligned span among ten.
    """
    report = roundtrip_report(misalignment_corpus("snapped"), snap=True)
    a = report.subtasks[Subtask.A]
    c = report.subtasks[Subtask.C]
    assert a.f1 == 18 / 19, a
    assert c.f1 == 0.75, c
    # The strict (snap-off) conversion on the cross-sentence variant: the one
    # misaligned span and the one crossing relation are exactly what is lost.
    strict = roundtrip_report(misalignment_corpus("cross"), snap=False)
    sa, sc = strict.subtasks[Subtask.A], strict.subtasks[Subtask.C]
    assert (sa.counts.tp, sa.counts.fp, sa.counts.fn) == (9, 0, 1)
    assert sc.f1 == 6 / 7
    print(f"\n  loss fixture: A F1 = {a.f1} (= 18/19), C F1 = {c.f1}")


def test_random_baseline_determinism_and_weakness(tmp_path):
    """Same seed => byte-identical output dirs (any --jobs); A F1 < 0.10."""
    corpus = synth_corpus(
        random.Random(300), 100,
        n_sentences=6, n_mentions=12, n_relations=2,
        mention_words=(1, 1, 2, 2, 2, 3, 3, 4, 5, 5),
    )
    corpus_dir = write_corpus_dir(corpus, tmp_path / "gold")
    outputs = []
    for name, jobs in (("p1", "1"), ("p2", "1"), ("p3", "4")):
        out = tmp_path / name
        assert run_cli([
            "baseline", "--kind", "random", "--seed", "7", "--jobs", jobs,
            "--in", str(corpus_dir), "--out", str(out),
        ]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] == outputs[2]

    from kpeval import random_predict

    report = score_scenario(
        corpus, random_predict(corpus, Scenario.S1, seed=7), Scenario.S1
    )
    a_f1 = report.subtasks[Subtask.A].f1
    print(f"\n  random baseline subtask A F1 = {a_f1:.4f} (< 0.10 required)")
    assert a_f1 < 0.10


def test_kappa_correctness():
    """Hand values exact; chance-level kappa tiny."""
    assert cohen_kappa(list("ABAB"), list("ABAB")) == 1.0
    x = ["A"] * 7 + ["B"] * 7 + ["A"] * 3 + ["B"] * 3
    y = ["A"] * 7 + ["B"] * 7 + ["B"] * 3 + ["A"] * 3
    assert abs(cohen_kappa(x, y) - 0.4) < 1e-12
    assert abs(cohen_kappa(["A", "B"] * 8, ["B", "A"] * 8) + 1.0) < 1e-12

    passes = 0
    for seed in range(100):
        rng = random.Random(seed)
        a = rng.choices("OBI", k=100_000)
        b = rng.choices("OBI", k=100_000)
        if abs(cohen_kappa(a, b)) < 0.05:
            passes += 1
    print(f"\n  chance-level |kappa| < 0.05 in {passes}/100 trials (>= 95 required)")
    assert passes >= 95


def test_stats_equal_brute_force_exactly():
    """corpus_stats matches an independent counter on random fixtures.

    Reproducing the published training-corpus figures requires the official
    corpus (then `kpeval stats <dir>` applies); fixtures pin the arithmetic.
    """
    from kpeval.codec import tokenize

    for seed in (1, 2, 3, 4, 5):
        corpus = synth_corpus(random.Random(seed), 4)
        stats = corpus_stats(corpus, k=5)

        surfaces = []
        for doc in corpus:
            for kp in doc.keyphrases:
                surfaces.append(doc.text[kp.start : kp.end])
        norm = [" ".join(s.casefold().split()) for s in surfaces]
        freq: dict[str, int] = {}
        for s in norm:
            freq[s] = freq.get(s, 0) + 1
        lengths = [len(tokenize(s, (0, len(s)))) for s in surfaces]
        n = len(surfaces)
        assert stats.n_mentions == n
        assert stats.n_unique == len(freq)
        singles = sum(1 for c in freq.values() if c == 1)
        assert stats.pct_singleton == (100 * singles / len(freq) if freq else 0.0)
        assert stats.pct_single_word == (
            100 * sum(1 for w in lengths if w == 1) / n if n else 0.0
        )
        assert stats.pct_len_ge3 == (
            100 * sum(1 for w in lengths if w >= 3) / n if n else 0.0
        )
        assert stats.pct_len_ge5 == (
            100 * sum(1 for w in lengths if w >= 5) / n if n else 0.0
        )
        expected_top = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert list(stats.top_k) == expected_top
    print("\n  corpus_stats equals the brute-force counter on 5 fixtures")


def test_format_round_trip_on_50_files(tmp_path):
    """parse -> canonicalize -> serialize is a byte fixed point on 50 files;
    malformed lines are errors naming file and line."""
    corpus = synth_corpus(random.Random(400), 50)
    corpus_dir = write_corpus_dir(corpus, tmp_path / "fifty")
    loaded, report = load_corpus(corpus_dir)
    assert report.errors == []
    assert len(loaded) == 50
    for doc in loaded:
        canonical = canonicalize_document(doc)
        produced = serialize_annotations(canonical)
        on_disk = (corpus_dir / f"{doc.doc_id}.ann").read_text(encoding="utf-8")
        assert produced == on_disk
        reparse_dir_bytes = serialize_annotations(canonical)
        assert reparse_dir_bytes == produced

    malformed = [
        "T1\tTask zero five\tx",
        "T1\tTask 0\tx",
        "Q9\tTask 0 5\tx",
        "T1\tWidget 0 5\tx",
    ]
    for line in malformed:
        with pytest.raises(MalformedLine):
            parse_ann_line(line)
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "doc.txt").write_text("alpha beta", encoding="utf-8")
    (bad_dir / "doc.ann").write_text(
        "T1\tTask 0 5\talpha\nT2\tTask zero five\tbeta\n", encoding="utf-8"
    )
    _, bad_report = load_corpus(bad_dir)
    (err,) = bad_report.errors
    assert "doc.ann" in err[2] and "line 2" in err[2]
    print("\n  50-file byte fixed point holds; malformed lines cite file + line")


def test_validate_and_score_500_documents_under_5s():
    """Corpus-scale performance: validate + score 500 documents in < 5 s."""
    corpus = synth_corpus(
        random.Random(500), 500, n_sentences=4, n_mentions=12, n_relations=2
    )
    t0 = time.perf_counter()
    for doc in corpus:
        assert validate_document(doc).errors == []
    report = score_scenario(corpus, corpus, Scenario.S1)
    elapsed = time.perf_counter() - t0
    assert report.overall.f1 == 1.0
    print(f"\n  validate + score of 500 documents: {elapsed:.2f}s (< 5 s required)")
    assert elapsed < 5.0
