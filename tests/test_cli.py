import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    misalignment_corpus,
    random_scored_pair,
    synth_corpus,
    traced_call,
    write_corpus_dir,
)
from kpeval import (
    Corpus,
    KeyphraseType,
    Scenario,
    canonicalize_document,
    codec,
    encode_document,
    gazetteer_build,
    gazetteer_predict,
    load_corpus,
    load_predictions,
    make_document,
    model,
    oracle_predict,
    random_predict,
    roundtrip_report,
    save_corpus,
    score_scenario,
    serialize_annotations,
)
from kpeval.cli import _print_stderr, run_cli
from kpeval.codec import sequences_to_tsv
from kpeval.scoring import report_to_json, report_to_text


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture
def corpus_dir(tmp_path):
    corpus = synth_corpus(random.Random(31), 4)
    return write_corpus_dir(corpus, tmp_path / "corpus")


def test_validate_clean_corpus(corpus_dir, capsys):
    assert run_cli(["validate", str(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "documents: 4" in out
    assert "errors:    0" in out


def test_validate_reports_dangling_relation(tmp_path, capsys):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "a.txt").write_text("alpha beta", encoding="utf-8")
    (d / "a.ann").write_text(
        "T1\tTask 0 5\talpha\nR1\tHyponym-of Arg1:T1 Arg2:T9\n", encoding="utf-8"
    )
    assert run_cli(["validate", str(d)]) == 1
    captured = capsys.readouterr()
    assert "DANGLING_ARGUMENT" in captured.err
    assert "errors:    1" in captured.out


def test_validate_names_the_hidden_files_that_have_no_partner(tmp_path, capsys):
    d = tmp_path / "c"
    d.mkdir()
    (d / ".txt").write_text("alpha", encoding="utf-8")
    (d / ".txt.ann").write_text("", encoding="utf-8")
    assert run_cli(["validate", str(d)]) == 1
    assert capsys.readouterr().err == (
        "ERROR   [MISSING_ANN] .txt has no matching .ann\n"
        "ERROR   [MISSING_TXT] .txt.ann has no matching .txt.txt\n"
    )


def test_a_walk_diagnostic_names_its_document_when_an_id_starts_with_its_name(
    tmp_path, capsys
):
    d = tmp_path / "c"
    d.mkdir()
    (d / "T.txt").write_text("Graphene conducts heat.", encoding="utf-8")
    (d / "T.ann").write_text("T.5\tMaterial 0 99\tGraphene\n", encoding="utf-8")
    assert run_cli(["validate", str(d)]) == 1
    assert capsys.readouterr().err == (
        "ERROR   [OFFSET_OUT_OF_BOUNDS] T: T.5: span (0, 99) outside text of length 23\n"
    )


def test_a_file_name_that_is_not_utf8_prints_its_bytes(tmp_path, capsys):
    d = tmp_path / "c"
    d.mkdir()
    stem = os.fsdecode(b"caf\xe9")
    try:
        (d / f"{stem}.txt").write_text("Graphene conducts heat.", encoding="utf-8")
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    (d / f"{stem}.ann").write_text(
        "T1\tMaterial 0 8\tGraphene\nT2\tMethod 9 17\tconducts\n", encoding="utf-8"
    )
    (d / f"{stem}x.txt").write_text("Heat flows.", encoding="utf-8")
    assert run_cli(["validate", str(d)]) == 1
    err = capsys.readouterr().err
    assert "ERROR   [MALFORMED_LINE] caf\\xe9.ann line 2: " in err
    assert "ERROR   [MISSING_ANN] caf\\xe9x.txt has no matching caf\\xe9x.ann\n" in err
    assert not any("\udc80" <= c <= "\udcff" for c in err)


@settings(max_examples=200, deadline=None)
@given(st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr))))
def test_a_stderr_line_prints_without_surrogates(line):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        _print_stderr(line)
    printed = stderr.getvalue()
    assert not any("\ud800" <= c <= "\udfff" for c in printed)
    if not any("\ud800" <= c <= "\udfff" for c in line):
        assert printed == line + "\n"


@pytest.mark.parametrize("argv", [
    ["stats", "x", "--top", os.fsdecode(b"caf\xe9")],
    ["score", "--scenario", os.fsdecode(b"caf\xe9"), "--gold", "g", "--pred", "p"],
    ["baseline", "--kind", os.fsdecode(b"caf\xe9"), "--in", "i", "--out", "o"],
    [os.fsdecode(b"caf\xe9")],
    ["validate", "x", os.fsdecode(b"caf\xe9")],
])
def test_a_usage_error_prints_the_bytes_of_an_argument_that_is_not_utf8(argv, capsys):
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "caf\\xe9" in captured.err
    assert not any("\ud800" <= c <= "\udfff" for c in captured.err)
    assert "\\udc" not in captured.err


def test_a_usage_error_quotes_a_backslash_as_repr_does(capsys):
    assert run_cli(["stats", "x", "--top", "a\\udce9"]) == 2
    assert "invalid integer value: 'a\\\\udce9'\n" in capsys.readouterr().err


def test_validate_missing_directory_is_usage_error(tmp_path):
    assert run_cli(["validate", str(tmp_path / "nope")]) == 2


def test_unknown_command_is_usage_error():
    assert run_cli(["frobnicate"]) == 2


def test_score_identity_is_all_ones(corpus_dir, capsys):
    code = run_cli([
        "score", "--scenario", "1",
        "--gold", str(corpus_dir), "--pred", str(corpus_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.0000" in out


def test_score_json_output(corpus_dir, capsys):
    code = run_cli([
        "score", "--scenario", "2", "--json",
        "--gold", str(corpus_dir), "--pred", str(corpus_dir),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == 2
    assert set(payload["subtasks"]) == {"B", "C"}
    assert payload["overall"]["f1"] == 1.0


def test_score_malformed_prediction_sets_exit_one(corpus_dir, tmp_path, capsys):
    pred = tmp_path / "pred"
    pred.mkdir()
    doc_id = sorted(p.stem for p in corpus_dir.glob("*.txt"))[0]
    (pred / f"{doc_id}.ann").write_text("garbage\n", encoding="utf-8")
    code = run_cli([
        "score", "--scenario", "1",
        "--gold", str(corpus_dir), "--pred", str(pred),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "MALFORMED_LINE" in captured.err
    assert "Scenario 1" in captured.out  # still scored


def test_score_by_genre(corpus_dir, tmp_path, capsys):
    ids = sorted(p.stem for p in corpus_dir.glob("*.txt"))
    mapfile = tmp_path / "genres.tsv"
    mapfile.write_text(
        "".join(f"{d}\t{'cs' if i % 2 else 'physics'}\n" for i, d in enumerate(ids)),
        encoding="utf-8",
    )
    code = run_cli([
        "score", "--scenario", "1", "--by-genre", str(mapfile),
        "--gold", str(corpus_dir), "--pred", str(corpus_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "genre: cs" in out and "genre: physics" in out


def test_genre_map_lines_end_only_at_line_breaks(tmp_path):
    from kpeval.cli import _read_genre_map

    mapfile = tmp_path / "genres.tsv"
    mapfile.write_bytes("a\tbio\fchem\r\nb\tcs\u2028ai\rc\tphysics\n".encode())
    assert _read_genre_map(mapfile) == {"a": "bio\fchem", "b": "cs\u2028ai", "c": "physics"}


def _genre_sections_by_rescoring(gold, pred, scenario, pool, genres, as_json):
    """Reference output of `score --by-genre`: each genre's sub-corpus scored anew."""
    render = report_to_json if as_json else report_to_text
    doc_ids = gold.doc_ids()
    out = [render(score_scenario(gold, pred, scenario, pool=pool))]
    for genre in sorted({genres.get(d, "unmapped") for d in doc_ids}):
        ids = [d for d in doc_ids if genres.get(d, "unmapped") == genre]
        sub_gold = Corpus({d: gold[d] for d in ids})
        sub_pred = Corpus({d: pred[d] for d in ids if d in pred})
        out.append(f"--- genre: {genre} ---\n")
        out.append(render(score_scenario(sub_gold, sub_pred, scenario, pool=pool)))
    return "".join(out)


@pytest.fixture(scope="module")
def genre_inputs(tmp_path_factory):
    """Gold and predicted corpora, and a genre map with a blank genre and a gap.

    The first document has no prediction file and the second is not in the
    map; both, and the blank-genre documents, belong to "unmapped".
    """
    root = tmp_path_factory.mktemp("genres")
    rng = random.Random(47)
    pairs = [random_scored_pair(rng, f"doc{i:02}") for i in range(14)]
    gold_dir = write_corpus_dir(Corpus({g.doc_id: g for g, _ in pairs}), root / "gold")
    pred_dir = root / "pred"
    pred_dir.mkdir()
    save_corpus(Corpus({p.doc_id: p for _, p in pairs[1:]}), pred_dir, write_text=False)
    names = ("physics", "cs", "", "bio")
    mapped = [(g.doc_id, names[i % 4]) for i, (g, _) in enumerate(pairs) if i != 1]
    mapfile = root / "genres.tsv"
    mapfile.write_text("".join(f"{d}\t{genre}\n" for d, genre in mapped), encoding="utf-8")
    genres = {d: genre or "unmapped" for d, genre in mapped}
    return gold_dir, pred_dir, mapfile, genres


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("pool", ["bc", "abc"])
@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_score_by_genre_equals_rescoring_each_genre(
    genre_inputs, capsys, scenario, pool, as_json
):
    gold_dir, pred_dir, mapfile, genres = genre_inputs
    argv = ["score", "--scenario", str(scenario), "--pool", pool, "--by-genre", str(mapfile),
            "--gold", str(gold_dir), "--pred", str(pred_dir)]
    assert run_cli(argv + (["--json"] if as_json else [])) == 0
    out = capsys.readouterr().out
    gold, _ = load_corpus(gold_dir)
    pred, _ = load_predictions(pred_dir, gold)
    assert not (pred_dir / "doc00.ann").exists() and "doc01" not in genres
    assert out == _genre_sections_by_rescoring(
        gold, pred, Scenario(scenario), pool, genres, as_json
    )
    assert "--- genre: unmapped ---" in out


def test_baseline_random_is_byte_identical_across_runs_and_jobs(corpus_dir, tmp_path):
    out1 = tmp_path / "p1"
    out2 = tmp_path / "p2"
    out3 = tmp_path / "p3"
    for out, jobs in ((out1, "1"), (out2, "1"), (out3, "4")):
        code = run_cli([
            "baseline", "--kind", "random", "--seed", "7", "--jobs", jobs,
            "--in", str(corpus_dir), "--out", str(out),
        ])
        assert code == 0
    assert _dir_bytes(out1) == _dir_bytes(out2) == _dir_bytes(out3)


@pytest.mark.parametrize("scenario", list(Scenario))
def test_baseline_random_takes_a_file_name_that_is_not_utf8(tmp_path, capsys, scenario):
    stem = os.fsdecode(b"caf\xe9")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / f"{stem}.txt").write_text("Graphene conducts heat. Heat flows.", encoding="utf-8")
    (corpus / f"{stem}.ann").write_text("T1\tMaterial 0 8\tGraphene\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["baseline", "--kind", "random", "--scenario", str(scenario.value), "--seed", "3",
            "--in", str(corpus), "--out", str(out)]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""
    doc = load_corpus(corpus)[0][stem]
    predicted = random_predict(Corpus({stem: doc}), scenario, 3)[stem]
    assert _dir_bytes(out) == {f"{stem}.ann": serialize_annotations(predicted).encode("utf-8")}


def test_baseline_refuses_overwrite_without_force(corpus_dir, tmp_path):
    out = tmp_path / "p"
    assert run_cli([
        "baseline", "--kind", "oracle", "--in", str(corpus_dir), "--out", str(out),
    ]) == 0
    assert run_cli([
        "baseline", "--kind", "oracle", "--in", str(corpus_dir), "--out", str(out),
    ]) == 2
    assert run_cli([
        "baseline", "--kind", "oracle", "--force",
        "--in", str(corpus_dir), "--out", str(out),
    ]) == 0


def test_baseline_oracle_then_score(tmp_path, capsys):
    gold_dir = write_corpus_dir(misalignment_corpus("cross"), tmp_path / "gold")
    pred_dir = tmp_path / "pred"
    assert run_cli([
        "baseline", "--kind", "oracle",
        "--in", str(gold_dir), "--out", str(pred_dir),
    ]) == 0
    assert {p.suffix for p in pred_dir.iterdir()} == {".ann"}
    code = run_cli([
        "score", "--scenario", "1", "--json",
        "--gold", str(gold_dir), "--pred", str(pred_dir),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["subtasks"]["A"]["f1"] == pytest.approx(18 / 19, abs=1e-12)
    assert payload["subtasks"]["C"]["f1"] == pytest.approx(6 / 7, abs=1e-12)


def test_baseline_gazetteer_requires_train(corpus_dir, tmp_path):
    assert run_cli([
        "baseline", "--kind", "gazetteer",
        "--in", str(corpus_dir), "--out", str(tmp_path / "p"),
    ]) == 2


def test_baseline_gazetteer_end_to_end(corpus_dir, tmp_path):
    out = tmp_path / "p"
    assert run_cli([
        "baseline", "--kind", "gazetteer", "--train", str(corpus_dir),
        "--in", str(corpus_dir), "--out", str(out),
    ]) == 0
    assert list(out.glob("*.ann"))


@pytest.mark.parametrize("unpaired", [False, True])
def test_baseline_gazetteer_without_training_documents_is_usage_error(
    corpus_dir, tmp_path, capsys, unpaired
):
    train = tmp_path / "train"
    train.mkdir()
    if unpaired:
        (train / "a.txt").write_text("Alpha beta.", encoding="utf-8")
    out = tmp_path / "p"
    assert run_cli([
        "baseline", "--kind", "gazetteer", "--train", str(train),
        "--in", str(corpus_dir), "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert f"error: no .txt/.ann pairs in {train}" in err
    assert "Traceback" not in err
    assert not out.exists()


def _misaligned_corpus(rng, n_docs=None):
    """A synthetic corpus of `n_docs` documents (1 to 3 when not given) with a
    third of its spans shifted one character into their first token and, in
    some documents, one span that crosses sentences or overlaps others."""
    documents = {}
    n_docs = rng.randint(1, 3) if n_docs is None else n_docs
    for doc in synth_corpus(rng, n_docs, n_sentences=3, n_mentions=6, n_relations=3):
        kps = [
            (kp.id, kp.ktype, kp.start + (kp.end - kp.start > 1 and rng.random() < 1 / 3), kp.end)
            for kp in doc.keyphrases
        ]
        if len(kps) > 1 and rng.random() < 0.5:
            first, last = sorted(rng.sample(range(len(kps)), 2))
            kps.append(("X", kps[first][1], kps[first][2], kps[last][3]))
        rels = [(rel.rtype, rel.arg1, rel.arg2) for rel in doc.relations]
        documents[doc.doc_id] = canonicalize_document(
            make_document(doc.doc_id, doc.text, kps, rels)
        )
    return Corpus(documents)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_convert_then_score_equals_roundtrip_report(seed, snap):
    corpus = _misaligned_corpus(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        gold = write_corpus_dir(corpus, Path(tmp) / "gold")
        seq, ann = str(Path(tmp) / "seq"), str(Path(tmp) / "ann")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            to_seq = ["convert", "--to", "seq", "--in", str(gold), "--out", seq]
            assert run_cli(to_seq + ["--snap"] * snap) == 0
            assert run_cli(["convert", "--to", "ann", "--in", seq, "--out", ann]) == 0
            assert run_cli(["score", "--scenario", "1", "--json",
                            "--gold", str(gold), "--pred", ann]) == 0
    assert out.getvalue() == report_to_json(roundtrip_report(corpus, snap))


def test_convert_round_trip(corpus_dir, tmp_path, capsys):
    seq_dir = tmp_path / "seq"
    ann_dir = tmp_path / "ann"
    assert run_cli([
        "convert", "--to", "seq", "--in", str(corpus_dir), "--out", str(seq_dir),
    ]) == 0
    assert sorted(p.suffix for p in seq_dir.iterdir()).count(".seq") == 4
    assert run_cli([
        "convert", "--to", "ann", "--in", str(seq_dir), "--out", str(ann_dir),
    ]) == 0
    # gold was token-aligned, so the double conversion is lossless
    code = run_cli([
        "score", "--scenario", "1", "--json",
        "--gold", str(corpus_dir), "--pred", str(ann_dir),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"]["f1"] == 1.0


def test_convert_to_ann_of_sentences_in_reverse_order_writes_the_same_ann(corpus_dir, tmp_path):
    seq_dir, reversed_dir = tmp_path / "seq", tmp_path / "reversed"
    assert run_cli(["convert", "--to", "seq", "--in", str(corpus_dir), "--out", str(seq_dir)]) == 0
    reversed_dir.mkdir()
    for path in seq_dir.iterdir():
        content = path.read_text(encoding="utf-8")
        if path.suffix == ".seq":
            blocks = content.rstrip("\n").split("\n\n")
            assert len(blocks) > 1
            content = "\n\n".join(blocks[::-1]) + "\n"
        (reversed_dir / path.name).write_text(content, encoding="utf-8")
    outputs = []
    for name in ("seq", "reversed"):
        out = tmp_path / f"{name}-ann"
        assert run_cli(["convert", "--to", "ann", "--in", str(tmp_path / name), "--out", str(out)]) == 0
        outputs.append(_dir_bytes(out))
    assert outputs[0] == outputs[1]
    assert any(name.endswith(".ann") and data for name, data in outputs[0].items())


def test_convert_to_ann_requires_seq_files(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli([
        "convert", "--to", "ann", "--in", str(empty), "--out", str(tmp_path / "x"),
    ]) == 2


def test_convert_to_ann_pairs_a_hidden_seq_file_with_its_text(tmp_path):
    text = "Graphene conducts."
    doc = make_document("", text, [("T1", KeyphraseType.MATERIAL, 0, 8)])
    sequences, _ = encode_document(doc)
    seq_dir = tmp_path / "seq"
    seq_dir.mkdir()
    (seq_dir / ".seq").write_text(sequences_to_tsv(sequences), encoding="utf-8")
    (seq_dir / ".txt").write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["convert", "--to", "ann", "--in", str(seq_dir), "--out", str(out)]) == 0
    assert _dir_bytes(out) == {
        ".ann": b"T1\tMaterial 0 8\tGraphene\n",
        ".txt": text.encode(),
    }


def test_agreement_identity(corpus_dir, capsys):
    assert run_cli([
        "agreement", "--a", str(corpus_dir), "--b", str(corpus_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "cohen_kappa (token_a): 1.0000" in out


def test_agreement_json(corpus_dir, capsys):
    assert run_cli([
        "agreement", "--a", str(corpus_dir), "--b", str(corpus_dir),
        "--granularity", "token_b", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == 1.0
    assert payload["granularity"] == "token_b"


def test_stats_command(corpus_dir, capsys):
    assert run_cli(["stats", str(corpus_dir), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "mentions" in out


def test_stats_json(corpus_dir, capsys):
    assert run_cli(["stats", str(corpus_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_mentions"] > 0


def _assert_clean_failure(captured, filename):
    assert filename in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_validate_non_utf8_text_is_io_error(tmp_path, capsys):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "latin1.txt").write_bytes("Café au lait.".encode("latin-1"))
    (d / "latin1.ann").write_text("T1\tMaterial 0 4\tCafé\n", encoding="utf-8")
    assert run_cli(["validate", str(d)]) == 2
    _assert_clean_failure(capsys.readouterr(), "latin1.txt")


def test_convert_to_ann_reports_non_integer_seq_offset(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "doc.txt").write_text("Graphene conducts heat.", encoding="utf-8")
    (d / "doc.seq").write_text(
        "Graphene\t0\t8\tB\tM\nconducts\t9\tx\tO\tO\n", encoding="utf-8"
    )
    assert run_cli(["convert", "--to", "ann", "--in", str(d), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    _assert_clean_failure(captured, "doc.seq line 2")
    assert "MALFORMED_LINE" in captured.err


def test_convert_to_ann_reports_token_past_text_end(tmp_path, capsys):
    d = tmp_path / "seq"
    d.mkdir()
    (d / "doc.txt").write_text("Graphene.", encoding="utf-8")
    (d / "doc.seq").write_text(
        "Graphene\t0\t8\tB\tM\n.\t8\t9\tO\tO\nconducts\t10\t18\tB\tP\n", encoding="utf-8"
    )
    assert run_cli(["convert", "--to", "ann", "--in", str(d), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    _assert_clean_failure(captured, "doc.seq")
    assert "OFFSET_OUT_OF_BOUNDS" in captured.err


def test_convert_to_ann_reports_seq_tokens_out_of_order(corpus_dir, tmp_path, capsys):
    seq, ann = tmp_path / "seq", tmp_path / "ann"
    assert run_cli(["convert", "--to", "seq", "--in", str(corpus_dir), "--out", str(seq)]) == 0
    (seq / "d.txt").write_text("Graphene conducts heat.", encoding="utf-8")
    (seq / "d.seq").write_text("heat\t18\t22\tB\tM\nGraphene\t0\t8\tI\tM\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["convert", "--to", "ann", "--in", str(seq), "--out", str(ann)]) == 1
    captured = capsys.readouterr()
    _assert_clean_failure(captured, "d.seq line 2")
    assert captured.err == (
        "ERROR   [MALFORMED_LINE] d.seq line 2: token out of order: starts at 0, "
        "before the previous token ends at 22: 'Graphene\\t0\\t8\\tI\\tM'\n"
    )
    # Every other document is still converted.
    stems = sorted(p.stem for p in corpus_dir.glob("*.ann"))
    assert sorted(p.name for p in ann.iterdir()) == sorted(
        f"{stem}{ext}" for stem in stems for ext in (".ann", ".txt")
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.text("abXY.é", max_size=6))
def test_convert_to_ann_rejects_a_token_that_does_not_fit_its_text(seed, past_end, word):
    """A .seq token whose text differs from its slice, or that lies past the
    text, leaves its document out with exit 1, naming the file and line."""
    rng = random.Random(seed)
    corpus = synth_corpus(rng, 2, n_sentences=2, n_mentions=3, n_relations=1)
    bad, good = corpus.doc_ids()
    with tempfile.TemporaryDirectory() as tmp:
        gold = write_corpus_dir(corpus, Path(tmp) / "gold")
        seq, ann = Path(tmp) / "seq", Path(tmp) / "ann"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["convert", "--to", "seq", "--in", str(gold), "--out", str(seq)]) == 0
        path = seq / f"{bad}.seq"
        lines = path.read_text(encoding="utf-8").split("\n")
        i = rng.choice([i for i, line in enumerate(lines) if line and line[0] != "#"])
        token, start, end, a, b = lines[i].split("\t")
        if past_end:
            start = len(corpus[bad].text) + rng.randint(0, 3)
            end = start + len(token)
        elif word == token:
            word += "a"
        lines[i] = "\t".join(map(str, (token if past_end else word, start, end, a, b)))
        path.write_text("\n".join(lines), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(["convert", "--to", "ann", "--in", str(seq), "--out", str(ann)])
        assert code == 1
        assert f"{bad}.seq line {i + 1}: " in err.getvalue()
        assert ("OFFSET_OUT_OF_BOUNDS" if past_end else "SURFACE_MISMATCH") in err.getvalue()
        assert sorted(p.name for p in ann.iterdir()) == [f"{good}.ann", f"{good}.txt"]


def test_score_rejects_jobs_below_one(corpus_dir, capsys):
    code = run_cli([
        "score", "--scenario", "1", "--jobs", "0",
        "--gold", str(corpus_dir), "--pred", str(corpus_dir),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "--jobs" in captured.err
    assert captured.out == ""


def test_stats_rejects_negative_top(corpus_dir, capsys):
    assert run_cli(["stats", str(corpus_dir), "--top", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--top" in captured.err
    assert captured.out == ""


def test_score_validates_each_loaded_document_once(corpus_dir, monkeypatch):
    original = model.walk_document
    calls = []

    def counting(doc):
        calls.append(doc.doc_id)
        return original(doc)

    for name, module in list(sys.modules.items()):
        if name == "kpeval" or name.startswith("kpeval."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    code = run_cli([
        "score", "--scenario", "1",
        "--gold", str(corpus_dir), "--pred", str(corpus_dir),
    ])
    assert code == 0
    doc_ids = sorted(p.stem for p in corpus_dir.glob("*.ann"))
    # One invariant walk per gold file and one per prediction file, whichever
    # public function (validate_document, drop_invalid) would reach it.
    assert sorted(calls) == sorted(doc_ids * 2)


def _two_document_corpus(tmp_path):
    gold = tmp_path / "gold"
    gold.mkdir()
    for stem in ("a", "b"):
        (gold / f"{stem}.txt").write_text("Graphene conducts heat.", encoding="utf-8")
        (gold / f"{stem}.ann").write_text("T1\tMaterial 0 8\tGraphene\n", encoding="utf-8")
    return gold


def test_bom_prefixed_ann_loads_as_gold_and_as_prediction(tmp_path, capsys):
    gold = _two_document_corpus(tmp_path)
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "b.ann").write_text("T1\tMaterial 0 8\tGraphene\n", encoding="utf-8")
    for d in (gold, pred):
        (d / "a.ann").write_text("\ufeffT1\tMaterial 0 8\tGraphene\n", encoding="utf-8")
    assert run_cli(["validate", str(gold)]) == 0
    captured = capsys.readouterr()
    assert "errors:    0" in captured.out and captured.err == ""
    assert run_cli(["score", "--scenario", "1", "--gold", str(gold),
                    "--pred", str(pred), "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["overall"]["f1"] == 1.0
    assert captured.err == ""


def test_bom_prefixed_seq_converts_like_the_same_file_without_it(tmp_path, capsys):
    seq = tmp_path / "seq"
    seq.mkdir()
    (seq / "d1.txt").write_text("Graphene conducts heat.", encoding="utf-8")
    (seq / "d1.seq").write_text(
        "\ufeffGraphene\t0\t8\tB\tM\nconducts\t9\t17\tO\tO\nheat\t18\t22\tB\tP\n.\t22\t23\tO\tO\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run_cli(["convert", "--to", "ann", "--in", str(seq), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "d1.ann").read_text(encoding="utf-8") == (
        "T1\tMaterial 0 8\tGraphene\nT2\tProcess 18 22\theat\n"
    )


def test_bom_prefixed_genre_map_maps_its_first_document(tmp_path, capsys):
    gold = _two_document_corpus(tmp_path)
    mapfile = tmp_path / "genres.tsv"
    mapfile.write_text("\ufeffa\tphysics\nb\tcs\n", encoding="utf-8")
    assert run_cli(["score", "--scenario", "1", "--by-genre", str(mapfile),
                    "--gold", str(gold), "--pred", str(gold)]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("---")] == [
        "--- genre: cs ---", "--- genre: physics ---",
    ]


@pytest.mark.parametrize("content, reason", [
    (None, "[Errno 2] No such file or directory: '{map}'"),
    (b"\xffa\tcs\n", "{map}: not UTF-8: invalid start byte at byte 0"),
])
def test_an_unreadable_genre_map_is_the_one_error_printed(tmp_path, capsys, content, reason):
    # The golden corpus and predictions print 32 load diagnostics; a map that
    # cannot be read is refused before either loads.
    golden = Path(__file__).parent / "golden"
    mapfile = tmp_path / "genres.tsv"
    if content is not None:
        mapfile.write_bytes(content)
    assert run_cli(["score", "--scenario", "1", "--by-genre", str(mapfile),
                    "--gold", str(golden / "corpus"), "--pred", str(golden / "pred")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason.format(map=mapfile)}\n"


# A .txt whose text starts with U+FEFF after its BOM; offsets count from
# after the BOM, so the U+FEFF is offset 0.
_FEFF_TXT = "\ufeff\ufeffGraphene conducts heat.".encode("utf-8")
_FEFF_ANN = "T1\tMaterial 1 9\tGraphene\n"


def _feff_corpus(tmp_path, txt=_FEFF_TXT, ann=_FEFF_ANN):
    gold = tmp_path / "gold"
    gold.mkdir()
    (gold / "a.txt").write_bytes(txt)
    (gold / "a.ann").write_text(ann, encoding="utf-8")
    return gold


def test_validate_counts_offsets_from_after_the_bom(tmp_path, capsys):
    assert run_cli(["validate", str(_feff_corpus(tmp_path))]) == 0
    captured = capsys.readouterr()
    assert "errors:    0" in captured.out and captured.err == ""


def test_convert_to_seq_and_back_writes_the_txt_byte_for_byte(tmp_path, capsys):
    gold = _feff_corpus(tmp_path)
    seq, back = tmp_path / "seq", tmp_path / "back"
    assert run_cli(["convert", "--to", "seq", "--in", str(gold), "--out", str(seq)]) == 0
    assert run_cli(["convert", "--to", "ann", "--in", str(seq), "--out", str(back)]) == 0
    assert capsys.readouterr().err == ""
    assert (seq / "a.txt").read_bytes() == _FEFF_TXT
    assert (back / "a.txt").read_bytes() == _FEFF_TXT
    assert (back / "a.ann").read_text(encoding="utf-8") == _FEFF_ANN


def test_score_of_a_corpus_whose_text_starts_with_feff_against_itself(tmp_path, capsys):
    gold = _feff_corpus(tmp_path, "\ufeff\ufeff\ufeffGraphene conducts heat.".encode("utf-8"),
                        "T1\tMaterial 2 10\tGraphene\n")
    assert run_cli(["score", "--scenario", "1", "--gold", str(gold), "--pred", str(gold),
                    "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["overall"]["f1"] == 1.0
    assert captured.err == ""


def test_convert_to_ann_reports_in_doc_id_order(tmp_path, capsys):
    # In path order "a-b.seq" sorts before "a.seq"; the loaders read "a" first.
    seq = tmp_path / "seq"
    seq.mkdir()
    for stem in ("a-b", "a"):
        (seq / f"{stem}.txt").write_text("Graphene", encoding="utf-8")
        (seq / f"{stem}.seq").write_text("Graphene\t0\n", encoding="utf-8")
    assert run_cli(["convert", "--to", "ann", "--in", str(seq),
                    "--out", str(tmp_path / "out")]) == 1
    names = [line.split()[2] for line in capsys.readouterr().err.splitlines()]
    assert names == ["a.seq", "a-b.seq"]


def test_diagnostics_name_their_document(tmp_path, capsys):
    gold = _two_document_corpus(tmp_path)
    clean, dangling = tmp_path / "clean", tmp_path / "dangling"
    for d, extra in ((clean, ""), (dangling, "R1\tHyponym-of Arg1:T1 Arg2:T77\n")):
        d.mkdir()
        for stem in ("a", "b"):
            (d / f"{stem}.ann").write_text(
                f"T1\tMaterial 0 8\tGraphene\n{extra}", encoding="utf-8")
    (dangling / "b.ann").write_text(
        (dangling / "b.ann").read_text(encoding="utf-8") + "X9\tjunk\n", encoding="utf-8")
    argv = ["score", "--scenario", "1", "--gold", str(gold)]
    assert run_cli(argv + ["--pred", str(clean)]) == 0
    clean_out = capsys.readouterr().out
    assert run_cli(argv + ["--pred", str(dangling)]) == 1
    captured = capsys.readouterr()
    assert captured.out == clean_out
    errors = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
    assert errors == [
        "ERROR   [DANGLING_ARGUMENT] a: Hyponym-of(T1, T77): no keyphrase T77",
        "ERROR   [MALFORMED_LINE] b.ann line 3: unknown leading sigil 'X9'",
        "ERROR   [DANGLING_ARGUMENT] b: Hyponym-of(T1, T77): no keyphrase T77",
    ]


# A corpus whose gold and prediction files break every error rule.  In path
# order "a-b.ann" sorts before "a.ann"; in doc_id order "a" comes first, and
# both loaders report in doc_id order.
_INVALID_TEXT = "Graphene conducts heat."
_INVALID_GOLD = {
    "a": "T1\tMaterial 0 8\tGraphene\nT2\tProcess 9 17\tconducts\n"
         "T3\tMaterial 18 40\theat.\nR1\tHyponym-of Arg1:T1 Arg2:T9\n",
    "a-b": "T1\tMaterial 0 8\tGraphene\nT1\tProcess 9 17\tconducts\n"
           "R1\tHyponym-of Arg1:T1 Arg2:T1\n",
    "b": "T1\tMaterial 0 8\tGraphene\nT2\tMaterial 18 22\theat\n*\tSynonym-of T1 T2\n"
         "R1\tHyponym-of Arg1:T2 Arg2:T3\n",
}
_INVALID_PRED = {
    "a": "T1\tMaterial 0 8\tGraphene\nT2\tTask 30 35\tx\nR1\tHyponym-of Arg1:T1 Arg2:T2\n",
    "a-b": "T1\tMaterial 0 8\tGraphene\nT1\tMaterial 18 22\theat\n"
           "R1\tHyponym-of Arg1:T1 Arg2:T7\n",
    "b": "T1\tProcess 9 17\tconducts\nR1\tHyponym-of Arg1:T1 Arg2:T1\n",
}


def _invalid_corpus(tmp_path):
    gold, pred = tmp_path / "gold", tmp_path / "pred"
    gold.mkdir()
    pred.mkdir()
    for stem, ann in _INVALID_GOLD.items():
        (gold / f"{stem}.txt").write_text(_INVALID_TEXT, encoding="utf-8")
        (gold / f"{stem}.ann").write_text(ann, encoding="utf-8")
    for stem, ann in _INVALID_PRED.items():
        (pred / f"{stem}.ann").write_text(ann, encoding="utf-8")
    return gold, pred


def test_score_stderr_on_invalid_corpus(tmp_path, capsys):
    gold, pred = _invalid_corpus(tmp_path)
    assert run_cli(["score", "--scenario", "1", "--gold", str(gold), "--pred", str(pred)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "ERROR   [OFFSET_OUT_OF_BOUNDS] a: T3: span (18, 40) outside text of length 23",
        "ERROR   [DANGLING_ARGUMENT] a: Hyponym-of(T1, T9): no keyphrase T9",
        "ERROR   [DUPLICATE_ID] a-b: id T1 defined twice",
        "ERROR   [SELF_RELATION] a-b: Hyponym-of relates T1 to itself",
        "ERROR   [DANGLING_ARGUMENT] b: Hyponym-of(T2, T3): no keyphrase T3",
        "ERROR   [OFFSET_OUT_OF_BOUNDS] a: T2: span (30, 35) outside text of length 23",
        "ERROR   [DUPLICATE_ID] a-b: id T1 defined twice",
        "ERROR   [DANGLING_ARGUMENT] a-b: Hyponym-of(T1, T7): no keyphrase T7",
        "ERROR   [SELF_RELATION] b: Hyponym-of relates T1 to itself",
        "WARNING [CROSS_TYPE_RELATION] a: Hyponym-of(T1, T2) links Material to Task",
        "WARNING [DROPPED] a: keyphrase T3: span out of bounds",
        "WARNING [DROPPED] a: Hyponym-of(T1, T9): dangling argument",
        "WARNING [DROPPED] a-b: keyphrase T1: duplicate id",
        "WARNING [DROPPED] a-b: Hyponym-of(T1, T1): self-relation",
        "WARNING [DROPPED] b: Hyponym-of(T2, T3): dangling argument",
        "WARNING [DROPPED] a: keyphrase T2: span out of bounds",
        "WARNING [DROPPED] a: Hyponym-of(T1, T2): dangling argument",
        "WARNING [DROPPED] a-b: keyphrase T1: duplicate id",
        "WARNING [DROPPED] a-b: Hyponym-of(T1, T7): dangling argument",
        "WARNING [DROPPED] b: Hyponym-of(T1, T1): self-relation",
    ]
    assert "overall        2      1      4" in captured.out


_CROSS_TYPE_TEXT = "Parsing text. Graphene grows. Heat flows fast."
_CROSS_TYPE_ANN = "T1\tTask 0 7\tParsing\nT3\tProcess 14 22\tGraphene\n*\tSynonym-of T1 T3 T1\n"


@pytest.mark.parametrize("extra, warnings", [
    ("", ["Synonym-of(T1, T3) links Task to Process"]),
    (
        "T4\tTask 8 12\ttext\nR4\tSynonym-of Arg2:T3 Arg1:T4\n*\tSynonym-of T4 T3 T1\n",
        ["Synonym-of(T1, T3) links Task to Process",
         "Synonym-of(T4, T3) links Task to Process"],
    ),
], ids=["one-pair", "two-pairs"])
def test_validate_warns_once_per_merged_cross_type_relation(tmp_path, capsys, extra, warnings):
    # Each synonym pair is written two or three times, either way round; it
    # is one relation once merged, so it warns once.
    (tmp_path / "a.txt").write_text(_CROSS_TYPE_TEXT, encoding="utf-8")
    (tmp_path / "a.ann").write_text(_CROSS_TYPE_ANN + extra, encoding="utf-8")
    assert run_cli(["validate", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "ERROR   [SELF_RELATION] a: Synonym-of relates T1 to itself",
        *[f"WARNING [CROSS_TYPE_RELATION] a: {w}" for w in warnings],
    ]
    assert f"warnings:  {len(warnings)}\n" in captured.out


def test_stats_counts_only_what_loads(tmp_path, capsys):
    gold, _ = _invalid_corpus(tmp_path)
    assert run_cli(["stats", str(gold), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    # Neither the out-of-bounds T3 of a nor the second T1 of a-b is a mention.
    assert payload["n_mentions"] == 5
    assert payload["top_k"] == [["graphene", 3], ["conducts", 1], ["heat", 1]]


def test_loaded_corpus_scores_without_preparation(tmp_path):
    gold, _ = _invalid_corpus(tmp_path)
    corpus, report = load_corpus(gold)
    assert score_scenario(corpus, corpus, Scenario.S1).overall.f1 == 1.0
    assert all(model.validate_document(doc).ok for doc in corpus)
    assert not report.ok
    assert [doc_id for doc_id, _ in report.dropped] == ["a", "a", "a-b", "a-b", "b"]


def test_stats_counts_a_duplicated_span_once(tmp_path, capsys):
    d = tmp_path / "dup"
    d.mkdir()
    (d / "a.txt").write_text("graphene conducts heat", encoding="utf-8")
    (d / "a.ann").write_text(
        "T1\tMaterial 0 8\tgraphene\nT2\tMaterial 0 8\tgraphene\n"
        "T3\tProcess 18 22\theat\n",
        encoding="utf-8",
    )
    assert run_cli(["stats", str(d), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "WARNING [DUPLICATE_SPAN] a: T2: duplicates span (0, 8, Material)\n"
    payload = json.loads(captured.out)
    assert (payload["n_mentions"], payload["n_unique"], payload["pct_singleton"]) == (2, 2, 100.0)
    assert payload["top_k"] == [["graphene", 1], ["heat", 1]]


def test_library_on_loaded_corpus_equals_cli(tmp_path, capsys):
    """What the loaders return is canonical, so library calls on it give what
    the commands print; a `*` line before an `R` line on the same pair keeps
    the Hyponym-of relation in the oracle either way."""
    d = tmp_path / "gold"
    d.mkdir()
    (d / "a.txt").write_text("Graphene oxide and graphene sheets conduct heat.",
                             encoding="utf-8")
    (d / "a.ann").write_text(
        "T3\tProcess 43 47\theat\n"
        "T1\tMaterial 19 34\tgraphene sheets\n"
        "T2\tMaterial 0 14\tGraphene oxide\n"
        "*\tSynonym-of T1 T2\n"
        "R1\tHyponym-of Arg1:T1 Arg2:T2\n",
        encoding="utf-8",
    )
    corpus, _ = load_corpus(d)

    save_corpus(oracle_predict(corpus), tmp_path / "lib-oracle")
    assert run_cli(["baseline", "--kind", "oracle", "--in", str(d),
                    "--out", str(tmp_path / "cli-oracle")]) == 0
    assert _dir_bytes(tmp_path / "lib-oracle") == _dir_bytes(tmp_path / "cli-oracle")

    save_corpus(corpus, tmp_path / "saved")
    assert (tmp_path / "saved" / "a.ann").read_text(encoding="utf-8") == (
        "T1\tMaterial 0 14\tGraphene oxide\n"
        "T2\tMaterial 19 34\tgraphene sheets\n"
        "T3\tProcess 43 47\theat\n"
        "*\tSynonym-of T1 T2\n"
        "R1\tHyponym-of Arg1:T2 Arg2:T1\n"
    )

    seq, ann = tmp_path / "seq", tmp_path / "ann"
    assert run_cli(["convert", "--to", "seq", "--in", str(d), "--out", str(seq)]) == 0
    assert run_cli(["convert", "--to", "ann", "--in", str(seq), "--out", str(ann)]) == 0
    capsys.readouterr()
    assert run_cli(["score", "--scenario", "1", "--gold", str(d), "--pred", str(ann),
                    "--json"]) == 0
    assert capsys.readouterr().out == report_to_json(roundtrip_report(corpus))


def test_crlf_text_keeps_its_offsets(tmp_path, capsys):
    d = tmp_path / "crlf"
    d.mkdir()
    text = b"Alpha beta.\r\nGraphene conducts."
    (d / "a.txt").write_bytes(text)
    (d / "a.ann").write_bytes(b"T1\tMaterial 13 21\tGraphene\r\n")
    assert run_cli(["validate", str(d)]) == 0
    captured = capsys.readouterr()
    assert "errors:    0" in captured.out and captured.err == ""
    seq, ann = tmp_path / "seq", tmp_path / "ann"
    assert run_cli(["convert", "--to", "seq", "--in", str(d), "--out", str(seq)]) == 0
    assert run_cli(["convert", "--to", "ann", "--in", str(seq), "--out", str(ann)]) == 0
    assert (seq / "a.txt").read_bytes() == (ann / "a.txt").read_bytes() == text
    assert (ann / "a.ann").read_text(encoding="utf-8") == "T1\tMaterial 13 21\tGraphene\n"


# --- no input makes any command raise -----------------------------------------


def _mostly(valid, broken):
    """`valid` seven times in eight, else `broken`: a broken line or file ends
    most commands early, so deeper paths need mostly valid input."""
    return st.integers(0, 7).flatmap(lambda pick: broken if pick == 0 else valid)


_FUZZ_OFFSET = _mostly(
    st.integers(-2, 30).map(str), st.sampled_from(["", "x", "1.5", "9" * 20])
)
_FUZZ_ID = _mostly(st.integers(0, 4).map(lambda i: f"T{i}"), st.sampled_from(["", "X", "T"]))
_FUZZ_ANN_LINE = _mostly(st.one_of(
    st.builds(
        lambda kid, ktype, start, end, surface: f"{kid}\t{ktype} {start} {end}\t{surface}",
        _FUZZ_ID, st.sampled_from(["Material", "process", "TASK", "Foo"]),
        _FUZZ_OFFSET, _FUZZ_OFFSET, st.text(max_size=6),
    ),
    st.builds(
        lambda rtype, a1, a2: f"R1\t{rtype} Arg1:{a1} Arg2:{a2}",
        st.sampled_from(["Hyponym-of", "synonym-of", "Part-of"]), _FUZZ_ID, _FUZZ_ID,
    ),
    st.builds(
        lambda rtype, ids: f"*\t{rtype} " + " ".join(ids),
        st.sampled_from(["Synonym-of", "Hyponym-of"]), st.lists(_FUZZ_ID, max_size=4),
    ),
), st.text(max_size=12))
_FUZZ_SEQ_LINE = _mostly(st.one_of(
    st.builds(
        lambda token, start, end, a, b: f"{token}\t{start}\t{end}\t{a}\t{b}",
        st.text("ab.", max_size=3), _FUZZ_OFFSET, _FUZZ_OFFSET,
        st.sampled_from("OBIX"), st.sampled_from("OMPTX"),
    ),
    st.builds(
        lambda i, j, value: f"#REL\t{i}\t{j}\t{value}",
        _FUZZ_OFFSET, _FUZZ_OFFSET, st.sampled_from("SHOX"),
    ),
    st.just(""),
), st.text(max_size=12))
# File stems: plain, hidden (the file is `.txt`), with several dots, with a
# space, differing only in case, and not valid UTF-8.
_FUZZ_STEMS = ["a", "b", "", "a.b.c", "a b", "A", os.fsdecode(b"caf\xe9")]
_FUZZ_GENRE_LINE = st.builds(
    lambda doc_id, genre: f"{doc_id}\t{genre}", st.sampled_from(_FUZZ_STEMS + ["c"]),
    st.text(max_size=4),
)


def _fuzz_file(lines):
    """Near-valid lines with any line break and maybe a BOM; else random
    bytes or no file at all.  A genre map line may name a stem that is not
    valid UTF-8, and so holds its bytes."""
    near_valid = st.builds(
        lambda bom, parts, newline: (bom + newline.join(parts)).encode(
            "utf-8", "surrogateescape"
        ),
        st.sampled_from(["", "\ufeff"]), st.lists(lines, max_size=6),
        st.sampled_from(["\n", "\r\n", "\r"]),
    )
    return _mostly(near_valid, st.one_of(st.none(), st.binary(max_size=40)))


_FUZZ_TEXT_LINE = st.text("Graphene conducts.ᾳ \t", max_size=24)


def _fuzz_files(stems):
    return st.fixed_dictionaries({
        (stem, suffix): _fuzz_file(lines)
        for stem in stems
        for suffix, lines in (
            (".txt", _FUZZ_TEXT_LINE), (".ann", _FUZZ_ANN_LINE),
            (".pred", _FUZZ_ANN_LINE), (".seq", _FUZZ_SEQ_LINE),
        )
    })


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(_FUZZ_STEMS), min_size=1, max_size=2, unique=True)
    .flatmap(_fuzz_files),
    _fuzz_file(_FUZZ_GENRE_LINE),
)
def test_no_input_makes_a_command_raise(files, genre_map):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        gold, pred, other, seq = (root / name for name in ("gold", "pred", "other", "seq"))
        for d in (gold, pred, other, seq):
            d.mkdir()
        genres = root / "genres.tsv"
        genres.write_bytes(genre_map or b"")
        for (stem, suffix), content in files.items():
            if content is None:
                continue
            targets = {".txt": (gold, other, seq), ".ann": (gold,),
                       ".pred": (pred, other), ".seq": (seq,)}[suffix]
            for d in targets:
                name = f"{stem}.ann" if suffix == ".pred" else f"{stem}{suffix}"
                (d / name).write_bytes(content)
        g, out = str(gold), root / "out"
        commands = [
            ["validate", g],
            ["stats", g, "--top", "2"],
            ["stats", g, "--json"],
            ["score", "--scenario", "1", "--gold", g, "--pred", str(pred),
             "--by-genre", str(genres)],
            ["score", "--scenario", "2", "--gold", g, "--pred", str(pred), "--json"],
            ["score", "--scenario", "3", "--gold", g, "--pred", g, "--pool", "abc"],
            ["convert", "--to", "seq", "--in", g, "--out", str(out / "seq"), "--snap"],
            ["convert", "--to", "ann", "--in", str(seq), "--out", str(out / "ann")],
            ["convert", "--to", "ann", "--in", str(out / "seq"), "--out", str(out / "back")],
            ["baseline", "--kind", "oracle", "--in", g, "--out", str(out / "oracle")],
            ["baseline", "--kind", "random", "--scenario", "2", "--in", g,
             "--out", str(out / "random")],
            ["baseline", "--kind", "gazetteer", "--train", str(other), "--in", g,
             "--out", str(out / "gazetteer")],
            ["agreement", "--a", g, "--b", str(other), "--granularity", "token_b"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert run_cli(argv) in (0, 1, 2), argv


# --- writers: one output document at a time ----------------------------------


@pytest.mark.parametrize("kind", [
    ["--kind", "random"], ["--kind", "gazetteer"], ["--kind", "gazetteer", "--train", "t"],
])
def test_baseline_snap_applies_only_to_the_oracle(tmp_path, capsys, kind):
    # The input directory does not exist: the refusal comes before any load.
    argv = ["baseline", *kind, "--snap", "--in", str(tmp_path / "missing"),
            "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "error: --snap applies to --kind oracle\n"
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_streamed_writers_equal_the_whole_corpus_functions(seed):
    """Each writing command's tree equals what the whole-corpus functions
    write through `save_corpus`, or through `sequences_to_tsv` for `.seq`."""
    rng = random.Random(seed)
    corpus = _misaligned_corpus(rng, n_docs=rng.randint(2, 5))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        gold = str(write_corpus_dir(corpus, root / "gold"))

        def written(*argv):
            out = root / f"cli{len(list(root.iterdir()))}"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert run_cli([*argv, "--out", str(out)]) == 0
            return out

        def saved(predicted, write_text=False):
            out = root / f"lib{len(list(root.iterdir()))}"
            save_corpus(predicted, out, write_text)
            return _dir_bytes(out)

        for snap in ([], ["--snap"]):
            seq = written("convert", "--to", "seq", *snap, "--in", gold)
            assert _dir_bytes(seq) == {
                name: content.encode()
                for doc in corpus
                for name, content in (
                    (f"{doc.doc_id}.seq", sequences_to_tsv(encode_document(doc, bool(snap))[0])),
                    (f"{doc.doc_id}.txt", doc.text),
                )
            }
            oracle = oracle_predict(corpus, bool(snap))
            assert _dir_bytes(written("convert", "--to", "ann", "--in", str(seq))) == saved(
                oracle, write_text=True
            )
            assert _dir_bytes(written("baseline", "--kind", "oracle", *snap, "--in", gold)) == (
                saved(oracle)
            )
        for scenario in Scenario:
            argv = ["baseline", "--kind", "random", "--scenario", str(scenario.value),
                    "--seed", str(seed), "--in", gold]
            assert _dir_bytes(written(*argv)) == saved(random_predict(corpus, scenario, seed))
        argv = ["baseline", "--kind", "gazetteer", "--train", gold, "--in", gold]
        assert _dir_bytes(written(*argv)) == saved(
            gazetteer_predict(gazetteer_build(corpus), corpus)
        )


_OUT_OF_ORDER_SEQ = "heat\t18\t22\tB\tM\nGraphene\t0\t8\tI\tM\n"
_OUT_OF_ORDER_ERROR = (
    "ERROR   [MALFORMED_LINE] doc1.seq line 2: token out of order: starts at 0, "
    "before the previous token ends at 22: 'Graphene\\t0\\t8\\tI\\tM'\n"
)


@pytest.fixture
def seq_dir(corpus_dir, tmp_path):
    """The .seq conversion of `corpus_dir`: doc0 to doc3."""
    seq = tmp_path / "seq"
    assert run_cli(["convert", "--to", "seq", "--in", str(corpus_dir), "--out", str(seq)]) == 0
    return seq


def _temp_dirs(path):
    return [p.name for p in path.iterdir() if p.name.startswith(".")]


@pytest.mark.parametrize("argv, malformed", [
    (["convert", "--to", "seq", "--in", "{gold}"], False),
    (["convert", "--to", "ann", "--in", "{seq}"], False),
    (["convert", "--to", "ann", "--in", "{seq}"], True),
    (["baseline", "--kind", "oracle", "--in", "{gold}"], False),
    (["baseline", "--kind", "random", "--in", "{gold}"], False),
    (["baseline", "--kind", "gazetteer", "--train", "{gold}", "--in", "{gold}"], False),
])
def test_existing_output_is_refused_after_the_diagnostics(
    corpus_dir, seq_dir, tmp_path, capsys, argv, malformed
):
    if malformed:
        (seq_dir / "doc1.txt").write_text("Graphene conducts heat.", encoding="utf-8")
        (seq_dir / "doc1.seq").write_text(_OUT_OF_ORDER_SEQ, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep").write_text("mine", encoding="utf-8")
    argv = [arg.format(gold=corpus_dir, seq=seq_dir) for arg in argv]
    capsys.readouterr()
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (_OUT_OF_ORDER_ERROR if malformed else "") + (
        f"error: {out} exists; pass --force to overwrite\n"
    )
    assert _dir_bytes(out) == {"keep": b"mine"}
    assert _temp_dirs(tmp_path) == []
    assert run_cli([*argv, "--out", str(out), "--force"]) == (1 if malformed else 0)
    assert "keep" not in _dir_bytes(out)
    assert _temp_dirs(tmp_path) == []


@pytest.mark.parametrize("out_parts", [["out"], ["new", "deeper", "out"]])
def test_seq_without_its_text_leaves_no_output(
    seq_dir, tmp_path, capsys, monkeypatch, out_parts
):
    (seq_dir / "doc1.txt").unlink()

    def read_nothing(*args):
        raise AssertionError("a .seq file was read before every .txt was found")

    monkeypatch.setattr(codec, "sequences_from_tsv", read_nothing)
    out = tmp_path.joinpath(*out_parts)
    capsys.readouterr()
    assert run_cli(["convert", "--to", "ann", "--in", str(seq_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: doc1.seq has no matching .txt\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "seq"]


def test_an_out_location_that_cannot_be_made_is_refused_before_any_seq_is_read(
    tmp_path, capsys, monkeypatch
):
    # The --out location is made first, so its error comes alone: the
    # malformed .seq is never read.
    seq = tmp_path / "seq"
    seq.mkdir()
    (seq / "d.txt").write_text("Graphene conducts heat.", encoding="utf-8")
    (seq / "d.seq").write_text(_OUT_OF_ORDER_SEQ, encoding="utf-8")
    (tmp_path / "afile").write_text("mine", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(["convert", "--to", "ann", "--in", "seq", "--out", "afile/out"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "afile" in err and "MALFORMED_LINE" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "seq"]
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "mine"
    assert sorted(p.name for p in seq.iterdir()) == ["d.seq", "d.txt"]


def test_malformed_seq_among_good_ones_writes_the_rest(seq_dir, tmp_path, capsys):
    (seq_dir / "doc1.txt").write_text("Graphene conducts heat.", encoding="utf-8")
    (seq_dir / "doc1.seq").write_text(_OUT_OF_ORDER_SEQ, encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(["convert", "--to", "ann", "--in", str(seq_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == _OUT_OF_ORDER_ERROR
    assert sorted(p.name for p in out.iterdir()) == [
        f"doc{i}{ext}" for i in (0, 2, 3) for ext in (".ann", ".txt")
    ]
    assert _temp_dirs(tmp_path) == []


def test_baseline_holds_one_predicted_document_at_a_time(tmp_path):
    """The transient peak of a random baseline, relative to its corpus."""
    gold = write_corpus_dir(synth_corpus(random.Random(5), 32), tmp_path / "gold")
    _, loaded, _ = traced_call(lambda: load_corpus(gold))
    argv = ["baseline", "--kind", "random", "--scenario", "1", "--seed", "1", "--in", str(gold)]
    assert run_cli([*argv, "--out", str(tmp_path / "warm")]) == 0  # imports, caches
    code, _, transient = traced_call(lambda: run_cli([*argv, "--out", str(tmp_path / "out")]))
    assert code == 0
    # About 1.4x when one predicted document is alive at a time; holding
    # every prediction before writing any takes about 4.6x.
    assert transient <= 2.5 * loaded


# --- each command loads only the modules it runs ------------------------------

# The exit code and the kpeval modules a command loaded, then which of
# `dataclasses`, `inspect` and `json` it loaded: kpeval's records are
# NamedTuples and plain classes, and only JSON output imports `json`, so that
# no command below pays for importing those.
_PRINT_LOADED = """
import sys
from kpeval.cli import run_cli
code = run_cli(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("kpeval")))
print("stdlib:", *sorted({"dataclasses", "inspect", "json"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], []),
    (["validate", "{gold}"], ["brat", "model"]),
    (["score", "--scenario", "1", "--gold", "{gold}", "--pred", "{gold}"],
     ["brat", "model", "scoring"]),
    (["convert", "--to", "seq", "--in", "{gold}", "--out", "{out}"],
     ["brat", "codec", "model"]),
    (["stats", "{gold}"], ["analytics", "brat", "codec", "model"]),
    (["agreement", "--a", "{gold}", "--b", "{gold}"],
     ["analytics", "brat", "codec", "model"]),
    (["baseline", "--kind", "oracle", "--in", "{gold}", "--out", "{out}"],
     ["baselines", "brat", "codec", "model"]),
    (["convert", "--to", "ann", "--in", "{seq}", "--out", "{out}"],
     ["brat", "codec", "model"]),
    (["baseline", "--kind", "random", "--in", "{gold}", "--out", "{out}"],
     ["baselines", "brat", "codec", "model"]),
    (["baseline", "--kind", "gazetteer", "--in", "{gold}", "--train", "{gold}",
      "--out", "{out}"],
     ["baselines", "brat", "codec", "model"]),
])
def test_each_command_loads_only_the_modules_it_runs(corpus_dir, tmp_path, argv, loaded):
    seq = tmp_path / "seq"
    if "{seq}" in argv:
        assert run_cli(["convert", "--to", "seq", "--in", str(corpus_dir), "--out", str(seq)]) == 0
    argv = [arg.format(gold=corpus_dir, seq=seq, out=tmp_path / "out") for arg in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", _PRINT_LOADED, *argv],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True)
    *_, kpeval_line, stdlib_line = run.stdout.splitlines()
    code, *modules = kpeval_line.split()
    assert code == "0"
    assert modules == sorted(["kpeval", "kpeval.cli", *(f"kpeval.{m}" for m in loaded)])
    assert stdlib_line == "stdlib:"


# --- the collector -------------------------------------------------------------

_CYCLE_FORMS = [
    ["validate", "{gold}"],
    ["stats", "{gold}"],
    ["stats", "{gold}", "--json"],
    ["score", "--scenario", "1", "--gold", "{gold}", "--pred", "{gold}"],
    ["score", "--scenario", "2", "--gold", "{gold}", "--pred", "{gold}", "--json"],
    ["score", "--scenario", "1", "--gold", "{gold}", "--pred", "{gold}",
     "--by-genre", "{genres}"],
    ["score", "--scenario", "1", "--gold", "{gold}", "--pred", "{gold}",
     "--by-genre", "{genres}", "--json"],
    ["convert", "--to", "seq", "--in", "{gold}", "--out", "{out}"],
    ["convert", "--to", "seq", "--in", "{gold}", "--out", "{out}", "--snap"],
    ["convert", "--to", "ann", "--in", "{seq}", "--out", "{out}"],
    ["baseline", "--kind", "oracle", "--in", "{gold}", "--out", "{out}"],
    ["baseline", "--kind", "random", "--in", "{gold}", "--out", "{out}"],
    ["baseline", "--kind", "gazetteer", "--in", "{gold}", "--train", "{gold}",
     "--out", "{out}"],
    ["agreement", "--a", "{gold}", "--b", "{gold}"],
    ["agreement", "--a", "{gold}", "--b", "{gold}", "--json"],
]


@pytest.mark.parametrize("form", _CYCLE_FORMS, ids=" ".join)
def test_a_command_leaves_as_many_cycles_on_one_document_as_on_many(form, tmp_path, capsys):
    """`cli.main` runs without the collector and frees nothing at exit, which
    is safe only while a run leaves a fixed number of cyclic objects."""
    genres = tmp_path / "genres.tsv"
    genres.write_text("".join(f"doc{i}\tnews\n" for i in range(8)), encoding="utf-8")

    def cycles_left(name: str, n_docs: int) -> int:
        root = tmp_path / name
        gold = write_corpus_dir(synth_corpus(random.Random(n_docs), n_docs), root / "gold")
        seq = root / "seq"
        assert run_cli(["convert", "--to", "seq", "--in", str(gold), "--out", str(seq)]) == 0
        argv = [a.format(gold=gold, seq=seq, out=root / "out", genres=genres) for a in form]
        gc.collect()
        gc.disable()
        try:
            assert run_cli(argv) == 0
            return gc.collect()
        finally:
            gc.enable()
            capsys.readouterr()

    cycles_left("warm", 1)  # imports and caches
    assert cycles_left("one", 1) == cycles_left("many", 8)


def test_run_cli_leaves_the_collector_as_it_finds_it(corpus_dir, capsys):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert run_cli(["validate", str(corpus_dir)]) == 0
    assert run_cli(["--help"]) == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


_PRINT_COLLECTOR_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))
from kpeval.cli import main
main()
"""


def test_main_runs_without_the_collector_and_freezes_before_exit(corpus_dir):
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", _PRINT_COLLECTOR_AT_EXIT, "validate", str(corpus_dir)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0
    assert run.stdout.splitlines()[-1] == "False True"
