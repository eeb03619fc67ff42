import json
import random
import sys

import pytest

from conftest import misalignment_corpus, synth_corpus, write_corpus_dir
from kpeval import model
from kpeval.cli import run_cli


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


def test_convert_to_ann_requires_seq_files(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli([
        "convert", "--to", "ann", "--in", str(empty), "--out", str(tmp_path / "x"),
    ]) == 2


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
    original = model.validate_document
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
    assert sorted(calls) == sorted(doc_ids * 2)  # each gold and each prediction file
