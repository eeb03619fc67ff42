"""Command-line front end.

Exit codes: 0 on success, 1 when the requested work ran but reported problems
(validation errors, malformed prediction files), 2 on usage or I/O errors.
Reports go to stdout, diagnostics to stderr.  All randomness sits behind
--seed and output directories are written atomically (temp dir + rename), so
identical invocations on identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from . import analytics, baselines, brat, codec, model, scoring


def _int_at_least(minimum: int):
    """argparse type for an integer flag that rejects values below `minimum`."""

    def integer(value: str) -> int:
        number = int(value)  # argparse reports a ValueError as an invalid value
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {number}")
        return number

    return integer


_JOBS = dict(type=_int_at_least(1), default=1, metavar="N",
             help="accepted for compatibility; the work is sequential")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpeval",
        description="Corpus toolkit and scorer for mention-level keyphrase "
        "and relation annotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus directory")
    p.add_argument("dir", type=Path)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("dir", type=Path)
    p.add_argument("--top", type=_int_at_least(0), default=10, metavar="K")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("score", help="score predictions against gold")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--gold", type=Path, required=True)
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--pool", choices=("bc", "abc"), default="bc")
    p.add_argument("--by-genre", type=Path, metavar="MAPFILE",
                   help="TSV doc_id<TAB>genre; adds one report per genre")
    p.add_argument("--jobs", **_JOBS)

    p = sub.add_parser("convert", help="convert between .ann and sequence TSV")
    p.add_argument("--to", choices=("seq", "ann"), required=True)
    p.add_argument("--in", dest="in_dir", type=Path, required=True)
    p.add_argument("--out", dest="out_dir", type=Path, required=True)
    p.add_argument("--snap", action="store_true",
                   help="expand misaligned spans to token boundaries")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", **_JOBS)

    p = sub.add_parser("baseline", help="generate a reference prediction")
    p.add_argument("--kind", choices=[k.value for k in baselines.BaselineKind],
                   required=True)
    p.add_argument("--in", dest="in_dir", type=Path, required=True)
    p.add_argument("--out", dest="out_dir", type=Path, required=True)
    p.add_argument("--train", type=Path, help="training corpus (gazetteer)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--snap", action="store_true")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", **_JOBS)

    p = sub.add_parser("agreement", help="inter-annotator agreement")
    p.add_argument("--a", dest="dir_a", type=Path, required=True)
    p.add_argument("--b", dest="dir_b", type=Path, required=True)
    p.add_argument("--granularity", choices=("token_a", "token_b"),
                   default="token_a")
    p.add_argument("--json", action="store_true")

    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _print_report_entries(report: brat.ValidationReport) -> None:
    for doc_id, code, message in report.errors:
        print(f"ERROR   [{code}] {message}", file=sys.stderr)
    for doc_id, code, message in report.warnings:
        print(f"WARNING [{code}] {message}", file=sys.stderr)


def _prepare_corpus(corpus: brat.Corpus) -> brat.Corpus:
    """Canonicalize for scoring, dropping whatever cannot be scored.

    The loader has already reported on every document, so what is dropped
    only shows as a warning, and the cleaned document is valid by
    construction and needs no second check.
    """
    documents = {}
    for doc in corpus:
        clean, dropped = model.drop_invalid(doc)
        for message in dropped:
            print(f"WARNING [DROPPED] {doc.doc_id}: {message}", file=sys.stderr)
        documents[doc.doc_id] = model.canonical_form(clean)
    return brat.Corpus(documents)


def _write_atomic(out_dir: Path, force: bool, writer) -> None:
    """Populate `out_dir` via a temp directory and a final rename."""
    if out_dir.exists():
        if not force:
            raise SystemExit(
                _usage_error(f"{out_dir} exists; pass --force to overwrite")
            )
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        writer(tmp)
        if out_dir.exists():
            shutil.rmtree(out_dir)
        tmp.rename(out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def cmd_validate(args: argparse.Namespace) -> int:
    corpus, report = brat.load_corpus(args.dir)
    _print_report_entries(report)
    print(f"documents: {len(corpus)}")
    print(f"errors:    {len(report.errors)}")
    print(f"warnings:  {len(report.warnings)}")
    return 0 if report.ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    corpus, report = brat.load_corpus(args.dir)
    _print_report_entries(report)
    stats = analytics.corpus_stats(corpus, k=args.top)
    out = analytics.stats_to_json(stats) if args.json else analytics.stats_to_text(stats)
    print(out, end="")
    return 0 if report.ok else 1


def cmd_score(args: argparse.Namespace) -> int:
    gold_raw, gold_report = brat.load_corpus(args.gold)
    pred_raw, pred_report = brat.load_predictions(args.pred, gold_raw)
    _print_report_entries(gold_report)
    _print_report_entries(pred_report)
    gold = _prepare_corpus(gold_raw)
    pred = _prepare_corpus(pred_raw)
    scenario = scoring.Scenario(args.scenario)

    doc_ids = gold.doc_ids()
    try:
        report = scoring.score_scenario(gold, pred, scenario, pool=args.pool)
    except ValueError as exc:
        return _usage_error(str(exc))
    for message in report.diagnostics:
        print(f"WARNING [GIVEN_DEVIATION] {message}", file=sys.stderr)
    if args.by_genre:
        genres = _read_genre_map(args.by_genre)
        sections = [(None, report)]
        for genre in sorted(set(genres.get(d, "unmapped") for d in doc_ids)):
            ids = [d for d in doc_ids if genres.get(d, "unmapped") == genre]
            sub_gold = brat.Corpus({d: gold[d] for d in ids})
            sub_pred = brat.Corpus({d: pred[d] for d in ids if d in pred})
            sections.append(
                (genre, scoring.score_scenario(sub_gold, sub_pred, scenario, pool=args.pool))
            )
        for genre, rep in sections:
            if genre is not None:
                print(f"--- genre: {genre} ---")
            print(
                scoring.report_to_json(rep) if args.json else scoring.report_to_text(rep),
                end="",
            )
    else:
        print(
            scoring.report_to_json(report) if args.json else scoring.report_to_text(report),
            end="",
        )
    ok = gold_report.ok and pred_report.ok
    return 0 if ok else 1


def _read_genre_map(path: Path) -> dict[str, str]:
    genres = {}
    for line in brat.read_utf8(path).splitlines():
        if line.strip():
            doc_id, _, genre = line.partition("\t")
            genres[doc_id.strip()] = genre.strip() or "unmapped"
    return genres


def cmd_convert(args: argparse.Namespace) -> int:
    files: dict[str, str] = {}  # output file name -> content
    if args.to == "seq":
        corpus_raw, report = brat.load_corpus(args.in_dir)
        _print_report_entries(report)
        for doc in _prepare_corpus(corpus_raw):
            sequences, _ = codec.encode_document(doc, snap=args.snap)
            files[f"{doc.doc_id}.seq"] = codec.sequences_to_tsv(sequences)
            files[f"{doc.doc_id}.txt"] = doc.text
    else:
        if not args.in_dir.is_dir():
            return _usage_error(f"not a directory: {args.in_dir}")
        seq_paths = sorted(args.in_dir.glob("*.seq"))
        if not seq_paths:
            return _usage_error(f"no .seq files in {args.in_dir}")
        report = brat.ValidationReport()
        for path in seq_paths:
            txt = path.with_suffix(".txt")
            if not txt.exists():
                return _usage_error(f"{path.name} has no matching .txt")
            text = brat.read_text(txt)
            try:
                sequences = codec.sequences_from_tsv(brat.read_utf8(path), path.name)
                doc = codec.decode_document(sequences, text, path.stem)
            except brat.MalformedLine as exc:
                report.error(path.stem, brat.MALFORMED_LINE, str(exc))
                continue
            except ValueError as exc:  # a token lies outside the text
                report.error(path.stem, model.OFFSET_OUT_OF_BOUNDS, f"{path.name}: {exc}")
                continue
            files[f"{path.stem}.ann"] = brat.serialize_annotations(doc)
            files[f"{path.stem}.txt"] = text
        _print_report_entries(report)

    def writer(tmp: Path) -> None:
        for name, content in files.items():
            (tmp / name).write_text(content, encoding="utf-8")

    _write_atomic(args.out_dir, args.force, writer)
    return 0 if report.ok else 1


def cmd_baseline(args: argparse.Namespace) -> int:
    corpus_raw, report = brat.load_corpus(args.in_dir)
    _print_report_entries(report)
    corpus = _prepare_corpus(corpus_raw)
    kind = baselines.BaselineKind(args.kind)
    if kind is baselines.BaselineKind.ORACLE:
        predicted = baselines.oracle_predict(corpus, snap=args.snap)
    elif kind is baselines.BaselineKind.RANDOM:
        scenario = scoring.Scenario(args.scenario)
        predicted = baselines.random_predict(corpus, scenario, args.seed)
    else:
        if not args.train:
            return _usage_error("--kind gazetteer requires --train")
        train_raw, train_report = brat.load_corpus(args.train)
        _print_report_entries(train_report)
        gaz = baselines.gazetteer_build(_prepare_corpus(train_raw))
        predicted = baselines.gazetteer_predict(gaz, corpus)

    def writer(tmp: Path) -> None:
        brat.save_corpus(predicted, tmp)

    _write_atomic(args.out_dir, args.force, writer)
    return 0 if report.ok else 1


def cmd_agreement(args: argparse.Namespace) -> int:
    corpus_a, report_a = brat.load_corpus(args.dir_a)
    corpus_b, report_b = brat.load_corpus(args.dir_b)
    _print_report_entries(report_a)
    _print_report_entries(report_b)
    try:
        report = analytics.agreement_report(
            _prepare_corpus(corpus_a),
            _prepare_corpus(corpus_b),
            granularity=args.granularity,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    out = (
        analytics.agreement_to_json(report)
        if args.json
        else analytics.agreement_to_text(report)
    )
    print(out, end="")
    return 0 if report_a.ok and report_b.ok else 1


_COMMANDS = {
    "validate": cmd_validate,
    "stats": cmd_stats,
    "score": cmd_score,
    "convert": cmd_convert,
    "baseline": cmd_baseline,
    "agreement": cmd_agreement,
}


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:  # a missing directory, an unreadable or undecodable file
        return _usage_error(str(exc))


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
