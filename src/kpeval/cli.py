"""Command-line front end.

Exit codes: 0 on success, 1 when the requested work ran but reported problems
(validation errors, malformed prediction files), 2 on usage or I/O errors.
Reports go to stdout, diagnostics to stderr.  All randomness sits behind
--seed and output directories are written atomically (temp dir + rename), so
identical invocations on identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

# Each command imports the modules it runs, so that building the parser, and
# a command that needs few of them, loads no more than it uses.
if TYPE_CHECKING:
    from .baselines import Gazetteer
    from .brat import ValidationReport


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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print through `_print_stderr`, so
    that a byte of an argument that is not valid UTF-8 prints as `\\xNN`,
    whether argparse echoes the argument or quotes it with `repr`."""

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        # `repr` spells a surrogate escape as the text `\udcNN`, and a
        # backslash as `\\`; put each surrogate escape back.
        for arg in getattr(self, "_argv", ()):
            quoted = repr(arg)
            unquoted = re.sub(
                r"\\(\\|udc[89a-f][0-9a-f])",
                lambda m: m[0] if m[1] == "\\" else chr(int(m[1][1:], 16)),
                quoted,
            )
            message = message.replace(quoted, unquoted)
        super().error(message)

    def _print_message(self, message: str, file=None) -> None:
        if file is sys.stderr:
            _print_stderr(message, end="")
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # The values of `baselines.BaselineKind`, spelled out so that building
    # the parser does not import the baselines.
    p.add_argument("--kind", choices=("oracle", "random", "gazetteer"), required=True)
    p.add_argument("--in", dest="in_dir", type=Path, required=True)
    p.add_argument("--out", dest="out_dir", type=Path, required=True)
    p.add_argument("--train", type=Path, help="training corpus (gazetteer)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--snap", action="store_true",
                   help="expand misaligned spans to token boundaries (oracle)")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", **_JOBS)

    p = sub.add_parser("agreement", help="inter-annotator agreement")
    p.add_argument("--a", dest="dir_a", type=Path, required=True)
    p.add_argument("--b", dest="dir_b", type=Path, required=True)
    p.add_argument("--granularity", choices=("token_a", "token_b"),
                   default="token_a")
    p.add_argument("--json", action="store_true")

    return parser


def _print_stderr(line: str, end: str = "\n") -> None:
    """Print `line` and `end` on stderr, each byte of a file name that is not
    valid UTF-8 as `\\xNN`, the way `ls -b` names it; any other lone
    surrogate prints as `\\uNNNN`."""
    try:
        raw = line.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # a surrogate outside U+DC80..U+DCFF escapes no byte
        line = re.sub(
            r"[\ud800-\udc7f\udd00-\udfff]", lambda m: f"\\u{ord(m.group()):04x}", line
        )
        raw = line.encode("utf-8", "surrogateescape")
    print(raw.decode("utf-8", "backslashreplace"), end=end, file=sys.stderr)


def _usage_error(message: str) -> int:
    _print_stderr(f"error: {message}")
    return 2


def _print_loaded(*reports: ValidationReport, dropped: bool = True) -> None:
    """Print on stderr every report's errors and warnings, each naming its
    file, then, if `dropped`, what each loader stripped, in doc_id order."""
    for report in reports:
        for _, code, message in report.errors:
            _print_stderr(f"ERROR   [{code}] {message}")
        for _, code, message in report.warnings:
            _print_stderr(f"WARNING [{code}] {message}")
    for report in reports if dropped else ():
        for doc_id, message in report.dropped:
            _print_stderr(f"WARNING [DROPPED] {doc_id}: {message}")


def _write_atomic(out_dir: Path, force: bool, writer) -> None:
    """Populate `out_dir` via a temp directory and a final rename.

    `writer(tmp)` writes each output file as soon as it is made, and reports
    what it could not make before it returns.  So it runs before the check
    that `out_dir` may be replaced, and what it reports precedes a refusal.
    On any failure the temp directory, and each parent directory made for it,
    is removed.
    """
    made = [parent for parent in out_dir.parents if not parent.exists()]
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        writer(tmp)
        if out_dir.exists():
            if not force:
                raise SystemExit(
                    _usage_error(f"{out_dir} exists; pass --force to overwrite")
                )
            shutil.rmtree(out_dir)
        tmp.rename(out_dir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        for parent in made:  # innermost first
            with contextlib.suppress(OSError):
                parent.rmdir()
        raise


def cmd_validate(args: argparse.Namespace) -> int:
    from . import brat

    corpus, report = brat.load_corpus(args.dir)
    _print_loaded(report, dropped=False)
    print(f"documents: {len(corpus)}")
    print(f"errors:    {len(report.errors)}")
    print(f"warnings:  {len(report.warnings)}")
    return 0 if report.ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from . import analytics, brat

    corpus, report = brat.load_corpus(args.dir)
    _print_loaded(report, dropped=False)
    stats = analytics.corpus_stats(corpus, k=args.top)
    out = analytics.stats_to_json(stats) if args.json else analytics.stats_to_text(stats)
    print(out, end="")
    return 0 if report.ok else 1


def cmd_score(args: argparse.Namespace) -> int:
    from . import brat, scoring

    gold, gold_report = brat.load_corpus(args.gold)
    pred, pred_report = brat.load_predictions(args.pred, gold)
    _print_loaded(gold_report, pred_report)
    scenario = scoring.Scenario(args.scenario)
    report = scoring.score_scenario(gold, pred, scenario, pool=args.pool)
    for message in report.diagnostics:
        _print_stderr(f"WARNING [GIVEN_DEVIATION] {message}")
    sections = [(None, report)]
    if args.by_genre:
        genres = _read_genre_map(args.by_genre)
        groups: dict[str, dict] = {}
        for doc_id, counts in report.per_doc.items():
            groups.setdefault(genres.get(doc_id, "unmapped"), {})[doc_id] = counts
        sections += [
            (genre, scoring.summarize(scenario, groups[genre], args.pool))
            for genre in sorted(groups)
        ]
    for genre, rep in sections:
        if genre is not None:
            print(f"--- genre: {genre} ---")
        print(scoring.report_to_json(rep) if args.json else scoring.report_to_text(rep), end="")
    ok = gold_report.ok and pred_report.ok
    return 0 if ok else 1


def _read_genre_map(path: Path) -> dict[str, str]:
    from . import brat

    genres = {}
    for line in brat.split_lines(brat.read_utf8(path)):
        if line.strip():
            doc_id, _, genre = line.partition("\t")
            genres[doc_id.strip()] = genre.strip() or "unmapped"
    return genres


def cmd_convert(args: argparse.Namespace) -> int:
    from . import brat, codec

    if args.to == "seq":
        corpus, report = brat.load_corpus(args.in_dir)
        _print_loaded(report)

        def writer(tmp: Path) -> None:
            for doc in corpus:
                sequences, _ = codec.encode_document(doc, snap=args.snap)
                brat.write_utf8(tmp / f"{doc.doc_id}.seq", codec.sequences_to_tsv(sequences))
                brat.write_utf8(tmp / f"{doc.doc_id}.txt", doc.text)
    else:
        if not args.in_dir.is_dir():
            return _usage_error(f"not a directory: {args.in_dir}")
        # In doc_id order, as the loaders read; path order puts "a-b.seq"
        # before "a.seq".
        seq_paths = sorted(args.in_dir.glob("*.seq"), key=brat.doc_id_of)
        if not seq_paths:
            return _usage_error(f"no .seq files in {args.in_dir}")
        for path in seq_paths:
            if not path.with_name(f"{brat.doc_id_of(path)}.txt").exists():
                return _usage_error(f"{path.name} has no matching .txt")
        report = brat.ValidationReport()

        def writer(tmp: Path) -> None:
            for path in seq_paths:
                doc_id = brat.doc_id_of(path)
                text = brat.read_utf8(path.with_name(f"{doc_id}.txt"))
                try:
                    sequences = codec.sequences_from_tsv(brat.read_utf8(path), path.name, text)
                    doc = codec.decode_document(sequences, text, doc_id)
                except brat.MalformedLine as exc:
                    report.error(doc_id, exc.code, str(exc))
                    continue
                brat._save_document(doc, tmp, write_text=True)
            _print_loaded(report)

    _write_atomic(args.out_dir, args.force, writer)
    return 0 if report.ok else 1


def _load_gazetteer(train_dir: Path) -> Gazetteer:
    """The gazetteer of a training directory; the corpus is dropped on return."""
    from . import baselines, brat

    train, report = brat.load_corpus(train_dir)
    _print_loaded(report)  # an empty corpus has dropped nothing
    if not len(train):
        raise SystemExit(_usage_error(f"no .txt/.ann pairs in {train_dir}"))
    return baselines.gazetteer_build(train)


def cmd_baseline(args: argparse.Namespace) -> int:
    if args.snap and args.kind != "oracle":
        return _usage_error("--snap applies to --kind oracle")
    from . import baselines, brat

    corpus, report = brat.load_corpus(args.in_dir)
    _print_loaded(report)
    if args.kind == "oracle":
        predict = lambda doc: baselines._oracle_document(doc, args.snap)
    elif args.kind == "random":
        predict = lambda doc: baselines._random_document(doc, args.scenario, args.seed)
    else:
        if not args.train:
            return _usage_error("--kind gazetteer requires --train")
        predict = baselines._gazetteer_matcher(_load_gazetteer(args.train))

    def writer(tmp: Path) -> None:
        for doc in corpus:
            brat._save_document(predict(doc), tmp)

    _write_atomic(args.out_dir, args.force, writer)
    return 0 if report.ok else 1


def cmd_agreement(args: argparse.Namespace) -> int:
    from . import analytics, brat

    corpus_a, report_a = brat.load_corpus(args.dir_a)
    corpus_b, report_b = brat.load_corpus(args.dir_b)
    _print_loaded(report_a, report_b)
    try:
        report = analytics.agreement_report(corpus_a, corpus_b, granularity=args.granularity)
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
    """The `kpeval` console script and `python -m kpeval.cli`: `run_cli` in a
    process of its own, without the cyclic garbage collector.

    kpeval's records are NamedTuples and plain objects that form no cycles,
    so a command leaves a fixed few hundred cyclic objects (argparse's
    parser, json's encoder) whatever the size of its corpus, and a
    collection would only scan live records.  `gc.freeze()` before exit
    moves every object into the permanent generation, which the
    collections of interpreter shutdown skip; the OS reclaims the memory.
    `tests/test_cli.py::test_a_command_leaves_as_many_cycles_on_one_document_as_on_many`
    pins the fixed count.  `run_cli` leaves the collector as it finds it,
    so library callers, the tests and the in-process benchmark keep theirs.
    """
    gc.disable()
    code = run_cli(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
