#!/usr/bin/env python3
"""kpeval benchmark: per-command wall time and memory on two corpus shapes.

    python3 bench/run.py --workload shared-task --seed 1 --seconds 60 --trace 0

Run from the repository root; kpeval is imported from ./src.  The run
generates its inputs from --seed under .bench_work/, then repeats whole
rounds of CLI invocations for about --seconds.  With --trace 0 every command
is its own `python -m kpeval.cli` process, started one at a time, and the
end-to-end metrics are medians over rounds.  With --trace 1 the same argv
lists go through `kpeval.cli.run_cli` in this process, alternating untraced
and traced rounds, and the per-layer metrics come from the traced ones.
Every output is checked against the generator's own expectations or against
properties that need no stored output.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
from gen import Shape

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"
COMMAND_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    shape: Shape
    n_docs: int
    n_train: int
    malformed: bool = False
    random_scenario: int = 1


# Corpus sizes are set so that a round takes 4-6 s and a 60 s run holds nine to
# sixteen.  The host's speed drifts over seconds, so a metric is steady only
# if its samples are spread thickly over the whole run: one per round, and
# short rounds, which leave interpreter start-up a large share of each command.
WORKLOADS = {
    # Many small irregular files with nested spans: parsing, validation,
    # canonicalization and scoring of many documents.
    "shared-task": Workload(Shape(nest_rate=0.15, irregular=True), 40, 20, malformed=True),
    # One long document: per-keyphrase scans over all sentences and tokens,
    # with 5% of spans starting one character inside their first token.
    # The random baseline runs in scenario 3 here: it then encodes the gold
    # spans, the path under test, instead of drawing O(heads^2) relation cells.
    "long-doc": Workload(
        Shape(n_sentences=800, mentions=2000, relations=400, shift_rate=0.05), 1, 1,
        random_scenario=3,
    ),
}

END_TO_END = (
    "setup_s", "peak_rss_mb", "validate_s", "stats_s", "score_s", "score_by_genre_s",
    "score_jobs_s", "convert_seq_s", "convert_snap_s", "convert_ann_s",
    "baseline_oracle_s", "baseline_random_s", "baseline_gazetteer_s", "agreement_s",
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    dir: Path
    gold: list[gen.Doc]
    train: list[gen.Doc]
    preds: dict[int, dict[str, gen.Doc]]
    genres: dict[str, str]
    clean: list[gen.Doc]
    random_args: list[str]
    subset: list[str]

    def path(self, name: str) -> str:
        return str(self.dir / name)


def make_inputs(name: str, seed: int, work: Path) -> Inputs:
    wl = WORKLOADS[name]
    rng = random.Random(f"kpeval-bench\x1f{name}\x1f{seed}")
    gold = gen.make_corpus(rng, "doc", wl.n_docs, wl.shape)
    train = gen.make_corpus(rng, "train", wl.n_train, wl.shape)
    gen.write_corpus(work / "gold", gold, rng)
    gen.write_corpus(work / "train", train, rng)
    gen.write_corpus(work / "retyped", [gen.retyped_copy(rng, d) for d in gold])
    # Token-aligned, non-overlapping, intra-sentence: the codec keeps all of it.
    clean = gen.make_corpus(rng, "clean", 20, Shape())
    gen.write_corpus(work / "clean", clean)
    preds = {}
    for scenario in (1, 2, 3):
        docs = [gen.make_prediction(rng, d, scenario) for d in gold]
        if scenario == 1:  # a few documents without a prediction file
            docs = [d for d in docs if rng.random() >= 0.02] or docs
        preds[scenario] = {d.doc_id: d for d in docs}
        gen.write_corpus(work / f"pred{scenario}", docs, with_text=False)
    genres = {}
    for doc in gold:
        if rng.random() < 0.95:  # the rest fall into "unmapped"
            genres[doc.doc_id] = rng.choice(gen.GENRES)
    (work / "genres.tsv").write_text(
        "".join(f"{d}\t{g}\n" for d, g in genres.items()), encoding="utf-8"
    )
    subset = [d.doc_id for d in gold][:: max(1, len(gold) // 8)]
    sub_dir = work / "subset"
    sub_dir.mkdir()
    for doc_id in subset:
        for ext in (".txt", ".ann"):
            shutil.copyfile(work / "gold" / f"{doc_id}{ext}", sub_dir / f"{doc_id}{ext}")
    if wl.malformed:
        _write_malformed(work)
    random_args = ["--seed", str(rng.randrange(1 << 30)),
                   "--scenario", str(wl.random_scenario)]
    return Inputs(work, gold, train, preds, genres, clean, random_args, subset)


def _write_malformed(work: Path) -> None:
    """Fixed inputs (independent of the seed) that kpeval must reject cleanly."""
    d = work / "bad-utf8"
    d.mkdir()
    (d / "latin1.txt").write_bytes("Café au lait is a beverage.".encode("latin-1"))
    (d / "latin1.ann").write_bytes("T1\tMaterial 0 4\tCafé\n".encode("utf-8"))
    d = work / "bad-offset"
    d.mkdir()
    (d / "badoffset.txt").write_text("Graphene conducts heat.", encoding="utf-8")
    (d / "badoffset.seq").write_text(
        "Graphene\t0\tx\tB\tM\nconducts\t9\t17\tO\tO\nheat\t18\t22\tB\tP\n.\t22\t23\tO\tO\n",
        encoding="utf-8",
    )
    d = work / "past-end"
    d.mkdir()
    (d / "pastend.txt").write_text("Graphene.", encoding="utf-8")
    (d / "pastend.seq").write_text(
        "Graphene\t0\t8\tB\tM\n.\t8\t9\tO\tO\nconducts\t10\t18\tB\tP\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


@dataclass
class Result:
    code: int | None  # None: the command raised instead of returning
    stdout: str
    stderr: str
    wall_s: float
    rss_kb: int = 0


@dataclass
class Op:
    name: str
    metric: str | None      # None: a malformed-input operation, timed into nothing
    argv: list[str]
    check: Callable[[Result, dict], str | None]  # (result, this round's results)
    out: str | None = None  # output directory, removed before the op runs


def _row_problem(label: str, row: dict, want: list[int]) -> str | None:
    tp, fp, fn = want
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
    got = [row["tp"], row["fp"], row["fn"], row["p"], row["r"], row["f1"]]
    if got != [tp, fp, fn, p, r, f1]:
        return f"{label}: got {got}, expected {[tp, fp, fn, p, r, f1]}"
    return None


def _report_problem(label: str, report: dict, scenario: int,
                    want: dict[str, list[int]]) -> str | None:
    if report["scenario"] != scenario or report["pooling"] != "bc":
        return f"{label}: wrong scenario or pooling"
    if sorted(report["subtasks"]) != sorted(gen.SUBTASKS[scenario]):
        return f"{label}: subtasks {sorted(report['subtasks'])}"
    for task in gen.SUBTASKS[scenario]:
        problem = _row_problem(f"{label} {task}", report["subtasks"][task], want[task])
        if problem:
            return problem
    overall = [sum(want[t][i] for t in ("B", "C") if t in want) for i in range(3)]
    return _row_problem(f"{label} overall", report["overall"], overall)


def _ok_exit(res: Result) -> str | None:
    if res.code != 0:
        return f"exit {res.code}: {res.stderr.strip()[-300:]}"
    return None


def _check_score(scenario: int, want: dict) -> Callable[[Result, dict], str | None]:
    def check(res: Result, _):
        if "GIVEN_DEVIATION" in res.stderr:
            return "the prediction deviates from the scenario's givens"
        return _ok_exit(res) or _report_problem(
            f"score S{scenario}", json.loads(res.stdout), scenario, want)
    return check


def _check_by_genre(want: dict) -> Callable[[Result, dict], str | None]:
    def check(res: Result, _):
        problem = _ok_exit(res)
        if problem:
            return problem
        sections = {}
        genre = None
        chunk: list[str] = []
        for line in res.stdout.splitlines(keepends=True) + ["--- genre: <end> ---\n"]:
            if line.startswith("--- genre: "):
                sections[genre] = json.loads("".join(chunk))
                genre, chunk = line[len("--- genre: "):-len(" ---\n")], []
            else:
                chunk.append(line)
        if sorted(sections, key=str) != sorted(want, key=str):
            return f"by-genre sections {sorted(sections, key=str)}"
        for genre, report in sections.items():
            problem = _report_problem(f"genre {genre}", report, 1, want[genre])
            if problem:
                return problem
        for task in gen.SUBTASKS[1]:
            summed = [sum(r["subtasks"][task][k] for g, r in sections.items() if g)
                      for k in ("tp", "fp", "fn")]
            whole = sections[None]["subtasks"][task]
            if summed != [whole["tp"], whole["fp"], whole["fn"]]:
                return f"by-genre {task}: genres sum to {summed}, whole is {whole}"
        return None
    return check


def _check_jobs(res: Result, done: dict) -> str | None:
    problem = _ok_exit(res)
    if not problem and res.stdout != done["score-1"].stdout:
        problem = "score --jobs 2 stdout differs from --jobs 1"
    return problem


def _check_dir(out: str, names: list[str]) -> Callable[[Result, dict], str | None]:
    def check(res: Result, _):
        problem = _ok_exit(res)
        if problem:
            return problem
        present = sorted(os.listdir(out))
        if present != sorted(names):
            return f"{out}: {len(present)} files, expected {len(names)}"
        return None
    return check


def _check_malformed(*filenames: str) -> Callable[[Result, dict], str | None]:
    def check(res: Result, _):
        if res.code not in (1, 2):
            return f"exit {res.code}"
        if "Traceback" in res.stderr:
            return "traceback on stderr"
        if not any(f in res.stderr for f in filenames):
            return f"stderr names none of {filenames}"
        return None
    return check


def operations(inp: Inputs, malformed: bool) -> list[Op]:
    p = inp.path
    ids = [d.doc_id for d in inp.gold]
    n = len(ids)
    expected_validate = (f"documents: {n}\nerrors:    0\n"
                         f"warnings:  {gen.expected_warnings(inp.gold)}\n")
    stats = gen.expected_stats(inp.gold)
    scores = {s: gen.expected_scores(inp.gold, inp.preds[s], s)[None] for s in (1, 2, 3)}
    by_genre = gen.expected_scores(inp.gold, inp.preds[1], 1, inp.genres)

    def check_validate(res, _):
        return _ok_exit(res) or (
            None if res.stdout == expected_validate else f"validate printed {res.stdout!r}")

    def check_stats(res, _):
        got = json.loads(res.stdout) if res.code == 0 else None
        return _ok_exit(res) or (None if got == stats else f"stats {got} != {stats}")

    def check_agreement(res, _):
        problem = _ok_exit(res)
        if problem:
            return problem
        got = json.loads(res.stdout)
        if (got["kappa"], got["n_docs_included"], got["n_docs_excluded"]) != (1.0, n, 0):
            return f"agreement {got}"
        return None

    pair = lambda exts: [f"{i}{e}" for i in ids for e in exts]
    gold, j = p("gold"), "--json"
    ops = [
        Op("validate", "validate_s", ["validate", gold], check_validate),
        Op("stats", "stats_s", ["stats", gold, j], check_stats),
    ]
    for s in (1, 2, 3):
        ops.append(Op(f"score-{s}", "score_s",
                      ["score", "--scenario", str(s), "--gold", gold, "--pred", p(f"pred{s}"), j],
                      _check_score(s, scores[s])))
    ops += [
        Op("score-by-genre", "score_by_genre_s",
           ["score", "--scenario", "1", "--gold", gold, "--pred", p("pred1"), j,
            "--by-genre", p("genres.tsv")], _check_by_genre(by_genre)),
        Op("score-jobs", "score_jobs_s",
           ["score", "--scenario", "1", "--gold", gold, "--pred", p("pred1"), j,
            "--jobs", "2"], _check_jobs),
        Op("convert-seq", "convert_seq_s",
           ["convert", "--to", "seq", "--in", gold, "--out", p("seq")],
           _check_dir(p("seq"), pair((".seq", ".txt"))), p("seq")),
        Op("convert-snap", "convert_snap_s",
           ["convert", "--to", "seq", "--snap", "--in", gold, "--out", p("seq-snap")],
           _check_dir(p("seq-snap"), pair((".seq", ".txt"))), p("seq-snap")),
        Op("convert-ann", "convert_ann_s",
           ["convert", "--to", "ann", "--in", p("seq"), "--out", p("ann-rt")],
           _check_dir(p("ann-rt"), pair((".ann", ".txt"))), p("ann-rt")),
        Op("baseline-oracle", "baseline_oracle_s",
           ["baseline", "--kind", "oracle", "--in", gold, "--out", p("oracle")],
           _check_dir(p("oracle"), pair((".ann",))), p("oracle")),
        Op("baseline-random", "baseline_random_s",
           ["baseline", "--kind", "random", "--in", gold, "--out", p("random"),
            *inp.random_args],
           _check_dir(p("random"), pair((".ann",))), p("random")),
        Op("baseline-gazetteer", "baseline_gazetteer_s",
           ["baseline", "--kind", "gazetteer", "--in", gold, "--train", p("train"),
            "--out", p("gazetteer")],
           _check_dir(p("gazetteer"), pair((".ann",))), p("gazetteer")),
        Op("agreement", "agreement_s",
           ["agreement", "--a", gold, "--b", p("retyped"), j], check_agreement),
    ]
    if malformed:
        ops += [
            Op("malformed-utf8", None, ["validate", p("bad-utf8")],
               _check_malformed("latin1.txt")),
            Op("malformed-offset", None,
               ["convert", "--to", "ann", "--in", p("bad-offset"), "--out", p("bad-offset-out")],
               _check_malformed("badoffset.seq"), p("bad-offset-out")),
            Op("malformed-past-end", None,
               ["convert", "--to", "ann", "--in", p("past-end"), "--out", p("past-end-out")],
               _check_malformed("pastend.seq", "pastend.txt"), p("past-end-out")),
        ]
    return ops


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class Processes:
    """Each command in its own `python -m kpeval.cli` process, one at a time.

    The processes are started by `spawner.py`, so that each reports its own
    peak RSS rather than this process's.
    """

    def __init__(self, work: Path) -> None:
        self.out_path = str(work / "stdout.txt")
        self.err_path = str(work / "stderr.txt")
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))

    def __enter__(self) -> Processes:
        return self

    def __exit__(self, *_) -> None:
        self.spawner.terminate()  # it kills and reaps a running command first
        self.spawner.wait()
        self.spawner.stdin.close()
        self.spawner.stdout.close()

    def run(self, argv: list[str]) -> Result:
        args = [sys.executable, "-m", "kpeval.cli", *argv]
        request = [args, self.out_path, self.err_path, COMMAND_TIMEOUT_S]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        code, wall, rss_kb = json.loads(self.spawner.stdout.readline())
        read = lambda path: Path(path).read_text(encoding="utf-8", errors="replace")
        return Result(code, read(self.out_path), read(self.err_path), wall, rss_kb)


class InProcess:
    """`kpeval.cli.run_cli` in this process, with stdout and stderr captured."""

    def __init__(self) -> None:
        from kpeval import cli
        self.cli = cli

    def run(self, argv: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run_cli(argv)  # looked up per call: may be traced
            except Exception:
                traceback.print_exc()
                code = None
        return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _digest(dir_path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(dir_path)):
        h.update(name.encode() + b"\0" + Path(dir_path, name).read_bytes() + b"\0")
    return h.hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def run_round(ops: list[Op], executor, tally: Tally) -> list[tuple[Op, Result]]:
    """Run the ops in order, checking each output; returns them with results."""
    done: dict[str, Result] = {}
    results = []
    for op in ops:
        if op.out:
            shutil.rmtree(op.out, ignore_errors=True)
        res = executor.run(op.argv)
        done[op.name] = res
        results.append((op, res))
        tally.attempted += 1
        try:
            problem = op.check(res, done)
        except (ValueError, KeyError, TypeError) as exc:  # unparsable output
            problem = f"unreadable output: {exc!r}"
        if problem and op.metric is None:
            tally.failed += 1
        elif problem:
            tally.problems.append(f"{op.name}: {problem}")
        elif op.out and op.metric:
            digest = _digest(op.out)
            if tally.digests.setdefault(op.name, digest) != digest:
                tally.problems.append(f"{op.name}: output differs between runs")
    return results


# ---------------------------------------------------------------------------
# Checks after the timed region
# ---------------------------------------------------------------------------


def _ann_spans(content: str) -> list[tuple[str, int, int]]:
    """(type, start, end) of every T line; a deliberately minimal reader."""
    spans = []
    for line in content.splitlines():
        if line.startswith("T"):
            t, start, end = line.split("\t")[1].split()
            spans.append((t, int(start), int(end)))
    return spans


def property_checks(inp: Inputs, procs: Processes) -> list[str]:
    problems = []
    p = inp.path
    texts = {d.doc_id: d.text for d in inp.gold}

    def expect(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    # The clean corpus goes through both conversions and the oracle too.
    for argv in (["convert", "--to", "ann", "--in", p("seq-snap"), "--out", p("ann-snap")],
                 ["convert", "--to", "seq", "--in", p("clean"), "--out", p("clean-seq")],
                 ["convert", "--to", "ann", "--in", p("clean-seq"), "--out", p("clean-rt")],
                 ["baseline", "--kind", "oracle", "--in", p("clean"), "--out", p("clean-oracle")]):
        res = procs.run(argv)
        expect(res.code == 0, f"{' '.join(argv[:3])}: exit {res.code}")

    # .txt outputs of the conversions carry the text unchanged (BOM removed).
    clean_texts = {d.doc_id: d.text for d in inp.clean}
    for out, docs in (("seq", texts), ("seq-snap", texts), ("ann-rt", texts),
                      ("clean-seq", clean_texts), ("clean-rt", clean_texts)):
        bad = [i for i, t in docs.items()
               if Path(p(out), f"{i}.txt").read_bytes() != t.encode("utf-8")]
        expect(not bad, f"{out}: .txt differs from input for {bad[:3]}")

    # Round trips and the oracle score exactly what the generator predicts;
    # on the clean corpus that is P = R = F1 = 1.
    identity = gen.expected_roundtrip(inp.clean, snap=False)
    expect(all(fp == fn == 0 for _, fp, fn in identity.values()),
           "the clean corpus does not survive the round trip by the generator's rules")
    for gold, pred, want in (("gold", "ann-rt", gen.expected_roundtrip(inp.gold, False)),
                             ("gold", "ann-snap", gen.expected_roundtrip(inp.gold, True)),
                             ("gold", "oracle", gen.expected_roundtrip(inp.gold, False)),
                             ("clean", "clean-rt", identity),
                             ("clean", "clean-oracle", identity)):
        res = procs.run(["score", "--scenario", "1", "--gold", p(gold),
                         "--pred", p(pred), "--json"])
        problem = _ok_exit(res) or _report_problem(
            f"round trip {pred}", json.loads(res.stdout), 1, want)
        expect(problem is None, str(problem))

    # The random baseline depends only on (seed, doc_id).
    res = procs.run(["baseline", "--kind", "random", "--in", p("subset"),
                     "--out", p("random-subset"), *inp.random_args])
    expect(res.code == 0, f"random baseline on subset: exit {res.code}")
    for doc_id in inp.subset:
        expect(Path(p("random-subset"), f"{doc_id}.ann").read_bytes()
               == Path(p("random"), f"{doc_id}.ann").read_bytes(),
               f"random baseline differs on subset for {doc_id}")

    # Gazetteer spans: training surfaces, their majority type, no overlaps.
    majority = gen.majority_types(inp.train)
    for doc_id, text in texts.items():
        spans = sorted(_ann_spans(Path(p("gazetteer"), f"{doc_id}.ann").read_text("utf-8")),
                       key=lambda s: s[1:])
        for t, start, end in spans:
            key = gen.normalize(text[start:end])
            if majority.get(key) != t:
                problems.append(f"gazetteer {doc_id}: {key!r} typed {t}, "
                                f"training majority {majority.get(key)}")
                break
        expect(all(a[2] <= b[1] for a, b in zip(spans, spans[1:])),
               f"gazetteer {doc_id}: overlapping spans")
    return problems


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def _median_rounds(per_round: list[dict[str, float]], key: str) -> float:
    return statistics.median(r[key] for r in per_round)


def _check_help(res: Result, _) -> str | None:
    return _ok_exit(res) or (None if "usage: kpeval" in res.stdout else "no usage text")


def measure(ops, procs: Processes, seconds: float, tally: Tally) -> dict[str, float]:
    """End-to-end metrics: medians over every invocation in whole rounds.

    Consecutive invocations with one metric (the three `score` scenarios)
    make one sample, their summed wall time.
    """
    procs.run(["--help"])  # warm-up: byte-compiles kpeval on a fresh checkout
    round_ops = [Op("help", "setup_s", ["--help"], _check_help), *ops]
    samples: dict[str, list[float]] = {m: [] for m in END_TO_END}
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = run_round(round_ops, procs, tally)
        rounds.append(time.perf_counter() - t0)
        prev = None
        for op, res in results:
            if op.metric and op.metric == prev:
                samples[op.metric][-1] += res.wall_s
            elif op.metric:
                samples[op.metric].append(res.wall_s)
            prev = op.metric
        samples["peak_rss_mb"].append(max(r.rss_kb for _, r in results) / 1024)
        # Stop before a round that would not end within the run length.
        if time.perf_counter() - start + statistics.mean(rounds) > seconds:
            break
    print(f"# {len(rounds)} rounds of {len(round_ops)} invocations, "
          f"{statistics.mean(rounds):.1f} s each", file=sys.stderr)
    for m, v in samples.items():
        print(f"# {m}: " + " ".join(f"{x:.4f}" for x in v), file=sys.stderr)
    return {m: statistics.median(v) for m, v in samples.items()}


def measure_traced(ops, seconds: float, tally: Tally, trace_file: Path) -> dict[str, float]:
    from tracing import COUNTED, LAYER_NAMES, Tracer

    executor = InProcess()
    tracer = Tracer()
    untraced, traced, self_rounds, self_sums = [], [], [], []
    calls = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_round(ops, executor, tally)
        untraced.append(time.perf_counter() - t0)
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            run_round(ops, executor, tally)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        self_s, calls = tracer.self_times()
        self_rounds.append(self_s)
        self_sums.append(sum(self_s.values()))
        # The wall time no span covers is this loop's own work between commands.
        if not 0 <= traced[-1] - self_sums[-1] <= 0.1 * traced[-1]:
            tally.problems.append(f"self times sum to {self_sums[-1]:.3f} s, "
                                  f"traced wall is {traced[-1]:.3f} s")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break
    tracer.write(trace_file)
    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_s"] = _median_rounds(self_rounds, layer)
        if layer in COUNTED:
            metrics[f"{layer}.calls"] = calls[layer]
    metrics["codec.spans_in"] = tracer.spans_in
    metrics["codec.spans_kept"] = tracer.spans_kept
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.self_sum_s"] = statistics.median(self_sums)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs the cleanup below
    if not (SRC / "kpeval" / "cli.py").is_file():
        print(f"error: no kpeval sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        inp = make_inputs(args.workload, args.seed, work)
        ops = operations(inp, WORKLOADS[args.workload].malformed)
        print(f"# {args.workload} seed {args.seed}: {len(inp.gold)} documents, "
              f"inputs in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        tally = Tally()
        with Processes(work) as procs:
            if args.trace:
                trace_file = TRACES / f"trace-{args.workload}.tsv"
                metrics = measure_traced(ops, args.seconds, tally, trace_file)
                names = list(metrics)
                units = {m: "count" if m.endswith(".calls") or m.startswith("codec.spans")
                         else "s" for m in names}
            else:
                metrics = measure(ops, procs, args.seconds, tally)
                names = list(END_TO_END)
                units = {m: "MB" if m == "peak_rss_mb" else "s" for m in names}
            tally.problems += property_checks(inp, procs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in names},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
