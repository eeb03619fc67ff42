"""Rewrite the golden records of every command and of the usage errors.

The inputs next to this script are a small hand-written corpus:

  corpus/  gold pairs: a longer span that wins an overlap, an equal-length
           tie that the type breaks, a span one character into its token,
           a span and a relation across sentences, a cell conflict, a BOM
           with CRLF line breaks, a malformed line and a dangling relation;
  b/       a second annotation of the same texts, for `agreement`;
  seq/     `.seq` files with sentence blocks out of order, an I after an O,
           unknown labels and cell values, and one malformed line;
  pred/    another annotation of the texts of corpus/, read as a corpus and
           as a prediction: a `*` line of three ids, a duplicate id and span,
           a self-relation, an offset out of bounds, a surface mismatch, a
           cross-type Synonym-of, a dangling `*` id, one line per reason a
           `.ann` line is malformed, a `.txt` without its `.ann` and an
           `.ann` without its `.txt`;
  seqbad/  one `.seq` file per reason a `.seq` line is malformed;
  genres.tsv  a genre map with a blank line and a document of no corpus.

Each command form in FORMS runs in-process through `run_cli`, in a copy of
these inputs and with relative paths, with argparse's usage line unwrapped
and uncoloured.  Its record under `records/<name>/`
holds `exit`, `stdout`, `stderr` and, for a command that writes, the files
of its `out/` directory.  `tests/test_golden.py` compares every run with its
record byte for byte.  Run

    python tests/golden/regen.py

after a change that is meant to alter an output, and list in CHANGES.md each
record that changed and why.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

GOLDEN = Path(__file__).resolve().parent
RECORDS = GOLDEN / "records"
INPUTS = ("corpus", "b", "seq", "pred", "seqbad", "genres.tsv")

# name -> argv; a command that writes does so to `out`.
FORMS = {
    "convert-seq": ["convert", "--to", "seq", "--in", "corpus", "--out", "out"],
    "convert-seq-snap": ["convert", "--to", "seq", "--in", "corpus", "--out", "out", "--snap"],
    "convert-ann": ["convert", "--to", "ann", "--in", "seq", "--out", "out"],
    "baseline-oracle": ["baseline", "--kind", "oracle", "--in", "corpus", "--out", "out"],
    "baseline-oracle-snap": [
        "baseline", "--kind", "oracle", "--in", "corpus", "--out", "out", "--snap",
    ],
    "baseline-random": [
        "baseline", "--kind", "random", "--scenario", "1", "--seed", "3",
        "--in", "corpus", "--out", "out",
    ],
    "baseline-random-s2": [
        "baseline", "--kind", "random", "--scenario", "2", "--seed", "3",
        "--in", "corpus", "--out", "out",
    ],
    "baseline-random-s3": [
        "baseline", "--kind", "random", "--scenario", "3", "--seed", "3",
        "--in", "corpus", "--out", "out",
    ],
    "baseline-gazetteer": [
        "baseline", "--kind", "gazetteer", "--in", "corpus", "--train", "b", "--out", "out",
    ],
    "agreement-token-a": ["agreement", "--a", "corpus", "--b", "b", "--json"],
    "agreement-token-b": [
        "agreement", "--a", "corpus", "--b", "b", "--granularity", "token_b", "--json",
    ],
    "agreement-text": ["agreement", "--a", "corpus", "--b", "b"],
    "agreement-pred-token-b": [
        "agreement", "--a", "corpus", "--b", "pred", "--granularity", "token_b",
    ],
    "convert-ann-malformed": ["convert", "--to", "ann", "--in", "seqbad", "--out", "out"],
    "validate": ["validate", "pred"],
    "stats": ["stats", "corpus"],
    "stats-json": ["stats", "corpus", "--json"],
    "stats-top": ["stats", "pred", "--top", "2"],
    "score": ["score", "--scenario", "1", "--gold", "corpus", "--pred", "pred"],
    "score-by-genre": [
        "score", "--scenario", "1", "--gold", "corpus", "--pred", "pred",
        "--by-genre", "genres.tsv",
    ],
    "score-pool-abc": [
        "score", "--scenario", "1", "--gold", "corpus", "--pred", "pred", "--pool", "abc",
    ],
    "score-s2-json": ["score", "--scenario", "2", "--gold", "corpus", "--pred", "pred", "--json"],
    "score-s3-json": ["score", "--scenario", "3", "--gold", "corpus", "--pred", "pred", "--json"],
    "usage-missing-dir": ["validate", "missing"],
    "usage-jobs-0": [
        "score", "--scenario", "1", "--gold", "corpus", "--pred", "pred", "--jobs", "0",
    ],
    "usage-top-negative": ["stats", "corpus", "--top", "-1"],
    "usage-refused-overwrite": ["baseline", "--kind", "oracle", "--in", "corpus", "--out", "b"],
    "usage-gazetteer-no-train": ["baseline", "--kind", "gazetteer", "--in", "pred", "--out", "out"],
}

# argparse wraps its usage line to the terminal width, and Python 3.14 may
# colour it; neither may depend on where the records are made.
ENVIRON = {"COLUMNS": "1000", "PYTHON_COLORS": "0"}


def copy_inputs(workdir: Path) -> None:
    for name in INPUTS:
        if (GOLDEN / name).is_dir():
            shutil.copytree(GOLDEN / name, workdir / name)
        else:
            shutil.copy(GOLDEN / name, workdir / name)


def run_form(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run `argv` in `workdir`, which holds a copy of the inputs; return the
    record, each file name mapped to its bytes."""
    from kpeval.cli import run_cli

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.dict(os.environ, ENVIRON):
            code = run_cli(argv)
    finally:
        os.chdir(cwd)
    return {
        "exit": f"{code}\n".encode(),
        "stdout": stdout.getvalue().encode("utf-8"),
        "stderr": stderr.getvalue().encode("utf-8"),
        **take_out(workdir),
    }


def take_out(workdir: Path) -> dict[str, bytes]:
    """The files that a command wrote to `workdir/out`, keyed `out/<name>`;
    the directory is removed, so that the next form may write it."""
    out = workdir / "out"
    if not out.is_dir():
        return {}
    files = {f"out/{path.name}": path.read_bytes() for path in sorted(out.iterdir())}
    shutil.rmtree(out)
    return files


def read_record(name: str) -> dict[str, bytes]:
    root = RECORDS / name
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def main() -> None:
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    shutil.rmtree(RECORDS, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        copy_inputs(workdir)
        for name, argv in FORMS.items():
            for rel, content in run_form(argv, workdir).items():
                path = RECORDS / name / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(content)


if __name__ == "__main__":
    main()
